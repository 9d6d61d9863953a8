"""Unit tests for the tube population dynamics."""

import math
import random

import numpy as np
import pytest

import qfel.tube
from qfel import physcore
from qfel.beamfield import LaserField, make_beam
from qfel.errors import DomainError
from decimal_oracle import tube_section
from oracles import (balance_rhs, evolve_analytic, integrate_ode,
                     run_multi_section_per_section)
from qfel.tube import (TubeConfig, density_compton_to_si,
                       density_si_to_compton, evolve_seeded,
                       gain_coefficient, output_intensity,
                       run_multi_section)

LASER = LaserField(785.0, 1e19)
BEAM = make_beam(307.0, density_m3=1e18)


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestDensityUnits:
    def test_round_trip(self):
        assert density_compton_to_si(density_si_to_compton(1e18)) \
            == pytest.approx(1e18, rel=1e-14)

    def test_compton_volume_scale(self):
        # 1e18 per m^3 is a vanishing occupancy per Compton volume
        assert density_si_to_compton(1e18) == pytest.approx(5.76e-20, rel=1e-2)


class TestGainCoefficient:
    def test_gain_length_anchor(self):
        a, length = gain_coefficient(BEAM, LASER)
        assert length == pytest.approx(337e-9, rel=0.05)
        assert a == pytest.approx(physcore.COMPTON_WAVELENGTH_M / length,
                                  rel=1e-12)


class TestClosedFormsVsRK4:
    def test_random_sweep(self):
        rng = random.Random(20240817)
        for _ in range(20):
            n0 = 10.0 ** rng.uniform(-2.0, 2.0)
            seed = rng.choice([0.0, 10.0 ** rng.uniform(-3.0, 1.0)])
            gain = 10.0 ** rng.uniform(-7.0, -5.0)
            # a few gain lengths of propagation
            length = rng.uniform(0.5, 4.0) * physcore.COMPTON_WAVELENGTH_M / gain
            cfg = TubeConfig(length_m=length, gain=gain, n0=n0, seed=seed)
            prof = evolve_seeded(cfg, samples=2)
            _, ys = integrate_ode(
                lambda l, n: balance_rhs(n, n0, seed, gain),
                n0, (0.0, length), 4000)
            assert ys[-1] == pytest.approx(prof.n[-1], rel=1e-8)

    def test_conservation(self):
        cfg = TubeConfig(length_m=1e-6, gain=1e-6, n0=3.7, seed=0.25)
        prof = evolve_seeded(cfg, samples=50)
        np.testing.assert_allclose(prof.n + prof.n_prime,
                                   np.full_like(prof.n, cfg.n0),
                                   rtol=1e-10)
        np.testing.assert_allclose(prof.photon - cfg.seed, prof.n_prime,
                                   rtol=1e-10, atol=1e-12)

    def test_seeded_reduces_to_unseeded(self):
        for n0 in (0.01, 1.0, 40.0):
            cfg = TubeConfig(length_m=2e-7, gain=1.1e-6, n0=n0, seed=0.0)
            seeded = evolve_seeded(cfg, samples=31)
            plain = evolve_analytic(cfg, samples=31)
            np.testing.assert_allclose(seeded.n, plain.n, rtol=1e-12)
            np.testing.assert_allclose(seeded.photon, plain.photon,
                                       rtol=1e-12, atol=1e-14)
            assert seeded.asymptote == pytest.approx(plain.asymptote,
                                                     rel=1e-12)
            assert isinstance(seeded.asymptote, float)   # one seed, one value

    def test_unseeded_asymptote(self):
        n0 = 2.5
        cfg = TubeConfig(length_m=1.0, gain=1e-6, n0=n0)
        prof = evolve_analytic(cfg, samples=2)
        want = 2.0 * n0 / (math.sqrt(n0 * n0 + 6.0 * n0 + 1.0) - n0 + 1.0)
        assert prof.asymptote == pytest.approx(want, rel=1e-12)
        # a long tube reaches the asymptote
        assert prof.photon[-1] == pytest.approx(want, rel=1e-9)

    def test_zero_length(self):
        cfg = TubeConfig(length_m=0.0, gain=1e-6, n0=1.3, seed=0.0)
        prof = evolve_seeded(cfg, samples=5)
        np.testing.assert_allclose(prof.photon, 0.0, atol=1e-14)
        np.testing.assert_allclose(prof.n, cfg.n0, rtol=1e-14)

    def test_dilute_limit_full_conversion(self):
        # for n0 << 1 the balance drives nearly every electron to emit
        cfg = TubeConfig(length_m=1.0, gain=1.1e-6, n0=1e-19)
        prof = evolve_seeded(cfg, samples=2)
        assert prof.asymptote == pytest.approx(cfg.n0, rel=1e-6)

    def test_dilute_fixed_point(self):
        # at realistic densities the electron density settles on the lower
        # root n0 (n0 + N0) / b from above, without cancelling to zero
        n0 = density_si_to_compton(1e18)
        for seed in (0.0, density_si_to_compton(1e17)):
            cfg = TubeConfig(length_m=1.0, gain=1.1e-6, n0=n0, seed=seed)
            prof = evolve_seeded(cfg)
            want = n0 * (n0 + seed) / (2.0 * seed + 3.0 * n0 + 1.0)
            assert prof.n[-1] == pytest.approx(want, rel=1e-12)
            assert np.all(prof.n >= want * (1.0 - 1e-12))

    def test_dense_limit_half_conversion(self):
        # for n0 >> 1 half the electrons emit; above ~1e16 per Compton
        # volume n0 and the upper root agree to float resolution
        for n0 in (1e6, 1e20, 1e120):
            cfg = TubeConfig(length_m=1.0, gain=1.1e-6, n0=n0)
            prof = evolve_seeded(cfg)
            assert prof.n[0] == pytest.approx(n0, rel=1e-12)
            assert prof.n[-1] == pytest.approx(0.5 * n0, rel=1e-5)
            assert prof.asymptote == pytest.approx(0.5 * n0, rel=1e-5)

    def test_validation(self):
        with pytest.raises(DomainError):
            TubeConfig(length_m=-1.0, gain=1e-6, n0=1.0)
        with pytest.raises(DomainError):
            TubeConfig(length_m=1.0, gain=0.0, n0=1.0)
        with pytest.raises(DomainError):
            TubeConfig(length_m=1.0, gain=1e-6, n0=-1.0)

    @pytest.mark.parametrize("field", ("length_m", "gain", "n0", "seed"))
    @pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf))
    def test_non_finite_named(self, field, bad):
        # NaN slips through a bare 'x < 0' check
        values = dict(length_m=1.0, gain=1e-6, n0=1.0, seed=0.0)
        values[field] = bad
        with pytest.raises(DomainError, match=f"^{field} must be finite"):
            TubeConfig(**values)

    def test_seed_rows_validated(self):
        # the message names the first bad seed, not the whole row
        for seeds, bad in (([0.1, -1e-30, 2.0], "-1e-30"),
                           ([0.1, math.nan, -1.0], "nan")):
            with pytest.raises(DomainError,
                               match=f"^seed must be finite and >= 0, "
                                     f"got {bad}$"):
                TubeConfig(length_m=1.0, gain=1e-6, n0=1.0,
                           seed=np.array(seeds))

    @pytest.mark.parametrize("n0", (0.0, 1e-19, 3.7, 1e20, 1e120))
    def test_seed_rows_equal_single_seed_calls(self, n0):
        seeds = [0.0, 1e-21, 0.25, 1e17, 1e262]
        block = evolve_seeded(TubeConfig(length_m=1e-6, gain=1.1e-6, n0=n0,
                                         seed=np.array(seeds)), samples=17)
        for row, seed in enumerate(seeds):
            one = evolve_seeded(TubeConfig(length_m=1e-6, gain=1.1e-6,
                                           n0=n0, seed=seed), samples=17)
            assert same_bits(block.l_m, one.l_m)
            for field in ("n", "n_prime", "photon", "asymptote"):
                assert same_bits(getattr(block, field)[row],
                                 getattr(one, field))


class TestOutputIntensity:
    def test_single_section_anchor(self):
        # half of 1e18 electrons per m^3 converted to 2.26 MeV photons
        got = output_intensity(0.5e18, 2.2629858824287923)
        assert got == pytest.approx(5.4e13, rel=0.02)

    def test_validation(self):
        with pytest.raises(DomainError):
            output_intensity(-1.0, 1.0)


class TestMultiSection:
    def test_headline_one_half_rule(self):
        result = run_multi_section(BEAM, LASER, 0.01, 1)
        assert result.headline_photon_density_m3 == pytest.approx(
            0.5e18, rel=1e-12)
        assert result.headline_intensity_w_m2 == pytest.approx(
            5.4e13, rel=0.02)

    def test_exact_chain_converts_everything(self):
        # a centimeter is ~3e4 gain lengths; the dilute exact solution
        # converts essentially the whole beam in every section
        result = run_multi_section(BEAM, LASER, 0.01, 3)
        assert result.photon_density_m3 == pytest.approx(3e18, rel=1e-6)

    def test_sections_scale_headline(self):
        one = run_multi_section(BEAM, LASER, 0.01, 1)
        many = run_multi_section(BEAM, LASER, 0.01, 100)
        assert many.headline_intensity_w_m2 == pytest.approx(
            100.0 * one.headline_intensity_w_m2, rel=1e-10)

    def test_unit_tension_flagged(self):
        result = run_multi_section(BEAM, LASER, 0.01, 1)
        assert any("tension" in w for w in result.warnings)

    def test_requires_density(self):
        lean = make_beam(307.0, density_m3=0.0)
        with pytest.raises(DomainError):
            run_multi_section(lean, LASER, 0.01, 1)


class TestDenseShortSections:
    """Dense beams over sections far shorter than a gain length, where n
    stays within float resolution of n0 and n0 - n used to cancel."""

    def test_end_value_and_chain(self):
        # 1e60 m^-3 is 5.8e22 per Compton volume; the exact chain is the
        # 150-digit value of the two sections
        beam = make_beam(307.0, density_m3=1e60)
        result = run_multi_section(beam, LASER, 2e-28, 2)
        end = result.profile.photon[0, -1]
        assert end > 0.0
        assert end == pytest.approx(7.74e14, rel=1e-3)
        assert result.photon_density_m3 == pytest.approx(
            4.99999989449508e+59, rel=1e-11)

    def test_no_section_ends_below_its_seed(self):
        # decades of 1e40-1e62 m^-3 x 1e-40-1e-10 m at zero seed
        for density in np.geomspace(1e40, 1e62, 23):
            beam = make_beam(307.0, density_m3=density)
            for length in np.geomspace(1e-40, 1e-10, 31).tolist():
                photon = run_multi_section(beam, LASER, length,
                                           2).profile.photon
                assert (photon[:, -1] >= photon[:, 0]).all(), (density,
                                                               length)


class TestDecimalReference:
    def test_random_sections(self):
        # n, n', N and the asymptote at both ends of a section against
        # the 120-digit closed form; exp(-a d l / lambda_c) carries the
        # relative error of its argument into every density
        rng = random.Random(20261019)
        lc = physcore.COMPTON_WAVELENGTH_M
        for _ in range(2000):
            n0 = rng.choice([0.0, 10.0 ** rng.uniform(-25.0, 25.0)])
            seed = rng.choice([0.0, 10.0 ** rng.uniform(-30.0, 25.0)])
            gain = 10.0 ** rng.uniform(-15.0, 0.0)
            length = rng.choice([0.0, 10.0 ** rng.uniform(-45.0, 2.0)])
            prof = evolve_seeded(TubeConfig(length_m=length, gain=gain,
                                            n0=n0, seed=seed), samples=2)
            d = math.hypot(2.0 * seed + n0,
                           math.sqrt(4.0 * seed + 6.0 * n0 + 1.0))
            for i, l in enumerate(prof.l_m.tolist()):
                want = tube_section(n0, seed, gain, l, lc)
                tol = 16.0 * 2.0 ** -52 * (1.0 + gain * d * l / lc)
                got = (prof.n[i], prof.n_prime[i], prof.photon[i],
                       prof.asymptote)
                for g, w in zip(got, want):
                    assert abs(g - w) <= tol * abs(w), (n0, seed, gain, l)


class TestCyclic:
    def test_zero_efficiency_is_single_pass(self):
        linear = run_multi_section(BEAM, LASER, 0.01, 5)
        cyclic = run_multi_section(BEAM, LASER, 0.01, 5, cycles=4,
                                   efficiency=0.0)
        assert cyclic.photon_density_m3 == pytest.approx(
            linear.photon_density_m3, rel=1e-12)

    def test_full_efficiency_is_long_chain(self):
        chain = run_multi_section(BEAM, LASER, 0.01, 6)
        cyclic = run_multi_section(BEAM, LASER, 0.01, 2, cycles=3,
                                   efficiency=1.0)
        assert cyclic.photon_density_m3 == pytest.approx(
            chain.photon_density_m3, rel=1e-10)

    def test_seed_enters_first_cycle(self):
        chain = run_multi_section(BEAM, LASER, 0.01, 4, seed_m3=1e17)
        cyclic = run_multi_section(BEAM, LASER, 0.01, 2, seed_m3=1e17,
                                   cycles=2, efficiency=1.0)
        assert cyclic.photon_density_m3 == pytest.approx(
            chain.photon_density_m3, rel=1e-12)

    def test_gain_computed_once_per_run(self, monkeypatch):
        calls = []

        def counted(beam, laser):
            calls.append(1)
            return gain_coefficient(beam, laser)

        monkeypatch.setattr(qfel.tube, "gain_coefficient", counted)
        run_multi_section(BEAM, LASER, 0.01, 2, cycles=3, efficiency=0.5)
        assert len(calls) == 1

    def test_band_warning_for_hard_gamma(self):
        # 2.26 MeV photons are far below the Bragg-reflectable wavelength
        result = run_multi_section(BEAM, LASER, 0.01, 2, cycles=2,
                                   efficiency=0.5)
        assert any("Bragg" in w for w in result.warnings)

    def test_band_note_only_for_cyclic_runs(self):
        # a linear chain has no reflectors, so the default 307 MeV run
        # carries the unit-tension note alone
        linear = run_multi_section(BEAM, LASER, 0.01, 2)
        cyclic = run_multi_section(BEAM, LASER, 0.01, 2, cycles=2)
        assert len(linear.warnings) == 1
        assert "tension" in linear.warnings[0]
        assert "tension" in cyclic.warnings[0]
        assert len(cyclic.warnings) == 2
        assert "Bragg" in cyclic.warnings[1]

    def test_no_sections_rejected(self):
        with pytest.raises(DomainError, match="section count must be >= 1"):
            run_multi_section(BEAM, LASER, 0.01, sections=0)

    def test_validation(self):
        with pytest.raises(DomainError):
            run_multi_section(BEAM, LASER, 0.01, 2, cycles=0, efficiency=0.5)
        with pytest.raises(DomainError):
            run_multi_section(BEAM, LASER, 0.01, 2, cycles=2, efficiency=1.5)


class TestRunnerOracle:
    """The runner chains end values on floats and samples the kept cycle as
    one block; the oracle samples every section of every cycle."""

    FIELDS = ("photon_density_m3", "headline_photon_density_m3",
              "intensity_w_m2", "headline_intensity_w_m2",
              "photon_energy_mev", "gain", "gain_length_m")

    def assert_same_run(self, beam, length, sections, **kwargs):
        try:
            want = run_multi_section_per_section(beam, LASER, length,
                                                 sections, **kwargs)
        except DomainError:
            with pytest.raises(DomainError):
                run_multi_section(beam, LASER, length, sections, **kwargs)
            return
        got = run_multi_section(beam, LASER, length, sections, **kwargs)
        for field in ("l_m", "n", "n_prime", "photon", "asymptote"):
            assert same_bits(getattr(got.profile, field),
                             getattr(want.profile, field)), field
        for field in self.FIELDS:
            assert same_bits(getattr(got, field), getattr(want, field)), field
        assert got.warnings == want.warnings

    @pytest.mark.parametrize("length", (0.0, 0.01, 1e5))
    @pytest.mark.parametrize("density", (1e-300, 1e12, 1e18, 1e40, 1e60))
    def test_bits_equal_per_section_chain(self, density, length):
        # each (density, length) pair runs every section count, cycle
        # count, seed and efficiency.  1e-300 m^-3 is zero per Compton
        # volume.
        beam = make_beam(307.0, density_m3=density)
        for i in range(8):
            self.assert_same_run(beam, length, (1, 7, 39, 100)[i % 4],
                                 seed_m3=(0.0, 1e15, 1e300)[i % 3],
                                 cycles=1 + (i + i // 4) % 4,
                                 efficiency=(0.0, 0.3, 1.0)[i // 3])

    def test_end_value_rounds_as_the_last_sample(self):
        # over a few gain lengths the exponential at a section's end is
        # neither 0 nor 1; math.exp differs there from numpy's exp in the
        # last bit for some arguments, and the chain would then part from
        # the sampled block
        beam = make_beam(307.0, density_m3=1e32)
        for length in np.geomspace(1e-9, 1e-7, 9).tolist():
            self.assert_same_run(beam, length, 39)

    @pytest.mark.parametrize("density", (5.62e20, 1e-300, 1e12, 1e18, 1e40,
                                         1e60))
    def test_zero_length_keeps_the_seed(self, density):
        # a zero-length section adds no photons: n' is 0.0 and the photon
        # density is the seed, bit for bit, in every section and cycle
        beam = make_beam(307.0, density_m3=density)
        for seed_m3, cycles in ((0.0, 1), (1e15, 2)):
            result = run_multi_section(beam, LASER, 0.0, 3, seed_m3=seed_m3,
                                       cycles=cycles)
            seed = density_si_to_compton(seed_m3)
            assert same_bits(result.profile.n_prime,
                             np.zeros_like(result.profile.n_prime))
            assert same_bits(result.profile.photon,
                             np.full_like(result.profile.photon, seed))
            assert result.photon_density_m3 == density_compton_to_si(seed)
            self.assert_same_run(beam, 0.0, 3, seed_m3=seed_m3, cycles=cycles)

    @pytest.mark.parametrize("ulps", (4, 5, math.nan, math.inf))
    def test_end_value_past_rounding_raises(self, monkeypatch, ulps):
        # the closed form ends every section at or above its seed; an end
        # value below zero or NaN fails the check of the kept cycle's
        # seeds, which names the first bad one
        densities = qfel.tube._densities

        def shifted(n0, seed, gain, l):
            n, n_prime, photon, asymptote = densities(n0, seed, gain, l)
            if np.ndim(l) == 0:         # a step of the chain
                photon = -ulps * math.ulp(n0)
            return n, n_prime, photon, asymptote

        monkeypatch.setattr(qfel.tube, "_densities", shifted)
        bad = -ulps * math.ulp(density_si_to_compton(BEAM.density_m3))
        with pytest.raises(DomainError) as info:
            run_multi_section(BEAM, LASER, 0.01, 2)
        assert str(info.value) == f"seed must be finite and >= 0, got {bad}"

    @pytest.mark.parametrize("kwargs, field", (
        (dict(section_length_m=math.nan), "length_m"),
        (dict(section_length_m=math.inf), "length_m"),
        (dict(seed_m3=math.nan), "seed"),
        (dict(seed_m3=math.inf), "seed")))
    def test_non_finite_inputs_named(self, kwargs, field):
        args = dict(section_length_m=0.01, sections=2, seed_m3=0.0)
        args.update(kwargs)
        with pytest.raises(DomainError, match=f"^{field} must be finite"):
            run_multi_section(BEAM, LASER, **args)
