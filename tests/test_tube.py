"""Unit tests for the tube population dynamics."""

import math
import random

import numpy as np
import pytest

from qfel import physcore
from qfel.beamfield import LaserField, make_beam
from qfel.errors import DomainError
from oracles import balance_rhs, evolve_analytic, integrate_ode
from qfel.tube import (TubeConfig, density_compton_to_si,
                       density_si_to_compton, evolve_seeded,
                       gain_coefficient, output_intensity, run_cyclic,
                       run_multi_section)

LASER = LaserField(785.0, 1e19)
BEAM = make_beam(307.0, density_m3=1e18)


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


class TestCyclic:
    def test_zero_efficiency_is_single_pass(self):
        linear = run_multi_section(BEAM, LASER, 0.01, 5)
        cyclic = run_cyclic(BEAM, LASER, 0.01, 5, 4, 0.0)
        assert cyclic.photon_density_m3 == pytest.approx(
            linear.photon_density_m3, rel=1e-12)

    def test_full_efficiency_is_long_chain(self):
        chain = run_multi_section(BEAM, LASER, 0.01, 6)
        cyclic = run_cyclic(BEAM, LASER, 0.01, 2, 3, 1.0)
        assert cyclic.photon_density_m3 == pytest.approx(
            chain.photon_density_m3, rel=1e-10)

    def test_seed_enters_first_cycle(self):
        chain = run_multi_section(BEAM, LASER, 0.01, 4, seed_m3=1e17)
        cyclic = run_cyclic(BEAM, LASER, 0.01, 2, 2, 1.0, seed_m3=1e17)
        assert cyclic.photon_density_m3 == pytest.approx(
            chain.photon_density_m3, rel=1e-12)

    def test_band_warning_for_hard_gamma(self):
        # 2.26 MeV photons are far below the Bragg-reflectable wavelength
        result = run_cyclic(BEAM, LASER, 0.01, 2, 2, 0.5)
        assert any("Bragg" in w for w in result.warnings)

    def test_validation(self):
        with pytest.raises(DomainError):
            run_cyclic(BEAM, LASER, 0.01, 2, 0, 0.5)
        with pytest.raises(DomainError):
            run_cyclic(BEAM, LASER, 0.01, 2, 2, 1.5)
