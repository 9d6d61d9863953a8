"""Unit tests for the averaged cross section, its flux factor, the angular
spectrum, the Klein-Nishina oracle and the two 50-digit forms of the
harmonic term."""

import importlib.util
import math
import os
import warnings

import numpy as np
import pytest

import qfel.amplitudes
import qfel.emission
from qfel import physcore
from oracles import (angular_spectrum_two_pass,
                     averaged_cross_section_per_harmonic,
                     averaged_cross_section_squares, channel_prefactor,
                     forward_cross_section, klein_nishina_reference,
                     klein_nishina_rest, photon_density_compton,
                     sum_of_squares_factors, transition_rate_prefactor)
from qfel.beamfield import LaserField, make_beam
from qfel.amplitudes import outgoing_polarization
from qfel.emission import (_TRUNCATION_RTOL, angular_spectrum,
                           averaged_cross_section)
from qfel.errors import (ClosedChannelError, DomainError, NumericError,
                         QfelError)
from qfel.kinematics import solve_final_state
from qfel.tube import gain_coefficient

LASER = LaserField(785.0, 1e19)
BEAM = make_beam(307.0)


class TestRateCrossSectionConsistency:
    def test_ratio_is_flux_factor(self):
        # the rate per unit volume and the cross section share the squared
        # amplitude, which cancels in their ratio; the ratio of their
        # independently written prefactors must be the flux-normalization
        # factor |p_z| / (4 pi^2 E)
        want = abs(BEAM.pz) / (4.0 * math.pi ** 2 * BEAM.energy)
        for frac in (0.5, 0.9, 0.999):
            for n in (1, 2):
                kin = solve_final_state(frac * math.pi, n, BEAM, LASER)
                ratio = (transition_rate_prefactor(kin, BEAM, LASER)
                         / channel_prefactor(kin, BEAM, LASER))
                assert ratio == pytest.approx(want, rel=1e-10)


class TestAveraged:
    def test_forward_value_scale(self):
        pt = averaged_cross_section(math.pi, BEAM, LASER)
        assert 1e6 * pt.value == pytest.approx(1.15, rel=0.05)

    def test_truncation_stable(self):
        for frac in (0.5, 0.9, 1.0):
            lo = averaged_cross_section(frac * math.pi, BEAM, LASER,
                                        harmonic_max=4).value
            hi = averaged_cross_section(frac * math.pi, BEAM, LASER,
                                        harmonic_max=8).value
            assert hi == pytest.approx(lo, rel=1e-10)

    def test_forward_value_is_the_closed_form(self):
        # at theta = pi only harmonic 1 is left, with P = M = 1, so the sum
        # with no extra Bessel rows has a closed form
        # (oracles.forward_cross_section), 0 at 0 W/m^2.  Of the 950
        # nonzero values, 793 agree bit for bit (the floor leaves room for
        # another libm) and the rest within 4 ulp: the code forms u/N as
        # 2 k S/D and each term in another order of roundings
        exact, worst = 0, 0.0
        for energy in np.geomspace(0.511, 1e6, 25).tolist():
            for direction in ("head_on", "co_propagating"):
                beam = make_beam(energy, direction=direction)
                laser = LaserField(785.0, 0.0)
                assert averaged_cross_section(math.pi, beam, laser).value \
                    == forward_cross_section(beam, laser) == 0.0
                with pytest.raises(NumericError, match="no gain"):
                    gain_coefficient(beam, laser)
                for intensity in (10.0 ** e for e in range(10, 29)):
                    laser = LaserField(785.0, intensity)
                    got = averaged_cross_section(math.pi, beam, laser).value
                    want = forward_cross_section(beam, laser)
                    assert want > 0.0
                    exact += got == want
                    worst = max(worst, abs(got - want) / math.ulp(want))
        assert worst <= 4.0 and exact >= 750

    def test_forward_peaked(self):
        mid = averaged_cross_section(0.5 * math.pi, BEAM, LASER).value
        peak = averaged_cross_section(0.999 * math.pi, BEAM, LASER).value
        assert peak / mid >= 1e3

    def test_theta_out_of_range(self):
        with pytest.raises(DomainError):
            averaged_cross_section(3.5, BEAM, LASER)

    def test_two_dimensional_theta_rejected(self):
        with pytest.raises(DomainError, match="1-D array"):
            averaged_cross_section(np.full((2, 3), math.pi), BEAM, LASER)

    def test_harmonic_cap_below_one_rejected(self):
        with pytest.raises(DomainError):
            averaged_cross_section(math.pi, BEAM, LASER, harmonic_max=0)

    def test_beam_at_rest_rejected(self):
        # the flux factor |p_z| vanishes
        with pytest.raises(DomainError, match="at rest"):
            averaged_cross_section(math.pi, make_beam(0.51099895), LASER)

    def test_overflow_is_numeric_error(self):
        # a 1e-230 nm wave: eA underflows to 0, so on the axis the cross
        # section, proportional to eA^2, is exactly 0 for these floats;
        # at pi/4 u^2 overflows
        wave = LaserField(1e-230, 1e19)
        assert wave.ea == 0.0
        assert averaged_cross_section(0.0, BEAM, wave).value == 0.0
        with pytest.raises(NumericError, match="cross section"):
            averaged_cross_section(0.25 * math.pi, BEAM, wave)
        # the sum no longer needs k', but the sweep's harmonic-1
        # components (k^2 times R = 0) are not finite on the axis
        with pytest.raises(NumericError, match="harmonic-1"):
            angular_spectrum(BEAM, wave, np.array([0.0]))


class TestAngularSpectrum:
    def test_grid_and_monotone_tail(self):
        thetas = np.linspace(0.9 * math.pi, math.pi, 40)
        spectrum = angular_spectrum(BEAM, LASER, thetas)
        assert spectrum.averaged.shape == thetas.shape
        assert np.all(np.diff(spectrum.averaged) > 0.0)
        assert np.all(spectrum.averaged >= 0.0)

    def test_spin_down_beam_polarization(self):
        # at eA ~ 5 the two keep channels differ at O(1) near theta = pi
        strong = LaserField(785.0, 1e24)
        beam = make_beam(307.0, spin=-1)
        thetas = np.linspace(0.5 * math.pi, math.pi, 5)
        spectrum = angular_spectrum(beam, strong, thetas)
        kins = [solve_final_state(t, 1, beam, strong) for t in thetas]
        want = np.array([outgoing_polarization(kin, beam, strong, -1, -1)
                         for kin in kins])
        np.testing.assert_array_equal(spectrum.k_prime,
                                      [kin.k_prime for kin in kins])
        np.testing.assert_array_equal(spectrum.polarization_x, want[:, 0])
        np.testing.assert_array_equal(spectrum.polarization_y, want[:, 1])

    @pytest.mark.parametrize("intensity", [1e19, 1e24])
    def test_scalar_calls_are_views_of_the_sweep(self, monkeypatch,
                                                 intensity):
        # the sweep sums its grid in one call of the blocked sum; the
        # scalar calls run the same code on one element, so every angle
        # agrees bitwise
        laser = LaserField(785.0, intensity)
        thetas = np.linspace(0.0, math.pi, 41)
        calls = []
        harmonic_sum = qfel.emission._harmonic_sum

        def recording(*args, **kwargs):
            calls.append(harmonic_sum(*args, **kwargs))
            return calls[-1]

        monkeypatch.setattr(qfel.emission, "_harmonic_sum", recording)
        spectrum = angular_spectrum(BEAM, laser, thetas)
        monkeypatch.undo()
        assert len(calls) == 1
        value, used, _ = calls[0]
        np.testing.assert_array_equal(value, spectrum.averaged)
        assert np.unique(used).size > 1
        for j, theta in enumerate(thetas.tolist()):
            point = averaged_cross_section(theta, BEAM, laser)
            np.testing.assert_array_equal(point.value, value[j])
            assert point.harmonic == used[j]
            kin = solve_final_state(theta, 1, BEAM, laser)
            np.testing.assert_array_equal(kin.k_prime, spectrum.k_prime[j])
            pol = outgoing_polarization(kin, BEAM, laser, 1, 1)
            np.testing.assert_array_equal(
                pol[:2], [spectrum.polarization_x[j],
                          spectrum.polarization_y[j]])

    @pytest.mark.parametrize("intensity,cap", [(1e19, 8), (1e24, 8),
                                               (1e28, 60)])
    @pytest.mark.parametrize("points", [41, 3000])
    def test_one_bessel_pass_per_block_one_table_per_sweep(
            self, monkeypatch, intensity, cap, points):
        # each block of harmonics makes one stacked Bessel call of J_{N-1}
        # and J_{N+1} and no final-state solve or channel components.  The
        # sweep makes one harmonic-1 solve and one keep-half call
        # (``amplitudes._keep_components``) for its k' and polarization,
        # and J_1, J_0, J_2 of that solve ride as three extra rows in the
        # first block's call; the scalar view and the tube gain make
        # neither, and nothing here calls the flip half.
        # Every block has the height of the budget rule, also at 1e28 W/m^2,
        # where most Bessel arguments exceed the series cut at 9.
        laser = LaserField(785.0, intensity)
        thetas = np.linspace(0.0, math.pi, points)
        bessel, solves, channels, flips = [], [], [], []

        def recording(log, fn, entry):
            def recorded(*args):
                log.append(entry(*args))
                return fn(*args)
            return recorded

        def orders(order, x):
            return np.atleast_1d(order).tolist(), np.shape(x)[-1]

        for module, name, log, entry in (
                (physcore, "bessel_jn", bessel, orders),
                (qfel.amplitudes, "bessel_jn", bessel, orders),
                (qfel.emission, "solve_final_state", solves,
                 lambda theta, harmonic, *_: (np.size(theta), harmonic)),
                (qfel.emission, "_keep_components", channels,
                 lambda *_: 1),
                (qfel.amplitudes, "_flip_components", flips,
                 lambda *_: 1)):
            monkeypatch.setattr(module, name,
                                recording(log, getattr(module, name), entry))

        def blocks(extra):
            # (first harmonic, height, angles) of each call, checking its
            # rows: 2H for a block, the first one with `extra` more
            out, first = [], 1
            for j, (got, live) in enumerate(bessel):
                tail = extra if j == 0 else []
                height = (len(got) - len(tail)) // 2
                assert got == [*range(first - 1, first + height - 1),
                               *range(first + 1, first + height + 1), *tail]
                assert height == max(1, min(cap - first + 1, 2048 // live))
                out.append((first, height, live))
                first += height
            return out

        angular_spectrum(BEAM, laser, thetas, harmonic_max=cap)
        assert solves == [(points, 1)] and channels == [1]
        sweep = blocks([1, 0, 2])
        bessel.clear()
        used = averaged_cross_section(thetas, BEAM, laser,
                                      harmonic_max=cap).harmonic
        assert blocks([]) == sweep
        gain_coefficient(BEAM, laser)
        assert solves == [(points, 1)] and channels == [1] and flips == []
        monkeypatch.undo()
        last, height, _ = sweep[-1]
        assert last + height > used.max() and sweep[0][2] == points
        if points == 41:
            assert sweep[0] == (1, min(cap, 2048 // points), points)
        else:
            assert sweep[0] == (1, 1, points)
            # at 1e28 W/m^2 more than 1024 angles run to cap 60
            assert max(h for _, h, _ in sweep) > 1 or intensity == 1e28

    @pytest.mark.parametrize("grid, cap, message", [
        ([0.5, math.inf], 8, "theta must lie in [0, pi], got inf"),
        ([math.nan, 0.5], 8, "theta must lie in [0, pi], got nan"),
        ([0.5, 4.0], 8, "theta must lie in [0, pi], got 4.0"),
        ([0.5, math.pi], 0, "harmonic_max must be >= 1, got 0")])
    def test_solve_before_the_grid_check_stays_silent(self, grid, cap,
                                                      message):
        # the sweep's harmonic-1 solve runs before the sum checks the grid,
        # under the same silenced error state: a bad grid or cap ends in
        # the sum's own error, never in a warning from the solve
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError) as caught:
                angular_spectrum(BEAM, LASER, np.array(grid),
                                 harmonic_max=cap)
        assert str(caught.value) == message

    def test_invalid_grid(self):
        with pytest.raises(DomainError):
            angular_spectrum(BEAM, LASER, np.array([[0.1]]))
        with pytest.raises(DomainError, match="non-empty"):
            angular_spectrum(BEAM, LASER, np.array([]))
        with pytest.raises(DomainError):
            angular_spectrum(BEAM, LASER, np.array([4.0]))


class TestSweepOracle:
    """The sweep against ``oracles.angular_spectrum_two_pass``, which
    evaluates harmonic 1 again beside the sum: equal bits in all four
    columns, or the same exception type and message."""

    # cap 60 at 3000 angles is left out: 2048 // 3000 gives a first block
    # of harmonic 1 alone, which cap 8 at 3000 angles already covers, and
    # it would add about 2.5 s (0.6-0.9 s per strong-field intensity)
    @pytest.mark.parametrize("intensity,cap,points", [
        (intensity, cap, points)
        for intensity in (0.0, 1e19, 1e24, 1e25, 1e28)
        for cap in (1, 8, 60) for points in (1, 41, 150, 3000)
        if (cap, points) != (60, 3000)])
    def test_bits_equal_two_pass(self, intensity, cap, points):
        laser = LaserField(785.0, intensity)
        thetas = (np.array([0.97 * math.pi]) if points == 1
                  else np.linspace(0.0, math.pi, points))
        for energy in (0.6, 307.0):
            for direction in ("head_on", "co_propagating"):
                for spin in (1, -1):
                    beam = make_beam(energy, direction=direction, spin=spin)
                    results = []
                    for fn in (angular_spectrum, angular_spectrum_two_pass):
                        try:
                            results.append(fn(beam, laser, thetas,
                                              harmonic_max=cap))
                        except QfelError as exc:
                            results.append((type(exc), str(exc)))
                    got, want = results
                    if intensity == 0.0:
                        assert isinstance(want, tuple)
                        assert want[0] is ClosedChannelError
                    if isinstance(want, tuple):
                        assert got == want
                        continue
                    for field in ("k_prime", "averaged", "polarization_x",
                                  "polarization_y"):
                        a, b = getattr(got, field), getattr(want, field)
                        assert a.dtype == b.dtype
                        assert a.tobytes() == b.tobytes(), field


class TestKleinNishinaOracle:
    def test_rest_frame_thomson_limit(self):
        # soft photons recover the Thomson differential cross section
        alpha = 7.2973525693e-3
        for ct in (-1.0, 0.0, 0.7):
            got = klein_nishina_rest(1e-8, ct)
            want = 0.5 * alpha ** 2 * (1.0 + ct * ct)
            assert got == pytest.approx(want, rel=1e-6)

    def test_rest_frame_total_compton_backscatter(self):
        # k = 1 (m_e): check against the closed-form value of the
        # Klein-Nishina formula at 180 degrees
        alpha = 7.2973525693e-3
        k = 1.0
        kp = k / (1.0 + 2.0 * k)
        want = 0.5 * alpha ** 2 * (kp / k) ** 2 * (kp / k + k / kp)
        assert klein_nishina_rest(k, -1.0) == pytest.approx(want, rel=1e-12)

    def test_photon_density_identity(self):
        # k eA^2 / (4 pi alpha) must equal the photon count of a wave of
        # intensity I in one Compton volume, computed independently in SI
        laser = LaserField(785.0, 1e19)
        energy_j = (physcore.photon_energy_from_wavelength(785.0)
                    * physcore.ELEMENTARY_CHARGE)
        n_si = laser.intensity_w_m2 / (physcore.SPEED_OF_LIGHT * energy_j)
        want = n_si * physcore.COMPTON_WAVELENGTH_M**3
        assert photon_density_compton(laser) == pytest.approx(want, rel=1e-10)

    def test_low_intensity_ratio_flat_in_theta(self):
        # at weak fields the averaged cross section is the Klein-Nishina
        # value per photon times the photon content of the Compton volume,
        # up to a constant normalization; the ratio must not depend on theta
        weak = LaserField(785.0, 1e16)
        n_gamma = photon_density_compton(weak)
        ratios = []
        for frac in (0.3, 0.6, 0.9, 0.999, 1.0):
            theta = frac * math.pi
            avg = averaged_cross_section(theta, BEAM, weak).value
            kn = klein_nishina_reference(theta, BEAM, weak.k)
            ratios.append(avg / (n_gamma * kn))
        ratios = np.array(ratios)
        assert np.ptp(ratios) / ratios.mean() < 0.02

    def test_ratio_stable_in_intensity(self):
        theta = 0.95 * math.pi
        vals = []
        for intensity in (1e17, 1e15):
            field = LaserField(785.0, intensity)
            avg = averaged_cross_section(theta, BEAM, field).value
            kn = klein_nishina_reference(theta, BEAM, field.k)
            vals.append(avg / (photon_density_compton(field) * kn))
        assert vals[0] == pytest.approx(vals[1], rel=0.02)


class TestHarmonicBlocks:
    """The blocked harmonic sum against the same sum one harmonic at a
    time (``oracles.averaged_cross_section_squares``): equal bits in
    every value and every harmonic count, and the same exceptions.  The
    coefficient-table form (``oracles.averaged_cross_section_per_harmonic``)
    is a second, independent oracle over the same grid."""

    # (intensity W/m^2, harmonic cap, beam energy MeV, direction, spin)
    CASES = [(0.0, 8, 307.0, "co_propagating", 1),    # every term 0
             (1e19, 8, 307.0, "head_on", 1),
             (1e19, 60, 307.0, "co_propagating", -1),
             (1e24, 1, 307.0, "head_on", -1),
             (1e24, 8, 307.0, "head_on", -1),
             (1e24, 30, 1e6, "co_propagating", 1),
             (1e25, 30, 307.0, "head_on", 1),
             (1e25, 8, 307.0, "co_propagating", -1),
             (1e28, 60, 307.0, "head_on", -1)]

    GRID = [(*case, points) for case in CASES
            for points in (1, 41, 150, 3000)]

    @staticmethod
    def grid(intensity, energy, direction, spin, points):
        thetas = (np.array([0.97 * math.pi]) if points == 1
                  else np.linspace(0.0, math.pi, points))
        return (LaserField(785.0, intensity),
                make_beam(energy, direction=direction, spin=spin), thetas)

    @pytest.mark.parametrize("intensity,cap,energy,direction,spin,points",
                             GRID)
    def test_bits_equal_one_harmonic_at_a_time(self, intensity, cap, energy,
                                               direction, spin, points):
        laser, beam, thetas = self.grid(intensity, energy, direction, spin,
                                        points)
        got = averaged_cross_section(thetas, beam, laser, harmonic_max=cap)
        value, used, _ = averaged_cross_section_squares(
            thetas, beam, laser, harmonic_max=cap)
        np.testing.assert_array_equal(got.value.view(np.int64),
                                      value.view(np.int64))
        np.testing.assert_array_equal(got.harmonic, used)

    @pytest.mark.parametrize("intensity,cap,energy,direction,spin,points",
                             GRID)
    def test_table_form_agrees(self, intensity, cap, energy, direction, spin,
                               points):
        # the two forms differ by rounding only (at most 3.6e-15 relative
        # measured over this grid), and the table form's smallest terms
        # carry cancellation, so a stop may move by one harmonic; every
        # term one form adds past the other's stop is below the stop's
        # 1e-14 of the total
        laser, beam, thetas = self.grid(intensity, energy, direction, spin,
                                        points)
        value, used, terms = averaged_cross_section_squares(
            thetas, beam, laser, harmonic_max=cap)
        table, table_used, table_terms = averaged_cross_section_per_harmonic(
            thetas, beam, laser, harmonic_max=cap)
        np.testing.assert_allclose(value, table, rtol=1e-13, atol=0.0)
        assert np.abs(used - table_used).max() <= 1
        n = np.arange(1, cap + 1)[:, None]
        extra = np.where(n > table_used, terms, table_terms)
        extra[(n <= np.minimum(used, table_used))
              | (n > np.maximum(used, table_used))] = 0.0
        assert (extra <= _TRUNCATION_RTOL * np.maximum(value, table)).all()

    @pytest.mark.parametrize("intensity,points", [(1e19, 41), (1e24, 150),
                                                  (1e24, 3000)])
    def test_out_of_range_bessel_argument_raises_alike(self, monkeypatch,
                                                       intensity, points):
        # a harmonic past every angle's stop may have any argument: only a
        # reached one may raise, in the block as one harmonic at a time
        laser = LaserField(785.0, intensity)
        thetas = np.linspace(0.0, math.pi, points)
        cap = 30
        _, used, _ = averaged_cross_section_squares(thetas, BEAM, laser,
                                                    harmonic_max=cap)
        # J_{N-1} and J_{N+1} at N w, N = 1..cap
        w = sum_of_squares_factors(thetas, BEAM, laser)[2]
        args = np.arange(1, cap + 1)[:, None] * w
        reached = np.arange(1, cap + 1)[:, None] <= used
        top = args[reached].max()
        if intensity == 1e19:
            # blocks hold harmonics past every stop with larger arguments
            assert args.max() > top
        limits = [np.nextafter(top, np.inf), top,
                  float(np.median(args[reached])), 0.5 * top]
        outcomes = []
        for limit in limits:
            monkeypatch.setattr(physcore, "_BESSEL_MAX_ARG", limit)
            results = []
            for fn in (averaged_cross_section,
                       averaged_cross_section_squares):
                try:
                    results.append(fn(thetas, BEAM, laser, harmonic_max=cap))
                except QfelError as exc:        # compared by type below
                    results.append(type(exc))
            block, single = results
            if isinstance(single, type):
                assert block is single
            else:
                np.testing.assert_array_equal(block.value, single[0])
                np.testing.assert_array_equal(block.harmonic, single[1])
            outcomes.append(single)
        assert not isinstance(outcomes[0], type)
        assert outcomes[1] is DomainError


def _fifty_digits():
    path = os.path.join(os.path.dirname(__file__), "golden", "fifty_digits.py")
    spec = importlib.util.spec_from_file_location("fifty_digits", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestFiftyDigitForms:
    """``tests/golden/fifty_digits.py`` evaluates the harmonic term in two
    independent forms: from the F/G coefficient tables and spin vectors,
    and as the sum of squares of J_{N-1} and J_{N+1} that the code sums."""

    def test_sum_of_squares_equals_table_form(self):
        # both directions, eA from 0.015 to 15, N = 1..7 and angles 1e-9
        # from either axis; measured agreement 1.1e-41 (over 168 points)
        fd = _fifty_digits()
        mp = fd.mp
        points = [(direction, intensity, theta)
                  for direction in ("head_on", "co_propagating")
                  for intensity in (1e19, 1e23, 1e25)
                  for theta in (1e-9, 0.6 * math.pi, math.pi - 1e-9)]
        points += [("co_propagating", 1e24, 0.0), ("head_on", 1e24, math.pi)]
        for j, (direction, intensity, theta) in enumerate(points):
            laser = LaserField(785.0, intensity)
            beam = fd.Beam(307.0, direction, 1)
            args = (mp.mpf(theta), 1 + j % 7, beam, mp.mpf(laser.k),
                    mp.mpf(laser.ea))
            table, squares = fd.table_term(*args), fd.squares_term(*args)
            assert squares >= 0
            assert abs(table - squares) <= mp.mpf("1e-40") * squares, j
