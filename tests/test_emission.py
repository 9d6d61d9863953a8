"""Unit tests for cross sections, rates, and the Klein-Nishina oracle."""

import math

import numpy as np
import pytest

import qfel.emission
from qfel.beamfield import LaserField, make_beam
from qfel.amplitudes import outgoing_polarization
from qfel.emission import (angular_spectrum, averaged_cross_section,
                           diff_cross_section, klein_nishina_reference,
                           klein_nishina_rest, transition_rate_density)
from qfel.errors import DomainError, NumericError
from qfel.kinematics import solve_final_state

LASER = LaserField(785.0, 1e19)
BEAM = make_beam(307.0)


class TestSingleChannel:
    def test_nonnegative(self):
        kin = solve_final_state(0.9 * math.pi, 1, BEAM, LASER)
        for sel in (1, 2):
            for sigma in (1, -1):
                for sp in (sigma, -sigma):
                    pt = diff_cross_section(kin, BEAM, LASER, sigma, sp, sel)
                    assert pt.value >= 0.0

    def test_stimulated_scaling(self):
        # occupation N multiplies every channel by N + 1
        kin = solve_final_state(0.95 * math.pi, 1, BEAM, LASER)
        base = diff_cross_section(kin, BEAM, LASER, 1, 1, 1).value
        for n_occ in (1, 4, 99):
            got = diff_cross_section(kin, BEAM, LASER, 1, 1, 1,
                                     n_occ=n_occ).value
            assert got == pytest.approx((n_occ + 1) * base, rel=1e-12)

    def test_basis_sum_equals_vector_projection(self):
        kin = solve_final_state(0.9 * math.pi, 1, BEAM, LASER)
        b1 = diff_cross_section(kin, BEAM, LASER, 1, 1, 1).value
        b2 = diff_cross_section(kin, BEAM, LASER, 1, 1, 2).value
        circ = diff_cross_section(
            kin, BEAM, LASER, 1, 1,
            (1.0 / math.sqrt(2.0), 1.0j / math.sqrt(2.0))).value
        assert circ <= b1 + b2 + 1e-12 * (b1 + b2)

    def test_unnormalized_pair_rejected(self):
        kin = solve_final_state(0.9 * math.pi, 1, BEAM, LASER)
        with pytest.raises(DomainError):
            diff_cross_section(kin, BEAM, LASER, 1, 1, (1.0, 1.0))

    def test_bad_basis_index(self):
        kin = solve_final_state(0.9 * math.pi, 1, BEAM, LASER)
        with pytest.raises(DomainError):
            diff_cross_section(kin, BEAM, LASER, 1, 1, 3)


class TestRateCrossSectionConsistency:
    def test_ratio_is_flux_factor(self):
        # the rate per unit volume and the cross section are independent
        # evaluations of the same matrix element; their ratio must be the
        # flux-normalization factor |p_z| / (4 pi^2 E) exactly
        want = abs(BEAM.pz) / (4.0 * math.pi ** 2 * BEAM.energy)
        for frac in (0.5, 0.9, 0.999):
            for n in (1, 2):
                kin = solve_final_state(frac * math.pi, n, BEAM, LASER)
                for sigma, sp, i in ((1, 1, 1), (1, -1, 2), (-1, -1, 1)):
                    xs = diff_cross_section(kin, BEAM, LASER, sigma, sp,
                                            i).value
                    if xs == 0.0:
                        continue
                    rate = transition_rate_density(kin, BEAM, LASER, sigma,
                                                   sp, i)
                    assert rate / xs == pytest.approx(want, rel=1e-10)


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

    def test_forward_peaked(self):
        mid = averaged_cross_section(0.5 * math.pi, BEAM, LASER).value
        peak = averaged_cross_section(0.999 * math.pi, BEAM, LASER).value
        assert peak / mid >= 1e3

    def test_theta_out_of_range(self):
        with pytest.raises(DomainError):
            averaged_cross_section(3.5, BEAM, LASER)

    def test_harmonic_cap_below_one_rejected(self):
        with pytest.raises(DomainError):
            averaged_cross_section(math.pi, BEAM, LASER, harmonic_max=0)

    def test_beam_at_rest_rejected(self):
        # the flux factor |p_z| vanishes
        with pytest.raises(DomainError, match="at rest"):
            averaged_cross_section(math.pi, make_beam(0.51099895), LASER)

    def test_overflow_is_numeric_error(self):
        # a 1e-230 nm wave: k'^2 overflows on the axis
        with pytest.raises(NumericError):
            averaged_cross_section(0.0, BEAM, LaserField(1e-230, 1e19))


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
        # the sweep sums its grid in one array call; the scalar calls run
        # the same code on one element, so every angle agrees bitwise
        laser = LaserField(785.0, intensity)
        thetas = np.linspace(0.0, math.pi, 41)
        calls = []
        averaged = qfel.emission.averaged_cross_section

        def recording(*args, **kwargs):
            calls.append(averaged(*args, **kwargs))
            return calls[-1]

        monkeypatch.setattr(qfel.emission, "averaged_cross_section",
                            recording)
        spectrum = angular_spectrum(BEAM, laser, thetas)
        monkeypatch.undo()
        assert len(calls) == 1
        sweep = calls[0]
        np.testing.assert_array_equal(sweep.value, spectrum.averaged)
        assert np.unique(sweep.harmonic).size > 1
        for j, theta in enumerate(thetas.tolist()):
            point = averaged_cross_section(theta, BEAM, laser)
            np.testing.assert_array_equal(point.value, sweep.value[j])
            assert point.harmonic == sweep.harmonic[j]
            kin = solve_final_state(theta, 1, BEAM, laser)
            np.testing.assert_array_equal(kin.k_prime, spectrum.k_prime[j])
            pol = outgoing_polarization(kin, BEAM, laser, 1, 1)
            np.testing.assert_array_equal(
                pol[:2], [spectrum.polarization_x[j],
                          spectrum.polarization_y[j]])

    def test_invalid_grid(self):
        with pytest.raises(DomainError):
            angular_spectrum(BEAM, LASER, np.array([[0.1]]))
        with pytest.raises(DomainError):
            angular_spectrum(BEAM, LASER, np.array([4.0]))


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

    def test_low_intensity_ratio_flat_in_theta(self):
        # at weak fields the averaged cross section is the Klein-Nishina
        # value per photon times the photon content of the Compton volume,
        # up to a constant normalization; the ratio must not depend on theta
        weak = LaserField(785.0, 1e16)
        n_gamma = weak.photon_density_compton()
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
            vals.append(avg / (field.photon_density_compton() * kn))
        assert vals[0] == pytest.approx(vals[1], rel=0.02)
