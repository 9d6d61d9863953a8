"""Unit tests for emission kinematics and the selection-rule solver."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import decimal_oracle
from qfel import physcore
from qfel.beamfield import CO_PROPAGATING, HEAD_ON, LaserField, make_beam
from qfel.errors import ClosedChannelError, DomainError
from qfel.kinematics import (coherence_probe, coherent_intensity_from_shift,
                             compton_energy, solve_final_state,
                             wavelength_shift, wiggling_radius)

LASER = LaserField(785.0, 1e19)
ORACLE_RTOL = 4e-15


def oracle_mismatch(theta, harmonic, beam, laser):
    """Largest relative deviation of k', E' - p'_z and E' + p'_z from the
    50-digit selection-rule root."""
    kin = solve_final_state(theta, harmonic, beam, laser)
    got = (kin.k_prime, kin.e_minus_pz_prime, kin.e_plus_pz_prime)
    want = decimal_oracle.final_state(theta, harmonic, beam.energy,
                                      beam.direction == HEAD_ON,
                                      laser.k, laser.ea)
    assert all(math.isfinite(g) for g in got)
    return max(abs(g / w - 1.0) for g, w in zip(got, want))


class TestWigglingRadius:
    def test_canonical_value(self):
        beam = make_beam(307.0)
        r = wiggling_radius(beam, LASER)
        assert r == pytest.approx(4.04, rel=1e-2)

    def test_zero_amplitude(self):
        beam = make_beam(307.0)
        assert wiggling_radius(beam, LaserField(785.0, 0.0)) == 0.0


class TestComptonLimit:
    def test_closed_form_matches_compton_at_zero_amplitude(self):
        off = LaserField(785.0, 0.0)
        energies = np.linspace(1.0, 1000.0, 40)
        thetas = np.linspace(0.0, math.pi, 25)
        for e_mev in energies:
            beam = make_beam(float(e_mev))
            for theta in thetas:
                want = compton_energy(float(theta), beam, off.k)
                got = solve_final_state(float(theta), 1, beam, off).k_prime
                assert got == pytest.approx(want, rel=1e-15)

    def test_forward_zero_angle_is_laser_line(self):
        # at theta = 0 the emitted photon energy collapses to N k exactly
        # and the electron keeps E - p_z, also for co-propagating beams
        # whose E - p_z is down to 1e-23 of E
        beams = [make_beam(307.0)] + [make_beam(mev, direction=CO_PROPAGATING)
                                      for mev in (1e4, 1e6, 1e11)]
        for beam in beams:
            for n in (1, 2, 5):
                kin = solve_final_state(0.0, n, beam, LASER)
                assert kin.k_prime == pytest.approx(n * LASER.k, rel=1e-15)
                assert kin.e_minus_pz_prime == pytest.approx(
                    beam.e_minus_pz, rel=1e-15)


class TestSolver:
    def test_forward_anchor_7_68(self):
        beam = make_beam(7.68)
        kin = solve_final_state(math.pi, 1, beam, LASER)
        assert physcore.from_natural_energy(kin.k_prime) * 1e3 \
            == pytest.approx(1.424, rel=5e-3)

    def test_forward_anchor_307(self):
        beam = make_beam(307.0)
        kin = solve_final_state(math.pi, 1, beam, LASER)
        assert physcore.from_natural_energy(kin.k_prime) == pytest.approx(
            2.26, rel=5e-3)

    def test_closed_form_agreement(self):
        # the closed form is the root of the selection rules with the R'
        # back-reaction kept, to the last digits
        beam = make_beam(307.0)
        for frac in (0.5, 0.9, 0.999, 1.0):
            assert oracle_mismatch(frac * math.pi, 1, beam, LASER) < ORACLE_RTOL

    @given(log_mev=st.floats(math.log10(0.511), 11.0),
           direction=st.sampled_from((HEAD_ON, CO_PROPAGATING)),
           intensity=st.one_of(st.just(0.0),
                               st.floats(10.0, 28.0).map(lambda x: 10.0 ** x)),
           theta=st.one_of(st.sampled_from((0.0, math.pi)),
                           st.floats(0.0, math.pi),
                           st.floats(-30.0, -1.0).map(lambda x: 10.0 ** x),
                           st.floats(-30.0, -1.0).map(
                               lambda x: math.pi - 10.0 ** x)),
           harmonic=st.integers(1, 8))
    def test_matches_decimal_oracle(self, log_mev, direction, intensity,
                                    theta, harmonic):
        beam = make_beam(10.0 ** log_mev, direction=direction)
        laser = LaserField(785.0, intensity)
        assert oracle_mismatch(theta, harmonic, beam, laser) < ORACLE_RTOL

    def test_final_state_on_shell(self):
        beam = make_beam(307.0)
        for frac in (0.25, 0.5, 0.999, 1.0):
            for n in (1, 2, 3):
                kin = solve_final_state(frac * math.pi, n, beam, LASER)
                shell = (kin.e_minus_pz_prime * kin.e_plus_pz_prime
                         - kin.p_perp_prime ** 2)
                assert shell == pytest.approx(1.0, rel=1e-9)

    def test_light_cone_identity(self):
        beam = make_beam(307.0)
        theta = 0.95 * math.pi
        kin = solve_final_state(theta, 1, beam, LASER)
        want = beam.e_minus_pz - kin.k_prime * (1.0 - math.cos(theta))
        assert kin.e_minus_pz_prime == pytest.approx(want, rel=1e-12)

    def test_selection_rules_satisfied(self):
        # quasi-energy and transverse quasi-momentum balance
        beam = make_beam(307.0)
        theta = 0.9 * math.pi
        kin = solve_final_state(theta, 2, beam, LASER)
        radius = wiggling_radius(beam, LASER)
        back = 0.5 * LASER.ea * (kin.radius_prime - radius) * LASER.k
        lhs = kin.e_prime + kin.k_prime
        rhs = beam.energy + kin.harmonic * LASER.k - back
        assert lhs == pytest.approx(rhs, rel=1e-10)
        lhs_z = kin.pz_prime + kin.k_prime * math.cos(theta)
        rhs_z = beam.pz + kin.harmonic * LASER.k - back
        assert lhs_z == pytest.approx(rhs_z, rel=1e-9)

    def test_energy_increases_with_harmonic(self):
        beam = make_beam(307.0)
        kps = [solve_final_state(math.pi, n, beam, LASER).k_prime
               for n in (1, 2, 3)]
        assert kps[0] < kps[1] < kps[2]

    def test_invalid_harmonic(self):
        beam = make_beam(307.0)
        with pytest.raises(ClosedChannelError):
            solve_final_state(math.pi, 0, beam, LASER)

    @pytest.mark.parametrize("harmonic", [1.5, math.nan, math.inf,
                                          np.array([[1], [2.5]])])
    def test_non_integer_harmonic_rejected(self, harmonic):
        # a harmonic between integers does not exist, and NaN fails the
        # bound instead of giving a NaN photon energy
        with pytest.raises(ClosedChannelError, match="an integer >= 1"):
            solve_final_state(0.9 * math.pi, harmonic, make_beam(307.0),
                              LASER)


class TestWavelengthShift:
    BEAM = make_beam(5.135, direction=CO_PROPAGATING)
    RADIATION = LaserField(0.8707, 1e26)

    def test_backscatter_anchor(self):
        probe = coherence_probe(math.pi, self.BEAM, self.RADIATION)
        assert probe.lambda0_nm == pytest.approx(351.0, rel=1e-2)
        assert probe.shift == pytest.approx(2.77e-3, rel=5e-2)
        assert probe.lambda_nm == pytest.approx(
            probe.lambda0_nm * (1.0 + probe.shift), rel=1e-12)

    def test_shift_linear_in_intensity(self):
        tenth = LaserField(0.8707, 1e25)
        full = wavelength_shift(math.pi, self.BEAM, self.RADIATION)
        assert wavelength_shift(math.pi, self.BEAM, tenth) == pytest.approx(
            full / 10.0, rel=1e-10)

    def test_zero_amplitude_gives_zero_shift(self):
        off = LaserField(0.8707, 0.0)
        assert wavelength_shift(math.pi, self.BEAM, off) == 0.0

    def test_intensity_inversion_round_trip(self):
        shift = wavelength_shift(math.pi, self.BEAM, self.RADIATION)
        got = coherent_intensity_from_shift(shift, math.pi, self.BEAM, 0.8707)
        assert got == pytest.approx(1e26, rel=1e-9)

    def test_inversion_validation(self):
        with pytest.raises(DomainError):
            coherent_intensity_from_shift(-1e-3, math.pi, self.BEAM, 0.8707)
        assert coherent_intensity_from_shift(0.0, math.pi, self.BEAM,
                                             0.8707) == 0.0

    @pytest.mark.parametrize("shift", [math.nan, math.inf])
    def test_non_finite_shift_rejected(self, shift):
        with pytest.raises(DomainError, match="finite and >= 0"):
            coherent_intensity_from_shift(shift, math.pi, self.BEAM, 0.8707)

    def test_inversion_on_axis_rejected(self):
        # at theta = 0 the shift does not depend on the intensity
        assert wavelength_shift(0.0, self.BEAM, self.RADIATION) == 0.0
        with pytest.raises(DomainError):
            coherent_intensity_from_shift(1e-4, 0.0, self.BEAM, 0.8707)
