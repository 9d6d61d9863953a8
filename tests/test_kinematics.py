"""Unit tests for emission kinematics and the selection-rule solver."""

import math

import numpy as np
import pytest

from qfel import physcore
from qfel.beamfield import CO_PROPAGATING, LaserField, make_beam
from qfel.errors import ClosedChannelError, DomainError
from qfel.kinematics import (coherence_probe, coherent_intensity_from_shift,
                             compton_energy, emitted_photon_energy,
                             quasi_energy, solve_final_state,
                             wavelength_shift, wiggling_radius)

LASER = LaserField(785.0, 1e19)


class TestWigglingRadius:
    def test_canonical_value(self):
        beam = make_beam(307.0)
        r = wiggling_radius(beam.energy, beam.pz, LASER)
        assert r == pytest.approx(4.04, rel=1e-2)

    def test_zero_amplitude(self):
        beam = make_beam(307.0)
        assert wiggling_radius(beam.energy, beam.pz,
                               LaserField(785.0, 0.0)) == 0.0


class TestQuasiEnergy:
    def test_reduces_to_energy(self):
        # zero amplitude, n = 0, and averaged-out spin shift
        off = LaserField(785.0, 0.0)
        pz, pp = -3.0, 0.4
        e = math.sqrt(pz * pz + pp * pp + 1.0)
        up = quasi_energy(0, 1, pz, pp, off)
        down = quasi_energy(0, -1, pz, pp, off)
        assert 0.5 * (up + down) == pytest.approx(e, rel=1e-14)
        # the spin splitting is tiny against E, so the difference keeps
        # only the digits that survive the subtraction
        assert up - down == pytest.approx(off.k, abs=1e-15)

    def test_harmonic_ladder(self):
        step = quasi_energy(0, 1, -3.0, 0.4, LASER) - quasi_energy(
            1, 1, -3.0, 0.4, LASER)
        assert step == pytest.approx(LASER.k, rel=1e-12)


class TestComptonLimit:
    def test_closed_form_matches_compton_at_zero_amplitude(self):
        off = LaserField(785.0, 0.0)
        energies = np.linspace(1.0, 1000.0, 40)
        thetas = np.linspace(0.0, math.pi, 25)
        for e_mev in energies:
            beam = make_beam(float(e_mev))
            for theta in thetas:
                want = compton_energy(float(theta), beam, off.k)
                got = emitted_photon_energy(float(theta), 1, beam, off)
                assert got == pytest.approx(want, rel=1e-15)

    def test_forward_zero_angle_is_laser_line(self):
        # at theta = 0 the emitted photon energy collapses to N k exactly
        beam = make_beam(307.0)
        for n in (1, 2, 5):
            assert emitted_photon_energy(0.0, n, beam, LASER) == pytest.approx(
                n * LASER.k, rel=1e-12)


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
        # the closed form drops an O(eA^2) back-reaction term; the solver
        # records its relative size
        beam = make_beam(307.0)
        for frac in (0.5, 0.9, 0.999, 1.0):
            kin = solve_final_state(frac * math.pi, 1, beam, LASER)
            assert kin.closed_form_rel_diff < 1e-6

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
        back = 0.5 * LASER.ea * (kin.radius_prime - kin.radius) * LASER.k
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

    def test_inversion_on_axis_rejected(self):
        # at theta = 0 the shift does not depend on the intensity
        assert wavelength_shift(0.0, self.BEAM, self.RADIATION) == 0.0
        with pytest.raises(DomainError):
            coherent_intensity_from_shift(1e-4, 0.0, self.BEAM, 0.8707)
