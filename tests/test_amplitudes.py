"""Unit tests for the harmonic amplitude vectors and polarization."""

import math

import numpy as np
import pytest

from qfel.amplitudes import (fg_coefficients, harmonic_vectors,
                             outgoing_polarization, polarization_basis)
from qfel.beamfield import LaserField, make_beam
from qfel.errors import ClosedChannelError, DomainError
from qfel.kinematics import solve_final_state

LASER = LaserField(785.0, 1e19)
BEAM = make_beam(307.0)


class TestPolarizationBasis:
    @pytest.mark.parametrize("theta", [0.0, 0.3, 0.5 * math.pi, 0.97 * math.pi])
    @pytest.mark.parametrize("phi", [0.0, 1.2, math.pi])
    def test_orthonormal_right_handed(self, theta, phi):
        b = polarization_basis(theta, phi)
        for v in (b.e1, b.e2, b.k_hat):
            assert np.linalg.norm(v) == pytest.approx(1.0, rel=1e-14)
        assert abs(np.dot(b.e1, b.e2)) < 1e-14
        assert abs(np.dot(b.e1, b.k_hat)) < 1e-14
        assert abs(np.dot(b.e2, b.k_hat)) < 1e-14
        np.testing.assert_allclose(np.cross(b.e1, b.e2), b.k_hat, atol=1e-14)

    def test_direction(self):
        b = polarization_basis(0.25 * math.pi, 0.0)
        s = math.sin(0.25 * math.pi)
        np.testing.assert_allclose(b.k_hat, [s, 0.0, s], atol=1e-14)


class TestCoefficientTable:
    def test_sigma_validation(self):
        kin = solve_final_state(0.9 * math.pi, 1, BEAM, LASER)
        with pytest.raises(DomainError):
            fg_coefficients(kin, BEAM, LASER, 0)

    def test_i2_entries_purely_imaginary(self):
        # the real tables hold the imaginary parts of the e2 coefficients:
        # at phi_k = 0 both assembled vectors project on e1 with a real
        # amplitude and on e2 with an imaginary one
        kin = solve_final_state(0.9 * math.pi, 1, BEAM, LASER)
        for sigma in (1, -1):
            vecs = harmonic_vectors(kin, BEAM, LASER, sigma)
            e1 = vecs.basis.e1.astype(complex)
            e2 = vecs.basis.e2.astype(complex)
            for v in (vecs.script_f, vecs.script_g):
                assert np.vdot(e1, v).imag == 0.0
                assert np.vdot(e2, v).real == 0.0
                assert np.vdot(e2, v).imag != 0.0

    def test_sigma_reflection_relations(self):
        # flipping sigma negates the sigma-proportional entries and mirrors
        # the neighbor-harmonic index nu, which the (0, sigma, -sigma)
        # layout absorbs: entries at the same position are compared
        kin = solve_final_state(0.9 * math.pi, 1, BEAM, LASER)
        (uf1, uf2), (ug1, ug2) = fg_coefficients(kin, BEAM, LASER, 1)
        (df1, df2), (dg1, dg2) = fg_coefficients(kin, BEAM, LASER, -1)
        for j in range(3):
            assert uf1[j] == pytest.approx(df1[j], rel=1e-12)
            assert uf2[j] == pytest.approx(-df2[j], rel=1e-12)
            assert ug1[j] == pytest.approx(-dg1[j], rel=1e-12)
            assert ug2[j] == pytest.approx(dg2[j], rel=1e-12)


class TestHarmonicVectors:
    def test_vectors_transverse(self):
        kin = solve_final_state(0.8 * math.pi, 1, BEAM, LASER)
        vecs = harmonic_vectors(kin, BEAM, LASER, 1)
        k_hat = vecs.basis.k_hat.astype(complex)
        assert abs(np.vdot(k_hat, vecs.script_f)) < 1e-12 * vecs.f_mag
        assert abs(np.vdot(k_hat, vecs.script_g)) < 1e-12 * vecs.f_mag

    def test_azimuth_invariance_of_magnitudes(self):
        # the azimuth rotates the Cartesian vectors and phases the flip
        # vector; their lengths stay those at phi_k = 0
        theta = 0.95 * math.pi
        ref = harmonic_vectors(solve_final_state(theta, 1, BEAM, LASER),
                               BEAM, LASER, 1)
        for phi in (0.4, 2.0, 5.1):
            kin = solve_final_state(theta, 1, BEAM, LASER, phi_k=phi)
            vecs = harmonic_vectors(kin, BEAM, LASER, 1)
            assert np.linalg.norm(vecs.script_f) == pytest.approx(
                ref.f_mag, rel=1e-12)
            assert np.linalg.norm(vecs.script_g) == pytest.approx(
                ref.g_mag, rel=1e-12)

    def test_spin_flip_vanishes_at_forward(self):
        kin = solve_final_state(math.pi, 1, BEAM, LASER)
        for sigma in (1, -1):
            vecs = harmonic_vectors(kin, BEAM, LASER, sigma)
            assert vecs.g_mag < 1e-12 * vecs.f_mag
            assert vecs.f_mag > 0.0

    def test_spin_asymmetry_is_small(self):
        # the laser helicity distinguishes the two electron spin labels,
        # but only through the tiny neighbor-harmonic Bessel weights
        kin = solve_final_state(0.9 * math.pi, 1, BEAM, LASER)
        up = harmonic_vectors(kin, BEAM, LASER, 1)
        down = harmonic_vectors(kin, BEAM, LASER, -1)
        assert up.f_mag == pytest.approx(down.f_mag, rel=1e-4)
        # the flip channel is itself weak here, so its asymmetry is
        # relatively larger while staying far below the keep channel
        assert up.g_mag == pytest.approx(down.g_mag, rel=0.1)
        assert up.g_mag != down.g_mag
        assert max(up.g_mag, down.g_mag) < 1e-6 * up.f_mag


class TestOutgoingPolarization:
    def test_unit_norm_and_phase_fix(self):
        kin = solve_final_state(0.85 * math.pi, 1, BEAM, LASER)
        for sigma in (1, -1):
            for sp in (sigma, -sigma):
                pol = outgoing_polarization(kin, BEAM, LASER, sigma, sp)
                assert np.linalg.norm(pol) == pytest.approx(1.0, rel=1e-12)
                j = int(np.argmax(np.abs(pol)))
                assert pol[j].imag == pytest.approx(0.0, abs=1e-12)
                assert pol[j].real > 0.0

    def test_forward_spin_keep_is_circular(self):
        # emission along -z from the dominant channel is fully circular
        kin = solve_final_state(math.pi, 1, BEAM, LASER)
        want = np.array([1.0, -1.0j, 0.0]) / math.sqrt(2.0)
        for sigma in (1, -1):
            pol = outgoing_polarization(kin, BEAM, LASER, sigma, sigma)
            overlap = abs(np.vdot(want, pol))
            assert overlap == pytest.approx(1.0, rel=1e-10)

    def test_closed_channel_rejected(self):
        # at theta = 0 the transverse recoil is exactly zero and the
        # spin-flip amplitude vanishes identically
        kin = solve_final_state(0.0, 1, BEAM, LASER)
        with pytest.raises(ClosedChannelError):
            outgoing_polarization(kin, BEAM, LASER, 1, -1)

    def test_bad_sigma_prime(self):
        kin = solve_final_state(0.9 * math.pi, 1, BEAM, LASER)
        with pytest.raises(DomainError):
            outgoing_polarization(kin, BEAM, LASER, 1, 0)
