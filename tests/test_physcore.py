"""Unit tests for constants, conversions, and numeric kernels."""

import math

import numpy as np
import pytest
import scipy.special
import scipy.integrate

from qfel import physcore
from qfel.errors import DomainError, NumericError


class TestConstants:
    def test_electron_mass(self):
        assert physcore.ELECTRON_MASS_MEV == pytest.approx(0.51099895, rel=1e-7)

    def test_fine_structure(self):
        assert physcore.FINE_STRUCTURE == pytest.approx(1 / 137.036, rel=1e-5)

    def test_compton_wavelength(self):
        # hbar c / (m c^2) in meters
        want = physcore.HBAR_C_MEV_NM * 1e-9 / physcore.ELECTRON_MASS_MEV
        assert physcore.COMPTON_WAVELENGTH_M == pytest.approx(want, rel=1e-12)

    def test_mc3_power_unit(self):
        # m_e c^3 = 2.454e-5 W m sets the intensity scale of the field
        assert physcore.MC3_W_M == pytest.approx(2.4544e-5, rel=1e-4)


class TestConversions:
    def test_energy_round_trip(self):
        for e_mev in (0.511, 7.68, 307.0, 1000.0):
            nat = physcore.to_natural_energy(e_mev)
            assert physcore.from_natural_energy(nat) == pytest.approx(
                e_mev, rel=1e-14)

    def test_photon_energy_wavelength_round_trip(self):
        for lam in (785.0, 0.8707, 350.0):
            ev = physcore.photon_energy_from_wavelength(lam)
            assert physcore.wavelength_from_photon_energy(ev) == pytest.approx(
                lam, rel=1e-14)

    def test_visible_photon_energy(self):
        # 620 nm photon carries very nearly 2 eV
        assert physcore.photon_energy_from_wavelength(620.0) == pytest.approx(
            2.0, rel=1e-2)

    def test_wave_number_natural(self):
        # k = 2 pi lambda_c / lambda in electron-mass units
        lam_nm = 785.0
        want = 2.0 * math.pi * physcore.COMPTON_WAVELENGTH_M / (lam_nm * 1e-9)
        assert physcore.wave_number_natural(lam_nm) == pytest.approx(
            want, rel=1e-12)

    def test_nonpositive_wavelength_rejected(self):
        with pytest.raises(DomainError):
            physcore.wave_number_natural(0.0)


class TestBessel:
    def test_against_scipy_moderate(self):
        xs = np.linspace(-30.0, 30.0, 241)
        for order in range(0, 9):
            got = np.array([physcore.bessel_jn(order, x) for x in xs])
            want = scipy.special.jv(order, xs)
            np.testing.assert_allclose(got, want, rtol=1e-11, atol=1e-13)

    def test_against_scipy_large_argument(self):
        for x in (50.0, 123.456, 900.0, 5000.0):
            for order in (0, 1, 2, 5, 10):
                got = physcore.bessel_jn(order, x)
                want = scipy.special.jv(order, x)
                assert got == pytest.approx(want, rel=1e-9, abs=1e-13)

    def test_negative_order_reflection(self):
        for x in (0.7, 3.3, 17.0):
            for order in (1, 2, 3):
                assert physcore.bessel_jn(-order, x) == pytest.approx(
                    (-1.0) ** order * physcore.bessel_jn(order, x), rel=1e-13)

    def test_small_argument_leading_term(self):
        # J_n(x) ~ (x/2)^n / n! for x -> 0
        x = 1e-8
        assert physcore.bessel_jn(0, x) == pytest.approx(1.0, abs=1e-15)
        assert physcore.bessel_jn(1, x) == pytest.approx(x / 2.0, rel=1e-12)
        assert physcore.bessel_jn(2, x) == pytest.approx(
            (x / 2.0) ** 2 / 2.0, rel=1e-10)

    def test_huge_argument_rejected(self):
        with pytest.raises(DomainError):
            physcore.bessel_jn(0, 1e7)


class TestOdeIntegrator:
    def test_exponential_decay(self):
        ls, ys = physcore.integrate_ode(lambda l, y: -y, 1.0, (0.0, 5.0), 2000)
        np.testing.assert_allclose(ys, np.exp(-ls), rtol=1e-9)

    def test_logistic_vs_scipy(self):
        rhs = lambda l, y: y * (1.0 - y)
        ls, ys = physcore.integrate_ode(rhs, 0.1, (0.0, 8.0), 4000)
        sol = scipy.integrate.solve_ivp(rhs, (0.0, 8.0), [0.1], t_eval=ls,
                                        rtol=1e-11, atol=1e-13)
        np.testing.assert_allclose(ys, sol.y[0], rtol=1e-8)

    def test_nonfinite_detected(self):
        with pytest.raises(NumericError):
            physcore.integrate_ode(lambda l, y: y * y, 1.0, (0.0, 10.0), 100)
