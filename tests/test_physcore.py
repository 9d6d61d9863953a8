"""Unit tests for constants, conversions, and numeric kernels."""

import math

import numpy as np
import pytest
import scipy.special
import scipy.integrate

import decimal_oracle
from oracles import bessel_miller_scalar, bessel_series_masked, integrate_ode
from qfel import physcore
from qfel.beamfield import LaserField, make_beam
from qfel.emission import angular_spectrum
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

    def test_nonpositive_photon_energy_rejected(self):
        with pytest.raises(DomainError, match="photon energy must be > 0"):
            physcore.wavelength_from_photon_energy(0.0)


class TestBessel:
    def test_against_scipy_moderate(self):
        xs = np.linspace(-30.0, 30.0, 241)
        for order in range(0, 9):
            got = physcore.bessel_jn(order, xs)
            want = scipy.special.jv(order, xs)
            np.testing.assert_allclose(got, want, rtol=1e-11, atol=1e-13)

    def test_against_scipy_large_argument(self):
        xs = np.array([50.0, 123.456, 900.0, 5000.0])
        for order in (0, 1, 2, 5, 10):
            got = physcore.bessel_jn(order, xs)
            want = scipy.special.jv(order, xs)
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-13)

    def test_documented_range_against_scipy(self):
        # the docstring's contract, sampled on n = 0..600, x = 0..50:
        # relative error below 1e-12 except next to zeros, where 1e-15 of
        # the largest |J_n| on the grid is allowed.  Orders past 170 at
        # x <= 9 used to come out as 0, because 171! overflows a float.
        xs = np.linspace(0.0, 50.0, 101)
        orders = [*range(0, 60, 3), *range(60, 601, 40), 169, 170, 171, 172]
        for order in orders:
            got = physcore.bessel_jn(order, xs)
            want = scipy.special.jv(order, xs)
            scale = float(np.max(np.abs(want)))
            np.testing.assert_allclose(got, want, rtol=1e-12,
                                       atol=1e-15 * scale + 1e-300)

    @pytest.mark.parametrize("top,rtol", [(1e3, 5e-10), (1e4, 3e-9)])
    def test_documented_large_range_against_scipy(self, top, rtol):
        # the docstring's bounds for n, x <= top, on random grids of 60
        # orders by 200 arguments above the series cut; |J_n| below 1e-3
        # of its row's largest counts as next to a zero.  Worst measured
        # over 20 such grids: 2.6e-10 to 1e3 and 1.6e-9 to 1e4.
        rng = np.random.default_rng(int(top))
        xs = np.sort(top - (top - 9.0) * rng.random(200))
        orders = np.sort(rng.integers(0, int(top) + 1, 60))
        got = physcore.bessel_jn(orders.tolist(), xs)
        want = scipy.special.jv(orders[:, None], xs)
        far = np.abs(want) >= 1e-3 * np.abs(want).max(axis=1, keepdims=True)
        np.testing.assert_allclose(got[far], want[far], rtol=rtol, atol=0.0)

    def test_array_equals_scalar_calls(self):
        xs = np.linspace(-50.0, 50.0, 11)
        for order in (0, 1, -3, 31, 171, 600):
            got = physcore.bessel_jn(order, xs)
            for x, want in zip(xs.tolist(), got):
                assert physcore.bessel_jn(order, x) == want

    def test_order_rows_equal_single_order_calls(self):
        # one stacked series for a sequence of orders gives each row the
        # bits of its own call, signed zeros included, on both sides of
        # the series cut at 9
        orders = [*range(-5, 41), 169, 170, 171, 172, 600]
        nine = [np.nextafter(9.0, 0.0), 9.0, np.nextafter(9.0, 10.0)]
        xs = np.concatenate([np.linspace(-50.0, 50.0, 201), [-0.0, 0.0],
                             nine, np.negative(nine)])
        rows = physcore.bessel_jn(orders, xs)
        assert rows.shape == (len(orders), xs.size)
        for order, row in zip(orders, rows):
            want = physcore.bessel_jn(order, xs)
            np.testing.assert_array_equal(row.view(np.int64),
                                          want.view(np.int64))
        at = int(np.flatnonzero((xs == 0.0) & np.signbit(xs))[0])
        np.testing.assert_array_equal(
            physcore.bessel_jn(orders, -0.0).view(np.int64),
            rows[:, at].view(np.int64))
        # a 2-D argument pairs its rows with the orders: every element has
        # the bits of its order's scalar call, Miller rows (x > 9) included
        paired = np.stack([np.roll(xs, 17 * i)[::8] for i in range(len(orders))])
        assert (paired > 9.0).any(axis=1).all()
        got = physcore.bessel_jn(orders, paired)
        assert got.shape == paired.shape
        for order, args, row in zip(orders, paired.tolist(), got):
            want = [physcore.bessel_jn(order, x) for x in args]
            np.testing.assert_array_equal(row.view(np.int64),
                                          np.array(want).view(np.int64))
        for bad in (np.zeros((len(orders) - 1, 3)), np.zeros((2, 2, 2))):
            with pytest.raises(DomainError):
                physcore.bessel_jn(orders, bad)
        with pytest.raises(DomainError):
            physcore.bessel_jn(3, np.zeros((1, 3)))

    def test_miller_elements_equal_scalar_loop(self):
        # one call whose elements above the cut start their recurrences
        # far apart; each has the bits of the loop over it alone, the
        # 1e250 rescaling included (n >> x)
        rng = np.random.default_rng(2014)
        orders = rng.integers(0, 1001, 2000)
        xs = 1000.0 - rng.uniform(0.0, 991.0, 2000)         # (9, 1000]
        edge = np.nextafter(9.0, 10.0)
        orders = [*orders.tolist(), 0, 1, 169, 170, 171, 172, 600, 0, 3000]
        xs = np.concatenate([xs, [edge] * 7, [999.5, 9.5]])
        got = physcore.bessel_jn(orders, xs[:, None])[:, 0]
        want = [bessel_miller_scalar(n, x)
                for n, x in zip(orders, xs.tolist())]
        np.testing.assert_array_equal(got.view(np.int64),
                                      np.array(want).view(np.int64))

    def test_series_equals_masked_loop(self, monkeypatch):
        # the series sums every element to the last step and ends on one
        # test over all of them; each element keeps the bits of the loop
        # that stops it at its own step, wherever |J| >= 1e-290 (below,
        # the masked loop's 1e-308 floor ended sums early).  First a
        # seeded grid over orders 0..400 and arguments 0..9 with the
        # tiny and edge ones, then a (19, 150) block of a strong-field
        # sweep: J_{N-1} and J_{N+1} of harmonics 1-8 and (1, 0, 2).
        rng = np.random.default_rng(22)
        orders = np.arange(401)
        xs = np.concatenate([[0.0, 5e-324, np.nextafter(9.0, 0.0), 9.0],
                             10.0 ** rng.uniform(-320.0, 0.0, 100),
                             rng.uniform(0.0, 9.0, 400)])
        got = physcore.bessel_jn(orders.tolist(), xs)
        want = bessel_series_masked(orders[:, None],
                                    np.broadcast_to(xs, got.shape).copy())
        kept = np.abs(want) >= 1e-290
        assert kept.sum() > 0.3 * kept.size
        np.testing.assert_array_equal(got[kept].view(np.int64),
                                      want[kept].view(np.int64))
        blocks = []
        series = physcore._bessel_series

        def spy(n, x):
            blocks.append((n, x.copy(), series(n, x)))
            return blocks[-1][2]
        monkeypatch.setattr(physcore, "_bessel_series", spy)
        angular_spectrum(make_beam(307.0),
                         LaserField(wavelength_nm=785.0, intensity_w_m2=3e24),
                         np.linspace(0.0, math.pi, 150))
        (n, x, got), = blocks
        assert x.shape == (19, 150) and 1.0 < x.max() <= 9.0
        want = bessel_series_masked(n, x)
        kept = np.abs(want) >= 1e-290
        np.testing.assert_array_equal(got[kept].view(np.int64),
                                      want[kept].view(np.int64))

    def test_tiny_normal_values_against_fifty_digits(self):
        # results between the smallest normal float and 1e-290 keep the
        # relative bound: 1e-14 in the series (worst measured 1.6e-15), the
        # documented 1e-12 above its cut (6.9e-15).  An absolute 1e-308
        # stop of the series used to take J_200(4.5) = 3.4e-305 1.7e-8 off
        # and J_220(7) 4.4e-9.
        rng = np.random.default_rng(2290)
        checked = 0
        bands = ((np.arange(150, 261, 2), 0.5, 9.0, 1e-14),
                 (np.arange(150, 401, 3), 9.01, 50.0, 1e-12))
        for orders, lo, hi, rtol in bands:
            xs = rng.uniform(lo, hi, 60)
            got = physcore.bessel_jn(orders.tolist(), xs)
            near = (got >= np.finfo(float).tiny / 2) & (got < 1e-289)
            for i, j in zip(*np.nonzero(near)):
                want = decimal_oracle.bessel_jn(int(orders[i]), float(xs[j]))
                if np.finfo(float).tiny <= want < 1e-290:
                    assert got[i, j] == pytest.approx(want, rel=rtol, abs=0.0)
                    checked += 1
        assert checked > 400
        for n, x in ((200, 4.5), (220, 7.0)):
            assert physcore.bessel_jn(n, x) == pytest.approx(
                decimal_oracle.bessel_jn(n, x), rel=1e-14, abs=0.0)

    def test_non_integer_order_rejected(self):
        for order in (2.5, (1, 2.5), [3, 4, 0.1]):
            with pytest.raises(DomainError):
                physcore.bessel_jn(order, 1.0)

    @pytest.mark.parametrize("order", ["a", math.nan, math.inf, None,
                                       [[1, 2]], 2**70, []],
                             ids=["text", "nan", "inf", "none", "2d",
                                  "beyond_int64", "empty"])
    def test_unconvertible_order_is_domain_error(self, order):
        # text, NaN and inf, no value, a 2-D sequence, an order beyond
        # int64 and no order at all: none may escape as another exception
        with pytest.raises(DomainError, match="order must be an integer"):
            physcore.bessel_jn(order, 1.0)

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

    def test_huge_order_underflows_to_zero(self):
        # (1/2)^170 / 170! is already below the subnormals, so the leading
        # term's steps to the order end within eight, not a million; in
        # the block the order-200 row takes its last step at j = 200
        # while still nonzero, and the steps after it end all the same
        assert physcore.bessel_jn(10**6, 1.0) == 0.0
        j200 = bessel_series_masked(np.array([[200]]), np.array([[8.5]]))[0, 0]
        assert j200 > 0.0
        assert physcore.bessel_jn([10**6, 200], [[1.0], [8.5]]).tolist() == \
            [[0.0], [j200]]

    def test_huge_argument_rejected(self):
        with pytest.raises(DomainError):
            physcore.bessel_jn(0, 1e7)


class TestOdeIntegrator:
    def test_exponential_decay(self):
        ls, ys = integrate_ode(lambda l, y: -y, 1.0, (0.0, 5.0), 2000)
        np.testing.assert_allclose(ys, np.exp(-ls), rtol=1e-9)

    def test_logistic_vs_scipy(self):
        rhs = lambda l, y: y * (1.0 - y)
        ls, ys = integrate_ode(rhs, 0.1, (0.0, 8.0), 4000)
        sol = scipy.integrate.solve_ivp(rhs, (0.0, 8.0), [0.1], t_eval=ls,
                                        rtol=1e-11, atol=1e-13)
        np.testing.assert_allclose(ys, sol.y[0], rtol=1e-8)

    def test_nonfinite_detected(self):
        with pytest.raises(NumericError):
            integrate_ode(lambda l, y: y * y, 1.0, (0.0, 10.0), 100)
