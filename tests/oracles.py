"""Test-only references for the tube closed forms: a fixed-step RK4
integrator, the right-hand side of the seeded balance equation, and the
unseeded closed form written exactly as quoted."""

import math

import numpy as np

from qfel import physcore
from qfel.errors import DomainError, NumericError
from qfel.tube import TubeConfig, TubeProfile


def integrate_ode(rhs, y0, span, steps):
    """Classic fixed-step RK4; returns (l_samples, y_samples) arrays.

    Global error is O(h^4).  NaN from the right-hand side aborts.
    """
    if steps < 1:
        raise DomainError(f"steps must be >= 1, got {steps}")
    l0, l1 = span
    h = (l1 - l0) / steps
    ls = np.empty(steps + 1)
    ys = np.empty(steps + 1)
    ls[0], ys[0] = l0, y0
    y = float(y0)
    for i in range(steps):
        l = l0 + i * h
        k1 = rhs(l, y)
        k2 = rhs(l + 0.5 * h, y + 0.5 * h * k1)
        k3 = rhs(l + 0.5 * h, y + 0.5 * h * k2)
        k4 = rhs(l + h, y + h * k3)
        y += (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not math.isfinite(y):
            raise NumericError(f"ODE state became non-finite at l={l + h}")
        ls[i + 1] = l0 + (i + 1) * h
        ys[i + 1] = y
    return ls, ys


def evolve_analytic(config: TubeConfig, samples=200):
    """Unseeded closed form, written exactly as the quoted solution with the
    sqrt(n0^2 + 6 n0 + 1) combination; cross-checks the seeded reduction."""
    if config.seed != 0.0:
        raise DomainError("the unseeded solution requires a zero photon seed")
    n0 = config.n0
    ls = np.linspace(0.0, config.length_m, max(int(samples), 2))
    if n0 == 0.0:
        flat = np.zeros_like(ls)
        return TubeProfile(l_m=ls, n=flat.copy(), n_prime=flat.copy(),
                           photon=flat.copy(), asymptote=0.0)
    q = math.sqrt(n0 * n0 + 6.0 * n0 + 1.0)
    with np.errstate(over="ignore", under="ignore"):
        ex = np.exp(-q * config.gain * ls / physcore.COMPTON_WAVELENGTH_M)
    den = (q - n0 + 1.0) + (q + n0 - 1.0) * ex
    n = n0 * ((q - n0 - 1.0) + (q + n0 + 1.0) * ex) / den
    photon = 2.0 * n0 * (1.0 - ex) / den
    return TubeProfile(l_m=ls, n=n, n_prime=n0 - n, photon=photon,
                       asymptote=2.0 * n0 / (q - n0 + 1.0))


def balance_rhs(n, n0, seed, gain):
    """dn/dl [1/m] of the seeded balance equation; numeric-integration oracle
    hook for the closed forms."""
    b = 2.0 * seed + 3.0 * n0 + 1.0
    c = n0 * (n0 + seed)
    return gain * (2.0 * n * n - b * n + c) / physcore.COMPTON_WAVELENGTH_M
