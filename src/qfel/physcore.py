"""Physical constants, natural-unit conversions, and generic numerics.

All internal computation in this package uses natural units with
c = hbar = 1 and the electron mass as the energy unit, so the unit of
length is the (reduced) Compton wavelength.  SI enters only at module
boundaries.  Constants are frozen at CODATA-2018 values.
"""

from __future__ import annotations

import math

from .errors import DomainError, NumericError

# CODATA-2018
ELECTRON_MASS_MEV = 0.51099895000          # m_e c^2 [MeV]
FINE_STRUCTURE = 7.2973525693e-3           # alpha
HBAR_C_MEV_NM = 197.3269804e-6             # hbar c [MeV nm]
SPEED_OF_LIGHT = 299792458.0               # [m/s]
ELEMENTARY_CHARGE = 1.602176634e-19        # [C], for MeV -> J

HC_EV_NM = 2.0 * math.pi * HBAR_C_MEV_NM * 1e6          # h c [eV nm] ~ 1239.84
COMPTON_WAVELENGTH_M = HBAR_C_MEV_NM / ELECTRON_MASS_MEV * 1e-9   # hbar/(m c) [m]
ELECTRON_MASS_J = ELECTRON_MASS_MEV * 1e6 * ELEMENTARY_CHARGE     # m_e c^2 [J]
# m c^3 [W m]; the denominator of the coherence-amplitude formula
MC3_W_M = ELECTRON_MASS_J * SPEED_OF_LIGHT


def to_natural_energy(e_mev):
    """Convert an energy in MeV to electron-mass units."""
    if e_mev < 0.0:
        raise DomainError(f"energy must be >= 0, got {e_mev} MeV")
    return e_mev / ELECTRON_MASS_MEV


def from_natural_energy(e_nat):
    """Convert an energy in electron-mass units back to MeV."""
    return e_nat * ELECTRON_MASS_MEV


def photon_energy_from_wavelength(lambda_nm):
    """Photon energy [eV] for a vacuum wavelength [nm]."""
    if lambda_nm <= 0.0:
        raise DomainError(f"wavelength must be > 0, got {lambda_nm} nm")
    return HC_EV_NM / lambda_nm


def wavelength_from_photon_energy(e_ev):
    """Vacuum wavelength [nm] for a photon energy [eV]."""
    if e_ev <= 0.0:
        raise DomainError(f"photon energy must be > 0, got {e_ev} eV")
    return HC_EV_NM / e_ev


def wave_number_natural(lambda_nm):
    """Photon energy (= wave number, c=hbar=1) in electron-mass units."""
    return photon_energy_from_wavelength(lambda_nm) / (ELECTRON_MASS_MEV * 1e6)


# ---------------------------------------------------------------------------
# Bessel functions of integer order.
#
# Arguments arising in this artifact are tiny (p'_perp R' << 1), so an
# ascending power series is used for small |x|; beyond the cancellation
# threshold a downward Miller recurrence normalized by
# J_0 + 2 sum J_2m = 1 takes over.

_BESSEL_SERIES_CUT = 9.0
_BESSEL_MAX_ARG = 1e6


def bessel_jn(order, x):
    """J_n(x) for integer n; relative error < 1e-12 for |x| <= 50."""
    n = int(order)
    if n != order:
        raise DomainError(f"order must be an integer, got {order!r}")
    if not math.isfinite(x) or abs(x) >= _BESSEL_MAX_ARG:
        raise DomainError(f"Bessel argument out of supported range: {x!r}")
    sign = 1.0
    if n < 0:
        n = -n
        if n % 2:
            sign = -sign
    if x < 0.0:
        x = -x
        if n % 2:
            sign = -sign
    if x <= _BESSEL_SERIES_CUT:
        return sign * _bessel_series(n, x)
    return sign * _bessel_miller(n, x)


def _bessel_series(n, x):
    half = 0.5 * x
    try:
        term = half**n / math.factorial(n)
    except OverflowError:
        return 0.0
    total = term
    m = 0
    while True:
        m += 1
        term *= -(half * half) / (m * (n + m))
        total += term
        if abs(term) <= 1e-17 * abs(total) + 1e-308 or m > 200:
            return total


def _bessel_miller(n, x):
    start = int(max(n, x) + 1.5 * math.sqrt(max(n, x)) + 30)
    if start % 2:
        start += 1
    jp, j = 0.0, 1e-300
    norm = 0.0
    result = 0.0
    for m in range(start, 0, -1):
        jm = (2.0 * m / x) * j - jp
        jp, j = j, jm
        if m - 1 == n:
            result = j
        if (m - 1) % 2 == 0:
            norm += j if m - 1 == 0 else 2.0 * j
        if abs(j) > 1e250:
            jp *= 1e-250
            j *= 1e-250
            norm *= 1e-250
            result *= 1e-250
    if n == 0:
        result = j
    return result / norm


# ---------------------------------------------------------------------------
# Fixed-step ODE integration.


def integrate_ode(rhs, y0, span, steps):
    """Classic fixed-step RK4; returns (l_samples, y_samples) arrays.

    Global error is O(h^4).  NaN from the right-hand side aborts.
    """
    import numpy as np

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
