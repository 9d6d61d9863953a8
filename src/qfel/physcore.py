"""Physical constants, natural-unit conversions, and Bessel functions of
integer order.

All internal computation in this package uses natural units with
c = hbar = 1 and the electron mass as the energy unit, so the unit of
length is the (reduced) Compton wavelength.  SI enters only at module
boundaries.  Constants are frozen at CODATA-2018 values.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

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
# Up to its cancellation threshold the ascending power series (DLMF
# 10.2.2) is summed over the whole array of arguments, each element
# stopping where its own sum converges.  The rarer elements beyond it
# take a downward Miller recurrence normalized by J_0 + 2 sum J_2m = 1
# (DLMF 3.6), one at a time.

_BESSEL_SERIES_CUT = 9.0
_BESSEL_MAX_ARG = 1e6


def bessel_jn(order, x):
    """J_n(x) for an integer order n and a float or 1-D array of arguments.

    For |x| <= 50 and any order the relative error is below 1e-12 away
    from the zeros of J_n; values below the smallest float come out as 0.
    |x| must stay below 1e6.  A float argument gives the same bits as
    the same element of an array.
    """
    n = int(order)
    if n != order:
        raise DomainError(f"order must be an integer, got {order!r}")
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    bad = ~(np.abs(xs) < _BESSEL_MAX_ARG)
    if bad.any():
        raise DomainError(
            f"Bessel argument out of supported range: {float(xs[bad][0])!r}")
    odd = n % 2 == 1
    sign = -1.0 if n < 0 and odd else 1.0
    n = abs(n)
    negative = xs < 0.0
    ax = np.where(negative, -xs, xs)
    small = ax <= _BESSEL_SERIES_CUT
    out = np.empty_like(ax)
    out[small] = _bessel_series(n, ax[small])
    out[~small] = [_bessel_miller(n, v) for v in ax[~small].tolist()]
    out = np.where(negative & odd, -sign, sign) * out
    return out if np.ndim(x) else out[0]


def _bessel_series(n, x):
    half = 0.5 * x
    lead = min(n, 170)                  # 171! is beyond the float range
    term = half**lead / float(math.factorial(lead))
    for j in range(lead + 1, n + 1):
        term = term * (half / j)
    total = term
    summing = np.ones(x.shape, dtype=bool)
    m = 0
    while True:
        m += 1
        term = term * (-(half * half) / (m * (n + m)))
        total = np.where(summing, total + term, total)
        summing &= ~(np.abs(term) <= 1e-17 * np.abs(total) + 1e-308)
        if m > 200 or not summing.any():
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
