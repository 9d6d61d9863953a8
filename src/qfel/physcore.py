"""Physical constants, natural-unit conversions, and Bessel functions of
integer order.

All internal computation in this package uses natural units with
c = hbar = 1 and the electron mass as the energy unit, so the unit of
length is the (reduced) Compton wavelength.  SI enters only at module
boundaries.  Constants are frozen at CODATA-2018 values.
"""

from __future__ import annotations

import itertools
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
    """Convert an energy in MeV (a float or an array) to electron-mass
    units."""
    bad = ~(np.asarray(e_mev) >= 0.0)       # NaN fails the bound
    if bad.any():
        raise DomainError(f"energy must be >= 0, got {first_where(e_mev, bad)} MeV")
    return e_mev / ELECTRON_MASS_MEV


def first_where(values, mask):
    """The first element of a float or array where mask holds, as it would
    print from a float (for error messages)."""
    return values if np.ndim(values) == 0 else float(np.asarray(values)[mask][0])


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
# Up to its cancellation threshold the ascending power series (DLMF 10.2.2)
# runs over the whole (orders, arguments) block at once, and rounding ends
# each element's sum at its own stop.  The elements beyond it take one
# downward Miller recurrence normalized by J_0 + 2 sum J_2m = 1 (DLMF 3.6).

_BESSEL_SERIES_CUT = 9.0
_BESSEL_MAX_ARG = 1e6
_FACTORIALS = np.array([float(f) for f in itertools.accumulate(
    range(1, 171), int.__mul__, initial=1)])        # 0!, 1!, ..., 170!


def bessel_jn(order, x):
    """J_n(x) for an integer order n and a float or 1-D array of arguments;
    a 1-D sequence of orders gives one row per order, over the same
    arguments or, when x is 2-D, over its own row of x (how a block of
    harmonics gets J_{N-1} and J_{N+1} of all its rows in one call).
    Any other order, an empty sequence included, raises DomainError.

    Away from the zeros of J_n the relative error is below 1e-12 for
    |x| <= 50 and any order, and for n <= 1e4 below 5e-10 up to |x| = 1e3
    and 3e-9 up to 1e4, down to the smallest normal float; smaller values
    come out subnormal or 0.  |x| must stay below 1e6.  A float argument
    gives the bits of the same element of an array, and a row the bits of
    its order's call.
    """
    orders = np.atleast_1d(order).tolist()
    try:                                # one row per order
        n = np.array([int(o) for o in orders], dtype=np.int64)[:, None]
    except (TypeError, ValueError, OverflowError):
        n = None
    if n is None or not orders or n[:, 0].tolist() != orders:
        raise DomainError(f"order must be an integer, got {order!r}")
    xs = np.asarray(x, dtype=float)
    paired = xs.ndim == 2               # one row of arguments per order
    if xs.ndim > 2 or (paired and (np.ndim(order) != 1 or len(xs) != n.size)):
        raise DomainError("x must be a float, a 1-D array or one row per order")
    in_range = bessel_in_range(xs)
    if not in_range.all():
        raise DomainError("Bessel argument out of supported range: "
                          f"{float(xs[~in_range][0])!r}")
    if not paired:
        xs = np.broadcast_to(xs.ravel(), (n.size, xs.size))
    flip = (n % 2 == 1) & ((n < 0) != (xs < 0.0))
    n = abs(n)
    ax = np.abs(xs)
    small = ax <= _BESSEL_SERIES_CUT
    out = _bessel_series(n, np.where(small, ax, 0.0))
    if not small.all():
        out[~small] = _bessel_miller(np.broadcast_to(n, ax.shape)[~small],
                                     ax[~small])
    np.negative(out, out=out, where=flip)
    return out if paired else out.reshape(np.shape(order) + np.shape(x))[()]


def bessel_in_range(x):
    """True where ``bessel_jn`` accepts the argument x: |x| < 1e6, not NaN."""
    return np.abs(x) < _BESSEL_MAX_ARG


def _bessel_series(n, x):
    """J_n(x) by the ascending series (DLMF 10.2.2) for an (orders, 1)
    column n >= 0 and arguments 0 <= x <= 9.  All elements take every step
    until each has met its own stop, a term t_m at most 1e-17 of its sum
    T_m.  Terms fall past it (while they grow, |T_m| <= (m + 1) |t_m|), so
    each is below 1e-17 |T_m| < 2^-54 |T_m|, half an ulp, and keeps T_m."""
    half = 0.5 * x
    square = half * half
    lead = np.minimum(n, 170)           # 171! is beyond the float range
    total = np.power(half, lead) / _FACTORIALS[lead]
    np.copyto(total, square / 2.0, where=n == 2)    # pow can miss h*h
    for j in range(171, int(n.max()) + 1):
        np.multiply(total, half / j, out=total, where=n >= j)
        # +0.0 times h/j stays +0.0: the steps end once every row still
        # to take one has underflowed (checked every eighth step)
        if j % 8 == 0 and not total[n[:, 0] > j].any():
            break
    minus_half2 = -square
    term, m = total.copy(), 0
    while True:
        # float steps: the denominators are exact, and no division casts
        steps = np.arange(m + 1.0, m + 5.0)[:, None, None]
        for den in steps * (n + steps):
            term *= minus_half2 / den
            total += term
        m += 4
        if m > 200 or (np.abs(term) <= 1e-17 * np.abs(total)).all():
            return total


def _bessel_miller(n, x):
    """J_n(x) over 1-D arrays of orders n >= 0 and arguments x > 9.  Each
    element runs the float operations of a loop over it alone: its own even
    start, normalization and 1e250 rescaling.  Sorted by falling start, the
    elements already started are a prefix, and each step works on it."""
    top = np.maximum(n, x)
    start = (top + 1.5 * np.sqrt(top) + 30.0).astype(int)
    start += start % 2
    order = np.argsort(-start, kind="stable")
    n, x, start = n[order], x[order], start[order]
    steps = np.arange(start[0], 0, -1)
    jp, norm, result = np.zeros((3, x.size))
    j = np.full(x.size, 1e-300)
    for m, k in zip(steps.tolist(),
                    np.searchsorted(-start, -steps, "right").tolist()):
        jp[:k], j[:k] = j[:k], (2.0 * m / x[:k]) * j[:k] - jp[:k]
        np.copyto(result[:k], j[:k], where=n[:k] == m - 1)
        if m % 2:
            norm[:k] += j[:k] if m == 1 else 2.0 * j[:k]
        if np.abs(j[:k]).max() > 1e250:
            big = np.flatnonzero(np.abs(j[:k]) > 1e250)
            for v in (jp, j, norm, result):
                v[big] *= 1e-250
    return (result / norm)[np.argsort(order)]
