"""Observable emission quantities.

Cross sections follow the convention of the source framework: the
differential cross section of a piece of the background wave of one
Compton volume, in Compton-wavelength-squared units per steradian,
into an empty photon mode.  Stimulated emission enters through the
balance equation of ``tube``, whose gain coefficient is the sum below at
theta = pi, where only harmonic 1 adds (``tube.gain_coefficient``).

``averaged_cross_section`` and ``angular_spectrum`` are views of one
blocked sum of the Nikishov-Ritus circular-polarization rate (Berestetskii,
Lifshitz & Pitaevskii, QED section 101).  With xi = eA, d0 = E - p_z,
S, C = sin^2, cos^2(theta/2), D = (1 + xi^2) S/d0 + d0 C, s = (1 + xi^2)
S/den and s' = d0^2 C/den (den their numerators' sum), u = 2 N k S/D,
w = 2 xi sqrt(s s'/(1 + xi^2)) and P, M = J_{N-1}(N w) +- J_{N+1}(N w),
harmonic N adds alpha xi^2 N k d0 / (8 pi |p_z| D^2 (1 + u)^2) [M^2
+ (s' - s)^2 P^2 + u^2/(2(1 + u)) (M^2 + P^2 (1 + xi^2 (s' - s)^2)/(1 + xi^2))].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import physcore
from .amplitudes import (_keep_components, _keep_vector, _unit_polarization,
                         polarization_basis)
from .beamfield import ElectronBeam, LaserField
from .errors import DomainError, NumericError
from .kinematics import solve_final_state

DEFAULT_HARMONIC_MAX = 8
_TRUNCATION_RTOL = 1e-14
_BLOCK_ELEMENTS = 2048                  # (harmonic, angle) elements per block


@dataclass(frozen=True)
class CrossSectionPoint:
    """``averaged_cross_section`` at a float angle, or arrays over angles."""
    harmonic: int               # highest harmonic included, per angle
    value: float                # [Compton wavelength^2 / sr]


def _harmonic_sum(theta, beam: ElectronBeam, laser: LaserField,
                  harmonic_max, orders=(), x=None):
    """(total, used) arrays of ``averaged_cross_section`` over a float or a
    1-D array of angles, and a row J_n(x) over the angles for each extra
    order n (None when there are no angles).

    The harmonics come in blocks of H = max(1, min(harmonics left,
    2048 // angles still summing)): one Bessel call of J_{N-1} and J_{N+1}
    over the (H, angles) block and about 20 flops per element, then the
    sum over its rows in order of N, so every angle gets the additions and
    the stop of a sum one harmonic at a time; terms past a stop are dropped.
    A block ends early only before a row with an out-of-range Bessel
    argument, whose error belongs only to harmonics some angle reaches.
    The first block holds every angle; the extra rows ride in its call."""
    thetas = np.atleast_1d(np.asarray(theta, dtype=float))
    if thetas.ndim != 1:
        raise DomainError("theta must be a float or a 1-D array")
    outside = ~((thetas >= 0.0) & (thetas <= math.pi))
    if outside.any():
        raise DomainError(
            f"theta must lie in [0, pi], got {float(thetas[outside][0])}")
    if harmonic_max < 1:
        raise DomainError(f"harmonic_max must be >= 1, got {harmonic_max}")
    if beam.pz == 0.0:
        raise DomainError("the cross section per unit flux is undefined for a "
                          "beam at rest")
    total = np.zeros_like(thetas)
    used = np.zeros(thetas.shape, dtype=int)
    live = np.arange(thetas.size)       # angles still summing
    n, rows = 1, None                   # n: first harmonic of the next block
    with np.errstate(all="ignore"):
        # per angle, with s and s' each from its own numerator, never 1 - s
        big_s, big_c = np.sin(0.5 * thetas) ** 2, np.cos(0.5 * thetas) ** 2
        xi2, d0, k = laser.ea * laser.ea, beam.e_minus_pz, laser.k
        num_s, num_c = (1.0 + xi2) * big_s, d0 * d0 * big_c
        s, s_bar = num_s / (num_s + num_c), num_c / (num_s + num_c)
        big_d = num_s / d0 + d0 * big_c
        u1 = 2.0 * k * big_s / big_d                    # u / N
        w = 2.0 * laser.ea * np.sqrt(s * s_bar) / math.sqrt(1.0 + xi2)
        pref = (physcore.FINE_STRUCTURE * xi2 * k * d0  # both spins
                / (4.0 * math.pi * abs(beam.pz) * big_d * big_d))
        diff2 = (s_bar - s) ** 2
        mix = (1.0 + xi2 * diff2) / (1.0 + xi2)         # 1 - w^2
        while n <= harmonic_max and live.size:
            height = max(1, min(harmonic_max - n + 1,
                                _BLOCK_ELEMENTS // live.size))
            harmonics = np.arange(n, n + height)[:, None]
            z = harmonics * w[live]
            in_range = physcore.bessel_in_range(z[1:]).all(axis=1)
            if not in_range.all():      # end the block before that row
                height = 1 + int(np.argmin(in_range))
                harmonics, z = harmonics[:height], z[:height]
            block, xs = np.ravel((harmonics - 1, harmonics + 1)), [z, z]
            if n == 1 and orders:       # the extra rows ride in block 1
                block, xs = np.append(block, orders), xs + [x] * len(orders)
            bessel = physcore.bessel_jn(block, np.vstack(xs))
            jm, jp = bessel[:height], bessel[height:2 * height]
            rows = bessel[2 * height:] if n == 1 else rows
            m2, p2 = (jm - jp) ** 2, (jm + jp) ** 2
            u = harmonics * u1[live]
            one_u = 1.0 + u
            terms = (pref[live] * harmonics / one_u ** 2
                     * (m2 + diff2[live] * p2
                        + u * u / (2.0 * one_u) * (m2 + mix[live] * p2)))
            # cumsum adds the rows one at a time in order of N, as a loop
            sums = np.cumsum(np.vstack((total[live], 0.5 * terms)), axis=0)[1:]
            stops = terms <= _TRUNCATION_RTOL * sums
            going = ~stops.any(axis=0)
            last = np.where(going, height - 1, stops.argmax(axis=0))
            total[live] = sums[last, np.arange(live.size)]
            used[live] = n + last
            live, n = live[going], n + height
    bad = ~np.isfinite(total)
    if bad.any():
        raise NumericError(f"the cross section at theta={float(thetas[bad][0])} "
                           "is not finite")
    return total, used, rows


def averaged_cross_section(theta, beam: ElectronBeam, laser: LaserField,
                           harmonic_max=DEFAULT_HARMONIC_MAX):
    """Spin-averaged, polarization-summed differential cross section at one
    angle or a 1-D array of angles: (1/2) sum over basis polarizations and
    both spin labels, summed over harmonics 1..harmonic_max.  An angle stops
    at the first term at most 1e-14 of its total, which ``harmonic``
    reports."""
    total, used, _ = _harmonic_sum(theta, beam, laser, harmonic_max)
    if np.ndim(theta) == 0:
        used, total = int(used[0]), float(total[0])
    return CrossSectionPoint(harmonic=used, value=total)


@dataclass(frozen=True)
class AngularSpectrum:
    """Ordered angular sweep of the averaged cross section."""

    thetas: np.ndarray
    k_prime: np.ndarray             # [m_e]
    averaged: np.ndarray            # [Compton wavelength^2 / sr]
    polarization_x: np.ndarray      # complex x-component, spin-keep channel
    polarization_y: np.ndarray


def angular_spectrum(beam: ElectronBeam, laser: LaserField, theta_grid,
                     harmonic_max=DEFAULT_HARMONIC_MAX):
    """Averaged cross section, harmonic-1 photon energy k' and polarization
    of the beam-spin keep channel (sigma' = sigma = beam.spin) over an
    ordered theta grid, all finite; the keep components F1, F2 of the one
    harmonic-1 solve take J_1, J_0, J_2 at p'_perp R' from the sum."""
    thetas = np.asarray(theta_grid, dtype=float)
    if thetas.ndim != 1 or thetas.size < 1:
        raise DomainError("theta grid must be a non-empty 1-D array")
    with np.errstate(all="ignore"):     # solved before the grid is checked
        kin = solve_final_state(thetas, 1, beam, laser)
        avg, _, rows = _harmonic_sum(
            thetas, beam, laser, harmonic_max, (1, 0, 2),
            kin.p_perp_prime * kin.radius_prime)
        f1, f2 = _keep_components(kin, beam, laser, beam.spin, rows)
    bad = ~np.isfinite((kin.k_prime, f1, f2)).all(axis=0)
    if bad.any():
        raise NumericError("the harmonic-1 photon energy or polarization at "
                           f"theta={float(thetas[bad][0])} is not finite")
    pol = _unit_polarization(*_keep_vector(f1, f2, polarization_basis(thetas)))
    return AngularSpectrum(thetas=thetas, k_prime=kin.k_prime, averaged=avg,
                           polarization_x=pol[:, 0], polarization_y=pol[:, 1])
