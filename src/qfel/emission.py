"""Observable emission quantities.

Cross sections follow the convention of the source framework: the
differential cross section of a piece of the background wave of one
Compton volume, in Compton-wavelength-squared units per steradian,
into an empty photon mode.  Stimulated emission enters through the
balance equation of ``tube``, whose gain coefficient is the forward
value of ``averaged_cross_section``.

``averaged_cross_section`` and ``angular_spectrum`` are views of one
blocked harmonic sum, which also hands the sweep its harmonic-1 row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import physcore
from .amplitudes import (_keep_vector, _unit_polarization, bessel_factors,
                         fg_coefficients, polarization_basis,
                         table_components)
from .beamfield import ElectronBeam, LaserField
from .errors import DomainError, NumericError
from .kinematics import EmissionKinematics, solve_final_state

DEFAULT_HARMONIC_MAX = 8
_TRUNCATION_RTOL = 1e-14
_BLOCK_ELEMENTS = 2048                  # (harmonic, angle) elements per block


@dataclass(frozen=True)
class CrossSectionPoint:
    """``averaged_cross_section`` at a float angle, or arrays over angles."""
    harmonic: int               # highest harmonic included, per angle
    value: float                # [Compton wavelength^2 / sr]


def _channel_prefactor(kin: EmissionKinematics, beam: ElectronBeam,
                       laser: LaserField):
    if beam.pz == 0.0:
        raise DomainError("the cross section per unit flux is undefined for a "
                          "beam at rest")
    alpha = physcore.FINE_STRUCTURE
    return (alpha * kin.k_prime * kin.k_prime
            / (8.0 * math.pi * kin.harmonic * laser.k * abs(beam.pz)
               * beam.e_minus_pz * (beam.energy + 1.0) * (kin.e_prime + 1.0)))


def _harmonic_sum(theta, beam: ElectronBeam, laser: LaserField,
                  harmonic_max):
    """The blocked harmonic sum of ``averaged_cross_section`` over a float
    or a 1-D array of angles: (total, used) arrays and the harmonic-1 row
    of the first block, which holds every angle, as (k', F1, F2) of the
    beam-spin keep channel."""
    thetas = np.atleast_1d(np.asarray(theta, dtype=float))
    if thetas.ndim != 1:
        raise DomainError("theta must be a float or a 1-D array")
    outside = ~((thetas >= 0.0) & (thetas <= math.pi))
    if outside.any():
        raise DomainError(
            f"theta must lie in [0, pi], got {float(thetas[outside][0])}")
    if harmonic_max < 1:
        raise DomainError(f"harmonic_max must be >= 1, got {harmonic_max}")
    total = np.zeros_like(thetas)
    used = np.zeros(thetas.shape, dtype=int)
    live = np.arange(thetas.size)       # angles still summing
    n = 1                               # first harmonic of the next block
    first = None
    with np.errstate(all="ignore"):
        while n <= harmonic_max and live.size:
            height = max(1, min(harmonic_max - n + 1,
                                _BLOCK_ELEMENTS // live.size))
            harmonics = np.arange(n, n + height)[:, None]
            kin = solve_final_state(thetas[live], harmonics, beam, laser)
            in_series = physcore.bessel_series_range(
                kin.p_perp_prime[1:] * kin.radius_prime[1:]).all(axis=1)
            if not in_series.all():     # end the block before that row
                kin = solve_final_state(thetas[live],
                                        harmonics[:1 + np.argmin(in_series)],
                                        beam, laser)
            pref = _channel_prefactor(kin, beam, laser)
            bessel = bessel_factors(kin)
            # one table for both spins: sigma = -1 only negates F2 and G1
            table = fg_coefficients(kin, beam, laser, 1)
            terms = 0.0
            for sigma in (1, -1):
                f1, f2, g1, g2 = table_components(table, sigma, bessel)
                terms = terms + pref * (f1 * f1 + f2 * f2 + g1 * g1 + g2 * g2)
                if first is None and sigma == beam.spin:
                    # the sigma = -1 keep vector negates F2 of this table
                    first = (kin.k_prime[0], f1[0], sigma * f2[0])
            cols = np.arange(live.size)     # columns of the block still summing
            for row in terms:
                term = row[cols]
                summed = total[live] + 0.5 * term
                total[live] = summed
                used[live] = n
                n += 1
                going = ~(term <= _TRUNCATION_RTOL * summed)
                live, cols = live[going], cols[going]
                if live.size == 0:
                    break
    bad = ~np.isfinite(total)
    if bad.any():
        raise NumericError(f"the cross section at theta={float(thetas[bad][0])} "
                           "is not finite")
    return total, used, first


def averaged_cross_section(theta, beam: ElectronBeam, laser: LaserField,
                           harmonic_max=DEFAULT_HARMONIC_MAX):
    """Spin-averaged, polarization-summed differential cross section at one
    angle or a 1-D array of angles: (1/2) sum over basis polarizations and
    both spin labels, summed over harmonics 1..harmonic_max.  An angle stops
    at the first term at most 1e-14 of its total, which ``harmonic``
    reports.

    The harmonics come in blocks of H = max(1, min(harmonics left,
    2048 // angles still summing)): one final-state solve, one Bessel
    call and one coefficient table over the (H, angles) block, then the
    sum over its rows in order of N, so every angle gets the additions
    and the stop of a sum one harmonic at a time.  Terms past an angle's
    stop are computed and dropped: nearly free while per-call overhead
    dominates small arrays, but not on large ones, hence H = 1 from 2048
    angles up.  A block ends early at the first of its later rows with
    a Bessel argument outside the array series (above 9, or out of
    range): a scalar recurrence there could be paid for harmonics that
    no angle reaches, and only the first row, which every angle in the
    block reaches, may raise.  ``angular_spectrum`` runs the same sum."""
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
    """Averaged cross section, first-harmonic photon energy, and the
    polarization of the beam-spin keep channel (sigma' = sigma = beam.spin)
    over an ordered theta grid, all from one harmonic sum: harmonic 1 is
    the first row of its first block, which every angle reaches, so k'
    and the keep components F1, F2 come with the sum's own bits and
    harmonic 1 is not evaluated again."""
    thetas = np.asarray(theta_grid, dtype=float)
    if thetas.ndim != 1 or thetas.size < 1:
        raise DomainError("theta grid must be a non-empty 1-D array")
    avg, _, (k_prime, f1, f2) = _harmonic_sum(thetas, beam, laser,
                                              harmonic_max)
    pol = _unit_polarization(*_keep_vector(f1, f2, polarization_basis(thetas)))
    return AngularSpectrum(thetas=thetas, k_prime=k_prime, averaged=avg,
                           polarization_x=pol[:, 0], polarization_y=pol[:, 1])
