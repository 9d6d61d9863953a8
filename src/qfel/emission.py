"""Observable emission quantities.

Cross sections follow the convention of the source framework: the
differential cross section of a piece of the background wave of one
Compton volume, in Compton-wavelength-squared units per steradian.
Stimulated emission enters as the (N_occ + 1) factor.  An independent
Klein-Nishina oracle (rest-frame formula plus exact boost) serves as the
zero-amplitude limit reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import physcore
from .amplitudes import (bessel_factors, channel_polarization,
                         harmonic_components, harmonic_vectors)
from .beamfield import ElectronBeam, LaserField
from .errors import DomainError, NumericError
from .kinematics import EmissionKinematics, solve_final_state

DEFAULT_HARMONIC_MAX = 8
_TRUNCATION_RTOL = 1e-14


@dataclass(frozen=True)
class CrossSectionPoint:
    theta: float                # or an array of angles
    harmonic: int               # highest harmonic included, per angle
    value: float                # [Compton wavelength^2 / sr]
    channel: str
    n_occ: int = 0


def _channel_prefactor(kin: EmissionKinematics, beam: ElectronBeam,
                       laser: LaserField, n_occ):
    if beam.pz == 0.0:
        raise DomainError("the cross section per unit flux is undefined for a "
                          "beam at rest")
    alpha = physcore.FINE_STRUCTURE
    return (alpha * kin.k_prime * kin.k_prime * (n_occ + 1)
            / (8.0 * math.pi * kin.harmonic * laser.k * abs(beam.pz)
               * beam.e_minus_pz * (beam.energy + 1.0) * (kin.e_prime + 1.0)))


def _project(selector, components, sigma, sigma_prime):
    """Squared projection of the open channel vector, a1 e1 + i a2 e2 up to
    a phase, on a basis polarization (1 or 2) or a coefficient pair."""
    a1, a2 = components[:2] if sigma_prime == sigma else components[2:]
    if isinstance(selector, int):
        if selector not in (1, 2):
            raise DomainError(f"basis polarization index must be 1 or 2, got {selector}")
        amp = a1 if selector == 1 else a2
        return amp * amp
    sel = np.asarray(selector, dtype=complex)
    if sel.shape != (2,):
        raise DomainError(f"unsupported polarization selector {selector!r}")
    if abs(float(np.sum(np.abs(sel) ** 2)) - 1.0) > 1e-9:
        raise DomainError("polarization coefficients must satisfy |c1|^2+|c2|^2=1")
    return np.abs(np.conj(sel[0]) * a1 + 1j * np.conj(sel[1]) * a2) ** 2


def diff_cross_section(kin: EmissionKinematics, beam: ElectronBeam,
                       laser: LaserField, sigma, sigma_prime, selector,
                       n_occ=0):
    """Differential cross section of one harmonic channel for a definite
    polarization (basis index 1/2 or coefficient pair)."""
    if sigma_prime not in (sigma, -sigma):
        raise DomainError(f"sigma_prime must be +1 or -1, got {sigma_prime!r}")
    parts = harmonic_components(kin, beam, laser, sigma, bessel_factors(kin))
    value = _channel_prefactor(kin, beam, laser, n_occ) * _project(
        selector, parts, sigma, sigma_prime)
    channel = "polarized" if not isinstance(selector, int) else f"basis-{selector}"
    return CrossSectionPoint(theta=kin.theta, harmonic=kin.harmonic,
                             value=value, channel=channel, n_occ=n_occ)


def transition_rate_density(kin: EmissionKinematics, beam: ElectronBeam,
                            laser: LaserField, sigma, sigma_prime, i, n_occ=0):
    """Transition probability per unit time, volume, and solid angle for one
    basis polarization in one harmonic channel."""
    if i not in (1, 2):
        raise DomainError(f"basis polarization index must be 1 or 2, got {i}")
    parts = harmonic_components(kin, beam, laser, sigma, bessel_factors(kin))
    amp2 = _project(i, parts, sigma, sigma_prime)
    alpha = physcore.FINE_STRUCTURE
    e, ep = beam.energy, kin.e_prime
    pref = (alpha * kin.k_prime / (2.0 * math.pi) ** 3
            * (n_occ + 1) / (4.0 * e * ep * (e + 1.0) * (ep + 1.0))
            * ep * kin.k_prime / (kin.harmonic * laser.k * beam.e_minus_pz))
    return pref * amp2


def averaged_cross_section(theta, beam: ElectronBeam, laser: LaserField,
                           n_occ=0, harmonic_max=DEFAULT_HARMONIC_MAX):
    """Spin-averaged, polarization-summed differential cross section at one
    angle or a 1-D array of angles: (1/2) sum over basis polarizations and
    both spin labels, summed over harmonics 1..harmonic_max.  Each harmonic
    is evaluated once for the angles still summing; an angle stops at the
    first term at most 1e-14 of its total, which ``harmonic`` reports."""
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
    with np.errstate(all="ignore"):
        for n in range(1, harmonic_max + 1):
            kin = solve_final_state(thetas[live], n, beam, laser)
            pref = _channel_prefactor(kin, beam, laser, n_occ)
            bessel = bessel_factors(kin)
            term = 0.0
            for sigma in (1, -1):
                f1, f2, g1, g2 = harmonic_components(kin, beam, laser, sigma,
                                                     bessel)
                term = term + pref * (f1 * f1 + f2 * f2 + g1 * g1 + g2 * g2)
            summed = total[live] + 0.5 * term
            total[live] = summed
            used[live] = n
            live = live[~(term <= _TRUNCATION_RTOL * summed)]
            if live.size == 0:
                break
    bad = ~np.isfinite(total)
    if bad.any():
        raise NumericError(f"the cross section at theta={float(thetas[bad][0])} "
                           "is not finite")
    if np.ndim(theta) == 0:
        thetas, used, total = theta, int(used[0]), float(total[0])
    return CrossSectionPoint(theta=thetas, harmonic=used, value=total,
                             channel="spin-averaged", n_occ=n_occ)


@dataclass(frozen=True)
class AngularSpectrum:
    """Ordered angular sweep of the averaged cross section."""

    thetas: np.ndarray
    k_prime: np.ndarray             # [m_e]
    averaged: np.ndarray            # [Compton wavelength^2 / sr]
    polarization_x: np.ndarray      # complex x-component, spin-keep channel
    polarization_y: np.ndarray


def angular_spectrum(beam: ElectronBeam, laser: LaserField, theta_grid,
                     n_occ=0, harmonic_max=DEFAULT_HARMONIC_MAX):
    """Averaged cross section, first-harmonic photon energy, and the
    polarization of the beam-spin keep channel (sigma' = sigma = beam.spin)
    over an ordered theta grid: one averaged_cross_section call for the
    whole grid and one evaluation of harmonic 1."""
    thetas = np.asarray(theta_grid, dtype=float)
    if thetas.ndim != 1 or thetas.size < 1:
        raise DomainError("theta grid must be a non-empty 1-D array")
    avg = averaged_cross_section(thetas, beam, laser, n_occ=n_occ,
                                 harmonic_max=harmonic_max).value
    first = solve_final_state(thetas, 1, beam, laser)
    sigma = beam.spin
    pol = channel_polarization(harmonic_vectors(first, beam, laser, sigma),
                               sigma, sigma)
    return AngularSpectrum(thetas=thetas, k_prime=first.k_prime, averaged=avg,
                           polarization_x=pol[:, 0], polarization_y=pol[:, 1])


# ---------------------------------------------------------------------------
# Independent Klein-Nishina oracle for the zero-amplitude limit.


def klein_nishina_rest(k_in, cos_theta):
    """Rest-frame Klein-Nishina dsigma/dOmega [Compton wavelength^2 / sr],
    unpolarized, for incident photon energy k_in [m_e]."""
    kp = k_in / (1.0 + k_in * (1.0 - cos_theta))
    ratio = kp / k_in
    sin2 = 1.0 - cos_theta * cos_theta
    return 0.5 * physcore.FINE_STRUCTURE**2 * ratio**2 * (
        ratio + 1.0 / ratio - sin2)


def klein_nishina_reference(theta, beam: ElectronBeam, k):
    """Lab-frame Klein-Nishina dsigma/dOmega for a photon of energy k moving
    along +z scattering off the beam electrons, observed at lab angle theta.

    Composes the rest-frame formula with the exact longitudinal boost of
    angles and the solid-angle Jacobian.
    """
    ct = math.cos(theta)
    k_rest = k * beam.e_minus_pz
    # (cos - beta)/(1 - beta cos) and (1-beta^2)/(1 - beta cos)^2 written
    # with E and p_z to avoid 1 +- beta cancellation for fast beams
    denom = beam.energy - beam.pz * ct
    cos_rest = (beam.energy * ct - beam.pz) / denom
    jac = 1.0 / (denom * denom)
    return klein_nishina_rest(k_rest, cos_rest) * jac
