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
from dataclasses import dataclass, field

import numpy as np

from . import physcore
from .amplitudes import channel_polarization, harmonic_vectors
from .beamfield import ElectronBeam, LaserField
from .errors import DomainError, NumericError
from .kinematics import EmissionKinematics, solve_final_state

DEFAULT_HARMONIC_MAX = 8
_TRUNCATION_RTOL = 1e-14


@dataclass(frozen=True)
class CrossSectionPoint:
    theta: float
    harmonic: int               # highest harmonic included
    value: float                # [Compton wavelength^2 / sr]
    channel: str
    n_occ: int = 0
    # harmonic 1 of the sum: kinematics and vectors by sigma
    first: EmissionKinematics = field(default=None, repr=False, compare=False)
    first_vectors: dict = field(default=None, repr=False, compare=False)


def _channel_prefactor(kin: EmissionKinematics, beam: ElectronBeam,
                       laser: LaserField, n_occ):
    if beam.pz == 0.0:
        raise DomainError("the cross section per unit flux is undefined for a "
                          "beam at rest")
    alpha = physcore.FINE_STRUCTURE
    return (alpha * kin.k_prime * kin.k_prime * (n_occ + 1)
            / (8.0 * math.pi * kin.harmonic * laser.k * abs(beam.pz)
               * beam.e_minus_pz * (beam.energy + 1.0) * (kin.e_prime + 1.0)))


def _project(selector, vecs, sigma, sigma_prime):
    """Squared projection of the open channel vector on the selected polarization."""
    v = vecs.script_f if sigma_prime == sigma else vecs.script_g
    if isinstance(selector, int):
        if selector not in (1, 2):
            raise DomainError(f"basis polarization index must be 1 or 2, got {selector}")
        e = vecs.basis.e1 if selector == 1 else vecs.basis.e2
        amp = np.vdot(e.astype(complex), v)
    else:
        sel = np.asarray(selector, dtype=complex)
        if sel.shape == (2,):
            if abs(float(np.sum(np.abs(sel) ** 2)) - 1.0) > 1e-9:
                raise DomainError("polarization coefficients must satisfy |c1|^2+|c2|^2=1")
            e = sel[0] * vecs.basis.e1 + sel[1] * vecs.basis.e2
            amp = np.vdot(e, v)
        elif sel.shape == (3,):
            amp = np.vdot(sel, v)
        else:
            raise DomainError(f"unsupported polarization selector {selector!r}")
    return float(abs(amp) ** 2)


def diff_cross_section(kin: EmissionKinematics, beam: ElectronBeam,
                       laser: LaserField, sigma, sigma_prime, selector,
                       n_occ=0):
    """Differential cross section of one harmonic channel for a definite
    polarization (basis index 1/2, coefficient pair, or 3-vector)."""
    if sigma_prime not in (sigma, -sigma):
        raise DomainError(f"sigma_prime must be +1 or -1, got {sigma_prime!r}")
    vecs = harmonic_vectors(kin, beam, laser, sigma)
    value = _channel_prefactor(kin, beam, laser, n_occ) * _project(
        selector, vecs, sigma, sigma_prime)
    channel = "polarized" if not isinstance(selector, int) else f"basis-{selector}"
    return CrossSectionPoint(theta=kin.theta, harmonic=kin.harmonic,
                             value=value, channel=channel, n_occ=n_occ)


def transition_rate_density(kin: EmissionKinematics, beam: ElectronBeam,
                            laser: LaserField, sigma, sigma_prime, i, n_occ=0):
    """Transition probability per unit time, volume, and solid angle for one
    basis polarization in one harmonic channel."""
    if i not in (1, 2):
        raise DomainError(f"basis polarization index must be 1 or 2, got {i}")
    vecs = harmonic_vectors(kin, beam, laser, sigma)
    amp2 = _project(i, vecs, sigma, sigma_prime)
    alpha = physcore.FINE_STRUCTURE
    e, ep = beam.energy, kin.e_prime
    pref = (alpha * kin.k_prime / (2.0 * math.pi) ** 3
            * (n_occ + 1) / (4.0 * e * ep * (e + 1.0) * (ep + 1.0))
            * ep * kin.k_prime / (kin.harmonic * laser.k * beam.e_minus_pz))
    return pref * amp2


def averaged_cross_section(theta, beam: ElectronBeam, laser: LaserField,
                           n_occ=0, harmonic_max=DEFAULT_HARMONIC_MAX,
                           phi_k=0.0):
    """Spin-averaged, polarization-summed differential cross section at theta:
    (1/2) sum over basis polarizations and both spin labels, summed over
    harmonics 1..harmonic_max with adaptive truncation."""
    if not 0.0 <= theta <= math.pi:
        raise DomainError(f"theta must lie in [0, pi], got {theta}")
    if harmonic_max < 1:
        raise DomainError(f"harmonic_max must be >= 1, got {harmonic_max}")
    total = 0.0
    for n in range(1, harmonic_max + 1):
        kin = solve_final_state(theta, n, beam, laser, phi_k=phi_k)
        pref = _channel_prefactor(kin, beam, laser, n_occ)
        term = 0.0
        vectors = {}
        for sigma in (1, -1):
            vecs = vectors[sigma] = harmonic_vectors(kin, beam, laser, sigma)
            term += pref * (vecs.f_mag * vecs.f_mag + vecs.g_mag * vecs.g_mag)
        if n == 1:
            first, first_vectors = kin, vectors
        total += 0.5 * term
        if term <= _TRUNCATION_RTOL * total:
            break
    if not math.isfinite(total):
        raise NumericError(f"the cross section at theta={theta} is not finite")
    return CrossSectionPoint(theta=theta, harmonic=n, value=total,
                             channel="spin-averaged", n_occ=n_occ,
                             first=first, first_vectors=first_vectors)


@dataclass(frozen=True)
class AngularSpectrum:
    """Ordered angular sweep of the averaged cross section."""

    thetas: np.ndarray
    k_prime: np.ndarray             # [m_e]
    averaged: np.ndarray            # [Compton wavelength^2 / sr]
    polarization_x: np.ndarray      # complex x-component, spin-keep channel
    polarization_y: np.ndarray
    beam: ElectronBeam = field(repr=False, default=None)
    laser: LaserField = field(repr=False, default=None)
    harmonic_max: int = DEFAULT_HARMONIC_MAX
    n_occ: int = 0


def angular_spectrum(beam: ElectronBeam, laser: LaserField, theta_grid,
                     n_occ=0, harmonic_max=DEFAULT_HARMONIC_MAX):
    """Averaged cross section, first-harmonic photon energy, and the
    polarization of the beam-spin keep channel (sigma' = sigma = beam.spin)
    over an ordered theta grid, from one averaged_cross_section per angle."""
    thetas = np.asarray(theta_grid, dtype=float)
    if thetas.ndim != 1 or thetas.size < 1:
        raise DomainError("theta grid must be a non-empty 1-D array")
    if np.any(thetas < 0.0) or np.any(thetas > math.pi):
        raise DomainError("theta grid must lie within [0, pi]")
    kp = np.empty_like(thetas)
    avg = np.empty_like(thetas)
    pol_x = np.empty(thetas.size, dtype=complex)
    pol_y = np.empty(thetas.size, dtype=complex)
    sigma = beam.spin
    for j, theta in enumerate(thetas):
        point = averaged_cross_section(float(theta), beam, laser, n_occ=n_occ,
                                       harmonic_max=harmonic_max)
        kp[j] = point.first.k_prime
        avg[j] = point.value
        pol = channel_polarization(point.first_vectors[sigma], sigma, sigma)
        pol_x[j], pol_y[j] = pol[0], pol[1]
    return AngularSpectrum(thetas=thetas, k_prime=kp, averaged=avg,
                           polarization_x=pol_x, polarization_y=pol_y,
                           beam=beam, laser=laser, harmonic_max=harmonic_max,
                           n_occ=n_occ)


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
