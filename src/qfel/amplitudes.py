"""Transition-amplitude building blocks, for one angle or an array of them.

Closed-form coefficient tables times the Bessel factors J_{N-nu}(p'_perp R')
of the neighbor harmonics nu give real components: the spin-keep vector is
F1 e1 + i F2 e2 and the spin-flip vector (G1 e1 + i G2 e2) e^{i sigma phi_k}
on the transverse basis at phi_k.  Cross sections need only the components;
``harmonic_vectors`` builds the Cartesian vectors, and the definite outgoing
photon polarization is the unit vector along the open channel's vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .beamfield import ElectronBeam, LaserField
from .errors import ClosedChannelError, DomainError
from .kinematics import EmissionKinematics
from .physcore import bessel_jn


@dataclass(frozen=True)
class PolarizationBasis:
    e1: np.ndarray      # in-plane unit vector
    e2: np.ndarray      # azimuthal unit vector
    k_hat: np.ndarray


def polarization_basis(theta, phi_k=0.0):
    """Right-handed orthonormal pair transverse to the emission direction;
    each vector ends in an axis of its three Cartesian components."""
    ct, st = np.cos(theta), np.sin(theta)
    cp, sp = math.cos(phi_k), math.sin(phi_k)
    e1 = np.stack([ct * cp, ct * sp, -st], axis=-1)
    e2 = np.stack([np.full_like(ct, -sp), np.full_like(ct, cp),
                   np.zeros_like(ct)], axis=-1)
    k_hat = np.stack([st * cp, st * sp, ct], axis=-1)
    return PolarizationBasis(e1=e1, e2=e2, k_hat=k_hat)


def fg_coefficients(kin: EmissionKinematics, beam: ElectronBeam,
                    laser: LaserField, sigma):
    """Evaluate the twelve amplitude coefficients for one emission channel.

    Returns real tables (f, g), spin-keep and spin-flip.  Each holds the
    e1 coefficients, then the imaginary parts of the e2 coefficients,
    both ordered by the neighbor harmonic nu = (0, sigma, -sigma) that
    the dressed wave picks up.  Differences of large near-equal products
    (p_z E' - p'_z E and friends) are expanded in light-cone variables to
    keep full precision for ultrarelativistic beams.
    """
    if sigma not in (-1, 1):
        raise DomainError(f"sigma must be +1 or -1, got {sigma!r}")
    ct, st = np.cos(kin.theta), np.sin(kin.theta)
    s0, d0 = beam.e_plus_pz, beam.e_minus_pz
    s1, d1 = kin.e_plus_pz_prime, kin.e_minus_pz_prime
    pz = beam.pz
    pp = kin.p_perp_prime
    em = beam.energy + 1.0              # E + m
    emp = kin.e_prime + 1.0             # E' + m
    dm = -(d0 + 1.0)                    # p_z - E - m
    dmp = -(d1 + 1.0)                   # p'_z - E' - m
    r, rp = kin.radius, kin.radius_prime
    k = laser.k

    # p_z(E'+m) - p'_z(E+m), light-cone expanded
    x_cross = 0.5 * (s0 * d1 - d0 * s1) + 0.5 * ((s0 - s1) - (d0 - d1))
    # (E'+m) p_z + (E+m) p'_z, light-cone expanded
    y_sum = 0.5 * (s0 * s1 - d0 * d1) + 0.5 * ((s0 + s1) - (d0 + d1))

    f1_0 = -ct * pp * em - st * (y_sum + 0.5 * k * k * r * rp * dm * dmp)
    f1_s = 0.5 * k * (ct * r * dm * dmp
                      + st * pp * ((r + rp) * em - (r - rp) * pz))
    f1_m = 0.5 * k * ct * rp * dm * dmp
    g1_0 = sigma * (ct * x_cross + st * pp * (0.5 * k * k * r * rp * dm + em))
    g1_s = -0.5 * sigma * k * (ct * r * pp * dm
                               + st * (r * dm * (s1 + 1.0)
                                       - rp * (s0 + 1.0) * dmp))
    g1_m = -0.5 * sigma * k * ct * rp * pp * dm

    f2_0 = -sigma * pp * em
    f2_s = -sigma * 0.5 * k * r * dm * dmp
    f2_m = sigma * 0.5 * k * rp * dm * dmp
    g2_0 = x_cross
    g2_s = 0.5 * k * r * pp * dm
    g2_m = -0.5 * k * rp * pp * dm

    return (((f1_0, f1_s, f1_m), (f2_0, f2_s, f2_m)),
            ((g1_0, g1_s, g1_m), (g2_0, g2_s, g2_m)))


def bessel_factors(kin: EmissionKinematics):
    """J_{N-nu}(p'_perp R') for nu = 0, +1, -1; both spins share them."""
    x = kin.p_perp_prime * kin.radius_prime
    return tuple(bessel_jn(kin.harmonic - nu, x) for nu in (0, 1, -1))


def harmonic_components(kin: EmissionKinematics, beam: ElectronBeam,
                        laser: LaserField, sigma, bessel):
    """(F1, F2, G1, G2) of one channel from its ``bessel_factors``: the
    spin-keep vector is F1 e1 + i F2 e2 and the spin-flip vector is
    (G1 e1 + i G2 e2) e^{i sigma phi_k}."""
    f, g = fg_coefficients(kin, beam, laser, sigma)
    # table positions of nu = 0, +1, -1
    pos = (0, 1, 2) if sigma == 1 else (0, 2, 1)
    return tuple(sum(c[p] * b for p, b in zip(pos, bessel))
                 for c in (*f, *g))


@dataclass(frozen=True)
class HarmonicVectors:
    """Bessel-weighted emission vectors of one harmonic channel."""

    script_f: np.ndarray    # spin-keep vector (complex, (..., 3))
    script_g: np.ndarray    # spin-flip vector (complex, (..., 3))
    f_mag: np.ndarray
    g_mag: np.ndarray
    basis: PolarizationBasis


def harmonic_vectors(kin: EmissionKinematics, beam: ElectronBeam,
                     laser: LaserField, sigma):
    """Assemble the Cartesian spin-keep and spin-flip emission vectors on
    the transverse basis at phi_k; the flip vector carries the extra
    azimuthal phase e^{i sigma phi_k}."""
    f1, f2, g1, g2 = harmonic_components(kin, beam, laser, sigma,
                                         bessel_factors(kin))
    basis = polarization_basis(kin.theta, kin.phi_k)
    e1, e2 = basis.e1, basis.e2
    phase = complex(math.cos(sigma * kin.phi_k), math.sin(sigma * kin.phi_k))
    # "+ 0.0" makes each zero component +0.0, which fixes the signs of the
    # zeros that channel_polarization prints after its phase rotation
    return HarmonicVectors(
        script_f=_complex(f1[..., None] * e1 + 0.0, f2[..., None] * e2 + 0.0),
        script_g=_complex(g1[..., None] * e1, g2[..., None] * e2) * phase,
        f_mag=np.sqrt(f1 * f1 + f2 * f2), g_mag=np.sqrt(g1 * g1 + g2 * g2),
        basis=basis)


def _complex(re, im):
    out = np.empty(re.shape, dtype=complex)
    out.real, out.imag = re, im
    return out


def outgoing_polarization(kin: EmissionKinematics, beam: ElectronBeam,
                          laser: LaserField, sigma, sigma_prime):
    """Unit polarization vector of the photon emitted in the given channel."""
    vecs = harmonic_vectors(kin, beam, laser, sigma)
    return channel_polarization(vecs, sigma, sigma_prime)


def channel_polarization(vecs: HarmonicVectors, sigma, sigma_prime):
    """Unit vector along the open channel's vector of ``harmonic_vectors(...,
    sigma)``: the keep vector when sigma_prime == sigma, else the flip vector.

    The global phase is fixed by rotating the largest-magnitude component
    to the positive real axis, making comparisons deterministic.
    """
    if sigma_prime == sigma:
        v, mag = vecs.script_f, vecs.f_mag
    elif sigma_prime == -sigma:
        v, mag = vecs.script_g, vecs.g_mag
    else:
        raise DomainError(f"sigma_prime must be +1 or -1, got {sigma_prime!r}")
    if np.any(mag <= 0.0):
        raise ClosedChannelError(
            "polarization is undefined: the requested spin channel has zero amplitude")
    unit = v / mag[..., None]
    j = np.argmax(np.abs(unit), axis=-1)[..., None]
    peak = np.take_along_axis(unit, j, axis=-1)
    phase = peak / np.hypot(peak.real, peak.imag)
    return unit * np.conj(phase)
