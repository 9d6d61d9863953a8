"""Transition amplitudes and photon polarization, for one angle or an array.

``channel_components`` weighs closed-form coefficients of the neighbor
harmonics nu = 0, +1, -1 with the Bessel factors J_{N-nu}(p'_perp R')
into real components: the spin-keep vector is F1 e1 + i F2 e2 and the
spin-flip vector (G1 e1 + i G2 e2) e^{i sigma phi_k} on the transverse
basis at phi_k.  The cross section needs no components (``emission``);
the polarization is the phase-fixed unit vector along the open channel,
from ``harmonic_vectors`` in ``outgoing_polarization`` and from harmonic
1's keep components in the angular sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .beamfield import ElectronBeam, LaserField
from .errors import ClosedChannelError, DomainError
from .kinematics import EmissionKinematics, wiggling_radius
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


def channel_components(kin: EmissionKinematics, beam: ElectronBeam,
                       laser: LaserField, sigma, bessel):
    """(F1, F2, G1, G2) of emission channel sigma from the Bessel rows J_N,
    J_{N-1}, J_{N+1} at p'_perp R': the spin-keep vector is F1 e1 + i F2 e2
    and the spin-flip vector (G1 e1 + i G2 e2) e^{i sigma phi_k}.

    Each component sums, from 0 and in that row order for either sigma,
    a coefficient of the neighbor harmonic nu = 0, sigma, -sigma of the
    dressed wave times its row J_{N-nu}.  Differences of large near-equal
    products (p_z E' - p'_z E and friends) are expanded in light-cone
    variables to keep full precision for ultrarelativistic beams.
    """
    if sigma not in (-1, 1):
        raise DomainError(f"sigma must be +1 or -1, got {sigma!r}")
    ct, st = np.cos(kin.theta), np.sin(kin.theta)
    s0, d0 = beam.e_plus_pz, beam.e_minus_pz
    s1, d1 = kin.e_plus_pz_prime, kin.e_minus_pz_prime
    pz = beam.pz
    pp = kin.p_perp_prime
    em = beam.energy + 1.0              # E + m
    dm = -(d0 + 1.0)                    # p_z - E - m
    dmp = -(d1 + 1.0)                   # p'_z - E' - m
    r, rp = wiggling_radius(beam, laser), kin.radius_prime
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

    # places in (0, sigma, -sigma) of nu = 0, +1, -1, the rows' order
    pos = (0, 1, 2) if sigma == 1 else (0, 2, 1)
    return tuple(sum(c[p] * b for p, b in zip(pos, bessel))
                 for c in ((f1_0, f1_s, f1_m), (f2_0, f2_s, f2_m),
                           (g1_0, g1_s, g1_m), (g2_0, g2_s, g2_m)))


@dataclass(frozen=True)
class HarmonicVectors:
    """Bessel-weighted emission vectors of one harmonic channel."""

    script_f: np.ndarray    # spin-keep vector (complex, (..., 3))
    script_g: np.ndarray    # spin-flip vector (complex, (..., 3))
    f_mag: np.ndarray
    g_mag: np.ndarray
    basis: PolarizationBasis


def harmonic_vectors(kin: EmissionKinematics, beam: ElectronBeam,
                     laser: LaserField, sigma, phi_k=0.0):
    """Assemble the Cartesian spin-keep and spin-flip emission vectors on
    the transverse basis at azimuth phi_k; the flip vector carries the
    extra azimuthal phase e^{i sigma phi_k}."""
    n = kin.harmonic
    f1, f2, g1, g2 = channel_components(
        kin, beam, laser, sigma,
        bessel_jn((n, n - 1, n + 1), kin.p_perp_prime * kin.radius_prime))
    basis = polarization_basis(kin.theta, phi_k)
    e1, e2 = basis.e1, basis.e2
    phase = complex(math.cos(sigma * phi_k), math.sin(sigma * phi_k))
    script_f, f_mag = _keep_vector(f1, f2, basis)
    return HarmonicVectors(
        script_f=script_f, f_mag=f_mag,
        script_g=_complex(g1[..., None] * e1, g2[..., None] * e2) * phase,
        g_mag=np.sqrt(g1 * g1 + g2 * g2), basis=basis)


def _keep_vector(f1, f2, basis: PolarizationBasis):
    """The spin-keep vector F1 e1 + i F2 e2 and its magnitude.  "+ 0.0"
    makes each zero component +0.0, which fixes the signs of the zeros
    that a polarization prints after its phase rotation."""
    return (_complex(f1[..., None] * basis.e1 + 0.0,
                     f2[..., None] * basis.e2 + 0.0),
            np.sqrt(f1 * f1 + f2 * f2))


def _complex(re, im):
    out = np.empty(re.shape, dtype=complex)
    out.real, out.imag = re, im
    return out


def outgoing_polarization(kin: EmissionKinematics, beam: ElectronBeam,
                          laser: LaserField, sigma, sigma_prime):
    """Unit polarization vector of the photon emitted in the given channel:
    along the spin-keep vector of ``harmonic_vectors(..., sigma)`` when
    sigma_prime == sigma, else along its spin-flip vector.

    The global phase is fixed by rotating the largest-magnitude component
    to the positive real axis, making comparisons deterministic.
    """
    vecs = harmonic_vectors(kin, beam, laser, sigma)
    if sigma_prime == sigma:
        v, mag = vecs.script_f, vecs.f_mag
    elif sigma_prime == -sigma:
        v, mag = vecs.script_g, vecs.g_mag
    else:
        raise DomainError(f"sigma_prime must be +1 or -1, got {sigma_prime!r}")
    return _unit_polarization(v, mag)


def _unit_polarization(v, mag):
    """The channel vector v of magnitude mag as a unit vector whose
    largest-magnitude component lies on the positive real axis."""
    if np.any(mag <= 0.0):
        raise ClosedChannelError(
            "polarization is undefined: the requested spin channel has zero amplitude")
    unit = v / mag[..., None]
    j = np.argmax(np.abs(unit), axis=-1)[..., None]
    peak = np.take_along_axis(unit, j, axis=-1)
    phase = peak / np.hypot(peak.real, peak.imag)
    return unit * np.conj(phase)
