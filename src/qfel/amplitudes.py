"""Transition amplitudes and photon polarization, for one angle or an array.

Harmonic N of emission channel sigma has the spin-keep vector
F1 e1 + i F2 e2 and the spin-flip vector (G1 e1 + i G2 e2) e^{i sigma phi_k}
on the transverse basis at phi_k.  ``_keep_components`` gives (F1, F2)
and ``_flip_components`` (G1, G2), both from the Bessel rows J_N,
J_{N-1}, J_{N+1} at p'_perp R': each component sums, from 0 and in that
row order for either sigma, a coefficient of the neighbor harmonic
nu = 0, sigma, -sigma of the dressed wave times its row J_{N-nu}.
Differences of large near-equal products (p_z E' - p'_z E and friends)
are expanded in light-cone variables to keep full precision for
ultrarelativistic beams.  The cross section needs no components
(``emission``); the polarization is the phase-fixed unit vector along
the open channel, from ``harmonic_vectors`` in ``outgoing_polarization``
and, in the angular sweep, from harmonic 1's keep half alone.
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
    each vector ends in an axis of its three Cartesian components, and
    all three are views of one buffer."""
    ct, st = np.cos(theta), np.sin(theta)
    cp, sp = math.cos(phi_k), math.sin(phi_k)
    e1, e2, k_hat = np.empty((3, *np.shape(ct), 3))
    e1[..., 0], e1[..., 1], e1[..., 2] = ct * cp, ct * sp, -st
    e2[...] = -sp, cp, 0.0
    k_hat[..., 0], k_hat[..., 1], k_hat[..., 2] = st * cp, st * sp, ct
    return PolarizationBasis(e1=e1, e2=e2, k_hat=k_hat)


def _keep_components(kin, beam, laser, sigma, bessel):
    """(F1, F2) of channel sigma: the spin-keep half."""
    ct, st, pp, em, dm, dmp, r, rp, k, s0, d0, s1, d1 = _channel_inputs(
        kin, beam, laser, sigma)
    # (E'+m) p_z + (E+m) p'_z, light-cone expanded
    y_sum = 0.5 * (s0 * s1 - d0 * d1) + 0.5 * ((s0 + s1) - (d0 + d1))

    f1_0 = -ct * pp * em - st * (y_sum + 0.5 * k * k * r * rp * dm * dmp)
    f1_s = 0.5 * k * (ct * r * dm * dmp
                      + st * pp * ((r + rp) * em - (r - rp) * beam.pz))
    f1_m = 0.5 * k * ct * rp * dm * dmp
    f2_0 = -sigma * pp * em
    f2_s = -sigma * 0.5 * k * r * dm * dmp
    f2_m = sigma * 0.5 * k * rp * dm * dmp
    return _weigh(sigma, bessel, (f1_0, f1_s, f1_m), (f2_0, f2_s, f2_m))


def _flip_components(kin, beam, laser, sigma, bessel):
    """(G1, G2) of channel sigma: the spin-flip half."""
    ct, st, pp, em, dm, dmp, r, rp, k, s0, d0, s1, d1 = _channel_inputs(
        kin, beam, laser, sigma)
    # p_z(E'+m) - p'_z(E+m), light-cone expanded
    x_cross = 0.5 * (s0 * d1 - d0 * s1) + 0.5 * ((s0 - s1) - (d0 - d1))

    g1_0 = sigma * (ct * x_cross + st * pp * (0.5 * k * k * r * rp * dm + em))
    g1_s = -0.5 * sigma * k * (ct * r * pp * dm
                               + st * (r * dm * (s1 + 1.0)
                                       - rp * (s0 + 1.0) * dmp))
    g1_m = -0.5 * sigma * k * ct * rp * pp * dm
    g2_0 = x_cross
    g2_s = 0.5 * k * r * pp * dm
    g2_m = -0.5 * k * rp * pp * dm
    return _weigh(sigma, bessel, (g1_0, g1_s, g1_m), (g2_0, g2_s, g2_m))


def _channel_inputs(kin, beam, laser, sigma):
    """The inputs both halves share, after the sigma check: cos, sin
    theta, p'_perp, E + m, p_z - E - m, p'_z - E' - m, R, R', k, E + p_z,
    E - p_z, E' + p'_z and E' - p'_z."""
    if sigma not in (-1, 1):
        raise DomainError(f"sigma must be +1 or -1, got {sigma!r}")
    d0, d1 = beam.e_minus_pz, kin.e_minus_pz_prime
    return (np.cos(kin.theta), np.sin(kin.theta), kin.p_perp_prime,
            beam.energy + 1.0, -(d0 + 1.0), -(d1 + 1.0),
            wiggling_radius(beam, laser), kin.radius_prime, laser.k,
            beam.e_plus_pz, d0, kin.e_plus_pz_prime, d1)


def _weigh(sigma, bessel, *coefficients):
    """Each (nu = 0, sigma, -sigma) coefficient triple summed from 0 with
    the rows J_N, J_{N-1}, J_{N+1}, whose places in it are those of
    nu = 0, +1, -1."""
    pos = (0, 1, 2) if sigma == 1 else (0, 2, 1)
    return tuple(sum(c[p] * b for p, b in zip(pos, bessel))
                 for c in coefficients)


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
    if np.ndim(n) != 0:
        raise DomainError("harmonic vectors take one integer harmonic, got "
                          f"{np.asarray(n).tolist()}")
    bessel = bessel_jn((n, n - 1, n + 1), kin.p_perp_prime * kin.radius_prime)
    f1, f2 = _keep_components(kin, beam, laser, sigma, bessel)
    g1, g2 = _flip_components(kin, beam, laser, sigma, bessel)
    basis = polarization_basis(kin.theta, phi_k)
    script_f, f_mag = _keep_vector(f1, f2, basis)
    script_g = _vector(g1, g2, basis)
    script_g *= complex(math.cos(sigma * phi_k), math.sin(sigma * phi_k))
    return HarmonicVectors(script_f=script_f, f_mag=f_mag, script_g=script_g,
                           g_mag=np.sqrt(g1 * g1 + g2 * g2), basis=basis)


def _keep_vector(f1, f2, basis: PolarizationBasis):
    """The spin-keep vector F1 e1 + i F2 e2 and its magnitude.  "+ 0.0"
    makes each zero component +0.0, which fixes the signs of the zeros
    that a polarization prints after its phase rotation."""
    vec = _vector(f1, f2, basis)
    vec += 0.0                          # adds 0.0 to each real and imag part
    return vec, np.sqrt(f1 * f1 + f2 * f2)


def _vector(a, b, basis: PolarizationBasis):
    """a e1 + i b e2, each product written straight into its part of one
    complex array."""
    a, b = a[..., None], b[..., None]
    vec = np.empty(np.broadcast(a, basis.e1).shape, dtype=complex)
    np.multiply(a, basis.e1, out=vec.real)
    np.multiply(b, basis.e2, out=vec.imag)
    return vec


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
