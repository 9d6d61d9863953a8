"""Transition-amplitude building blocks.

The closed-form coefficient tables below multiply Bessel factors
J_{N-nu}(p'_perp R') and the transverse polarization basis to give the
two harmonic emission vectors: one for the spin-keeping channel and one
for the spin-flipping channel.  The definite outgoing photon polarization
is the unit vector along the open channel's harmonic vector.
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
    """Right-handed orthonormal pair transverse to the emission direction."""
    ct, st = math.cos(theta), math.sin(theta)
    cp, sp = math.cos(phi_k), math.sin(phi_k)
    e1 = np.array([ct * cp, ct * sp, -st])
    e2 = np.array([-sp, cp, 0.0])
    k_hat = np.array([st * cp, st * sp, ct])
    return PolarizationBasis(e1=e1, e2=e2, k_hat=k_hat)


@dataclass(frozen=True)
class FGTable:
    """Coefficient tables keyed by (component i in {1, 2}, nu in {0, +1, -1}).

    f holds the spin-keep entries, g the spin-flip entries.  The i=2
    entries are purely imaginary as they come out of the closed form.
    """

    f: dict
    g: dict
    sigma: int


def fg_coefficients(kin: EmissionKinematics, beam: ElectronBeam,
                    laser: LaserField, sigma):
    """Evaluate the twelve amplitude coefficients for one emission channel.

    The nu index labels the neighboring harmonic picked up from the
    dressed wave: the sigma-proportional entries sit at nu = sigma, their
    partners at nu = -sigma.  Differences of large near-equal products
    (p_z E' - p'_z E and friends) are expanded in light-cone variables to
    keep full precision for ultrarelativistic beams.
    """
    if sigma not in (-1, 1):
        raise DomainError(f"sigma must be +1 or -1, got {sigma!r}")
    ct, st = math.cos(kin.theta), math.sin(kin.theta)
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

    f2_0 = -1j * sigma * pp * em
    f2_s = -1j * sigma * 0.5 * k * r * dm * dmp
    f2_m = 1j * sigma * 0.5 * k * rp * dm * dmp
    g2_0 = 1j * x_cross
    g2_s = 1j * 0.5 * k * r * pp * dm
    g2_m = -1j * 0.5 * k * rp * pp * dm

    f = {(1, 0): complex(f1_0), (1, sigma): complex(f1_s), (1, -sigma): complex(f1_m),
         (2, 0): f2_0, (2, sigma): f2_s, (2, -sigma): f2_m}
    g = {(1, 0): complex(g1_0), (1, sigma): complex(g1_s), (1, -sigma): complex(g1_m),
         (2, 0): g2_0, (2, sigma): g2_s, (2, -sigma): g2_m}
    return FGTable(f=f, g=g, sigma=sigma)


@dataclass(frozen=True)
class HarmonicVectors:
    """Bessel-weighted emission vectors of one harmonic channel."""

    script_f: np.ndarray    # spin-keep vector (complex, 3)
    script_g: np.ndarray    # spin-flip vector (complex, 3)
    f_mag: float
    g_mag: float
    basis: PolarizationBasis


def harmonic_vectors(kin: EmissionKinematics, beam: ElectronBeam,
                     laser: LaserField, sigma):
    """Assemble the spin-keep and spin-flip emission vectors.

    Components on the transverse basis are sums over the three neighbor
    harmonics nu with weights J_{N-nu}(p'_perp R'); the flip vector
    carries the extra azimuthal phase e^{i sigma phi}.
    """
    n = kin.harmonic
    table = fg_coefficients(kin, beam, laser, sigma)
    x = kin.p_perp_prime * kin.radius_prime
    bessel = {nu: bessel_jn(n - nu, x) for nu in (0, 1, -1)}
    basis = polarization_basis(kin.theta, kin.phi_k)
    evecs = (basis.e1.astype(complex), basis.e2.astype(complex))
    phase = complex(math.cos(sigma * kin.phi_k), math.sin(sigma * kin.phi_k))
    script_f = np.zeros(3, dtype=complex)
    script_g = np.zeros(3, dtype=complex)
    for idx, e in enumerate(evecs, start=1):
        fc = sum(table.f[(idx, nu)] * bessel[nu] for nu in (0, 1, -1))
        gc = sum(table.g[(idx, nu)] * bessel[nu] for nu in (0, 1, -1))
        script_f += fc * e
        script_g += gc * phase * e
    return HarmonicVectors(
        script_f=script_f, script_g=script_g,
        f_mag=float(np.linalg.norm(script_f)),
        g_mag=float(np.linalg.norm(script_g)),
        basis=basis)


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
    if mag <= 0.0:
        raise ClosedChannelError(
            "polarization is undefined: the requested spin channel has zero amplitude")
    unit = v / mag
    j = int(np.argmax(np.abs(unit)))
    phase = unit[j] / abs(unit[j])
    return unit * np.conj(phase)
