"""Final-state kinematics of one-photon emission.

Conventions: the laser propagates along +z; theta is the polar angle of
the emitted photon measured from +z, so for a head-on beam the forward
direction of the electrons is theta = pi.  The harmonic order of the
distorted electron wave is a positive integer (the dominant channel is 1).

Everything is written in the light-cone components d = E - p_z and
s = E + p_z that ``ElectronBeam`` stores, never formed by subtraction.
The selection rules make the final mass shell linear in the photon
energy k', so k' is an exact closed form for any beam energy in either
direction, and no root is solved.  The emission energies and final
states take a float or a 1-D array of angles; a float gives the same
bits as that element of an array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import physcore
from .beamfield import ElectronBeam, LaserField
from .errors import ClosedChannelError, DomainError


def wiggling_radius(beam: ElectronBeam, laser: LaserField):
    """Dimensionless wiggling radius eA / (k (E - p_z)) of the beam electrons."""
    return laser.ea / (laser.k * beam.e_minus_pz)


def _light_cone_denominator(theta, beam: ElectronBeam, q):
    """E + q - (p_z + q) cos theta in light-cone variables,
    (s0 + 2q) sin^2(theta/2) + d0 cos^2(theta/2), a sum of non-negative
    terms that never cancels (d0 = E - p_z, s0 = E + p_z)."""
    s, c = np.sin(0.5 * theta), np.cos(0.5 * theta)
    return (beam.e_plus_pz + 2.0 * q) * (s * s) + beam.e_minus_pz * (c * c)


def compton_energy(theta, beam: ElectronBeam, k):
    """Scattered photon energy in the zero-amplitude (Compton) limit."""
    return k * beam.e_minus_pz / _light_cone_denominator(theta, beam, k)


def emitted_photon_energy(theta, harmonic, beam: ElectronBeam, laser: LaserField):
    """Photon energy at polar angle theta in harmonic channel N.

    N k (E - p_z) / (E + q - (p_z + q) cos theta) with
    q = N k + eA^2 / (2 (E - p_z)): the exact root of the selection rules.
    Reduces to the Compton value when the laser amplitude vanishes; at
    theta = 0 it collapses to N*k exactly.
    """
    if harmonic < 1:
        raise ClosedChannelError(f"harmonic order must be >= 1, got {harmonic}")
    q = harmonic * laser.k + laser.ea**2 / (2.0 * beam.e_minus_pz)
    return harmonic * laser.k * beam.e_minus_pz / _light_cone_denominator(
        theta, beam, q)


@dataclass(frozen=True)
class EmissionKinematics:
    """Full final-state bundle of one harmonic channel; the float fields
    other than the radius R are arrays when theta is."""

    theta: float
    harmonic: int
    k_prime: float
    e_prime: float
    pz_prime: float
    p_perp_prime: float
    e_minus_pz_prime: float     # E' - p'_z, kept explicitly for precision
    e_plus_pz_prime: float      # E' + p'_z
    radius: float               # R of the initial electron
    radius_prime: float         # R' of the final electron
    phi_k: float = 0.0


def solve_final_state(theta, harmonic, beam: ElectronBeam, laser: LaserField,
                      phi_k=0.0):
    """Final state of the quasi-momentum/energy selection rules.

    With E' - p'_z = (E - p_z) - k'(1 - cos theta) and the self-consistent
    R' = eA / (k (E' - p'_z)), the final mass shell is linear in k', so
    its root is ``emitted_photon_energy``.  The final light-cone
    components follow without subtraction:
    E' - p'_z = (E - p_z) D(eA^2 / (2 (E - p_z))) / D(q) with D the
    emission-energy denominator, and E' + p'_z = (1 + p'_perp^2) / (E' - p'_z)
    from the mass shell.
    """
    kp = emitted_photon_energy(theta, harmonic, beam, laser)
    shift = laser.ea**2 / (2.0 * beam.e_minus_pz)
    d = (beam.e_minus_pz * _light_cone_denominator(theta, beam, shift)
         / _light_cone_denominator(theta, beam, harmonic * laser.k + shift))
    pp = kp * np.sin(theta)
    s = (1.0 + pp * pp) / d
    return EmissionKinematics(
        theta=theta, harmonic=harmonic, k_prime=kp,
        e_prime=0.5 * (s + d), pz_prime=0.5 * (s - d),
        p_perp_prime=pp, e_minus_pz_prime=d, e_plus_pz_prime=s,
        radius=wiggling_radius(beam, laser),
        radius_prime=laser.ea / (laser.k * d), phi_k=phi_k)


def wavelength_shift(theta, beam: ElectronBeam, radiation: LaserField):
    """Fractional wavelength shift of the emitted line caused by a nonzero
    coherence amplitude of the background radiation.

    (eA sin(theta/2))^2 / ((E - p_z) [E + k - (p_z + k) cos theta]);
    linear in the coherent intensity.
    """
    return (radiation.ea * math.sin(0.5 * theta)) ** 2 / (
        beam.e_minus_pz * _light_cone_denominator(theta, beam, radiation.k))


def coherent_intensity_from_shift(measured_shift, theta, beam: ElectronBeam,
                                  radiation_wavelength_nm):
    """Invert the shift-vs-intensity linear relation for the coherent intensity
    [W/m^2] of radiation with the given wavelength."""
    if measured_shift < 0.0:
        raise DomainError(f"measured shift must be >= 0, got {measured_shift}")
    if measured_shift == 0.0:
        return 0.0
    ref = LaserField(wavelength_nm=radiation_wavelength_nm, intensity_w_m2=1.0)
    shift_per_w_m2 = wavelength_shift(theta, beam, ref)
    if shift_per_w_m2 == 0.0:
        raise DomainError(
            f"the shift does not depend on the intensity at theta={theta}; "
            "a measured shift cannot be inverted there")
    return measured_shift / shift_per_w_m2


@dataclass(frozen=True)
class CoherenceProbe:
    """Diagnostics of one probe-beam scattering off a gamma radiation field."""

    theta: float
    lambda0_nm: float           # Compton-limit emission wavelength
    lambda_nm: float            # shifted emission wavelength
    shift: float                # (lambda' - lambda'_0) / lambda'_0


def coherence_probe(theta, beam: ElectronBeam, radiation: LaserField):
    """Emission wavelengths and fractional shift for a probe electron beam
    traversing the radiation under test."""
    shift = wavelength_shift(theta, beam, radiation)
    k0 = compton_energy(theta, beam, radiation.k)
    lam0 = physcore.wavelength_from_photon_energy(
        physcore.from_natural_energy(k0) * 1e6)
    return CoherenceProbe(theta=theta, lambda0_nm=lam0,
                          lambda_nm=lam0 * (1.0 + shift), shift=shift)
