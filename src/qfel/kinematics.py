"""Final-state kinematics of one-photon emission.

Conventions: the laser propagates along +z; theta is the polar angle of
the emitted photon measured from +z, so for a head-on beam the forward
direction of the electrons is theta = pi.  The harmonic order of the
distorted electron wave is a positive integer (the dominant channel is 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import physcore
from .beamfield import ElectronBeam, LaserField, coherence_amplitude
from .errors import ClosedChannelError, DomainError, LightConeError


def wiggling_radius(e, pz, laser: LaserField):
    """Dimensionless wiggling radius eA / (k (E - p_z))."""
    d = e - pz
    if d == 0.0:
        raise LightConeError("E - p_z = 0: wiggling radius diverges")
    return laser.ea / (laser.k * d)


def quasi_energy(n, sigma, pz, p_perp, laser: LaserField):
    """Quasi-energy of the dressed electron level (n, sigma) in the laser."""
    e = math.sqrt(pz * pz + p_perp * p_perp + 1.0)
    d = e - pz
    if d == 0.0:
        raise LightConeError("E - p_z = 0: quasi-energy is singular")
    return e + laser.ea**2 / (2.0 * d) + (0.5 * sigma - n) * laser.k


def compton_energy(theta, beam: ElectronBeam, k):
    """Scattered photon energy in the zero-amplitude (Compton) limit."""
    num = k * beam.e_minus_pz
    den = beam.energy + k - (beam.pz + k) * math.cos(theta)
    if den <= 0.0:
        raise DomainError("vanishing denominator in the Compton formula")
    return num / den


def emitted_photon_energy(theta, harmonic, beam: ElectronBeam, laser: LaserField):
    """Closed-form photon energy at polar angle theta in harmonic channel N.

    Reduces to the Compton value when the laser amplitude vanishes; at
    theta = 0 it collapses to N*k exactly.
    """
    if harmonic < 1:
        raise ClosedChannelError(f"harmonic order must be >= 1, got {harmonic}")
    q = harmonic * laser.k + laser.ea**2 / (2.0 * beam.e_minus_pz)
    num = harmonic * laser.k * beam.e_minus_pz
    den = beam.energy + q - (beam.pz + q) * math.cos(theta)
    if den <= 0.0:
        raise DomainError("vanishing denominator in the emission-energy formula")
    return num / den


@dataclass(frozen=True)
class EmissionKinematics:
    """Full final-state bundle for one (theta, harmonic) emission channel."""

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
    closed_form_rel_diff: float = 0.0   # |k' - closed form| / k'


def solve_final_state(theta, harmonic, beam: ElectronBeam, laser: LaserField,
                      phi_k=0.0):
    """Solve the quasi-momentum/energy selection rules for the final state.

    Finds k' by deterministic bisection on the final-state mass-shell
    residual, with R' computed self-consistently from
    E' - p'_z = (E - p_z) - k'(1 - cos theta).  The returned bundle also
    records the relative deviation of the closed-form energy formula,
    which drops the R' back-reaction term.
    """
    if harmonic < 1:
        raise ClosedChannelError(f"harmonic order must be >= 1, got {harmonic}")
    ct = math.cos(theta)
    st = math.sin(theta)
    d0 = beam.e_minus_pz              # E - p_z of the initial electron
    s0 = beam.e_plus_pz
    nk = harmonic * laser.k
    ea, k = laser.ea, laser.k
    radius = wiggling_radius(beam.energy, beam.pz, laser)

    def light_cone(kp):
        return d0 - kp * (1.0 - ct)

    def residual(kp):
        d = light_cone(kp)
        rp = ea / (k * d)
        s = s0 + 2.0 * nk - ea * (rp - radius) * k - kp * (1.0 + ct)
        return d * s - 1.0 - (kp * st) ** 2

    # Bracket: residual(0+) = 2 N k (E - p_z) > 0; towards the light-cone
    # edge (or the energy bound) the residual turns negative.
    lo = 1e-18
    if ct < 1.0:
        hi = d0 / (1.0 - ct) * (1.0 - 1e-15)
    else:
        hi = beam.energy - 1.0 + nk + laser.k
    flo, fhi = residual(lo), residual(hi)
    if flo <= 0.0:
        raise ClosedChannelError(
            f"no open emission channel at theta={theta}, harmonic={harmonic}")
    while fhi > 0.0:
        hi *= 2.0
        fhi = residual(hi)
        if hi > d0 / max(1.0 - ct, 1e-300) or hi > 1e12:
            raise ClosedChannelError(
                f"no root found for theta={theta}, harmonic={harmonic}")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if residual(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    kp = 0.5 * (lo + hi)

    d = light_cone(kp)
    rp = ea / (k * d)
    s = s0 + 2.0 * nk - ea * (rp - radius) * k - kp * (1.0 + ct)
    closed = emitted_photon_energy(theta, harmonic, beam, laser)
    return EmissionKinematics(
        theta=theta, harmonic=harmonic, k_prime=kp,
        e_prime=0.5 * (s + d), pz_prime=0.5 * (s - d),
        p_perp_prime=kp * st, e_minus_pz_prime=d, e_plus_pz_prime=s,
        radius=radius, radius_prime=rp, phi_k=phi_k,
        closed_form_rel_diff=abs(kp - closed) / kp)


def wavelength_shift(theta, beam: ElectronBeam, radiation: LaserField):
    """Fractional wavelength shift of the emitted line caused by a nonzero
    coherence amplitude of the background radiation.

    (eA sin(theta/2))^2 / ((E - p_z) [E + k - (p_z + k) cos theta]);
    linear in the coherent intensity.
    """
    sh = math.sin(0.5 * theta)
    den = beam.e_minus_pz * (
        beam.energy + radiation.k - (beam.pz + radiation.k) * math.cos(theta))
    if den <= 0.0:
        raise DomainError("vanishing denominator in the wavelength-shift formula")
    return (radiation.ea * sh) ** 2 / den


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
