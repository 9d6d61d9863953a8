"""Population dynamics in the active tube.

The emission/reabsorption balance couples the initial-electron density
n(l), the final-electron density n'(l), and the photon density N(l):

    lambda_c dn/dl = a [2 n^2 - (2 N0 + 3 n0 + 1) n + n0 (n0 + N0)]

with the position-independent gain coefficient a taken from the forward
spin-averaged cross section.  Densities are dimensionless inside this
module (particles per Compton volume); SI m^-3 only at the boundary.

Caveat carried through every report: realistic beam densities of order
1e18 m^-3 are ~1e-19 per Compton volume, where the exact solution
converts nearly every electron, while the source estimates apply a
one-half conversion rule derived from the dense regime.  Both numbers
are reported; headline intensities use the one-half rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import physcore
from .beamfield import ElectronBeam, LaserField
from .emission import averaged_cross_section
from .errors import DomainError, NumericError
from .kinematics import solve_final_state

COMPTON_VOLUME_M3 = physcore.COMPTON_WAVELENGTH_M**3

SOFT_GAMMA_MIN_NM = 0.05
SOFT_GAMMA_MAX_NM = 1.0


def density_si_to_compton(n_m3):
    return n_m3 * COMPTON_VOLUME_M3


def density_compton_to_si(n_c):
    return n_c / COMPTON_VOLUME_M3


@dataclass(frozen=True)
class TubeConfig:
    """One tube section in dimensionless (Compton-volume) densities."""

    length_m: float
    gain: float                  # a, dimensionless
    n0: float                    # initial electron density
    seed: float = 0.0            # photon density entering the section

    def __post_init__(self):
        if self.length_m < 0.0:
            raise DomainError(f"tube length must be >= 0, got {self.length_m}")
        if self.gain <= 0.0:
            raise DomainError(f"gain coefficient must be > 0, got {self.gain}")
        if self.n0 < 0.0 or self.seed < 0.0:
            raise DomainError("densities must be >= 0")


@dataclass(frozen=True)
class TubeProfile:
    """Sampled (l, n, n', N) profile along one section plus its asymptote."""

    l_m: np.ndarray
    n: np.ndarray
    n_prime: np.ndarray
    photon: np.ndarray
    asymptote: float             # photon density as l -> infinity


def gain_coefficient(beam: ElectronBeam, laser: LaserField):
    """Gain coefficient a (forward spin-averaged cross section per occupation
    quantum) and the gain length lambda_c / a in meters."""
    a = averaged_cross_section(math.pi, beam, laser, n_occ=0).value
    if a <= 0.0:
        raise NumericError("forward cross section vanished; no gain")
    return a, physcore.COMPTON_WAVELENGTH_M / a


def _quadratic_roots(n0, seed):
    """Roots of the RHS quadratic 2n^2 - b n + c and the root distance
    d = sqrt(b^2 - 8c); the discriminant is provably positive for physical
    inputs.  It is scaled by b^2, which overflows for dense beams, and
    the lower root is taken from the root product c/2, since (b - d)/4
    cancels when c << b^2."""
    b = 2.0 * seed + 3.0 * n0 + 1.0
    ratio = (n0 + seed) / b
    scaled = 1.0 - 8.0 * (n0 / b) * ratio
    if scaled <= 0.0:
        raise NumericError(
            f"non-positive discriminant {scaled} b^2 for n0={n0}, "
            f"seed={seed}; cannot happen for non-negative densities")
    root = math.sqrt(scaled)
    d = b * root
    return 2.0 * n0 * ratio / (1.0 + root), (b + d) / 4.0, d


def evolve_seeded(config: TubeConfig, samples=200):
    """Closed-form solution of the seeded balance equation over one section."""
    n0, seed = config.n0, config.seed
    ls = np.linspace(0.0, config.length_m, max(int(samples), 2))
    if n0 == 0.0:
        flat = np.zeros_like(ls)
        return TubeProfile(l_m=ls, n=flat.copy(), n_prime=flat.copy(),
                           photon=np.full_like(ls, seed), asymptote=seed)
    lo, hi, d = _quadratic_roots(n0, seed)
    # u = (n - lo)/(n - hi) decays exponentially with rate a d / lambda_c.
    # Above ~1e16 per Compton volume n0 and hi agree to float resolution;
    # then n0 - hi = (q - d)/4 with q = n0 - 2 seed - 1 > 0 comes from
    # (q - d)(q + d) = -8 n0 (seed + 1) instead
    below = n0 - hi
    if below == 0.0:
        below = -2.0 * n0 * (seed + 1.0) / (n0 - 2.0 * seed - 1.0 + d)
    u0 = (n0 - lo) / below
    rate = config.gain * d / physcore.COMPTON_WAVELENGTH_M
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        u = u0 * np.exp(-rate * ls)
        n = (lo - hi * u) / (1.0 - u)
    # hi stays below 1e272, so hi u overflows only for |u| > 1e36, where n
    # is hi to float resolution
    n = np.where(np.isfinite(n), n, hi)
    n_prime = n0 - n
    photon = seed + n_prime
    return TubeProfile(l_m=ls, n=n, n_prime=n_prime, photon=photon,
                       asymptote=seed + n0 - lo)


def output_intensity(photon_density_m3, photon_energy_mev):
    """Radiated intensity I = N k' c [W/m^2] of a photon stream."""
    if photon_density_m3 < 0.0 or photon_energy_mev < 0.0:
        raise DomainError("photon density and energy must be >= 0")
    energy_j = photon_energy_mev * 1e6 * physcore.ELEMENTARY_CHARGE
    return photon_density_m3 * energy_j * physcore.SPEED_OF_LIGHT


@dataclass(frozen=True)
class MultiSectionResult:
    profiles: list
    photon_density_m3: float          # exact chained photon density, SI
    headline_photon_density_m3: float  # one-half-per-section estimate, SI
    intensity_w_m2: float             # from the exact density
    headline_intensity_w_m2: float    # from the one-half rule
    photon_energy_mev: float
    gain: float
    gain_length_m: float
    warnings: tuple = ()


def _forward_photon_energy_mev(beam, laser):
    kin = solve_final_state(math.pi, 1, beam, laser)
    return physcore.from_natural_energy(kin.k_prime)


_UNIT_TENSION_NOTE = (
    "density-unit tension: the one-half conversion rule holds for dense "
    "beams (n0 >> 1 per Compton volume); at the configured density the "
    "exact solution converts a fraction {frac:.3f} of the electrons")


def run_multi_section(beam: ElectronBeam, laser: LaserField, section_length_m,
                      sections, seed_m3=0.0, samples=200):
    """Chain seeded sections with fresh electrons injected (and spent ones
    removed) at every boundary; photons carry over.

    Returns both the exact chained photon density and the headline
    one-half-per-section estimate, flagging the unit tension between them.
    """
    if sections < 1:
        raise DomainError(f"section count must be >= 1, got {sections}")
    n0_si = beam.density_m3
    if n0_si <= 0.0:
        raise DomainError("multi-section run requires a positive beam density")
    a, gain_length = gain_coefficient(beam, laser)
    n0 = density_si_to_compton(n0_si)
    seed = density_si_to_compton(seed_m3)
    profiles = []
    for _ in range(sections):
        cfg = TubeConfig(length_m=section_length_m, gain=a, n0=n0, seed=seed)
        prof = evolve_seeded(cfg, samples=samples)
        profiles.append(prof)
        seed = float(prof.photon[-1])
    exact_si = density_compton_to_si(seed)
    headline_si = density_compton_to_si(density_si_to_compton(seed_m3)) \
        + 0.5 * n0_si * sections
    kp_mev = _forward_photon_energy_mev(beam, laser)
    first = profiles[0]
    converted = float(first.photon[-1] - density_si_to_compton(seed_m3)
                      if sections else 0.0)
    frac = converted / n0 if n0 > 0 else 0.0
    notes = (_UNIT_TENSION_NOTE.format(frac=frac),)
    return MultiSectionResult(
        profiles=profiles,
        photon_density_m3=exact_si,
        headline_photon_density_m3=headline_si,
        intensity_w_m2=output_intensity(exact_si, kp_mev),
        headline_intensity_w_m2=output_intensity(headline_si, kp_mev),
        photon_energy_mev=kp_mev, gain=a, gain_length_m=gain_length,
        warnings=notes)


def run_cyclic(beam: ElectronBeam, laser: LaserField, section_length_m,
               sections_per_cycle, cycles, efficiency, seed_m3=0.0,
               samples=200):
    """Cyclic intensifier: a linear chain per cycle, with the photon density
    scaled by the reflection efficiency between cycles.  seed_m3 is the
    photon density entering the first cycle.

    With efficiency 1 this equals one long chain; with efficiency 0 every
    cycle starts cold, so the output is a single pass.
    """
    if cycles < 1:
        raise DomainError(f"cycle count must be >= 1, got {cycles}")
    if not 0.0 <= efficiency <= 1.0:
        raise DomainError("reflection efficiency must lie in [0, 1]")
    result = None
    notes = []
    for c in range(cycles):
        result = run_multi_section(beam, laser, section_length_m,
                                   sections_per_cycle, seed_m3=seed_m3,
                                   samples=samples)
        if c < cycles - 1:
            seed_m3 = result.photon_density_m3 * efficiency
    lam_nm = physcore.wavelength_from_photon_energy(
        result.photon_energy_mev * 1e6)
    if not SOFT_GAMMA_MIN_NM <= lam_nm <= SOFT_GAMMA_MAX_NM:
        notes.append(
            f"emitted wavelength {lam_nm:.4g} nm is outside the "
            "Bragg-reflectable soft-gamma band (0.05-1 nm); the cyclic "
            "geometry is not realizable at this energy")
    return replace(result, warnings=result.warnings + tuple(notes))
