"""Population dynamics in the active tube.

The emission/reabsorption balance couples the initial-electron density
n(l), the final-electron density n'(l), and the photon density N(l):

    lambda_c dn/dl = a [2 n^2 - (2 N0 + 3 n0 + 1) n + n0 (n0 + N0)]

with the position-independent gain coefficient a, the forward spin-averaged
cross section in closed form.  Densities are dimensionless inside this
module (particles per Compton volume); SI m^-3 only at the boundary.

Caveat carried through every report: realistic beam densities of order
1e18 m^-3 are ~1e-19 per Compton volume, where the exact solution
converts nearly every electron, while the source estimates apply a
one-half conversion rule derived from the dense regime.  Both numbers
are reported; headline intensities use the one-half rule.

``run_multi_section`` is the one tube runner: a chain of pumped sections,
repeated per cycle of a cyclic intensifier whose reflectors feed a
fraction of the output back as the next cycle's seed.  One closed form,
``_densities``, serves both the chain, which steps one float (the photon
density at a section's end) per section and cycle, and the sampled
profiles, which ``evolve_seeded`` builds for the last cycle only, as one
(sections, samples) block over the column of its section seeds.  The
closed form adds and divides non-negative terms only, so the photons a
section adds, n0 - n, are never negative and never cancel: a section ends
at or above its seed, exactly at it for zero length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import physcore
from .beamfield import ElectronBeam, LaserField
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
    """One tube section in dimensionless (Compton-volume) densities; the
    seed may be a 1-D array, one section per seed."""

    length_m: float
    gain: float                  # a, dimensionless
    n0: float                    # initial electron density
    seed: float = 0.0            # photon density entering the section

    def __post_init__(self):
        # written so that NaN fails every bound
        seed = np.asarray(self.seed, dtype=float)
        bad_seed = ~((seed >= 0.0) & (seed < math.inf))
        for name, inside in (
                ("length_m", 0.0 <= self.length_m < math.inf),
                ("gain", 0.0 < self.gain < math.inf),
                ("n0", 0.0 <= self.n0 < math.inf),
                ("seed", not bad_seed.any())):
            if not inside:
                bound = "> 0" if name == "gain" else ">= 0"
                got = physcore.first_where(self.seed, bad_seed) \
                    if name == "seed" else getattr(self, name)
                raise DomainError(f"{name} must be finite and {bound}, "
                                  f"got {got}")


@dataclass(frozen=True)
class TubeProfile:
    """Sampled (l, n, n', N) profile along one section plus its asymptote;
    n, n', N and the asymptote gain a leading axis of sections when the
    profile holds one row per seed."""

    l_m: np.ndarray
    n: np.ndarray
    n_prime: np.ndarray
    photon: np.ndarray
    asymptote: float | np.ndarray   # N as l -> infinity, one per seed row


def gain_coefficient(beam: ElectronBeam, laser: LaserField):
    """Gain coefficient a, the sum of ``emission`` at theta = pi exactly, and
    the gain length lambda_c / a [m].  There S = 1 and C = 0, so s = 1,
    s' = 0, w = 0 and D = (1 + xi^2)/d0; as J_n(0) = 0 for n != 0, harmonic
    1 alone adds, with P = M = 1 and (s' - s)^2 = 1 - w^2 = 1.  So with the
    sum's pref and u = 2 k/D, a = pref/(1 + u)^2 (2 + u^2/(1 + u))/2, in the
    sum's order of roundings; squares are products, as float ** raises."""
    if beam.pz == 0.0:
        raise DomainError("the cross section per unit flux is undefined for a "
                          "beam at rest")
    xi2, d0, k = laser.ea * laser.ea, beam.e_minus_pz, laser.k
    big_d = (1.0 + xi2) / d0
    pref = (physcore.FINE_STRUCTURE * xi2 * k * d0
            / (4.0 * math.pi * abs(beam.pz) * big_d * big_d))
    u = 2.0 * k / big_d
    a = 0.5 * (pref / ((1.0 + u) * (1.0 + u)) * (2.0 + u * u / (1.0 + u)))
    if not 0.0 < a < math.inf:
        raise NumericError("forward cross section vanished; no gain" if a == 0.0
                           else f"the forward cross section {a} is not finite")
    return a, physcore.COMPTON_WAVELENGTH_M / a


def _densities(n0, seed, gain, l):
    """Closed form of the seeded balance equation: (n, n', N) at distance
    l into a section entered by photon density seed, and the photon
    density as l -> infinity.  seed and l are floats or arrays that
    broadcast against each other; the caller sets the numpy error state.

    n falls from n0 towards the lower root lo of 2n^2 - b n + c; the upper
    root is hi = lo + d/2, and u = (n - lo)/(n - hi) decays as
    E = exp(-a d l / lambda_c).  The discriminant is scaled by b^2, which
    overflows for dense beams; b^2 - 8c = (2 seed + n0)^2 + 4 seed + 6 n0
    + 1 keeps the scaled value above 1/9.  lo comes from the root product
    c/2, since (b - d)/4 cancels when c << b^2.  Every term below is
    non-negative: with r = (n0 + 1 + d)/(b + d) in (0, 1], n0 sits
    A = n0 - lo = n0 r above lo and B = hi - n0 = (seed + 1)/(2r) below hi,
    and with q = A E / B, n' = A (1 - E)/(1 + q) and
    n = lo + (d/2) q/(1 + q) take no difference of densities.  A is a
    factor, never a divisor, so n0 = 0 and a subnormal n0 need no branch."""
    b = 2.0 * seed + 3.0 * n0 + 1.0
    ratio = (n0 + seed) / b
    root = np.sqrt(1.0 - 8.0 * (n0 / b) * ratio)
    d = b * root
    lo = 2.0 * n0 * ratio / (1.0 + root)
    r = (n0 + 1.0 + d) / (b + d)
    above = n0 * r
    x = -gain * d / physcore.COMPTON_WAVELENGTH_M * l      # ln E
    q = 2.0 * above * r / (seed + 1.0) * np.exp(x)
    n_prime = -np.expm1(x) * above / (1.0 + q)
    n = lo + 0.5 * d * (q / (1.0 + q))
    return n, n_prime, seed + n_prime, seed + above


def evolve_seeded(config: TubeConfig, samples=200):
    """Closed-form solution of the seeded balance equation over one section,
    with one profile row per seed when ``config.seed`` is an array."""
    ls = np.linspace(0.0, config.length_m, max(int(samples), 2))
    seed = np.asarray(config.seed, dtype=float)[..., None]
    with np.errstate(all="ignore"):
        n, n_prime, photon, asymptote = _densities(config.n0, seed,
                                                   config.gain, ls)
    return TubeProfile(l_m=ls, n=n, n_prime=n_prime, photon=photon,
                       asymptote=asymptote[..., 0][()])  # a float for one seed


def output_intensity(photon_density_m3, photon_energy_mev):
    """Radiated intensity I = N k' c [W/m^2] of a photon stream."""
    if photon_density_m3 < 0.0 or photon_energy_mev < 0.0:
        raise DomainError("photon density and energy must be >= 0")
    energy_j = photon_energy_mev * 1e6 * physcore.ELEMENTARY_CHARGE
    return photon_density_m3 * energy_j * physcore.SPEED_OF_LIGHT


@dataclass(frozen=True)
class MultiSectionResult:
    profile: TubeProfile              # last cycle, one row per section
    photon_density_m3: float          # exact chained photon density, SI
    headline_photon_density_m3: float  # one-half-per-section estimate, SI
    intensity_w_m2: float             # from the exact density
    headline_intensity_w_m2: float    # from the one-half rule
    photon_energy_mev: float
    gain: float
    gain_length_m: float
    warnings: tuple = ()


_UNIT_TENSION_NOTE = (
    "density-unit tension: the one-half conversion rule holds for dense "
    "beams (n0 >> 1 per Compton volume); at the configured density the "
    "exact solution converts a fraction {frac:.3f} of the electrons")


def run_multi_section(beam: ElectronBeam, laser: LaserField, section_length_m,
                      sections, seed_m3=0.0, cycles=1, efficiency=1.0):
    """Chain seeded sections with fresh electrons injected (and spent ones
    removed) at every boundary; photons carry over.  A cyclic intensifier
    runs the chain ``cycles`` times: seed_m3 enters the first cycle, and
    each later cycle starts from the previous output scaled by the
    reflection ``efficiency`` (1 gives one long chain, 0 a single pass).

    The chain carries one float per section, the photon density at the
    section's end; only the last cycle's profiles are sampled, as one
    block with a row per section.  Returns both the exact chained photon
    density and the headline one-half-per-section estimate of the last
    cycle, flagging the unit tension between them.
    """
    if sections < 1:
        raise DomainError(f"section count must be >= 1, got {sections}")
    if cycles < 1:
        raise DomainError(f"cycle count must be >= 1, got {cycles}")
    if not 0.0 <= efficiency <= 1.0:
        raise DomainError("reflection efficiency must lie in [0, 1]")
    if not beam.density_m3 > 0.0:
        raise DomainError("multi-section run requires a positive beam density")
    a, gain_length = gain_coefficient(beam, laser)
    kp_mev = physcore.from_natural_energy(
        solve_final_state(math.pi, 1, beam, laser).k_prime)
    n0_si = beam.density_m3
    n0 = density_si_to_compton(n0_si)
    section = TubeConfig(length_m=section_length_m, gain=a, n0=n0,
                         seed=density_si_to_compton(seed_m3))
    with np.errstate(all="ignore"):
        for _ in range(cycles):
            seed = first_seed = density_si_to_compton(seed_m3)
            seeds = []
            for _ in range(sections):
                seeds.append(seed)
                seed = float(_densities(n0, seed, a, section_length_m)[2])
            exact_si = density_compton_to_si(seed)
            seed_m3 = exact_si * efficiency
    profile = evolve_seeded(replace(section, seed=np.array(seeds)))
    headline_si = density_compton_to_si(first_seed) + 0.5 * n0_si * sections
    converted = float(profile.photon[0, -1] - first_seed)
    notes = [_UNIT_TENSION_NOTE.format(frac=converted / n0 if n0 > 0 else 0.0)]
    if cycles > 1:
        lam_nm = physcore.wavelength_from_photon_energy(kp_mev * 1e6)
        if not SOFT_GAMMA_MIN_NM <= lam_nm <= SOFT_GAMMA_MAX_NM:
            notes.append(
                f"emitted wavelength {lam_nm:.4g} nm is outside the "
                "Bragg-reflectable soft-gamma band (0.05-1 nm); the cyclic "
                "geometry is not realizable at this energy")
    return MultiSectionResult(
        profile=profile,
        photon_density_m3=exact_si,
        headline_photon_density_m3=headline_si,
        intensity_w_m2=output_intensity(exact_si, kp_mev),
        headline_intensity_w_m2=output_intensity(headline_si, kp_mev),
        photon_energy_mev=kp_mev, gain=a, gain_length_m=gain_length,
        warnings=tuple(notes))
