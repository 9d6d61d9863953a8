"""Background laser and incident electron beam configuration.

The laser is a circularly polarized plane wave propagating along +z.
Its strength enters everywhere through the dimensionless coherence
amplitude eA (in electron-mass units), derived from the wavelength and
the coherent intensity.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import physcore
from .errors import DomainError

HEAD_ON = "head_on"
CO_PROPAGATING = "co_propagating"


def coherence_amplitude(lambda_nm, intensity_w_m2):
    """Dimensionless eA of a fully coherent wave of given wavelength/intensity.

    eA = sqrt(alpha * lambda_c * lambda^2 * I / (pi * m * c^3)), in units
    of m_e; 785 nm at 1e19 W/m^2 gives 1.5e-2.
    """
    if lambda_nm <= 0.0:
        raise DomainError(f"wavelength must be > 0, got {lambda_nm} nm")
    if intensity_w_m2 < 0.0:
        raise DomainError(f"intensity must be >= 0, got {intensity_w_m2} W/m^2")
    lam = lambda_nm * 1e-9
    val = (physcore.FINE_STRUCTURE * physcore.COMPTON_WAVELENGTH_M * lam * lam
           * intensity_w_m2) / (math.pi * physcore.MC3_W_M)
    return math.sqrt(val)


@dataclass(frozen=True)
class LaserField:
    """Circularly polarized plane-wave background field along +z."""

    wavelength_nm: float
    intensity_w_m2: float
    k: float = field(init=False)        # photon energy / wave number [m_e]
    ea: float = field(init=False)       # coherence amplitude eA [m_e]

    def __post_init__(self):
        object.__setattr__(self, "k", physcore.wave_number_natural(self.wavelength_nm))
        object.__setattr__(
            self, "ea", coherence_amplitude(self.wavelength_nm, self.intensity_w_m2))
        if not (0.0 < self.k < math.inf and self.ea * self.ea < math.inf):
            raise DomainError(
                f"a {self.wavelength_nm} nm, {self.intensity_w_m2} W/m^2 wave has "
                "a photon energy or amplitude outside the floating-point range")


@dataclass(frozen=True)
class ElectronBeam:
    """Collinear electron beam (p_perp = 0) on the mass shell; the float
    fields are arrays for a beam made from an array of energies.

    ``e_minus_pz`` and ``e_plus_pz`` are stored explicitly because for
    ultrarelativistic head-on beams E + p_z underflows to roundoff noise
    if formed by subtraction.
    """

    energy: float                 # E [m_e]
    pz: float                     # p_z [m_e], negative for head-on geometry
    spin: int                     # sigma = +-1
    density_m3: float             # n_0 [1/m^3]
    direction: str
    e_minus_pz: float
    e_plus_pz: float


def make_beam(energy_mev, direction=HEAD_ON, spin=1, density_m3=0.0,
              laser: LaserField | None = None):
    """Construct an on-shell beam from its lab energy in MeV, a float or an
    array of energies.  A float gives Python floats with the same bits as
    that element of an array.

    Head-on beams move toward -z (against the laser).  When a laser is
    supplied, warns if the density exceeds one millionth of the critical
    density where inter-electron Coulomb forces rival the laser force.
    """
    if direction not in (HEAD_ON, CO_PROPAGATING):
        raise DomainError(f"unknown beam direction {direction!r}")
    if spin not in (-1, 1):
        raise DomainError(f"spin must be +1 or -1, got {spin!r}")
    if not 0.0 <= density_m3 < math.inf:      # NaN fails every bound
        raise DomainError(f"density must be finite and >= 0, got {density_m3}")
    with np.errstate(over="ignore"):
        e = np.asarray(physcore.to_natural_energy(energy_mev), dtype=float)
        below = e < 1.0
        if below.any():
            raise DomainError(
                f"beam energy {physcore.first_where(energy_mev, below)} MeV "
                "is below the electron rest mass")
        p = np.sqrt((e - 1.0) * (e + 1.0))
    overflow = p == math.inf
    if overflow.any():
        raise DomainError(
            f"beam energy {physcore.first_where(energy_mev, overflow)} MeV "
            "is outside the floating-point range")
    toward = e + p
    away = 1.0 / toward         # (E^2 - p^2)/(E + p), exact on shell
    if direction == HEAD_ON:
        pz, e_minus_pz, e_plus_pz = -p, toward, away
    else:
        pz, e_minus_pz, e_plus_pz = p, away, toward
    if laser is not None and density_m3 > 0.0 and laser.ea > 0.0:
        nc = critical_density(laser)
        if density_m3 > nc / 1e6:
            warnings.warn(
                f"beam density {density_m3:.3g}/m^3 is within 1e6 of the "
                f"critical density {nc:.3g}/m^3; space-charge effects ignored "
                "here may matter", stacklevel=2)
    if e.ndim == 0:
        e, pz, e_minus_pz, e_plus_pz = map(float, (e, pz, e_minus_pz, e_plus_pz))
    return ElectronBeam(energy=e, pz=pz, spin=spin, density_m3=density_m3,
                        direction=direction, e_minus_pz=e_minus_pz,
                        e_plus_pz=e_plus_pz)


def critical_density(laser: LaserField):
    """Density [1/m^3] above which neighbor Coulomb forces rival the laser force.

    r_c = sqrt(alpha / (eA k)) in Compton units; n_c = r_c^-3 in SI.
    """
    if laser.ea <= 0.0:
        raise DomainError("critical density is undefined for a zero-amplitude laser")
    r_c_nat = math.sqrt(physcore.FINE_STRUCTURE / (laser.ea * laser.k))
    r_c_m = r_c_nat * physcore.COMPTON_WAVELENGTH_M
    return r_c_m**-3
