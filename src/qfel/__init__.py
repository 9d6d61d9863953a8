"""Gamma-photon emission from relativistic electrons wiggling in an
intense circularly polarized laser: kinematics, the spin-averaged cross
section and photon polarization, tube gain dynamics, and coherence
diagnostics."""

__version__ = "0.1.0"

from .beamfield import (CO_PROPAGATING, HEAD_ON, ElectronBeam, LaserField,
                        coherence_amplitude, critical_density, make_beam)
from .emission import (AngularSpectrum, CrossSectionPoint, angular_spectrum,
                       averaged_cross_section)
from .errors import (ClosedChannelError, ConfigError, DomainError,
                     NumericError, QfelError)
from .kinematics import (CoherenceProbe, EmissionKinematics, coherence_probe,
                         coherent_intensity_from_shift, compton_energy,
                         solve_final_state, wavelength_shift, wiggling_radius)
from .amplitudes import (HarmonicVectors, PolarizationBasis, harmonic_vectors,
                         outgoing_polarization, polarization_basis)
from .tube import (MultiSectionResult, TubeConfig, TubeProfile,
                   evolve_seeded, gain_coefficient, output_intensity,
                   run_multi_section)

__all__ = [name for name in dir() if not name.startswith("_")]
