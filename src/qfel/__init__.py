"""Gamma-photon emission from relativistic electrons wiggling in an
intense circularly polarized laser: kinematics, polarized cross
sections, tube gain dynamics, and coherence diagnostics."""

__version__ = "0.1.0"

from .beamfield import (CO_PROPAGATING, HEAD_ON, ElectronBeam, LaserField,
                        coherence_amplitude, critical_density, make_beam)
from .emission import (AngularSpectrum, CrossSectionPoint, angular_spectrum,
                       averaged_cross_section, diff_cross_section,
                       klein_nishina_reference, transition_rate_density)
from .errors import (ClosedChannelError, ConfigError, DomainError,
                     NumericError, QfelError)
from .kinematics import (CoherenceProbe, EmissionKinematics, coherence_probe,
                         coherent_intensity_from_shift, compton_energy,
                         emitted_photon_energy, solve_final_state,
                         wavelength_shift, wiggling_radius)
from .amplitudes import (HarmonicVectors, PolarizationBasis,
                         channel_polarization, fg_coefficients,
                         harmonic_vectors, outgoing_polarization,
                         polarization_basis)
from .tube import (MultiSectionResult, TubeConfig, TubeProfile,
                   evolve_seeded, gain_coefficient, output_intensity,
                   run_cyclic, run_multi_section)

__all__ = [name for name in dir() if not name.startswith("_")]
