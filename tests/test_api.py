"""The public surface of the package: a name or field leaves it only by
an edit to this list."""

import dataclasses

import qfel


def test_public_names():
    assert sorted(qfel.__all__) == [
        "AngularSpectrum", "CO_PROPAGATING", "ClosedChannelError",
        "CoherenceProbe", "ConfigError", "CrossSectionPoint", "DomainError",
        "ElectronBeam", "EmissionKinematics", "HEAD_ON", "HarmonicVectors",
        "LaserField", "MultiSectionResult", "NumericError",
        "PolarizationBasis", "QfelError", "TubeConfig", "TubeProfile",
        "amplitudes", "angular_spectrum", "averaged_cross_section",
        "beamfield", "coherence_amplitude",
        "coherence_probe", "coherent_intensity_from_shift", "compton_energy",
        "critical_density", "emission", "errors",
        "evolve_seeded", "gain_coefficient",
        "harmonic_vectors", "kinematics", "make_beam", "outgoing_polarization",
        "output_intensity", "physcore", "polarization_basis",
        "run_multi_section", "solve_final_state", "tube",
        "wavelength_shift", "wiggling_radius"]


def test_result_fields():
    fields = {cls.__name__: [f.name for f in dataclasses.fields(cls)]
              for cls in (qfel.CrossSectionPoint, qfel.EmissionKinematics,
                          qfel.MultiSectionResult, qfel.TubeProfile)}
    assert fields == {
        "CrossSectionPoint": ["harmonic", "value"],
        "EmissionKinematics": ["theta", "harmonic", "k_prime", "e_prime",
                               "pz_prime", "p_perp_prime", "e_minus_pz_prime",
                               "e_plus_pz_prime", "radius_prime"],
        "MultiSectionResult": ["profile", "photon_density_m3",
                               "headline_photon_density_m3", "intensity_w_m2",
                               "headline_intensity_w_m2", "photon_energy_mev",
                               "gain", "gain_length_m", "warnings"],
        "TubeProfile": ["l_m", "n", "n_prime", "photon", "asymptote"]}
