"""Unit tests for the laser field and electron beam configuration."""

import math
import warnings

import numpy as np
import pytest

from qfel import physcore
from qfel.beamfield import (CO_PROPAGATING, HEAD_ON, LaserField,
                            coherence_amplitude, critical_density, make_beam)
from qfel.errors import DomainError


class TestCoherenceAmplitude:
    def test_canonical_scenario(self):
        # 785 nm at 1e19 W/m^2 gives eA = 1.5e-2
        assert coherence_amplitude(785.0, 1e19) == pytest.approx(
            1.5e-2, rel=1e-2)

    def test_soft_gamma_scenario(self):
        # 0.8707 nm at 1e26 W/m^2
        assert coherence_amplitude(0.8707, 1e26) == pytest.approx(
            5.26e-2, rel=1e-2)

    def test_scaling_laws(self):
        base = coherence_amplitude(785.0, 1e19)
        # eA scales linearly with wavelength and as sqrt(intensity)
        assert coherence_amplitude(1570.0, 1e19) == pytest.approx(
            2.0 * base, rel=1e-12)
        assert coherence_amplitude(785.0, 4e19) == pytest.approx(
            2.0 * base, rel=1e-12)

    def test_zero_intensity(self):
        assert coherence_amplitude(785.0, 0.0) == 0.0

    def test_invalid_inputs(self):
        with pytest.raises(DomainError):
            coherence_amplitude(-1.0, 1e19)
        with pytest.raises(DomainError):
            coherence_amplitude(785.0, -1.0)


class TestLaserField:
    def test_derived_fields(self):
        laser = LaserField(785.0, 1e19)
        assert laser.k == pytest.approx(
            physcore.wave_number_natural(785.0), rel=1e-14)
        assert laser.ea == pytest.approx(
            coherence_amplitude(785.0, 1e19), rel=1e-14)

    def test_out_of_float_range_rejected(self):
        # k overflows, k underflows to 0, eA^2 overflows
        for wavelength_nm, intensity in ((1e-310, 1e19), (1e300, 0.0),
                                         (1e160, 1e19)):
            with pytest.raises(DomainError):
                LaserField(wavelength_nm, intensity)


class TestMakeBeam:
    def test_on_shell(self):
        for e_mev in (0.511, 5.135, 7.68, 307.0):
            for direction in (HEAD_ON, CO_PROPAGATING):
                beam = make_beam(e_mev, direction=direction)
                assert beam.energy ** 2 - beam.pz ** 2 == pytest.approx(
                    1.0, rel=1e-9)
                # stored light-cone combinations are exact on shell
                assert beam.e_minus_pz * beam.e_plus_pz == pytest.approx(
                    1.0, rel=1e-14)

    def test_head_on_moves_backward(self):
        beam = make_beam(307.0, direction=HEAD_ON)
        assert beam.pz < 0.0
        assert beam.e_minus_pz > beam.energy

    def test_co_propagating_moves_forward(self):
        beam = make_beam(5.135, direction=CO_PROPAGATING)
        assert beam.pz > 0.0

    def test_light_cone_precision(self):
        # E + p_z of a 307 MeV head-on beam is ~7e-4; direct subtraction
        # would keep only half the digits
        beam = make_beam(307.0)
        gamma = physcore.to_natural_energy(307.0)
        want = 1.0 / (gamma + math.sqrt(gamma * gamma - 1.0))
        assert beam.e_plus_pz == pytest.approx(want, rel=1e-14)

    def test_validation(self):
        with pytest.raises(DomainError):
            make_beam(307.0, direction="sideways")
        with pytest.raises(DomainError):
            make_beam(307.0, spin=0)
        with pytest.raises(DomainError):
            make_beam(307.0, density_m3=-1.0)
        with pytest.raises(DomainError):
            make_beam(0.1)
        with pytest.raises(DomainError):
            make_beam(1e160)      # p = sqrt(E^2 - 1) overflows

    @pytest.mark.parametrize("direction", (HEAD_ON, CO_PROPAGATING))
    def test_array_equals_scalar_calls(self, direction):
        energies = np.concatenate(([physcore.ELECTRON_MASS_MEV, 0.511, 307.0],
                                   np.geomspace(0.52, 1e11, 61)))
        beam = make_beam(energies, direction=direction, spin=-1)
        for i, e_mev in enumerate(energies.tolist()):
            one = make_beam(e_mev, direction=direction, spin=-1)
            for name in ("energy", "pz", "e_minus_pz", "e_plus_pz"):
                value = getattr(one, name)
                assert type(value) is float
                assert (np.float64(value).tobytes()
                        == getattr(beam, name)[i].tobytes())

    def test_array_errors_name_the_first_bad_energy(self):
        with pytest.raises(DomainError, match="beam energy 0.1 MeV is below"):
            make_beam(np.array([307.0, 0.1, 0.2]))
        with pytest.raises(DomainError,
                           match="beam energy 1e[+]160 MeV is outside"):
            make_beam(np.array([307.0, 1e160, 1e200]))
        with pytest.raises(DomainError, match="got -1.0 MeV"):
            physcore.to_natural_energy(np.array([1.0, -1.0]))

    def test_nan_energy_and_density_rejected(self):
        # NaN fails every bound, so it is named here rather than surfacing
        # later as an out-of-range Bessel argument
        nan = float("nan")
        for energy in (nan, np.array([307.0, nan, 0.1])):
            with pytest.raises(DomainError, match="energy must be >= 0, got nan"):
                make_beam(energy)
        for energy in (307.0, np.array([307.0, 500.0])):
            for density in (nan, math.inf, -1.0):
                with pytest.raises(DomainError,
                                   match="density must be finite and >= 0"):
                    make_beam(energy, density_m3=density)

    def test_density_warning(self):
        laser = LaserField(785.0, 1e19)
        nc = critical_density(laser)
        with pytest.warns(UserWarning):
            make_beam(307.0, density_m3=nc / 10.0, laser=laser)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            make_beam(307.0, density_m3=1e18, laser=laser)


class TestCriticalDensity:
    def test_canonical_window(self):
        laser = LaserField(785.0, 1e19)
        nc = critical_density(laser)
        assert 3e28 <= nc <= 3e29

    def test_zero_amplitude_rejected(self):
        with pytest.raises(DomainError):
            critical_density(LaserField(785.0, 0.0))

    def test_scaling(self):
        # n_c = (eA k / alpha)^{3/2} per Compton volume grows with intensity
        low = critical_density(LaserField(785.0, 1e17))
        high = critical_density(LaserField(785.0, 1e19))
        assert high == pytest.approx(low * 10.0 ** 1.5, rel=1e-9)
