"""Command-line surface: deterministic parameter sweeps and reports.

Subcommands: kinematics (forward photon energy vs beam energy), angular
(cross-section sweep over the emission angle), tube (population profile
and headline intensities), coherence (wavelength-shift diagnostics), and
limits (derived scenario quantities).  Output is CSV with '#' comment
metadata, written to --out or stdout.  Identical configurations produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import sys
import time

import numpy as np

from . import __version__, physcore
from .beamfield import (CO_PROPAGATING, HEAD_ON, ElectronBeam, LaserField,
                        critical_density, make_beam)
from .emission import angular_spectrum
from .errors import ConfigError, DomainError, QfelError
from .kinematics import (coherence_probe, coherent_intensity_from_shift,
                         emitted_photon_energy, wiggling_radius)
from .tube import (density_si_to_compton, gain_coefficient, run_cyclic,
                   run_multi_section)

_DIRECTIONS = (HEAD_ON, CO_PROPAGATING)

# Flat schema: dotted key -> (type, default, validator or None).  The
# defaults are the canonical 785 nm / 1e19 W/m^2 / 307 MeV head-on scenario.
_SCHEMA = {
    "laser.wavelength_nm": (float, 785.0, lambda v: v > 0.0),
    "laser.intensity_w_m2": (float, 1e19, lambda v: v >= 0.0),
    "beam.energy_mev": (float, 307.0, lambda v: v >= physcore.ELECTRON_MASS_MEV),
    "beam.direction": (str, HEAD_ON, lambda v: v in _DIRECTIONS),
    "beam.spin": (int, 1, lambda v: v in (-1, 1)),
    "beam.density_m3": (float, 1e18, lambda v: v >= 0.0),
    "sweep.theta_points": (int, 2000, lambda v: v >= 1),
    "sweep.energy_min_mev": (float, 100.0, lambda v: v >= physcore.ELECTRON_MASS_MEV),
    "sweep.energy_max_mev": (float, 1000.0, lambda v: v >= physcore.ELECTRON_MASS_MEV),
    "sweep.energy_points": (int, 181, lambda v: v >= 1),
    "sweep.harmonic_max": (int, 8, lambda v: v >= 1),
    "tube.section_length_m": (float, 0.01, lambda v: v >= 0.0),
    "tube.sections": (int, 1, lambda v: v >= 1),
    "tube.seed_density_m3": (float, 0.0, lambda v: v >= 0.0),
    "tube.reflection_efficiency": (float, 1.0, lambda v: 0.0 <= v <= 1.0),
    "tube.cycles": (int, 1, lambda v: v >= 1),
    "coherence.probe_energy_mev": (float, 5.135,
                                   lambda v: v >= physcore.ELECTRON_MASS_MEV),
    "coherence.probe_direction": (str, CO_PROPAGATING, lambda v: v in _DIRECTIONS),
    "coherence.theta_over_pi": (float, 1.0, lambda v: 0.0 <= v <= 1.0),
    "coherence.radiation_wavelength_nm": (float, 0.8707, lambda v: v > 0.0),
    "coherence.radiation_intensity_w_m2": (float, 1e26, lambda v: v >= 0.0),
    "coherence.measured_shift": (float, 0.0, lambda v: v >= 0.0),
    "output.path": (str, "", None),
}


def _coerce(key, raw):
    typ = _SCHEMA[key][0]
    try:
        if typ is int:
            return int(raw, 0) if isinstance(raw, str) else int(raw)
        if typ is float:
            return float(raw)
        return str(raw)
    except (TypeError, ValueError):
        raise ConfigError(f"{key}: cannot parse {raw!r} as {typ.__name__}")


def _assign(config, key, raw):
    if key not in _SCHEMA:
        raise ConfigError(f"unknown configuration key {key!r}")
    value = _coerce(key, raw)
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{key}: value {value!r} is not finite")
    check = _SCHEMA[key][2]
    if check is not None and not check(value):
        raise ConfigError(f"{key}: value {value!r} is out of range")
    config[key] = value


def parse_config(path=None, overrides=()):
    """Load a flat 'section.key = value' file, apply --set overrides, and
    return the fully validated configuration dict.

    Unknown keys are hard errors.  An absent path or empty file yields
    the default scenario.
    """
    config = {key: entry[1] for key, entry in _SCHEMA.items()}
    if path:
        if not os.path.exists(path):
            raise ConfigError(f"configuration file not found: {path}")
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                stripped = line.strip()
                if not stripped or stripped.startswith(("#", ";")):
                    continue
                if "=" not in stripped:
                    raise ConfigError(
                        f"{path}:{lineno}: expected 'section.key = value'")
                key, _, raw = stripped.partition("=")
                _assign(config, key.strip(), raw.strip())
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects section.key=value, got {item!r}")
        key, _, raw = item.partition("=")
        _assign(config, key.strip(), raw.strip())
    if config["sweep.energy_min_mev"] > config["sweep.energy_max_mev"]:
        raise ConfigError("sweep.energy_min_mev exceeds sweep.energy_max_mev")
    return config


def _fmt(x):
    """12-significant-digit scientific notation used in every CSV cell."""
    return f"{float(x):.11e}"


def _rows(columns, prefix=""):
    """CSV rows of equal-length numeric columns, each cell as ``_fmt``
    writes it: one '%' format per row over the columns' ``tolist``."""
    columns = [np.asarray(c, dtype=float) for c in columns]
    if not all(np.isfinite(c).all() for c in columns):
        raise DomainError("a CSV cell is outside the floating-point range")
    fmt = prefix + ",".join(["%.11e"] * len(columns))
    return [fmt % row for row in zip(*(c.tolist() for c in columns))]


def _headlines(*items):
    """'# headline: label = value' lines for (label, value) pairs."""
    for label, value in items:
        if not math.isfinite(value):
            raise DomainError(f"{label} is outside the floating-point range")
    return [f"# headline: {label} = {_fmt(value)}" for label, value in items]


def _echo_lines(config):
    lines = []
    for key in sorted(config):
        value = config[key]
        text = _fmt(value) if isinstance(value, float) else str(value)
        lines.append(f"{key} = {text}")
    return lines


def _header(command, config):
    echo = _echo_lines(config)
    digest = hashlib.sha256("\n".join(echo).encode("utf-8")).hexdigest()
    lines = [f"# qfel {__version__} {command}",
             f"# config sha256 {digest}"]
    lines.extend(f"# {line}" for line in echo)
    return lines


def _laser(config):
    return LaserField(wavelength_nm=config["laser.wavelength_nm"],
                      intensity_w_m2=config["laser.intensity_w_m2"])


def _beam(config, laser=None, energy_mev=None):
    return make_beam(
        energy_mev if energy_mev is not None else config["beam.energy_mev"],
        direction=config["beam.direction"], spin=config["beam.spin"],
        density_m3=config["beam.density_m3"], laser=laser)


def cmd_kinematics(config):
    """Forward first-harmonic photon energy over the beam-energy sweep."""
    laser = _laser(config)
    energies = np.linspace(config["sweep.energy_min_mev"],
                           config["sweep.energy_max_mev"],
                           config["sweep.energy_points"])
    kp_mev = [physcore.from_natural_energy(emitted_photon_energy(
        math.pi, 1, _beam(config, energy_mev=e_mev), laser))
        for e_mev in energies.tolist()]
    lines = _header("kinematics", config)
    lines.append("# columns: energy_mev,k_prime_mev")
    lines.extend(_rows((energies, kp_mev)))
    return "\n".join(lines) + "\n"


def cmd_angular(config):
    """Angular sweep of the averaged cross section and channel polarization."""
    laser = _laser(config)
    spec = angular_spectrum(
        _beam(config, laser=laser), laser,
        np.linspace(0.0, math.pi, config["sweep.theta_points"]),
        harmonic_max=config["sweep.harmonic_max"])
    columns = (spec.thetas / math.pi,
               physcore.from_natural_energy(spec.k_prime), 1e6 * spec.averaged,
               spec.polarization_x.real, spec.polarization_x.imag,
               spec.polarization_y.real, spec.polarization_y.imag)
    lines = _header("angular", config)
    lines.append("# columns: theta_over_pi,k_prime_mev,y_avg_xsec_times_1e6,"
                 "pol_x_re,pol_x_im,pol_y_re,pol_y_im")
    lines.extend(_rows(columns))
    return "\n".join(lines) + "\n"


def cmd_tube(config):
    """Tube population profile plus headline densities and intensities."""
    laser = _laser(config)
    beam = _beam(config, laser=laser)
    length = config["tube.section_length_m"]
    sections = config["tube.sections"]
    cycles = config["tube.cycles"]
    seed_m3 = config["tube.seed_density_m3"]
    if cycles > 1:
        result = run_cyclic(beam, laser, length, sections, cycles,
                            config["tube.reflection_efficiency"],
                            seed_m3=seed_m3)
    else:
        result = run_multi_section(beam, laser, length, sections,
                                   seed_m3=seed_m3)
    lines = _header("tube", config) + _headlines(
        ("forward photon energy [MeV]", result.photon_energy_mev),
        ("gain coefficient a", result.gain),
        ("gain length lambda_c/a [m]", result.gain_length_m),
        ("asymptotic photon density [per Compton volume]",
         result.profiles[0].asymptote),
        ("photon density, exact chain [1/m^3]", result.photon_density_m3),
        ("photon density, one-half rule [1/m^3]",
         result.headline_photon_density_m3),
        ("output intensity, exact chain [W/m^2]", result.intensity_w_m2),
        ("output intensity, one-half rule [W/m^2]",
         result.headline_intensity_w_m2))
    for note in result.warnings:
        lines.append(f"# warning: {note}")
    lines.append("# columns: section,l_m,n_compton,n_prime_compton,"
                 "photon_compton,n_m3,photon_m3")
    vol = density_si_to_compton(1.0)
    for s, prof in enumerate(result.profiles, start=1):
        lines.extend(_rows((prof.l_m, prof.n, prof.n_prime, prof.photon,
                            prof.n / vol, prof.photon / vol), prefix=f"{s},"))
    return "\n".join(lines) + "\n"


def cmd_coherence(config):
    """Wavelength-shift diagnostics of a probe beam in a radiation field."""
    theta = config["coherence.theta_over_pi"] * math.pi
    beam = make_beam(config["coherence.probe_energy_mev"],
                     direction=config["coherence.probe_direction"])
    radiation = LaserField(
        wavelength_nm=config["coherence.radiation_wavelength_nm"],
        intensity_w_m2=config["coherence.radiation_intensity_w_m2"])
    probe = coherence_probe(theta, beam, radiation)
    lines = _header("coherence", config) + _headlines(
        ("emission wavelength, zero amplitude [nm]", probe.lambda0_nm),
        ("emission wavelength, shifted [nm]", probe.lambda_nm),
        ("fractional wavelength shift", probe.shift))
    measured = config["coherence.measured_shift"]
    if measured > 0.0:
        inferred = coherent_intensity_from_shift(
            measured, theta, beam, config["coherence.radiation_wavelength_nm"])
        lines += _headlines(("inferred coherent intensity [W/m^2]", inferred))
        if radiation.intensity_w_m2 > 0.0:
            lines += _headlines(("inferred coherent fraction",
                                 inferred / radiation.intensity_w_m2))
    return "\n".join(lines) + "\n"


def cmd_limits(config):
    """Derived scenario quantities: eA, critical density, gain length, R."""
    laser = _laser(config)
    beam = _beam(config, laser=laser)
    a, gain_length = gain_coefficient(beam, laser)
    lines = _header("limits", config) + _headlines(
        ("coherence amplitude eA", laser.ea),
        ("laser photon energy [m_e]", laser.k),
        ("critical density [1/m^3]", critical_density(laser)),
        ("gain coefficient a", a),
        ("gain length lambda_c/a [m]", gain_length),
        ("wiggling radius R", wiggling_radius(beam, laser)))
    return "\n".join(lines) + "\n"


_COMMANDS = {
    "kinematics": cmd_kinematics,
    "angular": cmd_angular,
    "tube": cmd_tube,
    "coherence": cmd_coherence,
    "limits": cmd_limits,
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="qfel",
        description="Gamma emission from electrons wiggling in a laser.")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", metavar="PATH",
                        help="flat 'section.key = value' configuration file")
    parser.add_argument("--set", action="append", default=[],
                        metavar="SECTION.KEY=VALUE", dest="overrides",
                        help="override one configuration value (repeatable)")
    parser.add_argument("--out", metavar="PATH",
                        help="write output to PATH instead of stdout")
    parser.add_argument("--threads", type=int, default=1,
                        help="accepted for compatibility; sweeps run in one "
                             "thread whatever the value (must be >= 1)")
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    start = time.perf_counter()
    try:
        config = parse_config(args.config, args.overrides)
        if args.threads < 1:
            raise ConfigError(f"--threads must be >= 1, got {args.threads}")
        # a result beyond the float range ends in the DomainError of the
        # output check, never in a numpy warning
        with np.errstate(all="ignore"):
            text = _COMMANDS[args.command](config)
    except ConfigError as exc:
        print(f"qfel: config error: {exc}", file=sys.stderr)
        return 2
    except QfelError as exc:
        print(f"qfel: error: {exc}", file=sys.stderr)
        return 3
    out_path = args.out or config["output.path"]
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    elapsed = time.perf_counter() - start
    print(f"# qfel {args.command}: wall time {elapsed:.3f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
