"""Command-line surface: deterministic parameter sweeps and reports.

Subcommands: kinematics (forward photon energy vs beam energy), angular
(cross-section sweep over the emission angle), tube (population profile
and headline intensities), coherence (wavelength-shift diagnostics), and
limits (derived scenario quantities).  Output is CSV with '#' comment
metadata, written to --out or stdout.  ``_parse_args`` reads a
well-formed command line (one subcommand, each option spelled in full)
in one pass; help, abbreviations and malformed lines go to argparse,
which is imported only then.  Each ``cmd_*`` returns its body
lines as bytes, and ``main`` writes the same header before every one:
version and subcommand, config sha256, and the config echo.  One numpy
kernel, ``_rows``, writes every CSV cell; of a run of equal tube profile
rows it writes only the first.  Lines stay bytes up to the file (stdout
decodes once), and equal configurations give byte-identical output.
"""

from __future__ import annotations

import functools
import hashlib
import math
import os
import stat
import sys
import time

import numpy as np

from . import __version__, physcore
from .beamfield import (CO_PROPAGATING, HEAD_ON, ElectronBeam, LaserField,
                        critical_density, make_beam)
from .emission import DEFAULT_HARMONIC_MAX, angular_spectrum
from .errors import ConfigError, DomainError, QfelError
from .kinematics import (coherence_probe, coherent_intensity_from_shift,
                         solve_final_state, wiggling_radius)
from .tube import density_compton_to_si, gain_coefficient, run_multi_section

_DIRECTIONS = (HEAD_ON, CO_PROPAGATING)
_MAX_POINTS = 2**40     # sweep points: one float64 column of more fits no host
# tube.sections x tube.cycles float steps of the chain: 2.0-2.4 us each
# (2-CPU host), so the bound is about 35-40 s
_MAX_TUBE_STEPS = 2**24
_MAX_TUBE_SECTIONS = 2**13  # profile rows: 50-85 kB of peak RSS each, 0.7 GB


def _path_ok(path):
    """Whether the header can echo a path and the OS can take it: no NUL,
    and no surrogate that surrogateescape cannot turn back into a byte."""
    try:
        return b"\0" not in path.encode("utf-8", "surrogateescape")
    except UnicodeEncodeError:
        return False


# Flat schema: dotted key -> (type, default, validator).  The
# defaults are the canonical 785 nm / 1e19 W/m^2 / 307 MeV head-on scenario.
_SCHEMA = {
    "laser.wavelength_nm": (float, 785.0, lambda v: v > 0.0),
    "laser.intensity_w_m2": (float, 1e19, lambda v: v >= 0.0),
    "beam.energy_mev": (float, 307.0, lambda v: v >= physcore.ELECTRON_MASS_MEV),
    "beam.direction": (str, HEAD_ON, lambda v: v in _DIRECTIONS),
    "beam.spin": (int, 1, lambda v: v in (-1, 1)),
    "beam.density_m3": (float, 1e18, lambda v: v >= 0.0),
    "sweep.theta_points": (int, 2000, lambda v: 1 <= v <= _MAX_POINTS),
    "sweep.energy_min_mev": (float, 100.0, lambda v: v >= physcore.ELECTRON_MASS_MEV),
    "sweep.energy_max_mev": (float, 1000.0, lambda v: v >= physcore.ELECTRON_MASS_MEV),
    "sweep.energy_points": (int, 181, lambda v: 1 <= v <= _MAX_POINTS),
    "sweep.harmonic_max": (int, DEFAULT_HARMONIC_MAX, lambda v: v >= 1),
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
    "output.path": (str, "", _path_ok),
}


def _coerce(key, raw):
    typ = _SCHEMA[key][0]
    try:
        return int(raw, 0) if typ is int else typ(raw)
    except ValueError:
        raise ConfigError(f"{key}: cannot parse {raw!r} as {typ.__name__}")


def _assign(config, key, raw):
    if key not in _SCHEMA:
        raise ConfigError(f"unknown configuration key {key!r}")
    value = _coerce(key, raw)
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{key}: value {value!r} is not finite")
    if not _SCHEMA[key][2](value):
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
        try:
            with open(path, encoding="utf-8") as fh:
                lines = list(fh)
        except (OSError, ValueError) as exc:     # ValueError: NUL, decoding
            raise ConfigError(f"cannot read configuration file {path}: {exc}")
        for lineno, line in enumerate(lines, start=1):
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
    if config["tube.sections"] * config["tube.cycles"] > _MAX_TUBE_STEPS:
        raise ConfigError(f"tube.sections x tube.cycles exceeds "
                          f"{_MAX_TUBE_STEPS} chain steps")
    if config["tube.sections"] > _MAX_TUBE_SECTIONS:
        raise ConfigError(f"tube.sections exceeds {_MAX_TUBE_SECTIONS}")
    return config


def _fmt(x):
    """12-significant-digit scientific notation used in every CSV cell."""
    return f"{float(x):.11e}"


# '%.11e' over a whole table.  A cell |x| = m 10^(e - 11) is written from
# its 12-digit integer mantissa m and decimal exponent e as five
# little-endian 32-bit words of lookup tables: [sign d0 '.' d1]
# [d2..d5] [d6..d9] [d10 d11 'e' exponent-sign] [e2 e1 e0 separator].  A
# 0 byte marks the absent sign and the absent third exponent digit;
# each pass drops them with one bytes.translate.
def _words(shape, *columns):
    """uint32 table over an index grid of the given shape whose four
    little-endian bytes are the columns, each broadcast against the grid."""
    table = np.empty(shape + (4,), dtype=np.uint8)
    for byte, column in enumerate(columns):
        table[..., byte] = column
    return table.view("<u4").ravel()


def _chars(text):
    return np.frombuffer(text.encode("ascii"), dtype=np.uint8)


_DIGIT = _chars("0123456789")
_LEAD = _words((2, 10, 10), _chars("\x00-")[:, None, None], _DIGIT[:, None],
               ord("."), _DIGIT)                 # [100 sign + d0 d1]
_QUAD = _words((10, 10, 10, 10), _DIGIT[:, None, None, None],
               _DIGIT[:, None, None], _DIGIT[:, None], _DIGIT)   # [d d d d]
_TAIL = _words((2, 10, 10), _DIGIT[:, None], _DIGIT, ord("e"),
               _chars("+-")[:, None, None])      # [100 (e < 0) + d10 d11]
_EXP = _words((10, 10, 10), _chars("\x00123456789")[:, None, None],
              _DIGIT[:, None], _DIGIT, ord(","))  # [|e|], no leading 0
_NEWLINE = (ord(",") ^ ord("\n")) << 24        # turns a ',' into a newline
_POW10 = np.array([float(f"1e{k}") for k in range(-300, 308)])   # [k + 300]
_DECIDED = (1e-290, 1e290)      # |x| range the scaling decides
_TIE_WINDOW = 1e-3              # nearer .5 than this, '%.11e' decides
_BLOCK_CELLS = 6144             # cells per kernel pass; bounds its memory


def _mantissas(a):
    """Integer mantissas m in [1e11, 1e12) and exponents e with a rounded
    to 12 significant digits equal to m 10^(e - 11), for finite a >= 0.

    The scaled value a 10^(11 - e) carries two roundings (the power of ten
    and the product), at most about 2 ulp of 1e12 or 2.5e-4 in all, so
    rint gives the correctly rounded m wherever the scaled value lies at
    or above 1e11, more than 1e-3 from a half-integer, and m stays below
    1e12.  The other cells (log10 one off next to a power of ten, m
    rounded up to 1e12, near-ties), and |x| outside 1e-290...1e290
    (subnormals included), are formatted by Python's own '%.11e' and read
    back; zeros give m = e = 0.
    """
    inside = (a >= _DECIDED[0]) & (a <= _DECIDED[1])
    safe = np.where(inside, a, 1.0)
    e = np.floor(np.log10(safe)).astype(np.int64)
    scaled = safe * _POW10[311 - e]
    m = np.rint(scaled)
    zero = a == 0.0
    decided = ((inside | zero) & (scaled >= 1e11) & (m < 1e12)
               & (np.abs(scaled - m) < 0.5 - _TIE_WINDOW))
    m[zero] = 0.0
    m = m.astype(np.int64)
    for i in np.flatnonzero(~decided).tolist():
        text = _fmt(a.flat[i])
        m.flat[i], e.flat[i] = int(text[0] + text[2:13]), int(text[14:])
    return m, e


def _rows(columns):
    """The ASCII bytes of the CSV rows of equal-length numeric columns,
    joined by newlines, every cell as ``_fmt`` ('%.11e') writes it.  The
    kernel formats the rows in passes of at most ``_BLOCK_CELLS`` cells,
    which bounds its temporaries; the pass bytes lose the last newline
    and join once."""
    table = np.stack([np.asarray(c, dtype=float) for c in columns], axis=1)
    if not np.isfinite(table).all():
        raise DomainError("a CSV cell is outside the floating-point range")
    step = max(1, _BLOCK_CELLS // table.shape[1])
    passes = [_format(table[start:start + step])
              for start in range(0, len(table), step)] or [b""]
    passes[-1] = passes[-1][:-1]
    return b"".join(passes)


def _format(table):
    """The bytes of the rows of a finite table, each ended by a newline.
    The cells' four table indices come from floor divisions of m, and one
    bytes.translate drops the 0 bytes."""
    m, e = _mantissas(np.abs(table))
    cells = np.empty(table.shape + (5,), dtype="<u4")
    hi = m // 10**6                         # d0..d5
    lo = m - hi * 10**6                     # d6..d11
    top, mid = hi // 10**4, lo // 100       # d0 d1 and d6..d9
    cells[..., 0] = _LEAD[top + 100 * np.signbit(table)]
    cells[..., 1] = _QUAD[hi - top * 10**4]
    cells[..., 2] = _QUAD[mid]
    cells[..., 3] = _TAIL[lo - mid * 100 + 100 * (e < 0)]
    cells[..., 4] = _EXP[np.abs(e)]
    cells[:, -1, 4] ^= _NEWLINE
    return cells.tobytes().translate(None, b"\0")


def _headlines(*items):
    """'# headline: label = value' byte lines for (label, value) pairs."""
    for label, value in items:
        if not math.isfinite(value):
            raise DomainError(f"{label} is outside the floating-point range")
    return [f"# headline: {label} = {_fmt(value)}".encode()
            for label, value in items]


def _header(command, config):
    """The frame every report opens with, as UTF-8 lines: version and
    subcommand, the sha256 of the config echo, and the echo itself."""
    echo = [f"{key} = {_fmt(value) if isinstance(value, float) else value}"
            .encode("utf-8", "surrogateescape")     # a path's own bytes
            for key, value in sorted(config.items())]
    digest = hashlib.sha256(b"\n".join(echo)).hexdigest().encode()
    return [f"# qfel {__version__} {command}".encode(),
            b"# config sha256 " + digest, *(b"# " + line for line in echo)]


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
    kp_mev = physcore.from_natural_energy(solve_final_state(
        math.pi, 1, _beam(config, energy_mev=energies), laser).k_prime)
    return [b"# columns: energy_mev,k_prime_mev", _rows((energies, kp_mev))]


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
    return [b"# columns: theta_over_pi,k_prime_mev,y_avg_xsec_times_1e6,"
            b"pol_x_re,pol_x_im,pol_y_re,pol_y_im", _rows(columns)]


def cmd_tube(config):
    """Tube population profile plus headline densities and intensities."""
    laser = _laser(config)
    beam = _beam(config, laser=laser)
    result = run_multi_section(
        beam, laser, config["tube.section_length_m"], config["tube.sections"],
        seed_m3=config["tube.seed_density_m3"], cycles=config["tube.cycles"],
        efficiency=config["tube.reflection_efficiency"])
    lines = _headlines(
        ("forward photon energy [MeV]", result.photon_energy_mev),
        ("gain coefficient a", result.gain),
        ("gain length lambda_c/a [m]", result.gain_length_m),
        ("asymptotic photon density [per Compton volume]",
         result.profile.asymptote[0]),
        ("photon density, exact chain [1/m^3]", result.photon_density_m3),
        ("photon density, one-half rule [1/m^3]",
         result.headline_photon_density_m3),
        ("output intensity, exact chain [W/m^2]", result.intensity_w_m2),
        ("output intensity, one-half rule [W/m^2]",
         result.headline_intensity_w_m2))
    for note in result.warnings:
        lines.append(f"# warning: {note}".encode())
    lines.append(b"# columns: section,l_m,n_compton,n_prime_compton,"
                 b"photon_compton,n_m3,photon_m3")
    lines.extend(_profile_rows(result.profile))
    return lines


def _profile_rows(prof):
    """The tube profile's CSV rows as bytes, one per run.  A row heads a run
    when it is a section's first sample or its n, n' or N bits differ
    from the sample before.  The SI columns divide n and N, so the rows of
    a run differ only in l: only the heads go through ``_rows``, and the
    later rows of each run join the head's cells after l to l rendered
    once per sample."""
    sections, samples = prof.n.shape
    bits = np.stack((prof.n, prof.n_prime, prof.photon)).view(np.int64)
    head = np.ones((sections, samples), dtype=bool)
    np.any(bits[..., 1:] != bits[..., :-1], axis=0, out=head[:, 1:])
    heads = np.flatnonzero(head)
    labels = [b"%d," % s for s in range(1, sections + 1)]
    n, photon = prof.n.ravel()[heads], prof.photon.ravel()[heads]
    lines = [labels[s] + line for s, line in zip(
        (heads // samples).tolist(),
        _rows((np.tile(prof.l_m, sections)[heads], n,
               prof.n_prime.ravel()[heads], photon, density_compton_to_si(n),
               density_compton_to_si(photon))).split(b"\n"))]
    l_text = _rows((prof.l_m,)).split(b"\n")
    length = np.diff(heads, append=head.size)
    runs = np.flatnonzero(length > 1)
    section, first = np.divmod(heads[runs], samples)
    for k, s, i, j in zip(runs.tolist(), section.tolist(), first.tolist(),
                          (first + length[runs]).tolist()):
        label, line = labels[s], lines[k]
        tail = line[len(label) + len(l_text[i]):]       # ",n,n',N,n_m3,N_m3"
        lines[k] = (line + b"\n" + label
                    + (tail + b"\n" + label).join(l_text[i + 1:j]) + tail)
    return lines


def cmd_coherence(config):
    """Wavelength-shift diagnostics of a probe beam in a radiation field."""
    theta = config["coherence.theta_over_pi"] * math.pi
    beam = make_beam(config["coherence.probe_energy_mev"],
                     direction=config["coherence.probe_direction"])
    radiation = LaserField(
        wavelength_nm=config["coherence.radiation_wavelength_nm"],
        intensity_w_m2=config["coherence.radiation_intensity_w_m2"])
    probe = coherence_probe(theta, beam, radiation)
    lines = _headlines(
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
    return lines


def cmd_limits(config):
    """Derived scenario quantities: eA, critical density, gain length, R."""
    laser = _laser(config)
    beam = _beam(config, laser=laser)
    a, gain_length = gain_coefficient(beam, laser)
    return _headlines(
        ("coherence amplitude eA", laser.ea),
        ("laser photon energy [m_e]", laser.k),
        ("critical density [1/m^3]", critical_density(laser)),
        ("gain coefficient a", a),
        ("gain length lambda_c/a [m]", gain_length),
        ("wiggling radius R", wiggling_radius(beam, laser)))


_COMMANDS = {
    "kinematics": cmd_kinematics,
    "angular": cmd_angular,
    "tube": cmd_tube,
    "coherence": cmd_coherence,
    "limits": cmd_limits,
}


@functools.cache
def _parser():
    """The argument parser, built once per process."""
    import argparse
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


def _parse_args(argv):
    """(command, config path, overrides, out path, threads) of a command
    line, read in one pass when it has one subcommand and only --config,
    --set, --out and --threads in full, each as --name=value or followed
    by a value that does not start with '-'.  Help, abbreviations and
    every other line go to argparse, with its own output and exit code."""
    argv = sys.argv[1:] if argv is None else argv
    commands, values = [], {"--config": None, "--set": [], "--out": None,
                            "--threads": 1}
    tokens = iter(argv)
    try:
        for token in tokens:
            name, eq, value = token.partition("=")
            if not token.startswith("-"):
                commands.append(token)
            elif name not in values or not eq and (
                    value := next(tokens)).startswith("-"):
                raise ValueError
            elif name == "--set":
                values[name].append(value)
            else:       # argparse converts each --threads as it reads it
                values[name] = int(value) if name == "--threads" else value
        (command,) = commands               # ValueError unless exactly one
        if command not in _COMMANDS:
            raise ValueError
    except (ValueError, StopIteration):
        args = _parser().parse_args(argv)
        return args.command, args.config, args.overrides, args.out, args.threads
    return command, *values.values()


def main(argv=None):
    command, config_path, overrides, out, threads = _parse_args(argv)
    start = time.perf_counter()
    try:
        config = parse_config(config_path, overrides)
        if threads < 1:
            raise ConfigError(f"--threads must be >= 1, got {threads}")
        # a result beyond the float range ends in the DomainError of the
        # output check, never in a numpy warning
        with np.errstate(all="ignore"):
            data = b"\n".join(_header(command, config)
                               + _COMMANDS[command](config) + [b""])
        out_path = out or config["output.path"]
        if out_path:
            try:
                # in place: a truncating open costs several times the write
                fd = os.open(out_path, os.O_WRONLY | os.O_CREAT
                             | getattr(os, "O_BINARY", 0), 0o666)
                try:
                    view = memoryview(data)
                    while view:
                        view = view[os.write(fd, view):]
                    st = os.fstat(fd)
                    if stat.S_ISREG(st.st_mode) and st.st_size > len(data):
                        os.ftruncate(fd, len(data))
                finally:
                    os.close(fd)
            except (OSError, ValueError) as exc:   # ValueError: NUL, surrogate
                raise ConfigError(f"cannot write the output file: {exc}")
        else:
            sys.stdout.write(data.decode("utf-8"))  # may be a text stream
    except ConfigError as exc:
        message = f"qfel: config error: {exc}"
        try:
            print(message, file=sys.stderr)
        except UnicodeEncodeError:      # a path the stream cannot encode
            enc = sys.stderr.encoding
            print(message.encode(enc, "backslashreplace").decode(enc),
                  file=sys.stderr)
        return 2
    except QfelError as exc:
        print(f"qfel: error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"qfel: error: out of memory: {exc}", file=sys.stderr)
        return 3
    elapsed = time.perf_counter() - start
    print(f"# qfel {command}: wall time {elapsed:.3f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
