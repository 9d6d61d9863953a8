"""Tests of the command-line surface: config handling, CSV output,
golden-file regression, and determinism."""

import contextlib
import functools
import hashlib
import io
import math
import os
import resource
import stat
import subprocess
import sys
import tempfile
import threading
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import qfel.cli
import qfel.tube
from qfel.beamfield import LaserField, make_beam
from qfel.cli import (_MAX_TUBE_STEPS, _SCHEMA, _parse_args, _parser, _rows,
                      main, parse_config)
from qfel.errors import ConfigError, DomainError
from qfel.tube import run_multi_section

from oracles import tube_rows_single_pass

COMMANDS = ("kinematics", "angular", "tube", "coherence", "limits")
GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
# the --set pairs of each golden file not at the defaults: the tube file
# is a cyclic, seeded run of 1,200 rows, the spin-down file pins the
# spin -1 polarization in a strong field (eA = 4.7), and the coherence
# file's measured shift adds the inferred-intensity headlines
GOLDEN_SETS = {
    "coherence.csv": ["--set", "coherence.measured_shift=2.77e-4"],
    "tube.csv": ["--set", "tube.sections=6", "--set", "tube.cycles=3",
                 "--set", "tube.seed_density_m3=1e16",
                 "--set", "tube.reflection_efficiency=0.7"],
    "angular_spin_down.csv": ["--set", "beam.spin=-1",
                              "--set", "laser.intensity_w_m2=1e24",
                              "--set", "sweep.theta_points=201"]}


def run_cli(args, tmp_path, name="out.csv"):
    out = tmp_path / name
    code = main(list(args) + ["--out", str(out)])
    text = out.read_text() if out.exists() else ""
    return code, text


def run_quiet(args):
    """Exit code and standard output of an in-process run, with its
    stderr and warnings dropped."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return main(list(args)), out.getvalue()


def _strict_utf8():
    """A text stream that raises on what UTF-8 cannot encode (a lone
    surrogate), where ``sys.stderr`` would escape it."""
    return io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="strict")


def data_rows(text):
    return [line for line in text.splitlines() if not line.startswith("#")]


def parse_cells(row):
    return [float(c) for c in row.split(",")]


def reported_numbers(text):
    """Every headline value and data cell of a report."""
    for line in text.splitlines():
        if line.startswith("# headline:"):
            yield float(line.rsplit("=", 1)[1])
        elif not line.startswith("#"):
            yield from parse_cells(line)


class TestParseConfig:
    def test_defaults(self):
        config = parse_config(None, [])
        assert config["laser.wavelength_nm"] == 785.0
        assert config["laser.intensity_w_m2"] == 1e19
        assert config["beam.energy_mev"] == 307.0
        assert config["beam.direction"] == "head_on"
        assert config["sweep.theta_points"] == 2000
        assert config["sweep.energy_points"] == 181

    def test_empty_file_gives_defaults(self, tmp_path):
        path = tmp_path / "empty.cfg"
        path.write_text("# nothing here\n\n")
        assert parse_config(str(path), []) == parse_config(None, [])

    def test_file_values_and_overrides(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("beam.energy_mev = 7.68\nsweep.theta_points = 11\n")
        config = parse_config(str(path), ["beam.energy_mev=12.5"])
        assert config["beam.energy_mev"] == 12.5
        assert config["sweep.theta_points"] == 11

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="bogus.key"):
            parse_config(None, ["bogus.key=1"])

    def test_malformed_number_names_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("beam.energy_mev = banana\n")
        with pytest.raises(ConfigError, match="beam.energy_mev"):
            parse_config(str(path), [])

    def test_out_of_range_named(self):
        with pytest.raises(ConfigError, match="beam.spin"):
            parse_config(None, ["beam.spin=2"])

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            parse_config("/no/such/file.cfg", [])

    def test_non_finite_floats_named(self):
        float_keys = [k for k, entry in _SCHEMA.items() if entry[0] is float]
        assert float_keys
        for key in float_keys:
            for raw in ("inf", "nan"):
                with pytest.raises(ConfigError, match=key):
                    parse_config(None, [f"{key}={raw}"])

    def test_inverted_energy_window(self):
        with pytest.raises(ConfigError):
            parse_config(None, ["sweep.energy_min_mev=900",
                                "sweep.energy_max_mev=100"])

    def test_tube_chain_bound(self):
        side = math.isqrt(_MAX_TUBE_STEPS)
        assert side * side == _MAX_TUBE_STEPS
        config = parse_config(None, [f"tube.sections={side}",
                                     f"tube.cycles={side}"])
        assert config["tube.sections"] * config["tube.cycles"] == side * side
        with pytest.raises(ConfigError,
                           match=r"tube\.sections x tube\.cycles"):
            parse_config(None, [f"tube.sections={side}",
                                f"tube.cycles={side + 1}"])


# Command lines for the one-pass reader: well-formed lines (options in
# full, as '--name value' or '--name=value', around one subcommand), the
# same with one token put in anywhere, and token lines of any shape.  The
# tokens hold each option in full, abbreviated and in '=' form, help,
# '--', values that start with '-', empty values, values with spaces and
# --threads values that int() rejects.
_OPTION = st.sampled_from(("--config", "--set", "--out", "--threads", "--con",
                           "--se", "--thr", "-h", "--help", "--", "-", "-x"))
_VALUE = st.sampled_from(("beam.spin=-1", "x=y=z", "a b", "", "2", "0", " 4",
                          "x", "limits", "-1", "-x", "--set"))
_TOKEN = st.one_of(st.sampled_from(COMMANDS + ("nope",)), _OPTION, _VALUE,
                   st.builds("{}={}".format, _OPTION, _VALUE),
                   st.text(alphabet="-=ls1 x", max_size=4))
_GOOD_PAIR = st.one_of(
    st.tuples(st.sampled_from(("--config", "--set", "--out")),
              st.sampled_from(("beam.spin=-1", "x=y=z", "a b", "", "o.csv",
                               "limits"))),
    st.tuples(st.just("--threads"), st.sampled_from(("2", "0", " 4", "+3"))))
_GOOD_PIECES = st.lists(
    st.tuples(_GOOD_PAIR, st.booleans()).map(
        lambda p: ["=".join(p[0])] if p[1] else list(p[0])),
    max_size=3).map(lambda pieces: sum(pieces, []))
_WELL_FORMED = st.builds(lambda before, command, after: before + [command]
                         + after, _GOOD_PIECES, st.sampled_from(COMMANDS),
                         _GOOD_PIECES)
_LINE = st.one_of(
    _WELL_FORMED,
    st.builds(lambda line, token, at: line[:at] + [token] + line[at:],
              _WELL_FORMED, _TOKEN, st.integers(0, 13)),
    st.lists(_TOKEN, max_size=8))


class TestParser:
    def test_built_once(self):
        assert _parser() is _parser()

    def test_set_lists_do_not_leak_between_calls(self, tmp_path):
        _, first = run_cli(["limits", "--set", "beam.energy_mev=100",
                            "--set", "beam.spin=-1"], tmp_path, "a.csv")
        _, second = run_cli(["limits", "--set", "beam.spin=-1"], tmp_path,
                            "b.csv")
        _, third = run_cli(["limits"], tmp_path, "c.csv")
        assert "# beam.energy_mev = 1.00000000000e+02" in first
        assert "# beam.energy_mev = 3.07000000000e+02" in second
        assert "# beam.spin = -1" in second
        assert "# beam.spin = 1" in third.splitlines()
        assert third == run_cli(["limits"], tmp_path, "d.csv")[1]
        assert _parser().parse_args(["limits"]).overrides == []

    @settings(max_examples=400)
    @given(line=_LINE)
    @example(line=["limits", "--threads", "x", "--threads", "2"])
    @example(line=["limits", "--threads", "2", "--threads", "x"])
    @example(line=["--set=beam.spin=-1", "limits", "--threads=3"])
    @example(line=["limits", "--se", "beam.spin=-1"])
    @example(line=["limits", "--set", "-1"])
    @example(line=["--set", "a b", "--config", "c.cfg", "--out", "",
                   "tube", "--threads", " 2", "--set=", "--out=o.csv"])
    @example(line=["--set", "limits", "limits"])
    @example(line=["limits", "--", "--set", "x"])
    @example(line=["-h"])
    @example(line=[])
    def test_one_pass_matches_argparse(self, line):
        # wherever the one-pass reader returns, argparse reads the same
        # five fields; everywhere else both end in the same exit code
        def outcome(parse):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                try:
                    return parse(line)
                except SystemExit as exc:
                    return "exit", exc.code

        def argparse_fields(line):
            args = _parser().parse_args(line)
            return (args.command, args.config, args.overrides, args.out,
                    args.threads)

        assert outcome(_parse_args) == outcome(argparse_fields)

    def test_argparse_only_for_help_and_errors(self, tmp_path):
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path),
               "COLUMNS": "80"}
        script = ("import sys; from qfel.cli import main; "
                  "code = main(sys.argv[1:]); "
                  "print('argparse' in sys.modules); sys.exit(code)")
        proc = subprocess.run(
            [sys.executable, "-c", script, "limits", "--set", "beam.spin=-1",
             "--out", str(tmp_path / "out.csv")],
            capture_output=True, text=True, env=env)
        assert (proc.returncode, proc.stdout) == (0, "False\n")
        proc = subprocess.run([sys.executable, "-m", "qfel.cli", "-h"],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        assert proc.stdout.startswith("usage: qfel [-h]")


def _percent_rows(table):
    """'%.11e' rows as the ASCII bytes the kernel returns."""
    text = "\n".join(",".join("%.11e" % v for v in row)
                     for row in table.tolist())
    return text.encode("ascii")


class TestCsvCells:
    @settings(max_examples=100)
    @given(table=arrays(np.float64, st.tuples(st.integers(0, 12),
                                              st.integers(1, 7)),
                        elements=st.floats(allow_nan=False,
                                           allow_infinity=False)))
    @example(table=np.array([[0.0, -0.0, 5e-324, -5e-324,
                              1.7976931348623157e308,
                              -1.7976931348623157e308]]))
    @example(table=np.array([[1000000000005.0, 123456789012.5, 0.5],
                             [-1000000000005.0, -123456789012.5, -0.5]]))
    # exact ties scaled by an inexact power of ten (10^-5): without the
    # tie window, rint of the scaled value rounds them the wrong way
    @example(table=np.array([[1.050265285445e16, 4.310259657905e16,
                              2.343809315345e16, -8.207891152525e16]]))
    @example(table=np.array([[9.999999999995e-5, np.nextafter(1e-5, 0.0)],
                             [-9.999999999995e-5, -np.nextafter(1e-5, 0.0)]]))
    @example(table=np.array([[1e-290, 1e290, np.nextafter(1e-290, 0.0),
                              np.nextafter(1e290, np.inf), -1e-290, -1e290]]))
    # edges of the digit split hi = m // 10^6, lo = m - 10^6 hi: m = 10^11
    # and 10^12 - 1, lo = 0, lo = 100000, hi % 10^4 = 0 (120000123456),
    # and m rounding up to 10^12 (0.99999999999996 prints as
    # 1.00000000000e+00), which '%.11e' decides
    @example(table=np.array([[1e11, 999999999999.0, 123456000000.0],
                             [123456100000.0, 120000123456.0,
                              0.99999999999996]]))
    @example(table=np.array([[-1.234567890123e-123, 9.87654321e200],
                             [1e-100, -1e100]]))
    def test_cells_equal_percent_format(self, table):
        # the array kernel writes every cell as '%.11e' does, signed zeros,
        # exact decimal ties, mantissas next to a power of ten and the
        # fallback range included
        assert _rows(table.T) == _percent_rows(table)

    def test_many_cells_equal_percent_format(self):
        # random bit patterns cover every exponent; log-uniform magnitudes
        # cover every decade.  Tables of one pass less a row, one pass and
        # one pass and a row meet the pass boundary.
        rng = np.random.default_rng(8)
        bits = rng.integers(0, 2**64, size=60000, dtype=np.uint64)
        values = bits.view(np.float64)
        values = values[np.isfinite(values)]
        decades = 10.0 ** rng.uniform(-310.0, 308.0, 60000)
        for cells in (values, decades, -decades):
            table = cells[:cells.size // 6 * 6].reshape(-1, 6)
            assert _rows(table.T) == _percent_rows(table)
        chunk = qfel.cli._BLOCK_CELLS // 6
        for rows in (chunk - 1, chunk, chunk + 1):
            table = decades[:6 * rows].reshape(rows, 6)
            assert _rows(table.T) == _percent_rows(table)

    @pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf))
    def test_non_finite_cell_is_domain_error(self, bad):
        with pytest.raises(DomainError):
            _rows(([1.0, 2.0], [3.0, bad]))


class TestExitCodes:
    def test_success(self, tmp_path):
        code, _ = run_cli(["limits"], tmp_path)
        assert code == 0

    def test_config_error_is_2(self, capsys):
        assert main(["limits", "--set", "bogus.key=1"]) == 2
        assert "bogus.key" in capsys.readouterr().err

    def test_numeric_error_is_3(self, capsys):
        # a zero-amplitude laser has no critical density or gain
        assert main(["limits", "--set", "laser.intensity_w_m2=0"]) == 3

    @pytest.mark.parametrize("option", [["--out", "{}"],
                                        ["--set", "output.path={}"]])
    def test_unwritable_output_is_2(self, option, tmp_path, capsys):
        # a path under a missing directory, and a directory itself
        for target in (tmp_path / "no_such_dir" / "x.csv", tmp_path):
            assert main(["limits"] + [a.format(target) for a in option]) == 2
            assert "config error" in capsys.readouterr().err

    def test_directory_as_config_is_2(self, tmp_path, capsys):
        assert main(["limits", "--config", str(tmp_path)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_undecodable_config_is_2(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_bytes(b"beam.spin = 1\n\xff\n")
        assert main(["limits", "--config", str(path)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_config_line_without_equals_is_2(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("beam.spin = 1\nbeam.energy_mev 307\n")
        assert main(["limits", "--config", str(path)]) == 2
        assert "bad.cfg:2: expected 'section.key = value'" \
            in capsys.readouterr().err

    def test_set_without_equals_is_2(self, capsys):
        assert main(["limits", "--set", "beam.spin"]) == 2
        assert "--set expects section.key=value, got 'beam.spin'" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("route", ["config", "set-nul", "set-surrogate"])
    def test_unusable_output_path_key_is_2(self, route, tmp_path, capsys):
        # the key rejects a path the OS or the header echo cannot take
        argv = ["limits"]
        if route == "config":
            path = tmp_path / "nul.cfg"
            path.write_text("output.path = a\0b.csv\n")
            argv += ["--config", str(path)]
        else:
            bad = "\0" if route == "set-nul" else "\ud800"
            argv += ["--set", f"output.path={tmp_path}/a{bad}b.csv"]
        assert main(argv) == 2
        assert "config error: output.path: " in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["\0", "\ud800"])
    def test_unusable_out_path_is_2(self, bad, tmp_path, capsys):
        assert main(["limits", "--out", f"{tmp_path}/a{bad}b.csv"]) == 2
        assert "cannot write the output file" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["\0", "\ud800"])
    def test_unusable_config_path_is_2(self, bad, tmp_path):
        # the message repeats the path, escaped where the stream cannot
        # encode it
        err = _strict_utf8()
        with contextlib.redirect_stderr(err):
            assert main(["limits", "--config", f"{tmp_path}/a{bad}b.cfg"]) == 2
        err.flush()
        want = f"{tmp_path}/a{bad}b.cfg".encode("utf-8", "backslashreplace")
        assert b"cannot read configuration file " + want + b": " \
            in err.buffer.getvalue()

    @pytest.mark.parametrize("route", ["unreadable", "no-equals"])
    def test_unencodable_config_path_is_2_on_a_strict_stream(self, route,
                                                             tmp_path):
        # both messages that echo the path end in exit 2, with only the
        # character the stream cannot take escaped
        if route == "unreadable":
            path, tail = f"{tmp_path}/\u00e9\ud800.cfg", ": "
        else:                           # a file name that is not UTF-8
            path, tail = f"{tmp_path}/\u00e9\udcff.cfg", ":1: expected"
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("beam.energy_mev 307\n")
        err = _strict_utf8()
        with contextlib.redirect_stderr(err):
            assert main(["limits", "--config", path]) == 2
        err.flush()
        got = err.buffer.getvalue().decode("utf-8")
        assert got.startswith("qfel: config error: ")
        assert path.encode("utf-8", "backslashreplace").decode("utf-8") \
            + tail in got
        assert "\u00e9" in got and "\\u00e9" not in got

    @pytest.mark.parametrize("key, value", [("tube.cycles", 2**62),
                                            ("tube.sections", 2**40)])
    def test_unbounded_tube_chain_is_2(self, key, value, monkeypatch, capsys):
        # refused before the chain starts or a profile is allocated
        def no_run(*args, **kwargs):
            raise AssertionError("the tube chain started")

        monkeypatch.setattr(qfel.cli, "run_multi_section", no_run)
        assert main(["tube", "--set", f"{key}={value}"]) == 2
        err = capsys.readouterr().err
        assert "tube.sections x tube.cycles exceeds" in err

    def test_threads_below_one_is_2(self, capsys):
        # goes with the --threads flag, which is accepted and ignored
        assert main(["limits", "--threads", "0"]) == 2
        assert "--threads must be >= 1, got 0" in capsys.readouterr().err

    @pytest.mark.parametrize("command, key", [
        ("angular", "sweep.theta_points"), ("kinematics", "sweep.energy_points")])
    def test_sweep_beyond_memory_is_3(self, command, key, capsys):
        # 10^12 points need 7.28 TiB; the address-space cap makes numpy
        # refuse the array at once on hosts that overcommit memory too
        limits = resource.getrlimit(resource.RLIMIT_AS)
        cap = 2**40 if limits[1] == resource.RLIM_INFINITY else \
            min(2**40, limits[1])
        resource.setrlimit(resource.RLIMIT_AS, (cap, limits[1]))
        try:
            code = main([command, "--set", f"{key}=1000000000000"])
        finally:
            resource.setrlimit(resource.RLIMIT_AS, limits)
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("qfel: error: out of memory") and \
            err.count("\n") == 1


# --set pairs that keep each subcommand's report small
SMALL_SETS = {"kinematics": ["sweep.energy_points=11"],
              "angular": ["sweep.theta_points=21"], "tube": [],
              "coherence": ["coherence.measured_shift=2.77e-4"], "limits": []}


@functools.lru_cache(maxsize=None)
def fresh_bytes(command):
    """The bytes a subcommand at its defaults writes to a new path."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fresh.csv")
        with contextlib.redirect_stderr(io.StringIO()):
            assert main([command, "--out", path]) == 0
        with open(path, "rb") as fh:
            return fh.read()


def device(path):
    if not os.path.exists(path):
        pytest.skip(f"{path} is missing on this host")
    return path


class TestOutputFile:
    """--out overwrites in place; after exit 0 the file holds exactly the
    bytes a fresh path gets, whatever was there before."""

    @pytest.mark.parametrize("stale", [b"X" * (2 << 20), b"X" * 100],
                             ids=["longer", "shorter"])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_stale_file_gives_fresh_bytes(self, command, stale, tmp_path):
        path = tmp_path / "out.csv"
        path.write_bytes(stale)
        assert main([command, "--out", str(path)]) == 0
        assert path.read_bytes() == fresh_bytes(command)

    def test_opened_without_truncation(self, monkeypatch, tmp_path):
        # a regression pin on the cost, not a timing: the output path is
        # never opened with O_TRUNC
        path = str(tmp_path / "out.csv")
        flags = []
        real_open = os.open

        def recording_open(file, flag, *args, **kwargs):
            if os.fspath(file) == path:
                flags.append(flag)
            return real_open(file, flag, *args, **kwargs)

        monkeypatch.setattr(os, "open", recording_open)
        assert main(["limits", "--out", path]) == 0
        monkeypatch.undo()
        assert flags and all(not f & os.O_TRUNC for f in flags)
        assert all(f & os.O_WRONLY and f & os.O_CREAT for f in flags)

    def test_short_writes_are_continued(self, monkeypatch, tmp_path):
        path = tmp_path / "out.csv"
        path.write_bytes(b"X" * 100000)
        real_write = os.write
        monkeypatch.setattr(os, "write",
                            lambda fd, data: real_write(fd, data[:1000]))
        assert main(["limits", "--out", str(path)]) == 0
        monkeypatch.undo()
        assert path.read_bytes() == fresh_bytes("limits")

    def test_dev_null_exits_0(self):
        assert main(["limits", "--out", device("/dev/null")]) == 0

    def test_dev_full_is_2_and_closes_the_file(self, capsys):
        target = device("/dev/full")
        before = len(os.listdir("/proc/self/fd")) \
            if os.path.isdir("/proc/self/fd") else None
        assert main(["limits", "--out", target]) == 2
        err = capsys.readouterr().err
        assert err.startswith("qfel: config error: cannot write the output "
                              "file") and err.count("\n") == 1
        if before is not None:
            assert len(os.listdir("/proc/self/fd")) == before

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs here")
    def test_fifo_gets_the_report(self, tmp_path):
        fifo = str(tmp_path / "pipe")
        os.mkfifo(fifo)
        received = []

        def read_all():
            with open(fifo, "rb") as fh:
                received.append(fh.read())

        reader = threading.Thread(target=read_all, daemon=True)
        reader.start()
        assert main(["limits", "--out", fifo]) == 0
        reader.join(timeout=30)
        assert not reader.is_alive()
        assert received == [fresh_bytes("limits")]

    @pytest.mark.skipif(not hasattr(os, "symlink"), reason="no symlinks")
    def test_symlink_updates_its_target(self, tmp_path):
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        target.write_bytes(b"X" * 100000)
        link.symlink_to(target)
        assert main(["limits", "--out", str(link)]) == 0
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_bytes() == fresh_bytes("limits")

    def test_existing_file_keeps_mode_and_inode(self, tmp_path):
        path = tmp_path / "out.csv"
        path.write_bytes(b"X" * 100000)
        os.chmod(path, 0o640)
        inode = path.stat().st_ino
        assert main(["limits", "--out", str(path)]) == 0
        assert path.stat().st_ino == inode
        assert stat.S_IMODE(path.stat().st_mode) == 0o640
        assert path.read_bytes() == fresh_bytes("limits")

    @pytest.mark.skipif(not hasattr(os, "link"), reason="no hard links")
    def test_hard_link_shows_the_new_bytes(self, tmp_path):
        path, other = tmp_path / "out.csv", tmp_path / "other.csv"
        path.write_bytes(b"X" * 100000)
        os.link(path, other)
        assert main(["limits", "--out", str(path)]) == 0
        assert other.read_bytes() == fresh_bytes("limits")


class TestReportBytes:
    """Report lines are bytes from the CSV kernel to the file; only the
    stdout branch decodes them."""

    @pytest.mark.parametrize("command", COMMANDS)
    def test_stdout_and_file_branches_agree(self, command, tmp_path):
        argv = [command] + _sets(SMALL_SETS[command])
        path = tmp_path / "out.csv"
        with contextlib.redirect_stderr(io.StringIO()):
            assert main(argv + ["--out", str(path)]) == 0
        code, text = run_quiet(argv)
        assert code == 0
        assert text.encode("utf-8") == path.read_bytes()

    def test_config_echo_keeps_utf8(self, tmp_path):
        # a non-ASCII value is echoed as UTF-8, and the config sha256 is
        # taken over the UTF-8 bytes of the echo lines
        path = tmp_path / "out.csv"
        with contextlib.redirect_stderr(io.StringIO()):
            assert main(["limits", "--set", "output.path=ψ/γ.csv",
                         "--out", str(path)]) == 0
        lines = path.read_bytes().split(b"\n")
        assert "# output.path = ψ/γ.csv".encode("utf-8") in lines
        echo = [line[2:] for line in lines
                if line[2:].partition(b" = ")[0].decode() in _SCHEMA]
        assert len(echo) == len(_SCHEMA)
        digest = hashlib.sha256(b"\n".join(echo)).hexdigest()
        assert lines[1] == f"# config sha256 {digest}".encode()

    @pytest.mark.skipif(sys.platform != "linux",
                        reason="a file name of any bytes needs Linux")
    def test_non_utf8_output_path_is_written(self, tmp_path):
        # a file name that is not UTF-8 arrives as surrogate escapes; the
        # report goes to that file and echoes the name's own bytes
        path = os.fsencode(tmp_path) + b"/\xff.csv"
        code, text = run_quiet(["limits", "--set",
                                "output.path=" + os.fsdecode(path)])
        assert (code, text) == (0, "")
        with open(path, "rb") as fh:
            assert b"# output.path = " + path in fh.read().split(b"\n")

    def test_kernel_and_commands_return_bytes(self):
        assert type(_rows(([1.0, -2.5], [3.0, 4.0]))) is bytes
        assert _rows(([],)) == b""
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for command, sets in SMALL_SETS.items():
                lines = qfel.cli._COMMANDS[command](parse_config(None, sets))
                assert lines and all(type(line) is bytes for line in lines)


def _override_values(key):
    """Raw --set strings for one key: in and out of its range, malformed."""
    typ = _SCHEMA[key][0]
    if typ is float:
        return st.one_of(
            st.floats(-320.0, 308.0).map(lambda x: repr(10.0 ** x)),
            st.floats(-2.0, 4.0).map(lambda x: repr(10.0 ** x)),
            st.floats(-10.0, 10.0).map(lambda x: repr(-10.0 ** x)),
            st.sampled_from(("0", "-0", "1", "5e-324", "1.7976931348623157e308",
                             "1e400", "nan", "banana")))
    if typ is int:
        # sweep sizes stay small so each run is quick
        return st.integers(-2, 9).map(str)
    return st.sampled_from(("head_on", "co_propagating", "csv", "sideways"))


_OVERRIDE = st.sampled_from(sorted(k for k in _SCHEMA if k != "output.path")
                            ).flatmap(lambda key: _override_values(key).map(
                                lambda raw: f"{key}={raw}"))


def _sets(overrides):
    return [arg for item in overrides for arg in ("--set", item)]


class TestExitCodeProperties:
    @settings(max_examples=150)
    @given(command=st.sampled_from(sorted(("kinematics", "angular", "tube",
                                           "coherence", "limits"))),
           overrides=st.lists(_OVERRIDE, max_size=6))
    @example(command="tube", overrides=["beam.density_m3=1e300"])
    @example(command="coherence",
             overrides=["coherence.measured_shift=1e300"])
    @example(command="coherence",
             overrides=["coherence.radiation_wavelength_nm=4.6e109"])
    # point counts no array can hold are configuration errors
    @example(command="kinematics", overrides=[f"sweep.energy_points={2**60}"])
    @example(command="kinematics", overrides=[f"sweep.energy_points={2**64}"])
    @example(command="angular",
             overrides=[f"sweep.theta_points={2**63 - 1}"])
    def test_any_override_exits_cleanly(self, command, overrides):
        # 0 success, 2 configuration error, 3 numeric/domain error; never
        # an exception, and a successful run reports only finite numbers.
        # Sweeps start small; the draws may resize them.
        small = ["sweep.theta_points=9", "sweep.energy_points=9"]
        code, text = run_quiet([command] + _sets(small + overrides))
        assert code in (0, 2, 3)
        if code == 0:
            assert all(math.isfinite(v) for v in reported_numbers(text))

    @settings(max_examples=40)
    @given(log_mev=st.lists(st.floats(math.log10(0.511), 11.0),
                            min_size=2, max_size=2).map(sorted),
           direction=st.sampled_from(("head_on", "co_propagating")),
           log_intensity=st.floats(10.0, 28.0),
           spin=st.sampled_from((1, -1)),
           points=st.integers(1, 9))
    def test_physical_domain_exits_zero(self, log_mev, direction,
                                        log_intensity, spin, points):
        lo, hi = (repr(10.0 ** x) for x in log_mev)
        scenario = _sets([f"beam.energy_mev={hi}",
                          f"beam.direction={direction}",
                          f"beam.spin={spin}",
                          f"laser.intensity_w_m2={10.0 ** log_intensity!r}"])
        assert run_quiet(["kinematics"] + scenario + _sets(
            [f"sweep.energy_min_mev={lo}", f"sweep.energy_max_mev={hi}",
             f"sweep.energy_points={points}"]))[0] == 0
        assert run_quiet(["angular"] + scenario + _sets(
            [f"sweep.theta_points={points}"]))[0] == 0
        assert run_quiet(["limits"] + scenario)[0] == 0


class TestKinematicsCommand:
    def test_anchor_row(self, tmp_path):
        code, text = run_cli(
            ["kinematics", "--set", "sweep.energy_min_mev=7.68",
             "--set", "sweep.energy_max_mev=7.68",
             "--set", "sweep.energy_points=1"], tmp_path)
        assert code == 0
        rows = data_rows(text)
        assert len(rows) == 1
        e_mev, kp_mev = parse_cells(rows[0])
        assert e_mev == pytest.approx(7.68)
        assert kp_mev == pytest.approx(1.424e-3, rel=5e-3)

    def test_default_sweep_monotone(self, tmp_path):
        _, text = run_cli(["kinematics"], tmp_path)
        kps = [parse_cells(r)[1] for r in data_rows(text)]
        assert len(kps) == 181
        assert all(b > a for a, b in zip(kps, kps[1:]))


class TestAngularCommand:
    def test_single_point_is_laser_line(self, tmp_path):
        _, text = run_cli(["angular", "--set", "sweep.theta_points=1"],
                          tmp_path)
        rows = data_rows(text)
        assert len(rows) == 1
        cells = parse_cells(rows[0])
        assert cells[0] == 0.0
        # k' = k at theta = 0
        assert cells[1] == pytest.approx(1.5794e-6, rel=1e-3)

    def test_forward_tail_shape_and_polarization(self, tmp_path):
        _, text = run_cli(["angular", "--set", "sweep.theta_points=41"],
                          tmp_path)
        rows = [parse_cells(r) for r in data_rows(text)]
        tail = [r[2] for r in rows if r[0] >= 0.9]
        assert all(b > a for a, b in zip(tail, tail[1:]))
        last = rows[-1]
        inv_sqrt2 = 1.0 / math.sqrt(2.0)
        assert last[3] == pytest.approx(inv_sqrt2, abs=1e-9)
        assert last[4] == pytest.approx(0.0, abs=1e-9)
        assert last[5] == pytest.approx(0.0, abs=1e-9)
        assert last[6] == pytest.approx(-inv_sqrt2, abs=1e-9)


    def test_zero_amplitude_has_no_polarization(self, capsys):
        assert main(["angular", "--set", "laser.intensity_w_m2=0"]) == 3
        assert capsys.readouterr().err == (
            "qfel: error: polarization is undefined: the requested spin "
            "channel has zero amplitude\n")


class TestTubeCommand:
    def test_headlines_present(self, tmp_path):
        code, text = run_cli(["tube"], tmp_path)
        assert code == 0
        assert "one-half rule" in text
        assert "tension" in text

    def test_zero_length(self, tmp_path):
        _, text = run_cli(["tube", "--set", "tube.section_length_m=0"],
                          tmp_path)
        for row in data_rows(text):
            cells = parse_cells(row.split(",", 1)[1])
            assert cells[3] == pytest.approx(0.0, abs=1e-12)

    def test_zero_length_rounding_below_zero_chains_as_zero(self, tmp_path):
        # a zero-length section ends exactly at its seed, so the unseeded
        # chain stays at 0.0 (at this density n(0) rounds above n0, which
        # once left the first section's end value at -6e-33)
        code, text = run_cli(["tube", "--set", "beam.density_m3=5.62e20",
                              "--set", "tube.section_length_m=0",
                              "--set", "tube.sections=2"], tmp_path)
        assert code == 0
        line = next(l for l in text.splitlines() if "exact chain [1/m^3]" in l)
        assert float(line.rsplit("=", 1)[1]) == 0.0

    def test_dense_short_sections(self, tmp_path):
        # n stays within float resolution of n0 over 2e-28 m of a 1e60
        # m^-3 beam; the photons the first section adds are still positive
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)     # space charge
            code, text = run_cli(["tube", "--set", "beam.density_m3=1e60",
                                  "--set", "tube.section_length_m=2e-28",
                                  "--set", "tube.sections=2"], tmp_path)
        assert code == 0
        line = next(l for l in text.splitlines() if "exact chain [1/m^3]" in l)
        assert float(line.rsplit("=", 1)[1]) == pytest.approx(
            4.99999989449508e+59, rel=1e-11)
        end = [r for r in data_rows(text) if r.startswith("1,")][-1]
        photon = parse_cells(end)[4]
        assert photon > 0.0
        assert photon == pytest.approx(7.74e14, rel=1e-3)

    def test_overflowing_chain_names_the_first_bad_seed(self, capsys):
        # the first cycle's output overflows in SI units, so the second
        # cycle starts from inf and every later section from nan
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            assert main(["tube", "--set", "beam.density_m3=1.7e308",
                         "--set", "tube.sections=7",
                         "--set", "tube.cycles=2"]) == 3
        assert capsys.readouterr().err.endswith(
            "seed must be finite and >= 0, got inf\n")

    def test_cyclic_run_takes_the_seed(self, tmp_path):
        _, text = run_cli(["tube", "--set", "tube.cycles=2",
                           "--set", "tube.seed_density_m3=1e17"], tmp_path)
        line = next(l for l in text.splitlines() if "exact chain [1/m^3]" in l)
        chain = run_multi_section(make_beam(307.0, density_m3=1e18),
                                  LaserField(785.0, 1e19), 0.01, 2,
                                  seed_m3=1e17)
        assert float(line.rsplit("=", 1)[1]) == pytest.approx(
            chain.photon_density_m3, rel=1e-10)

    @pytest.mark.parametrize("sets, heads", (
        (GOLDEN_SETS["tube.csv"][1::2], 12),    # two runs a section
        ([], 2),
        (["laser.intensity_w_m2=1e12"], 200),   # every row distinct
        (["laser.intensity_w_m2=1e17", "tube.sections=12"], 656),  # labels
        # of two widths, and about 55 distinct rows before each run
        (["laser.intensity_w_m2=1e12", "tube.sections=100"], 20000),  # 20
        # kernel passes of distinct rows, labels of one to three digits
        (["tube.section_length_m=0", "tube.sections=4"], 4),   # l repeats
        (["beam.density_m3=1e30"], 2)))
    def test_body_equals_single_pass(self, sets, heads, monkeypatch):
        # the rows of each run repeat the cells of its head after l, so the
        # report must keep the bytes of '%.11e' over every labelled row; the
        # kernel sees the run heads once and the l column once
        profiles, calls = [], []
        run, rows = qfel.cli.run_multi_section, qfel.cli._rows

        def recording_run(*args, **kwargs):
            result = run(*args, **kwargs)
            profiles.append(result.profile)
            return result

        def counted_rows(columns):
            calls.append((len(columns), len(columns[0])))
            return rows(columns)
        monkeypatch.setattr(qfel.cli, "run_multi_section", recording_run)
        monkeypatch.setattr(qfel.cli, "_rows", counted_rows)
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)    # space charge
            lines = qfel.cli.cmd_tube(parse_config(None, sets))
        monkeypatch.undo()
        body = b"\n".join(line for line in lines if not line.startswith(b"#"))
        assert calls == [(6, heads), (1, profiles[0].l_m.size)]
        assert body == tube_rows_single_pass(profiles[0])

    def test_one_block_and_chunked_kernel_passes(self, monkeypatch, tmp_path):
        # the chain steps once per section and cycle on floats, the kept
        # cycle is sampled as one block, and its 20,000 rows, all distinct
        # at 1e12 W/m^2, are written in passes of at most _BLOCK_CELLS
        # cells, and its 200 l cells in one more
        counts = {"_densities": 0, "evolve_seeded": 0, "_format": 0}

        def counter(module, name):
            fn = getattr(module, name)

            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)

        for module, name in ((qfel.tube, "_densities"),
                             (qfel.tube, "evolve_seeded"),
                             (qfel.cli, "_format")):
            counter(module, name)
        code, text = run_cli(["tube", "--set", "laser.intensity_w_m2=1e12",
                              "--set", "tube.sections=100",
                              "--set", "tube.cycles=3"], tmp_path)
        monkeypatch.undo()
        assert code == 0
        assert len(data_rows(text)) == 20000
        assert counts == {
            "_densities": 100 * 3 + 1, "evolve_seeded": 1,
            "_format": math.ceil(20000 / (qfel.cli._BLOCK_CELLS // 6)) + 1}


class TestCoherenceCommand:
    def test_report_values(self, tmp_path):
        code, text = run_cli(
            ["coherence", "--set", "coherence.measured_shift=2.7698e-4"],
            tmp_path)
        assert code == 0

        def headline(tag):
            for line in text.splitlines():
                if tag in line:
                    return float(line.rsplit("=", 1)[1])
            raise AssertionError(f"missing headline {tag!r}")

        assert headline("zero amplitude") == pytest.approx(351.0, rel=1e-2)
        assert headline("fractional wavelength shift") == pytest.approx(
            2.77e-3, rel=5e-2)
        assert headline("coherent fraction") == pytest.approx(0.1, rel=1e-2)

    def test_on_axis_inversion_is_domain_error(self, capsys):
        # the shift vanishes at theta = 0 whatever the intensity
        assert main(["coherence", "--set", "coherence.theta_over_pi=0",
                     "--set", "coherence.measured_shift=1e-4"]) == 3
        assert "cannot be inverted" in capsys.readouterr().err


class TestGoldenFiles:
    def compare(self, golden, generated):
        with open(golden) as fh:
            want = fh.read().splitlines()
        got = generated.splitlines()
        assert len(got) == len(want)
        for w_line, g_line in zip(want, got):
            if w_line.startswith("#"):
                assert g_line == w_line
                continue
            for w_cell, g_cell in zip(w_line.split(","), g_line.split(",")):
                w, g = float(w_cell), float(g_cell)
                assert g == pytest.approx(w, rel=1e-10, abs=1e-300)

    def test_forward_energy_sweep(self, tmp_path):
        _, text = run_cli(["kinematics"], tmp_path)
        self.compare(os.path.join(GOLDEN_DIR, "fig1.csv"), text)

    def test_angular_sweep(self, tmp_path):
        _, text = run_cli(["angular"], tmp_path)
        self.compare(os.path.join(GOLDEN_DIR, "fig2.csv"), text)

    def test_angular_sweep_spin_down(self, tmp_path):
        golden = "angular_spin_down.csv"
        _, text = run_cli(["angular"] + GOLDEN_SETS[golden], tmp_path)
        self.compare(os.path.join(GOLDEN_DIR, golden), text)

    @pytest.mark.parametrize("command, golden", (("kinematics", "fig1.csv"),
                                                 ("angular", "fig2.csv"),
                                                 ("tube", "tube.csv"),
                                                 ("angular",
                                                  "angular_spin_down.csv"),
                                                 ("limits", "limits.csv"),
                                                 ("coherence",
                                                  "coherence.csv")))
    def test_bytes_equal_golden(self, command, golden, tmp_path):
        # the comparison above forgives the 12th digit; the files do not
        argv = [command] + GOLDEN_SETS.get(golden, [])
        assert main(argv + ["--out", str(tmp_path / "out.csv")]) == 0
        with open(os.path.join(GOLDEN_DIR, golden), "rb") as fh:
            assert (tmp_path / "out.csv").read_bytes() == fh.read()


class TestDeterminism:
    def test_repeat_and_thread_count_byte_identical(self, tmp_path):
        _, first = run_cli(["angular", "--set", "sweep.theta_points=64",
                            "--threads", "1"], tmp_path, "a.csv")
        _, second = run_cli(["angular", "--set", "sweep.theta_points=64",
                             "--threads", "1"], tmp_path, "b.csv")
        _, third = run_cli(["angular", "--set", "sweep.theta_points=64",
                            "--threads", "7"], tmp_path, "c.csv")
        assert first == second == third

    def test_console_entry_point(self, tmp_path):
        # the installed script must agree with the in-process call; the
        # child imports qfel from where this process does
        out = tmp_path / "sub.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "qfel.cli", "limits", "--out", str(out)],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        assert proc.returncode == 0
        _, direct = run_cli(["limits"], tmp_path)
        assert out.read_text() == direct
