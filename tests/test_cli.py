"""Tests of the command-line surface: config handling, CSV output,
golden-file regression, and determinism."""

import contextlib
import io
import math
import os
import subprocess
import sys
import warnings

import pytest
from hypothesis import example, given, settings, strategies as st

from qfel.beamfield import LaserField, make_beam
from qfel.cli import _SCHEMA, main, parse_config
from qfel.errors import ConfigError
from qfel.tube import run_multi_section

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


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

    def test_cyclic_run_takes_the_seed(self, tmp_path):
        _, text = run_cli(["tube", "--set", "tube.cycles=2",
                           "--set", "tube.seed_density_m3=1e17"], tmp_path)
        line = next(l for l in text.splitlines() if "exact chain [1/m^3]" in l)
        chain = run_multi_section(make_beam(307.0, density_m3=1e18),
                                  LaserField(785.0, 1e19), 0.01, 2,
                                  seed_m3=1e17)
        assert float(line.rsplit("=", 1)[1]) == pytest.approx(
            chain.photon_density_m3, rel=1e-10)


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
        # the installed script must agree with the in-process call
        out = tmp_path / "sub.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "qfel.cli", "limits", "--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0
        _, direct = run_cli(["limits"], tmp_path)
        assert out.read_text() == direct
