"""Byte-identity check of the CLI across two checkouts.

Prints one line per ``qfel`` call: the sha256 of its standard output,
its exit code, the sha256 of its standard error without the wall-time
line, and the sha256 of the file the same call writes with ``--out``
(``-`` when it writes none), so that both output branches are compared.
Warnings are written as ``Category: message``, without the file and
line that raised them, so that moved code does not count.
The calls are every job of the three benchmark workloads at seeds 7,
11, 51 and 311, the five subcommands at their defaults, and twenty-six
non-default or failing calls, help and argparse's usage errors among
them.  Run it under each checkout's sources and compare the outputs;
argparse wraps help to the terminal width, so fix it::

    COLUMNS=80 PYTHONPATH=<old checkout>/src python3 tests/identity.py > old.txt
    COLUMNS=80 PYTHONPATH=src python3 tests/identity.py > new.txt
    diff old.txt new.txt

Not collected by pytest (the file name does not start with ``test_``).
"""

import contextlib
import hashlib
import io
import os
import sys
import tempfile
import warnings

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "bench"))

import workloads                                    # noqa: E402
from qfel.cli import main                           # noqa: E402

SEEDS = (7, 11, 51, 311)
COMMANDS = ("kinematics", "angular", "tube", "coherence", "limits")
EXTRA = [
    ["angular", "--set", "beam.spin=-1", "--set", "laser.intensity_w_m2=1e24",
     "--set", "sweep.theta_points=201"],
    ["tube", "--set", "tube.sections=6", "--set", "tube.cycles=3",
     "--set", "tube.seed_density_m3=1e16",
     "--set", "tube.reflection_efficiency=0.7"],
    ["coherence", "--set", "coherence.measured_shift=2.77e-4"],
    ["kinematics", "--set", "sweep.energy_points=0x10"],
    ["tube", "--set", "beam.density_m3=1e30"],              # warns
    ["limits", "--set", "beam.colour=red"],                 # exit 2
    ["angular", "--set", "beam.spin=up"],                   # exit 2
    ["limits", "--threads", "0"],                           # exit 2
    ["kinematics", "--set", "sweep.energy_min_mev=500",
     "--set", "sweep.energy_max_mev=400"],                  # exit 2
    ["coherence", "--set", "coherence.theta_over_pi=0",
     "--set", "coherence.measured_shift=1e-4"],             # exit 3
    ["limits", "--set", "laser.intensity_w_m2=1e300"],      # exit 3
    ["tube", "--set", "laser.intensity_w_m2=1e12"],         # rows distinct
    ["tube", "--set", "laser.intensity_w_m2=1e17",
     "--set", "tube.sections=12"],                          # runs
    ["tube", "--set", "tube.section_length_m=0",
     "--set", "tube.sections=4"],                           # l repeats too
    ["-h"],                                                 # help, exit 0
    ["nope"],                                               # usage, exit 2
    ["limits", "--bogus"],
    ["limits", "--set"],
    ["limits", "--threads", "x", "--threads", "2"],
    ["limits", "--se", "beam.spin=-1"],                     # abbreviation
    ["--set=beam.spin=-1", "limits", "--threads=3"],
    ["angular", "--set", "laser.intensity_w_m2=1e24",
     "--set", "sweep.harmonic_max=60",
     "--set", "sweep.theta_points=301"],                # many blocks, x > 9
    ["angular", "--set", "laser.intensity_w_m2=1e28",
     "--set", "sweep.harmonic_max=60",
     "--set", "sweep.theta_points=41"],
    ["angular", "--set", "beam.energy_mev=0.51099895"],    # at rest, exit 3
    ["angular", "--set", "laser.intensity_w_m2=0"],        # closed, exit 3
    ["limits", "--config", "/nonexistent/qfel.cfg"],       # exit 2
]


def calls():
    """(label, argv) of every call, in a fixed order."""
    for name, make in workloads.WORKLOADS.items():
        for seed in SEEDS:
            for j, job in enumerate(make(seed)):
                for k, argv in enumerate(job):
                    yield f"{name}/{seed}/{j}/{k}", argv
    for command in COMMANDS:
        yield f"default/{command}", [command]
    for i, argv in enumerate(EXTRA):
        yield f"extra/{i}", argv


def run(argv):
    """Exit code, stdout and stderr (less the wall-time line) of one
    in-process call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    lines = [line for line in err.getvalue().splitlines(keepends=True)
             if " wall time " not in line]
    lines += [f"{w.category.__name__}: {w.message}\n" for w in caught]
    return code, out.getvalue(), "".join(lines)


def out_file(argv):
    """The bytes the call writes with ``--out``, or None when it writes no
    file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "out.csv")
        run(argv + ["--out", path])
        if not os.path.exists(path):
            return None
        with open(path, "rb") as fh:
            return fh.read()


def _sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


if __name__ == "__main__":
    for label, argv in calls():
        code, out, err = run(argv)
        data = out_file(argv)
        written = "-" if data is None else hashlib.sha256(data).hexdigest()
        print(f"{label} {_sha(out)} {code} {_sha(err)} {written}", flush=True)
