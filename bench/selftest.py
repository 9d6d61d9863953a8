"""Self-test of the benchmark's output checks: ``python3 bench/selftest.py``.

Runs one job of each workload kind, asserts that the untouched outputs
pass ``oracle``, then corrupts one value at a time and asserts that the
check it targets rejects it.  Exits non-zero on any miss.
"""

from __future__ import annotations

import contextlib
import io
import shutil
import sys
from pathlib import Path

import oracle
from workloads import angular_strong, angular_weak, overrides, reports

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
from qfel import cli  # noqa: E402

OUT = BENCH / "out" / "selftest"


def produce(call, name):
    path = OUT / f"{name}.csv"
    with contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(call + ["--out", str(path), "--threads", "1"])
    if rc != 0:
        raise SystemExit(f"selftest: qfel {call[0]} exited {rc}")
    return path.read_text(encoding="utf-8")


def data_row(text, index):
    """Line number of the index-th data row."""
    lines = text.split("\n")
    rows = [i for i, line in enumerate(lines) if line and not line.startswith("#")]
    return lines, rows[index]


def scale_cells(text, index, cols, factor):
    lines, at = data_row(text, index)
    cells = lines[at].split(",")
    for c in cols:
        cells[c] = f"{float(cells[c]) * factor:.11e}"
    lines[at] = ",".join(cells)
    return "\n".join(lines)


def scale_headline(text, label, factor):
    lines = text.split("\n")
    prefix = f"# headline: {label} = "
    at = next(i for i, line in enumerate(lines) if line.startswith(prefix))
    lines[at] = prefix + f"{float(lines[at][len(prefix):]) * factor:.11e}"
    return "\n".join(lines)


def main():
    shutil.rmtree(OUT, ignore_errors=True)
    OUT.mkdir(parents=True)
    weak_job, strong_job, report_job = angular_weak(1)[0], angular_strong(1)[0], reports(1)[0]
    weak_cfg = overrides(weak_job[0])
    weak = produce(weak_job[0], "weak")
    strong = produce(strong_job[0], "strong")
    report_cfgs = [overrides(call) for call in report_job]
    report_texts = [produce(call, f"report{i}") for i, call in enumerate(report_job)]
    points = int(weak_cfg["sweep.theta_points"])

    def angular(text):
        return oracle.check_angular(weak_cfg, text, weak=True)

    def tube(text):
        return oracle.check_reports(report_cfgs, [report_texts[0], text] + report_texts[2:])

    def coherence(text):
        return oracle.check_reports(report_cfgs, report_texts[:2] + [text, report_texts[3]])

    cases = [
        ("untouched angular_weak output", angular(weak), None),
        ("untouched angular_strong output",
         oracle.check_angular(overrides(strong_job[0]), strong, weak=False), None),
        ("untouched reports outputs", oracle.check_reports(report_cfgs, report_texts), None),
        ("k' scaled by 1 + 1e-9", angular(scale_cells(weak, points // 2, [1], 1 + 1e-9)),
         "k_prime"),
        ("on-axis pol_y imaginary sign flipped",
         angular(scale_cells(weak, points - 1, [6], -1.0)), "polarization"),
        ("tube profile row perturbed by 1e-6",
         tube(scale_cells(report_texts[1], 300, [2, 3, 4, 5, 6], 1 + 1e-6)), "profile"),
        ("one-half headline intensity off by 1%",
         tube(scale_headline(report_texts[1], "output intensity, one-half rule [W/m^2]",
                             1.01)), "headline_intensity"),
        ("inferred coherent intensity off by 1%",
         coherence(scale_headline(report_texts[2], "inferred coherent intensity [W/m^2]",
                                  1.01)), "inferred"),
    ]
    missed = 0
    for label, fails, tag in cases:
        if tag is None:
            ok = not fails
        else:
            ok = any(f.startswith(tag + ":") for f in fails)
        missed += not ok
        print(f"{'ok  ' if ok else 'MISS'} {label}: "
              f"{fails[0] if fails else 'accepted'}")
    shutil.rmtree(OUT, ignore_errors=True)
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
