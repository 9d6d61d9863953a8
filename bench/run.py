"""The qfel benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the root of a source checkout.  The workload's jobs are drawn
from the seed (``workloads.py``) and run by one worker process that calls
the ``qfel`` CLI in-process with ``--threads 1`` (``worker.py``).  Every
output is checked against ``oracle.py``.  The last line printed is one
JSON object: with ``--trace 0`` the end-to-end metrics, with ``--trace 1``
the per-layer metrics of a traced run.  Run details go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import median

import oracle
from hostspeed import at_reference
from workloads import WORKLOADS, overrides

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_STARTS = 9
WORKER_TIMEOUT_S = 150

# Libraries under numpy may start a thread pool per core; the CLI is
# single-threaded here, so such pools would only add scheduler noise.
# A fixed hash seed removes one run-to-run difference of dict layouts.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


def _child(argv, timeout):
    env = dict(os.environ, **CHILD_ENV)
    env.pop("PYTHONPATH", None)
    proc = subprocess.run([sys.executable, str(BENCH / "worker.py")] + argv,
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {argv[0]} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return proc.stdout.strip().splitlines()[-1]


def check_job(workload, job, paths):
    """Failures of one job's outputs; an unreadable output is a failure."""
    cfgs = [overrides(call) for call in job]
    try:
        texts = [Path(p).read_text(encoding="utf-8") for p in paths]
        if workload == "reports":
            return oracle.check_reports(cfgs, texts)
        return oracle.check_angular(cfgs[0], texts[0],
                                    weak=workload == "angular_weak")
    except (OSError, KeyError, ValueError, IndexError, ArithmeticError) as exc:
        return [f"output: {type(exc).__name__}: {exc}"]


def end_to_end(result, setup_times, jobs_per_round):
    """The untraced run's metrics.  Job times are taken at the reference
    host speed; set-up times are not (import time does not follow the
    kernel's speed)."""
    records = result["records"]
    rows = result["rows"]
    scaled = [(r[1], at_reference(r[2], r[5])) for r in records]
    rounds = [scaled[i:i + jobs_per_round]
              for i in range(0, len(scaled), jobs_per_round)]
    return {
        "setup_s": {"value": median(setup_times), "unit": "s"},
        "job_s": {"value": median([t for _, t in scaled]), "unit": "s"},
        "rows_per_s": {"value": median([sum(rows[j] for j, _ in rnd)
                                        / sum(t for _, t in rnd)
                                        for rnd in rounds]),
                       "unit": "1/s"},
        "peak_rss_mb": {"value": result["peak_rss_kb"] / 1024.0, "unit": "MB"},
    }


# span name -> the totals reported for it; "cli.command" is every cli.cmd_*
_SPAN_METRICS = {
    "kinematics.solve_final_state": ("calls", "self_s", "closed"),
    "kinematics.emitted_photon_energy": ("calls", "self_s"),
    "beamfield.make_beam": ("calls", "self_s"),
    "amplitudes.harmonic_vectors": ("calls", "self_s"),
    "amplitudes.fg_coefficients": ("calls", "self_s"),
    "amplitudes.outgoing_polarization": ("self_s",),
    "physcore.bessel_jn": ("calls", "self_s"),
    "emission.averaged_cross_section": ("calls", "self_s"),
    "tube.gain_coefficient": ("calls",),
    "tube.run_multi_section": ("self_s",),
    "tube.evolve_seeded": ("calls", "self_s"),
    "cli.parse_config": ("self_s",),
    "cli.command": ("self_s",),
    "cli.main": ("self_s",),
}


def _round_total(totals, span, field):
    if span == "cli.command":
        return sum(t[field] for name, t in totals.items()
                   if name.startswith("cli.cmd_"))
    return totals.get(span, {}).get(field, 0)


def per_layer(result):
    """Per-layer metrics for one round of the job list: counts from the
    first traced round, self times as the median over traced rounds."""
    rounds = result["layers"]
    rows = sum(result["rows"])
    first = rounds[0]
    metrics = {}
    for span, fields in _SPAN_METRICS.items():
        for field in fields:
            if field == "self_s":
                value, unit = median(_round_total(t, span, field) for t in rounds), "s"
            else:
                value, unit = _round_total(first, span, field), "count"
            metrics[f"{span}.{field}"] = (value, unit)
    per_row = {
        "kinematics.solves_per_row": ("kinematics.solve_final_state", "calls"),
        "amplitudes.vectors_per_row": ("amplitudes.harmonic_vectors", "calls"),
        "emission.harmonics_per_row": ("emission.averaged_cross_section", "harmonics"),
    }
    for name, (span, field) in per_row.items():
        metrics[name] = (_round_total(first, span, field) / rows, "1/row")
    metrics["emission.rows_at_cap"] = (
        _round_total(first, "emission.averaged_cross_section", "capped"), "count")
    traced = [r[2] for r in result["records"] if r[4]]
    plain = [r[2] for r in result["records"] if not r[4]]
    metrics["trace.overhead_s"] = (median(traced) - median(plain), "s")
    return {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qfel" / "cli.py").is_file():
        print(f"bench: no qfel sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    rundir = OUT / "runs" / name
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    jobs = WORKLOADS[args.workload](args.seed)
    jobs_path = rundir / "jobs.json"
    jobs_path.write_text(json.dumps(jobs), encoding="utf-8")
    (OUT / "spans").mkdir(exist_ok=True)

    setup_times = []
    if not args.trace:
        setup_times = [float(_child(["setup", str(jobs_path)], 60))
                       for _ in range(SETUP_STARTS)]
    result = json.loads(_child(
        ["run", str(jobs_path), str(rundir), repr(args.seconds), str(args.trace),
         str(OUT / "spans" / f"{name}.npz")], WORKER_TIMEOUT_S))

    failures = {j: check_job(args.workload, job,
                             [rundir / f"job{j}-{c}.csv" for c in range(len(job))])
                for j, job in enumerate(jobs)}
    bad_exit = {r[1] for r in result["records"] if not r[3]}
    failed = sum(1 for r in result["records"] if not r[3] or failures[r[1]])
    correct = not any(fails for j, fails in failures.items() if j not in bad_exit)
    metrics = (per_layer(result) if args.trace
               else end_to_end(result, setup_times, len(jobs)))
    report = {"correct": correct, "attempted": len(result["records"]),
              "failed": failed, "metrics": metrics}

    (OUT / "results").mkdir(exist_ok=True)
    detail = dict(report, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, rounds=result["rounds"],
                  setup_times=setup_times, errors=result["errors"],
                  check_failures={j: f[:5] for j, f in failures.items() if f},
                  job_times=[r[2] for r in result["records"]],
                  kernel_times=[r[5] for r in result["records"]])
    (OUT / "results" / f"{name}.json").write_text(
        json.dumps(detail, indent=1), encoding="utf-8")
    shutil.rmtree(rundir, ignore_errors=True)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
