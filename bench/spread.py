"""Measure the benchmark's own spread over seeds.

    python3 bench/spread.py [--seeds 10] [--first-seed 1] [--workloads a,b]
                            [--seconds T]

Runs ``bench/run.py`` once per seed and workload, seeds in the outer
loop, and prints for each end-to-end metric the median, the quartiles of
``statistics.quantiles(values, n=4)`` and the quartile distance as a
share of the median.  The values are saved in ``bench/out/spread/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    values = {w: {} for w in workloads}
    shares = {w: set() for w in workloads}
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        for w in workloads:
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", w,
                 "--seed", str(seed), "--seconds", repr(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True)
            report = json.loads(proc.stdout.strip().splitlines()[-1])
            shares[w].add(report["failed"] / report["attempted"])
            for name, metric in report["metrics"].items():
                values[w].setdefault(name, []).append(metric["value"])
            print(f"# {w} seed {seed}: {time.perf_counter() - start:.1f} s, "
                  f"correct={report['correct']} failed={report['failed']}/"
                  f"{report['attempted']} " + " ".join(
                      f"{k}={v['value']:.5g}" for k, v in report["metrics"].items()),
                  flush=True)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print(f"{'workload':16} {'metric':12} {'median':>11} {'q1':>11} {'q3':>11} "
          f"{'spread':>7} {'bound':>6}")
    for w in workloads:
        for name, vals in values[w].items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            print(f"{w:16} {name:12} {med:11.5g} {q1:11.5g} {q3:11.5g} "
                  f"{(q3 - q1) / med:7.4f} {bounds.get(name, float('nan')):6.3f}")
        print(f"{w:16} failed share {sorted(shares[w])}")
    out = BENCH / "out" / "spread"
    out.mkdir(parents=True, exist_ok=True)
    (out / f"spread-{int(time.time())}.json").write_text(
        json.dumps({"seconds": args.seconds, "values": values}, indent=1),
        encoding="utf-8")


if __name__ == "__main__":
    main()
