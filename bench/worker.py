"""The process that runs a workload: ``python3 bench/worker.py MODE ...``.

``setup JOBS`` times one fresh start: importing ``qfel.cli`` and parsing
the first job's configuration.  It prints the seconds.

``run JOBS OUTDIR SECONDS TRACE SPANS`` runs one untimed warm-up job,
then whole rounds of the job list until SECONDS have passed, calling
``cli.main`` in this process with ``--threads 1``.  With TRACE = 1 the
rounds alternate untraced and traced, so that the tracing overhead is a
paired difference, and the spans are written to SPANS at the end.  The
last line of output is one JSON object.

Between jobs, outside the timed region, the worker times the host-speed
kernel of ``hostspeed.py``; each record carries the kernel time measured
around its job.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

from hostspeed import kernel_s

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def _load_jobs(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def setup(jobs_path):
    first_call = _load_jobs(jobs_path)[0][0]
    start = time.perf_counter()
    from qfel import cli
    cli.parse_config(None, first_call[2::2])
    print(repr(time.perf_counter() - start))


def _peak_rss_kb():
    """Peak resident memory of this process.  VmHWM belongs to the memory
    map made at exec; ru_maxrss would also count the parent's pages that
    the child held between fork and exec."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _digest(path):
    """sha256 and data-row count of one output file (None if missing)."""
    try:
        data = Path(path).read_bytes()
    except FileNotFoundError:
        return None, 0
    rows = sum(1 for line in data.split(b"\n") if line and not line.startswith(b"#"))
    return hashlib.sha256(data).hexdigest(), rows


class Runner:
    def __init__(self, jobs, outdir):
        from qfel import cli
        self.cli = cli
        self.jobs = jobs
        self.paths = [[str(Path(outdir) / f"job{j}-{c}.csv")
                       for c in range(len(calls))]
                      for j, calls in enumerate(jobs)]
        self.digests = [None] * len(jobs)   # first output of each job
        self.rows = [0] * len(jobs)
        self.errors = []

    def run(self, j):
        """Run job j; return (seconds, ok).  Not ok: a non-zero exit, an
        exception out of the CLI, or bytes differing from the first run."""
        ok = True
        elapsed = 0.0
        gc.collect()
        for argv, path in zip(self.jobs[j], self.paths[j]):
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                start = time.perf_counter()
                try:
                    rc = self.cli.main(argv + ["--out", path, "--threads", "1"])
                except Exception as exc:   # a traceback, reported as a failure
                    rc = 1
                    err.write(f"{type(exc).__name__}: {exc}")
                elapsed += time.perf_counter() - start
            if rc != 0:
                ok = False
                self.errors.append(f"job {j} {argv[0]}: exit {rc}: "
                                   f"{err.getvalue().strip()[-300:]}")
        digest = [_digest(p) for p in self.paths[j]]
        if self.digests[j] is None:
            self.digests[j] = digest
            self.rows[j] = sum(rows for _, rows in digest)
        elif digest != self.digests[j]:
            ok = False
            self.errors.append(f"job {j}: output differs from its first run")
        return elapsed, ok


def run(jobs_path, outdir, seconds, trace, spans_path):
    jobs = _load_jobs(jobs_path)
    runner = Runner(jobs, outdir)
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
    runner.run(0)                                  # warm-up, untimed
    # (round, job, seconds, ok, traced, kernel seconds around the job)
    records = []
    kernel_before = kernel_s()
    start = time.perf_counter()
    rnd = 0
    while True:
        traced = tracer is not None and rnd % 2 == 1
        if traced:
            tracer.install()
        for j in range(len(jobs)):
            if traced:
                tracer.job = rnd * len(jobs) + j
            elapsed, ok = runner.run(j)
            kernel_after = kernel_s()
            records.append((rnd, j, elapsed, ok, traced,
                            0.5 * (kernel_before + kernel_after)))
            kernel_before = kernel_after
        if traced:
            tracer.remove()
        rnd += 1
        done = time.perf_counter() - start >= seconds
        if done and (tracer is None or rnd >= 2):
            break
    result = {
        "rounds": rnd,
        "records": records,
        "rows": runner.rows,
        "errors": runner.errors[:20],
        "peak_rss_kb": _peak_rss_kb(),
    }
    if tracer is not None:
        from tracer import layer_totals
        spans = tracer.arrays()
        tracer.dump(spans_path)
        per_round = []
        for r in range(1, rnd, 2):
            ids = range(r * len(jobs), (r + 1) * len(jobs))
            per_round.append(layer_totals(spans, tracer.names, ids))
        result["layers"] = per_round
        result["spans"] = int(spans["name"].size)
    print(json.dumps(result))


def main(argv):
    if argv[1] == "setup":
        setup(argv[2])
    elif argv[1] == "run":
        run(argv[2], argv[3], float(argv[4]), argv[5] == "1", argv[6])
    else:
        raise SystemExit(f"unknown mode {argv[1]!r}")


if __name__ == "__main__":
    main(sys.argv)
