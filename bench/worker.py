"""One workload process of the benchmark: set up, warm up, then run passes
of the workload's job list as a closed loop (one caller; the next job
starts when the previous one returns) for the given number of seconds.

Started by ``bench/run.py`` with BLAS and ``RT_THREADS`` pinned to one
thread. Prints one JSON object with the raw measurements as the last line
of its standard output; the library's own console output is discarded.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "RT_THREADS": "1",
}
RUNS_DIR = os.path.join(ROOT, ".bench_runs")
MAX_NOTES = 20


def import_library():
    """Import abeltrace from this checkout's ``src`` and nowhere else."""
    src = os.path.join(ROOT, "src")
    for path in (ROOT, src):
        if path not in sys.path:
            sys.path.insert(0, path)
    import abeltrace

    where = os.path.realpath(os.path.dirname(abeltrace.__file__))
    if where != os.path.realpath(os.path.join(src, "abeltrace")):
        raise ImportError(f"abeltrace imported from {where}, not from {src}")
    return abeltrace


def reference_loop_ms():
    """Time of a fixed pure-Python loop: a diagnostic of the host's speed
    state, reported beside the metrics and never used to scale them."""
    start = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc += i * i
    return (time.perf_counter() - start) * 1e3


def blas_info():
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = deps.get("blas", {})
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError, AttributeError):
        return {"name": None, "version": None}


class Measurement:
    """Raw results of one workload process."""

    def __init__(self):
        self.pass_s = []          # untraced pass wall times
        self.pass_charts = []     # nominal charts per pass
        self.traced_pass_s = []   # traced pass wall times, paired with pass_s
        self.job_ms = []          # untraced per-job latencies
        self.attempted = 0
        self.failed = 0
        self.notes = []
        self.digits = None
        self.flagged = 0
        self.bytes_written = 0
        self.cli_ms = {}
        self.digest = hashlib.sha256()
        self.passes = 0

    def record_verdict(self, job, verdict, error):
        self.attempted += 1
        if error is None:
            self.digits = verdict.digits if self.digits is None else min(self.digits, verdict.digits)
            self.flagged += verdict.flagged
            self.bytes_written += verdict.bytes_written
        if error is None and verdict.ok:
            return
        self.failed += 1
        if len(self.notes) < MAX_NOTES:
            self.notes.append(f"{job.kind}: {error or '; '.join(verdict.notes)}")


def run_job(job):
    """Run one job; returns (output, seconds, error text or None)."""
    start = time.perf_counter()
    try:
        out = job.run()
        err = None
    except Exception as exc:  # noqa: BLE001 - a failed job is counted, not fatal
        out, err = None, f"raised {type(exc).__name__}: {exc}"
    return out, time.perf_counter() - start, err


def check_job(job, out, err):
    from bench.workloads import Verdict

    verdict = Verdict()
    if err is None:
        try:
            verdict = job.check(out)
        except Exception as exc:  # noqa: BLE001 - a broken output fails its check
            verdict.fail(f"check raised {type(exc).__name__}: {exc}")
    return verdict


def traced_pass(tracer, jobs, pass_index, outs):
    """Run the pass once more with every layer wrapped; returns its time."""
    from bench import tracer as tr

    total = 0.0
    tracer.install()
    try:
        for job in jobs:
            tracer.job = f"{pass_index}:{job.kind}"
            out, dt, err = run_job(job)
            total += dt
            outs.append((out, err))
            job.cli_ms.clear()
    finally:
        tracer.uninstall()
        tr.assert_restored()
    return total


def measure(workload, seed, seconds, trace, spawned_at=None, limit=None, workdir=None):
    """Set up, warm up and run passes for ``seconds`` (at least one pass).

    ``limit`` truncates each pass to its first jobs (used by the tests).
    With ``trace``, each pass runs twice on the same inputs, untraced and
    traced in alternating order, so the tracing overhead is a paired ratio.
    """
    from bench import tracer as tr
    from bench import workloads as wl

    workdir = workdir or os.path.join(RUNS_DIR, f"tmp-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    m = Measurement()
    tracer = tr.Tracer() if trace else None
    try:
        for job in wl.warmup_jobs(workload, seed, workdir):
            out, _, err = run_job(job)
            verdict = check_job(job, out, err)
            if err is not None or not verdict.ok:
                m.failed += 1
                m.attempted += 1
                m.notes.append(f"warm-up {job.kind}: {err or '; '.join(verdict.notes)}")
        jobs = wl.make_pass(workload, seed, 0, workdir)[:limit]
        setup_s = time.monotonic() - spawned_at if spawned_at is not None else None
        deadline = time.perf_counter() + seconds
        pass_index = 0
        while True:
            for job in jobs:
                m.digest.update(wl.spec_bytes(job.spec))
            outs = []
            if trace and pass_index % 2:
                m.traced_pass_s.append(traced_pass(tracer, jobs, pass_index, outs))
            total = 0.0
            for job in jobs:
                out, dt, err = run_job(job)
                total += dt
                m.job_ms.append(dt * 1e3)
                outs.append((out, err))
                for name, times in job.cli_ms.items():
                    m.cli_ms.setdefault(name, []).extend(times)
                job.cli_ms.clear()
            m.pass_s.append(total)
            m.pass_charts.append(sum(job.charts for job in jobs))
            if trace and not pass_index % 2:
                m.traced_pass_s.append(traced_pass(tracer, jobs, pass_index, outs))
            for i, (out, err) in enumerate(outs):
                job = jobs[i % len(jobs)]
                m.record_verdict(job, check_job(job, out, err), err)
            for job in jobs:
                if job.workdir:
                    shutil.rmtree(job.workdir, ignore_errors=True)
            m.passes += 1
            pass_index += 1
            if time.perf_counter() >= deadline:
                break
            jobs = wl.make_pass(workload, seed, pass_index, workdir)[:limit]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "workload": workload,
        "seed": seed,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "passes": m.passes,
        "pass_s": m.pass_s,
        "pass_charts": m.pass_charts,
        "traced_pass_s": m.traced_pass_s,
        "job_ms": m.job_ms,
        "attempted": m.attempted,
        "failed": m.failed,
        "notes": m.notes,
        "oracle_digits": m.digits if m.digits is not None else 0.0,
        "flagged_samples": m.flagged,
        "bytes_written": m.bytes_written,
        "cli_ms": m.cli_ms,
        "input_sha256": m.digest.hexdigest(),
        "ref_loop_ms": reference_loop_ms(),
    }
    if trace:
        cache_misses = tracer.edges.get(("residues.evaluate_chart", "residues.TraceTable.value"))
        result.update({
            "calls": dict(tracer.calls),
            "self_s": dict(tracer.self_s),
            "value_evaluations": cache_misses[0] if cache_misses else 0,
            "missing_calls": tracer.expected_calls(workload),
            "trace_dump": tracer.dump(),
        })
    return result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() of the parent just before spawning")
    args = ap.parse_args(argv)
    for key, val in PINNED_ENV.items():
        if os.environ.get(key) != val:
            raise SystemExit(f"{key} must be {val} in the workload process")

    import_library()
    import numpy as np

    console = sys.stdout
    sys.stdout = open(os.devnull, "w")
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                         spawned_at=args.spawned_at)
    finally:
        sys.stdout.close()
        sys.stdout = console
    result["versions"] = {
        "python": sys.version.split()[0], "numpy": np.__version__, "blas": blas_info(),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
