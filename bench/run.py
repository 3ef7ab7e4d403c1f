"""Chart-throughput benchmark for abeltrace.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Each workload runs in its own single-threaded processes (BLAS and
``RT_THREADS`` pinned to one thread), as a closed loop over its job list,
with every job's output checked against an independent oracle outside the
timer. ``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
same jobs with spans around every layer and prints the per-layer metrics
and the tracing overhead. A run record goes to ``.bench_runs/``; the last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)

from bench.tracer import TRACED, span_name  # noqa: E402
from bench.worker import PINNED_ENV, RUNS_DIR  # noqa: E402

WORKLOADS = ("tables", "verify", "extend", "inverse")

# workload processes per run, one after another: each sets up once (so
# setup_s is a median over them) and measures seconds / PROCESSES
PROCESSES = 3
WORKER_TIMEOUT_S = 170

END_TO_END = (
    ("wall_s", "s"),
    ("charts_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("job_p75_ms", "ms"),
    ("oracle_digits", "digits"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# layer functions that every workload calls, so their per-layer numbers
# are measured (never a constant zero) on each workload's traced run
COMMON_LAYERS = (
    "multipoly.MultiPoly.substitute",
    "multipoly.MultiPoly.evaluate",
    "numeric.poly_roots",
    "geometry.plane_substitute",
    "geometry.solve_fiber",
    "geometry.full_jacobian",
    "residues.trace_table",
    "residues.evaluate_chart",
    "residues.ChartEvaluation.value",
)
COMMON_MODULES = ("multipoly", "numeric", "geometry", "residues")
MODULES = ("multipoly", "numeric", "geometry", "residues", "radon",
           "reconstruct", "serialize", "cli")


def per_layer_spec():
    """(name, unit) of the per-layer metrics in the result line."""
    out = []
    for fn in COMMON_LAYERS:
        out += [(f"{fn}.calls", "count"), (f"{fn}.self_s", "s")]
    out += [(f"{mod}.self_share", "frac") for mod in COMMON_MODULES]
    out += [("residues.solves_per_chart", "ratio"), ("trace_overhead", "ratio")]
    return tuple(out)


PER_LAYER = per_layer_spec()


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------

def run_worker(workload, seed, seconds, trace):
    """Run one workload process to completion and return its result."""
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", repr(seconds),
           "--trace", str(int(trace)), "--spawned-at", repr(time.monotonic())]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}"
        )
    return json.loads(lines[-1])


def git_state():
    """(sha, dirty) of the checkout, or (None, None) when it is not the top
    of a git work tree."""
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
        if top.returncode != 0 or os.path.realpath(top.stdout.strip()) != os.path.realpath(ROOT):
            return None, None
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
        status = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                                cwd=ROOT, capture_output=True, text=True, timeout=30)
        return sha.stdout.strip(), bool(status.stdout.strip())
    except (OSError, subprocess.SubprocessError):
        return None, None


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def hd_quantile(values, q):
    """Harrell-Davis estimate of the q-quantile (0 < q < 1): an average of
    all order statistics weighted by the Beta((n+1)q, (n+1)(1-q)) mass of
    each rank interval. A mixed job list leaves gaps in the latency
    distribution, and a single interpolated order statistic jumps across
    them from run to run; this estimate moves smoothly."""
    xs = np.sort(np.asarray(values, dtype=float))
    n = len(xs)
    if n == 1:
        return float(xs[0])
    a, b = q * (n + 1), (1.0 - q) * (n + 1)
    grid = np.linspace(0.0, 1.0, 200 * n + 1)
    logpdf = (a - 1.0) * np.log(grid[1:-1]) + (b - 1.0) * np.log1p(-grid[1:-1])
    pdf = np.concatenate([[0.0], np.exp(logpdf - logpdf.max()), [0.0]])
    cdf = np.concatenate([[0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2.0)])
    edges = np.interp(np.arange(n + 1) / n, grid, cdf / cdf[-1])
    return float(np.dot(np.diff(edges), xs))


def end_to_end(results):
    """End-to-end metrics of one workload from its processes' results."""
    passes = sum(len(r["pass_s"]) for r in results)
    timed = sum(s for r in results for s in r["pass_s"])
    charts = sum(c for r in results for c in r["pass_charts"])
    job_ms = [t for r in results for t in r["job_ms"]]
    return {
        "wall_s": timed / passes,
        "charts_per_s": charts / timed,
        "job_p50_ms": hd_quantile(job_ms, 0.50),
        "job_p75_ms": hd_quantile(job_ms, 0.75),
        "oracle_digits": min(r["oracle_digits"] for r in results),
        "setup_s": statistics.median(r["setup_s"] for r in results),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
    }


def per_layer(results):
    """Every per-layer number of one traced workload, per pass (job list),
    as name -> (value, unit)."""
    passes = sum(r["passes"] for r in results)
    traced_wall = sum(s for r in results for s in r["traced_pass_s"])
    charts = sum(c for r in results for c in r["pass_charts"])
    calls, self_s = {}, {}
    for r in results:
        for name, val in r["calls"].items():
            calls[name] = calls.get(name, 0) + val
        for name, val in r["self_s"].items():
            self_s[name] = self_s.get(name, 0.0) + val
    out = {}
    for mod, qual, _, _ in TRACED:
        name = span_name(mod, qual)
        out[f"{name}.calls"] = (calls.get(name, 0) / passes, "count")
        out[f"{name}.self_s"] = (self_s.get(name, 0.0) / passes, "s")
    for mod in MODULES:
        share = sum(v for k, v in self_s.items() if k.startswith(mod + "."))
        out[f"{mod}.self_share"] = (share / traced_wall, "frac")
    out["residues.solves_per_chart"] = (calls.get("geometry.solve_fiber", 0) / charts, "ratio")
    value_calls = calls.get("residues.TraceTable.value", 0)
    if value_calls:
        misses = sum(r["value_evaluations"] for r in results)
        out["residues.chart_cache_hit_ratio"] = (1.0 - misses / value_calls, "frac")
    # every pass is checked twice (untraced and traced outputs)
    out["residues.flagged_samples"] = (
        sum(r["flagged_samples"] for r in results) / (2 * passes), "count")
    out["serialize.bytes_written"] = (
        sum(r["bytes_written"] for r in results) / (2 * passes), "bytes")
    cli_ms = {}
    for r in results:
        for cmd, times in r["cli_ms"].items():
            cli_ms.setdefault(cmd, []).extend(times)
    for cmd, times in sorted(cli_ms.items()):
        out[f"cli.{cmd}.p50_ms"] = (statistics.median(times), "ms")
    ratios = [t / u for r in results for t, u in zip(r["traced_pass_s"], r["pass_s"])]
    out["trace_overhead"] = (statistics.median(ratios), "ratio")
    return out


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------

def run_workload(workload, seed, seconds, trace):
    load_start = os.getloadavg()
    results = [run_worker(workload, seed, seconds / PROCESSES, trace)
               for _ in range(PROCESSES)]
    load_end = os.getloadavg()
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    metrics = end_to_end(results)
    layers = None
    if trace:
        layers = per_layer(results)
        missing = sorted({n for r in results for n in r["missing_calls"]})
        if missing:
            raise RuntimeError(f"{workload}: wrapped functions recorded no call: {missing}")

    print(f"== {workload} (seed {seed}, {seconds:g} s, trace {int(trace)}, "
          f"{PROCESSES} processes, {sum(r['passes'] for r in results)} passes)")
    job_n = sum(len(r["job_ms"]) for r in results)
    print(f"  fail_frac {failed / max(attempted, 1):.4g} ({failed} of {attempted} jobs)")
    for name, unit in END_TO_END:
        extra = f"  (n={job_n} jobs)" if name.startswith("job_p") else ""
        print(f"  {name} {metrics[name]:.6g} {unit}{extra}")
    for r in results:
        for note in r["notes"]:
            print(f"  FAILED {note}")
    if layers is not None:
        for name, (val, unit) in layers.items():
            print(f"  {name} {val:.6g} {unit}")

    spans_path = None
    if trace:
        spans_path = os.path.join(RUNS_DIR, f"spans-{workload}-seed{seed}.json")
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump([r.pop("trace_dump") for r in results], fh)
    sha, dirty = git_state()
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "git_sha": sha, "git_dirty": dirty, "nproc": os.cpu_count(),
        "platform": platform.platform(), "versions": results[0]["versions"],
        "loadavg_start": load_start, "loadavg_end": load_end,
        "input_sha256": [r["input_sha256"] for r in results],
        "ref_loop_ms": [r["ref_loop_ms"] for r in results],
        "attempted": attempted, "failed": failed,
        "metrics": metrics, "per_layer": layers and {k: v for k, (v, _) in layers.items()},
        "spans": spans_path,
        "processes": results,
    }
    path = os.path.join(RUNS_DIR, f"record-{workload}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(f"  ref_loop_ms {statistics.median(record['ref_loop_ms']):.4g} ms (host speed "
          f"diagnostic, not applied), loadavg {load_start[0]:.2f} -> {load_end[0]:.2f}")
    print(f"  record {os.path.relpath(path, ROOT)}")
    if trace:
        picked = {name: {"value": layers[name][0], "unit": unit} for name, unit in PER_LAYER}
    else:
        picked = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}
    return attempted, failed, picked


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0,
                    help="measured time per workload (0 runs one pass per process)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # turn SIGTERM into SystemExit, so subprocess.run kills and reaps the
    # running workload process before this one exits
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seed < 0 or args.seconds < 0:
        ap.error("--seed and --seconds must be non-negative")
    if not os.path.isfile(os.path.join(ROOT, "src", "abeltrace", "__init__.py")):
        print(f"error: no abeltrace sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    os.makedirs(RUNS_DIR, exist_ok=True)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    try:
        for name in names:
            a, f, picked = run_workload(name, args.seed, args.seconds, bool(args.trace))
            attempted += a
            failed += f
            if len(names) == 1:
                metrics = picked
            else:
                metrics.update({f"{name}.{k}": v for k, v in picked.items()})
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
