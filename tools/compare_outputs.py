"""Compare the benchmark jobs' outputs of the working tree with those of a
git revision.

Both trees run the same job set: every job of the four benchmark
workloads (``bench.workloads.make_pass``) on seeds 0-2 and passes 0-1,
each tree in its own subprocess that imports that tree's ``src`` and
``bench``. The revision is checked out with ``git worktree`` under a
temporary directory, which is removed afterwards.

Each job's output is reduced to a canonical form: its floating-point
leaves as one complex array, and as labels its other arrays, its flags
and baseline degrees (``LABELS``) and the verdict of the job's own oracle
check. Other leaves (names, messages, counts) are not compared, so an
input echoed back in a different shape does not count as a change.
Objects are read through their public attributes; a job that writes
artifacts (the CLI chain) adds their "result" and "report" sections, and
never their provenance, which names paths.

Per job it prints whether the outputs are bitwise equal, the largest
difference relative to the job's largest finite |entry| at the revision,
and whether the labels are identical.

Usage: ``python3 tools/compare_outputs.py REV [--rtol R]``. Exits 0 when
every job's labels are identical and its floats are bitwise equal
(``--rtol`` 0, the default) or within ``R`` relative; 1 otherwise.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("tables", "verify", "extend", "inverse")
SEEDS = (0, 1, 2)
PASSES = (0, 1)
# outputs compared as labels, besides every non-float array and the verdict
LABELS = ("flags", "baseline_degree")

# run in each tree: sys.argv[1] is this file, sys.argv[2] the output file
_CHILD = "import runpy, sys; runpy.run_path(sys.argv[1])['dump'](sys.argv[2])"


def canonical(obj, floats, labels, path="", seen=None):
    """Append ``obj``'s floating-point leaves to ``floats``, and its other
    arrays and every value named in ``LABELS``, each with its path, to
    ``labels``. Other leaves (names, messages, counts) are skipped."""
    seen = set() if seen is None else seen
    if isinstance(obj, (float, complex, np.floating, np.complexfloating)):
        floats.append(complex(obj))
    elif isinstance(obj, np.ndarray):
        if obj.dtype.kind in "fc":
            floats.extend(obj.astype(complex).ravel().tolist())
        else:
            labels.append(f"{path}={obj.tolist()!r}")
    elif isinstance(obj, (str, bytes, int, np.integer, np.bool_, BaseException, type)) \
            or obj is None or inspect.isroutine(obj) or id(obj) in seen:
        return
    elif isinstance(obj, (list, tuple)):
        seen.add(id(obj))
        for i, item in enumerate(obj):
            canonical(item, floats, labels, f"{path}[{i}]", seen)
    else:
        seen.add(id(obj))
        if isinstance(obj, dict):
            items = sorted(obj.items(), key=lambda kv: repr(kv[0]))
        else:
            names = set(getattr(obj, "__dict__", ()))
            for cls in type(obj).__mro__:
                names |= set(getattr(cls, "__slots__", ()))
            items = [(n, getattr(obj, n)) for n in sorted(names) if not n.startswith("_")]
        for key, value in items:
            if key in LABELS:
                labels.append(f"{path}.{key}={value!r}")
            else:
                canonical(value, floats, labels, f"{path}.{key}", seen)


def _artifacts(workdir):
    """The "result" and "report" sections of every JSON file a job wrote,
    or the whole file when it has neither."""
    out = {}
    for path in sorted(Path(workdir).glob("*.json")):
        obj = json.loads(path.read_text(encoding="utf-8"))
        keep = {k: obj[k] for k in ("result", "report") if k in obj}
        out[path.name] = keep or obj
    return out


def _job_record(job):
    floats, labels = [], []
    try:
        output = job.run()
    except Exception as exc:  # noqa: BLE001 - a raising job is an outcome to compare
        labels.append(f"raised {type(exc).__name__}: {exc}")
    else:
        canonical(output, floats, labels, "output")
        if job.workdir:
            canonical(_artifacts(job.workdir), floats, labels, "artifacts")
        verdict = job.check(output)
        labels.append(f"verdict ok={verdict.ok} flagged={verdict.flagged} notes={verdict.notes}")
    return np.array(floats, dtype=complex), labels


def dump(out_path):
    """Run every job in the tree this process imports and save each one's
    canonical output to ``out_path`` (npz)."""
    from bench.workloads import make_pass

    arrays, meta = {}, []
    with tempfile.TemporaryDirectory() as workdir:
        for workload in WORKLOADS:
            for seed in SEEDS:
                for pass_index in PASSES:
                    jobs = make_pass(workload, seed, pass_index, os.path.join(workdir, f"s{seed}"))
                    for position, job in enumerate(jobs):
                        floats, labels = _job_record(job)
                        arrays[f"f{len(meta)}"] = floats
                        meta.append({"job": f"{workload} seed {seed} pass {pass_index} "
                                            f"#{position} {job.kind}",
                                     "labels": labels})
    arrays["meta"] = np.array(json.dumps(meta))
    np.savez(out_path, **arrays)


def _load(path):
    with np.load(path) as z:
        meta = json.loads(str(z["meta"]))
        return {m["job"]: (z[f"f{i}"], m["labels"]) for i, m in enumerate(meta)}


def _spawn(tree, out_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tree / "src"), str(tree)]),
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return subprocess.Popen([sys.executable, "-c", _CHILD, str(Path(__file__).resolve()), out_path],
                            cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                            text=True)


def compare(base, head, rtol):
    """Per job (name, bitwise equal, largest relative difference, labels
    identical, within rtol) for jobs in either run."""
    rows = []
    for name in sorted(set(base) | set(head)):
        if name not in base or name not in head:
            rows.append((name, False, np.inf, False, False))
            continue
        (fb, tb), (fh, th) = base[name], head[name]
        equal = fb.tobytes() == fh.tobytes() and tb == th
        if fb.shape != fh.shape:
            rel = np.inf
        else:
            diff = np.abs(fb - fh)
            both_nan = np.isnan(fb) & np.isnan(fh)
            diff = np.where(both_nan, 0.0, np.where(np.isnan(diff), np.inf, diff))
            finite = np.abs(fb[np.isfinite(fb)])
            scale = float(finite.max()) if finite.size and finite.max() > 0 else 1.0
            rel = float(diff.max()) / scale if diff.size else 0.0
        same = tb == th
        ok = same and (rel <= rtol if rtol > 0 else equal)
        rows.append((name, equal, rel, same, ok))
    return rows


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("rev", help="git revision to compare the working tree with")
    ap.add_argument("--rtol", type=float, default=0.0,
                    help="largest relative difference accepted; 0 means bitwise (default)")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "rev"
        subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--detach", "--quiet",
                        str(tree), args.rev], check=True)
        try:
            outs = {side: str(Path(tmp) / f"{side}.npz") for side in ("rev", "tree")}
            procs = {"rev": _spawn(tree, outs["rev"]), "tree": _spawn(ROOT, outs["tree"])}
            for side, proc in procs.items():
                err = proc.communicate()[1]
                if proc.returncode:
                    print(f"{side}: job run failed\n{err}", file=sys.stderr)
                    return 1
            rows = compare(_load(outs["rev"]), _load(outs["tree"]), args.rtol)
        finally:
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force", str(tree)],
                           check=False)
    print(f"{'job':<44} {'bitwise':>7} {'max rel diff':>12} {'labels':>9}")
    for name, equal, rel, same, _ in rows:
        print(f"{name:<44} {'equal' if equal else 'differ':>7} {rel:>12.3e} "
              f"{'identical' if same else 'differ':>9}")
    failed = [name for name, *_, ok in rows if not ok]
    print(f"{len(rows)} jobs: {sum(r[1] for r in rows)} bitwise equal, "
          f"{sum(r[3] for r in rows)} with identical labels, {len(failed)} beyond rtol {args.rtol:g}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
