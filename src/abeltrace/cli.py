"""Command-line interface: trace sampling, transform assembly,
verification reports, reconstruction, and trace extension.

Exit codes: 0 success / verification passed, 1 input or usage error,
2 verification failed. Every JSON artifact includes provenance (the
command, input file hashes and the job's parameters); no computation is
randomized, so identical jobs produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import sys
from dataclasses import dataclass, field

from . import serialize as ser
from .errors import AbelTraceError
from .geometry import ResidueData
from .radon import (
    propagate_trace_extension,
    radon_coefficients,
    reparametrize_check,
    verify_holomorphy,
    verify_shock_relations,
)
from .reconstruct import reconstruct_global, verify_traces_match
from .residues import GridPlan, TorusPlan, trace, trace_table

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_FAILED = 2


@dataclass
class JobSpec:
    """A fully resolved CLI job: command, input paths, parameters, and
    the output path (None writes JSON to stdout)."""

    command: str
    inputs: dict
    params: dict = field(default_factory=dict)
    output: str = None


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()


def _provenance(job: JobSpec):
    return {
        "command": job.command,
        "inputs": {k: _sha256(v) for k, v in sorted(job.inputs.items())},
        "params": dict(sorted(job.params.items())),
    }


def _parse_plan(text, domain):
    """Plan syntax: '5x5' / '7' for real grids over the varying
    parameters (in order), 'torus:16' for distinguished-boundary nodes."""
    if text.startswith("torus:"):
        return TorusPlan(int(text.split(":", 1)[1]))
    counts = [int(s) for s in text.lower().split("x")]
    names = domain.varying
    if len(counts) != len(names):
        raise ValueError(
            f"grid {text!r} has {len(counts)} axes but domain varies {list(names)}"
        )
    return GridPlan(dict(zip(names, counts)))


def _load_data(job):
    variety = ser.decode_variety(ser.load_json(job.inputs["variety"]))
    numerator = ser.decode_multipoly(ser.load_json(job.inputs["numerator"]))
    weight = None
    if "weight" in job.inputs:
        weight = ser.decode_multipoly(ser.load_json(job.inputs["weight"]))
    return ResidueData(variety, numerator, label=job.params.get("label", ""),
                       weight=weight)


def _load_artifact(path):
    """Load a JSON artifact, unwrapping the {"result": ...} envelope that
    this CLI writes."""
    obj = ser.load_json(path)
    return obj.get("result", obj) if isinstance(obj, dict) else obj


def _emit(job, payload, report_lines):
    # encoded results are JSON-safe already; reports and provenance are
    # small trees that ser.plain converts
    payload = {k: v if k == "result" else ser.plain(v) for k, v in payload.items()}
    payload["provenance"] = ser.plain(_provenance(job))
    text = ser.dumps(payload)
    if job.output:
        with open(job.output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        for line in report_lines:
            print(line)
    else:
        sys.stdout.write(text)
        for line in report_lines:
            print(line, file=sys.stderr)


def run(job: JobSpec):
    """Execute one job; returns the process exit code."""
    handler = {
        "trace": _run_trace,
        "radon": _run_radon,
        "reconstruct": _run_reconstruct,
        "extend": _run_extend,
        "verify-shock": _run_verify_shock,
        "verify-holomorphy": _run_verify_holomorphy,
        "verify-match": _run_verify_match,
        "verify-equivariance": _run_verify_equivariance,
    }.get(job.command)
    if handler is None:
        print(f"unknown command {job.command!r}", file=sys.stderr)
        return EXIT_INPUT
    try:
        return handler(job)
    except (AbelTraceError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def _run_trace(job):
    data = _load_data(job)
    domain = ser.decode_domain(ser.load_json(job.inputs["domain"]))
    plan = _parse_plan(job.params["grid"], domain)
    t = trace_table(data, domain, job.params["order"], plan,
                    tol=job.params["tol"])
    clean = int(sum(1 for f in t.flags if f == "clean"))
    _emit(job, {"result": ser.encode_trace_table(t)}, [
        f"trace table: {len(t.indices())} indices x {len(t.offsets)} samples, "
        f"{clean} clean, scale {t.scale():.6g}",
    ])
    return EXIT_OK


def _run_radon(job):
    data = _load_data(job)
    domain = ser.decode_domain(ser.load_json(job.inputs["domain"]))
    plan = _parse_plan(job.params["grid"], domain)
    rt = radon_coefficients(data, domain, plan, tol=job.params["tol"])
    poles = [i for i, f in enumerate(rt.flags) if f == "pole"]
    _emit(job, {"result": ser.encode_radon(rt)}, [
        f"transform: {len(rt.coeffs)} coefficient labels x {len(rt.offsets)} "
        f"samples, max |coeff| {rt.max_coefficient():.6g}, "
        f"{len(poles)} pole-flagged samples",
    ])
    return EXIT_OK


def _run_reconstruct(job):
    t = ser.decode_trace_table(_load_artifact(job.inputs["traces"]))
    rec = reconstruct_global(
        t, job.params["d_max"], job.params["deg_bound"], tol=job.params["tol"]
    )
    if rec.is_zero:
        lines = ["reconstruction: zero data (all traces vanish)"]
    else:
        lines = [
            f"reconstruction: degrees {list(rec.minimal.degrees)}, "
            f"numerator terms {len(rec.numerator.terms)}",
        ]
    _emit(job, {"result": ser.encode_reconstruction(rec)}, lines)
    return EXIT_OK


def _run_extend(job):
    t = ser.decode_trace_table(_load_artifact(job.inputs["traces"]))
    t.tol = job.params["tol"]  # a table stores no tol: resample at this one
    big = ser.decode_domain(ser.load_json(job.inputs["domain"]))
    ext = propagate_trace_extension(
        t, lambda charts: trace(t.data, charts, (0,) * t.p, tol=t.tol),
        big, job.params["order"],
    )
    _emit(job, {"result": ser.encode_trace_table(ext)}, [
        f"extension: {len(ext.indices())} indices on the enlarged polydisc, "
        f"{len(ext.offsets)} samples",
    ])
    return EXIT_OK


def _run_verify_shock(job):
    t = ser.decode_trace_table(_load_artifact(job.inputs["traces"]))
    rep = verify_shock_relations(t, job.params["tol"])
    _emit(job, {"report": rep.to_dict()}, [
        f"shock relations: {'PASS' if rep.passed else 'FAIL'} "
        f"(max residual {rep.max_residual:.3e}, tol {rep.tol:g}, "
        f"{rep.checked} checks)",
    ])
    return EXIT_OK if rep.passed else EXIT_FAILED


def _run_verify_holomorphy(job):
    rt = ser.decode_radon(_load_artifact(job.inputs["radon"]))
    rep = verify_holomorphy(rt, job.params["tol"])
    statuses = sorted(set(rep.status.values()))
    _emit(job, {"report": rep.to_dict()}, [
        f"holomorphy: {', '.join(statuses)}",
    ])
    return EXIT_OK if "inconclusive" not in statuses else EXIT_FAILED


def _run_verify_match(job):
    d1 = ser.decode_residue_data(_load_artifact(job.inputs["data1"]))
    d2 = ser.decode_residue_data(_load_artifact(job.inputs["data2"]))
    domain = ser.decode_domain(ser.load_json(job.inputs["domain"]))
    rep = verify_traces_match(
        d1, d2, domain, job.params["order"], job.params["tol"]
    )
    _emit(job, {"report": rep.to_dict()}, [
        f"trace match: {'PASS' if rep.passed else 'FAIL'} "
        f"(max residual {rep.max_residual:.3e}, tol {rep.tol:g})",
    ])
    return EXIT_OK if rep.passed else EXIT_FAILED


def _run_verify_equivariance(job):
    data = _load_data(job)
    domain = ser.decode_domain(ser.load_json(job.inputs["domain"]))
    mu = ser.decode_affine_map(ser.load_json(job.inputs["map"]))
    rep = reparametrize_check(data, domain, mu, tol=job.params["tol"])
    _emit(job, {"report": rep.to_dict()}, [
        f"equivariance: {'PASS' if rep.passed else 'FAIL'} "
        f"(max residual {rep.max_residual:.3e}, tol {rep.tol:g})",
    ])
    return EXIT_OK if rep.passed else EXIT_FAILED


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_data_args(sp):
    sp.add_argument("--variety", required=True, help="VarietySpec JSON")
    sp.add_argument("--numerator", required=True, help="MultiPoly JSON")
    sp.add_argument("--weight", help="optional denominator-weight MultiPoly JSON")
    sp.add_argument("--label", default="", help="data label for reports")


def _common(sp):
    sp.add_argument("--tol", type=float, default=1e-10)
    sp.add_argument("-o", "--output", help="output JSON path (default stdout)")


@functools.cache
def build_parser():
    """The argument parser, built once per process: parse_args fills a
    fresh namespace from the defaults on every call."""
    ap = argparse.ArgumentParser(
        prog="abeltrace",
        description="Traces and the Abel-Radon transform of rational residue "
                    "data, with inverse reconstruction from trace moments.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("trace", help="sample a trace table over a domain")
    _add_data_args(sp)
    sp.add_argument("--domain", required=True)
    sp.add_argument("--order", type=int, required=True)
    sp.add_argument("--grid", default="torus:8")
    _common(sp)

    sp = sub.add_parser("radon", help="sample the transform's coefficients")
    _add_data_args(sp)
    sp.add_argument("--domain", required=True)
    sp.add_argument("--grid", default="5x5")
    _common(sp)

    sp = sub.add_parser("reconstruct", help="recover data from a trace table")
    sp.add_argument("--traces", required=True)
    sp.add_argument("--d-max", type=int, default=6)
    sp.add_argument("--deg-bound", type=int, default=None)
    sp.add_argument("--tol", type=float, default=1e-8)
    sp.add_argument("-o", "--output")

    sp = sub.add_parser("extend", help="propagate traces to a larger polydisc")
    sp.add_argument("--traces", required=True)
    sp.add_argument("--domain", required=True, help="enlarged DomainSpec JSON")
    sp.add_argument("--order", type=int, required=True)
    _common(sp)

    vp = sub.add_parser("verify", help="verification reports")
    vsub = vp.add_subparsers(dest="check", required=True)

    sp = vsub.add_parser("shock", help="closedness relations on a trace table")
    sp.add_argument("--traces", required=True)
    sp.add_argument("--tol", type=float, default=1e-6)
    sp.add_argument("-o", "--output")

    sp = vsub.add_parser("holomorphy", help="pole classification of a transform")
    sp.add_argument("--radon", required=True)
    sp.add_argument("--tol", type=float, default=1e-6)
    sp.add_argument("-o", "--output")

    sp = vsub.add_parser("match", help="trace agreement of two datasets")
    sp.add_argument("--data1", required=True)
    sp.add_argument("--data2", required=True)
    sp.add_argument("--domain", required=True)
    sp.add_argument("--order", type=int, default=4)
    sp.add_argument("--tol", type=float, default=1e-8)
    sp.add_argument("-o", "--output")

    sp = vsub.add_parser("equivariance", help="reparametrization equivariance")
    _add_data_args(sp)
    sp.add_argument("--domain", required=True)
    sp.add_argument("--map", required=True, help="AffineMap JSON")
    sp.add_argument("--tol", type=float, default=1e-8)
    sp.add_argument("-o", "--output")

    return ap


def job_from_args(args):
    cmd = args.command
    if cmd == "verify":
        cmd = f"verify-{args.check}"
    inputs, params = {}, {}
    for key in ("variety", "numerator", "weight", "domain", "traces", "radon",
                "data1", "data2", "map"):
        val = getattr(args, key, None)
        if val is not None:
            inputs[key] = val
    for key in ("order", "grid", "tol", "label"):
        val = getattr(args, key, None)
        if val is not None:
            params[key] = val
    if cmd == "reconstruct":
        params["d_max"] = args.d_max
        params["deg_bound"] = args.deg_bound
    return JobSpec(cmd, inputs, params, getattr(args, "output", None))


def main(argv=None):
    args = build_parser().parse_args(argv)
    return run(job_from_args(args))


if __name__ == "__main__":
    sys.exit(main())
