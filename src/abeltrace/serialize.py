"""JSON encoding/decoding for every on-disk schema.

Complex numbers are [re, im] pairs of IEEE-754 doubles. Every encoder
returns JSON-safe values: a NaN trace entry is null and an infinite float
the string "inf" or "-inf". ``dumps`` writes compact JSON (sorted keys,
no whitespace, Python's shortest round-trip float repr, one trailing LF)
through CPython's C encoder, so identical objects serialize to
byte-identical UTF-8; ``python -m json.tool`` pretty-prints an artifact.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import fields

import numpy as np

from .errors import DimensionMismatch
from .geometry import DomainSpec, PlaneChart, ResidueData, VarietySpec
from .multipoly import MultiPoly
from .radon import AffineMap, RadonTransform, label_index
from .reconstruct import MinimalPolySet, ReconstructedData
from .residues import TraceTable


def _f(x):
    """A float as JSON: non-finite values as the strings float() reads."""
    x = float(x)
    return x if math.isfinite(x) else str(x)


def _c(z):
    z = complex(z)
    return [_f(z.real), _f(z.imag)]


def _uc(pair):
    if pair is None:
        return None
    return complex(float(pair[0]), float(pair[1]))


def encode_multipoly(mp: MultiPoly):
    terms = [
        {"coeff": _c(c), "exps": [int(e) for e in exps]}
        for exps, c in sorted(mp.terms.items())
    ]
    return {"vars": list(mp.vars), "terms": terms}


def decode_multipoly(obj):
    vars = tuple(obj["vars"])
    terms = {tuple(t["exps"]): _uc(t["coeff"]) for t in obj["terms"]}
    return MultiPoly(vars, terms)


def encode_variety(v: VarietySpec):
    return {
        "x_vars": list(v.x_vars),
        "y_vars": list(v.y_vars),
        "defs": [encode_multipoly(f) for f in v.defs],
        "degree": int(v.degree),
    }


def decode_variety(obj):
    return VarietySpec(
        tuple(obj["x_vars"]),
        tuple(obj["y_vars"]),
        [decode_multipoly(f) for f in obj["defs"]],
        degree=obj.get("degree"),
    )


def encode_residue_data(d: ResidueData):
    return {
        "variety": encode_variety(d.variety),
        "numerator": encode_multipoly(d.numerator),
        "label": d.label,
        "weight": encode_multipoly(d.weight) if d.weight is not None else None,
    }


def decode_residue_data(obj):
    return ResidueData(
        decode_variety(obj["variety"]),
        decode_multipoly(obj["numerator"]),
        label=obj.get("label", ""),
        weight=decode_multipoly(obj["weight"]) if obj.get("weight") else None,
    )


def encode_domain(dom: DomainSpec):
    # flat pinned form: center over all parameters, radius 0 = frozen
    names = dom.chart.param_names()
    vec = dom.chart.to_params()
    return {
        "n": dom.chart.n,
        "p": dom.chart.p,
        "center": [_c(z) for z in vec],
        "radii": [float(dom.radii.get(nm, 0.0)) for nm in names],
    }


def decode_domain(obj):
    """The DomainSpec of ``obj``, whose radii list has one entry per
    parameter, 0 for a frozen one: DimensionMismatch for a list of another
    length, ValueError (from DomainSpec) for a negative or non-finite
    radius."""
    n, p = int(obj["n"]), int(obj["p"])
    chart = PlaneChart.from_params(n, p, [_uc(z) for z in obj["center"]])
    names, radii = chart.param_names(), [float(r) for r in obj["radii"]]
    if len(radii) != len(names):
        raise DimensionMismatch(f"{len(radii)} radii for {len(names)} parameters")
    return DomainSpec(chart, {nm: r for nm, r in zip(names, radii) if r != 0})


def _index_key(idx):
    return ",".join(str(int(i)) for i in idx)


def _parse_index(key):
    return tuple(int(s) for s in key.split(","))


def _encode_values(arr):
    """[re, im] pairs of a complex array; null for an entry with a NaN part."""
    arr = np.asarray(arr, dtype=complex)
    if np.isfinite(arr).all():
        return np.stack((arr.real, arr.imag), axis=-1).tolist()
    return [None if cmath.isnan(z) else _c(z) for z in arr.tolist()]


def _decode_values(items):
    """The complex array of _encode_values' pairs; null is complex(nan, nan)."""
    pairs = [(np.nan, np.nan) if it is None else it for it in items]
    return np.array(pairs, dtype=float).reshape(len(items), 2).view(complex)[:, 0]


def encode_offsets(offsets):
    return [{k: _c(v) for k, v in sorted(off.items())} for off in offsets]


def decode_offsets(items):
    return [{k: _uc(v) for k, v in off.items()} for off in items]


def encode_trace_table(t: TraceTable):
    return {
        "kind": "trace_table",
        "source": encode_residue_data(t.data),
        "domain": encode_domain(t.domain),
        "max_order": t.max_order,
        "baseline_degree": t.baseline_degree,
        "offsets": encode_offsets(t.offsets),
        "entries": {
            _index_key(idx): _encode_values(vals) for idx, vals in t.entries.items()
        },
        "term_scales": [_f(s) for s in t.term_scales.tolist()],
        "flags": list(t.flags),
    }


def decode_trace_table(obj):
    data = decode_residue_data(obj["source"])
    domain = decode_domain(obj["domain"])
    offsets = decode_offsets(obj["offsets"])
    entries = {
        _parse_index(k): _decode_values(v) for k, v in obj["entries"].items()
    }
    return TraceTable(
        data, domain, offsets, entries,
        np.asarray(obj["term_scales"], dtype=float),
        tuple(obj["flags"]), obj["max_order"], obj["baseline_degree"],
    )


def encode_radon(rt: RadonTransform):
    return {
        "kind": "radon_transform",
        "source": encode_residue_data(rt.data),
        "domain": encode_domain(rt.domain),
        "baseline_degree": rt.baseline_degree,
        "offsets": encode_offsets(rt.offsets),
        "coefficients": {
            _index_key(lb): _encode_values(vals) for lb, vals in rt.coeffs.items()
        },
        "term_scales": [_f(s) for s in rt.term_scales.tolist()],
        "flags": list(rt.flags),
    }


def decode_radon(obj):
    # labels sharing a count vector carry the same values; keep one array
    data = decode_residue_data(obj["source"])
    p = data.variety.p
    entries = {
        label_index(_parse_index(k), p): _decode_values(v)
        for k, v in obj["coefficients"].items()
    }
    return RadonTransform(
        data, decode_domain(obj["domain"]), decode_offsets(obj["offsets"]),
        entries, np.asarray(obj["term_scales"], dtype=float),
        tuple(obj["flags"]), data.variety.n, int(obj["baseline_degree"]),
    )


def encode_unipoly(p):
    return [_c(c) for c in p.coeffs]


def decode_unipoly(items):
    from .numeric import UniPoly

    return UniPoly([_uc(c) for c in items])


def encode_reconstruction(rec: ReconstructedData):
    m = rec.minimal
    return {
        "kind": "reconstruction",
        "is_zero": bool(rec.is_zero),
        "base_var": m.base_var,
        "y_vars": list(m.y_vars),
        "degrees": [int(d) for d in m.degrees],
        "minimal_coeffs": [
            [encode_unipoly(c) for c in per_var] for per_var in m.coeffs
        ],
        "numerator": encode_multipoly(rec.numerator),
        "diagnostics": plain(rec.diagnostics),
    }


def decode_reconstruction(obj):
    minimal = MinimalPolySet(
        obj["base_var"],
        tuple(obj["y_vars"]),
        tuple(obj["degrees"]),
        tuple(
            tuple(decode_unipoly(c) for c in per_var)
            for per_var in obj["minimal_coeffs"]
        ),
        obj.get("diagnostics", {}),
    )
    return ReconstructedData(
        minimal,
        decode_multipoly(obj["numerator"]),
        obj.get("diagnostics", {}),
        is_zero=obj.get("is_zero", False),
    )


def decode_affine_map(obj):
    m = np.array([[_uc(z) for z in row] for row in obj["matrix"]])
    v = np.array([_uc(z) for z in obj["offset"]])
    return AffineMap(m, v)


def encode_report(rep):
    """A check report (ShockReport, HolomorphyReport, EquivarianceReport,
    MatchReport) as its dataclass fields, less the in-memory ``details``
    and ``diagnostics``."""
    return plain({f.name: getattr(rep, f.name) for f in fields(rep)
                  if f.name not in ("details", "diagnostics")})


def plain(obj):
    """JSON-safe copy of a small tree (diagnostics, reports, provenance):
    complex as [re, im], numpy scalars as Python ones, floats by _f."""
    if isinstance(obj, dict):
        return {str(k): plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [plain(v) for v in obj]
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, complex):
        return _c(obj)
    return _f(obj) if isinstance(obj, float) else obj


def dumps(obj):
    """Compact deterministic JSON text of JSON-safe values (a NaN or an
    infinity raises ValueError): sorted keys, no whitespace, one LF."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False,
                      allow_nan=False) + "\n"


def load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
