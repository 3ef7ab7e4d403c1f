"""Seeded inputs, jobs, nominal chart counts and oracles of the four
benchmark workloads.

A workload is a fixed *job list* (one pass). A run repeats passes, and
pass k draws fresh inputs from (seed, workload, k, position), so a seed
fixes the whole job sequence while no pass can reuse an earlier pass's
results. The library only receives the generated polynomials, domains and
plans, and is called through its module attributes at call time so that
the traced run sees every call.

Nominal charts are computed from each job's inputs by formula (plan
offsets plus the baseline chart, distinct Cauchy nodes, torus, base-slice
and probe nodes), never counted inside the program, so a change that
solves charts another way is credited for the same work.

Oracles avoid the library's code path where an identity allows it: p=1
traces come from polynomial division (no root finding), p=2 traces from
Euler-Jacobi vanishing, reconstructions from the source coefficients.
Lifted charts, shock relations, holomorphy and equivariance are checked
against the paper identities the library exposes, at today's tolerances.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass, field
from math import comb

import numpy as np
from numpy.polynomial import polynomial as npoly

from abeltrace import cli, geometry, radon, residues, serialize
from abeltrace.multipoly import MultiPoly

V2 = ("x", "y")
V3 = ("x", "y1", "y2")

DIGITS_CAP = 16.0

# oracle tolerances (relative, normwise over a job's checked values)
TOL_TRACE = 1e-9        # division identity / hypersurface agreement
TOL_JACOBI = 1e-10      # Euler-Jacobi vanishing against the table scale
TOL_SHOCK = 1e-6        # acceptance criterion 5
TOL_EQUIV = 1e-8        # acceptance criterion 8
TOL_HOLO = 1e-6         # acceptance criterion 4
TOL_EXTEND = 1e-6       # acceptance criterion 6
TOL_RECON = 1e-6        # acceptance criterion 7

# job shapes; each enters the nominal chart formulas below
TABLE_NODES = 6         # p=1 trace_table: TorusPlan over (a1.1, b1)
RADON_GRID = 5          # radon_coefficients: GridPlan per parameter
P2_NODES = 3            # p=2 resultant table: TorusPlan over (a1.1, b1)
LIFT_NODES = 3          # Veronese-lifted table: TorusPlan over (a1.1, b1)
VERIFY_GRID = 3         # verify: small GridPlan table
VERIFY_ORDER = 3        # its max_order; shock checks indices 0..VERIFY_ORDER-1
SHOCK_PROBES = 3
SHOCK_NODES = 32
HOLO_GRID = 5           # designed pole grid: HOLO_GRID x HOLO_GRID charts
EQUIV_PROBES = 4
EXTEND_ORDER = 2
EXTEND_FFT = 12
EXTEND_SMALL_NODES = 4
EXTEND_PROBES = 4       # off-grid validation probes inside propagation
EXTEND_CHECKS = 5       # off-grid oracle probes (outside the timer)
INVERSE_NODES = 16      # CLI trace grid torus:16
MATCH_NODES = 6         # verify_traces_match's default TorusPlan(6)
MATCH_ORDER = 3
RECON_DEG_BOUND = 2

WORKLOAD_IDS = {"tables": 1, "verify": 2, "extend": 3, "inverse": 4}
WARMUP_PASS = 2**31 - 1


# ---------------------------------------------------------------------------
# jobs and verdicts
# ---------------------------------------------------------------------------

@dataclass
class Job:
    """One closed-loop job: ``run()`` is timed, ``check(output)`` is not."""

    kind: str
    spec: dict
    charts: int
    run: object
    check: object
    workdir: str = None
    cli_ms: dict = field(default_factory=dict)


class Verdict:
    """Outcome of one job's oracle checks: pass/fail plus the digits of
    agreement (-log10 of the worst relative error, capped at 16)."""

    def __init__(self):
        self.ok = True
        self.digits = DIGITS_CAP
        self.notes = []
        self.flagged = 0
        self.bytes_written = 0

    def close(self, what, err, tol):
        err = float(err)
        if not math.isfinite(err):
            self.digits = 0.0
        elif err > 0.0:
            self.digits = min(self.digits, max(0.0, -math.log10(err)))
        if not err <= tol:
            self.fail(f"{what}: relative error {err:.3e} > {tol:g}")

    def require(self, what, cond):
        if not cond:
            self.fail(what)

    def fail(self, note):
        self.ok = False
        self.notes.append(note)


def rel_err(got, want, floor=0.0):
    """max |got - want| / max(max |want|, floor), NaN-propagating."""
    got = np.asarray(got, dtype=complex)
    want = np.asarray(want, dtype=complex)
    if got.shape != want.shape:
        return math.inf
    scale = max(float(np.max(np.abs(want))) if want.size else 0.0, floor, 1e-300)
    return float(np.max(np.abs(got - want))) / scale if got.size else 0.0


def plain(obj):
    """JSON-safe copy of an input spec (complex -> [re, im])."""
    if isinstance(obj, dict):
        return {str(k): plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [plain(v) for v in obj]
    if isinstance(obj, (complex, np.complexfloating)):
        return [float(obj.real), float(obj.imag)]
    if isinstance(obj, np.generic):
        return obj.item()
    return obj


def spec_bytes(spec):
    return json.dumps(plain(spec), sort_keys=True).encode()


# ---------------------------------------------------------------------------
# independent helpers (no library code)
# ---------------------------------------------------------------------------

def _c(rng, scale=1.0):
    return complex(rng.normal(0.0, scale), rng.normal(0.0, scale))


def _line_poly(terms, a, b):
    """Coefficients, lowest first, of f(a*y + b, y) for f = sum c x^i y^j."""
    deg = max(i + j for i, j in terms)
    out = np.zeros(deg + 1, dtype=complex)
    for (i, j), c in terms.items():
        for k in range(i + 1):
            out[j + k] += c * comb(i, k) * a**k * b ** (i - k)
    return out


def line_traces(f_terms, num_terms, a, b, kmax):
    """u_0..u_kmax of num dx^dy / f over the chart x = a*y + b, from the
    exact identity u_k = -[y^(d-1)] (h mod g) / lead(g) with
    g = f(a y + b, y) and h = num(a y + b, y) * y^k (no root finding)."""
    g = _line_poly(f_terms, a, b)
    d = len(g) - 1
    h = _line_poly(num_terms, a, b)
    out = np.empty(kmax + 1, dtype=complex)
    for k in range(kmax + 1):
        _, r = npoly.polydiv(np.concatenate([np.zeros(k, dtype=complex), h]), g)
        r = np.concatenate([r, np.zeros(max(0, d - len(r)), dtype=complex)])
        out[k] = -r[d - 1] / g[-1]
    return out


def torus_offsets(radii, nodes):
    """TorusPlan offsets over (a1.1, b1), in the plan's sample order."""
    ring = np.exp(2j * np.pi * np.arange(nodes) / nodes)
    return [
        {"a1.1": radii["a1.1"] * ring[i], "b1": radii["b1"] * ring[j]}
        for i in range(nodes) for j in range(nodes)
    ]


def grid_offsets(radii, count):
    """GridPlan offsets over (a1.1, b1), in the plan's sample order."""
    ticks = np.linspace(-1.0, 1.0, count)
    return [
        {"a1.1": radii["a1.1"] * ti, "b1": radii["b1"] * tj}
        for ti in ticks for tj in ticks
    ]


def _same_offsets(got, want):
    """Reported sample offsets equal the plan's, as sets."""
    def key(off):
        return sorted(
            (k, round(complex(v).real, 12), round(complex(v).imag, 12))
            for k, v in off.items() if complex(v) != 0
        )
    return len(got) == len(want) and sorted(map(key, got)) == sorted(map(key, want))


def _plane_curve(rng, d):
    """Monic in y of degree d and total degree d. The top-form x terms are
    small, so the substituted degree stays d on every sampled chart."""
    terms = {(0, d): 1.0 + 0j}
    for i in range(d + 1):
        for j in range(d + 1 - i):
            if (i, j) != (0, d):
                terms[(i, j)] = _c(rng, 0.05 if i + j == d else 0.4)
    return terms


def _numerator(rng):
    return {e: _c(rng) for e in ((0, 0), (1, 0), (0, 1), (0, 2))}


def _data(f_terms, num_terms, weight=None, vars=V2):
    y_vars = vars[1:]
    variety = geometry.VarietySpec(
        vars[:1], y_vars, [MultiPoly(vars, f) for f in f_terms]
    )
    w = MultiPoly(vars, weight) if weight is not None else None
    return geometry.ResidueData(variety, MultiPoly(vars, num_terms), weight=w)


def _check_line_table(v, offsets, columns, f, num, a0, b0, kmax):
    """Compare sampled u_0..u_kmax (columns[k][s]) with the division
    identity at each reported offset."""
    got, want = [], []
    for s, off in enumerate(offsets):
        a = a0 + complex(off.get("a1.1", 0.0))
        b = b0 + complex(off.get("b1", 0.0))
        want.append(line_traces(f, num, a, b, kmax))
        got.append([columns[k][s] for k in range(kmax + 1)])
    v.close("traces vs division identity", rel_err(got, want), TOL_TRACE)


def _clean(flags):
    return all(f in ("clean", "cluster") for f in flags)


# ---------------------------------------------------------------------------
# tables: forward sampling through the library API
# ---------------------------------------------------------------------------

def _p1_table_job(rng, d):
    f, num = _plane_curve(rng, d), _numerator(rng)
    a0, b0 = _c(rng, 0.1), _c(rng, 0.5)
    radii = {"a1.1": 0.15, "b1": 0.4}
    data = _data([f], num)
    domain = geometry.DomainSpec(geometry.PlaneChart([[a0]], [b0]), radii)
    plan = residues.TorusPlan(TABLE_NODES)

    def run():
        return residues.trace_table(data, domain, None, plan)

    def check(t):
        v = Verdict()
        kmax = 2 * d + 1
        v.require("baseline degree", t.baseline_degree == d)
        v.require("default max_order 2d+1", t.max_order == kmax)
        v.require("all samples clean", _clean(t.flags))
        v.require("plan offsets", _same_offsets(t.offsets, torus_offsets(radii, TABLE_NODES)))
        cols = [t.entries[(k,)] for k in range(kmax + 1)]
        _check_line_table(v, t.offsets, cols, f, num, a0, b0, kmax)
        return v

    spec = {"kind": "p1_table", "f": f, "num": num, "center": [a0, b0],
            "radii": radii, "torus": TABLE_NODES}
    return Job("p1_table", spec, TABLE_NODES**2 + 1, run, check)


def _radon_job(rng, d):
    # y^(d-1) and y^(d-2) numerator terms keep u_0 and u_1 away from zero
    f = _plane_curve(rng, d)
    num = {e: _c(rng) for e in ((0, 0), (1, 0), (0, d - 2), (0, d - 1))}
    a0, b0 = _c(rng, 0.1), _c(rng, 0.5)
    radii = {"a1.1": 0.15, "b1": 0.4}
    data = _data([f], num)
    domain = geometry.DomainSpec(geometry.PlaneChart([[a0]], [b0]), radii)
    plan = residues.GridPlan({"a1.1": RADON_GRID, "b1": RADON_GRID})

    def run():
        return radon.radon_coefficients(data, domain, plan)

    def check(rt):
        v = Verdict()
        v.require("baseline degree", rt.baseline_degree == d)
        v.require("all samples clean", _clean(rt.flags))
        v.require("plan offsets", _same_offsets(rt.offsets, grid_offsets(radii, RADON_GRID)))
        # label (0,) carries u_0 (the b slot), label (1,) carries u_1
        cols = [rt.coeffs[(0,)], rt.coeffs[(1,)]]
        _check_line_table(v, rt.offsets, cols, f, num, a0, b0, 1)
        return v

    spec = {"kind": "radon", "f": f, "num": num, "center": [a0, b0],
            "radii": radii, "grid": RADON_GRID}
    return Job("radon", spec, RADON_GRID**2 + 1, run, check)


def _p2_system(rng, d1, d2):
    """Two dense equations in (y1, y2), each using both variables (not
    triangular), with top forms y1^d1 + y2^d1 and y1^d2 - 2 y2^d2: they
    share no zero at infinity (|y1| = |y2| against |y1|^d2 = 2|y2|^d2),
    which Euler-Jacobi vanishing needs. x enters linearly, so plane
    substitution leaves the top forms unchanged."""
    def one(d, lead2):
        terms = {(0, d, 0): 1.0 + 0j, (0, 0, d): lead2 + 0j}
        for j1 in range(d):
            for j2 in range(d - j1):
                terms[(0, j1, j2)] = _c(rng, 0.5)
        terms[(1, 0, 0)] = 1.0 + _c(rng, 0.2)
        return terms
    return one(d1, 1.0), one(d2, -2.0)


def _p2_job(rng, d1, d2):
    f1, f2 = _p2_system(rng, d1, d2)
    a0 = [_c(rng, 0.1), _c(rng, 0.1)]
    b0 = _c(rng, 0.5)
    radii = {"a1.1": 0.1, "b1": 0.3}
    data = _data([f1, f2], {(0, 0, 0): 1.0 + 0j}, vars=V3)
    domain = geometry.DomainSpec(geometry.PlaneChart([a0], [b0]), radii)
    plan = residues.TorusPlan(P2_NODES)
    order = d1 + d2 - 2

    def run():
        return residues.trace_table(data, domain, order, plan)

    def check(t):
        v = Verdict()
        # a resultant shortfall shows here: the baseline is the Bezout count
        v.require(f"baseline degree {t.baseline_degree} != {d1 * d2}",
                  t.baseline_degree == d1 * d2)
        v.require("all samples clean", _clean(t.flags))
        v.require("sample count", len(t.offsets) == P2_NODES**2)
        scale = max(float(np.max(np.abs(col))) for col in t.entries.values())
        low = [t.entries[idx] for idx in t.entries if sum(idx) <= d1 + d2 - 3]
        v.require("Jacobi indices present", len(low) == (d1 + d2 - 2) * (d1 + d2 - 1) // 2)
        v.close("Euler-Jacobi vanishing", rel_err(low, np.zeros_like(low), scale),
                TOL_JACOBI)
        return v

    spec = {"kind": "p2_resultant", "f1": f1, "f2": f2, "a": a0, "b": b0,
            "radii": radii, "torus": P2_NODES, "order": order}
    return Job("p2_resultant", spec, P2_NODES**2 + 1, run, check)


def _lifted_job(rng):
    """Degree-2 Veronese lift of a cubic y^2 = x^3 + c2 x^2 + c1 x + c0."""
    f = {(0, 2): 1.0 + 0j, (3, 0): -1.0 + 0j}
    for e in range(3):
        f[(e, 0)] = -_c(rng, 0.3)
    num = {(0, 0): _c(rng), (1, 1): _c(rng)}
    base = _data([f], num)
    v_lift, cmap = geometry.veronese_lift(base.variety, 2)
    lifted = geometry.lift_residue_data(base, v_lift)
    # a0 holds the coefficients of (y, x^2, xy, y^2); the y^2 one is the
    # conic's only top-form term at the cubic's point at infinity (0:1:0),
    # so it stays away from 0, where a sixth point runs off to infinity
    a0 = [0.35 * _c(rng) for _ in range(3)]
    a0.append((0.25 + 0.25 * rng.uniform()) * np.exp(2j * np.pi * rng.uniform()))
    b0 = 0.8 + 0.25 * _c(rng)
    radii = {"a1.1": 0.05, "b1": 0.1}
    domain = geometry.DomainSpec(geometry.PlaneChart([a0], [b0]), radii)
    plan = residues.TorusPlan(LIFT_NODES)

    def run():
        return residues.trace_table(lifted, domain, 1, plan)

    def check(t):
        v = Verdict()
        v.require("baseline degree 6", t.baseline_degree == 6)
        v.require("all samples clean", _clean(t.flags))
        v.require("plan offsets", _same_offsets(t.offsets, torus_offsets(radii, LIFT_NODES)))
        got, want = [], []
        for s, off in enumerate(t.offsets):
            a = list(a0)
            a[0] += complex(off.get("a1.1", 0.0))
            b = b0 + complex(off.get("b1", 0.0))
            hyper = cmap[0] - MultiPoly.constant(b, V2)
            for j in range(1, 5):
                hyper = hyper - a[j - 1] * cmap[j]
            # hypersurface_trace's sum, with the section solved once per chart
            points = geometry.hypersurface_section(base.variety, hyper)
            v.require("simple section points", all(pt.cluster_size == 1 for pt in points))
            weights = [sum(c * pt.coords[0] ** e[0] * pt.coords[1] ** e[1]
                           for e, c in num.items()) / pt.jacobian for pt in points]
            # lifted fiber variables are (y, x^2, xy, y^2)
            for idx in sorted(t.entries):
                ex, ey = 2 * idx[1] + idx[2], idx[0] + idx[2] + 2 * idx[3]
                want.append(sum(w * pt.coords[0] ** ex * pt.coords[1] ** ey
                                for w, pt in zip(weights, points)))
                got.append(t.entries[idx][s])
        v.close("lifted vs hypersurface traces", rel_err(got, want, 1.0), TOL_TRACE)
        return v

    spec = {"kind": "lifted", "f": f, "num": num, "a": a0, "b": b0,
            "radii": radii, "torus": LIFT_NODES}
    return Job("lifted", spec, LIFT_NODES**2 + 1, run, check)


def _tables_pass(job_rng):
    jobs = []
    for g in range(5):
        d = 3 + g
        d1, d2 = ((2, 2), (2, 3), (3, 2))[g % 3]
        jobs += [
            _p1_table_job(job_rng(), d),
            _radon_job(job_rng(), d),
            _p2_job(job_rng(), d1, d2),
            _lifted_job(job_rng()),
        ]
    # a 21st job (the costliest resultant shape) makes the list length odd
    jobs.append(_p2_job(job_rng(), 3, 3))
    return jobs


# ---------------------------------------------------------------------------
# verify: structural checks on many charts, few indices each
# ---------------------------------------------------------------------------

def _pole_design(rng):
    """Acceptance-criterion-4 style design: weight x - x0 vanishes on
    y^2 = P(x) exactly at (x0, +-y0); the grid's diagonal charts are the
    lines through (x0, y0), every other chart misses both points."""
    pc = [_c(rng, 0.3), _c(rng, 0.3), _c(rng, 0.3), 1.0]  # lowest first
    f = {(0, 2): 1.0 + 0j}
    for e, c in enumerate(pc):
        f[(e, 0)] = f.get((e, 0), 0j) - c
    x0 = 2.0 + _c(rng, 0.2)
    y0 = np.sqrt(npoly.polyval(x0, pc))
    a_tangent = 2.0 * y0 / npoly.polyval(x0, npoly.polyder(pc))
    # positive slopes, so no off-diagonal line meets (x0, -y0); keep the
    # window away from the tangent slope at (x0, y0)
    windows = [0.08 * np.arange(1, HOLO_GRID + 1), 0.08 * np.arange(1, HOLO_GRID + 1) + 0.45]
    avals = max(windows, key=lambda w: float(np.min(np.abs(w - a_tangent))))
    bvals = x0 - y0 * avals
    ca, cb = complex(np.mean(avals)), complex(np.mean(bvals))
    offs = tuple({"a1.1": a - ca, "b1": b - cb} for a in avals for b in bvals)
    radii = {"a1.1": 0.25, "b1": 1.25 * float(np.max(np.abs(bvals - cb)))}
    return f, x0, ca, cb, offs, radii


def _verify_job(rng, d):
    f = _plane_curve(rng, d)
    num = {(i, j): _c(rng) for i in range(2) for j in range(2)}
    a0, b0 = _c(rng, 0.1), 2.0 + _c(rng, 0.3)
    radii = {"a1.1": 0.3, "b1": 0.5}
    data = _data([f], num)
    domain = geometry.DomainSpec(geometry.PlaneChart([[a0]], [b0]), radii)
    plan = residues.GridPlan({"a1.1": VERIFY_GRID, "b1": VERIFY_GRID})

    fw, x0, ca, cb, offs, wradii = _pole_design(rng)
    wdata = _data([fw], {(0, 0): 2.0 + 0j}, weight={(1, 0): 1.0 + 0j, (0, 0): -x0})
    wdomain = geometry.DomainSpec(geometry.PlaneChart([[ca]], [cb]), wradii)
    wplan = residues.ListPlan(offs)

    m = np.eye(2) + 0.3 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    shift = 0.1 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
    mu = radon.AffineMap(m, shift)

    def run():
        t = residues.trace_table(data, domain, VERIFY_ORDER, plan)
        shock = radon.verify_shock_relations(
            t, TOL_SHOCK, probes=SHOCK_PROBES, nodes=SHOCK_NODES
        )
        rt = radon.radon_coefficients(wdata, wdomain, wplan)
        holo = radon.verify_holomorphy(rt, TOL_HOLO)
        equiv = radon.reparametrize_check(
            data, domain, mu, tol=TOL_EQUIV, probes=EQUIV_PROBES
        )
        return t, shock, rt, holo, equiv

    def check(out):
        t, shock, rt, holo, equiv = out
        v = Verdict()
        v.require("table samples clean", _clean(t.flags))
        v.require("table plan offsets", _same_offsets(t.offsets, grid_offsets(radii, VERIFY_GRID)))
        _check_line_table(v, t.offsets,
                          [t.entries[(k,)] for k in range(VERIFY_ORDER + 1)],
                          f, num, a0, b0, VERIFY_ORDER)
        v.require(f"shock relations pass (max residual {shock.max_residual:.3e})",
                  shock.passed)
        v.close("shock residual", shock.max_relative, TOL_SHOCK)
        v.require("shock checks", shock.checked == SHOCK_PROBES * VERIFY_ORDER)
        diagonal = {i * HOLO_GRID + i for i in range(HOLO_GRID)}
        poles = {i for i, fl in enumerate(rt.flags) if fl == "pole"}
        v.require(f"pole flags {sorted(poles)} on the designed diagonal", poles == diagonal)
        v.require("every label meromorphic",
                  set(holo.status.values()) == {"meromorphic"})
        v.require("pole samples on the diagonal",
                  all(set(s) == diagonal for s in holo.pole_samples.values()))
        v.require(f"equivariance passes (max residual {equiv.max_residual:.3e})",
                  equiv.passed)
        v.close("equivariance residual", equiv.max_relative, TOL_EQUIV)
        v.flagged = len(poles) + sum(1 for fl in t.flags if fl not in ("clean", "cluster"))
        return v

    charts = (
        VERIFY_GRID**2 + 1                       # table plan + baseline
        + SHOCK_PROBES * 2 * SHOCK_NODES         # distinct Cauchy nodes (b and a circles)
        + HOLO_GRID**2 + 1                       # pole grid + baseline
        + EQUIV_PROBES                           # equivariance image charts
    )
    spec = {"kind": "verify", "f": f, "num": num, "center": [a0, b0],
            "radii": radii, "pole_curve": fw, "x0": x0, "pole_offsets": offs,
            "pole_radii": wradii, "map": [m, shift]}
    return Job("verify", spec, charts, run, check)


def _verify_pass(job_rng):
    # an odd job count keeps the latency percentiles inside a cluster
    return [_verify_job(job_rng(), d) for d in (2, 3, 2, 3, 2)]


# ---------------------------------------------------------------------------
# extend: torus FFT fits, Gauss-Legendre segments, Taylor-model evaluation
# ---------------------------------------------------------------------------

def _extend_job(rng, family):
    """Trace extension at order 2 on a seeded parabola or cubic family.
    Both are monic in y with x linear, so traces are polynomial in the
    chart and the enlarged polydisc stays far from the discriminant."""
    s, c = 1.0 + _c(rng, 0.1), _c(rng, 0.3)
    if family == "parabola":
        f = {(0, 2): 1.0 + 0j, (1, 0): -s, (0, 0): -c}
    else:
        f = {(0, 3): 1.0 + 0j, (0, 1): _c(rng, 0.2), (1, 0): -s, (0, 0): -c}
    num = {(0, 0): 1.0 + _c(rng, 0.3), (0, 1): _c(rng, 0.3)}
    a0, b0 = _c(rng, 0.1), 3.0 + _c(rng, 0.2)
    center = geometry.PlaneChart([[a0]], [b0])
    small = geometry.DomainSpec(center, {"a1.1": 0.3, "b1": 0.8})
    big = geometry.DomainSpec(center, {"a1.1": 0.3, "b1": 1.6})
    data = _data([f], num)
    plan = residues.TorusPlan(EXTEND_SMALL_NODES)
    probes = [
        {"a1.1": 0.3 * 0.7 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform()),
         "b1": 1.6 * 0.7 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())}
        for _ in range(EXTEND_CHECKS)
    ]

    def run():
        t = residues.trace_table(data, small, EXTEND_ORDER, plan)
        return radon.propagate_trace_extension(
            t, lambda chart: residues.trace(data, chart, 0), big,
            order=EXTEND_ORDER, fft_nodes=EXTEND_FFT,
        )

    def check(ext):
        v = Verdict()
        got, want = [], []
        for off in probes:
            chart = big.chart_at(off)
            want.append(line_traces(f, num, a0 + off["a1.1"], b0 + off["b1"], EXTEND_ORDER))
            got.append([ext.model_value((k,), chart) for k in range(EXTEND_ORDER + 1)])
        v.close("extension model vs division identity", rel_err(got, want, 1.0), TOL_EXTEND)
        return v

    charts = (
        EXTEND_SMALL_NODES**2 + 1                # small table plan + baseline
        + EXTEND_FFT**2 + EXTEND_PROBES          # order-0 torus grid + validation probes
        + EXTEND_FFT                             # base-slice nodes, shared by every level
    )
    spec = {"kind": family, "f": f, "num": num, "center": [a0, b0], "probes": probes}
    return Job(f"extend_{family}", spec, charts, run, check)


def _extend_pass(job_rng):
    return [_extend_job(job_rng(), fam)
            for fam in ("parabola", "cubic", "parabola", "cubic", "parabola")]


# ---------------------------------------------------------------------------
# inverse: the CLI chain trace -> reconstruct -> verify match
# ---------------------------------------------------------------------------

def _minimal_slot(rng, d, x0):
    """Monic degree-d polynomial in y whose coefficients are quadratics in
    x: roots spread on the unit circle at x0, moved little over the disk.
    Returns {(x exponent, y exponent): coeff}."""
    roots = np.exp(2j * np.pi * (np.arange(d) + 0.25 * rng.uniform(size=d) + rng.uniform()) / d)
    base = np.poly(roots)[::-1]  # lowest first, monic
    terms = {(0, d): 1.0 + 0j}
    for j in range(d):
        dl, eps = _c(rng, 0.1), _c(rng, 0.05)
        # base_j + dl (x - x0) + eps (x - x0)^2, expanded in powers of x
        for e, c in enumerate((base[j] - dl * x0 + eps * x0**2, dl - 2 * eps * x0, eps)):
            terms[(e, j)] = complex(c)
    return terms


def _poly_json(vars, terms):
    return {"vars": list(vars), "terms": [
        {"coeff": [c.real, c.imag], "exps": list(e)} for e, c in sorted(terms.items())
    ]}


def _write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def _inverse_job(rng, degrees, workdir):
    """Product-form source: one monic minimal polynomial per fiber slot and
    a numerator of y-degree below each slot degree, which is exactly the
    shape the reconstruction returns."""
    p = len(degrees)
    vars = ("x",) + (("y",) if p == 1 else ("y1", "y2"))
    x0 = 1.0 + _c(rng, 0.3)
    defs = []
    for i, d in enumerate(degrees):
        slot = _minimal_slot(rng, d, x0)
        defs.append({(e,) + tuple(k if s == i else 0 for s in range(p)): c
                     for (e, k), c in slot.items()})
    num = {}
    for ys in np.ndindex(*degrees):
        for e in range(2):
            num[(e,) + tuple(ys)] = _c(rng)
    dmax = max(degrees)
    order = 2 * dmax + 1

    os.makedirs(workdir, exist_ok=True)
    path = {k: os.path.join(workdir, f"{k}.json") for k in (
        "variety", "numerator", "domain", "source", "traces", "rec", "recdata", "match")}
    variety = {"x_vars": ["x"], "y_vars": list(vars[1:]),
               "defs": [_poly_json(vars, t) for t in defs]}
    _write_json(path["variety"], variety)
    _write_json(path["numerator"], _poly_json(vars, num))
    _write_json(path["domain"], {
        "n": 1, "p": p, "center": [[0.0, 0.0]] * p + [[x0.real, x0.imag]],
        "radii": [0.0] * p + [0.6]})
    _write_json(path["source"], {"variety": variety, "numerator": _poly_json(vars, num),
                                 "label": "source", "weight": None})
    argv = {
        "trace": ["trace", "--variety", path["variety"], "--numerator", path["numerator"],
                  "--domain", path["domain"], "--order", str(order),
                  "--grid", f"torus:{INVERSE_NODES}", "-o", path["traces"]],
        "reconstruct": ["reconstruct", "--traces", path["traces"], "--d-max", str(dmax),
                        "--deg-bound", str(RECON_DEG_BOUND), "-o", path["rec"]],
        "verify-match": ["verify", "match", "--data1", path["source"],
                         "--data2", path["recdata"], "--domain", path["domain"],
                         "--order", str(MATCH_ORDER), "-o", path["match"]],
    }
    job = Job(f"inverse_p{p}", {}, 0, None, None, workdir=workdir)

    def timed_main(name):
        t0 = time.perf_counter()
        code = cli.main(argv[name])
        job.cli_ms.setdefault(name, []).append((time.perf_counter() - t0) * 1e3)
        return code

    def run():
        codes = [timed_main("trace"), timed_main("reconstruct")]
        # the reconstruction artifact as residue data for the match check
        rec = serialize.decode_reconstruction(serialize.load_json(path["rec"])["result"])
        with open(path["recdata"], "w", encoding="utf-8") as fh:
            fh.write(serialize.dumps(serialize.encode_residue_data(rec.to_residue_data())))
        codes.append(timed_main("verify-match"))
        return codes

    def check(codes):
        v = Verdict()
        v.require(f"CLI exit codes {codes}", codes == [0, 0, 0])
        with open(path["rec"], encoding="utf-8") as fh:
            rec = json.load(fh)["result"]
        with open(path["match"], encoding="utf-8") as fh:
            v.require("trace match passed", json.load(fh)["report"]["passed"] is True)
        v.require(f"degrees {rec['degrees']}", rec["degrees"] == list(degrees))
        got, want = [], []
        for i, d in enumerate(degrees):
            for j, cf in enumerate(rec["minimal_coeffs"][i], start=1):
                # a_j multiplies y_i^(d - j)
                for e in range(max(len(cf), RECON_DEG_BOUND + 1)):
                    key = (e,) + tuple(d - j if s == i else 0 for s in range(p))
                    got.append(complex(*cf[e]) if e < len(cf) else 0j)
                    want.append(defs[i].get(key, 0j))
        rec_num = {tuple(t["exps"]): complex(*t["coeff"]) for t in rec["numerator"]["terms"]}
        for key in set(rec_num) | set(num):
            got.append(rec_num.get(key, 0j))
            want.append(num.get(key, 0j))
        v.close("reconstructed coefficients vs source", rel_err(got, want, 1.0), TOL_RECON)
        v.bytes_written = sum(os.path.getsize(path[k]) for k in ("traces", "rec", "recdata", "match"))
        return v

    job.run, job.check = run, check
    job.spec = {"kind": job.kind, "defs": defs, "num": num, "x0": x0, "degrees": degrees}
    # trace: torus plan + baseline; match: two tables of MATCH_NODES + baseline
    job.charts = INVERSE_NODES + 1 + 2 * (MATCH_NODES + 1)
    return job


def _inverse_pass(job_rng, workdir):
    shapes = [(2,), (3,), (4,), (2, 2), (1, 2)]
    return [_inverse_job(job_rng(), sh, os.path.join(workdir, f"job{i}"))
            for i, sh in enumerate(shapes)]


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

def make_pass(workload, seed, pass_index, workdir):
    """The job list of one pass; inputs depend only on (seed, workload,
    pass_index, position)."""
    counter = iter(range(1 << 20))

    def job_rng():
        return np.random.default_rng([seed, WORKLOAD_IDS[workload], pass_index, next(counter)])

    if workload == "tables":
        return _tables_pass(job_rng)
    if workload == "verify":
        return _verify_pass(job_rng)
    if workload == "extend":
        return _extend_pass(job_rng)
    if workload == "inverse":
        return _inverse_pass(job_rng, os.path.join(workdir, f"pass{pass_index}"))
    raise ValueError(f"unknown workload {workload!r}")


def warmup_jobs(workload, seed, workdir):
    """One untimed job of each kind, from a pass index no timed pass uses."""
    seen, out = set(), []
    for job in make_pass(workload, seed, WARMUP_PASS, workdir):
        if job.kind not in seen:
            seen.add(job.kind)
            out.append(job)
    return out
