"""Acceptance suite: one test per criterion, each asserting its stated
tolerance and runtime budget and printing a PASS line (run with -s to see
them inline)."""

import time

import numpy as np
import pytest

from abeltrace.geometry import (
    DomainSpec,
    PlaneChart,
    ResidueData,
    VarietySpec,
    veronese_lift,
    lift_residue_data,
)
from abeltrace.multipoly import MultiPoly
from abeltrace.numeric import UniPoly
from abeltrace.radon import (
    AffineMap,
    propagate_trace_extension,
    radon_coefficients,
    reparametrize_check,
    verify_holomorphy,
    verify_shock_relations,
)
from abeltrace.reconstruct import (
    fit_minimal_polys,
    reconstruct_global,
    reconstruct_numerator,
    verify_traces_match,
)
from abeltrace.residues import (
    GridPlan,
    ListPlan,
    TorusPlan,
    hypersurface_trace,
    trace,
    trace_table,
)
from builders import from_roots, from_univariate

V2 = ("x", "y")
V3 = ("x", "y1", "y2")


class Stopwatch:
    def __init__(self, budget):
        self.budget = budget

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        return False


def report(num, name, detail, sw):
    print(f"ACCEPTANCE {num} {name}: PASS ({detail}, {sw.elapsed:.2f}s "
          f"< {sw.budget:.0f}s)", flush=True)
    assert sw.elapsed < sw.budget, f"runtime {sw.elapsed:.2f}s over budget"


def separated_roots(rng, d, rmin=0.4, rmax=1.3, sep=0.25):
    roots = []
    while len(roots) < d:
        cand = (rmin + (rmax - rmin) * rng.uniform()) * np.exp(
            2j * np.pi * rng.uniform()
        )
        if all(abs(cand - r) > sep for r in roots):
            roots.append(cand)
    return roots


def test_criterion_1_jacobi_vanishing():
    rng = np.random.default_rng(101)
    worst_low, worst_top = 0.0, 0.0
    with Stopwatch(1.0) as sw:
        for _ in range(20):
            d = int(rng.integers(2, 7))
            p = from_roots(separated_roots(rng, d))
            f = from_univariate(p, "y", V2)
            v = VarietySpec(("x",), ("y",), [f])
            data = ResidueData(v, MultiPoly.constant(1.0, V2))
            chart = PlaneChart([[0.0]], [0.6 + 0.3j])
            us = [trace(data, chart, k) for k in range(d)]
            scale = max(abs(u) for u in us)
            for k in range(d - 1):
                assert abs(us[k]) <= 1e-9 * scale
                worst_low = max(worst_low, abs(us[k]) / scale)
            assert abs(abs(us[d - 1]) - 1.0) <= 1e-9
            worst_top = max(worst_top, abs(abs(us[d - 1]) - 1.0))
    report(1, "Jacobi vanishing",
           f"20 trials, low residual {worst_low:.1e}, top {worst_top:.1e}", sw)


def test_criterion_2_trace_round_trip():
    rng = np.random.default_rng(202)
    worst = 0.0
    with Stopwatch(5.0) as sw:
        for _ in range(20):
            d = int(rng.integers(1, 6))
            while True:
                roots = separated_roots(rng, d)
                p = from_roots(roots)
                q = UniPoly(rng.standard_normal(d) + 1j * rng.standard_normal(d))
                if not q.is_zero and all(
                    # keep the sheet weights away from zero for conditioning
                    abs(q(r)) > 0.05 * max(abs(c) for c in q.coeffs)
                    for r in roots
                ):
                    break
            data = ResidueData(
                VarietySpec(("x",), ("y",), [from_univariate(p, "y", V2)]),
                from_univariate(q, "y", V2),
            )
            dom = DomainSpec(PlaneChart([[0.0]], [0.4]), {})
            t = trace_table(data, dom, 11, ListPlan(({},)))
            minimal = fit_minimal_polys(t, 5)
            assert minimal.degrees == (d,)
            rec = reconstruct_numerator(t, minimal)

            # (a_1..a_d) against lowest-first (c_0..c_{d-1}, 1)
            got_p = np.asarray([*minimal.coefficient_values(0, 0.4)[::-1], 1.0])
            exp_p = np.asarray(p.coeffs)
            errp = np.max(np.abs(got_p - exp_p)) / max(1.0, np.max(np.abs(exp_p)))
            got_q = np.zeros(d, dtype=complex)
            for exps, c in rec.numerator.terms.items():
                got_q[exps[1]] += c
            exp_q = np.zeros(d, dtype=complex)
            exp_q[: len(q.coeffs)] = q.coeffs
            errq = np.max(np.abs(got_q - exp_q)) / max(1.0, np.max(np.abs(exp_q)))
            assert errp <= 1e-8 and errq <= 1e-8
            worst = max(worst, errp, errq)

        # p = 2 triangular case: y1^2 = x, y2 = y1 + 1, numerator 1;
        # hand computation gives P2 = (y2-1)^2 - x and Q = y1 + y2 - 1
        f1 = MultiPoly(V3, {(0, 2, 0): 1.0, (1, 0, 0): -1.0})
        f2 = MultiPoly(V3, {(0, 0, 1): 1.0, (0, 1, 0): -1.0, (0, 0, 0): -1.0})
        v = VarietySpec(("x",), ("y1", "y2"), [f1, f2])
        data = ResidueData(v, MultiPoly.constant(1.0, V3))
        x0 = 0.7 + 0.2j
        dom = DomainSpec(PlaneChart([[0.0, 0.0]], [x0]), {})
        t = trace_table(data, dom, 5, ListPlan(({},)))
        minimal = fit_minimal_polys(t, 2)
        rec = reconstruct_numerator(t, minimal)
        assert np.allclose(minimal.coefficient_values(0, x0), [0, -x0], atol=1e-6)
        assert np.allclose(minimal.coefficient_values(1, x0), [-2, 1 - x0], atol=1e-6)
        got = {exps[1:]: c for exps, c in rec.numerator.terms.items()}
        expect = {(1, 0): 1.0, (0, 1): 1.0, (0, 0): -1.0}
        assert set(got) == set(expect)
        for key, val in expect.items():
            assert abs(got[key] - val) <= 1e-6
    report(2, "trace round-trip",
           f"20 trials at 1e-8 (worst {worst:.1e}) + p=2 case at 1e-6", sw)


def elliptic_data(psi_terms, weight_terms=None):
    f = MultiPoly(V2, {(0, 2): 1.0, (3, 0): -1.0, (0, 0): -1.0})
    v = VarietySpec(("x",), ("y",), [f])
    w = MultiPoly(V2, weight_terms) if weight_terms else None
    return ResidueData(v, MultiPoly(V2, psi_terms), weight=w)


def test_criterion_3_abel_vanishing():
    with Stopwatch(2.0) as sw:
        data = elliptic_data({(0, 0): 2.0})  # the form dx/y
        dom = DomainSpec(
            PlaneChart([[0.6 + 0.1j]], [0.45 + 0.3j]),
            {"a1.1": 0.15, "b1": 0.2},
        )
        rt = radon_coefficients(data, dom, GridPlan({"a1.1": 5, "b1": 5}))
        assert all(f == "clean" for f in rt.flags)  # pole-free grid
        scale = rt.term_scale()
        worst = rt.scale()
        assert worst <= 1e-9 * scale
    report(3, "Abel vanishing",
           f"max |coeff| {worst:.1e} vs 1e-9 * term scale {scale:.2f}", sw)


def test_criterion_4_pole_dichotomy():
    with Stopwatch(2.0) as sw:
        data = elliptic_data(
            {(0, 0): 2.0}, weight_terms={(1, 0): 1.0, (0, 0): -2.0}
        )
        # the weight x - 2 vanishes on the curve exactly at (2, +-3); the
        # chart grid is designed so the line b = 2 - 3a through (2, 3)
        # crosses its nodes exactly on the diagonal (a = 0.5 would be
        # tangent there, so the a-nodes stop at 0.40)
        avals = np.array([0.08, 0.16, 0.24, 0.32, 0.40])
        bvals = 2.0 - 3.0 * avals
        ca, cb = avals.mean(), bvals.mean()
        offs = tuple(
            {"a1.1": a - ca, "b1": b - cb} for a in avals for b in bvals
        )
        dom = DomainSpec(PlaneChart([[ca]], [cb]), {"a1.1": 0.2, "b1": 0.6})
        rt = radon_coefficients(data, dom, ListPlan(offs))
        rep = verify_holomorphy(rt, 1e-6)
        diagonal = {i * 5 + i for i in range(5)}
        for label in rt.coeffs:
            assert rep.status[label] == "meromorphic"
            assert set(rep.pole_samples[label]) == diagonal
    report(4, "pole dichotomy",
           "poles flagged exactly on the 5 designed charts, nowhere else", sw)


def test_criterion_5_shock_relations():
    rng = np.random.default_rng(505)
    with Stopwatch(3.0) as sw:
        f = MultiPoly(V2, {(0, 2): 1.0, (1, 0): -1.0})
        data = ResidueData(
            VarietySpec(("x",), ("y",), [f]), MultiPoly.constant(1.0, V2)
        )
        dom = DomainSpec(
            PlaneChart([[0.1 + 0.05j]], [2.5 + 0.2j]), {"a1.1": 0.5, "b1": 0.8}
        )
        t = trace_table(data, dom, 4, GridPlan({"a1.1": 3, "b1": 3}))
        rep1 = verify_shock_relations(t, 1e-6)
        assert rep1.passed

        f3 = MultiPoly(V2, {(0, 3): 1.0, (0, 1): 0.4 + 0.3j, (1, 0): -1.0})
        psi = MultiPoly(
            V2,
            {
                (i, j): complex(rng.standard_normal(), rng.standard_normal())
                for i in range(2) for j in range(2)
            },
        )
        data3 = ResidueData(VarietySpec(("x",), ("y",), [f3]), psi)
        dom3 = DomainSpec(
            PlaneChart([[0.2 + 0.1j]], [1.8 + 0.6j]), {"a1.1": 0.3, "b1": 0.4}
        )
        t3 = trace_table(data3, dom3, 3, GridPlan({"a1.1": 3, "b1": 3}))
        rep2 = verify_shock_relations(t3, 1e-6)
        assert rep2.passed
        worst = max(rep1.max_residual, rep2.max_residual)
    report(5, "shock relations", f"max residual {worst:.1e} <= 1e-6", sw)


def test_criterion_6_trace_propagation():
    with Stopwatch(3.0) as sw:
        f = MultiPoly(V2, {(0, 2): 1.0, (1, 0): -1.0})
        data = ResidueData(
            VarietySpec(("x",), ("y",), [f]), MultiPoly.constant(1.0, V2)
        )
        center = PlaneChart([[0.15 + 0.05j]], [3.0 + 0.2j])
        small = DomainSpec(center, {"a1.1": 0.4, "b1": 1.0})
        big = DomainSpec(center, {"a1.1": 0.4, "b1": 2.0})
        t = trace_table(data, small, 4, TorusPlan(8))
        ext = propagate_trace_extension(
            t, lambda ch: trace(data, ch, 0), big, order=4, fft_nodes=16
        )
        rng = np.random.default_rng(6)
        worst = 0.0
        for _ in range(10):
            off = {
                "a1.1": 0.3 * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)) / 1.5,
                "b1": 1.9 * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)) / 1.5,
            }
            ch = big.chart_at(off)
            for k in range(5):
                worst = max(
                    worst, abs(ext.model_value((k,), ch) - trace(data, ch, k))
                )
        assert worst <= 1e-6
    report(6, "trace propagation", f"max |propagated - direct| {worst:.1e}", sw)


def test_criterion_7_inverse_abel_desk_demo():
    with Stopwatch(5.0) as sw:
        # global cubic from a far disk: y^2 = x(x-1)(x-2) on |x - 10| <= 0.5
        f = MultiPoly(
            V2, {(0, 2): 1.0, (3, 0): -1.0, (2, 0): 3.0, (1, 0): -2.0}
        )
        data = ResidueData(
            VarietySpec(("x",), ("y",), [f]), MultiPoly.constant(1.0, V2)
        )
        dom = DomainSpec(PlaneChart([[0.0]], [10.0]), {"b1": 0.5})
        t = trace_table(data, dom, 5, TorusPlan(16))
        rec = reconstruct_global(t, 2, 3)
        assert rec.minimal.degrees == (2,)
        a1, a2 = rec.minimal.coeffs[0]
        assert a1.is_zero
        got = np.zeros(4, dtype=complex)
        got[: len(a2.coeffs)] = a2.coeffs
        err_cubic = np.max(np.abs(got - np.array([0.0, -2.0, 3.0, -1.0])))
        assert err_cubic <= 1e-6

        # 3-line web with an abelian relation: weights (1, -2, 1) kill
        # both sum(w) and sum(w m), so the transform vanishes and the
        # reconstruction recovers the product curve and the weights
        ms, cs, ws = (1.0, 2.0, 3.0), (0.3, -0.2, 0.5), (1.0, -2.0, 1.0)
        x = MultiPoly.variable("x", V2)
        y = MultiPoly.variable("y", V2)
        factors = [y - m * x - MultiPoly.constant(c, V2) for m, c in zip(ms, cs)]
        curve = factors[0] * factors[1] * factors[2]
        psi = MultiPoly.zero(V2)
        for k in range(3):
            term = MultiPoly.constant(ws[k], V2)
            for j in range(3):
                if j != k:
                    term = term * factors[j]
            psi = psi + term
        web = ResidueData(VarietySpec(("x",), ("y",), [curve]), psi)
        wdom = DomainSpec(PlaneChart([[0.0]], [0.8]), {"b1": 0.5})
        wt = trace_table(web, wdom, 7, TorusPlan(16))
        wrec = reconstruct_global(wt, 3, 3)
        recon_curve = wrec.minimal.as_multipoly(0, "x").with_vars(V2)
        err_web = 0.0
        for exps in set(curve.terms) | set(recon_curve.terms):
            a = curve.terms.get(exps, 0.0)
            b = recon_curve.terms.get(exps, 0.0)
            err_web = max(err_web, abs(a - b))
        for exps in set(psi.terms) | set(wrec.numerator.terms):
            a = psi.terms.get(exps, 0.0)
            b = wrec.numerator.terms.get(exps, 0.0)
            err_web = max(err_web, abs(a - b))
        assert err_web <= 1e-8

        # abelian-relation shadow: the weights sum to zero on every
        # vertical fiber, so the order-0 trace vanishes along a = 0
        assert np.max(np.abs(wt.entries[(0,)])) <= 1e-9 * wt.term_scale()
    report(7, "inverse Abel desk demo",
           f"cubic coeffs {err_cubic:.1e} <= 1e-6, web {err_web:.1e} <= 1e-8", sw)


def test_criterion_8_equivariance():
    rng = np.random.default_rng(808)
    with Stopwatch(2.0) as sw:
        f = MultiPoly(V2, {(0, 2): 1.0, (1, 0): -1.0})
        data = ResidueData(
            VarietySpec(("x",), ("y",), [f]), MultiPoly.constant(1.0, V2)
        )
        dom = DomainSpec(
            PlaneChart([[0.1 + 0.02j]], [2.2 + 0.3j]), {"a1.1": 0.3, "b1": 0.5}
        )
        worst = 0.0
        for _ in range(10):
            m = np.eye(2) + 0.3 * (
                rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            )
            v = 0.1 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
            rep = reparametrize_check(data, dom, AffineMap(m, v), tol=1e-8)
            assert rep.passed
            worst = max(worst, rep.max_residual)
    report(8, "equivariance", f"10 random maps, max residual {worst:.1e}", sw)


def test_criterion_9_veronese_reduction():
    rng = np.random.default_rng(909)
    with Stopwatch(2.0) as sw:
        base = elliptic_data({(0, 0): 1.0})
        psi = MultiPoly(V2, {(1, 1): 2.0, (0, 0): 0.5})
        data = ResidueData(base.variety, psi)
        v_lifted, cmap = veronese_lift(data.variety, 2)
        lifted = lift_residue_data(data, v_lifted)

        pairs = [
            ((0, 0, 0, 0), (0, 0)),
            ((1, 0, 0, 0), (0, 1)),
            ((0, 1, 0, 0), (2, 0)),
            ((0, 0, 0, 1), (0, 2)),
        ]
        worst = 0.0
        for _ in range(5):
            a = 0.35 * (rng.standard_normal(4) + 1j * rng.standard_normal(4))
            b = 0.8 + 0.25 * (rng.standard_normal() + 1j * rng.standard_normal())
            chart = PlaneChart([a], [b])
            hyper = cmap[0] - MultiPoly.constant(b, V2)
            for j in range(1, 5):
                hyper = hyper - a[j - 1] * cmap[j]
            for index, mono in pairs:
                lt = trace(lifted, chart, index)
                ot = hypersurface_trace(data, hyper, mono)
                err = abs(lt - ot) / max(1.0, abs(ot))
                worst = max(worst, err)
                assert err <= 1e-9
    report(9, "Veronese reduction",
           f"5 random hypersurface charts, max relative error {worst:.1e}", sw)
