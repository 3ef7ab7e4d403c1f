import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abeltrace import reconstruct
from abeltrace import serialize as ser

from abeltrace.errors import (
    DegreeUndetectable,
    IllConditioned,
    InconsistentTraces,
    OverdeterminedMismatch,
    UnsupportedDimension,
)
from abeltrace.geometry import DomainSpec, PlaneChart, ResidueData, VarietySpec, solve_fiber
from abeltrace.multipoly import MultiPoly
from abeltrace.numeric import UniPoly
from abeltrace.reconstruct import (
    MinimalPolySet,
    ReconstructedData,
    _fit_coefficients,
    _fit_slot,
    _slot_rows,
    fit_minimal_polys,
    reconstruct_global,
    reconstruct_numerator,
    verify_traces_match,
)
from abeltrace.residues import ListPlan, TorusPlan, TraceTable, trace_table
from builders import from_roots, from_univariate

V2 = ("x", "y")
V3 = ("x", "y1", "y2")


def residue_from_unipolys(p, q):
    f = from_univariate(p, "y", V2)
    v = VarietySpec(("x",), ("y",), [f])
    return ResidueData(v, from_univariate(q, "y", V2))


def separated_roots(rng, d, rmin=0.4, rmax=1.3, sep=0.25):
    roots = []
    while len(roots) < d:
        cand = (rmin + (rmax - rmin) * rng.uniform()) * np.exp(
            2j * np.pi * rng.uniform()
        )
        if all(abs(cand - r) > sep for r in roots):
            roots.append(cand)
    return roots


def random_pair(rng, d):
    """Random monic P (separated roots) and numerator Q with weights
    bounded away from zero at the roots."""
    while True:
        roots = separated_roots(rng, d)
        p = from_roots(roots)
        q = UniPoly(rng.standard_normal(d) + 1j * rng.standard_normal(d))
        if q.is_zero:
            continue
        ok = all(
            abs(q(r)) > 0.05 * max(abs(c) for c in q.coeffs) for r in roots
        )
        if ok:
            return p, q


def constant_table(data, max_order, x0=0.4):
    dom = DomainSpec(PlaneChart([[0.0]], [x0]), {})
    return trace_table(data, dom, max_order, ListPlan(({},)))


class TestFitMinimalPolys:
    def test_parabola_over_grid(self):
        f = MultiPoly(V2, {(0, 2): 1.0, (1, 0): -1.0})
        data = ResidueData(VarietySpec(("x",), ("y",), [f]),
                           MultiPoly.constant(1.0, V2))
        dom = DomainSpec(PlaneChart([[0.0]], [3.0 + 0.5j]), {"b1": 0.6})
        t = trace_table(data, dom, 5, TorusPlan(9))
        m = fit_minimal_polys(t, 2)
        assert m.degrees == (2,)
        assert m.coeffs[0][0].is_zero  # a_1 = 0
        a2 = np.zeros(2, dtype=complex)
        a2[: len(m.coeffs[0][1].coeffs)] = m.coeffs[0][1].coeffs
        assert np.allclose(a2, [0.0, -1.0], atol=1e-9)  # a_2 = -x

    def test_single_sheet(self):
        # y = 2x + 0.5: degree 1, a_1 = -(2x + 0.5)
        f = MultiPoly(V2, {(0, 1): 1.0, (1, 0): -2.0, (0, 0): -0.5})
        data = ResidueData(VarietySpec(("x",), ("y",), [f]),
                           MultiPoly.constant(1.0, V2))
        dom = DomainSpec(PlaneChart([[0.0]], [1.0]), {"b1": 0.5})
        t = trace_table(data, dom, 3, TorusPlan(7))
        m = fit_minimal_polys(t, 2)
        assert m.degrees == (1,)
        a1 = np.zeros(2, dtype=complex)
        a1[: len(m.coeffs[0][0].coeffs)] = m.coeffs[0][0].coeffs
        assert np.allclose(a1, [-0.5, -2.0], atol=1e-9)

    def test_all_zero_traces(self):
        f = MultiPoly(V2, {(0, 2): 1.0, (1, 0): -1.0})
        data = ResidueData(VarietySpec(("x",), ("y",), [f]), MultiPoly.zero(V2))
        t = constant_table(data, 4)
        with pytest.raises(DegreeUndetectable) as info:
            fit_minimal_polys(t, 2)
        assert info.value.zero_moments

    @pytest.mark.parametrize("d_max", [0, -1, 2.5, True, None])
    def test_d_max_below_one_or_not_an_integer(self, d_max):
        # refused before any work, also on all-zero traces, where
        # reconstruct_global would otherwise return the zero data
        f = MultiPoly(V2, {(0, 2): 1.0, (1, 0): -1.0})
        for num in (MultiPoly.constant(1.0, V2), MultiPoly.zero(V2)):
            t = constant_table(ResidueData(VarietySpec(("x",), ("y",), [f]), num), 4)
            for step in (lambda: fit_minimal_polys(t, d_max),
                         lambda: reconstruct_global(t, d_max, None)):
                with pytest.raises(ValueError, match="d_max must be an integer of at least 1"):
                    step()

    @pytest.mark.parametrize("case, error, message", [
        ("two base variables", UnsupportedDimension, "one base variable"),
        ("slanted charts", ValueError, "vertical charts"),
        ("a1.1 varies", ValueError, "only b1"),
        ("no clean sample", ValueError, "no clean samples"),
    ])
    def test_table_refusals(self, case, error, message):
        # both reconstruction steps read the table's samples the same way
        f = MultiPoly(V2, {(0, 2): 1.0, (1, 0): -1.0})
        data = ResidueData(VarietySpec(("x",), ("y",), [f]), MultiPoly.constant(1.0, V2))
        chart, radii = PlaneChart([[0.0]], [3.0]), {"b1": 0.5}
        if case == "two base variables":
            V = ("x1", "x2", "y")
            f = MultiPoly(V, {(0, 0, 2): 1.0, (1, 0, 0): -1.0, (0, 1, 0): 0.5})
            data = ResidueData(VarietySpec(("x1", "x2"), ("y",), [f]), MultiPoly.constant(1.0, V))
            chart = PlaneChart([[0.0], [0.0]], [3.0, 1.0])
        elif case == "slanted charts":
            chart = PlaneChart([[0.1]], [3.0])
        elif case == "a1.1 varies":
            radii = {"a1.1": 0.1, "b1": 0.5}
        t = trace_table(data, DomainSpec(chart, radii), 3, TorusPlan(4))
        if case == "no clean sample":
            t = TraceTable(t.data, t.domain, t.offsets, t.entries, t.term_scales,
                           ("pole",) * len(t.flags), t.max_order, t.baseline_degree)
        minimal = MinimalPolySet("x", ("y",), (2,), ((UniPoly.zero(), UniPoly([0.0, -1.0])),))
        for step in (lambda: fit_minimal_polys(t, 2), lambda: reconstruct_numerator(t, minimal)):
            with pytest.raises(error, match=message):
                step()

    def test_meromorphic_coefficient_detected(self):
        # x y^2 - 1: the monic minimal polynomial is y^2 - 1/x, whose
        # coefficient is not polynomial in x
        f = MultiPoly(V2, {(1, 2): 1.0, (0, 0): -1.0})
        data = ResidueData(VarietySpec(("x",), ("y",), [f]),
                           MultiPoly.constant(1.0, V2))
        dom = DomainSpec(PlaneChart([[0.0]], [2.0]), {"b1": 0.7})
        t = trace_table(data, dom, 5, TorusPlan(16))
        with pytest.raises(OverdeterminedMismatch):
            fit_minimal_polys(t, 2, coeff_deg_bound=4)
        with pytest.raises(OverdeterminedMismatch):
            fit_minimal_polys(t, 2)


class TestFitCoefficients:
    xs = 2.0 + 0.7 * np.exp(2j * np.pi * np.arange(16) / 16)

    def family(self, *columns):
        return np.column_stack([np.polyval(c[::-1], self.xs) for c in columns])

    def test_unbounded_sweep_keeps_each_columns_degree(self):
        true = ([0.5 - 0.2j], [1.0, -2.0], [0.3, 0.0, 1.5j, -0.25])
        coeffs, resid = _fit_coefficients(self.xs, self.family(*true), None, 1e-8, 1.0)
        # rows run to the sweep's cap, (16 - 1) // 2
        assert coeffs.shape == (3, 8)
        for row, c in zip(coeffs, true):
            assert np.nonzero(row)[0].max() == len(c) - 1
            assert np.allclose(row[: len(c)], c, atol=1e-9)
        assert resid < 1e-10

    def test_bounded_fit_is_one_solve(self, monkeypatch):
        calls = []
        real = reconstruct.poly_interpolate
        monkeypatch.setattr(reconstruct, "poly_interpolate",
                            lambda *args, **kw: calls.append(1) or real(*args, **kw))
        values = self.family([1.0], [0.0, 2.0], [1.0, 0.0, 3.0])
        coeffs, _ = _fit_coefficients(self.xs, values, 2, 1e-8, 3.0)
        assert calls == [1]
        assert np.allclose(coeffs, [[1, 0, 0], [0, 2, 0], [1, 0, 3]], atol=1e-9)

    @pytest.mark.parametrize("bound", [None, 4])
    def test_one_meromorphic_column_raises(self, bound):
        values = np.column_stack([self.family([1.0, 1.0])[:, 0], 1.0 / (self.xs - 1.0)])
        with pytest.raises(OverdeterminedMismatch) as info:
            _fit_coefficients(self.xs, values, bound, 1e-8, 1.0)
        assert info.value.residual > 1e-8


class TestRoundTrip:
    def test_twenty_random_constant_pairs(self):
        rng = np.random.default_rng(2026)
        for trial in range(20):
            d = int(rng.integers(1, 6))
            p, q = random_pair(rng, d)
            data = residue_from_unipolys(p, q)
            t = constant_table(data, 2 * 5 + 1)
            m = fit_minimal_polys(t, 5)
            assert m.degrees == (d,)
            rec = reconstruct_numerator(t, m)

            # (a_1..a_d) against lowest-first (c_0..c_{d-1}, 1)
            got_p = np.asarray([*m.coefficient_values(0, 0.4)[::-1], 1.0])
            exp_p = np.asarray(p.coeffs)
            assert np.max(np.abs(got_p - exp_p)) <= 1e-8 * max(
                1.0, np.max(np.abs(exp_p))
            )
            got_q = np.zeros(d, dtype=complex)
            for exps, c in rec.numerator.terms.items():
                got_q[exps[1]] += c
            exp_q = np.zeros(d, dtype=complex)
            exp_q[: len(q.coeffs)] = q.coeffs
            assert np.max(np.abs(got_q - exp_q)) <= 1e-8 * max(
                1.0, np.max(np.abs(exp_q))
            )

    def test_triangular_two_slot_case(self):
        # y1^2 = x and y2 = y1 + 1 with numerator 1; hand computation:
        # P2 = (y2-1)^2 - x and Q = y1 + y2 - 1
        f1 = MultiPoly(V3, {(0, 2, 0): 1.0, (1, 0, 0): -1.0})
        f2 = MultiPoly(V3, {(0, 0, 1): 1.0, (0, 1, 0): -1.0, (0, 0, 0): -1.0})
        v = VarietySpec(("x",), ("y1", "y2"), [f1, f2])
        data = ResidueData(v, MultiPoly.constant(1.0, V3))
        x0 = 0.7 + 0.2j
        dom = DomainSpec(PlaneChart([[0.0, 0.0]], [x0]), {})
        t = trace_table(data, dom, 5, ListPlan(({},)))
        m = fit_minimal_polys(t, 2)
        assert m.degrees == (2, 2)
        assert np.allclose(m.coefficient_values(0, x0), [0.0, -x0], atol=1e-6)
        assert np.allclose(m.coefficient_values(1, x0), [-2.0, 1.0 - x0], atol=1e-6)
        rec = reconstruct_numerator(t, m)
        got = {exps[1:]: c for exps, c in rec.numerator.terms.items()}
        assert set(got) == {(1, 0), (0, 1), (0, 0)}
        assert got[(1, 0)] == pytest.approx(1.0, abs=1e-6)
        assert got[(0, 1)] == pytest.approx(1.0, abs=1e-6)
        assert got[(0, 0)] == pytest.approx(-1.0, abs=1e-6)
        rep = verify_traces_match(data, rec.to_residue_data(), dom, 4, 1e-6)
        assert rep.passed

    def test_zero_traces_forced_degree_one(self):
        f = MultiPoly(V2, {(0, 2): 1.0, (1, 0): -1.0})
        data = ResidueData(VarietySpec(("x",), ("y",), [f]), MultiPoly.zero(V2))
        t = constant_table(data, 3)
        forced = MinimalPolySet("x", ("y",), (1,), ((UniPoly.zero(),),))
        rec = reconstruct_numerator(t, forced)
        assert rec.numerator.is_zero


class TestVerifyTracesMatch:
    def _parabola(self, psi=None):
        f = MultiPoly(V2, {(0, 2): 1.0, (1, 0): -1.0})
        return ResidueData(
            VarietySpec(("x",), ("y",), [f]),
            psi if psi is not None else MultiPoly.constant(1.0, V2),
        )

    def test_self_match(self):
        data = self._parabola()
        dom = DomainSpec(PlaneChart([[0.0]], [2.5]), {"b1": 0.5})
        rep = verify_traces_match(data, data, dom, 4, 1e-12)
        assert rep.passed and rep.max_residual == 0.0

    def test_against_zero(self):
        data = self._parabola()
        zero = self._parabola(MultiPoly.zero(V2))
        dom = DomainSpec(PlaneChart([[0.0]], [2.5]), {"b1": 0.5})
        rep = verify_traces_match(data, zero, dom, 4, 1e-12)
        assert not rep.passed
        # the discrepancy is exactly the data's own largest trace
        from abeltrace.residues import trace_table as tt

        t = tt(data, dom, 4, TorusPlan(6))
        assert rep.max_residual == pytest.approx(t.scale(), rel=1e-12)

    def test_samples_unclean_in_either_table_are_skipped(self):
        # the same rational data, once with the factor x - 3 in both the
        # numerator and the weight: TorusPlan(6)'s first node is b1 = 3,
        # where that factor puts every fiber point on the weight's pole
        # divisor, so only d1's table flags it
        f = MultiPoly(V2, {(0, 2): 1.0, (1, 0): -1.0})
        psi = MultiPoly(V2, {(0, 1): 1.0, (0, 0): 0.3})
        factor = MultiPoly(V2, {(1, 0): 1.0, (0, 0): -3.0})
        v = VarietySpec(("x",), ("y",), [f])
        d1 = ResidueData(v, psi * factor, weight=factor)
        d2 = ResidueData(v, psi)
        dom = DomainSpec(PlaneChart([[0.0]], [2.5]), {"b1": 0.5})
        assert trace_table(d1, dom, 4, TorusPlan(6)).flags == ("pole",) + ("clean",) * 5
        rep = verify_traces_match(d1, d2, dom, 4, 1e-10)
        assert rep.passed and rep.samples == 5

    def test_unit_rescaled_representations(self):
        f = MultiPoly(V2, {(0, 2): 1.0, (1, 0): -1.0})
        unit = MultiPoly(V2, {(0, 0): 2.0, (1, 0): 0.1})
        psi = MultiPoly(V2, {(0, 1): 1.0, (0, 0): 0.3})
        d1 = ResidueData(VarietySpec(("x",), ("y",), [f]), psi)
        d2 = ResidueData(VarietySpec(("x",), ("y",), [f * unit]), psi * unit)
        dom = DomainSpec(PlaneChart([[0.0]], [2.5]), {"b1": 0.5})
        rep = verify_traces_match(d1, d2, dom, 4, 1e-10)
        assert rep.passed

    def test_reconstruction_matches_source(self):
        data = self._parabola()
        dom = DomainSpec(PlaneChart([[0.0]], [3.0 + 0.5j]), {"b1": 0.6})
        t = trace_table(data, dom, 5, TorusPlan(9))
        rec = reconstruct_global(t, 2, 3)
        rep = verify_traces_match(data, rec.to_residue_data(), dom, 5, 1e-9)
        assert rep.passed


class TestInconsistentTraces:
    def test_wrong_minimal_polynomial(self):
        f = MultiPoly(V2, {(0, 2): 1.0, (1, 0): -1.0})
        data = ResidueData(VarietySpec(("x",), ("y",), [f]),
                           MultiPoly.constant(1.0, V2))
        t = constant_table(data, 4)
        wrong = MinimalPolySet("x", ("y",), (1,), ((UniPoly.zero(),),))
        with pytest.raises(InconsistentTraces):
            reconstruct_numerator(t, wrong)


class TestReconstructGlobal:
    def test_cubic_branch_data_from_far_disk(self):
        # y^2 = x(x-1)(x-2) = x^3 - 3x^2 + 2x, sampled on |x - 10| <= 0.5:
        # recovers a_2(x) = -x^3 + 3x^2 - 2x and a_1 = 0 globally
        f = MultiPoly(
            V2, {(0, 2): 1.0, (3, 0): -1.0, (2, 0): 3.0, (1, 0): -2.0}
        )
        data = ResidueData(VarietySpec(("x",), ("y",), [f]),
                           MultiPoly.constant(1.0, V2))
        dom = DomainSpec(PlaneChart([[0.0]], [10.0]), {"b1": 0.5})
        t = trace_table(data, dom, 5, TorusPlan(16))
        rec = reconstruct_global(t, 2, 3)
        assert rec.minimal.degrees == (2,)
        a1, a2 = rec.minimal.coeffs[0]
        assert a1.is_zero or max(abs(c) for c in a1.coeffs) < 1e-6
        # a_2(x) = -(x^3 - 3x^2 + 2x), coefficients lowest-first
        got = np.zeros(4, dtype=complex)
        got[: len(a2.coeffs)] = a2.coeffs
        assert np.max(np.abs(got - np.array([0.0, -2.0, 3.0, -1.0]))) < 1e-6
        # numerator is the constant 1
        assert set(rec.numerator.terms) == {(0, 0)}
        assert rec.numerator.terms[(0, 0)] == pytest.approx(1.0, abs=1e-6)

    def test_zero_traces_map_to_zero_data(self):
        f = MultiPoly(V2, {(0, 2): 1.0, (1, 0): -1.0})
        data = ResidueData(VarietySpec(("x",), ("y",), [f]), MultiPoly.zero(V2))
        dom = DomainSpec(PlaneChart([[0.0]], [2.0]), {"b1": 0.4})
        t = trace_table(data, dom, 4, TorusPlan(6))
        rec = reconstruct_global(t, 2, 2)
        assert rec.is_zero and rec.numerator.is_zero

    def test_linear_web_demo(self):
        # three line germs y = m_k x + c_k with weights (1, -2, 1): the
        # reduced curve is the product of the linear factors and the
        # numerator encodes the weights via Lagrange interpolation
        ms = (1.0, 2.0, 3.0)
        cs = (0.3, -0.2, 0.5)
        ws = (1.0, -2.0, 1.0)
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
        data = ResidueData(VarietySpec(("x",), ("y",), [curve]), psi)
        dom = DomainSpec(PlaneChart([[0.0]], [0.8]), {"b1": 0.5})
        t = trace_table(data, dom, 7, TorusPlan(16))
        rec = reconstruct_global(t, 3, 3)
        assert rec.minimal.degrees == (3,)
        # oracle: expand the product curve directly
        recon_curve = rec.minimal.as_multipoly(0, "x").with_vars(V2)
        for exps in set(curve.terms) | set(recon_curve.terms):
            a = curve.terms.get(exps, 0.0)
            b = recon_curve.terms.get(exps, 0.0)
            assert abs(a - b) <= 1e-8 * max(1.0, abs(a))
        # numerator equals the Lagrange combination exactly
        for exps in set(psi.terms) | set(rec.numerator.terms):
            a = psi.terms.get(exps, 0.0)
            b = rec.numerator.terms.get(exps, 0.0)
            assert abs(a - b) <= 1e-8 * max(1.0, abs(a))


class TestInjectivityAndStructure:
    def test_reconstruction_invariant_under_representation(self):
        # equal traces imply equal reconstructions: reconstruct the same
        # data from two unit-rescaled representations and compare
        f = MultiPoly(V2, {(0, 2): 1.0, (1, 0): -1.0})
        unit = MultiPoly(V2, {(0, 0): 2.0, (1, 0): 0.1})
        psi = MultiPoly(V2, {(0, 1): 1.0, (0, 0): 0.3})
        d1 = ResidueData(VarietySpec(("x",), ("y",), [f]), psi)
        d2 = ResidueData(VarietySpec(("x",), ("y",), [f * unit]), psi * unit)
        dom = DomainSpec(PlaneChart([[0.0]], [2.5]), {"b1": 0.5})
        rep = verify_traces_match(d1, d2, dom, 4, 1e-10)
        assert rep.passed
        recs = []
        for data in (d1, d2):
            t = trace_table(data, dom, 5, TorusPlan(9))
            recs.append(reconstruct_global(t, 2, 2))
        assert recs[0].minimal.degrees == recs[1].minimal.degrees
        for c1, c2 in zip(recs[0].minimal.coeffs[0], recs[1].minimal.coeffs[0]):
            n = max(len(c1.coeffs), len(c2.coeffs), 1)
            a = np.zeros(n, dtype=complex)
            b = np.zeros(n, dtype=complex)
            a[: len(c1.coeffs)] = c1.coeffs
            b[: len(c2.coeffs)] = c2.coeffs
            assert np.max(np.abs(a - b)) <= 1e-8
        for exps in set(recs[0].numerator.terms) | set(recs[1].numerator.terms):
            x0 = recs[0].numerator.terms.get(exps, 0.0)
            x1 = recs[1].numerator.terms.get(exps, 0.0)
            assert abs(x0 - x1) <= 1e-8 * max(1.0, abs(x0))

    def test_monicity_and_degree_bounds(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            d = int(rng.integers(1, 5))
            p, q = random_pair(rng, d)
            data = residue_from_unipolys(p, q)
            t = constant_table(data, 11)
            rec = reconstruct_global(t, 5, 0)
            # monic normalization is structural
            for i, di in enumerate(rec.minimal.degrees):
                assert len(rec.minimal.coeffs[i]) == di
            # numerator degree bound deg_y Q <= d - 1
            for exps in rec.numerator.terms:
                assert exps[1] <= rec.minimal.degrees[0] - 1


def test_reconstructed_data_to_residue_data():
    rng = np.random.default_rng(4)
    p, q = random_pair(rng, 3)
    data = residue_from_unipolys(p, q)
    t = constant_table(data, 7)
    m = fit_minimal_polys(t, 4)
    rec = reconstruct_numerator(t, m)
    back = rec.to_residue_data()
    assert back.label == "reconstructed"
    dom = DomainSpec(PlaneChart([[0.0]], [0.4]), {})
    assert solve_fiber(back.variety, dom.chart, expected_degree=None).total_multiplicity == 3
    rep = verify_traces_match(data, back, dom, 6, 1e-8)
    assert rep.passed


def synthetic_table(xs, moments, x0=0.4):
    """A p = 1 table over vertical charts at base values ``xs`` holding the
    given moment columns {index: values over xs}."""
    f = MultiPoly(V2, {(0, 2): 1.0, (1, 0): -1.0})
    data = ResidueData(VarietySpec(("x",), ("y",), [f]), MultiPoly.constant(1.0, V2))
    dom = DomainSpec(PlaneChart([[0.0]], [x0]), {"b1": 1.0})
    offsets = [{"b1": complex(x) - x0} for x in xs]
    return TraceTable(data, dom, offsets, {idx: np.asarray(v, dtype=complex)
                                           for idx, v in moments.items()},
                      np.ones(len(xs)), ("clean",) * len(xs), max(max(moments)), 2)


class TestStackedSlotFit:
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(st.integers(1, 2), st.integers(2, 6), st.integers(0, 2**32 - 1))
    def test_matches_lstsq_per_sample(self, p, k, seed):
        # product-form moments m_I = sum_r w_r prod_i y_ir^I_i per sample,
        # with one sample zeroed (rank 0: condition inf on both sides)
        rng = np.random.default_rng(seed)
        degrees = rng.integers(1, 4, size=p)
        max_order = 2 * int(degrees.max()) + 1
        cols = {idx: j for j, idx in enumerate(np.ndindex(*(max_order + 1,) * p))}
        exps = np.array(list(cols))
        moments = np.zeros((k, len(cols)), dtype=complex)
        for s in range(k):
            roots = [separated_roots(rng, d) for d in degrees]
            for pick in np.ndindex(*degrees):
                w = complex(*rng.standard_normal(2))
                y = np.array([roots[i][pick[i]] for i in range(p)])
                moments[s] += w * np.prod(y ** exps, axis=1)
        moments[rng.integers(k)] = 0
        scale = float(np.abs(moments).max())
        for i in range(p):
            for d in range(1, int(degrees[i]) + 1):
                rows = _slot_rows(cols, i, d, p, max_order)
                sol, resid, cond = _fit_slot(moments, rows, scale)
                for s in range(k):
                    a, rhs = moments[s][rows[0]], -moments[s][rows[1]]
                    want, _, _, sv = np.linalg.lstsq(a, rhs, rcond=None)
                    assert np.max(np.abs(sol[s] - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))
                    assert abs(resid[s] - np.max(np.abs(a @ want - rhs)) / scale) <= 1e-12
                    want_cond = sv[0] / sv[-1] if sv[-1] > 0 else np.inf
                    assert cond[s] == want_cond or abs(cond[s] - want_cond) <= 1e-12 * want_cond

    def test_singular_sample_condition_is_reported(self):
        # y = r(x) with r and the weight w vanishing at x = 0.6: every
        # moment w r^k is zero there, so that sample's recurrence matrix is
        # zero and its condition number infinite. The first sample is
        # well conditioned; the fit reports the worst sample's condition
        xs = np.array([0.0, 0.3, 0.6, 0.9, 1.2]) + 0.1j
        r, w = 0.5 * (xs - xs[2]), (1.0 - 2.0j) * (xs - xs[2])
        t = synthetic_table(xs, {(j,): w * r**j for j in range(4)})
        with pytest.raises(IllConditioned) as info:
            fit_minimal_polys(t, 1)
        assert info.value.condition == np.inf
        # the numerator from the true minimal polynomial y - r(x) still
        # reads through the singular sample, and an infinite diagnostic
        # serializes as "inf"
        minimal = MinimalPolySet("x", ("y",), (1,), ((UniPoly([0.5 * xs[2], -0.5]),),),
                                 {"slot0": {"condition": info.value.condition}})
        rec = reconstruct_numerator(t, minimal)
        # (the moments carry the sign (-1)^(n p) = -1 of the residue convention)
        assert rec.numerator.terms[(1, 0)] == pytest.approx(-(1.0 - 2.0j))
        assert rec.numerator.terms[(0, 0)] == pytest.approx((1.0 - 2.0j) * xs[2])
        text = ser.dumps(ser.encode_reconstruction(rec))
        assert json.loads(text)["diagnostics"]["slot0"]["condition"] == "inf"
