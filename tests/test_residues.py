import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abeltrace import residues
from abeltrace.errors import (
    ClusterPoint,
    DegreeDrop,
    DimensionMismatch,
    ExcessPoints,
    NonConvergence,
    PerturbationFailure,
    PoleDetected,
    TooFewCleanSamples,
)
from abeltrace.geometry import (
    Charts,
    DomainSpec,
    PlaneChart,
    ResidueData,
    VarietySpec,
    full_jacobian,
    lift_residue_data,
    solve_family,
    solve_fiber,
    veronese_lift,
)
from abeltrace.multipoly import MultiPoly
from abeltrace.numeric import UniPoly
from abeltrace.radon import radon_coefficients, verify_holomorphy
from abeltrace.residues import (
    GridPlan,
    ListPlan,
    TorusPlan,
    clustered_residue,
    evaluate_chart,
    hypersurface_trace,
    moment_sign,
    punctual_residue,
    trace,
    trace_table,
)
from builders import fiber_points, from_roots, from_univariate

V2 = ("x", "y")
V3 = ("x", "y1", "y2")


def parabola_data(psi=None):
    f = MultiPoly(V2, {(0, 2): 1.0, (1, 0): -1.0})
    v = VarietySpec(("x",), ("y",), [f])
    return ResidueData(v, psi if psi is not None else MultiPoly.constant(1.0, V2))


def sheet_data(slope=1.0, offset=0.0):
    # single sheet y = slope*x + offset
    f = MultiPoly(V2, {(0, 1): 1.0, (1, 0): -slope, (0, 0): -offset})
    v = VarietySpec(("x",), ("y",), [f])
    return ResidueData(v, MultiPoly.constant(1.0, V2))


class TestPunctualResidue:
    def test_parabola_point(self):
        data = parabola_data()
        chart = PlaneChart([[0.0]], [4.0])
        fiber = solve_fiber(data.variety, chart, expected_degree=2)
        pts = {complex(np.round(p.coords[1], 9)): p for p in fiber_points(fiber)}
        # jacobian at (4, 2) is -4, so the residue of 1 against y^0 is -1/4
        val = punctual_residue(data, chart, pts[2.0 + 0j], (0,))
        assert val == pytest.approx(-0.25)
        assert abs(val) == pytest.approx(0.25)

    def test_zero_numerator(self):
        data = parabola_data(MultiPoly.zero(V2))
        chart = PlaneChart([[0.0]], [4.0])
        fiber = solve_fiber(data.variety, chart, expected_degree=2)
        assert punctual_residue(data, chart, fiber_points(fiber)[0], (1,)) == 0

    def test_single_sheet_unimodular(self):
        c = 0.6 - 0.2j
        f = MultiPoly(V2, {(0, 1): 1.0, (0, 0): -c})
        v = VarietySpec(("x",), ("y",), [f])
        data = ResidueData(v, MultiPoly.constant(1.0, V2))
        chart = PlaneChart([[0.0]], [1.3])
        fiber = solve_fiber(v, chart, expected_degree=1)
        val = punctual_residue(data, chart, fiber_points(fiber)[0], (1,))
        assert abs(fiber.jacobians[0]) == pytest.approx(1.0)
        assert val == pytest.approx(-c)

    def test_cluster_point_rejected(self):
        data = parabola_data()
        chart = PlaneChart([[0.0]], [0.0])
        fiber = solve_fiber(data.variety, chart, expected_degree=2)
        with pytest.raises(ClusterPoint):
            punctual_residue(data, chart, fiber_points(fiber)[0], (0,))


class TestTrace:
    def test_parabola_closed_form(self):
        # u_k = sum y^k / (-2y) over y = +-sqrt(x0):
        # u_0 = 0, u_1 = -1, u_2 = 0, u_3 = -x0
        data = parabola_data()
        for x0 in (4.0, 2.0 - 1.5j):
            chart = PlaneChart([[0.0]], [x0])
            assert abs(trace(data, chart, 0)) < 1e-13
            assert trace(data, chart, 1) == pytest.approx(-1.0)
            assert abs(trace(data, chart, 2)) < 1e-13 * max(1.0, abs(x0))
            assert trace(data, chart, 3) == pytest.approx(-x0)

    def test_zero_numerator_all_indices(self):
        data = parabola_data(MultiPoly.zero(V2))
        chart = PlaneChart([[0.0]], [4.0])
        for k in range(5):
            assert trace(data, chart, k) == 0

    def test_single_sheet_powers(self):
        data = sheet_data(slope=2.0, offset=0.5)
        x0 = 1.2 + 0.4j
        g = 2.0 * x0 + 0.5
        chart = PlaneChart([[0.0]], [x0])
        for k in range(4):
            assert trace(data, chart, k) == pytest.approx(-(g**k))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_zero_jacobian_raises_cluster_point(self, seed):
        # x^2 y = 0 has the double component x = 0, where its gradient
        # vanishes: the lifted fiber point there has a zero Jacobian
        curve = VarietySpec(("x",), ("y",), [MultiPoly(V2, {(2, 1): 1.0})])
        v, _ = veronese_lift(curve, 2)
        data = lift_residue_data(ResidueData(curve, MultiPoly.constant(1.0, V2)), v)
        rng = np.random.default_rng(seed)
        chart = PlaneChart(rng.standard_normal((1, 4)) + 1j * rng.standard_normal((1, 4)),
                           [complex(*rng.standard_normal(2))])
        with pytest.raises(ClusterPoint, match="not transverse") as exc:
            trace(data, chart, (0, 0, 0, 0))
        assert np.array_equal(exc.value.chart_params, chart.to_params())

    def test_linear_in_numerator(self):
        rng = np.random.default_rng(2)
        t1 = {(int(rng.integers(0, 2)), int(rng.integers(0, 2))): 1.3 - 0.2j}
        t2 = {(int(rng.integers(0, 3)), int(rng.integers(0, 2))): -0.4 + 1.1j}
        p1, p2 = MultiPoly(V2, t1), MultiPoly(V2, t2)
        chart = PlaneChart([[0.3]], [2.0 + 0.3j])
        lam = 0.7 - 0.9j
        lhs = trace(parabola_data(p1 + lam * p2), chart, 2)
        rhs = trace(parabola_data(p1), chart, 2) + lam * trace(
            parabola_data(p2), chart, 2
        )
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_representation_independence(self):
        # multiplying the defining polynomial and the numerator by the
        # same unit leaves every trace unchanged
        f = MultiPoly(V2, {(0, 2): 1.0, (1, 0): -1.0})
        unit = MultiPoly(V2, {(0, 0): 2.0, (1, 0): 0.1})
        psi = MultiPoly(V2, {(0, 1): 1.0, (0, 0): 0.4})
        v1 = VarietySpec(("x",), ("y",), [f])
        d1 = ResidueData(v1, psi)
        v2 = VarietySpec(("x",), ("y",), [f * unit])
        d2 = ResidueData(v2, psi * unit)
        chart = PlaneChart([[0.0]], [3.0 + 1.0j])
        for k in range(4):
            u1 = trace(d1, chart, k)
            u2 = trace(d2, chart, k)
            assert abs(u1 - u2) <= 1e-10 * max(1.0, abs(u1))

    def test_representation_independence_y_unit(self):
        # same with a unit involving the fiber variable, on a slanted chart
        f = MultiPoly(V2, {(0, 2): 1.0, (1, 0): -1.0})
        unit = MultiPoly(V2, {(0, 0): 3.0, (0, 1): 0.05})
        psi = MultiPoly.constant(1.0, V2)
        d1 = ResidueData(VarietySpec(("x",), ("y",), [f]), psi)
        d2 = ResidueData(VarietySpec(("x",), ("y",), [f * unit]), psi * unit)
        chart = PlaneChart([[0.2]], [2.0 - 0.7j])
        for k in range(4):
            u1 = trace(d1, chart, k)
            u2 = trace(d2, chart, k)
            assert abs(u1 - u2) <= 1e-9 * max(1.0, abs(u1))


class TestTraceList:
    """``trace`` on a list of charts: one family solve, every declined
    chart through ``evaluate_chart``."""

    @staticmethod
    def _case(kind):
        if kind == "parabola":
            data = parabola_data(MultiPoly(V2, {(0, 0): 1.0, (0, 1): 0.3 - 0.2j}))
            center, indices = PlaneChart([[0.1 + 0.05j]], [3.0 + 0.2j]), [0, 1, 2, 3]
        elif kind == "cubic":
            f = MultiPoly(V2, {(0, 3): 1.0, (0, 1): 0.2j, (1, 0): -1.1, (0, 0): -0.3})
            data = ResidueData(VarietySpec(("x",), ("y",), [f]),
                               MultiPoly(V2, {(0, 0): 1.2, (0, 1): -0.25}))
            center, indices = PlaneChart([[0.05 - 0.1j]], [3.0 - 0.1j]), [0, 1, 2, 4]
        else:
            # the triangular family of test_propagation_ladder_p2
            f1 = MultiPoly(V3, {(0, 2, 0): 1.0, (1, 0, 0): -1.0})
            f2 = MultiPoly(V3, {(0, 0, 1): 1.0, (0, 1, 0): -1.0, (0, 0, 0): -1.0})
            data = ResidueData(VarietySpec(("x",), ("y1", "y2"), [f1, f2]),
                               MultiPoly.constant(1.0, V3))
            center, indices = PlaneChart([[0.1, 0.05]], [2.0 + 0.2j]), [(0, 0), (1, 0), (2, 1)]
        domain = DomainSpec(center, {"a1.1": 0.2, "b1": 1.0})
        return data, list(domain.charts_at(TorusPlan(8).offset_array(domain))), indices

    @pytest.mark.parametrize("kind", ["parabola", "cubic", "p2_triangular"])
    def test_matches_per_chart_trace(self, kind, monkeypatch):
        data, charts, indices = self._case(kind)
        want = np.array([[trace(data, ch, idx) for ch in charts] for idx in indices])
        calls = []
        real = residues._evaluate_one
        monkeypatch.setattr(residues, "_evaluate_one",
                            lambda *args, **kw: calls.append(1) or real(*args, **kw))
        got = np.array([trace(data, charts, idx) for idx in indices])
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        # every chart of these families is certified by the family solve
        assert calls == []

    def test_cluster_chart_gets_its_per_chart_value(self):
        data = parabola_data()
        charts = [PlaneChart([[0.0]], [b]) for b in (1.0, 0.0, 2.0 - 0.5j)]
        for k in range(4):
            got = trace(data, charts, k)
            # b = 0 is the parabola's double point: merged, then extrapolated
            assert got[1] == trace(data, charts[1], k)
            for s in (0, 2):
                assert abs(got[s] - trace(data, charts[s], k)) <= 1e-13 * max(1.0, abs(got[s]))
        assert trace(data, charts, 1)[1] == pytest.approx(-1.0, abs=1e-9)

    def test_pole_chart_raises(self):
        weight = MultiPoly(V2, {(1, 0): 1.0, (0, 0): -2.0})
        f = MultiPoly(V2, {(0, 2): 1.0, (3, 0): -1.0, (0, 0): -1.0})
        data = ResidueData(VarietySpec(("x",), ("y",), [f]), MultiPoly.constant(2.0, V2),
                           weight=weight)
        # the chart through (2, 3), on the weight's pole divisor x = 2
        charts = [PlaneChart([[0.2]], [b]) for b in (1.0, 2.0 - 0.6, 1.7)]
        trace(data, [charts[0], charts[2]], 0)
        with pytest.raises(PoleDetected):
            trace(data, charts, 0)

    def test_empty_list(self):
        assert trace(parabola_data(), [], 1).shape == (0,)
        assert trace(parabola_data(), [], [0, 1]).shape == (0, 2)

    def test_charts_of_different_shapes(self):
        # one list is one batch, so its charts share (n, p)
        with pytest.raises(DimensionMismatch, match="shapes"):
            trace(parabola_data(), [PlaneChart([[0.0]], [1.0]), PlaneChart([[0, 0]], [1.0])], 0)

    @staticmethod
    def _parent_flow(monkeypatch):
        # a family that never takes its own degree: every list with
        # expected_degree None is held to _baseline_degree(charts[0])
        real = residues.solve_family
        monkeypatch.setattr(residues, "solve_family", lambda v, charts, degree, *args: None
                            if degree is None else real(v, charts, degree, *args))

    @staticmethod
    def _outcome(data, charts, index):
        try:
            return trace(data, charts, index)
        except DegreeDrop as exc:
            return type(exc), str(exc)

    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), weighted=st.booleans())
    def test_own_degree_is_the_first_charts_baseline(self, seed, weighted):
        data, domain, _ = _family_case("p1_weight" if weighted else "p1",
                                       np.random.default_rng(seed))
        charts = domain.charts_at(TorusPlan(3).offset_array(domain))
        baseline = residues._baseline_degree(data, charts[0])
        found = solve_family(data.variety, charts, None)
        if np.all(solve_fiber(data.variety, charts[0], expected_degree=None).multiplicities == 1):
            assert found is not None and 0 in found[0]
        if found is not None:
            assert found[1].shape[1] == baseline
            for got, want in zip(found, solve_family(data.variety, charts, baseline)):
                assert np.array_equal(got, want)
        _assert_same_evaluation(evaluate_chart(data, charts),
                                evaluate_chart(data, charts, expected_degree=baseline))

    def test_own_degree_solves_no_chart_on_its_own(self, monkeypatch):
        data, charts, _ = self._case("cubic")
        calls = []
        real = residues.solve_fiber
        monkeypatch.setattr(residues, "solve_fiber",
                            lambda *args, **kw: calls.append(1) or real(*args, **kw))
        trace(data, charts, [0, 1])
        assert calls == []
        self._parent_flow(monkeypatch)
        trace(data, charts, [0, 1])
        assert calls == [1]

    def test_declined_first_chart_keeps_the_parent_degree(self, monkeypatch):
        # the parabola's double point b = 0 first: the family declines it,
        # so its solve_fiber count (one point of multiplicity 2) sets the
        # degree, as it did before; that count is the family's own degree,
        # so the family is solved once
        data = parabola_data()
        charts = [PlaneChart([[0.0]], [b]) for b in (0.0, 1.0, 2.0 - 0.5j)]
        found = solve_family(data.variety, Charts.stack(charts), None)
        assert 0 not in found[0] and found[1].shape[1] == 2
        degrees, real = [], residues.solve_family
        monkeypatch.setattr(residues, "solve_family", lambda v, charts, degree, *args:
                            degrees.append(degree) or real(v, charts, degree, *args))
        got = trace(data, charts, [0, 1, 3])
        assert degrees == [None]
        monkeypatch.undo()
        self._parent_flow(monkeypatch)
        assert np.array_equal(got, trace(data, charts, [0, 1, 3]))

    @pytest.mark.parametrize("b0", [-1.0, -1.0 + 1e-12])
    def test_vanishing_top_coefficient_keeps_the_parent_error(self, b0, monkeypatch):
        # (1 + x) y^2 - y - x: at b = -1 the y^2 coefficient is exactly 0,
        # one point (the family's degree 1, as solve_fiber's); just off it
        # a root escapes, the family declines the chart and solve_fiber
        # raises for it
        f = MultiPoly(V2, {(0, 2): 1.0, (1, 2): 1.0, (0, 1): -1.0, (1, 0): -1.0})
        data = ResidueData(VarietySpec(("x",), ("y",), [f]), MultiPoly.constant(1.0, V2))
        charts = [PlaneChart([[0.0]], [b]) for b in (b0, 0.5, 0.3j)]
        found = solve_family(data.variety, Charts.stack(charts), None)
        if b0 == -1.0:
            assert found[0].tolist() == [0] and found[1].shape[1] == 1
            assert residues._baseline_degree(data, charts[0]) == 1
        else:
            assert 0 not in found[0]
        got = self._outcome(data, charts, 1)
        assert got[0] is DegreeDrop
        self._parent_flow(monkeypatch)
        assert got == self._outcome(data, charts, 1)

    def test_list_of_indices(self):
        # charts first, the index axis last; each column is that index's
        # trace, the cluster chart b = 0 included
        data = parabola_data()
        charts = [PlaneChart([[0.0]], [b]) for b in (1.0, 0.0, 2.0 - 0.5j)]
        got = trace(data, charts, [0, (1,), 3])
        assert got.shape == (3, 3)
        for k, col in zip((0, 1, 3), got.T):
            want = trace(data, charts, k)
            assert np.all(np.abs(col - want) <= 1e-14 * np.maximum(1.0, np.abs(want)))
        one = trace(data, charts[2], [3, 0])
        assert one.shape == (2,)
        assert abs(one[0] - trace(data, charts[2], 3)) <= 1e-14 * abs(one[0])

    def test_chart_losing_a_point_raises(self):
        # (1 + x) y^2 - y - x: two points on the vertical chart x = b, but
        # one at b = -1, where the leading coefficient vanishes; a list
        # must not sum that chart's one point as its trace
        f = MultiPoly(V2, {(0, 2): 1.0, (1, 2): 1.0, (0, 1): -1.0, (1, 0): -1.0})
        data = ResidueData(VarietySpec(("x",), ("y",), [f]), MultiPoly.constant(1.0, V2))
        charts = [PlaneChart([[0.0]], [b]) for b in (0.5, -1.0, 0.3j)]
        assert solve_fiber(data.variety, charts[0], expected_degree=None).total_multiplicity == 2
        with pytest.raises(DegreeDrop):
            trace(data, charts[1], 1, expected_degree=2)
        with pytest.raises(DegreeDrop):
            trace(data, charts, 1)
        # the first chart sets the list's degree, whichever it is
        with pytest.raises(DegreeDrop):
            trace(data, [charts[1], charts[0]], 1)
        got = trace(data, [charts[0], charts[2]], 1)
        for s, ch in enumerate((charts[0], charts[2])):
            assert abs(got[s] - trace(data, ch, 1)) <= 1e-13 * max(1.0, abs(got[s]))


class TestJacobiVanishing:
    def test_vanishing_and_top_weight(self):
        # traces of 1/P'(y) against y^k vanish for k <= d-2 and have
        # modulus 1/|lc| at k = d-1 (global residue identity)
        rng = np.random.default_rng(20)
        for _ in range(20):
            d = int(rng.integers(2, 7))
            roots = []
            while len(roots) < d:
                cand = (0.4 + 0.9 * rng.uniform()) * np.exp(
                    2j * np.pi * rng.uniform()
                )
                if all(abs(cand - r) > 0.25 for r in roots):
                    roots.append(cand)
            p = from_roots(roots)
            f = from_univariate(p, "y", V2)
            v = VarietySpec(("x",), ("y",), [f])
            data = ResidueData(v, MultiPoly.constant(1.0, V2))
            chart = PlaneChart([[0.0]], [0.8])
            us = [trace(data, chart, k) for k in range(d)]
            scale = max(abs(u) for u in us)
            for k in range(d - 1):
                assert abs(us[k]) <= 1e-9 * scale
            assert abs(abs(us[d - 1]) - 1.0) <= 1e-9

    def test_partial_fraction_oracle(self):
        # independent symbolic oracle: exact partial fractions via sympy
        sympy = pytest.importorskip("sympy")
        y = sympy.symbols("y")
        p_sym = (y - 1) * (y + 2) * (y - sympy.I)
        dp = sympy.diff(p_sym, y)
        p = from_roots([1.0, -2.0, 1j])
        f = from_univariate(p, "y", V2)
        data = ResidueData(
            VarietySpec(("x",), ("y",), [f]), MultiPoly.constant(1.0, V2)
        )
        chart = PlaneChart([[0.0]], [0.5])
        sign = moment_sign(1, 1)
        for k in range(4):
            expr = sympy.RootSum(
                sympy.Poly(p_sym, y), sympy.Lambda(y, y**k / dp)
            )
            oracle = complex(sympy.simplify(expr))
            got = trace(data, chart, k)
            assert abs(got - sign * oracle) < 1e-10 * max(1.0, abs(oracle))


class TestClusteredResidue:
    def test_double_point_limit(self):
        # at b -> 0 the parabola's double point: u_1 = -1 and u_3 = -b -> 0
        data = parabola_data()
        chart = PlaneChart([[0.0]], [0.0])
        fiber = solve_fiber(data.variety, chart, expected_degree=2)
        val1 = clustered_residue(data, chart, fiber_points(fiber), (1,))
        val3 = clustered_residue(data, chart, fiber_points(fiber), (3,))
        assert val1 == pytest.approx(-1.0, abs=1e-10)
        assert abs(val3) < 1e-10

    def test_two_double_points(self):
        # f = (y^2 - 1)^2 - x at x = 0: double points at y = 1 and y = -1,
        # each matched next to the other. The division identity gives
        # u_3 = -1, u_5 = -2 and u_k = 0 for the other k up to 6
        f = MultiPoly(V2, {(0, 4): 1.0, (0, 2): -2.0, (0, 0): 1.0, (1, 0): -1.0})
        data = ResidueData(VarietySpec(("x",), ("y",), [f]), MultiPoly.constant(1.0, V2))
        chart = PlaneChart([[0.0]], [0.0])
        fiber = solve_fiber(data.variety, chart, expected_degree=4)
        assert fiber.multiplicities.tolist() == [2, 2]
        ev = evaluate_chart(data, chart)
        assert ev.flags == ("cluster",)
        got = ev.value([(k,) for k in range(7)])[0]
        want = [0, 0, 0, -1, 0, -2, 0]
        assert np.max(np.abs(got - want)) < 1e-9

    def test_zero_numerator_cluster(self):
        data = parabola_data(MultiPoly.zero(V2))
        chart = PlaneChart([[0.0]], [0.0])
        fiber = solve_fiber(data.variety, chart, expected_degree=2)
        assert clustered_residue(data, chart, fiber_points(fiber), (2,)) == 0

    def test_ladder_moves_only_b1(self, monkeypatch):
        # n = 2: y^2 = x_1 with x_2 free has a double point at b_1 = 0.
        # Each perturbed chart keeps a and b_2 and moves b_1 by
        # CLUSTER_DELTA * (|b_1| + 1) / 2^level along one direction
        V = ("x1", "x2", "y")
        f = MultiPoly(V, {(0, 0, 2): 1.0, (1, 0, 0): -1.0})
        data = ResidueData(VarietySpec(("x1", "x2"), ("y",), [f]), MultiPoly.constant(1.0, V))
        chart = PlaneChart([[0.0], [0.3]], [0.0, 0.7])
        charts, real_solve = [], residues.solve_fiber

        def solve(variety, ch, *args, **kwargs):
            charts.append(ch)
            return real_solve(variety, ch, *args, **kwargs)

        monkeypatch.setattr(residues, "solve_fiber", solve)
        assert evaluate_chart(data, chart).flags == ("cluster",)
        ladder = charts[1:]
        assert len(ladder) == residues.CLUSTER_LEVELS
        steps = np.array([ch.b[0] - chart.b[0] for ch in ladder])
        for ch in ladder:
            assert np.array_equal(ch.a, chart.a) and ch.b[1] == chart.b[1]
        assert np.allclose(np.abs(steps), residues.CLUSTER_DELTA / 2.0 ** np.arange(len(steps)))
        assert np.allclose(steps / np.abs(steps), steps[0] / abs(steps[0]))

    def test_solver_bug_on_perturbed_chart_propagates(self, monkeypatch):
        # only the solver's own failures mean "this perturbation did not
        # separate the cluster"; any other exception is a bug and must
        # surface instead of turning into PerturbationFailure
        data = parabola_data()
        chart = PlaneChart([[0.0]], [0.0])
        real_solve = residues.solve_fiber

        def solve(variety, ch, *args, **kwargs):
            if ch.b[0] != chart.b[0]:
                raise TypeError("bug in the solve path")
            return real_solve(variety, ch, *args, **kwargs)

        monkeypatch.setattr(residues, "solve_fiber", solve)
        with pytest.raises(TypeError):
            evaluate_chart(data, chart)

    def test_consistency_on_simple_points(self):
        # a loose "cluster" of two genuinely simple points: the
        # extrapolated sum must agree with the direct sum of residues
        data = parabola_data()
        chart = PlaneChart([[0.0]], [4.0])
        fiber = solve_fiber(data.variety, chart, expected_degree=2)
        direct = sum(
            punctual_residue(data, chart, pt, (3,)) for pt in fiber_points(fiber)
        )
        clustered = clustered_residue(data, chart, fiber_points(fiber), (3,))
        assert abs(clustered - direct) < 1e-12 * max(1.0, abs(direct))

    def test_extrapolation_weights_reproduce_polynomial_at_zero(self):
        # on the ladder's geometric complex nodes, the folded weights
        # extrapolate any polynomial of degree below the level count
        # exactly, and a constant (degree 0) to itself
        rng = np.random.default_rng(7)
        direction = np.exp(0.37j)
        for base in (1.0, 3.5):
            nodes = [
                residues.CLUSTER_DELTA * base / 2.0**lev * direction
                for lev in range(residues.CLUSTER_LEVELS)
            ]
            weights = residues._extrapolation_weights(nodes)
            assert abs(sum(weights) - 1.0) < 1e-13
            for deg in range(residues.CLUSTER_LEVELS):
                coeffs = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
                p = UniPoly(coeffs)
                got = sum(c * p(x) for c, x in zip(weights, nodes))
                scale = max(abs(c) for c in coeffs)
                assert abs(got - coeffs[0]) < 1e-13 * scale

    def test_near_degenerate_matches_perturbed_limit(self):
        # trace through the cluster path matches the closed form u_3 = -b
        data = parabola_data()
        for b in (0.0, 1e-9):
            chart = PlaneChart([[0.0]], [b])
            val = trace(data, chart, 3)
            assert abs(val - (-b)) < 1e-9


class TestTraceTable:
    def test_improper_projection_refused_when_sampling(self):
        # x - 2 builds, but the centre chart x = 3 meets it nowhere: the
        # domain's baseline refuses it, for a table, a transform and a
        # chart list's own degree alike
        data = ResidueData(VarietySpec(("x",), ("y",), [MultiPoly(V2, {(1, 0): 1.0, (0, 0): -2.0})]),
                           MultiPoly.constant(1.0, V2))
        dom = DomainSpec(PlaneChart([[0.0]], [3.0]), {"b1": 0.5})
        for sample in (lambda: trace_table(data, dom, 2, TorusPlan(4)),
                       lambda: radon_coefficients(data, dom, TorusPlan(4)),
                       lambda: trace(data, [dom.chart], 1)):
            with pytest.raises(ValueError, match="projection is not proper"):
                sample()

    @pytest.mark.parametrize("max_order", [-1, 1.5, "3"])
    def test_bad_max_order_refused_before_any_solve(self, monkeypatch, max_order):
        def no_solve(*args, **kw):
            raise AssertionError("solved a chart")

        monkeypatch.setattr(residues, "solve_fiber", no_solve)
        monkeypatch.setattr(residues, "solve_family", no_solve)
        dom = DomainSpec(PlaneChart([[0.0]], [3.0]), {"b1": 1.0})
        with pytest.raises(ValueError, match="order count must be an integer of at least 0"):
            trace_table(parabola_data(), dom, max_order, GridPlan({"b1": 3}))

    def test_parabola_entry_zero(self):
        data = parabola_data()
        dom = DomainSpec(PlaneChart([[0.0]], [3.0]), {"b1": 1.0})
        t = trace_table(data, dom, 3, GridPlan({"b1": 5}))
        assert np.max(np.abs(t.entries[(0,)])) < 1e-12
        # u_3 = -x on the grid
        for val, off in zip(t.entries[(3,)], t.offsets):
            assert val == pytest.approx(-(3.0 + off["b1"]))

    def test_zero_numerator_table(self):
        data = parabola_data(MultiPoly.zero(V2))
        dom = DomainSpec(PlaneChart([[0.0]], [3.0]), {"b1": 1.0})
        t = trace_table(data, dom, 2, GridPlan({"b1": 3}))
        assert t.scale() == 0.0

    def test_single_sheet_powers_on_grid(self):
        data = sheet_data(slope=1.0, offset=0.0)
        dom = DomainSpec(PlaneChart([[0.0]], [0.5]), {"b1": 0.25})
        t = trace_table(data, dom, 3, GridPlan({"b1": 5}))
        for val, off in zip(t.entries[(2,)], t.offsets):
            x = 0.5 + off["b1"]
            assert val == pytest.approx(-(x**2))

    def test_value_off_plan(self):
        data = parabola_data()
        dom = DomainSpec(PlaneChart([[0.0]], [3.0]), {"b1": 1.0})
        t = trace_table(data, dom, 3, GridPlan({"b1": 3}))
        assert t.value(3, PlaneChart([[0.0]], [3.7])) == pytest.approx(-3.7)

    def test_value_on_a_list_of_charts(self):
        # the pole design of test_pole_flagging_and_exclusion: the chart
        # b = 2 - 3a meets the weight's divisor x = 2 at (2, 3)
        weight = MultiPoly(V2, {(1, 0): 1.0, (0, 0): -2.0})
        f = MultiPoly(V2, {(0, 2): 1.0, (3, 0): -1.0, (0, 0): -1.0})
        data = ResidueData(VarietySpec(("x",), ("y",), [f]), MultiPoly.constant(2.0, V2),
                           weight=weight)
        dom = DomainSpec(PlaneChart([[0.2]], [1.7]), {"b1": 0.5})
        t = trace_table(data, dom, 2, ListPlan(({"b1": 0.0}, {"b1": 0.2})))
        charts = [dom.chart_at({"b1": db}) for db in (0.05, -0.1, 0.12j, 0.2 - 0.1j)]
        pole = PlaneChart([[0.2]], [1.4])
        want = [evaluate_chart(data, ch, expected_degree=t.baseline_degree).value([(0,), (2,)])
                for ch in charts]
        assert isinstance(t.value(1, charts[0]), complex)
        got = t.value([(0,), (2,)], charts)
        assert got.shape == (4, 2) and t.value(1, charts).shape == (4,)
        for row, (values, scale) in zip(got, want):
            assert np.all(np.abs(row - values) <= 1e-13 * scale)
        # one chart is read by the per-chart path
        assert np.array_equal(t.value([(0,), (2,)], charts[2]), want[2][0])
        # the first failed chart in list order raises
        with pytest.raises(PoleDetected):
            t.value(1, [charts[0], pole])
        with pytest.raises(PoleDetected):
            t.value([(0,), (1,)], [pole, charts[1]])
        with pytest.raises(PoleDetected):
            t.value(1, pole)

    def _pole_table(self):
        # the pole design of test_value_on_a_list_of_charts, tabled to order 2
        weight = MultiPoly(V2, {(1, 0): 1.0, (0, 0): -2.0})
        f = MultiPoly(V2, {(0, 2): 1.0, (3, 0): -1.0, (0, 0): -1.0})
        data = ResidueData(VarietySpec(("x",), ("y",), [f]), MultiPoly.constant(2.0, V2),
                           weight=weight)
        dom = DomainSpec(PlaneChart([[0.2]], [1.7]), {"b1": 0.5})
        return trace_table(data, dom, 2, ListPlan(({"b1": 0.0}, {"b1": 0.2}))), dom

    def test_value_above_max_order_equals_trace(self):
        t, dom = self._pole_table()
        charts = [dom.chart_at({"b1": db}) for db in (0.05, -0.1, 0.12j)]
        want = trace(t.data, charts, 4, expected_degree=t.baseline_degree)
        scale = np.max(np.abs(want))
        assert np.all(np.abs(t.value(4, charts) - want) <= 1e-13 * scale)
        assert abs(t.value(4, charts[1]) - trace(t.data, charts[1], 4)) <= 1e-13 * scale
        both = t.value([4, (5,)], charts)
        assert both.shape == (3, 2) and np.array_equal(both[:, 0], t.value(4, charts))

    def test_value_above_max_order_on_a_pole_list_raises(self):
        t, dom = self._pole_table()
        with pytest.raises(PoleDetected):
            t.value(4, [dom.chart_at({"b1": 0.05}), PlaneChart([[0.2]], [1.4])])

    def test_pole_flagging_and_exclusion(self):
        weight = MultiPoly(V2, {(1, 0): 1.0, (0, 0): -2.0})  # x - 2
        f = MultiPoly(V2, {(0, 2): 1.0, (3, 0): -1.0, (0, 0): -1.0})
        v = VarietySpec(("x",), ("y",), [f])
        data = ResidueData(v, MultiPoly.constant(2.0, V2), weight=weight)
        # chart through (2, 3): b = 2 - 3a
        a = 0.2
        dom = DomainSpec(PlaneChart([[a]], [2.0 - 3.0 * a]), {"b1": 0.5})
        t = trace_table(
            data, dom, 1, ListPlan(({"b1": 0.0}, {"b1": 0.3}, {"b1": -0.25}))
        )
        assert t.flags[0] == "pole"
        assert t.flags[1] == "clean" and t.flags[2] == "clean"
        assert np.isnan(t.entries[(0,)][0].real)

    def test_escaped_fiber_point_flagged_dropped(self):
        # triangular p = 2 system; where b1 = 1.5 + 1e-9 the stage-1
        # quadratic (x - 1.5) y1^2 + y1 - 1 has a root near -1e9, past
        # ESCAPE_RADIUS: a degree drop, not a failed polish
        f1 = MultiPoly(V3, {(1, 2, 0): 1.0, (0, 2, 0): -1.5, (0, 1, 0): 1.0, (0, 0, 0): -1.0})
        f2 = MultiPoly(V3, {(0, 0, 1): 1.0, (0, 1, 0): -1.0, (0, 0, 0): -1.0})
        v = VarietySpec(("x",), ("y1", "y2"), [f1, f2])
        escaped = PlaneChart([[0.0, 0.0]], [1.5 + 1e-9])
        with pytest.raises(DegreeDrop):
            solve_fiber(v, escaped, expected_degree=2)
        assert len(solve_family(v, Charts.stack([escaped]), 2)[0]) == 0
        dom = DomainSpec(PlaneChart([[0.0, 0.0]], [2.0]), {"b1": 1.0})
        t = trace_table(ResidueData(v, MultiPoly.constant(1.0, V3)), dom, 1,
                        ListPlan(({"b1": 0.0}, {"b1": -0.5 + 1e-9}, {"b1": 0.3})))
        assert t.flags == ("clean", "degree-drop", "clean")

    def test_unconverged_chart_flagged(self):
        # the seed-0 system of TestSolveBivariate::test_far_polished_point_raises
        # unscaled (scaled by 1000, none of the charts tried solves
        # cleanly): charts near that test's chart are clean, and the same
        # chart with b1 scaled by 1e7 puts the fiber near |y| ~ 200, where
        # the polish fails
        rng = np.random.default_rng(0)
        defs = []
        for _ in range(2):
            t = {(0, i, j): complex(*rng.standard_normal(2))
                 for i in range(4) for j in range(4 - i)}
            t[(1, 0, 0)] = 1.0
            defs.append(MultiPoly(V3, t))
        data = ResidueData(VarietySpec(("x",), ("y1", "y2"), defs),
                           MultiPoly.constant(1.0, V3))
        dom = DomainSpec(PlaneChart([[0.3 + 0.1j, -0.2 + 0.4j]], [0.7 - 0.2j]), {"b1": 0.5})
        far = {"b1": (0.7 - 0.2j) * (1e7 - 1)}
        with pytest.raises(NonConvergence):
            evaluate_chart(data, dom.chart_at(far))
        plan = ListPlan(({"b1": 0.0}, far, {"b1": 0.3}, {"b1": 0.3j}))
        t = trace_table(data, dom, 2, plan)
        assert t.flags == ("clean", "unconverged", "clean", "clean")
        assert t.clean_mask().tolist() == [True, False, True, True]
        for vals in t.entries.values():
            assert np.isnan(vals[1]) and np.all(np.isfinite(vals[[0, 2, 3]]))
        rt = radon_coefficients(data, dom, plan)
        assert rt.flags == t.flags
        assert all(not poles for poles in verify_holomorphy(rt, 1e-6).pole_samples.values())

    def test_degenerate_cluster_chart_flagged(self):
        # the doubled line (y1 - y2)^2 against y1 y2 + y1 + x - 1: every
        # chart's fiber is two double points, so each cluster stays
        # degenerate under every perturbation (PerturbationFailure), and
        # a table flags every such chart
        f1 = MultiPoly(V3, {(0, 2, 0): 1.0, (0, 1, 1): -2.0, (0, 0, 2): 1.0})
        f2 = MultiPoly(V3, {(0, 1, 1): 1.0, (0, 1, 0): 1.0, (1, 0, 0): 1.0, (0, 0, 0): -1.0})
        data = ResidueData(VarietySpec(("x",), ("y1", "y2"), [f1, f2]),
                           MultiPoly.constant(1.0, V3))
        dom = DomainSpec(PlaneChart([[0.2 - 0.1j, 0.3 + 0.4j]], [0.5]), {"b1": 0.5})
        assert solve_fiber(data.variety, dom.chart, 4).multiplicities.tolist() == [2, 2]
        with pytest.raises(PerturbationFailure):
            evaluate_chart(data, dom.chart)
        t = residues._sample_charts(data, dom, ListPlan(({"b1": 0.0}, {"b1": 0.1})),
                                    [(0, 0), (1, 0), (0, 1)], 4)
        assert t.flags == ("unconverged", "unconverged")
        assert all(isinstance(e, PerturbationFailure)
                   for e in evaluate_chart(data, [dom.chart, dom.chart_at({"b1": 0.1})]).errors)
        assert all(np.isnan(vals).all() for vals in t.entries.values())
        # an all-flagged table has scale 0, with no all-NaN warning
        assert t.scale() == 0.0

    def test_excess_chart_flagged(self):
        # the seed-0 system of TestSolveBivariate::test_far_polished_point_raises
        # scaled by 1e3: at this chart the loop finds 9 points against a
        # resultant of degree 3 (ExcessPoints), and the nearby chart fails
        # its polish; a table flags both
        rng = np.random.default_rng(0)
        defs = []
        for _ in range(2):
            t = {(0, i, j): complex(*rng.standard_normal(2)) / 1e3 ** (i + j)
                 for i in range(4) for j in range(4 - i)}
            t[(1, 0, 0)] = 1.0
            defs.append(MultiPoly(V3, t))
        data = ResidueData(VarietySpec(("x",), ("y1", "y2"), defs),
                           MultiPoly.constant(1.0, V3))
        dom = DomainSpec(PlaneChart([[0.002 - 0.01j, 0.0003 + 0.0004j]], [-2.0]), {"b1": 0.5})
        with pytest.raises(ExcessPoints, match="9 points .* degree 3"):
            evaluate_chart(data, dom.chart)
        t = residues._sample_charts(data, dom, ListPlan(({"b1": 0.0}, {"b1": 0.1})),
                                    [(0, 0), (1, 0), (0, 1)], 9)
        assert t.flags == ("unconverged", "unconverged")
        ev = evaluate_chart(data, [dom.chart, dom.chart_at({"b1": 0.1})], expected_degree=9)
        assert [type(e) for e in ev.errors] == [ExcessPoints, NonConvergence]
        assert all(np.isnan(vals).all() for vals in t.entries.values())

    @pytest.mark.parametrize("d", [38, 40, 60])
    def test_high_degree_curve_reads_clean(self, d):
        # y^d - x - 2 on charts near x = 2 + 0.5 i: d simple roots near
        # the unit circle, and sum y^k / J vanishes for k <= d - 2
        f = MultiPoly(V2, {(0, d): 1.0, (1, 0): -1.0, (0, 0): -2.0})
        data = ResidueData(VarietySpec(("x",), ("y",), [f]), MultiPoly.constant(1.0, V2))
        dom = DomainSpec(PlaneChart([[0.05]], [2.0 + 0.5j]), {"b1": 0.3})
        t = trace_table(data, dom, 3, GridPlan({"b1": 4}))
        assert t.baseline_degree == d
        assert t.flags == ("clean",) * 4
        for vals, scale in zip(np.array(list(t.entries.values())).T, t.term_scales):
            assert np.all(np.abs(vals) <= 1e-13 * d * scale)

    def test_scale_is_largest_clean_entry(self):
        # a pole sample (NaN), a clean one with a NaN entry, and clean
        # samples: the per-index masked nanmax, bit for bit
        data = parabola_data()
        dom = DomainSpec(PlaneChart([[0.0]], [3.0]), {"b1": 1.0})
        t = trace_table(data, dom, 3, GridPlan({"b1": 5}))
        t.entries[(3,)][1] = complex(np.nan, np.nan)
        t.entries[(1,)][4] = 1e3
        t.flags = ("clean", "clean", "pole", "clean", "clean")
        t.entries[(2,)][2] = 1e6
        mask = t.clean_mask()
        want = max(float(np.nanmax(np.abs(np.asarray(v)[mask]))) for v in t.entries.values())
        assert t.scale() == want == 1e3

    def test_too_few_clean_samples(self):
        weight = MultiPoly(V2, {(1, 0): 1.0, (0, 0): -2.0})
        f = MultiPoly(V2, {(0, 2): 1.0, (3, 0): -1.0, (0, 0): -1.0})
        v = VarietySpec(("x",), ("y",), [f])
        data = ResidueData(v, MultiPoly.constant(2.0, V2), weight=weight)
        a = 0.2
        dom = DomainSpec(PlaneChart([[a]], [2.0 - 3.0 * a]), {"b1": 0.5})
        with pytest.raises(TooFewCleanSamples):
            trace_table(data, dom, 1, ListPlan(({"b1": 0.0}, {"b1": 0.0})))

    def test_pole_raises_on_direct_trace(self):
        weight = MultiPoly(V2, {(1, 0): 1.0, (0, 0): -2.0})
        f = MultiPoly(V2, {(0, 2): 1.0, (3, 0): -1.0, (0, 0): -1.0})
        v = VarietySpec(("x",), ("y",), [f])
        data = ResidueData(v, MultiPoly.constant(2.0, V2), weight=weight)
        with pytest.raises(PoleDetected):
            trace(data, PlaneChart([[0.2]], [2.0 - 0.6]), 0)


@pytest.mark.parametrize(
    "radii", [{"b1": 0.7}, {"a1.1": 0.7, "b1": 1.9}, {"a1.1": 0.7, "a1.2": 1.9, "b1": 0.05}]
)
def test_torus_plan_offset_order(radii):
    # propagate_trace_extension pairs grids[idx].ravel() with these offsets
    dom = DomainSpec(PlaneChart([[0.3, -0.2j]], [1.1]), radii)
    names = dom.varying
    assert set(names) == set(radii)
    for nodes in range(1, 9):
        ring = np.exp(2j * np.pi * np.arange(nodes) / nodes)
        offsets = TorusPlan(nodes).offset_array(dom)
        idxs = list(np.ndindex(*(nodes,) * len(names)))
        assert len(offsets) == len(idxs)
        for off, idx in zip(offsets.tolist(), idxs):
            assert off == [0j + radii[nm] * ring[i] for nm, i in zip(names, idx)]


class TestPlans:
    """Each plan's offset array against the dicts its table keeps, and the
    inputs a plan refuses because it would sample something other than
    what it says."""

    dom = DomainSpec(PlaneChart([[0.3]], [1.1]), {"a1.1": 0.5, "b1": 2.0})
    bdom = DomainSpec(PlaneChart([[0.3]], [1.1]), {"b1": 2.0})

    @pytest.mark.parametrize("plan", [
        GridPlan({"a1.1": 3, "b1": 4}), GridPlan({"b1": 3}), GridPlan({"a1.1": 1, "b1": 2}),
        TorusPlan(5), ListPlan(({"a1.1": 0.1j, "b1": -0.2}, {"b1": 0.3}, {})),
    ])
    def test_array_and_dicts_agree(self, plan):
        rows = plan.offset_array(self.dom)
        dicts = trace_table(parabola_data(), self.dom, 1, plan).offsets
        assert rows.shape == (len(dicts), 2) and rows.dtype == complex
        assert self.dom.offset_array(dicts).tobytes() == rows.tobytes()
        assert all(set(off) == {"a1.1", "b1"} for off in dicts)
        charts = self.dom.charts_at(rows)
        for s, off in enumerate(dicts):
            assert np.array_equal(charts[s].to_params(), self.dom.chart_at(off).to_params())

    def test_grid_order_and_uncovered_parameter(self):
        rows = GridPlan({"a1.1": 2, "b1": 3}).offset_array(self.dom)
        assert np.array_equal(rows, [[-0.5, -2.0], [-0.5, 0.0], [-0.5, 2.0],
                                     [0.5, -2.0], [0.5, 0.0], [0.5, 2.0]])
        # a parameter the grid does not list stays at the centre
        assert np.array_equal(GridPlan({"b1": 2}).offset_array(self.dom), [[0, -2.0], [0, 2.0]])

    @pytest.mark.parametrize("make", [
        lambda: GridPlan({"a1.1": -2}), lambda: GridPlan({"a1.1": 0, "b1": 5}),
        lambda: GridPlan({"b1": 2.5}), lambda: TorusPlan(-3), lambda: TorusPlan(0),
        lambda: TorusPlan(4.0),
    ])
    def test_count_below_one_or_not_an_integer(self, make):
        with pytest.raises(ValueError, match="integer of at least 1"):
            make()

    @pytest.mark.parametrize("plan", [
        GridPlan({"b2": 3}),                   # a typo: no such parameter
        GridPlan({"a1.1": 3, "b1": 3}),        # a1.1 is frozen on bdom
        ListPlan(({"a1.1": 0.05},)),
        ListPlan(({"b1": 0.1}, {"b1": 0.2, "a1.1": 0.05})),
    ])
    def test_parameter_the_domain_does_not_vary(self, plan):
        with pytest.raises(DimensionMismatch, match="not varied"):
            plan.offset_array(self.bdom)
        with pytest.raises(DimensionMismatch, match="not varied"):
            trace_table(parabola_data(), self.bdom, 1, plan)

    def test_empty_grid(self):
        with pytest.raises(ValueError, match="covers no varying parameter"):
            trace_table(parabola_data(), self.bdom, 1, GridPlan({}))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_non_finite_offset(self, bad):
        dom = DomainSpec(PlaneChart([[0.0]], [3.0]), {"b1": 1.0})
        plan = ListPlan(({"b1": 0.1}, {"b1": bad}, {"b1": 0.2}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                dom.chart_at({"b1": bad})
            with pytest.raises(ValueError, match="finite"):
                trace_table(parabola_data(), dom, 2, plan)


class TestHypersurfaceTrace:
    def test_parabola_against_horizontal_line(self):
        # f = y - x^2 meets y = 4 at x = +-2; det[[df],[dC]] = -2x,
        # so the trace of 1 is 0 and of x is -1
        f = MultiPoly(V2, {(0, 1): 1.0, (2, 0): -1.0})
        v = VarietySpec(("x",), ("y",), [f])
        data = ResidueData(v, MultiPoly.constant(1.0, V2))
        hyper = MultiPoly(V2, {(0, 1): 1.0, (0, 0): -4.0})
        assert abs(hypersurface_trace(data, hyper, (0, 0))) < 1e-12
        assert hypersurface_trace(data, hyper, (1, 0)) == pytest.approx(-1.0)


def test_moment_sign():
    assert moment_sign(1, 1) == -1.0
    assert moment_sign(1, 2) == 1.0
    assert moment_sign(2, 1) == 1.0
    assert moment_sign(2, 3) == 1.0
    assert moment_sign(3, 1) == -1.0


# ---------------------------------------------------------------------------
# chart families: the stacked solve against the per-chart path
# ---------------------------------------------------------------------------

def _dense(rng, vars, d):
    """Complex normal coefficients on every monomial of total degree <= d."""
    return MultiPoly(vars, {
        e: complex(*rng.standard_normal(2))
        for e in np.ndindex(*(d + 1,) * len(vars)) if sum(e) <= d
    })


def _family_case(kind, rng):
    """(residue data, domain, max_order) of a random plane curve of degree
    2-7 (p1, with a linear weight for p1_weight), of a p = 2 resultant
    family with n = 1 or 2, of a degree-2 Veronese lift of a random cubic,
    or of product-form data on vertical charts (a triangular family), the
    def in y1 listed first or, for p2_triangular_y2, the def in y2."""
    if kind.startswith("p1"):
        curve = VarietySpec(("x",), ("y",), [_dense(rng, V2, int(rng.integers(2, 8)))])
        weight = _dense(rng, V2, 1) if kind == "p1_weight" else None
        chart = PlaneChart([[0.3 * complex(*rng.standard_normal(2))]],
                           [0.5 * complex(*rng.standard_normal(2))])
        return (ResidueData(curve, _dense(rng, V2, 2), weight=weight),
                DomainSpec(chart, {"a1.1": 0.2, "b1": 0.3}), 3)
    if kind.startswith("p2_triangular"):
        # def s: monic of degree d_s in y_s, coefficients quadratic in x
        d = rng.integers(1, 4, size=2)
        defs = [MultiPoly(V3, {(e, k * (s == 0), k * (s == 1)): (
            complex(*rng.standard_normal(2)) if k < d[s] else float(e == 0))
            for e in range(3) for k in range(d[s] + 1)}) for s in range(2)]
        v = VarietySpec(("x",), ("y1", "y2"), defs[::-1] if kind.endswith("y2") else defs)
        chart = PlaneChart([[0.0, 0.0]], [0.5 * complex(*rng.standard_normal(2))])
        return ResidueData(v, _dense(rng, V3, 2)), DomainSpec(chart, {"b1": 0.3}), 3
    if kind == "lifted":
        curve = VarietySpec(("x",), ("y",), [_dense(rng, V2, 3)])
        base = ResidueData(curve, _dense(rng, V2, 1))
        v, _ = veronese_lift(base.variety, 2)
        a = 0.35 * (rng.standard_normal((1, 4)) + 1j * rng.standard_normal((1, 4)))
        chart = PlaneChart(a, [0.8 + 0.25 * complex(*rng.standard_normal(2))])
        return lift_residue_data(base, v), DomainSpec(chart, {"a1.1": 0.05, "b1": 0.1}), 1
    n = 1 if kind == "p2_n1" else 2
    vars = ("x1", "x2")[:n] + ("y1", "y2")
    d1, d2 = rng.integers(1, 4, size=2)
    v = VarietySpec(vars[:n], vars[n:], [_dense(rng, vars, d1), _dense(rng, vars, d2)])
    a = 0.3 * (rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2)))
    b = 0.5 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    domain = DomainSpec(PlaneChart(a, b), {"a1.1": 0.2, "b1": 0.3})
    return ResidueData(v, _dense(rng, vars, 1)), domain, 3


def _assert_same_evaluation(got, want):
    """Two ChartEvaluations with bitwise-equal points, weights and flags,
    and errors of the same types."""
    assert got.coords.shape == want.coords.shape and got.flags == want.flags
    assert np.array_equal(got.coords, want.coords) and np.array_equal(got.weights, want.weights)
    assert [type(e) for e in got.errors] == [type(e) for e in want.errors]


def _per_chart_table(data, domain, order, plan):
    with mock.patch.object(residues, "solve_family", return_value=None):
        return trace_table(data, domain, order, plan)


def _assert_same_table(got, want):
    assert got.flags == want.flags
    for idx, col in want.entries.items():
        assert np.array_equal(np.isnan(got.entries[idx]), np.isnan(col))
        clean = ~np.isnan(col)
        err = np.abs(got.entries[idx][clean] - col[clean])
        assert np.all(err <= 1e-12 * want.term_scales[clean])
    assert np.all(np.abs(got.term_scales - want.term_scales) <= 1e-12 * want.term_scales)


@pytest.mark.parametrize("kind", ["p2_n1", "p2_n2", "lifted", "p2_triangular"])
@settings(derandomize=True, max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_chart_terms_are_punctual_residues(kind, seed):
    # each simple-point term of evaluate_chart is punctual_residue at that
    # point, here with a weight that is not 1
    data, domain, _ = _family_case(kind, np.random.default_rng(seed))
    m = len(data.variety.vars)
    weight = MultiPoly(data.variety.vars, {(0,) * m: 2.0 - 0.5j, (1,) + (0,) * (m - 1): 0.3})
    data = ResidueData(data.variety, data.numerator, weight=weight)
    fiber = solve_fiber(data.variety, domain.chart, expected_degree=None)
    ev = evaluate_chart(data, domain.chart)
    assert len(ev.weights) == len(ev.coords) == len(fiber.coords)
    assert np.all(fiber.multiplicities == 1)
    for pt, coords, w in zip(fiber_points(fiber), ev.coords, ev.weights):
        assert tuple(coords) == pt.coords
        want = punctual_residue(data, domain.chart, pt, (0,) * data.variety.p)
        assert abs(w - want) <= 1e-14 * abs(want)


def test_p3_triangular_cascade_is_product_of_slots():
    # product-form data, one monic minimal polynomial per slot with x
    # entering linearly: on vertical charts the fiber is the product of
    # the slot fibers, so each trace is the product of the slots' p = 1
    # traces, up to the sign (-1)^(n p) against (-1)^n per slot. The
    # degree-2 slots' u_0 vanish, so the slot degrees keep 10 of the 35
    # traces nonzero, and the two degree-2 slots differ
    rng = np.random.default_rng(11)
    v4 = ("x", "y1", "y2", "y3")
    slots = [{(e, k): complex(*rng.standard_normal(2)) if k < d else 1.0
              for k in range(d + 1) for e in range(2 if k < d else 1)} for d in (2, 1, 2)]
    defs = [MultiPoly(v4, {(e,) + tuple(k * (s == i) for i in range(3)): c
                           for (e, k), c in slot.items()}) for s, slot in enumerate(slots)]
    data = ResidueData(VarietySpec(("x",), ("y1", "y2", "y3"), defs), MultiPoly.constant(1.0, v4))
    t3 = trace_table(data, DomainSpec(PlaneChart([[0.0, 0.0, 0.0]], [0.4 + 0.2j]), {"b1": 0.3}),
                     4, TorusPlan(6))
    assert len(t3.entries) == 35 and set(t3.flags) == {"clean"}
    dom1 = DomainSpec(PlaneChart([[0.0]], [0.4 + 0.2j]), {"b1": 0.3})
    t1 = [trace_table(ResidueData(VarietySpec(("x",), ("y",), [MultiPoly(V2, slot)]),
                                  MultiPoly.constant(1.0, V2)), dom1, 4, TorusPlan(6))
          for slot in slots]
    for idx, col in t3.entries.items():
        want = np.prod([moment_sign(1, 1) * t.entries[(k,)] for t, k in zip(t1, idx)], axis=0)
        assert np.max(np.abs(moment_sign(1, 3) * col - want)) <= 1e-13 * max(1.0, t3.scale())


class TestChartFamily:
    @pytest.mark.parametrize("kind", ["p1", "p1_weight", "p2_n1", "p2_n2", "lifted",
                                      "p2_triangular", "p2_triangular_y2"])
    @pytest.mark.parametrize("plan", [TorusPlan(3), GridPlan({"a1.1": 3, "b1": 3})])
    @settings(derandomize=True, max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_family_matches_per_chart_path(self, kind, plan, seed):
        data, domain, order = _family_case(kind, np.random.default_rng(seed))
        if isinstance(plan, GridPlan):
            # a grid covers only parameters the domain varies (b1 alone on
            # the triangular families' vertical charts)
            plan = GridPlan({k: c for k, c in plan.counts.items() if k in domain.radii})
        _assert_same_table(
            trace_table(data, domain, order, plan), _per_chart_table(data, domain, order, plan)
        )
        # the stacked Jacobians are full_jacobian's, point by point
        v = data.variety
        charts = domain.charts_at(plan.offset_array(domain))
        baseline = solve_fiber(v, domain.chart, expected_degree=None).total_multiplicity
        family = solve_family(v, charts, baseline)
        for s, points, jacs in zip(*family):
            for pt, jac in zip(points, jacs):
                want = full_jacobian(v, charts[s], tuple(pt))
                assert abs(jac - want) <= 1e-12 * abs(want)
        if kind.startswith("p2_triangular"):
            # product-form fibers are well separated: every chart certified
            assert len(family[0]) == len(charts)

    @pytest.mark.parametrize("kind", ["p1", "p2_n1", "p2_n2", "p2_triangular"])
    def test_impossible_degree_flags_every_chart(self, kind):
        # a degree the family cannot have (0, or above any chart's count)
        # is declined by the family, and each chart's own solve then
        # drops, so the list holds no chart
        data, domain, _ = _family_case(kind, np.random.default_rng(5))
        charts = domain.charts_at(TorusPlan(3).offset_array(domain))
        count = solve_fiber(data.variety, domain.chart, expected_degree=None).total_multiplicity
        for degree in (0, count - 1, count + 1, 50):
            if degree in (0, 50):
                assert solve_family(data.variety, charts, degree) is None
            ev = evaluate_chart(data, charts, expected_degree=degree)
            assert ev.flags == ("degree-drop",) * len(charts)
            assert all(isinstance(err, DegreeDrop) for err in ev.errors)

    def _tangent_family(self, weight=None):
        # the parabola y2 = y1^2 against the planes x = a y1 + b with
        # f2 = y2 - x: tangent at b = -a^2 / 4, the grid's centre
        v = VarietySpec(("x",), ("y1", "y2"), [
            MultiPoly(V3, {(0, 0, 1): 1.0, (0, 2, 0): -1.0}),
            MultiPoly(V3, {(0, 0, 1): 1.0, (1, 0, 0): -1.0}),
        ])
        data = ResidueData(v, MultiPoly(V3, {(0, 0, 0): 1.0, (0, 1, 0): 0.7}), weight=weight)
        return data, DomainSpec(PlaneChart([[0.5, 0.0]], [-0.0625]), {"b1": 0.1})

    def test_fallback_on_cluster_and_pole_charts(self, monkeypatch):
        plan = GridPlan({"b1": 5})
        _, domain = self._tangent_family()
        # a weight vanishing at one fiber point of the chart b = -0.0125
        root = np.roots([1.0, -0.5, 0.0625 - 0.05])[0]
        data, _ = self._tangent_family(MultiPoly(V3, {(0, 1, 0): 1.0, (0, 0, 0): -root}))
        want = _per_chart_table(data, domain, 3, plan)
        calls = []
        real = residues._evaluate_one
        monkeypatch.setattr(residues, "_evaluate_one",
                            lambda *args, **kw: calls.append(1) or real(*args, **kw))
        got = trace_table(data, domain, 3, plan)
        assert want.flags == ("clean", "clean", "cluster", "pole", "clean")
        _assert_same_table(got, want)
        assert len(calls) == 1

    def test_p1_fallback_on_cluster_and_pole_charts(self, monkeypatch):
        # the parabola y^2 = x on vertical charts: a double point at b = 0,
        # the grid's centre, and a weight x - 0.05 vanishing on the whole
        # fiber of the chart b = 0.05
        plan = GridPlan({"b1": 5})
        domain = DomainSpec(PlaneChart([[0.0]], [0.0]), {"b1": 0.1})
        data = ResidueData(parabola_data().variety, MultiPoly(V2, {(0, 0): 1.0, (0, 1): 0.7}),
                           weight=MultiPoly(V2, {(1, 0): 1.0, (0, 0): -0.05}))
        want = _per_chart_table(data, domain, 3, plan)
        calls = []
        real = residues._evaluate_one
        monkeypatch.setattr(residues, "_evaluate_one",
                            lambda data, chart, *args, **kw: calls.append(chart.b[0])
                            or real(data, chart, *args, **kw))
        got = trace_table(data, domain, 3, plan)
        assert want.flags == ("clean", "clean", "cluster", "pole", "clean")
        _assert_same_table(got, want)
        assert calls == [0.0]

    def test_family_pole_chart_is_flagged_without_a_solve(self, monkeypatch):
        # the parabola y^2 = x with the weight x - 0.05, which vanishes on
        # the whole fiber of the vertical chart b = 0.05
        data = ResidueData(parabola_data().variety, MultiPoly(V2, {(0, 0): 1.0}),
                           weight=MultiPoly(V2, {(1, 0): 1.0, (0, 0): -0.05}))
        charts = [PlaneChart([[0.0]], [b]) for b in (0.3, 0.05, -0.2 + 0.1j)]
        solved = []
        real = residues._evaluate_one
        monkeypatch.setattr(residues, "_evaluate_one", lambda data, chart, *args: solved.append(
            chart.to_params().tobytes()) or real(data, chart, *args))
        ev = evaluate_chart(data, charts, expected_degree=2)
        assert ev.flags == ("clean", "pole", "clean") and solved == []
        assert isinstance(ev.errors[1], PoleDetected)
        assert np.array_equal(ev.errors[1].chart_params, charts[1].to_params())
        with pytest.raises(PoleDetected):
            ev.checked()
        assert np.isnan(ev.value([(1,)])[0][1, 0])

    @pytest.mark.parametrize("swap", [False, True])
    def test_triangular_double_root_chart_falls_back(self, swap, monkeypatch):
        # f1 = u^2 - x has a double root u = 0 on the vertical chart x = 0,
        # the grid's centre; f2 involves both fiber variables. u is y1, or
        # y2 (the family solve then swaps the roles of y1 and y2)
        def poly(terms):
            return MultiPoly(V3, {(e[0], *e[1:][::-1 if swap else 1]): c
                                  for e, c in terms.items()})

        v = VarietySpec(("x",), ("y1", "y2"), [
            poly({(0, 2, 0): 1.0, (1, 0, 0): -1.0}),
            poly({(0, 0, 2): 1.0, (0, 1, 1): 0.5, (0, 1, 0): 0.2, (1, 0, 0): 0.3,
                  (0, 0, 0): -1.0}),
        ])
        data = ResidueData(v, poly({(0, 0, 0): 1.0, (0, 1, 0): 0.6, (0, 0, 1): -0.4j}))
        domain = DomainSpec(PlaneChart([[0.0, 0.0]], [0.0]), {"b1": 0.2})
        plan = GridPlan({"b1": 5})
        want = _per_chart_table(data, domain, 3, plan)
        calls = []
        real = residues._evaluate_one
        monkeypatch.setattr(residues, "_evaluate_one",
                            lambda data, chart, *args, **kw: calls.append(chart.b[0])
                            or real(data, chart, *args, **kw))
        got = trace_table(data, domain, 3, plan)
        assert want.flags == ("clean", "clean", "cluster", "clean", "clean")
        _assert_same_table(got, want)
        assert calls == [0.0]

    def test_vanishing_w_polynomial_falls_back(self):
        # f1 = y1 (y2 + x): at the resultant root y1 = 0 the w-polynomial of
        # f1 vanishes identically, so no chart can be certified
        v = VarietySpec(("x",), ("y1", "y2"), [
            MultiPoly(V3, {(0, 1, 1): 1.0, (1, 1, 0): 1.0}),
            MultiPoly(V3, {(0, 0, 1): 1.0, (0, 2, 0): 0.3, (1, 0, 0): 0.2, (0, 0, 0): -0.5}),
        ])
        data = ResidueData(v, MultiPoly(V3, {(0, 0, 0): 1.0, (0, 1, 0): 0.5}))
        domain = DomainSpec(PlaneChart([[0.3, 0.1]], [0.2]), {"a1.1": 0.1, "b1": 0.2})
        plan = GridPlan({"a1.1": 3, "b1": 3})
        positions, _, _ = solve_family(v, domain.charts_at(plan.offset_array(domain)), 3)
        assert positions.size == 0
        _assert_same_table(
            trace_table(data, domain, 2, plan), _per_chart_table(data, domain, 2, plan)
        )

    @pytest.mark.parametrize("vertical", [False, True])
    def test_no_plan_chart_falls_back(self, vertical, monkeypatch):
        # the x^3 term raises the first def's y-degree to 3 where a != 0;
        # on vertical charts (a = 0) the family's degree-3 terms vanish on
        # every chart, so its degrees are those of each chart
        rng = np.random.default_rng(7)
        f1 = _dense(rng, V3, 2) + MultiPoly(V3, {(3, 0, 0): 1.0})
        v = VarietySpec(("x",), ("y1", "y2"), [f1, _dense(rng, V3, 2)])
        data = ResidueData(v, _dense(rng, V3, 1))
        if vertical:
            domain = DomainSpec(PlaneChart([[0.0, 0.0]], [0.4 - 0.2j]), {"b1": 0.3})
        else:
            chart = PlaneChart([[0.2, -0.1j]], [0.4 - 0.2j])
            domain = DomainSpec(chart, {"a1.1": 0.2, "b1": 0.3})
        monkeypatch.setattr(residues, "_evaluate_one", mock.Mock(side_effect=AssertionError))
        t = trace_table(data, domain, 3, TorusPlan(4))
        assert set(t.flags) == {"clean"}
        assert t.baseline_degree == (4 if vertical else 6)

    @pytest.mark.parametrize("kind", ["p1", "p1_weight", "p2_n1", "lifted", "p2_triangular"])
    @settings(derandomize=True, max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_batch_and_list_give_one_evaluation(self, kind, seed):
        # a Charts batch against the same charts as a list of PlaneCharts
        data, domain, _ = _family_case(kind, np.random.default_rng(seed))
        batch = domain.charts_at(TorusPlan(3).offset_array(domain))
        charts = [PlaneChart(a.copy(), b.copy()) for a, b in zip(batch.a, batch.b)]
        baseline = solve_fiber(data.variety, domain.chart, expected_degree=None).total_multiplicity
        for degree in (None, baseline):
            _assert_same_evaluation(evaluate_chart(data, batch, expected_degree=degree),
                                    evaluate_chart(data, charts, expected_degree=degree))

    def test_batch_and_list_agree_on_flagged_charts(self):
        # p = 1: clean, pole (certified by the family), cluster and a
        # degree drop; p = 2: the tangent family's cluster and pole charts
        p1 = ResidueData(parabola_data().variety, MultiPoly(V2, {(0, 0): 1.0, (0, 1): 0.7}),
                         weight=MultiPoly(V2, {(1, 0): 1.0, (0, 0): -0.05}))
        drop = ResidueData(VarietySpec(("x",), ("y",), [MultiPoly(V2, {
            (0, 2): 1.0, (1, 2): 1.0, (0, 1): -1.0, (1, 0): -1.0})]), MultiPoly.constant(1.0, V2))
        root = np.roots([1.0, -0.5, 0.0625 - 0.05])[0]
        p2, domain = self._tangent_family(MultiPoly(V3, {(0, 1, 0): 1.0, (0, 0, 0): -root}))
        cases = [(p1, [PlaneChart([[0.0]], [b]) for b in (0.3, 0.05, 0.0, -0.2 + 0.1j)], 2),
                 (drop, [PlaneChart([[0.0]], [b]) for b in (0.5, -1.0, 0.3j)], 2),
                 (p2, list(domain.charts_at(GridPlan({"b1": 5}).offset_array(domain))), None)]
        flags = []
        for data, charts, degree in cases:
            batch = Charts.stack(charts)
            got = evaluate_chart(data, batch, expected_degree=degree)
            _assert_same_evaluation(got, evaluate_chart(data, charts, expected_degree=degree))
            flags.append(got.flags)
        assert flags == [("clean", "pole", "cluster", "clean"),
                         ("clean", "degree-drop", "clean"),
                         ("clean", "clean", "cluster", "pole", "clean")]
