import warnings

import numpy as np
import pytest

from abeltrace import residues
from abeltrace.errors import (
    ClusterPoint,
    PoleDetected,
    TooFewCleanSamples,
)
from abeltrace.geometry import (
    DomainSpec,
    PlaneChart,
    ResidueData,
    VarietySpec,
    solve_fiber,
)
from abeltrace.multipoly import MultiPoly
from abeltrace.numeric import UniPoly
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

V2 = ("x", "y")


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
        fiber = solve_fiber(data.variety, chart)
        pts = {complex(np.round(p.coords[1], 9)): p for p in fiber.points}
        # jacobian at (4, 2) is -4, so the residue of 1 against y^0 is -1/4
        val = punctual_residue(data, chart, pts[2.0 + 0j], (0,))
        assert val == pytest.approx(-0.25)
        assert abs(val) == pytest.approx(0.25)

    def test_zero_numerator(self):
        data = parabola_data(MultiPoly.zero(V2))
        chart = PlaneChart([[0.0]], [4.0])
        fiber = solve_fiber(data.variety, chart)
        assert punctual_residue(data, chart, fiber.points[0], (1,)) == 0

    def test_single_sheet_unimodular(self):
        c = 0.6 - 0.2j
        f = MultiPoly(V2, {(0, 1): 1.0, (0, 0): -c})
        v = VarietySpec(("x",), ("y",), [f])
        data = ResidueData(v, MultiPoly.constant(1.0, V2))
        chart = PlaneChart([[0.0]], [1.3])
        fiber = solve_fiber(v, chart)
        val = punctual_residue(data, chart, fiber.points[0], (1,))
        assert abs(fiber.points[0].jacobian) == pytest.approx(1.0)
        assert val == pytest.approx(-c)

    def test_cluster_point_rejected(self):
        data = parabola_data()
        chart = PlaneChart([[0.0]], [0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            fiber = solve_fiber(data.variety, chart)
        with pytest.raises(ClusterPoint):
            punctual_residue(data, chart, fiber.points[0], (0,))


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
            p = UniPoly.from_roots(roots)
            f = MultiPoly.from_univariate(p, "y", V2)
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
        p = UniPoly.from_roots([1.0, -2.0, 1j])
        f = MultiPoly.from_univariate(p, "y", V2)
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
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            fiber = solve_fiber(data.variety, chart)
        val1 = clustered_residue(data, chart, fiber.points, (1,))
        val3 = clustered_residue(data, chart, fiber.points, (3,))
        assert val1 == pytest.approx(-1.0, abs=1e-10)
        assert abs(val3) < 1e-10

    def test_zero_numerator_cluster(self):
        data = parabola_data(MultiPoly.zero(V2))
        chart = PlaneChart([[0.0]], [0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            fiber = solve_fiber(data.variety, chart)
        assert clustered_residue(data, chart, fiber.points, (2,)) == 0

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
        fiber = solve_fiber(data.variety, chart)
        direct = sum(
            punctual_residue(data, chart, pt, (3,)) for pt in fiber.points
        )
        clustered = clustered_residue(data, chart, fiber.points, (3,))
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
    def test_parabola_entry_zero(self):
        data = parabola_data()
        dom = DomainSpec(PlaneChart([[0.0]], [3.0]), {"b1": 1.0})
        t = trace_table(data, dom, 3, GridPlan({"b1": 5}))
        assert np.max(np.abs(t.column(0))) < 1e-12
        # u_3 = -x on the grid
        for val, off in zip(t.column(3), t.offsets):
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
        for val, off in zip(t.column(2), t.offsets):
            x = 0.5 + off["b1"]
            assert val == pytest.approx(-(x**2))

    def test_value_off_plan(self):
        data = parabola_data()
        dom = DomainSpec(PlaneChart([[0.0]], [3.0]), {"b1": 1.0})
        t = trace_table(data, dom, 3, GridPlan({"b1": 3}))
        assert t.value(3, PlaneChart([[0.0]], [3.7])) == pytest.approx(-3.7)

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
        assert np.isnan(t.column(0)[0].real)

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
        offsets = TorusPlan(nodes).offsets(dom)
        idxs = list(np.ndindex(*(nodes,) * len(names)))
        assert len(offsets) == len(idxs)
        for off, idx in zip(offsets, idxs):
            assert off == {nm: 0j + radii[nm] * ring[i] for nm, i in zip(names, idx)}


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
