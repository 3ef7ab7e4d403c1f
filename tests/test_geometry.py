import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abeltrace.errors import (
    DegreeDrop,
    DimensionMismatch,
    NearDiscriminantWarning,
    UnsupportedDimension,
)
from abeltrace.geometry import (
    DomainSpec,
    PlaneChart,
    ResidueData,
    VarietySpec,
    full_jacobian,
    plane_substitute,
    solve_bivariate,
    solve_fiber,
    veronese_lift,
)
from abeltrace.multipoly import MultiPoly

V2 = ("x", "y")
V3 = ("x", "y1", "y2")


def parabola():
    f = MultiPoly(V2, {(0, 2): 1.0, (1, 0): -1.0})
    return VarietySpec(("x",), ("y",), [f])


def elliptic():
    # y^2 = x^3 + 1
    f = MultiPoly(V2, {(0, 2): 1.0, (3, 0): -1.0, (0, 0): -1.0})
    return VarietySpec(("x",), ("y",), [f])


def triangular_pair():
    f1 = MultiPoly(V3, {(0, 2, 0): 1.0, (1, 0, 0): -1.0})
    f2 = MultiPoly(V3, {(0, 0, 1): 1.0, (0, 1, 0): -1.0, (0, 0, 0): -1.0})
    return VarietySpec(("x",), ("y1", "y2"), [f1, f2])


class TestPlaneChart:
    def test_param_round_trip(self):
        ch = PlaneChart([[1.0, 2.0j]], [3.0])
        names = ch.param_names()
        assert names == ("a1.1", "a1.2", "b1")
        back = PlaneChart.from_params(1, 2, ch.to_params())
        assert np.allclose(back.a, ch.a) and np.allclose(back.b, ch.b)

    def test_replace(self):
        ch = PlaneChart([[0.0]], [1.0]).replace(b1=5.0, **{"a1.1": 2.0})
        assert ch.a[0, 0] == 2.0 and ch.b[0] == 5.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            PlaneChart([[1.0], [2.0]], [1.0])


class TestDomainSpec:
    def test_validation(self):
        ch = PlaneChart([[0.0]], [0.0])
        with pytest.raises(DimensionMismatch):
            DomainSpec(ch, {"c3": 1.0})
        with pytest.raises(ValueError):
            DomainSpec(ch, {"b1": 0.0})

    def test_chart_at(self):
        dom = DomainSpec(PlaneChart([[0.0]], [1.0]), {"b1": 2.0})
        ch = dom.chart_at({"b1": 1.5})
        assert ch.b[0] == pytest.approx(2.5)
        assert dom.chart_at([1.5]).b[0] == pytest.approx(2.5)


class TestPlaneSubstitute:
    def test_vertical(self):
        # y^2 - x with x := c
        subs = plane_substitute(parabola(), PlaneChart([[0.0]], [4.0]))
        assert subs[0].terms == {(2,): 1.0 + 0j, (0,): -4.0 + 0j}

    def test_slanted(self):
        # y^2 - x with x := y gives y^2 - y
        subs = plane_substitute(parabola(), PlaneChart([[1.0]], [0.0]))
        assert subs[0].terms == {(2,): 1.0 + 0j, (1,): -1.0 + 0j}

    def test_two_fiber_variables(self):
        subs = plane_substitute(
            triangular_pair(), PlaneChart([[0.0, 0.0]], [7.0])
        )
        assert subs[0].terms == {(2, 0): 1.0 + 0j, (0, 0): -7.0 + 0j}
        assert subs[1].terms == {(0, 1): 1.0 + 0j, (1, 0): -1.0 + 0j, (0, 0): -1.0 + 0j}

    def test_dimension_check(self):
        with pytest.raises(DimensionMismatch):
            plane_substitute(parabola(), PlaneChart([[0.0, 0.0]], [1.0]))


class TestSolveFiber:
    def test_parabola_points_and_jacobians(self):
        # fiber of y^2 = x over x = 4: points (4, +-2); the Jacobian of
        # (f, l) in (x, y) is det[[-1, 2y], [1, 0]] = -2y
        fiber = solve_fiber(parabola(), PlaneChart([[0.0]], [4.0]))
        got = {complex(np.round(pt.coords[1], 9)): pt for pt in fiber.points}
        assert set(got) == {2.0 + 0j, -2.0 + 0j}
        assert got[2.0 + 0j].jacobian == pytest.approx(-4.0)
        assert got[-2.0 + 0j].jacobian == pytest.approx(4.0)
        for pt in fiber.points:
            assert abs(pt.jacobian) == pytest.approx(4.0)

    def test_double_point_cluster(self):
        with pytest.warns(NearDiscriminantWarning):
            fiber = solve_fiber(parabola(), PlaneChart([[0.0]], [0.0]))
        assert len(fiber.points) == 1
        assert fiber.points[0].cluster_size == 2
        assert fiber.total_multiplicity == 2

    def test_triangular_system(self):
        fiber = solve_fiber(triangular_pair(), PlaneChart([[0.0, 0.0]], [4.0]))
        pts = {
            (complex(np.round(pt.coords[1], 9)), complex(np.round(pt.coords[2], 9)))
            for pt in fiber.points
        }
        assert pts == {(2 + 0j, 3 + 0j), (-2 + 0j, -1 + 0j)}

    def test_degree_drop_vertical_line_on_cubic(self):
        # a generic line meets the cubic in 3 points, a vertical one in 2
        v = elliptic()
        assert v.degree == 2  # projection probe
        fiber3 = solve_fiber(v, PlaneChart([[0.7]], [0.4]), expected_degree=None)
        assert fiber3.total_multiplicity == 3
        with pytest.raises(DegreeDrop):
            solve_fiber(v, PlaneChart([[0.0]], [0.4]), expected_degree=3)

    def test_defining_polys_vanish_on_fiber(self):
        v = elliptic()
        chart = PlaneChart([[0.4 + 0.2j]], [0.9 - 0.1j])
        fiber = solve_fiber(v, chart, expected_degree=None)
        for pt in fiber.points:
            point = dict(zip(v.vars, pt.coords))
            assert abs(v.defs[0].evaluate(point)) < 1e-9
            xs, ys = np.array(pt.coords[: v.n]), np.array(pt.coords[v.n:])
            assert np.max(np.abs(xs - (chart.a @ ys + chart.b))) < 1e-12

    def test_fiber_degree_constant_over_domain(self):
        v = elliptic()
        dom = DomainSpec(
            PlaneChart([[0.6 + 0.1j]], [0.5 + 0.2j]), {"a1.1": 0.2, "b1": 0.3}
        )
        rng = np.random.default_rng(9)
        counts = set()
        for _ in range(50):
            off = {
                "a1.1": 0.2 * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)) / 1.5,
                "b1": 0.3 * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)) / 1.5,
            }
            fiber = solve_fiber(v, dom.chart_at(off), expected_degree=None)
            counts.add(fiber.total_multiplicity)
            # away from the discriminant, simple-point Jacobians stay
            # bounded away from zero
            for pt in fiber.points:
                assert pt.cluster_size == 1
                assert abs(pt.jacobian) > 1e-6
        assert counts == {3}

    def test_jacobian_sign_identity(self):
        # det of the full (defs, planes) Jacobian must equal (-1)^(n p)
        # times the y-Jacobian of the substituted system
        rng = np.random.default_rng(5)
        for v in (parabola(), elliptic(), triangular_pair()):
            chart = PlaneChart(
                [0.3 * rng.standard_normal(v.p) + 0.1j * rng.standard_normal(v.p)],
                [1.5 + 0.2j],
            )
            subs = plane_substitute(v, chart)
            fiber = solve_fiber(v, chart, expected_degree=None)
            sign = (-1.0) ** (v.n * v.p)
            for pt in fiber.points:
                yvals = dict(zip(v.y_vars, pt.coords[v.n:]))
                jsub = np.array(
                    [
                        [g.partial(yv).evaluate(yvals) for yv in v.y_vars]
                        for g in [s.restricted(v.y_vars) for s in subs]
                    ]
                )
                expect = sign * np.linalg.det(jsub)
                assert pt.jacobian == pytest.approx(expect, rel=1e-9)


class TestSolveBivariate:
    def test_parabola_meets_line(self):
        # y = x^2 and x + y = 2: x^2 + x - 2 = 0 gives x = 1, -2
        f = MultiPoly(V2, {(0, 1): 1.0, (2, 0): -1.0})
        g = MultiPoly(V2, {(1, 0): 1.0, (0, 1): 1.0, (0, 0): -2.0})
        sols = solve_bivariate(f, g)
        got = {
            (complex(np.round(s["x"], 9)), complex(np.round(s["y"], 9)))
            for s, _ in sols
        }
        assert got == {(1 + 0j, 1 + 0j), (-2 + 0j, 4 + 0j)}

    def test_conic_meets_cubic_count(self):
        f = MultiPoly(V2, {(0, 2): 1.0, (3, 0): -1.0, (0, 0): -1.0})
        c = MultiPoly(V2, {(2, 0): 1.0, (0, 2): 0.7, (1, 0): -0.3, (0, 0): -1.1})
        sols = solve_bivariate(f, c)
        assert sum(m for _, m in sols) == 6
        for s, _ in sols:
            assert abs(f.evaluate(s)) < 1e-8
            assert abs(c.evaluate(s)) < 1e-8

    def test_tangency_keeps_multiplicity(self):
        # y = x^2 against the tangent line y = 2x - 1: the double contact
        # point (1, 1) must carry multiplicity 2
        f = MultiPoly(V2, {(0, 1): 1.0, (2, 0): -1.0})
        g = MultiPoly(V2, {(0, 1): 1.0, (1, 0): -2.0, (0, 0): 1.0})
        sols = solve_bivariate(f, g)
        assert len(sols) == 1
        sol, mult = sols[0]
        assert mult == 2
        assert abs(sol["x"] - 1.0) < 1e-4 and abs(sol["y"] - 1.0) < 1e-4


    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d1=st.integers(1, 3), d2=st.integers(1, 3))
    def test_dense_random_systems(self, seed, d1, d2):
        # generic dense systems meet in the Bezout count d1 * d2 of points
        rng = np.random.default_rng(seed)

        def dense(d):
            return MultiPoly(V2, {
                (i, j): complex(*rng.standard_normal(2))
                for i in range(d + 1) for j in range(d + 1 - i)
            })

        g1, g2 = dense(d1), dense(d2)
        sols = solve_bivariate(g1, g2)
        assert sum(m for _, m in sols) == d1 * d2
        for sol, m in sols:
            if m > 1:
                continue
            for g in (g1, g2):
                scale = sum(
                    abs(c) * abs(sol["x"]) ** i * abs(sol["y"]) ** j
                    for (i, j), c in g.terms.items()
                )
                assert abs(g.evaluate(sol)) <= 1e-12 * scale


class TestVeroneseLift:
    def test_coordinate_map_order(self):
        v = parabola()
        vl, cmap = veronese_lift(v, 2)
        assert vl.vars == ("x", "y", "x2", "xy", "y2")
        exps = [next(iter(c.terms)) for c in cmap]
        assert exps == [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
        # graph relations first, then the original def
        assert len(vl.defs) == 4
        assert vl.defs[0].terms == {
            (0, 0, 1, 0, 0): 1.0 + 0j, (2, 0, 0, 0, 0): -1.0 + 0j,
        }

    def test_conic_pullback_points_match(self):
        # points of a conic section of the curve lift bijectively to the
        # hyperplane section of the lifted variety
        v = elliptic()
        vl, cmap = veronese_lift(v, 2)
        rng = np.random.default_rng(12)
        a = 0.4 * (rng.standard_normal(4) + 1j * rng.standard_normal(4))
        b = 0.8 + 0.2j
        chart = PlaneChart([a], [b])
        fiber = solve_fiber(vl, chart, expected_degree=None)

        conic = cmap[0] - MultiPoly.constant(b, v.vars)
        for j in range(1, 5):
            conic = conic - a[j - 1] * cmap[j]
        from abeltrace.geometry import hypersurface_section

        pts = hypersurface_section(v, conic)

        def key(q):
            return (q.coords[0].real, q.coords[0].imag, q.coords[1].real)

        orig = [(q.coords[0], q.coords[1]) for q in sorted(pts, key=key)]
        lifted = [
            (q.coords[0], q.coords[1]) for q in sorted(fiber.points, key=key)
        ]
        assert len(orig) == len(lifted) == 6
        for o, l in zip(orig, lifted):
            assert abs(o[0] - l[0]) < 1e-10 and abs(o[1] - l[1]) < 1e-10
        # lifted coordinates satisfy the graph relations
        for q in fiber.points:
            x, y = q.coords[0], q.coords[1]
            assert abs(q.coords[2] - x * x) < 1e-9
            assert abs(q.coords[3] - x * y) < 1e-9
            assert abs(q.coords[4] - y * y) < 1e-9

    def test_degree_precondition(self):
        with pytest.raises(ValueError):
            veronese_lift(parabola(), 1)

    def test_dimension_cap(self):
        with pytest.raises(UnsupportedDimension):
            veronese_lift(triangular_pair(), 2)


def test_variety_validation():
    with pytest.raises(DimensionMismatch):
        VarietySpec((), ("y",), [MultiPoly(("y",), {(1,): 1.0})])
    with pytest.raises(DimensionMismatch):
        VarietySpec(("x",), ("y",), [])
    with pytest.raises(ValueError):
        VarietySpec(("x",), ("y",), [MultiPoly(V2, {})])


def test_full_jacobian_single_sheet():
    # f = y - c: jacobian of (f, l) in (x, y) is det[[0, 1], [1, 0]] = -1
    f = MultiPoly(V2, {(0, 1): 1.0, (0, 0): -0.3})
    v = VarietySpec(("x",), ("y",), [f])
    fiber = solve_fiber(v, PlaneChart([[0.0]], [2.0]))
    assert fiber.points[0].jacobian == pytest.approx(-1.0)
