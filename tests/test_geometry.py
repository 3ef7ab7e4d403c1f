import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abeltrace import geometry
from abeltrace.errors import (
    DegreeDrop,
    DimensionMismatch,
    ExcessPoints,
    NonConvergence,
    UnsupportedDimension,
    UnsupportedShape,
)
from abeltrace.geometry import (
    ESCAPE_RADIUS,
    Charts,
    DomainSpec,
    PlaneChart,
    ResidueData,
    VarietySpec,
    _certified_roots,
    _triangular_order,
    _with_lead,
    full_jacobian,
    plane_substitute,
    solve_bivariate,
    solve_family,
    solve_fiber,
    veronese_lift,
)
from abeltrace.multipoly import MultiPoly
from abeltrace.numeric import TOL_ARITH, _companion_roots

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

    @pytest.mark.parametrize("radius", [-0.5, float("nan"), float("inf")])
    def test_negative_or_non_finite_radius_rejected(self, radius):
        with pytest.raises(ValueError, match="positive and finite"):
            DomainSpec(PlaneChart([[0.0]], [0.0]), {"b1": radius})

    def test_chart_at(self):
        dom = DomainSpec(PlaneChart([[0.0]], [1.0]), {"b1": 2.0})
        ch = dom.chart_at({"b1": 1.5})
        assert ch.b[0] == pytest.approx(2.5)
        assert dom.chart_at([1.5]).b[0] == pytest.approx(2.5)

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(n=st.integers(1, 3), p=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    def test_chart_at_adds_offsets_at_varying_positions(self, n, p, seed):
        rng = np.random.default_rng(seed)
        size = n * (p + 1)
        center = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        chart = PlaneChart.from_params(n, p, center)
        names = chart.param_names()
        varying = sorted(rng.choice(size, size=rng.integers(1, size + 1), replace=False))
        dom = DomainSpec(chart, {names[i]: 1.0 for i in varying})
        dz = rng.standard_normal(len(varying)) + 1j * rng.standard_normal(len(varying))
        want = center.copy()
        want[varying] = center[varying] + dz
        for off in (list(dz), dict(zip(dom.varying, dz))):
            got = dom.chart_at(off).to_params()
            assert np.array_equal(got.view(float), want.view(float))
        assert np.array_equal(chart.to_params(), center)
        # the batch form: one row per chart, each chart_at's chart exactly
        batch = dom.charts_at(np.stack([dz, 2 * dz]))
        assert len(batch) == 2 and isinstance(batch[1], PlaneChart)
        for row, ch in zip((dz, 2 * dz), batch):
            assert np.array_equal(ch.to_params(), dom.chart_at(row).to_params())
        assert np.array_equal(batch.params()[1], dom.chart_at(2 * dz).to_params())

    def test_chart_at_rejects_offsets_it_would_drop(self):
        dom = DomainSpec(PlaneChart([[0.0]], [1.0]), {"a1.1": 0.5, "b1": 2.0})
        for off in ([0.5], [0.5, 0.25, 9.0], {"a2.1": 1.0}, 0.5):
            with pytest.raises(DimensionMismatch):
                dom.chart_at(off)
        # a frozen parameter: the chart would leave the domain
        with pytest.raises(DimensionMismatch, match="not varied"):
            DomainSpec(PlaneChart([[0.0]], [1.0]), {"b1": 2.0}).chart_at({"a1.1": 0.05})
        for rows in (np.zeros((3, 1)), np.zeros((3, 3)), np.zeros(2)):
            with pytest.raises(DimensionMismatch):
                dom.charts_at(rows)
        with pytest.raises(DimensionMismatch, match="not varied"):
            dom.offset_array([{"b1": 0.1}, {"b2": 0.1}])
        assert np.array_equal(dom.offset_array([{"b1": 0.1}, {}]), [[0.0, 0.1], [0.0, 0.0]])


class TestCharts:
    def test_sequence_of_plane_charts(self):
        charts = [PlaneChart([[0.1, 2j], [0.3, 0.0]], [1.0, -1j]),
                  PlaneChart([[0.5, 0.0], [1j, 2.0]], [0.0, 3.0])]
        batch = Charts.stack(charts)
        assert batch.a.shape == (2, 2, 2) and batch.b.shape == (2, 2) and len(batch) == 2
        for got, want in zip(batch, charts):
            assert np.array_equal(got.a, want.a) and np.array_equal(got.b, want.b)
        assert [ch.b[0] for ch in batch] == [1.0, 0.0]
        back = Charts.from_params(2, 2, batch.params())
        assert np.array_equal(back.a, batch.a) and np.array_equal(back.b, batch.b)
        assert np.array_equal(batch.params()[1], charts[1].to_params())
        assert np.array_equal(batch[-1].to_params(), charts[1].to_params())
        with pytest.raises(IndexError):
            batch[2]
        with pytest.raises(TypeError):
            batch[0:1]
        with pytest.raises(DimensionMismatch):
            Charts.from_params(2, 2, np.zeros((3, 5)))
        assert len(Charts.stack([])) == 0 and list(Charts.stack([])) == []


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
        fiber = solve_fiber(parabola(), PlaneChart([[0.0]], [4.0]), expected_degree=2)
        got = {complex(np.round(c[1], 9)): j for c, j in zip(fiber.coords, fiber.jacobians)}
        assert set(got) == {2.0 + 0j, -2.0 + 0j}
        assert got[2.0 + 0j] == pytest.approx(-4.0)
        assert got[-2.0 + 0j] == pytest.approx(4.0)
        for j in fiber.jacobians:
            assert abs(j) == pytest.approx(4.0)

    def test_double_point_cluster(self):
        # the cluster is reported by the fiber itself, with no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fiber = solve_fiber(parabola(), PlaneChart([[0.0]], [0.0]), expected_degree=2)
        assert fiber.multiplicities.tolist() == [2]
        assert len(fiber.coords) == 1
        assert fiber.total_multiplicity == 2

    def test_fiber_holds_arrays(self):
        # arrays of the distinct points
        for b, count in ((4.0, 2), (0.0, 1)):
            fiber = solve_fiber(parabola(), PlaneChart([[0.0]], [b]), expected_degree=2)
            assert fiber.coords.dtype == complex and fiber.coords.shape == (count, 2)
            assert fiber.jacobians.dtype == complex and fiber.jacobians.shape == (count,)
            assert fiber.multiplicities.dtype.kind == "i"
            assert fiber.multiplicities.shape == (count,)
            # fibers compare by identity, without comparing arrays
            again = solve_fiber(parabola(), PlaneChart([[0.0]], [b]), expected_degree=2)
            assert fiber == fiber and fiber != again

    def test_triangular_system(self):
        fiber = solve_fiber(triangular_pair(), PlaneChart([[0.0, 0.0]], [4.0]), expected_degree=2)
        pts = {
            (complex(np.round(c[1], 9)), complex(np.round(c[2], 9)))
            for c in fiber.coords
        }
        assert pts == {(2 + 0j, 3 + 0j), (-2 + 0j, -1 + 0j)}

    def test_degree_drop_vertical_line_on_cubic(self):
        # a generic line meets the cubic in 3 points, a vertical one in 2
        v = elliptic()
        solve_fiber(v, PlaneChart([[0.0]], [0.4]), expected_degree=2)
        fiber3 = solve_fiber(v, PlaneChart([[0.7]], [0.4]), expected_degree=None)
        assert fiber3.total_multiplicity == 3
        with pytest.raises(DegreeDrop):
            solve_fiber(v, PlaneChart([[0.0]], [0.4]), expected_degree=3)

    def test_defining_polys_vanish_on_fiber(self):
        v = elliptic()
        chart = PlaneChart([[0.4 + 0.2j]], [0.9 - 0.1j])
        fiber = solve_fiber(v, chart, expected_degree=None)
        for coords in fiber.coords.tolist():
            point = dict(zip(v.vars, coords))
            assert abs(v.defs[0].evaluate(point)) < 1e-9
            xs, ys = np.array(coords[: v.n]), np.array(coords[v.n:])
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
            assert np.all(fiber.multiplicities == 1)
            assert np.all(np.abs(fiber.jacobians) > 1e-6)
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
            for coords, jac in zip(fiber.coords.tolist(), fiber.jacobians.tolist()):
                yvals = dict(zip(v.y_vars, coords[v.n:]))
                jsub = np.array(
                    [
                        [g.partial(yv).evaluate(yvals) for yv in v.y_vars]
                        for g in subs
                    ]
                )
                expect = sign * np.linalg.det(jsub)
                assert jac == pytest.approx(expect, rel=1e-9)


class TestSolveBivariate:
    def test_parabola_meets_line(self):
        # y = x^2 and x + y = 2: x^2 + x - 2 = 0 gives x = 1, -2
        f = MultiPoly(V2, {(0, 1): 1.0, (2, 0): -1.0})
        g = MultiPoly(V2, {(1, 0): 1.0, (0, 1): 1.0, (0, 0): -2.0})
        sols = solve_bivariate(f, g)
        got = {
            (complex(np.round(s[0], 9)), complex(np.round(s[1], 9)))
            for s, _ in sols
        }
        assert got == {(1 + 0j, 1 + 0j), (-2 + 0j, 4 + 0j)}

    @pytest.mark.parametrize("case, error, message", [
        ("other variables", UnsupportedShape, "same two variables"),
        ("three variables", UnsupportedShape, "same two variables"),
        ("zero polynomial", ValueError, "vanishes identically"),
        ("no y", UnsupportedShape, "neither polynomial"),
        ("common component", ValueError, "common component"),
    ])
    def test_refusals(self, case, error, message):
        line = MultiPoly(V2, {(0, 1): 1.0, (1, 0): -1.0})          # y - x
        g1, g2 = {
            "other variables": (line, MultiPoly(("x", "z"), {(0, 1): 1.0})),
            "three variables": (MultiPoly(V3, {(0, 1, 0): 1.0}), MultiPoly(V3, {(0, 0, 1): 1.0})),
            "zero polynomial": (MultiPoly.zero(V2), line),
            "no y": (MultiPoly(V2, {(1, 0): 1.0, (0, 0): -1.0}), MultiPoly(V2, {(2, 0): 1.0})),
            # y (y + x) and y (y - 2) share the line y = 0
            "common component": (MultiPoly(V2, {(0, 2): 1.0, (1, 1): 1.0}),
                                 MultiPoly(V2, {(0, 2): 1.0, (0, 1): -2.0})),
        }[case]
        with pytest.raises(error, match=message):
            solve_bivariate(g1, g2)

    def test_parallel_lines_meet_nowhere(self):
        # y and y - 1: the resultant in x is the constant -1
        assert solve_bivariate(MultiPoly(V2, {(0, 1): 1.0}),
                               MultiPoly(V2, {(0, 1): 1.0, (0, 0): -1.0})) == []

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
        assert abs(sol[0] - 1.0) < 1e-4 and abs(sol[1] - 1.0) < 1e-4


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
                    abs(c) * abs(sol[0]) ** i * abs(sol[1]) ** j
                    for (i, j), c in g.terms.items()
                )
                assert abs(g.evaluate(sol)) <= 1e-12 * scale


    @settings(derandomize=True, max_examples=120, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d1=st.integers(1, 3), d2=st.integers(1, 3))
    def test_kernel_matches_root_by_root(self, seed, d1, d2):
        # with the family kernel declining every system, the root-by-root
        # loop returns the same points and multiplicities
        rng = np.random.default_rng(seed)
        g1, g2 = (MultiPoly(V2, {(i, j): _cn(rng, 1.0) for i in range(d + 1) for j in range(d + 1 - i)})
                  for d in (d1, d2))
        got = solve_bivariate(g1, g2)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(geometry, "_resultant_points",
                       lambda t1, t2, degrees, res, degree: (np.zeros(0, int),
                                                             np.zeros((0, degree, 2), complex)))
            want = solve_bivariate(g1, g2)
        assert sorted(m for _, m in got) == sorted(m for _, m in want)
        for pt, m in got:
            near = [q for q, k in want
                    if k == m and np.max(np.abs(np.subtract(q, pt))) <= 1e-12 * max(1.0, np.max(np.abs(q)))]
            assert len(near) == 1

    def test_generic_systems_take_the_kernel(self, monkeypatch):
        # dense (3, 3) systems at scale 1: the kernel certifies each one,
        # so no resultant root is found one at a time
        def no_roots(*args):
            raise AssertionError("root-by-root loop ran")

        monkeypatch.setattr(geometry, "poly_roots", no_roots)
        for seed in range(10):
            rng = np.random.default_rng(seed)
            g1, g2 = (MultiPoly(V2, {(i, j): _cn(rng, 1.0) for i in range(4) for j in range(4 - i)})
                      for _ in range(2))
            sols = solve_bivariate(g1, g2)
            assert [m for _, m in sols] == [1] * 9

    @pytest.mark.parametrize("seed", [0, 7, 13, 26, 39])
    def test_more_points_than_the_resultant_degree_raise(self, seed):
        # dense quartic x cubic systems with the coefficient of x^i y^j
        # divided by 1e-3^(i + j): the loop's back-substitution finds more
        # points than the resultant's degree (16 or 20 against 12)
        rng = np.random.default_rng(seed)
        g1, g2 = (MultiPoly(V2, {(i, j): complex(*rng.standard_normal(2)) / 1e-3 ** (i + j)
                                 for i in range(d + 1) for j in range(d + 1 - i)})
                  for d in (4, 3))
        with pytest.raises(ExcessPoints, match="above the resultant's degree 12"):
            solve_bivariate(g1, g2)

    def test_far_polished_point_raises(self):
        # degrees (3, 3) with the coefficient of y1^i y2^j divided by
        # 1000^(i + j): the resultant roots come back inaccurate and the
        # polish leaves a point far from any root (the first seed of a
        # search over seeds 0-59 at scales 1e-3 and 1e3). solve_fiber must
        # raise rather than return it, and the family must decline it
        rng = np.random.default_rng(0)
        defs = []
        for _ in range(2):
            t = {(0, i, j): complex(*rng.standard_normal(2)) / 1e3 ** (i + j)
                 for i in range(4) for j in range(4 - i)}
            t[(1, 0, 0)] = 1.0
            defs.append(MultiPoly(V3, t))
        v = VarietySpec(("x",), ("y1", "y2"), defs)
        chart = PlaneChart([[0.3 + 0.1j, -0.2 + 0.4j]], [0.7 - 0.2j])
        with pytest.raises(NonConvergence) as exc:
            solve_fiber(v, chart, expected_degree=None)
        assert exc.value.worst_residual > 1e-6
        family = solve_family(v, Charts.stack([chart]), 9)
        assert family is None or len(family[0]) == 0


def _cn(rng, scale):
    return complex(*rng.normal(0.0, scale, 2))


def _fiber_case(path, rng):
    """(variety, chart, expected fiber count) for one solve path, with
    charts near the benchmark's (|a| ~ 0.1, |b| ~ 0.5)."""
    if path == "univariate":
        # monic in y, small top-form x terms: degree d on every such chart
        d = int(rng.integers(1, 7))
        terms = {(0, d): 1.0}
        for i in range(d + 1):
            for j in range(d + 1 - i):
                if (i, j) != (0, d):
                    terms[(i, j)] = _cn(rng, 0.05 if i + j == d else 0.4)
        v = VarietySpec(("x",), ("y1",), [MultiPoly(("x", "y1"), terms)])
        return v, PlaneChart([[_cn(rng, 0.1)]], [_cn(rng, 0.5)]), d
    if path == "lifted":
        # degree-2 Veronese lift of y^2 = x^3 + ...: a conic section, 6 points
        f = {(0, 2): 1.0, (3, 0): -1.0}
        for e in range(3):
            f[(e, 0)] = _cn(rng, 0.3)
        v, _ = veronese_lift(VarietySpec(("x",), ("y",), [MultiPoly(V2, f)]), 2)
        a = [0.35 * _cn(rng, 1.0) for _ in range(3)]
        a.append((0.25 + 0.25 * rng.uniform()) * np.exp(2j * np.pi * rng.uniform()))
        return v, PlaneChart([a], [0.8 + 0.25 * _cn(rng, 1.0)]), 6
    d1, d2 = (int(k) for k in rng.integers(1, 4, size=2))
    if path == "triangular":
        # f1 in (x, y1) only and a chart with a_12 = 0; f2 monic in y2
        f1 = {(0, d1, 0): 1.0}
        for i in range(d1 + 1):
            for j in range(d1 + 1 - i):
                if (i, j) != (0, d1):
                    f1[(i, j, 0)] = _cn(rng, 0.05 if i + j == d1 else 0.4)
        f2 = {(0, 0, d2): 1.0}
        for i, j, k in np.ndindex(2, 2, d2):
            f2[(i, j, k)] = _cn(rng, 0.4)
        chart = PlaneChart([[_cn(rng, 0.1), 0.0]], [_cn(rng, 0.5)])
    else:
        # dense in (y1, y2), coefficient scale ~ 1; the top forms
        # y1^d1 + y2^d1 and y1^d2 - 2 y2^d2 share no zero at infinity
        f1, f2 = {(0, d1, 0): 1.0, (0, 0, d1): 1.0}, {(0, d2, 0): 1.0, (0, 0, d2): -2.0}
        for f, d in ((f1, d1), (f2, d2)):
            for j1 in range(d):
                for j2 in range(d - j1):
                    f[(0, j1, j2)] = _cn(rng, 0.5)
            f[(1, 0, 0)] = 1.0 + _cn(rng, 0.2)
        chart = PlaneChart([[_cn(rng, 0.1), _cn(rng, 0.1)]], [_cn(rng, 0.5)])
    v = VarietySpec(("x",), ("y1", "y2"), [MultiPoly(V3, f1), MultiPoly(V3, f2)])
    return v, chart, d1 * d2


def _evaluation_scale(f, coords):
    return sum(
        abs(c) * np.prod([abs(z) ** e for z, e in zip(coords, exps)])
        for exps, c in f.terms.items()
    )


class TestFiberContract:
    @pytest.mark.parametrize("path", ["univariate", "triangular", "resultant", "lifted"])
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_every_solve_path(self, path, seed):
        v, chart, count = _fiber_case(path, np.random.default_rng(seed))
        if v.lift is None:
            order = _triangular_order(plane_substitute(v, chart), v.y_vars)
            assert (order is not None) == (path != "resultant")
        fiber = solve_fiber(v, chart, expected_degree=None)
        assert fiber.total_multiplicity == count
        assert fiber.coords.shape == (len(fiber.multiplicities), v.n + v.p)
        for coords, mult in zip(fiber.coords.tolist(), fiber.multiplicities.tolist()):
            if mult > 1:
                continue
            for f in v.defs:
                scale = _evaluation_scale(f, coords)
                assert abs(f.evaluate(coords)) <= 1e-10 * scale
            xs, ys = np.array(coords[: v.n]), np.array(coords[v.n:])
            plane = xs - chart.a @ ys - chart.b
            scale = np.abs(xs) + np.abs(chart.a) @ np.abs(ys) + np.abs(chart.b)
            assert np.all(np.abs(plane) <= 1e-10 * scale)


class TestFullJacobian:
    @pytest.mark.parametrize("path", ["univariate", "triangular", "resultant", "lifted"])
    @settings(derandomize=True, max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_point_arrays_match_points(self, path, seed):
        # one call on point arrays (here of shape (k, 1)) gives each
        # point's value, and each value is the determinant of the full
        # (n+p) x (n+p) matrix of (defs, plane equations)
        v, chart, _ = _fiber_case(path, np.random.default_rng(seed))
        coords = solve_fiber(v, chart, expected_degree=None).coords
        many = full_jacobian(v, chart, tuple(coords.T[:, :, None]))
        assert many.shape == (len(coords), 1)
        m = v.n + v.p
        for got, pt in zip(many[:, 0], coords):
            one = full_jacobian(v, chart, tuple(pt))
            assert type(one) is complex
            full = np.zeros((m, m), dtype=complex)
            full[:v.p] = [[f.partial(x).evaluate(pt) for x in v.vars] for f in v.defs]
            full[v.p:, :v.n] = np.eye(v.n)
            full[v.p:, v.n:] = -chart.a
            want = np.linalg.det(full)
            assert abs(got - one) <= 1e-13 * abs(one)
            assert abs(one - want) <= 1e-10 * abs(want)


class TestUnivariateFamily:
    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 7), log_scale=st.floats(-3, 3))
    def test_family_matches_solve_fiber(self, seed, d, log_scale):
        # f(x/s, y/s) for f of total degree d with x-degree <= 2 and no
        # y^d term: on the chart x = a y + b the y^d coefficient is
        # lead(a) = c_(1,d-1) a + c_(2,d-2) a^2, exactly 0 at a = 0
        rng = np.random.default_rng(seed)
        s = 10.0**log_scale
        terms = {(i, k): _cn(rng, 1.0) / s ** (i + k) for i in range(3) for k in range(d + 1)
                 if i + k <= d and (i, k) != (0, d)}
        v = VarietySpec(("x",), ("y",), [MultiPoly(V2, terms)])
        charts = [PlaneChart([[0.5 + 0.3 * _cn(rng, 1.0)]], [s * _cn(rng, 1.0)])
                  for _ in range(5)]
        # degree drop: a = 0; escape: lead(a) = 1e-14 of its largest
        # coefficient, which puts a root near 1e14 s
        lead = [terms.get((i, d - i), 0j) for i in (2, 1)]
        tiny = 1e-14 * max(map(abs, lead))
        a_esc = min(np.roots([*lead, -tiny]), key=abs) if d > 1 else tiny / lead[1]
        declined = [PlaneChart([[a]], [s * _cn(rng, 1.0)]) for a in (0.0, a_esc)]
        for chart in declined:
            with pytest.raises(DegreeDrop):
                solve_fiber(v, chart, expected_degree=d)

        index, coords, jac = solve_family(v, Charts.stack(charts + declined), d)
        assert set(index.tolist()) <= set(range(len(charts)))
        assert len(index) >= len(charts) - 1
        assert np.all(np.abs(coords) <= ESCAPE_RADIUS)
        for k, points, jacs in zip(index, coords, jac):
            fiber = solve_fiber(v, charts[k], expected_degree=d)
            assert np.all(fiber.multiplicities == 1)
            for pt, jv in zip(points, jacs):
                want = np.argmin(np.abs(fiber.coords[:, 1] - pt[1]))
                assert np.max(np.abs(fiber.coords[want] - pt)) <= 1e-12 * np.max(np.abs(pt))
                assert abs(jv - fiber.jacobians[want]) <= 1e-12 * abs(fiber.jacobians[want])

        if d > 1:
            # against degree d - 1 only the vertical chart counts: its
            # y^d coefficient is exactly 0, the others' are not
            assert solve_family(v, Charts.stack(charts + declined), d - 1)[0].tolist() == [len(charts)]
            # add alpha + beta y to f so that f(a y + b, y) has a double
            # root at y = ys on the first chart
            f, chart, ys = v.defs[0], charts[0], s * _cn(rng, 1.0)
            xs = chart.a[0, 0] * ys + chart.b[0]
            beta = -(f.partial("y").evaluate((xs, ys))
                     + chart.a[0, 0] * f.partial("x").evaluate((xs, ys)))
            alpha = -f.evaluate((xs, ys)) - beta * ys
            g = f + MultiPoly(V2, {(0, 0): alpha, (0, 1): beta})
            v2 = VarietySpec(("x",), ("y",), [g])
            assert 0 not in solve_family(v2, Charts.stack(charts), d)[0].tolist()
            assert np.any(solve_fiber(v2, chart, expected_degree=d).multiplicities > 1)


    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_jacobian_is_signed_derivative(self, n):
        # a p = 1 family takes each Jacobian as (-1)^n g'(y), g the def on
        # the chart; full_jacobian takes the (n + 1) x (n + 1) determinant
        rng = np.random.default_rng(n)
        names = tuple(f"x{i}" for i in range(n)) + ("y",)
        terms = {e: _cn(rng, 0.4) for e in np.ndindex(*(2,) * n + (4,)) if sum(e) <= 3}
        terms[(0,) * n + (3,)] = 1.0
        v = VarietySpec(names[:n], ("y",), [MultiPoly(names, terms)])
        charts = Charts(0.1 * (rng.standard_normal((6, n, 1)) + 1j * rng.standard_normal((6, n, 1))),
                        0.5 * (rng.standard_normal((6, n)) + 1j * rng.standard_normal((6, n))))
        index, coords, jac = solve_family(v, charts, 3)
        assert index.tolist() == list(range(6))
        for k, points, jacs in zip(index, coords, jac):
            want = full_jacobian(v, charts[k], tuple(points.T))
            assert np.all(np.abs(jacs - want) <= 1e-13 * np.abs(want))


class TestFamilyRoots:
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 3))
    def test_closed_forms_certify_like_companion_roots(self, seed, d):
        # rows of d roots at scales 10^[-3, 3], pairwise at least a tenth
        # of the larger one apart; for d = 3, rows 8-11 put them on an
        # equilateral triangle (a depressed cubic t^3 + q, where only one
        # square-root sign of Cardano's formula is free of cancellation);
        # rows 16-23 have one root at 0 (a zero constant term) and, for
        # d >= 2, rows 24-31 two roots closer than tol^(1/2)
        rng = np.random.default_rng(seed)

        def separated_roots():
            while True:
                r = 10.0 ** rng.uniform(-3, 3, d) * np.exp(2j * np.pi * rng.uniform(size=d))
                gap = np.where(np.eye(d, dtype=bool), np.inf, np.abs(r[:, None] - r[None, :]))
                if np.all(gap > 0.1 * np.maximum(np.abs(r)[:, None], np.abs(r)[None, :])):
                    return r

        roots = np.array([separated_roots() for _ in range(24)])
        if d == 3:
            roots[8:12] = roots[8:12, :1] * (0.5 + np.exp(2j * np.pi * np.arange(3) / 3))
        roots[16:, 0] = 0.0
        leads = 10.0 ** rng.uniform(-2, 2, (24, 1)) * np.exp(2j * np.pi * rng.uniform(size=(24, 1)))
        rows = [leads * np.array([np.poly(r)[::-1] for r in roots])]
        if d >= 2:
            close = roots[:8].copy()
            close[:, 1] = close[:, 0] + 0.5 * TOL_ARITH**0.5 * np.exp(2j * np.pi * rng.uniform(size=8))
            rows.append(np.array([np.poly(r)[::-1] for r in close]))
        c = np.concatenate(rows)
        assert np.all(c[16:24, 0] == 0)

        z, ok, _ = _certified_roots(c)
        assert np.all(ok[:24]) and not np.any(ok[24:])
        for got, want in zip(z[:24], roots):
            nearest = np.min(np.abs(got[:, None] - want[None, :]), axis=0)
            assert np.all(nearest <= 1e-12 * np.abs(want))
        assert np.all(np.any(z[16:24] == 0, axis=1))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(geometry, "_family_roots", _companion_roots)
            _, want_ok, _ = _certified_roots(c)
        assert np.array_equal(ok, want_ok)


    @pytest.mark.parametrize("lead", [1.0, 1e-10, 1e-30, 1e-60, 1e-150])
    def test_any_degree_and_tiny_leads(self, lead):
        # degrees 1-72, the leading coefficient scaled by ``lead``: no
        # power overflows (no warning), and no row whose leading
        # coefficient puts a root beyond 2 ESCAPE_RADIUS is certified
        rng = np.random.default_rng(72)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for d in range(1, 73):
                c = rng.standard_normal((4, d + 1)) + 1j * rng.standard_normal((4, d + 1))
                c[:, d] *= lead
                z, ok, der = _certified_roots(c)
                big = np.log10(np.abs(c[:, d]) / np.max(np.abs(c), axis=1)) + d * np.log10(2 * ESCAPE_RADIUS)
                assert np.array_equal(_with_lead(c)[1], big > 0)
                assert not np.any(ok & (big <= 0))
                if lead == 1.0 and d <= 3:
                    assert np.all(ok)
                for row, roots, ders in zip(c[ok], z[ok], der[ok]):
                    k = np.arange(d + 1)
                    assert np.allclose(ders, (roots[:, None] ** k[:-1]) @ (row[1:] * k[1:]), rtol=1e-9)


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

        def key(c):
            return (c[0].real, c[0].imag, c[1].real)

        orig = [(c[0], c[1]) for c in sorted((q.coords for q in pts), key=key)]
        lifted = [(c[0], c[1]) for c in sorted(fiber.coords.tolist(), key=key)]
        assert len(orig) == len(lifted) == 6
        for o, l in zip(orig, lifted):
            assert abs(o[0] - l[0]) < 1e-10 and abs(o[1] - l[1]) < 1e-10
        # lifted coordinates satisfy the graph relations
        for c in fiber.coords:
            x, y = c[0], c[1]
            assert abs(c[2] - x * x) < 1e-9
            assert abs(c[3] - x * y) < 1e-9
            assert abs(c[4] - y * y) < 1e-9

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


def test_variety_builds_without_solving(monkeypatch):
    # x - 2 has no fiber over x != 2, but the fiber degree belongs to a
    # domain: building the variety solves nothing, sampling refuses it
    def no_solve(*args):
        raise AssertionError("VarietySpec solved a fiber")

    monkeypatch.setattr(geometry, "solve_fiber", no_solve)
    monkeypatch.setattr(geometry, "plane_substitute", no_solve)
    v = VarietySpec(("x",), ("y",), [MultiPoly(V2, {(1, 0): 1.0, (0, 0): -2.0})])
    assert repr(v) == "VarietySpec(x=['x'], y=['y'], p=1)"


def test_full_jacobian_single_sheet():
    # f = y - c: jacobian of (f, l) in (x, y) is det[[0, 1], [1, 0]] = -1
    f = MultiPoly(V2, {(0, 1): 1.0, (0, 0): -0.3})
    v = VarietySpec(("x",), ("y",), [f])
    fiber = solve_fiber(v, PlaneChart([[0.0]], [2.0]), expected_degree=1)
    assert fiber.jacobians[0] == pytest.approx(-1.0)
