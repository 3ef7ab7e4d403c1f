from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from abeltrace import numeric
from abeltrace.errors import (
    DegreeUndetectable,
    EvaluationError,
    IllConditioned,
    NonConvergence,
    OverdeterminedMismatch,
    ZeroPolynomial,
)
from abeltrace.geometry import DomainSpec, PlaneChart, ResidueData, VarietySpec
from abeltrace.numeric import (
    PolydiscModel,
    UniPoly,
    cauchy_derivative,
    gauss_legendre_segment,
    poly_interpolate,
    poly_roots,
    polydisc_fit_grid,
    torus_nodes,
)
from abeltrace.reconstruct import fit_minimal_polys
from abeltrace.residues import ListPlan, trace_table
from builders import derivative, from_roots, from_univariate

V2 = ("x", "y")


def roots_dict(pairs):
    return {complex(np.round(r, 7)): m for r, m in pairs}


class TestUniPoly:
    def test_zero_polynomial_degree(self):
        assert UniPoly([0, 0]).degree == -1
        assert UniPoly([0, 0]).is_zero

    def test_trailing_zeros_trimmed(self):
        p = UniPoly([1, 2, 0, 0])
        assert p.degree == 1
        assert p.coeffs == (1 + 0j, 2 + 0j)

    def test_from_roots(self):
        p = from_roots([1, -1])
        assert p.coeffs == (-1 + 0j, 0j, 1 + 0j)


class TestPolyRoots:
    def test_two_simple_roots(self):
        # y^2 - 1 factors by inspection
        got = roots_dict(poly_roots(UniPoly([-1, 0, 1])))
        assert got == {(-1 + 0j): 1, (1 + 0j): 1}

    def test_triple_root_at_origin(self):
        assert poly_roots(UniPoly([0, 0, 0, 1])) == [(0j, 3)]

    def test_quadratic_formula_case(self):
        # y^2 - 2y + 5 = (y - 1)^2 + 4
        got = roots_dict(poly_roots(UniPoly([5, -2, 1])))
        assert got == {(1 + 2j): 1, (1 - 2j): 1}

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ZeroPolynomial):
            poly_roots(UniPoly([]))
        with pytest.raises(ZeroPolynomial):
            poly_roots(UniPoly([3.0]))

    def test_stalled_refinement_raises(self, monkeypatch):
        # refinement that leaves every estimate where the companion
        # eigenvalues put it, each moved off by 1e-3
        monkeypatch.setattr(numeric, "_aberth_refine", lambda coeffs, z: np.asarray(z) + 1e-3)
        with pytest.raises(NonConvergence, match="stalled") as info:
            poly_roots(UniPoly([-1, 0, 1]))
        assert info.value.worst_residual == pytest.approx(1e-3, rel=1e-2)

    def test_root_sum_identity(self):
        # sum of roots of a monic polynomial is minus the subleading coeff
        rng = np.random.default_rng(42)
        for _ in range(20):
            d = int(rng.integers(2, 9))
            coeffs = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            p = UniPoly(list(coeffs) + [1.0])
            rts = poly_roots(p)
            total = sum(r * m for r, m in rts)
            assert abs(total - (-coeffs[-1])) <= 1e-9 * max(1.0, abs(coeffs[-1]))
            assert sum(m for _, m in rts) == d

    def test_clustered_double_root(self):
        # (y - 1)^2 (y + 2): the double root must merge
        p = from_roots([1, 1, -2])
        got = roots_dict(poly_roots(p))
        assert got == {(1 + 0j): 2, (-2 + 0j): 1}

    def test_triple_root_off_origin(self):
        p = from_roots([1.0, 1.0, 1.0])
        got = poly_roots(p)
        assert len(got) == 1
        root, mult = got[0]
        assert mult == 3
        assert abs(root - 1.0) < 1e-4

    def test_triple_root_far_from_origin(self):
        # the iterates of a triple root lie about 1e-4 apart, beyond the
        # pair radius max(1, |z|) tol^(1/2) but within the triple's
        # max(1, |z|) tol^(1/3): the three must merge into one point
        r = 3.4558 + 8.2162j
        got = poly_roots(from_roots([r, r, r]))
        assert len(got) == 1
        root, mult = got[0]
        assert mult == 3
        assert abs(root - r) < 1e-4 * abs(r)

    def test_merged_centre_is_accurate(self):
        # the mean of that triple root's iterates is 7.4e-6 |r| off; the
        # root of p'' next to it is exact up to rounding
        r = 3.4558 + 8.2162j
        (root, mult), = poly_roots(from_roots([r, r, r]))
        assert mult == 3
        assert abs(root - r) <= 1e-12 * abs(r)

    @pytest.mark.parametrize("m", [4, 5])
    @pytest.mark.parametrize("r", [0.36, 8.9, 40.6, -0.7j, 3.4558 + 8.2162j])
    def test_high_multiplicity_merges(self, m, r):
        # the iterates of an m-fold root spread about 1e-16^(1/m) |r|
        # (1.5e-4 |r| at m = 4) and their centred coefficients are far
        # above tol: the merge must judge the polynomial, not the iterates
        got = poly_roots(from_roots([r] * m))
        assert [mult for _, mult in got] == [m]
        assert abs(got[0][0] - r) <= 1e-12 * abs(r)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.integers(1, 4), st.floats(0.2, 2.0), st.floats(-3.0, 3.0),
                              st.floats(-3.0, 3.0), st.floats(0.0, 1.0)),
                    min_size=1, max_size=4))
    def test_merge_fast_path_matches_full_rule(self, clusters):
        # each cluster is a regular m-gon of radius r about c, so its
        # centred factor is (z - c)^m - r^m e^(i m phi): with r 0.2 to 2
        # times max(1, |c|) tol^(1/m), groups fall on both sides of the
        # merge rule. Bypassing the fast path (below two roots it has no
        # pair) must change nothing
        tol = 1e-10
        roots = []
        for m, f, re, im, phase in clusters:
            c = complex(re, im)
            r = f * max(1.0, abs(c)) * tol ** (1.0 / m)
            roots += [c + r * np.exp(2j * np.pi * (k / m + phase)) for k in range(m)]
        no_exit = SimpleNamespace(combinations=lambda xs, k: [(0j, 0j)] * (len(xs) > 1))
        with mock.patch.object(numeric, "itertools", no_exit):
            full = numeric._merge_clusters(roots, tol, np.poly(roots)[::-1])
        assert numeric._merge_clusters(roots, tol, np.poly(roots)[::-1]) == full

    def test_mixed_multiplicities(self):
        # (y - 1)^3 (y + 2)^2: cluster sizes 3 and 2
        p = from_roots([1.0, 1.0, 1.0, -2.0, -2.0])
        got = {m for _, m in poly_roots(p)}
        assert got == {3, 2}
        total = sum(m for _, m in poly_roots(p))
        assert total == 5

    @pytest.mark.parametrize("big", [1e16, 9e16])
    def test_huge_root_next_to_a_ring(self, big):
        # 19 roots on |z| = 1.5 plus one huge root: the residual check must
        # not overflow, and no spurious ring iterate may stand in for the
        # huge root
        ring = list(1.5 * np.exp(2j * np.pi * np.arange(19) / 19))
        got = poly_roots(from_roots(ring + [big]))
        assert len(got) == 20
        assert all(m == 1 for _, m in got)
        assert min(abs(r - big) for r, _ in got) <= 1e-8 * big

    def test_non_finite_coefficients_rejected(self):
        with pytest.raises(ValueError):
            poly_roots([1, np.nan, 1])
        with pytest.raises(ValueError):
            poly_roots([1, 0, np.inf])

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(
        log_scale=st.floats(-3, 3),
        units=st.lists(
            st.tuples(st.floats(-1, 1), st.floats(-1, 1)), min_size=1, max_size=10
        ),
    )
    def test_separated_roots_recovered(self, log_scale, units):
        # roots pairwise more than 0.1 * scale apart come back simple, each
        # next to its own constructed root
        scale = 10.0**log_scale
        roots = [scale * complex(re, im) for re, im in units]
        assume(all(abs(r - s) > 0.1 * scale
                   for i, r in enumerate(roots) for s in roots[:i]))
        got = poly_roots(from_roots(roots))
        assert len(got) == len(roots)
        assert all(m == 1 for _, m in got)
        nearest = set()
        for r, _ in got:
            dist = [abs(r - s) for s in roots]
            k = int(np.argmin(dist))
            assert dist[k] <= 1e-9 * max(scale, abs(r))
            nearest.add(k)
        assert len(nearest) == len(roots)


class TestCauchyDerivative:
    def test_square(self):
        assert cauchy_derivative(lambda z: z * z, 1.0, 0.5, nodes=64) == pytest.approx(2.0)

    def test_exp(self):
        assert cauchy_derivative(np.exp, 0.0, 1.0, nodes=64) == pytest.approx(1.0)

    def test_simple_pole_outside(self):
        # d/dz (z-2)^-1 = -(z-2)^-2, so the value at 0 is -1/4
        val = cauchy_derivative(lambda z: 1.0 / (z - 2.0), 0.0, 1.0, nodes=64)
        assert val == pytest.approx(-0.25)

    def test_polynomial_exact_across_radii(self):
        rng = np.random.default_rng(1)
        coeffs = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        p = UniPoly(coeffs)
        dp = derivative(p)
        z0 = 0.3 - 0.2j
        for radius in (0.1, 0.5, 1.0, 2.0):
            val = cauchy_derivative(p, z0, radius, nodes=32)
            assert abs(val - dp(z0)) <= 1e-12 * max(1.0, abs(dp(z0)))

    def test_evaluator_error_wrapped(self):
        def bad(z):
            raise RuntimeError("boom")

        with pytest.raises(EvaluationError):
            cauchy_derivative(bad, 0.0, 1.0, nodes=64)

    def test_array_values_match_columns(self):
        # one call on the node array; each trailing column differentiated
        # as its own scalar evaluator is
        rng = np.random.default_rng(4)
        funcs = [np.exp] + [UniPoly(rng.standard_normal(6) + 1j * rng.standard_normal(6))
                            for _ in range(3)]
        calls = []

        def columns(z):
            calls.append(np.shape(z))
            return np.stack([f(z) for f in funcs], axis=-1)

        z0, radius = 0.2 + 0.1j, 0.6
        got = cauchy_derivative(columns, z0, radius, nodes=32)
        assert calls == [(32,)] and got.shape == (len(funcs),)
        for col, f in enumerate(funcs):
            want = cauchy_derivative(f, z0, radius, nodes=32)
            assert isinstance(want, complex)
            assert abs(got[col] - want) <= 1e-14 * abs(want)

    def test_evaluator_without_node_axis_raises(self):
        with pytest.raises(EvaluationError):
            cauchy_derivative(lambda z: 1.0, 0.0, 1.0, nodes=64)
        with pytest.raises(EvaluationError):
            cauchy_derivative(lambda z: np.ones((4, 2)), 0.0, 1.0, nodes=16)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            cauchy_derivative(np.exp, 0.0, 1.0, nodes=8)
        with pytest.raises(ValueError):
            cauchy_derivative(np.exp, 0.0, -1.0, nodes=64)

    @pytest.mark.parametrize("nodes", [16.5, 32.0, "32", None])
    def test_node_count_not_an_integer_raises_before_evaluating(self, nodes):
        # the count is refused as such, not blamed on the evaluator
        calls = []
        with pytest.raises(ValueError, match="node count must be an integer"):
            cauchy_derivative(lambda z: calls.append(z) or np.exp(z), 0.0, 1.0, nodes=nodes)
        assert calls == []

    def test_numpy_integer_node_count(self):
        assert cauchy_derivative(np.exp, 0.0, 1.0, nodes=np.int64(32)) == pytest.approx(1.0)


def single_chart_table(roots, numerator, max_order=None):
    """Trace table at one vertical chart of the constant family
    prod(y - roots) with a numerator in y: its moments are
    u_k = -sum numerator(r) r^k / P'(r) over the roots."""
    f = from_univariate(from_roots(roots), "y", V2)
    data = ResidueData(
        VarietySpec(("x",), ("y",), [f]),
        from_univariate(UniPoly(numerator), "y", V2),
    )
    dom = DomainSpec(PlaneChart([[0.0]], [0.4]), {})
    return trace_table(data, dom, max_order, ListPlan(({},)))


def recurrence(minimal):
    """(a_1..a_d) of the one fitted slot, at the table's chart."""
    return minimal.coefficient_values(0, 0.4)


class TestHankelFit:
    """The shifted-Hankel recurrence fit, through fit_minimal_polys on
    single-chart tables."""

    def test_period_two_moments(self):
        # y^2 - 3 with numerator -1 gives u = 0, 1, 0, 3, 0, 9, ...,
        # so u_{k+2} = 3 u_k: a_1 = 0 and a_2 = -3
        t = single_chart_table([3**0.5, -(3**0.5)], [-1.0])
        assert t.entries[(1,)][0] == pytest.approx(1.0)
        assert abs(t.entries[(2,)][0]) < 1e-12
        a = recurrence(fit_minimal_polys(t, 2))
        assert a[0] == pytest.approx(0.0, abs=1e-12)
        assert a[1] == pytest.approx(-3.0)

    def test_geometric_sequence(self):
        c = 0.7 - 0.4j
        a = recurrence(fit_minimal_polys(single_chart_table([c], [1.0]), 1))
        assert a[0] == pytest.approx(-c)

    def test_all_zero_moments(self):
        t = single_chart_table([0.5, -0.8], [0.0])
        with pytest.raises(DegreeUndetectable) as info:
            fit_minimal_polys(t, 2)
        assert info.value.zero_moments

    def test_auto_degree_picks_smallest(self):
        t = single_chart_table([0.5 + 0.2j], [1.0], max_order=7)
        assert fit_minimal_polys(t, 4).degrees == (1,)

    def test_random_recurrences_recovered(self):
        # random monic P with separated roots and a random numerator
        rng = np.random.default_rng(7)
        for d in list(range(1, 7)) * 3:
            roots = []
            while len(roots) < d:
                cand = (0.4 + 0.9 * rng.uniform()) * np.exp(
                    2j * np.pi * rng.uniform()
                )
                if all(abs(cand - r) > 0.2 for r in roots):
                    roots.append(cand)
            q = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            minimal = fit_minimal_polys(single_chart_table(roots, q), d)
            assert minimal.degrees == (d,)
            p_true = from_roots(roots)
            # (a_1..a_d) against lowest-first (c_0..c_{d-1}, 1)
            expect = [p_true.coeffs[d - j] for j in range(1, d + 1)]
            err = max(abs(a - e) for a, e in zip(recurrence(minimal), expect))
            assert err <= 1e-8 * max(1.0, max(abs(e) for e in expect))

    def test_ill_conditioned_near_discriminant(self):
        # numerator P' weights both sheets alike (u_k = -(r1^k + r2^k));
        # sheets 1.5e-5 |r| apart stay two simple points yet make the
        # degree-2 recurrence condition about 3.2e10 at r = 1, which
        # passes COND_CAP (1e12), and 7.1e12 at r = 20, which does not
        tables = {}
        for root in (1.0, 20.0):
            roots = [root, root * (1.0 + 1.5e-5)]
            tables[root] = single_chart_table(
                roots, derivative(from_roots(roots)).coeffs, max_order=5
            )
            assert tables[root].flags == ("clean",)
        minimal = fit_minimal_polys(tables[1.0], 2, tol=1e-12)
        assert minimal.degrees == (2,)
        assert minimal.diagnostics["slot0"]["condition"] == pytest.approx(3.2e10, rel=0.1)
        with pytest.raises(IllConditioned) as info:
            fit_minimal_polys(tables[20.0], 2, tol=1e-12)
        assert info.value.condition == pytest.approx(7.1e12, rel=0.1)

    def test_degree_undetectable(self):
        t = single_chart_table([0.5, -0.7, 0.9j, -1.1j], [1.0, 0.3])
        with pytest.raises(DegreeUndetectable) as info:
            fit_minimal_polys(t, 2)
        assert not info.value.zero_moments


def _poly_values(coeffs, x):
    return np.polyval(np.asarray(coeffs)[::-1], x)


class TestPolyInterpolate:
    def test_linear(self):
        fit = poly_interpolate([0.0, 1.0, 2.0], [0.0, -1.0, -2.0], 1)
        assert fit.coeffs.shape == (1, 2) and fit.residual.shape == (1,)
        assert fit.coeffs[0, 0] == 0
        assert fit.coeffs[0, 1] == pytest.approx(-1.0)
        assert _poly_values(fit.coeffs[0], 3.0) == pytest.approx(-3.0)

    def test_cubic(self):
        x = np.linspace(0.5, 3.5, 6)
        fit = poly_interpolate(x, x**3 - 3 * x**2 + 2 * x, 3)
        assert fit.residual[0] < 1e-10
        assert np.allclose(fit.coeffs[0], [0, 2, -3, 1], atol=1e-9)

    def test_non_polynomial_data(self):
        # no raise: the residual reports the misfit and the caller judges
        x = np.linspace(0.5, 2.5, 9)
        tol = 1e-8
        fit = poly_interpolate(x, 1.0 / x, 4, tol)
        assert fit.residual[0] > tol * max(1.0, np.max(np.abs(1.0 / x)))

    def test_round_trip_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            deg = int(rng.integers(0, 6))
            coeffs = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
            p = UniPoly(coeffs)
            x = rng.standard_normal(deg + 4) + 0.5
            fit = poly_interpolate(x, [p(z) for z in x], deg, tol=1e-8)
            for z in (0.1, -0.7, 1.3):
                assert abs(_poly_values(fit.coeffs[0], z) - p(z)) <= 1e-10 * max(1.0, abs(p(z)))

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            poly_interpolate([0.0, 1.0], [1.0, 2.0], 3)
        with pytest.raises(ValueError):
            poly_interpolate([0.0, 0.0, 1.0, 1.0], [1.0, 1.0, 2.0, 2.0], 2)

    def test_stacked_columns_match_column_fits(self):
        rng = np.random.default_rng(11)
        x = 1.5 + 0.7 * np.exp(2j * np.pi * np.arange(12) / 12)
        values = np.column_stack(
            [_poly_values(rng.standard_normal(4) * 10.0 ** rng.integers(-3, 3), x)
             for _ in range(5)] + [1.0 / (x - 0.2)]
        )
        fit = poly_interpolate(x, values, 3)
        assert fit.coeffs.shape == (6, 4) and fit.residual.shape == (6,)
        for j in range(values.shape[1]):
            one = poly_interpolate(x, values[:, j], 3)
            scale = np.max(np.abs(one.coeffs))
            assert np.max(np.abs(fit.coeffs[j] - one.coeffs[0])) <= 1e-13 * scale
            vmax = np.max(np.abs(values[:, j]))
            assert abs(fit.residual[j] - one.residual[0]) <= 1e-12 * max(1.0, vmax)


def fit_on_torus(f, center, radii, nodes):
    grid = np.apply_along_axis(f, -1, torus_nodes(center, radii, nodes))
    return polydisc_fit_grid(grid, center, radii)


class TestPolydiscModel:
    def test_fit_and_derivative(self):
        def f(pt):
            return np.exp(pt[0]) * np.cos(pt[1])

        model = fit_on_torus(f, (0.0, 0.0), (0.8, 0.8), 32)
        for k in range(4):
            w = np.exp(1j * (0.41 + 1.77 * k))
            pt = (0.57 * 0.8 * w * np.exp(0.23j), 0.57 * 0.8 * w * np.exp(0.46j))
            assert abs(model(pt) - f(pt)) < 1e-12
        d0 = model.derivative(0)
        pt = (0.2 + 0.1j, -0.3)
        assert abs(d0(pt) - np.exp(pt[0]) * np.cos(pt[1])) < 1e-10

    def test_polynomial_exact(self):
        def f(pt):
            return 2.0 + pt[0] ** 2 * pt[1] - 3.0 * pt[1]

        model = fit_on_torus(f, (0.1, -0.2), (1.0, 1.5), 16)
        pt = (0.9, 1.1)
        assert abs(model(pt) - f(pt)) < 1e-12


    def test_non_finite_sample_raises(self):
        grid = np.ones((8, 8), dtype=complex)
        grid[3, 5] = np.nan
        with pytest.raises(ValueError, match=r"non-finite.*\(3, 5\)"):
            polydisc_fit_grid(grid, (0.0, 0.0), (1.0, 1.0))


def _random_model(rng, k, d):
    center = tuple(rng.standard_normal(k) + 1j * rng.standard_normal(k))
    radii = tuple(rng.uniform(0.3, 2.0, k))
    coeffs = rng.standard_normal((d,) * k) + 1j * rng.standard_normal((d,) * k)
    return PolydiscModel(center, radii, coeffs)


def _term_sum(model, point, axis=None):
    """The model, or its partial along ``axis``, at one point, summed term
    by term over the coefficient tensor."""
    s = [(complex(z) - c) / r for z, c, r in zip(point, model.center, model.radii)]
    total = 0j
    for e in np.ndindex(*model.coeffs.shape):
        term = model.coeffs[e]
        for ax, (sk, ek) in enumerate(zip(s, e)):
            if ax == axis:
                term *= ek * sk ** (ek - 1) / model.radii[ax] if ek else 0.0
            else:
                term *= sk**ek
        total += term
    return total


class TestPolydiscArrays:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_call_broadcasts_like_scalar_calls(self, k):
        rng = np.random.default_rng(10 + k)
        model = _random_model(rng, k, 5)
        # axis ax varies along array axis ax only, so the shapes broadcast
        coords = []
        for ax in range(k):
            shape = [1] * k
            shape[ax] = 3 + ax
            z = model.center[ax] + model.radii[ax] * 0.8 * (
                rng.uniform(-1, 1, shape) + 1j * rng.uniform(-1, 1, shape)
            )
            coords.append(z)
        got = model(coords)
        assert got.shape == tuple(3 + ax for ax in range(k))
        scale = np.sum(np.abs(model.coeffs))
        for idx in np.ndindex(*got.shape):
            pt = [complex(np.broadcast_to(z, got.shape)[idx]) for z in coords]
            assert abs(got[idx] - model(pt)) <= 1e-14 * scale
            assert abs(got[idx] - _term_sum(model, pt)) <= 1e-14 * scale

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("d", [1, 2, 6])
    def test_call_on_point_array_matches_point_calls(self, k, d):
        # points as a (k, m) array, as the extension's probe check passes
        # them; d = 1 leaves each axis one coefficient and the powers (1,)
        rng = np.random.default_rng(30 + 3 * k + d)
        model = _random_model(rng, k, d)
        pts = np.array([[c + r * 0.9 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
                         for _ in range(7)] for c, r in zip(model.center, model.radii)])
        want = np.array([model(pt) for pt in pts.T])
        assert np.all(np.abs(model(pts) - want) <= 1e-15 * np.abs(want))
        scale = np.sum(np.abs(model.coeffs))
        assert all(abs(w - _term_sum(model, pt)) <= 1e-14 * scale for w, pt in zip(want, pts.T))

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_derivative_of_dense_tensor(self, k):
        rng = np.random.default_rng(20 + k)
        model = _random_model(rng, k, 4)
        scale = np.sum(np.abs(model.coeffs)) * 4 / min(model.radii)
        for axis in range(k):
            deriv = model.derivative(axis)
            assert deriv.coeffs.shape == model.coeffs.shape
            for _ in range(3):
                pt = [c + r * 0.7 * np.exp(2j * np.pi * rng.uniform())
                      for c, r in zip(model.center, model.radii)]
                assert abs(deriv(pt) - _term_sum(model, pt, axis)) <= 1e-14 * scale

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        k=st.integers(1, 3),
        nodes=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_fit_recovers_polynomial(self, k, nodes, seed):
        # degree <= nodes//2 per axis: the torus samples alias nothing
        rng = np.random.default_rng(seed)
        truth = _random_model(rng, k, nodes // 2 + 1)
        grid = truth(np.moveaxis(torus_nodes(truth.center, truth.radii, nodes), -1, 0))
        fit = polydisc_fit_grid(grid, truth.center, truth.radii)
        scale = np.max(np.abs(truth.coeffs))
        assert fit.coeffs.shape == truth.coeffs.shape
        assert np.max(np.abs(fit.coeffs - truth.coeffs)) <= 1e-12 * scale
        pt = [c + 0.6 * r * np.exp(2j * np.pi * rng.uniform())
              for c, r in zip(truth.center, truth.radii)]
        assert abs(fit(pt) - _term_sum(truth, pt)) <= 1e-12 * np.sum(np.abs(truth.coeffs))

    def test_models_compare_by_identity(self):
        # two models holding equal 3 x 3 tensors are distinct objects;
        # comparing them must not reach the arrays' truth value
        coeffs = np.arange(9, dtype=complex).reshape(3, 3)
        m1 = PolydiscModel((0j, 0j), (1.0, 1.0), coeffs.copy())
        m2 = PolydiscModel((0j, 0j), (1.0, 1.0), coeffs.copy())
        assert m1 == m1
        assert m1 != m2
        assert m1 in [m2, m1]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_torus_nodes_point_order(k):
    center = [0.3 - 0.2j, -1.1, 2.5j][:k]
    radii = [0.7, 1.9, 0.05][:k]
    for nodes in range(1, 9):
        ring = np.exp(2j * np.pi * np.arange(nodes) / nodes)
        pts = torus_nodes(center, radii, nodes)
        assert pts.shape == (nodes,) * k + (k,)
        for idx in np.ndindex(*pts.shape[:-1]):
            want = [center[ax] + radii[ax] * ring[i] for ax, i in enumerate(idx)]
            assert np.array_equal(pts[idx], want)


def test_gauss_legendre_array_end_points():
    rng = np.random.default_rng(7)
    z0 = rng.standard_normal((3, 1)) + 1j * rng.standard_normal((3, 1))
    z1 = rng.standard_normal((1, 4)) + 1j * rng.standard_normal((1, 4))

    seen = []

    def g(z):
        seen.append(np.shape(z))
        return np.exp(z) + z**3

    got = gauss_legendre_segment(g, z0, z1)
    # one call on every segment's nodes, the nodes on a trailing axis
    assert seen == [(3, 4, 24)]
    assert got.shape == (3, 4)
    for i, j in np.ndindex(3, 4):
        want = gauss_legendre_segment(g, complex(z0[i, 0]), complex(z1[0, j]))
        assert abs(got[i, j] - want) <= 1e-14 * max(1.0, abs(want))


def test_gauss_legendre_polynomial_exact():
    # integral of z^5 along 1 -> 2+1j, against the antiderivative z^6/6
    val = gauss_legendre_segment(lambda z: z**5, 1.0, 2.0 + 1.0j)
    expect = ((2.0 + 1.0j) ** 6 - 1.0) / 6.0
    assert abs(val - expect) < 1e-12 * abs(expect)
