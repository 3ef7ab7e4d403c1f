import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from abeltrace.errors import (
    DegreeUndetectable,
    EvaluationError,
    IllConditioned,
    OverdeterminedMismatch,
    ZeroPolynomial,
)
from abeltrace.geometry import DomainSpec, PlaneChart, ResidueData, VarietySpec
from abeltrace.multipoly import MultiPoly
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

    def test_derivative(self):
        p = UniPoly([5, 0, 1])  # 5 + y^2
        assert p.derivative().coeffs == (0j, 2 + 0j)
        assert p.derivative(3).is_zero

    def test_from_roots(self):
        p = UniPoly.from_roots([1, -1])
        assert p.coeffs == (-1 + 0j, 0j, 1 + 0j)


class TestPolyRoots:
    def test_two_simple_roots(self):
        # y^2 - 1 factors by inspection
        got = roots_dict(poly_roots(UniPoly([-1, 0, 1]), 1e-10))
        assert got == {(-1 + 0j): 1, (1 + 0j): 1}

    def test_triple_root_at_origin(self):
        assert poly_roots(UniPoly([0, 0, 0, 1]), 1e-10) == [(0j, 3)]

    def test_quadratic_formula_case(self):
        # y^2 - 2y + 5 = (y - 1)^2 + 4
        got = roots_dict(poly_roots(UniPoly([5, -2, 1]), 1e-10))
        assert got == {(1 + 2j): 1, (1 - 2j): 1}

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ZeroPolynomial):
            poly_roots(UniPoly([]), 1e-10)
        with pytest.raises(ZeroPolynomial):
            poly_roots(UniPoly([3.0]), 1e-10)

    def test_bad_tol(self):
        with pytest.raises(ValueError):
            poly_roots(UniPoly([1, 1]), -1.0)

    def test_root_sum_identity(self):
        # sum of roots of a monic polynomial is minus the subleading coeff
        rng = np.random.default_rng(42)
        for _ in range(20):
            d = int(rng.integers(2, 9))
            coeffs = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            p = UniPoly(list(coeffs) + [1.0])
            rts = poly_roots(p, 1e-10)
            total = sum(r * m for r, m in rts)
            assert abs(total - (-coeffs[-1])) <= 1e-9 * max(1.0, abs(coeffs[-1]))
            assert sum(m for _, m in rts) == d

    def test_clustered_double_root(self):
        # (y - 1)^2 (y + 2): the double root must merge
        p = UniPoly.from_roots([1, 1, -2])
        got = roots_dict(poly_roots(p, 1e-10))
        assert got == {(1 + 0j): 2, (-2 + 0j): 1}

    def test_triple_root_off_origin(self):
        p = UniPoly.from_roots([1.0, 1.0, 1.0])
        got = poly_roots(p, 1e-10)
        assert len(got) == 1
        root, mult = got[0]
        assert mult == 3
        assert abs(root - 1.0) < 1e-4

    def test_mixed_multiplicities(self):
        # (y - 1)^3 (y + 2)^2: cluster sizes 3 and 2
        p = UniPoly.from_roots([1.0, 1.0, 1.0, -2.0, -2.0])
        got = {m for _, m in poly_roots(p, 1e-10)}
        assert got == {3, 2}
        total = sum(m for _, m in poly_roots(p, 1e-10))
        assert total == 5

    @pytest.mark.parametrize("big", [1e16, 9e16])
    def test_huge_root_next_to_a_ring(self, big):
        # 19 roots on |z| = 1.5 plus one huge root: the residual check must
        # not overflow, and no spurious ring iterate may stand in for the
        # huge root
        ring = list(1.5 * np.exp(2j * np.pi * np.arange(19) / 19))
        got = poly_roots(UniPoly.from_roots(ring + [big]))
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
        got = poly_roots(UniPoly.from_roots(roots))
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
        assert cauchy_derivative(lambda z: z * z, 1.0, 0.5) == pytest.approx(2.0)

    def test_exp(self):
        assert cauchy_derivative(np.exp, 0.0, 1.0) == pytest.approx(1.0)

    def test_simple_pole_outside(self):
        # d/dz (z-2)^-1 = -(z-2)^-2, so the value at 0 is -1/4
        val = cauchy_derivative(lambda z: 1.0 / (z - 2.0), 0.0, 1.0, 1)
        assert val == pytest.approx(-0.25)

    def test_polynomial_exact_across_radii(self):
        rng = np.random.default_rng(1)
        coeffs = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        p = UniPoly(coeffs)
        dp = p.derivative()
        z0 = 0.3 - 0.2j
        for radius in (0.1, 0.5, 1.0, 2.0):
            val = cauchy_derivative(p, z0, radius, 1, nodes=32)
            assert abs(val - dp(z0)) <= 1e-12 * max(1.0, abs(dp(z0)))

    def test_higher_order(self):
        # third derivative of z^4 at 1 is 24
        val = cauchy_derivative(lambda z: z**4, 1.0, 0.7, order=3, nodes=48)
        assert val == pytest.approx(24.0)

    def test_evaluator_error_wrapped(self):
        def bad(z):
            raise RuntimeError("boom")

        with pytest.raises(EvaluationError):
            cauchy_derivative(bad, 0.0, 1.0)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            cauchy_derivative(np.exp, 0.0, 1.0, order=0)
        with pytest.raises(ValueError):
            cauchy_derivative(np.exp, 0.0, 1.0, nodes=8)
        with pytest.raises(ValueError):
            cauchy_derivative(np.exp, 0.0, -1.0)


def single_chart_table(roots, numerator, max_order=None):
    """Trace table at one vertical chart of the constant family
    prod(y - roots) with a numerator in y: its moments are
    u_k = -sum numerator(r) r^k / P'(r) over the roots."""
    f = MultiPoly.from_univariate(UniPoly.from_roots(roots), "y", V2)
    data = ResidueData(
        VarietySpec(("x",), ("y",), [f]),
        MultiPoly.from_univariate(UniPoly(numerator), "y", V2),
    )
    dom = DomainSpec(PlaneChart.vertical([0.4]), {})
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
        assert t.column(1)[0] == pytest.approx(1.0)
        assert abs(t.column(2)[0]) < 1e-12
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
            p_true = UniPoly.from_roots(roots)
            # (a_1..a_d) against lowest-first (c_0..c_{d-1}, 1)
            expect = [p_true.coeffs[d - j] for j in range(1, d + 1)]
            err = max(abs(a - e) for a, e in zip(recurrence(minimal), expect))
            assert err <= 1e-8 * max(1.0, max(abs(e) for e in expect))

    def test_ill_conditioned_near_discriminant(self):
        # numerator P' weights both sheets alike (u_k = -(r1^k + r2^k));
        # sheets 2e-5 apart stay two simple points yet make the degree-2
        # recurrence condition about 2e10
        roots = [1.0, 1.0 + 2e-5]
        t = single_chart_table(
            roots, UniPoly.from_roots(roots).derivative().coeffs, max_order=5
        )
        assert t.flags == ("clean",)
        assert fit_minimal_polys(t, 2, tol=1e-12).degrees == (2,)
        with pytest.raises(IllConditioned):
            fit_minimal_polys(t, 2, tol=1e-12, cond_cap=1e10)

    def test_degree_undetectable(self):
        t = single_chart_table([0.5, -0.7, 0.9j, -1.1j], [1.0, 0.3])
        with pytest.raises(DegreeUndetectable) as info:
            fit_minimal_polys(t, 2)
        assert not info.value.zero_moments


class TestPolyInterpolate:
    def test_linear(self):
        fit = poly_interpolate([(x, -x) for x in (0.0, 1.0, 2.0)], 1)
        assert fit.poly.coeffs == (-1 + 0j,) or fit.poly.coeffs == (0j, -1 + 0j)
        assert fit.poly(3.0) == pytest.approx(-3.0)

    def test_cubic(self):
        pts = [(x, x**3 - 3 * x**2 + 2 * x) for x in np.linspace(0.5, 3.5, 6)]
        fit = poly_interpolate(pts, 3)
        assert fit.residual < 1e-10
        got = np.zeros(4, dtype=complex)
        got[: len(fit.poly.coeffs)] = fit.poly.coeffs
        assert np.allclose(got, [0, 2, -3, 1], atol=1e-9)

    def test_non_polynomial_data(self):
        pts = [(x, 1.0 / x) for x in np.linspace(0.5, 2.5, 9)]
        with pytest.raises(OverdeterminedMismatch):
            poly_interpolate(pts, 4)

    def test_round_trip_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            deg = int(rng.integers(0, 6))
            coeffs = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
            p = UniPoly(coeffs)
            pts = [(z, p(z)) for z in rng.standard_normal(deg + 4) + 0.5]
            fit = poly_interpolate(pts, deg, tol=1e-8)
            for z in (0.1, -0.7, 1.3):
                assert abs(fit.poly(z) - p(z)) <= 1e-10 * max(1.0, abs(p(z)))

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            poly_interpolate([(0.0, 1.0), (1.0, 2.0)], 3)


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
