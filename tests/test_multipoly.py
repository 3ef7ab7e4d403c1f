import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from abeltrace.multipoly import MultiPoly, _substitute_terms
from abeltrace.numeric import UniPoly
from builders import from_univariate

V = ("x", "y")


def rand_poly(rng, vars=V, deg=3, terms=5):
    out = {}
    for _ in range(terms):
        exps = tuple(int(rng.integers(0, deg + 1)) for _ in vars)
        out[exps] = complex(rng.standard_normal(), rng.standard_normal())
    return MultiPoly(vars, out)


def test_zero_terms_dropped():
    p = MultiPoly(V, {(0, 0): 0.0, (1, 0): 2.0})
    assert p.terms == {(1, 0): 2.0 + 0j}


def test_exponent_length_checked():
    with pytest.raises(ValueError):
        MultiPoly(V, {(1,): 1.0})
    with pytest.raises(ValueError):
        MultiPoly(V, {(-1, 0): 1.0})


def test_product_rule_on_evaluation():
    rng = np.random.default_rng(0)
    for _ in range(8):
        f, g = rand_poly(rng), rand_poly(rng)
        pt = {"x": complex(*rng.standard_normal(2)), "y": complex(*rng.standard_normal(2))}
        assert (f * g).evaluate(pt) == pytest.approx(f.evaluate(pt) * g.evaluate(pt))
        assert (f + g).evaluate(pt) == pytest.approx(f.evaluate(pt) + g.evaluate(pt))


def test_partial_matches_finite_difference():
    rng = np.random.default_rng(1)
    f = rand_poly(rng)
    pt = {"x": 0.4 + 0.2j, "y": -0.3 + 0.1j}
    h = 1e-6
    up = f.evaluate({**pt, "x": pt["x"] + h})
    dn = f.evaluate({**pt, "x": pt["x"] - h})
    assert f.partial("x").evaluate(pt) == pytest.approx((up - dn) / (2 * h), rel=1e-7)


def test_product_and_degree():
    x = MultiPoly.variable("x", V)
    y = MultiPoly.variable("y", V)
    f = (x + y) * (x + y) * (x + y)
    assert f.degree("x") == f.degree("y") == 3
    assert MultiPoly.zero(V).degree("x") == -1
    assert f.terms[(2, 1)] == pytest.approx(3.0)


def test_evaluate_checks_point_length():
    f = MultiPoly(V, {(1, 0): 1.0})
    assert f.evaluate([3.0, 5.0]) == 3.0
    with pytest.raises(ValueError):
        f.evaluate([3.0])
    with pytest.raises(ValueError):
        f.evaluate([3.0, 5.0, 7.0])


def test_substitute_affine():
    # f(x, y) = y^2 - x with x := 2y + 5 gives y^2 - 2y - 5
    f = MultiPoly(V, {(0, 2): 1.0, (1, 0): -1.0})
    img = MultiPoly(("y",), {(1,): 2.0, (0,): 5.0})
    sub = f.substitute({"x": img})
    assert sub.vars == ("y",)
    assert sub.terms == {(2,): 1.0 + 0j, (1,): -2.0 + 0j, (0,): -5.0 + 0j}


@settings(derandomize=True, max_examples=200, deadline=None)
@example(seed=0, nvars=2, nterms=0, form="array")
@example(seed=0, nvars=1, nterms=0, form="scalar")
@given(
    seed=st.integers(0, 2**32 - 1),
    nvars=st.integers(1, 3),
    nterms=st.integers(0, 8),
    form=st.sampled_from(["scalar", "dict", "array"]),
)
def test_evaluate_matches_term_sum(seed, nvars, nterms, form):
    # the term-matrix evaluation against the sum of c z^e term by term,
    # at a point of values, a dict, or arrays broadcasting to (3, 4)
    rng = np.random.default_rng(seed)
    vars = ("x", "y", "z")[:nvars]
    f = MultiPoly(vars, {tuple(rng.integers(0, 5, nvars).tolist()): complex(*rng.standard_normal(2))
                         for _ in range(nterms)})
    if form == "array":
        shapes = [(3, 1), (4,), (1, 4)][:nvars]
        point = [rng.standard_normal(sh) + 1j * rng.standard_normal(sh) for sh in shapes]
    else:
        point = [complex(*rng.standard_normal(2)) for _ in vars]
    got = f.evaluate(dict(zip(vars, point)) if form == "dict" else point)
    want = scale = np.zeros(np.broadcast_shapes(*(np.shape(z) for z in point)))
    for e, c in f.terms.items():
        want = want + c * math.prod(z**k for z, k in zip(point, e))
        scale = scale + abs(c) * math.prod(abs(z)**k for z, k in zip(point, e))
    if form == "array":
        assert got.shape == want.shape
    else:
        assert type(got) is complex
    assert np.all(np.abs(got - want) <= 1e-13 * scale)


V4 = ("x1", "x2", "y1", "y2")


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    degree=st.integers(0, 5),
    nterms=st.integers(1, 12),
)
def test_substitute_matches_evaluation_on_the_plane(seed, degree, nterms):
    # f(a y + b, y) two ways: expand the substitution, then evaluate at y;
    # or evaluate f at the point (a y + b, y)
    rng = np.random.default_rng(seed)
    monos = [e for e in itertools.product(range(degree + 1), repeat=4) if sum(e) <= degree]
    picks = rng.choice(len(monos), size=min(nterms, len(monos)), replace=False)
    f = MultiPoly(V4, {monos[i]: complex(*rng.standard_normal(2)) for i in picks})
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    y = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    images = {
        f"x{i + 1}": MultiPoly(("y1", "y2"), {(0, 0): b[i], (1, 0): a[i, 0], (0, 1): a[i, 1]})
        for i in range(2)
    }
    got = f.substitute(images).evaluate(y)
    want = f.evaluate(list(a @ y + b) + list(y))
    # rounding scale of either side: each variable bounded by the sum of
    # the absolute values of its image's terms
    bounds = list(np.abs(a) @ np.abs(y) + np.abs(b)) + list(np.abs(y))
    scale = sum(abs(c) * np.prod([s**k for s, k in zip(bounds, e)]) for e, c in f.terms.items())
    assert abs(got - want) <= 1e-12 * scale


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    degree=st.integers(0, 4),
    charts=st.sampled_from([(), (3,)]),
    kinds=st.lists(st.sampled_from(["poly", "monomial", "zero"]), min_size=3, max_size=3),
)
def test_substitute_terms_matches_evaluation(seed, degree, charts, kinds):
    # sum_e out[e] y^e against f at the images of y, chart by chart, for
    # images of degree up to 2, one-term images (placed directly) and zero
    # images, with image coefficients that are arrays over charts or not
    rng = np.random.default_rng(seed)

    def cn(shape=()):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    monos = [e for e in itertools.product(range(degree + 1), repeat=3) if sum(e) <= degree]
    f = {monos[i]: complex(cn()) for i in rng.choice(len(monos), size=min(5, len(monos)))}
    images = []
    for kind in kinds:
        if kind == "poly":
            images.append({e: cn(charts) for e in [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1)]})
        elif kind == "monomial":
            images.append({tuple(int(k) for k in rng.integers(0, 3, size=2)): cn(charts)})
        else:
            images.append({})
    out = _substitute_terms(MultiPoly(("a", "b", "c"), f), images, (0, 0))
    y = cn(2)
    at = [np.broadcast_to(sum(c * y[0] ** e[0] * y[1] ** e[1] for e, c in img.items()), charts)
          for img in images]
    mag = [np.broadcast_to(sum(abs(c) * abs(y[0]) ** e[0] * abs(y[1]) ** e[1]
                               for e, c in img.items()), charts) for img in images]
    got = sum(c * y[0] ** e[0] * y[1] ** e[1] for e, c in out.items())
    want = sum(c * np.prod([z**k for z, k in zip(at, e)], axis=0) for e, c in f.items())
    scale = sum(abs(c) * np.prod([z**k for z, k in zip(mag, e)], axis=0) for e, c in f.items())
    assert np.shape(got) == (charts if any(images) else ())
    assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(scale, 1e-300))


def test_with_vars():
    f = MultiPoly(("y",), {(2,): 1.0})
    g = f.with_vars(V)
    assert g.terms == {(0, 2): 1.0 + 0j}


def test_as_univariate_and_coeffs():
    f = MultiPoly(V, {(0, 2): 1.0, (1, 1): 3.0, (2, 0): -1.0})
    cs = f.univariate_coeffs("y")
    assert cs[0].terms == {(2,): -1.0 + 0j}
    assert cs[1].terms == {(1,): 3.0 + 0j}
    assert cs[2].terms == {(0,): 1.0 + 0j}
    with pytest.raises(ValueError):
        f.as_univariate("y")
    g = MultiPoly(V, {(0, 2): 2.0, (0, 0): 1.0})
    assert g.as_univariate("y") == UniPoly([1.0, 0.0, 2.0])


def test_from_univariate_round_trip():
    p = UniPoly([1.0, 0.0, -2.0])
    f = from_univariate(p, "y", V)
    assert f.as_univariate("y") == p
