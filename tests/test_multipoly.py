import numpy as np
import pytest

from abeltrace.multipoly import MultiPoly
from abeltrace.numeric import UniPoly

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


def test_pow_and_degree():
    x = MultiPoly.variable("x", V)
    y = MultiPoly.variable("y", V)
    f = (x + y) ** 3
    assert f.degree() == 3
    assert f.degree("x") == 3
    assert f.terms[(2, 1)] == pytest.approx(3.0)


def test_substitute_affine():
    # f(x, y) = y^2 - x with x := 2y + 5 gives y^2 - 2y - 5
    f = MultiPoly(V, {(0, 2): 1.0, (1, 0): -1.0})
    img = MultiPoly(("y",), {(1,): 2.0, (0,): 5.0})
    sub = f.substitute({"x": img})
    assert sub.vars == ("y",)
    assert sub.terms == {(2,): 1.0 + 0j, (1,): -2.0 + 0j, (0,): -5.0 + 0j}


def test_with_vars_and_restricted():
    f = MultiPoly(("y",), {(2,): 1.0})
    g = f.with_vars(V)
    assert g.terms == {(0, 2): 1.0 + 0j}
    assert g.restricted(("y",)) == f
    with pytest.raises(ValueError):
        MultiPoly(V, {(1, 1): 1.0}).restricted(("y",))


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
    f = MultiPoly.from_univariate(p, "y", V)
    assert f.as_univariate("y") == p
