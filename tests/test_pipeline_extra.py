"""Cross-module exercises beyond the per-module suites: p = 2 ladders,
cluster-flagged transforms, meromorphic-numerator detection, and
closed-form sanity checks for the equivariance bookkeeping."""

import numpy as np
import pytest

from abeltrace import residues
from abeltrace.errors import OverdeterminedMismatch
from abeltrace.geometry import DomainSpec, PlaneChart, ResidueData, VarietySpec
from abeltrace.multipoly import MultiPoly
from abeltrace.radon import (
    propagate_trace_extension,
    radon_coefficients,
    verify_shock_relations,
)
from abeltrace.reconstruct import fit_minimal_polys, reconstruct_numerator
from abeltrace.residues import (
    GridPlan,
    TorusPlan,
    trace,
    trace_table,
)

V2 = ("x", "y")
V3 = ("x", "y1", "y2")


def triangular_data():
    f1 = MultiPoly(V3, {(0, 2, 0): 1.0, (1, 0, 0): -1.0})
    f2 = MultiPoly(V3, {(0, 0, 1): 1.0, (0, 1, 0): -1.0, (0, 0, 0): -1.0})
    v = VarietySpec(("x",), ("y1", "y2"), [f1, f2])
    return ResidueData(v, MultiPoly.constant(1.0, V3))


def _p2_shock_table():
    data = triangular_data()
    dom = DomainSpec(
        PlaneChart([[0.1 + 0.05j, 0.07]], [2.0 + 0.3j]),
        {"a1.1": 0.25, "a1.2": 0.25, "b1": 0.4},
    )
    return trace_table(data, dom, 3, GridPlan({"a1.1": 2, "a1.2": 2, "b1": 2}))


def test_shock_relations_both_slots_p2():
    # closedness holds per fiber slot; with both a-parameters varying the
    # verifier checks the j = 1 and j = 2 identities
    t = _p2_shock_table()
    rep = verify_shock_relations(t, 1e-7, probes=2)
    assert rep.passed
    slots = {j for (_, _, j, _) in rep.details}
    assert slots == {1, 2}


def test_shock_circles_p2_need_no_per_chart_solve(monkeypatch):
    # every circle chart of both probes is certified by the family solve
    t = _p2_shock_table()
    calls = []
    real = residues._evaluate_one
    monkeypatch.setattr(residues, "_evaluate_one",
                        lambda *args, **kw: calls.append(1) or real(*args, **kw))
    assert verify_shock_relations(t, 1e-7, probes=2).passed
    assert calls == []


def test_propagation_ladder_p2():
    # first-slot ladder extension for a two-variable fiber; the second
    # a-parameter stays frozen at the domain center
    data = triangular_data()
    center = PlaneChart([[0.1, 0.05]], [2.0 + 0.2j])
    small = DomainSpec(center, {"a1.1": 0.2, "b1": 0.5})
    big = DomainSpec(center, {"a1.1": 0.2, "b1": 1.0})
    t = trace_table(data, small, 4, TorusPlan(6))
    ext = propagate_trace_extension(
        t, lambda ch: trace(data, ch, (0, 0)), big, order=2, fft_nodes=12
    )
    rng = np.random.default_rng(14)
    for _ in range(6):
        off = {
            "a1.1": 0.15 * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)) / 1.5,
            "b1": 0.9 * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)) / 1.5,
        }
        ch = big.chart_at(off)
        for k in range(3):
            idx = (k, 0)
            assert abs(ext.model_value(idx, ch) - trace(data, ch, idx)) < 1e-7


def test_radon_cluster_sample_flagged_not_dropped():
    # a grid chart exactly on the discriminant: the sample is flagged as
    # a cluster but its cluster-summed value stays usable
    f = MultiPoly(V2, {(0, 2): 1.0, (1, 0): -1.0})
    data = ResidueData(VarietySpec(("x",), ("y",), [f]),
                       MultiPoly.constant(1.0, V2))
    dom = DomainSpec(PlaneChart([[0.0]], [0.0]), {"b1": 0.5})
    from abeltrace.residues import ListPlan

    rt = radon_coefficients(data, dom, ListPlan(({"b1": 0.0}, {"b1": 0.3})))
    assert rt.flags[0] == "cluster"
    assert rt.flags[1] == "clean"
    assert rt.coeffs[(1,)][0] == pytest.approx(-1.0, abs=1e-9)


def test_weight_pole_outside_disk_gives_meromorphic_numerator():
    # weight (x - 6) far from the sampled disk: the minimal polynomial
    # coefficients stay polynomial (the recurrence is scaling-invariant),
    # but the numerator coefficients pick up the factor 1/(x - 6) and the
    # polynomial fit must refuse
    f = MultiPoly(V2, {(0, 2): 1.0, (1, 0): -1.0})
    w = MultiPoly(V2, {(1, 0): 1.0, (0, 0): -6.0})
    data = ResidueData(VarietySpec(("x",), ("y",), [f]),
                       MultiPoly.constant(1.0, V2), weight=w)
    dom = DomainSpec(PlaneChart([[0.0]], [3.0]), {"b1": 0.5})
    t = trace_table(data, dom, 5, TorusPlan(16))
    minimal = fit_minimal_polys(t, 2)
    assert minimal.degrees == (2,)
    a2 = np.zeros(2, dtype=complex)
    a2[: len(minimal.coeffs[0][1].coeffs)] = minimal.coeffs[0][1].coeffs
    assert np.allclose(a2, [0.0, -1.0], atol=1e-8)
    with pytest.raises(OverdeterminedMismatch):
        reconstruct_numerator(t, minimal, coeff_deg_bound=5)


def test_degree_four_base_varying_round_trip():
    # monic quartic with an x-dependent coefficient: y^4 + x y - 1.2;
    # the fitted minimal polynomial must reproduce it and the numerator
    # must come back as the source
    f = MultiPoly(V2, {(0, 4): 1.0, (1, 1): 1.0, (0, 0): -1.2})
    psi = MultiPoly(V2, {(0, 1): 0.7, (1, 0): -0.3j, (0, 0): 1.1})
    data = ResidueData(VarietySpec(("x",), ("y",), [f]), psi)
    dom = DomainSpec(PlaneChart([[0.0]], [0.4 + 0.1j]), {"b1": 0.3})
    t = trace_table(data, dom, 9, TorusPlan(12))
    minimal = fit_minimal_polys(t, 4)
    assert minimal.degrees == (4,)
    # a_1 = a_2 = 0, a_3(x) = x, a_4 = -1.2
    assert minimal.coeffs[0][0].is_zero
    assert minimal.coeffs[0][1].is_zero
    a3 = np.zeros(2, dtype=complex)
    a3[: len(minimal.coeffs[0][2].coeffs)] = minimal.coeffs[0][2].coeffs
    assert np.allclose(a3, [0.0, 1.0], atol=1e-7)
    assert minimal.coeffs[0][3](0.0) == pytest.approx(-1.2, abs=1e-7)
    rec = reconstruct_numerator(t, minimal)
    for exps in set(psi.terms) | set(rec.numerator.terms):
        a = psi.terms.get(exps, 0.0)
        b = rec.numerator.terms.get(exps, 0.0)
        assert abs(a - b) <= 1e-7 * max(1.0, abs(a))


def test_equivariance_closed_form_scaling():
    # parabola: u_0 = 0 and u_1 = -1 identically, so the transform is
    # -da; pulling back through a = 2a' must give the da'-coefficient -2,
    # computed here from first principles via traces at the image chart
    f = MultiPoly(V2, {(0, 2): 1.0, (1, 0): -1.0})
    data = ResidueData(VarietySpec(("x",), ("y",), [f]),
                       MultiPoly.constant(1.0, V2))
    for aprime, b in ((0.12, 2.1), (0.07 - 0.02j, 1.8 + 0.4j)):
        image = PlaneChart([[2.0 * aprime]], [b])
        # d(l)/d(a') = -2y, so the coefficient of da' is 2 * u_1(image)
        coeff = 2.0 * trace(data, image, 1)
        assert coeff == pytest.approx(-2.0)
        assert abs(trace(data, image, 0)) < 1e-12
