import numpy as np
import pytest

from abeltrace import residues
from abeltrace.errors import (
    DegreeDrop,
    EvaluationError,
    InsufficientMargin,
    PathCrossesPole,
    PoleDetected,
    UnsupportedDimension,
)
from abeltrace.geometry import Charts, DomainSpec, PlaneChart, ResidueData, VarietySpec
from abeltrace.multipoly import MultiPoly
from abeltrace.numeric import cauchy_nodes
from abeltrace.radon import (
    HOLO_MAX_FIT_DEGREE,
    SHOCK_MARGIN,
    AffineMap,
    _probe_offsets,
    label_index,
    propagate_trace_extension,
    radon_coefficients,
    radon_labels,
    reparametrize_check,
    verify_holomorphy,
    verify_shock_relations,
)
from abeltrace.residues import (
    GridPlan,
    ListPlan,
    TorusPlan,
    TraceTable,
    evaluate_chart,
    trace,
    trace_table,
)

V2 = ("x", "y")


def make_data(terms, psi_terms=None, weight_terms=None):
    f = MultiPoly(V2, terms)
    v = VarietySpec(("x",), ("y",), [f])
    psi = MultiPoly(V2, psi_terms) if psi_terms else MultiPoly.constant(1.0, V2)
    w = MultiPoly(V2, weight_terms) if weight_terms else None
    return ResidueData(v, psi, weight=w)


def parabola_data():
    return make_data({(0, 2): 1.0, (1, 0): -1.0})


def elliptic_data(psi_terms=None, weight_terms=None):
    return make_data(
        {(0, 2): 1.0, (3, 0): -1.0, (0, 0): -1.0}, psi_terms, weight_terms
    )


def sheet_data():
    return make_data({(0, 1): 1.0, (1, 0): -1.0})


def _spy_solves(monkeypatch):
    """Record every chart family and every single chart that residues
    solves."""
    solved = []
    real_family, real_fiber = residues.solve_family, residues.solve_fiber
    monkeypatch.setattr(residues, "solve_family", lambda *args, **kw: solved.append("family")
                        or real_family(*args, **kw))
    monkeypatch.setattr(residues, "solve_fiber", lambda *args, **kw: solved.append("fiber")
                        or real_fiber(*args, **kw))
    return solved


def _reference_holomorphy(rt, tol):
    """verify_holomorphy's sweep one least-squares solve at a time: per
    label, per degree and per side (values, then reciprocals), on features
    rebuilt for each fit. Returns label -> (status, fit residual, fit
    degree, reciprocal residual, reciprocal degree, the scale the fit
    residual is judged against)."""
    mask = rt.clean_mask()
    scaled = rt.domain.offset_array(rt.offsets)[mask]
    radii = np.array([rt.domain.radii[nm] for nm in rt.domain.varying])
    scaled.real /= radii
    scaled.imag /= radii
    tscale = max(rt.term_scale(), 1e-300)

    def sweep(values, s):
        best, best_deg = np.inf, 0
        for deg in range(1, HOLO_MAX_FIT_DEGREE + 1):
            exps = [e for e in np.ndindex(*([deg + 1] * s.shape[1])) if sum(e) <= deg]
            feats = np.prod(s[:, None, :] ** np.array(exps), axis=-1)
            if feats.shape[0] <= feats.shape[1]:
                break
            sol = np.linalg.lstsq(feats, values, rcond=None)[0]
            resid = float(np.max(np.abs(feats @ sol - values)))
            if resid < best:
                best, best_deg = resid, deg
        return best, best_deg

    flagged = "pole" in rt.flags
    out = {}
    for label, vals in rt.coeffs.items():
        v = np.asarray(vals)[mask]
        vmax = float(np.max(np.abs(v))) if v.size else 0.0
        resid, deg = sweep(v, scaled)
        inv_resid, inv_deg = np.inf, 0
        big = np.abs(v) > 1e-9 * tscale
        if np.sum(big) >= 6:
            inv_resid, inv_deg = sweep(1.0 / v[big], scaled[big])
            inv_resid /= max(1e-300, float(np.max(np.abs(1.0 / v[big]))))
        status = ("meromorphic" if flagged
                  else "holomorphic" if resid <= tol * max(vmax, tscale)
                  else "meromorphic" if inv_resid <= tol else "inconclusive")
        out[label] = (status, resid, deg, inv_resid, inv_deg, max(vmax, tscale))
    return out


class TestLabels:
    def test_labels_and_counts(self):
        assert radon_labels(1, 2) == [(0,), (1,), (2,)]
        assert label_index((0,), 2) == (0, 0)
        assert label_index((2,), 2) == (0, 1)
        assert set(radon_labels(2, 1)) == {(0, 0), (0, 1), (1, 0), (1, 1)}
        assert label_index((1, 1), 1) == (2,)


class TestRadonCoefficients:
    def test_parabola_closed_forms(self):
        # u_0 = 0 and u_1 = -1 identically in (a, b)
        data = parabola_data()
        dom = DomainSpec(
            PlaneChart([[0.1 + 0.05j]], [2.0 + 0.3j]), {"a1.1": 0.3, "b1": 0.5}
        )
        rt = radon_coefficients(data, dom, GridPlan({"a1.1": 3, "b1": 3}))
        assert np.max(np.abs(rt.coeffs[(0,)])) < 1e-12
        assert np.allclose(rt.coeffs[(1,)], -1.0)

    def test_single_sheet_closed_form(self):
        # one-point fiber of y = x against x = a y + b: the fiber point is
        # y* = b/(1-a) and the coefficients are
        # u_I = -(b/(1-a))^I / (1-a)  (hand computation)
        data = sheet_data()
        dom = DomainSpec(
            PlaneChart([[0.15 + 0.1j]], [0.6 - 0.2j]), {"a1.1": 0.2, "b1": 0.3}
        )
        rt = radon_coefficients(data, dom, GridPlan({"a1.1": 3, "b1": 3}))
        center = dom.chart.to_params()
        for s, off in enumerate(rt.offsets):
            a = center[0] + off["a1.1"]
            b = center[1] + off["b1"]
            ystar = b / (1.0 - a)
            assert rt.coeffs[(0,)][s] == pytest.approx(-1.0 / (1.0 - a))
            assert rt.coeffs[(1,)][s] == pytest.approx(-ystar / (1.0 - a))

    def test_first_kind_vanishing(self):
        # the form dx/y on the smooth cubic has identically vanishing
        # transform; the non-first-kind numerator x does not
        data = elliptic_data({(0, 0): 2.0})
        dom = DomainSpec(
            PlaneChart([[0.6 + 0.1j]], [0.45 + 0.3j]), {"a1.1": 0.15, "b1": 0.2}
        )
        rt = radon_coefficients(data, dom, GridPlan({"a1.1": 5, "b1": 5}))
        assert rt.scale() <= 1e-9 * rt.term_scale()

        data2 = elliptic_data({(1, 0): 2.0})
        rt2 = radon_coefficients(data2, dom, GridPlan({"a1.1": 3, "b1": 3}))
        assert rt2.scale() > 1e-3 * rt2.term_scale()

    def test_zero_numerator(self):
        data = make_data({(0, 2): 1.0, (1, 0): -1.0}, psi_terms=None)
        data = ResidueData(data.variety, MultiPoly.zero(V2))
        dom = DomainSpec(PlaneChart([[0.1]], [2.0]), {"a1.1": 0.2, "b1": 0.3})
        rt = radon_coefficients(data, dom, GridPlan({"a1.1": 3, "b1": 3}))
        assert rt.scale() == 0.0

    def test_two_base_variables_closed_form(self):
        # y^2 = x1 + 2 x2 over a two-parameter base: substituting the
        # plane x_i = a_i y + b_i gives the parabola with a -> a1 + 2 a2
        # and b -> b1 + 2 b2; with n = 2 the sign factor is +1, so
        # u_2 = a1 + 2 a2 and u_0 = 0, u_1 = 1
        V = ("x1", "x2", "y")
        f = MultiPoly(V, {(0, 0, 2): 1.0, (1, 0, 0): -1.0, (0, 1, 0): -2.0})
        v = VarietySpec(("x1", "x2"), ("y",), [f])
        data = ResidueData(v, MultiPoly.constant(1.0, V))
        dom = DomainSpec(
            PlaneChart([[0.2], [0.1]], [1.5, 0.8]),
            {"a1.1": 0.1, "a2.1": 0.1, "b1": 0.2},
        )
        rt = radon_coefficients(
            data, dom, GridPlan({"a1.1": 2, "a2.1": 2, "b1": 2})
        )
        assert set(rt.coeffs) == {(0, 0), (0, 1), (1, 0), (1, 1)}
        center = dict(zip(dom.chart.param_names(), dom.chart.to_params()))
        for s, off in enumerate(rt.offsets):
            a_eff = (
                center["a1.1"] + off.get("a1.1", 0.0)
                + 2.0 * (center["a2.1"] + off.get("a2.1", 0.0))
            )
            assert rt.coeffs[(0, 0)][s] == pytest.approx(0.0, abs=1e-12)
            assert rt.coeffs[(0, 1)][s] == pytest.approx(1.0)
            assert rt.coeffs[(1, 1)][s] == pytest.approx(a_eff)


class TestShockRelations:
    def test_parabola(self):
        data = parabola_data()
        dom = DomainSpec(
            PlaneChart([[0.1 + 0.05j]], [2.5 + 0.2j]), {"a1.1": 0.5, "b1": 0.8}
        )
        t = trace_table(data, dom, 4, GridPlan({"a1.1": 3, "b1": 3}))
        rep = verify_shock_relations(t, 1e-7)
        assert rep.passed
        assert rep.max_residual <= 1e-7

    def test_zero_data(self):
        data = ResidueData(parabola_data().variety, MultiPoly.zero(V2))
        dom = DomainSpec(PlaneChart([[0.1]], [2.5]), {"a1.1": 0.4, "b1": 0.6})
        t = trace_table(data, dom, 3, GridPlan({"a1.1": 3, "b1": 3}))
        rep = verify_shock_relations(t, 1e-12)
        assert rep.passed and rep.max_residual == 0.0

    def test_random_cubic_with_quadratic_numerator(self):
        rng = np.random.default_rng(77)
        gamma = 0.4 + 0.3j
        f = {(0, 3): 1.0, (0, 1): gamma, (1, 0): -1.0}
        psi = {
            (i, j): complex(rng.standard_normal(), rng.standard_normal())
            for i in range(2) for j in range(2)
        }
        data = make_data(f, psi)
        dom = DomainSpec(
            PlaneChart([[0.2 + 0.1j]], [1.8 + 0.6j]), {"a1.1": 0.3, "b1": 0.4}
        )
        t = trace_table(data, dom, 3, GridPlan({"a1.1": 3, "b1": 3}))
        rep = verify_shock_relations(t, 1e-6)
        assert rep.passed

    def test_frozen_parameter_rejected(self):
        data = parabola_data()
        dom = DomainSpec(PlaneChart([[0.1]], [2.5]), {"b1": 0.6})
        t = trace_table(data, dom, 2, GridPlan({"b1": 3}))
        with pytest.raises(InsufficientMargin):
            verify_shock_relations(t, 1e-6)

    def test_nothing_to_check_raises(self):
        # an order-0 table has no shifted index: no (index, slot) pair
        dom = DomainSpec(PlaneChart([[0.1]], [2.5]), {"a1.1": 0.4, "b1": 0.6})
        t = trace_table(parabola_data(), dom, 0, GridPlan({"a1.1": 3, "b1": 3}))
        with pytest.raises(InsufficientMargin):
            verify_shock_relations(t, 1e-6)

    def test_no_probe_raises(self):
        dom = DomainSpec(PlaneChart([[0.1]], [2.5]), {"a1.1": 0.4, "b1": 0.6})
        t = trace_table(parabola_data(), dom, 2, GridPlan({"a1.1": 3, "b1": 3}))
        with pytest.raises(ValueError):
            verify_shock_relations(t, 1e-6, probes=0)

    @pytest.mark.parametrize("counts", [
        {"probes": 0}, {"probes": -1}, {"probes": 1.5},
        {"nodes": 0}, {"nodes": 8}, {"nodes": 16.5},
    ])
    def test_bad_counts_raise_before_any_solve(self, counts, monkeypatch):
        dom = DomainSpec(PlaneChart([[0.1]], [2.5]), {"a1.1": 0.4, "b1": 0.6})
        t = trace_table(parabola_data(), dom, 2, GridPlan({"a1.1": 3, "b1": 3}))
        solved = _spy_solves(monkeypatch)
        with pytest.raises(ValueError, match="count must be an integer"):
            verify_shock_relations(t, 1e-6, **counts)
        assert solved == []

    def _cubic_table(self, weight_terms=None):
        data = make_data({(0, 3): 1.0, (0, 1): 0.4 + 0.3j, (1, 0): -1.0},
                         {(0, 0): 0.7, (1, 1): -0.2 + 0.5j}, weight_terms)
        dom = DomainSpec(PlaneChart([[0.2 + 0.1j]], [1.8 + 0.6j]), {"a1.1": 0.3, "b1": 0.4})
        return trace_table(data, dom, 3, GridPlan({"a1.1": 3, "b1": 3}))

    def _count_evaluate_chart(self, monkeypatch):
        calls = []
        real = residues._evaluate_one
        monkeypatch.setattr(residues, "_evaluate_one",
                            lambda *args, **kw: calls.append(1) or real(*args, **kw))
        return calls

    def test_circles_and_probes_build_no_plane_chart(self, monkeypatch):
        # the Cauchy circles and the equivariance probes' images are chart
        # batches; the equivariance list takes its degree from its family
        t = self._cubic_table()
        mu = AffineMap(np.eye(2), np.array([0.0, 0.1 - 0.05j]))
        built, solved = [], []
        real_init, real_solve = PlaneChart.__init__, residues.solve_fiber
        monkeypatch.setattr(PlaneChart, "__init__", lambda self, *args: built.append(1)
                            or real_init(self, *args))
        monkeypatch.setattr(residues, "solve_fiber", lambda *args, **kw: solved.append(1)
                            or real_solve(*args, **kw))
        assert verify_shock_relations(t, 1e-6).passed
        assert reparametrize_check(t.data, t.domain, mu, tol=1e-9).passed
        assert built == [] and solved == []

    def test_circles_are_solved_as_one_family(self, monkeypatch):
        t = self._cubic_table()
        calls = self._count_evaluate_chart(monkeypatch)
        assert verify_shock_relations(t, 1e-6).passed
        assert calls == []

    def test_one_value_call_for_all_circles(self, monkeypatch):
        # every circle chart is read once, for every index, in one
        # TraceTable.value call solved as one family
        t = self._cubic_table()
        reads, families = [], []
        real_value, real_family = TraceTable.value, residues.solve_family
        monkeypatch.setattr(TraceTable, "value", lambda self, index, chart:
                            reads.append((index, len(chart))) or real_value(self, index, chart))
        monkeypatch.setattr(residues, "solve_family", lambda v, charts, *args:
                            families.append(len(charts)) or real_family(v, charts, *args))
        assert verify_shock_relations(t, 1e-6).passed
        assert reads == [(t.indices(), 3 * 2 * 32)]
        assert families == [3 * 2 * 32]

    def test_report_matches_per_chart_evaluation(self, monkeypatch):
        # the family read against a run that solves every circle chart on
        # its own (a family that declines every chart)
        t = self._cubic_table()
        got = verify_shock_relations(t, 1e-6)
        monkeypatch.setattr(residues, "solve_family", lambda *args: None)
        calls = self._count_evaluate_chart(monkeypatch)
        want = verify_shock_relations(t, 1e-6)
        assert len(calls) == 3 * 2 * 32
        assert got.checked == want.checked == 9
        for g, w in zip(got.details, want.details):
            assert g[:3] == w[:3] and abs(g[3] - w[3]) <= 1e-12
        assert abs(got.max_residual - want.max_residual) <= 1e-12

    def test_circle_through_weight_pole_raises(self, monkeypatch):
        # a weight y - y0 whose divisor meets the chart at the sixth node
        # of the first probe's b-circle
        t = self._cubic_table()
        chart = t.domain.chart_at(_probe_offsets(t.domain, 3)[0])
        b = cauchy_nodes(complex(chart.b[0]), SHOCK_MARGIN * 0.4, 32)[1][5]
        # fiber of y^3 + g y - x = 0 on x = a y + b: y^3 + (g - a) y - b
        y0 = np.roots([1.0, 0.0, 0.4 + 0.3j - chart.a[0, 0], -b])[0]
        t = self._cubic_table({(0, 1): 1.0, (0, 0): -y0})
        calls = self._count_evaluate_chart(monkeypatch)
        with pytest.raises(EvaluationError):
            verify_shock_relations(t, 1e-6)
        assert calls == []

    def test_elliptic_nonvanishing_coefficients_still_closed(self):
        # numerator x on the cubic: the transform does not vanish, but
        # the data is still closed, so the relations must hold
        data = elliptic_data({(1, 0): 2.0})
        dom = DomainSpec(
            PlaneChart([[0.6 + 0.1j]], [0.45 + 0.3j]),
            {"a1.1": 0.12, "b1": 0.15},
        )
        t = trace_table(data, dom, 2, GridPlan({"a1.1": 2, "b1": 2}))
        rep = verify_shock_relations(t, 1e-6, probes=2)
        assert rep.passed
        assert t.scale() > 0.1  # genuinely nonzero trace data


class TestHolomorphy:
    def test_vanishing_transform_is_holomorphic(self):
        data = elliptic_data({(0, 0): 2.0})
        dom = DomainSpec(
            PlaneChart([[0.6 + 0.1j]], [0.45 + 0.3j]), {"a1.1": 0.15, "b1": 0.2}
        )
        rt = radon_coefficients(data, dom, GridPlan({"a1.1": 5, "b1": 5}))
        rep = verify_holomorphy(rt, 1e-9)
        assert set(rep.status.values()) == {"holomorphic"}

    @staticmethod
    def _pole_grid_transform():
        # weight (x - 2) puts poles of the trace exactly on charts through
        # (2, 3) and (2, -3) on the cubic; the grid is designed so the
        # line b = 2 - 3a crosses its nodes exactly on the diagonal
        data = elliptic_data({(0, 0): 2.0}, weight_terms={(1, 0): 1.0, (0, 0): -2.0})
        avals = np.array([0.08, 0.16, 0.24, 0.32, 0.40])
        bvals = 2.0 - 3.0 * avals
        ca, cb = avals.mean(), bvals.mean()
        offs = tuple(
            {"a1.1": a - ca, "b1": b - cb} for a in avals for b in bvals
        )
        dom = DomainSpec(PlaneChart([[ca]], [cb]), {"a1.1": 0.2, "b1": 0.6})
        return radon_coefficients(data, dom, ListPlan(offs))

    def test_designed_pole_grid(self):
        rt = self._pole_grid_transform()
        rep = verify_holomorphy(rt, 1e-6)
        diagonal = {i * 5 + i for i in range(5)}
        for label in rt.coeffs:
            assert rep.status[label] == "meromorphic"
            assert set(rep.pole_samples[label]) == diagonal

    def test_zero_data_holomorphic(self):
        data = ResidueData(parabola_data().variety, MultiPoly.zero(V2))
        dom = DomainSpec(PlaneChart([[0.1]], [2.0]), {"a1.1": 0.2, "b1": 0.3})
        rt = radon_coefficients(data, dom, GridPlan({"a1.1": 4, "b1": 4}))
        rep = verify_holomorphy(rt, 1e-9)
        assert set(rep.status.values()) == {"holomorphic"}


    def _assert_matches_reference(self, rt, tol):
        got = verify_holomorphy(rt, tol)
        want = _reference_holomorphy(rt, tol)
        assert list(got.status) == list(want)
        for label, (status, resid, deg, inv_resid, inv_deg, scale) in want.items():
            diag = got.diagnostics[label]
            assert got.status[label] == status
            assert (diag["fit_degree"], diag["reciprocal_degree"]) == (deg, inv_deg)
            assert abs(diag["fit_residual"] - resid) <= 1e-10 * max(resid, scale)
            assert (diag["reciprocal_residual"] == inv_resid
                    or abs(diag["reciprocal_residual"] - inv_resid) <= 1e-10 * max(inv_resid, 1.0))
        return got

    def test_batched_sweep_matches_reference_on_pole_grid(self):
        self._assert_matches_reference(self._pole_grid_transform(), 1e-6)

    def test_batched_sweep_matches_reference_on_distinct_reciprocal_rows(self):
        # weight x + 3 on the parabola: on a vertical chart (a = 0) the
        # numerator and weight are constant on the fiber, so u_0 is a
        # multiple of sum 1/g'(y) = 0 there and u_1 is not; the two
        # labels' reciprocals are fitted on different rows
        data = make_data({(0, 2): 1.0, (1, 0): -1.0}, weight_terms={(1, 0): 1.0, (0, 0): 3.0})
        dom = DomainSpec(PlaneChart([[0.0]], [2.5]), {"a1.1": 0.3, "b1": 0.5})
        rt = radon_coefficients(data, dom, GridPlan({"a1.1": 5, "b1": 5}))
        tiny = [np.abs(rt.coeffs[lb]) <= 1e-9 * rt.term_scale() for lb in ((0,), (1,))]
        assert tiny[0].sum() == 5 and not tiny[1].any()
        self._assert_matches_reference(rt, 1e-9)

    def test_batched_sweep_matches_reference_with_shared_count_vectors(self):
        # n = 2: labels (0, 1) and (1, 0) share the count vector (1,)
        V = ("x1", "x2", "y")
        f = MultiPoly(V, {(0, 0, 2): 1.0, (1, 0, 0): -1.0, (0, 1, 0): -2.0})
        w = MultiPoly(V, {(1, 0, 0): 1.0, (0, 1, 0): 2.0, (0, 0, 0): 3.0})
        data = ResidueData(VarietySpec(("x1", "x2"), ("y",), [f]), MultiPoly.constant(1.0, V), weight=w)
        dom = DomainSpec(PlaneChart([[0.2], [0.1]], [1.5, 0.8]),
                         {"a1.1": 0.1, "a2.1": 0.1, "b1": 0.2})
        rt = radon_coefficients(data, dom, GridPlan({"a1.1": 3, "a2.1": 3, "b1": 3}))
        assert rt.coeffs[(0, 1)] is rt.coeffs[(1, 0)]
        got = self._assert_matches_reference(rt, 1e-9)
        assert got.diagnostics[(0, 1)] == got.diagnostics[(1, 0)]


class TestEquivariance:
    def _domain(self):
        return DomainSpec(
            PlaneChart([[0.1 + 0.02j]], [2.2 + 0.3j]), {"a1.1": 0.3, "b1": 0.5}
        )

    def test_identity(self):
        rep = reparametrize_check(
            parabola_data(), self._domain(), AffineMap(np.eye(2), np.zeros(2)), tol=1e-12
        )
        assert rep.passed

    def test_translation_in_b(self):
        mu = AffineMap(np.eye(2), np.array([0.0, 0.7 - 0.2j]))
        rep = reparametrize_check(parabola_data(), self._domain(), mu, tol=1e-9)
        assert rep.passed

    def test_scaling_a(self):
        mu = AffineMap(np.diag([2.0, 1.0]), np.zeros(2))
        rep = reparametrize_check(parabola_data(), self._domain(), mu, tol=1e-9)
        assert rep.passed

    def test_random_affine_maps(self):
        rng = np.random.default_rng(31)
        data = parabola_data()
        dom = self._domain()
        for _ in range(10):
            m = np.eye(2) + 0.3 * (
                rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            )
            v = 0.1 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
            rep = reparametrize_check(data, dom, AffineMap(m, v), tol=1e-8)
            assert rep.passed

    def test_affine_map_onto_discriminant(self):
        # every probe image chart is x = 2 (a = 0, b = 2), where
        # y^3 - 3y - x has the double root y = -1: the direct side then
        # sums the cluster's folded perturbation terms
        data = make_data({(0, 3): 1.0, (0, 1): -3.0, (1, 0): -1.0},
                         {(0, 0): 1.0, (0, 1): 0.5, (1, 1): 0.25j})
        t0 = np.array([0.1 + 0.05j, 0.7])
        m = np.array([[1.3, 0.4 - 0.2j], [0.3j, 0.9]])
        mu = AffineMap(m, np.array([0.0, 2.0]) - m @ t0)
        dom = DomainSpec(
            PlaneChart([[t0[0]]], [t0[1]]), {"a1.1": 1e-12, "b1": 1e-12}
        )
        assert evaluate_chart(data, PlaneChart([[0.0]], [2.0])).flags == ("cluster",)
        rep = reparametrize_check(data, dom, mu, tol=1e-9)
        assert rep.passed

    def test_probe_losing_a_point_raises(self):
        # (1 + x) y^2 - y - x has two points on the vertical chart x = b
        # but one at b = -1, where the first probe's image lies; the
        # centre's image keeps both, so that probe must not be summed
        f = MultiPoly(V2, {(0, 2): 1.0, (1, 2): 1.0, (0, 1): -1.0, (1, 0): -1.0})
        data = ResidueData(VarietySpec(("x",), ("y",), [f]), MultiPoly.constant(1.0, V2))
        radii = {"b1": 0.4}
        off = _probe_offsets(DomainSpec(PlaneChart([[0.0]], [0.0]), radii), 4)[0, 0]
        dom = DomainSpec(PlaneChart([[0.0]], [-off]), radii)
        mu = AffineMap(np.eye(2), np.array([0.0, -1.0]))
        assert np.array_equal(mu(dom.chart_at({"b1": off}).to_params()), [0.0, -1.0])
        with pytest.raises(DegreeDrop):
            reparametrize_check(data, dom, mu)

    @pytest.mark.parametrize("probes", [0, -1, 2.5])
    def test_bad_probe_count_raises_before_any_solve(self, probes, monkeypatch):
        solved = _spy_solves(monkeypatch)
        with pytest.raises(ValueError, match="probe count must be an integer"):
            reparametrize_check(parabola_data(), self._domain(),
                                AffineMap(np.eye(2), np.zeros(2)), probes=probes)
        assert solved == []

    @pytest.mark.parametrize("scale", [1e-7, 1.0, 1e7])
    def test_invertibility_is_scale_free(self, scale):
        # a scaled identity is invertible at any scale (|det| = scale^2
        # reads 1e-14 at scale 1e-7), and a scaled near-singular matrix,
        # condition number 3.9e15, is refused at any scale (|det| reads
        # about 1e3 at scale 1e9)
        assert np.array_equal(AffineMap(scale * np.eye(2), np.zeros(2)).matrix, scale * np.eye(2))
        with pytest.raises(ValueError, match="not invertible"):
            AffineMap(1e2 * scale * np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]]), np.zeros(2))

    def test_higher_base_dimension_rejected(self):
        f1 = MultiPoly(("x1", "x2", "y"), {(0, 0, 1): 1.0, (1, 0, 0): -1.0})
        v = VarietySpec(("x1", "x2"), ("y",), [f1])
        data = ResidueData(v, MultiPoly.constant(1.0, ("x1", "x2", "y")))
        dom = DomainSpec(
            PlaneChart([[0.0], [0.0]], [1.0, 1.0]), {"b1": 0.2, "b2": 0.2}
        )
        with pytest.raises(UnsupportedDimension):
            reparametrize_check(data, dom, AffineMap(np.eye(4), np.zeros(4)))


class TestPropagation:
    def _domains(self, b_small=1.0, b_big=2.0):
        center = PlaneChart([[0.15 + 0.05j]], [3.0 + 0.2j])
        small = DomainSpec(center, {"a1.1": 0.4, "b1": b_small})
        big = DomainSpec(center, {"a1.1": 0.4, "b1": b_big})
        return small, big

    def test_parabola_matches_direct(self):
        data = parabola_data()
        small, big = self._domains()
        t = trace_table(data, small, 4, TorusPlan(8))
        ext = propagate_trace_extension(
            t, lambda ch: trace(data, ch, 0), big, order=4, fft_nodes=16
        )
        rng = np.random.default_rng(3)
        for _ in range(10):
            off = {
                "a1.1": 0.3 * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)) / 1.5,
                "b1": 1.9 * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)) / 1.5,
            }
            ch = big.chart_at(off)
            for k in range(5):
                assert abs(ext.model_value((k,), ch) - trace(data, ch, k)) < 1e-6

    def test_u0_ext_called_once_and_base_slices_use_the_family(self, monkeypatch):
        # u0_ext once, on the whole torus grid followed by the four probes;
        # the base slices are solved as one family, with no per-chart call
        data = parabola_data()
        small, big = self._domains()
        t = trace_table(data, small, 3, TorusPlan(6))
        calls, lists = [], []
        real = residues._evaluate_one
        monkeypatch.setattr(residues, "_evaluate_one",
                            lambda *args, **kw: calls.append(1) or real(*args, **kw))
        ext = propagate_trace_extension(
            t, lambda charts: lists.append(len(charts)) or trace(data, charts, 0),
            big, order=3, fft_nodes=16,
        )
        assert lists == [16 * 16 + 4]
        assert calls == []
        ch = big.chart_at({"a1.1": 0.1j, "b1": -1.2})
        assert abs(ext.model_value((3,), ch) - trace(data, ch, 3)) < 1e-6

    def test_merged_read_matches_separate_reads(self):
        # the grid's and the probes' values from the one merged read are
        # bitwise those of a grid-only and a probes-only call
        data = parabola_data()
        small, big = self._domains()
        t = trace_table(data, small, 2, TorusPlan(6))
        reads = []
        propagate_trace_extension(
            t, lambda charts: reads.append((charts, trace(data, charts, 0))) or reads[-1][1],
            big, order=2, fft_nodes=16,
        )
        [(charts, got)] = reads
        for part in (slice(None, 16 * 16), slice(16 * 16, None)):
            alone = trace(data, Charts(charts.a[part], charts.b[part]), 0)
            assert np.array_equal(got[part], alone)

    def test_no_per_chart_object_on_a_certified_family(self, monkeypatch):
        # the torus grid, the probes and the base slices are chart batches
        # (u0_ext receives one) solved by the family: no PlaneChart is
        # built, and the list degree costs no per-chart solve
        data = parabola_data()
        small, big = self._domains()
        t = trace_table(data, small, 3, TorusPlan(6))
        built, solved, batches = [], [], []
        real_init, real_solve = PlaneChart.__init__, residues.solve_fiber
        monkeypatch.setattr(PlaneChart, "__init__", lambda self, *args: built.append(1)
                            or real_init(self, *args))
        monkeypatch.setattr(residues, "solve_fiber", lambda *args, **kw: solved.append(1)
                            or real_solve(*args, **kw))
        propagate_trace_extension(
            t, lambda charts: batches.append(type(charts)) or trace(data, charts, 0),
            big, order=3, fft_nodes=16,
        )
        assert built == [] and solved == []
        assert batches == [Charts]

    def test_restriction_reproduces_input(self):
        data = parabola_data()
        small, big = self._domains()
        t = trace_table(data, small, 3, TorusPlan(6))
        ext = propagate_trace_extension(
            t, lambda ch: trace(data, ch, 0), big, order=3, fft_nodes=16
        )
        charts = [small.chart_at(off) for off in t.offsets]
        direct = t.value([(k,) for k in range(4)], charts)
        for ch, row in zip(charts, direct):
            for k in range(4):
                assert abs(ext.model_value((k,), ch) - row[k]) < 1e-10

    def test_base_slices_of_every_level_are_one_read(self, monkeypatch):
        # one TraceTable.value call on the shared base charts for every
        # level, each level's grid a column of that read
        data = parabola_data()
        small, big = self._domains()
        t = trace_table(data, small, 3, TorusPlan(6))
        reads = []
        real = TraceTable.value
        monkeypatch.setattr(TraceTable, "value", lambda self, index, chart:
                            reads.append((index, len(chart))) or real(self, index, chart))
        ext = propagate_trace_extension(
            t, lambda ch: trace(data, ch, 0), big, order=3, fft_nodes=16
        )
        assert reads == [([(1,), (2,), (3,)], 16)]
        assert sorted(ext.models) == [(0,), (1,), (2,), (3,)]

    def test_order_zero_extension(self, monkeypatch):
        # no level: the order-0 model alone, and no base-slice read
        data = parabola_data()
        small, big = self._domains()
        t = trace_table(data, small, 2, TorusPlan(6))
        reads = []
        monkeypatch.setattr(TraceTable, "value", lambda *args: reads.append(1))
        ext = propagate_trace_extension(
            t, lambda ch: trace(data, ch, 0), big, order=0, fft_nodes=16
        )
        assert reads == []
        assert sorted(ext.entries) == sorted(ext.models) == [(0,)]
        assert ext.max_order == t.max_order
        ch = big.chart_at({"a1.1": 0.1j, "b1": -1.2})
        assert abs(ext.model_value(0, ch) - trace(data, ch, 0)) < 1e-6

    def test_zero_data_extends_to_zero(self):
        data = ResidueData(parabola_data().variety, MultiPoly.zero(V2))
        small, big = self._domains()
        t = trace_table(data, small, 2, TorusPlan(6))
        ext = propagate_trace_extension(
            t, lambda ch: trace(data, ch, 0), big, order=2, fft_nodes=16
        )
        for k in range(3):
            assert np.max(np.abs(ext.entries[(k,)])) < 1e-14

    def test_single_sheet_closed_form(self):
        data = sheet_data()
        center = PlaneChart([[0.1 + 0.02j]], [0.5 + 0.1j])
        small = DomainSpec(center, {"a1.1": 0.25, "b1": 0.4})
        big = DomainSpec(center, {"a1.1": 0.25, "b1": 0.8})
        t = trace_table(data, small, 3, TorusPlan(8))
        ext = propagate_trace_extension(
            t, lambda ch: trace(data, ch, 0), big, order=3, fft_nodes=32
        )
        rng = np.random.default_rng(8)
        for _ in range(8):
            off = {
                "a1.1": 0.2 * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)) / 1.5,
                "b1": 0.7 * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)) / 1.5,
            }
            ch = big.chart_at(off)
            a = ch.a[0, 0]
            b = ch.b[0]
            for k in range(4):
                expect = -((b / (1.0 - a)) ** k) / (1.0 - a)
                assert abs(ext.model_value((k,), ch) - expect) < 1e-8

    def test_path_crosses_pole(self):
        # weight (x - 2): pole line b = 2 - 3a stays outside the small
        # b-disc but lands inside the enlarged one
        data = elliptic_data(
            {(0, 0): 2.0}, weight_terms={(1, 0): 1.0, (0, 0): -2.0}
        )
        center = PlaneChart([[0.1]], [0.3])
        small = DomainSpec(center, {"a1.1": 0.05, "b1": 0.4})
        big = DomainSpec(center, {"a1.1": 0.05, "b1": 2.5})
        t = trace_table(data, small, 1, TorusPlan(6))
        with pytest.raises(PathCrossesPole):
            propagate_trace_extension(
                t, lambda ch: trace(data, ch, 0), big, order=1, fft_nodes=16
            )

    def test_non_finite_order0_sample_raises(self):
        # numerator 1: u_0 vanishes, so a NaN spread by the grid's DFT
        # would otherwise leave an all-zero model and a table flagged clean
        data = parabola_data()
        small, big = self._domains()
        t = trace_table(data, small, 2, TorusPlan(6))

        def u0_ext(charts):
            out = trace(data, charts, 0)
            out[0] = np.nan
            return out

        with pytest.raises(ValueError, match="non-finite"):
            propagate_trace_extension(t, u0_ext, big, order=2, fft_nodes=8)

    def test_non_finite_validation_probe_raises(self):
        # the grid is finite; a NaN at the third of the four probes (the
        # merged read's second-from-last entry) must not pass unnoticed
        data = parabola_data()
        small, big = self._domains()
        t = trace_table(data, small, 2, TorusPlan(6))

        def u0_ext(charts):
            out = trace(data, charts, 0)
            out[-2] = np.nan
            return out

        with pytest.raises(ValueError, match="non-finite.*probe 2"):
            propagate_trace_extension(t, u0_ext, big, order=2, fft_nodes=8)

    @pytest.mark.parametrize("error", [PoleDetected("no order-0 value", None),
                                       DegreeDrop("no order-0 value", None, None)],
                             ids=["PoleDetected", "DegreeDrop"])
    def test_evaluator_failure_crosses_pole(self, error):
        data = parabola_data()
        small, big = self._domains()
        t = trace_table(data, small, 2, TorusPlan(6))

        def u0_ext(charts):
            raise error

        with pytest.raises(PathCrossesPole, match="blows up"):
            propagate_trace_extension(t, u0_ext, big, order=2, fft_nodes=8)

    def test_contaminated_base_slice_crosses_pole(self):
        # numerator and weight both y - 1, so every trace is the weightless
        # one, but a point with y = 1 sits on the weight's pole divisor:
        # on x = a y + b with y^2 = x that is the line a + b = 1. The base
        # slices' first chart is (a, b) = (0.25 + 0.25, 0.5) exactly, while
        # the input plan's and the grid's charts miss the line
        data = make_data({(0, 2): 1.0, (1, 0): -1.0}, {(0, 1): 1.0, (0, 0): -1.0},
                         {(0, 1): 1.0, (0, 0): -1.0})
        center = PlaneChart([[0.25]], [0.5])
        small = DomainSpec(center, {"a1.1": 0.25, "b1": 0.3})
        big = DomainSpec(center, {"a1.1": 0.25, "b1": 0.6})
        t = trace_table(data, small, 2, TorusPlan(6))
        assert set(t.flags) == {"clean"}
        with pytest.raises(PathCrossesPole, match="base slices"):
            propagate_trace_extension(t, lambda ch: trace(data, ch, 0), big, order=2, fft_nodes=8)

    @pytest.mark.parametrize("small_radii, big_b, big_radii, message", [
        ({"b1": 1.0}, 3.0, {"a1.1": 0.4, "b1": 2.0}, "same parameters"),
        ({"a1.1": 0.4, "b1": 1.0}, 3.1, {"a1.1": 0.4, "b1": 2.0}, "share their center"),
        ({"a1.1": 0.4, "b1": 1.0}, 3.0, {"a1.1": 0.5, "b1": 2.0}, "only the b_1 radius"),
        ({"a1.1": 0.4, "b1": 1.0}, 3.0, {"a1.1": 0.4, "b1": 0.5}, "contain the original"),
    ])
    def test_domain_refusals(self, small_radii, big_b, big_radii, message):
        small = DomainSpec(PlaneChart([[0.15]], [3.0]), small_radii)
        big = DomainSpec(PlaneChart([[0.15]], [big_b]), big_radii)
        t = trace_table(parabola_data(), small, 2, TorusPlan(6))
        calls = []
        with pytest.raises(ValueError, match=message):
            propagate_trace_extension(t, lambda ch: calls.append(1), big, order=2, fft_nodes=8)
        assert calls == []

    def test_higher_base_dimension_rejected(self):
        V = ("x1", "x2", "y")
        f = MultiPoly(V, {(0, 0, 2): 1.0, (1, 0, 0): -1.0, (0, 1, 0): 0.5})
        data = ResidueData(VarietySpec(("x1", "x2"), ("y",), [f]), MultiPoly.constant(1.0, V))
        dom = DomainSpec(PlaneChart([[0.1], [0.2]], [3.0, 1.0]), {"a1.1": 0.2, "b1": 0.5})
        t = trace_table(data, dom, 2, TorusPlan(4))
        with pytest.raises(UnsupportedDimension):
            propagate_trace_extension(t, lambda ch: trace(data, ch, 0), dom, order=1)

    def test_frozen_parameter_rejected(self):
        data = parabola_data()
        center = PlaneChart([[0.1]], [3.0])
        small = DomainSpec(center, {"b1": 0.5})
        big = DomainSpec(center, {"b1": 1.0})
        t = trace_table(data, small, 2, TorusPlan(6))
        with pytest.raises(InsufficientMargin):
            propagate_trace_extension(
                t, lambda ch: trace(data, ch, 0), big, order=1
            )
