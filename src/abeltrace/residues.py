"""Punctual residues at fiber points and the trace functional.

The trace of residue data against a fiber monomial y^I over a chart is the
sum over the fiber of

    numerator(P) * y^I(P) / (weight(P) * J(P)),

where J is the full Jacobian determinant of (defs, plane equations) in the
repo variable order. Clusters (multiple points near the discriminant) are
never split: their total contribution is recovered by perturbing the chart
and extrapolating the cluster sum back to the degenerate parameter, which
is stable even when the individual points are not. The extrapolation is
linear in the perturbed points' residues, so a cluster enters a chart's
trace as its perturbed points with the extrapolation weights folded in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    AbelTraceError,
    ClusterPoint,
    DegreeDrop,
    PerturbationFailure,
    PoleDetected,
    TooFewCleanSamples,
)
from .geometry import (
    DomainSpec,
    FiberPoint,
    PlaneChart,
    ResidueData,
    hypersurface_section,
    solve_fiber,
)
from .numeric import TOL_ARITH, torus_nodes

POLE_REL_TOL = 1e-8
# cluster perturbation ladder: first b_1 step (relative to |b_1| + 1),
# halved at each of the levels
CLUSTER_DELTA = 1e-2
CLUSTER_LEVELS = 5
# trace_table refuses a plan with fewer usable samples than this share
MIN_CLEAN_FRACTION = 0.5

CLEAN, CLUSTER, POLE, DROPPED = "clean", "cluster", "pole", "degree-drop"


def moment_sign(n, p):
    """Relative sign between the repo Jacobian convention and the
    substituted-system fiber residue: (-1)^(n p)."""
    return -1.0 if (n * p) % 2 else 1.0


def _monomial_value(coords, n, index):
    val = 1.0 + 0j
    for j, e in enumerate(index):
        if e:
            val *= coords[n + j] ** e
    return val


def _weight_scale(weight, coords):
    """Evaluation-magnitude of the weight polynomial at a point."""
    if weight is None:
        return 1.0
    total = 0.0
    for exps, c in weight.terms.items():
        term = abs(c)
        for z, e in zip(coords, exps):
            if e:
                term *= abs(z) ** e
        total += term
    return max(total, 1.0)


def _extrapolation_weights(xs):
    """Lagrange basis at 0 over the nodes ``xs``: the weights c_l with
    sum_l c_l * ys[l] equal to the interpolant of (xs, ys) at 0."""
    out = []
    for l, xl in enumerate(xs):
        c = 1.0 + 0j
        for k, xk in enumerate(xs):
            if k != l:
                c *= xk / (xk - xl)
        out.append(c)
    return out


class ChartEvaluation:
    """All index-independent work for the trace at one chart: a flat list
    of (coords, weight) terms. Simple points carry their residue weight;
    a cluster contributes its perturbed points with the extrapolation
    weights folded in. Evaluating an index is then one weighted monomial
    sum."""

    __slots__ = ("data", "chart", "terms", "clustered", "n")

    def __init__(self, data, chart, terms, clustered):
        self.data = data
        self.chart = chart
        self.terms = terms          # list of (coords, weight)
        self.clustered = clustered
        self.n = data.variety.n

    def value(self, index):
        total = 0j
        scale = 0.0
        for coords, w in self.terms:
            term = w * _monomial_value(coords, self.n, index)
            total += term
            scale = max(scale, abs(term))
        return total, scale


def _point_weight(data, pt, chart_params=None):
    num = data.numerator_at(pt.coords)
    wval = data.weight_at(pt.coords)
    wscale = _weight_scale(data.weight, pt.coords)
    if data.weight is not None and abs(wval) <= POLE_REL_TOL * wscale:
        raise PoleDetected(
            "fiber point lies on the pole divisor of the data weight",
            chart_params=chart_params,
        )
    return num / (wval * pt.jacobian)


def _cluster_terms(data, chart, cluster_pts, tol, expected=None):
    """Perturb the chart in b_1, match the cluster's simple points at a
    geometric ladder of perturbation sizes, and return them as
    (coords, c_l * weight) terms, c_l being the extrapolation weight of
    level l. Extrapolating the level sums to zero perturbation is linear
    in those sums, so the terms add up to the cluster's total residue."""
    m = sum(pt.cluster_size for pt in cluster_pts)
    n = data.variety.n
    ys = np.array(
        [pt.coords[n:] for pt in cluster_pts for _ in range(pt.cluster_size)],
        dtype=complex,
    )
    center = ys.mean(axis=0)

    base = abs(chart.b[0]) + 1.0
    for attempt in range(5):
        direction = np.exp(1j * (0.37 + 2.0 * np.pi * attempt / 5.0))
        deltas, levels = [], []
        ok = True
        for lev in range(CLUSTER_LEVELS):
            d = CLUSTER_DELTA * base / 2.0**lev
            pchart = chart.replace(b1=chart.b[0] + d * direction)
            try:
                fiber = solve_fiber(data.variety, pchart, tol, expected_degree=expected)
            except (AbelTraceError, ValueError):
                ok = False
                break
            cands = sorted(
                fiber.points,
                key=lambda pt: float(
                    np.max(np.abs(np.asarray(pt.coords[n:]) - center))
                ),
            )
            matched = []
            for pt in cands:
                if sum(q.cluster_size for q in matched) >= m:
                    break
                matched.append(pt)
            if (
                sum(q.cluster_size for q in matched) != m
                or any(q.cluster_size > 1 for q in matched)
            ):
                ok = False
                break
            deltas.append(d * direction)
            levels.append(
                [(pt.coords, _point_weight(data, pt, pchart.to_params()))
                 for pt in matched]
            )
        if ok:
            return [
                (coords, c * w)
                for c, level in zip(_extrapolation_weights(deltas), levels)
                for coords, w in level
            ]
    raise PerturbationFailure(
        f"cluster of multiplicity {m} stayed degenerate under perturbation"
    )


def evaluate_chart(data: ResidueData, chart: PlaneChart, tol=TOL_ARITH,
                   expected_degree=None):
    """Build the ChartEvaluation for one chart (shared by all indices)."""
    fiber = solve_fiber(data.variety, chart, tol, expected_degree=expected_degree)
    terms, clusters = [], []
    for pt in fiber.points:
        if pt.cluster_size == 1:
            terms.append((pt.coords, _point_weight(data, pt, chart.to_params())))
        else:
            clusters.append(pt)
    for pt in clusters:
        terms += _cluster_terms(data, chart, [pt], tol, expected=expected_degree)
    return ChartEvaluation(data, chart, terms, bool(clusters))


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def punctual_residue(data: ResidueData, chart: PlaneChart, point: FiberPoint,
                     index):
    """Residue of the data against y^index at one transverse fiber point:
    numerator * y^index / (weight * Jacobian). Raises ClusterPoint at a
    multiple point (use clustered_residue there)."""
    if point.cluster_size != 1:
        raise ClusterPoint(
            f"point has multiplicity {point.cluster_size}; sum over the cluster instead"
        )
    index = _normalize_index(index, data.variety.p)
    w = _point_weight(data, point, chart.to_params())
    return w * _monomial_value(point.coords, data.variety.n, index)


def clustered_residue(data: ResidueData, chart: PlaneChart, cluster, index,
                      tol=TOL_ARITH):
    """Total residue of a cluster at a (near-)degenerate chart.

    The chart is perturbed in b_1 along a fixed complex direction, the
    cluster's points are matched at a geometric ladder of perturbation
    sizes, and the cluster sum is extrapolated back to zero perturbation
    (the total residue is analytic in the chart even when points collide).

    ``cluster`` is one or more FiberPoints: either a merged multiple point
    from solve_fiber or nearby simple points from a perturbed chart.
    """
    index = _normalize_index(index, data.variety.p)
    total = 0j
    for coords, w in _cluster_terms(data, chart, list(cluster), tol):
        total += w * _monomial_value(coords, data.variety.n, index)
    return total


def trace(data: ResidueData, chart: PlaneChart, index, tol=TOL_ARITH,
          expected_degree=None):
    """Trace of the data against y^index over one chart: the sum of
    punctual (or cluster-summed) residues over the fiber."""
    index = _normalize_index(index, data.variety.p)
    ev = evaluate_chart(data, chart, tol, expected_degree=expected_degree)
    return ev.value(index)[0]


def hypersurface_trace(data: ResidueData, hyper, index_exps, tol=TOL_ARITH):
    """Trace over one polynomial hypersurface section of a plane curve
    (nonlinear chart analogue; the cross-check side of the Veronese
    reduction). ``index_exps`` is an exponent vector over the variety's
    full variable tuple."""
    pts = hypersurface_section(data.variety, hyper, tol)
    total = 0j
    for pt in pts:
        if pt.cluster_size != 1:
            raise ClusterPoint("hypersurface section is degenerate")
        total += _point_weight(data, pt) * _monomial_value(pt.coords, 0, index_exps)
    return total


# ---------------------------------------------------------------------------
# sampling plans
# ---------------------------------------------------------------------------

def _normalize_index(index, p):
    if isinstance(index, int):
        index = (index,) + (0,) * (p - 1)
    index = tuple(int(e) for e in index)
    if len(index) != p or any(e < 0 for e in index):
        raise ValueError(f"bad monomial index {index} for p={p}")
    return index


@dataclass(frozen=True)
class GridPlan:
    """Real equispaced tensor grid over the varying parameters:
    offsets radius * linspace(-1, 1, count) per parameter."""

    counts: dict

    def offsets(self, domain: DomainSpec):
        names = [k for k in domain.varying if k in self.counts]
        if not names:
            raise ValueError("grid plan covers no varying parameter")
        axes = []
        for k in names:
            c = self.counts[k]
            ticks = np.linspace(-1.0, 1.0, c) if c > 1 else np.array([0.0])
            axes.append(domain.radii[k] * ticks)
        out = []
        for combo in np.ndindex(*[len(a) for a in axes]):
            out.append({k: complex(axes[i][combo[i]]) for i, k in enumerate(names)})
        return out


@dataclass(frozen=True)
class TorusPlan:
    """Samples on the distinguished boundary (product of circles), the
    natural plan for Taylor-model fitting; offsets follow the
    ``torus_nodes`` grid order."""

    nodes: int = 16

    def offsets(self, domain: DomainSpec):
        names = list(domain.varying)
        pts = torus_nodes(
            [0j] * len(names), [domain.radii[k] for k in names], self.nodes
        ).reshape(self.nodes ** len(names), len(names))
        return [{k: complex(pt[i]) for i, k in enumerate(names)} for pt in pts]


@dataclass(frozen=True)
class ListPlan:
    """Explicit list of parameter offsets (dicts keyed by parameter)."""

    points: tuple

    def offsets(self, domain: DomainSpec):
        return [dict(pt) for pt in self.points]


# ---------------------------------------------------------------------------
# trace tables
# ---------------------------------------------------------------------------

class TraceTable:
    """Trace values u_I sampled over a domain, all indices sharing one set
    of sample charts. Entries are dense arrays aligned with the charts;
    contaminated samples (poles, degree drops) hold NaN and are flagged.

    The table keeps its source data, so values at off-plan charts can be
    computed on demand (with caching); fitted polydisc models may be
    attached by propagation or fitting code, in which case
    ``model_value`` evaluates those instead.
    """

    def __init__(self, data, domain, offsets, entries, term_scales, flags,
                 max_order, baseline_degree, models=None, tol=TOL_ARITH):
        self.data = data
        self.domain = domain
        self.offsets = tuple(offsets)
        self.entries = entries
        self.term_scales = np.asarray(term_scales, dtype=float)
        self.flags = tuple(flags)
        self.max_order = int(max_order)
        self.baseline_degree = int(baseline_degree)
        self.models = models or {}
        self.tol = tol
        self._cache = {}

    @property
    def n(self):
        return self.data.variety.n

    @property
    def p(self):
        return self.data.variety.p

    def indices(self):
        return sorted(self.entries)

    @property
    def charts(self):
        return [self.domain.chart_at(off) for off in self.offsets]

    def clean_mask(self):
        return np.array([f in (CLEAN, CLUSTER) for f in self.flags])

    def scale(self):
        best = 0.0
        mask = self.clean_mask()
        for vals in self.entries.values():
            v = np.abs(np.asarray(vals)[mask])
            if v.size:
                best = max(best, float(np.nanmax(v)))
        return best

    def term_scale(self):
        mask = self.clean_mask()
        vals = self.term_scales[mask]
        return float(np.max(vals)) if vals.size else 0.0

    def value(self, index, chart):
        """Direct trace at an arbitrary chart (cached per chart)."""
        index = _normalize_index(index, self.p)
        key = chart.to_params().tobytes()
        ev = self._cache.get(key)
        if ev is None:
            ev = evaluate_chart(
                self.data, chart, self.tol, expected_degree=self.baseline_degree
            )
            self._cache[key] = ev
        return ev.value(index)[0]

    def model_value(self, index, chart):
        index = _normalize_index(index, self.p)
        model = self.models[index]
        cur = dict(zip(chart.param_names(), chart.to_params()))
        return model([cur[k] for k in self.domain.varying])

    def column(self, index):
        return np.asarray(self.entries[_normalize_index(index, self.p)])


def _box_indices(p, max_order):
    if p <= 2:
        return [idx for idx in np.ndindex(*([max_order + 1] * p))]
    return [
        idx for idx in np.ndindex(*([max_order + 1] * p)) if sum(idx) <= max_order
    ]


def _sample_charts(data, domain, plan, indices, baseline, tol,
                   cls=TraceTable):
    """Evaluate every plan chart once and read off the listed indices.

    Each chart is solved against the ``baseline`` fiber degree; samples
    that drop degree or meet the weight's pole divisor are flagged and
    hold NaN. The per-sample term scale is the largest residue term any
    listed index summed there. Returns a ``cls`` table whose max_order
    is the largest per-slot entry of ``indices``.
    """
    offsets = plan.offsets(domain)
    m = len(offsets)
    entries = {idx: np.full(m, np.nan, dtype=complex) for idx in indices}
    term_scales = np.zeros(m)
    flags = []
    for s, off in enumerate(offsets):
        try:
            ev = evaluate_chart(
                data, domain.chart_at(off), tol, expected_degree=baseline
            )
        except PoleDetected:
            flags.append(POLE)
            continue
        except DegreeDrop:
            flags.append(DROPPED)
            continue
        flags.append(CLUSTER if ev.clustered else CLEAN)
        for idx in indices:
            val, scale = ev.value(idx)
            entries[idx][s] = val
            term_scales[s] = max(term_scales[s], scale)
    max_order = max(max(idx) for idx in indices)
    return cls(
        data, domain, offsets, entries, term_scales, flags,
        max_order, baseline, tol=tol,
    )


def trace_table(data: ResidueData, domain: DomainSpec, max_order=None,
                plan=None, tol=TOL_ARITH):
    """Sample all traces u_I with per-slot index up to ``max_order`` over
    the plan's charts (total degree up to max_order for p >= 3, where the
    full box would explode).

    ``max_order`` defaults to 2 * fiber degree + 1, exactly what the
    inverse reconstruction consumes. The fiber degree baseline is taken
    at the domain's center chart and enforced across samples
    (domain-local properness); samples that drop degree or meet the
    weight's pole divisor are flagged and hold NaN.

    Raises TooFewCleanSamples when fewer than MIN_CLEAN_FRACTION of the
    samples are usable.
    """
    if plan is None:
        raise ValueError("a sampling plan is required")
    baseline = _baseline_degree(data, domain, tol)
    if max_order is None:
        max_order = 2 * baseline + 1
    t = _sample_charts(
        data, domain, plan, _box_indices(data.variety.p, max_order),
        baseline, tol,
    )
    m = len(t.offsets)
    clean = int(np.sum(t.clean_mask()))
    if clean < max(1, int(np.ceil(MIN_CLEAN_FRACTION * m))):
        raise TooFewCleanSamples(
            f"only {clean} of {m} samples usable (poles/degree drops elsewhere)"
        )
    return t


def _baseline_degree(data, domain, tol):
    """Fiber degree at the domain center (the domain's properness baseline)."""
    fiber = solve_fiber(data.variety, domain.chart, tol, expected_degree=None)
    return fiber.total_multiplicity
