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
    NonConvergence,
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
    solve_family,
    solve_fiber,
)
from .multipoly import _monomials
from .numeric import TOL_ARITH, torus_nodes

POLE_REL_TOL = 1e-8
# cluster perturbation ladder: first b_1 step (relative to |b_1| + 1),
# halved at each of the levels
CLUSTER_DELTA = 1e-2
CLUSTER_LEVELS = 5
# trace_table refuses a plan with fewer usable samples than this share
MIN_CLEAN_FRACTION = 0.5

CLEAN, CLUSTER, POLE, DROPPED, UNCONVERGED = (
    "clean", "cluster", "pole", "degree-drop", "unconverged")


def moment_sign(n, p):
    """Relative sign between the repo Jacobian convention and the
    substituted-system fiber residue: (-1)^(n p)."""
    return -1.0 if (n * p) % 2 else 1.0


def _read(coords, weights, n, indices):
    """The weighted power sums sum_P weight(P) * y(P)^I over the points
    ``coords`` (shape (..., k, n + p), leading axes over charts) with
    ``weights`` (shape (..., k)), y being the coordinates after the first
    n: (values of shape (..., len(indices)), largest |term| of shape
    (...))."""
    exps = np.array(indices, dtype=int).reshape(len(indices), -1)
    terms = weights[..., None] * _monomials(exps, np.moveaxis(coords[..., n:], -1, 0))
    return terms.sum(axis=-2), np.abs(terms).max(axis=(-2, -1), initial=0.0)


def _on_pole(weight, coords, wval):
    """Whether each point of the coordinate arrays ``coords`` lies on the
    pole divisor of the weight, whose value there is ``wval``: |wval| at
    most POLE_REL_TOL of the weight's evaluation magnitude (at least 1)."""
    if weight is None:
        return np.zeros(coords[0].shape, dtype=bool)
    total = 0.0
    for exps, c in weight.terms.items():
        term = abs(c)
        for z, e in zip(coords, exps):
            if e:
                term *= abs(z) ** e
        total += term
    return abs(wval) <= POLE_REL_TOL * np.maximum(total, 1.0)


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
    """All index-independent work for the trace at one chart: the points
    ``coords`` (k, n + p) and their weights (k,). Simple points carry their
    residue weight; a cluster contributes its perturbed points with the
    extrapolation weights folded in. ``value`` reads any list of indices
    off them at once."""

    __slots__ = ("coords", "weights", "clustered", "n")

    def __init__(self, coords, weights, clustered, n):
        self.coords = coords
        self.weights = weights
        self.clustered = clustered
        self.n = n

    def value(self, indices):
        """(traces at ``indices``, largest |residue term| among them)."""
        return _read(self.coords, self.weights, self.n, indices)


def _point_weights(data, points, chart_params=None):
    """Coordinates (k, n + p) and residue weights (k,) of simple fiber
    points, from one _family_weights call; PoleDetected for a point on the
    weight's pole divisor, else ClusterPoint for one with a zero Jacobian
    (taken as 1 until then)."""
    coords = np.array([pt.coords for pt in points], dtype=complex).reshape(
        len(points), len(data.variety.vars))
    clear, weights = _family_weights(data, coords[None], np.array([[p.jacobian or 1.0 for p in points]]))
    if not clear[0]:
        raise PoleDetected("fiber point lies on the pole divisor of the data weight",
                           chart_params=chart_params)
    if not all(pt.jacobian for pt in points):
        raise ClusterPoint("fiber point has a zero Jacobian: the plane is not transverse there",
                           chart_params=chart_params)
    return coords, weights[0]


def _cluster_terms(data, chart, cluster_pts, tol, expected=None):
    """Perturb the chart in b_1, match the cluster's simple points at a
    geometric ladder of perturbation sizes, and return them as the
    arrays (coords, c_l * weight), c_l being the extrapolation weight of
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
            levels.append(_point_weights(data, matched, pchart.to_params()))
        if ok:
            return (np.concatenate([coords for coords, _ in levels]),
                    np.concatenate([c * w for c, (_, w) in zip(_extrapolation_weights(deltas), levels)]))
    raise PerturbationFailure(
        f"cluster of multiplicity {m} stayed degenerate under perturbation"
    )


def evaluate_chart(data: ResidueData, chart: PlaneChart, tol=TOL_ARITH,
                   expected_degree=None):
    """Build the ChartEvaluation for one chart (shared by all indices)."""
    fiber = solve_fiber(data.variety, chart, tol, expected_degree=expected_degree)
    parts = [_point_weights(data, [pt for pt in fiber.points if pt.cluster_size == 1],
                            chart.to_params())]
    parts += [_cluster_terms(data, chart, [pt], tol, expected=expected_degree)
              for pt in fiber.points if pt.cluster_size > 1]
    coords, weights = map(np.concatenate, zip(*parts))
    return ChartEvaluation(coords, weights, len(parts) > 1, data.variety.n)


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
    coords, weights = _point_weights(data, [point], chart.to_params())
    return complex(_read(coords, weights, data.variety.n, [index])[0][0])


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
    coords, weights = _cluster_terms(data, chart, list(cluster), tol)
    return complex(_read(coords, weights, data.variety.n, [index])[0][0])


def trace(data: ResidueData, chart, index, tol=TOL_ARITH,
          expected_degree=None):
    """Trace of the data against y^index over one chart: the sum of
    punctual (or cluster-summed) residues over the fiber.

    ``chart`` may also be a list of charts; the result is then an array of
    their traces, in order. The list is solved as one family at
    ``expected_degree`` (``data.variety.degree`` when None), and every
    chart the family declines goes through ``evaluate_chart``, so it
    raises or merges its clusters as a single chart does."""
    index = _normalize_index(index, data.variety.p)
    if isinstance(chart, PlaneChart):
        ev = evaluate_chart(data, chart, tol, expected_degree=expected_degree)
        return complex(ev.value([index])[0][0])
    charts = list(chart)
    degree = data.variety.degree if expected_degree is None else expected_degree
    pos, coords, weights = _family(data, charts, degree, tol)
    out = np.empty(len(charts), dtype=complex)
    out[pos] = _read(coords, weights, data.variety.n, [index])[0][:, 0]
    for s in np.setdiff1d(np.arange(len(charts)), pos):
        out[s] = evaluate_chart(data, charts[s], tol, expected_degree=expected_degree).value([index])[0][0]
    return out


def hypersurface_trace(data: ResidueData, hyper, index_exps, tol=TOL_ARITH):
    """Trace over one polynomial hypersurface section of a plane curve
    (nonlinear chart analogue; the cross-check side of the Veronese
    reduction). ``index_exps`` is an exponent vector over the variety's
    full variable tuple."""
    pts = hypersurface_section(data.variety, hyper, tol)
    if any(pt.cluster_size != 1 for pt in pts):
        raise ClusterPoint("hypersurface section is degenerate")
    coords, weights = _point_weights(data, pts)
    return complex(_read(coords, weights, 0, [index_exps])[0][0])


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
    contaminated samples (poles, degree drops, unconverged solves) hold
    NaN and are flagged.

    The table keeps its source data, so values at off-plan charts can be
    computed on demand: each chart's row of traces at the table's indices
    is cached on its first request; fitted polydisc models may be
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
        self._columns = {idx: k for k, idx in enumerate(self.indices())}
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
        """Largest |entry| over the clean samples of every index (0 when
        there is none); NaN entries are skipped."""
        vals = np.abs(np.reshape(list(self.entries.values()), (len(self.entries), len(self.flags))))
        return float(np.max(vals, initial=0.0, where=self.clean_mask() & ~np.isnan(vals)))

    def term_scale(self):
        mask = self.clean_mask()
        vals = self.term_scales[mask]
        return float(np.max(vals)) if vals.size else 0.0

    def value(self, index, chart):
        """Direct trace at an arbitrary chart, read off the chart's cached
        row; an index outside the table evaluates the chart uncached."""
        index = _normalize_index(index, self.p)
        if index not in self._columns:
            return complex(self._evaluate(chart, [index])[0])
        key = chart.to_params().tobytes()
        if key not in self._cache:
            self._cache[key] = self._evaluate(chart, self.indices())
        return complex(self._cache[key][self._columns[index]])

    def _evaluate(self, chart, indices):
        ev = evaluate_chart(self.data, chart, self.tol, expected_degree=self.baseline_degree)
        return ev.value(indices)[0]

    def _prefetch(self, charts):
        """Solve the charts not yet cached as one family and cache the row
        of each certified chart with no point on the weight's pole divisor
        from one read; ``value`` evaluates the others one by one."""
        todo = {ch.to_params().tobytes(): ch for ch in charts}
        todo = {key: ch for key, ch in todo.items() if key not in self._cache}
        keys = list(todo)
        pos, coords, weights = _family(self.data, list(todo.values()), self.baseline_degree, self.tol)
        rows = _read(coords, weights, self.n, self.indices())[0]
        self._cache.update(zip([keys[s] for s in pos], rows))

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


def _family_weights(data, coords, jac):
    """Residue weights at the points ``coords`` of the charts a family
    solve certified, with Jacobians ``jac``: (mask of the charts with no
    point on the weight's pole divisor, their weights)."""
    cols = tuple(coords.transpose(2, 0, 1))
    wval = data.weight_at(cols)
    clear = ~_on_pole(data.weight, cols, wval).any(axis=1)
    return clear, (data.numerator_at(cols) / np.where(clear[:, None], wval * jac, 1.0))[clear]


def _family(data, charts, degree, tol):
    """Solve the charts as one family at fiber degree ``degree``:
    (positions, points, weights) of the charts the family certifies with
    no point on the weight's pole divisor, of shapes (k,), (k, degree,
    n + p) and (k, degree)."""
    family = solve_family(data.variety, charts, degree, tol)
    if family is None:
        return (np.zeros(0, dtype=int), np.zeros((0, degree, len(data.variety.vars)), complex),
                np.zeros((0, degree), complex))
    pos, coords, jac = family
    clear, weights = _family_weights(data, coords, jac)
    return pos[clear], coords[clear], weights


def _sample_charts(data, domain, plan, indices, baseline, tol,
                   cls=TraceTable):
    """Evaluate every plan chart once and read off the listed indices.

    Each chart is solved against the ``baseline`` fiber degree; samples
    that drop degree, meet the weight's pole divisor, whose root finding
    or polish does not converge or whose cluster stays degenerate under
    perturbation are flagged and hold NaN. The per-sample
    term scale is the largest residue term any listed index summed there.
    Charts that ``solve_family`` certifies are read off its stacked points;
    every other chart goes through ``evaluate_chart``. Returns a ``cls``
    table whose max_order is the largest per-slot entry of ``indices``.
    """
    offsets = plan.offsets(domain)
    charts = [domain.chart_at(off) for off in offsets]
    m = len(offsets)
    values = np.full((m, len(indices)), complex(np.nan, np.nan))
    term_scales = np.zeros(m)
    flags = [None] * m
    # p = 1 plans stay per chart: the traced benchmark needs a p = 1 table
    # that reaches evaluate_chart (see ROADMAP item 3)
    pos, coords, weights = _family(data, charts if data.variety.p > 1 else [], baseline, tol)
    values[pos], term_scales[pos] = _read(coords, weights, data.variety.n, indices)
    for s in pos:
        flags[s] = CLEAN
    for s, chart in enumerate(charts):
        if flags[s] is not None:
            continue
        try:
            ev = evaluate_chart(data, chart, tol, expected_degree=baseline)
        except PoleDetected:
            flags[s] = POLE
        except DegreeDrop:
            flags[s] = DROPPED
        except (NonConvergence, PerturbationFailure):
            flags[s] = UNCONVERGED
        else:
            flags[s] = CLUSTER if ev.clustered else CLEAN
            values[s], term_scales[s] = ev.value(indices)
    max_order = max(max(idx) for idx in indices)
    return cls(
        data, domain, offsets, dict(zip(indices, values.T.copy())), term_scales, flags,
        max_order, baseline, tol=tol,
    )


def trace_table(data: ResidueData, domain: DomainSpec, max_order, plan,
                tol=TOL_ARITH):
    """Sample all traces u_I with per-slot index up to ``max_order`` over
    the plan's charts (total degree up to max_order for p >= 3, where the
    full box would explode).

    ``max_order`` None means 2 * fiber degree + 1, exactly what the
    inverse reconstruction consumes. The fiber degree baseline is taken
    at the domain's center chart and enforced across samples
    (domain-local properness); samples that drop degree or meet the
    weight's pole divisor are flagged and hold NaN.

    Raises TooFewCleanSamples when fewer than MIN_CLEAN_FRACTION of the
    samples are usable.
    """
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
