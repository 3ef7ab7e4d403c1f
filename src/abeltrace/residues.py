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

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import (
    AbelTraceError,
    ClusterPoint,
    DegreeDrop,
    ExcessPoints,
    NonConvergence,
    PerturbationFailure,
    PoleDetected,
    TooFewCleanSamples,
)
from .geometry import (
    Charts,
    DomainSpec,
    FiberPoint,
    PlaneChart,
    ResidueData,
    hypersurface_section,
    solve_family,
    solve_fiber,
)
from .multipoly import _monomials
from .numeric import torus_nodes

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
    most POLE_REL_TOL of its terms' sum of |c| |z|^e (at least 1)."""
    if weight is None:
        return np.zeros(coords[0].shape, dtype=bool)
    exps, coefs = weight.matrix()
    scale = (_monomials(exps, [np.abs(z) for z in coords]) @ np.abs(coefs))[..., 0].real
    return abs(wval) <= POLE_REL_TOL * np.maximum(scale, 1.0)


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
    """All index-independent work for the trace at one chart, or at each
    chart of a list: the points ``coords`` (k, n + p) and their weights
    (k,), stacked over a list's charts as (m, k, n + p) and (m, k) with
    short rows padded by zero weights. Simple points carry their residue
    weight; a cluster contributes its perturbed points with the
    extrapolation weights folded in. ``flags`` holds each chart's flag
    (CLEAN, CLUSTER, POLE, DROPPED or UNCONVERGED) and ``errors`` each
    failed chart's exception (None elsewhere), its row holding zero
    weights. ``value`` reads any list of indices off every chart at
    once."""

    __slots__ = ("coords", "weights", "n", "flags", "errors")

    def __init__(self, coords, weights, n, flags, errors):
        self.coords, self.weights, self.n, self.flags, self.errors = coords, weights, n, flags, errors

    def checked(self):
        """This evaluation when no chart failed; else raises the first
        failed chart's exception, in list order."""
        err = next((err for err in self.errors if err is not None), None)
        if err is not None:
            raise err
        return self

    def value(self, indices):
        """(traces at ``indices``, largest |residue term| among them), per
        chart for a list, whose failed charts read NaN traces."""
        values, scales = _read(self.coords, self.weights, self.n, indices)
        if values.ndim > 1:
            values[np.array([err is not None for err in self.errors], dtype=bool)] = np.nan
        return values, scales


def _point_weights(data, coords, jacobians, chart_params=None):
    """Residue weights (k,) of simple fiber points ``coords`` (k, n + p)
    with Jacobians ``jacobians`` (k,), from one _family_weights call;
    PoleDetected for a point on the weight's pole divisor, else
    ClusterPoint for one with a zero Jacobian (taken as 1 until then)."""
    clear, weights = _family_weights(data, coords[None], np.where(jacobians == 0, 1.0, jacobians)[None])
    if not clear[0]:
        raise _pole(chart_params)
    if not np.all(jacobians):
        raise ClusterPoint("fiber point has a zero Jacobian: the plane is not transverse there",
                           chart_params=chart_params)
    return weights[0]


def _pole(chart_params):
    """The PoleDetected of a chart with a fiber point on the weight's pole divisor."""
    return PoleDetected("fiber point lies on the pole divisor of the data weight",
                        chart_params=chart_params)


def _point_arrays(data, points):
    """Coordinates (k, n + p), Jacobians (k,) and multiplicities (k,) of
    FiberPoints, as a Fiber holds them."""
    return (np.array([pt.coords for pt in points], dtype=complex).reshape(
                len(points), len(data.variety.vars)),
            np.array([pt.jacobian for pt in points], dtype=complex),
            np.array([pt.cluster_size for pt in points], dtype=int))


def _cluster_terms(data, chart, coords, multiplicities, expected=None):
    """Perturb the chart in b_1, match the simple points of the cluster
    ``coords`` (k, n + p) with ``multiplicities`` (k,) at a geometric
    ladder of perturbation sizes, and return them as the arrays (coords,
    c_l * weight), c_l being the extrapolation weight of level l.
    Extrapolating the level sums to zero perturbation is linear in those
    sums, so the terms add up to the cluster's total residue."""
    m = int(multiplicities.sum())
    n = data.variety.n
    center = np.repeat(coords[:, n:], multiplicities, axis=0).mean(axis=0)

    base = abs(chart.b[0]) + 1.0
    for attempt in range(5):
        direction = np.exp(1j * (0.37 + 2.0 * np.pi * attempt / 5.0))
        deltas, levels = [], []
        for lev in range(CLUSTER_LEVELS):
            d = CLUSTER_DELTA * base / 2.0**lev
            pchart = PlaneChart(chart.a, np.r_[chart.b[0] + d * direction, chart.b[1:]])
            try:
                fiber = solve_fiber(data.variety, pchart, expected)
            except (AbelTraceError, ValueError):
                break
            # the m points nearest the centre (ties in fiber order), taken
            # only when all are simple: then their multiplicities sum to m
            near = np.argsort(np.abs(fiber.coords[:, n:] - center).max(axis=1), kind="stable")[:m]
            if len(near) < m or np.any(fiber.multiplicities[near] > 1):
                break
            deltas.append(d * direction)
            levels.append((fiber.coords[near], _point_weights(
                data, fiber.coords[near], fiber.jacobians[near], pchart.to_params())))
        else:
            return (np.concatenate([c for c, _ in levels]),
                    np.concatenate([c * w for c, (_, w) in zip(_extrapolation_weights(deltas), levels)]))
    raise PerturbationFailure(f"cluster of multiplicity {m} stayed degenerate under perturbation")


def _evaluate_one(data, chart, expected_degree):
    """The ChartEvaluation of one chart from its own fiber solve, clusters
    through the perturbation ladder; raises as those do."""
    fiber = solve_fiber(data.variety, chart, expected_degree)
    simple = fiber.multiplicities == 1
    parts = [(fiber.coords[simple], _point_weights(
        data, fiber.coords[simple], fiber.jacobians[simple], chart.to_params()))]
    parts += [_cluster_terms(data, chart, fiber.coords[[i]], fiber.multiplicities[[i]],
                             expected=expected_degree)
              for i in np.flatnonzero(~simple)]
    coords, weights = map(np.concatenate, zip(*parts))
    return ChartEvaluation(coords, weights, data.variety.n,
                           (CLUSTER if len(parts) > 1 else CLEAN,), (None,))


def evaluate_chart(data: ResidueData, chart, *, expected_degree=None):
    """Build the ChartEvaluation of one chart, or of a list of charts
    (shared by all indices).

    One PlaneChart is solved on its own and raises as solve_fiber and the
    cluster ladder do. A Charts batch, or a list stacked into one, is
    solved as one family at fiber degree ``expected_degree``; None takes
    the first chart's, the family's own for p = 1 when it certifies that
    chart at it, else solve_fiber's count, and solves the family again
    only when that count differs from the family's own. A chart the family
    certifies but finds on the weight's pole divisor is flagged POLE with
    its PoleDetected at once; each chart the family declines is solved on
    its own at that degree, and one that raises PoleDetected, DegreeDrop,
    NonConvergence, ExcessPoints or PerturbationFailure is flagged POLE,
    DROPPED or UNCONVERGED and keeps its exception instead of raising."""
    if isinstance(chart, PlaneChart):
        return _evaluate_one(data, chart, expected_degree)
    charts, v = chart if isinstance(chart, Charts) else Charts.stack(list(chart)), data.variety
    found = solve_family(v, charts, expected_degree)
    degree = expected_degree
    if degree is None and len(charts):
        degree = (found[1].shape[1] if found and found[0][:1].tolist() == [0]
                  else _baseline_degree(data, charts[0]))
        if not found or found[1].shape[1] != degree:
            found = solve_family(v, charts, degree)
    pos, coords, jac = found or (np.zeros(0, int), np.zeros((0, 0, len(v.vars))), np.zeros((0, 0)))
    clear, weights = _family_weights(data, coords, jac)
    # (positions, points, weights): the family's rows, then each other chart's
    rows = [(pos[clear], coords[clear], weights)]
    flags, errors = [CLEAN] * len(charts), [None] * len(charts)
    for s in pos[~clear]:
        flags[s], errors[s] = POLE, _pole(charts.params()[s])
    for s in np.flatnonzero(np.bincount(pos, minlength=len(charts)) == 0):
        try:
            ev = _evaluate_one(data, charts[s], degree)
        except (PoleDetected, DegreeDrop, NonConvergence, ExcessPoints, PerturbationFailure) as exc:
            flags[s] = (POLE if isinstance(exc, PoleDetected) else
                        DROPPED if isinstance(exc, DegreeDrop) else UNCONVERGED)
            errors[s] = exc
        else:
            flags[s] = ev.flags[0]
            rows.append((s, ev.coords, ev.weights))
    k = max(w.shape[-1] for _, _, w in rows)
    points, stacked = np.zeros((len(charts), k, len(v.vars)), complex), np.zeros((len(charts), k), complex)
    for s, c, w in rows:
        points[s, :w.shape[-1]], stacked[s, :w.shape[-1]] = c, w
    return ChartEvaluation(points, stacked, v.n, tuple(flags), tuple(errors))


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
    coords, jacobians, _ = _point_arrays(data, [point])
    weights = _point_weights(data, coords, jacobians, chart.to_params())
    return complex(_read(coords, weights, data.variety.n, [index])[0][0])


def clustered_residue(data: ResidueData, chart: PlaneChart, cluster, index):
    """Total residue of a cluster at a (near-)degenerate chart.

    The chart is perturbed in b_1 along a fixed complex direction, the
    cluster's points are matched at a geometric ladder of perturbation
    sizes, and the cluster sum is extrapolated back to zero perturbation
    (the total residue is analytic in the chart even when points collide).

    ``cluster`` is one or more FiberPoints: either a merged multiple point
    from solve_fiber or nearby simple points from a perturbed chart.
    """
    index = _normalize_index(index, data.variety.p)
    coords, _, multiplicities = _point_arrays(data, list(cluster))
    coords, weights = _cluster_terms(data, chart, coords, multiplicities)
    return complex(_read(coords, weights, data.variety.n, [index])[0][0])


def trace(data: ResidueData, chart, index, *, expected_degree=None):
    """Trace of the data against y^index over one chart: the sum of
    punctual (or cluster-summed) residues over the fiber.

    ``index`` may also be a list of indices and ``chart`` a list of
    charts or a Charts batch; the result is then an array, charts first
    with the index axis last, from one ``evaluate_chart`` call and one
    read. One index at one chart is a complex. Every chart of a list is
    held to one fiber degree (``expected_degree``, else evaluate_chart's
    rule for the first chart's), and the first chart that fails raises
    its error, so no trace sums fewer points than the others."""
    one_index = not isinstance(index, list)
    indices = [_normalize_index(i, data.variety.p) for i in ([index] if one_index else index)]
    ev = evaluate_chart(data, chart, expected_degree=expected_degree).checked()
    out = ev.value(indices)[0]
    out = out[..., 0] if one_index else out
    return complex(out) if out.ndim == 0 else out


def hypersurface_trace(data: ResidueData, hyper, index_exps):
    """Trace over one polynomial hypersurface section of a plane curve
    (nonlinear chart analogue; the cross-check side of the Veronese
    reduction). ``index_exps`` is an exponent vector over the variety's
    full variable tuple."""
    pts = hypersurface_section(data.variety, hyper)
    if any(pt.cluster_size != 1 for pt in pts):
        raise ClusterPoint("hypersurface section is degenerate")
    coords, jacobians, _ = _point_arrays(data, pts)
    return complex(_read(coords, _point_weights(data, coords, jacobians), 0, [index_exps])[0][0])


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


def _check_counts(counts, least=1):
    for name, c in counts.items():
        if not isinstance(c, numbers.Integral) or c < least:
            raise ValueError(f"{name} count must be an integer of at least {least}, got {c!r}")


def _offset_dicts(domain: DomainSpec, rows):
    """Offset rows (m, len(domain.varying)), the array charts_at takes, as
    the dicts keyed by varying parameter that a table keeps."""
    return [dict(zip(domain.varying, r)) for r in rows.tolist()]


@dataclass(frozen=True)
class GridPlan:
    """Real equispaced tensor grid over the varying parameters: offsets
    radius * linspace(-1, 1, count) per parameter (0 for a count of 1 or
    a parameter not listed). ValueError for a count below 1 or not an
    integer, DimensionMismatch for a parameter the domain does not vary."""

    counts: dict

    def __post_init__(self):
        _check_counts(self.counts)

    def offset_array(self, domain: DomainSpec):
        domain.offset_array([self.counts])  # every listed parameter varies
        if not self.counts:
            raise ValueError("grid plan covers no varying parameter")
        axes = [domain.radii[k] * (np.linspace(-1.0, 1.0, c) if c > 1 else np.zeros(1))
                for k, c in ((k, self.counts.get(k, 1)) for k in domain.varying)]
        return np.column_stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")]).astype(complex)


@dataclass(frozen=True)
class TorusPlan:
    """Samples on the distinguished boundary (product of circles), the
    natural plan for Taylor-model fitting; offsets follow the
    ``torus_nodes`` grid order. ValueError for a node number below 1 or
    not an integer."""

    nodes: int = 16

    def __post_init__(self):
        _check_counts({"node": self.nodes})

    def offset_array(self, domain: DomainSpec):
        radii = [domain.radii[k] for k in domain.varying]
        return torus_nodes([0j] * len(radii), radii, self.nodes).reshape(
            self.nodes ** len(radii), len(radii))


@dataclass(frozen=True)
class ListPlan:
    """Explicit list of parameter offsets (dicts keyed by parameter, 0
    for one not listed); DimensionMismatch for a parameter the domain does
    not vary."""

    points: tuple

    def offset_array(self, domain: DomainSpec):
        return domain.offset_array(self.points)


# ---------------------------------------------------------------------------
# trace tables
# ---------------------------------------------------------------------------

class TraceTable:
    """Trace values u_I sampled over a domain, all indices sharing one set
    of sample charts. Entries are dense arrays aligned with the charts;
    contaminated samples (poles, degree drops, unconverged solves) hold
    NaN and are flagged.

    The table keeps its source data, so ``value`` computes traces at
    off-plan charts on demand, solving them on every call; fitted
    polydisc models may be attached by propagation or fitting code, in
    which case ``model_value`` evaluates those instead.
    """

    def __init__(self, data, domain, offsets, entries, term_scales, flags,
                 max_order, baseline_degree, models=None):
        self.data = data
        self.domain = domain
        self.offsets = tuple(offsets)
        self.entries = entries
        self.term_scales = np.asarray(term_scales, dtype=float)
        self.flags = tuple(flags)
        self.max_order = int(max_order)
        self.baseline_degree = int(baseline_degree)
        self.models = models or {}

    @property
    def n(self):
        return self.data.variety.n

    @property
    def p(self):
        return self.data.variety.p

    def indices(self):
        return sorted(self.entries)

    def clean_mask(self):
        return np.array([f in (CLEAN, CLUSTER) for f in self.flags])

    def scale(self):
        """Largest |entry| over the clean samples of every index (0 when
        there is none); NaN entries are skipped."""
        vals = np.abs(np.reshape(list(self.entries.values()), (len(self.entries), len(self.flags))))
        return float(np.max(vals, initial=0.0, where=self.clean_mask() & ~np.isnan(vals)))

    def term_scale(self):
        return float(np.max(self.term_scales[self.clean_mask()], initial=0.0))

    def value(self, index, chart):
        """Direct trace at an arbitrary chart, on or off the plan: one
        ``trace`` call at the table's fiber degree, which
        takes one index or a list of indices and one chart, a list of
        charts or a batch (solved as one family). Nothing is kept, so
        reading a chart again solves it again."""
        return trace(self.data, chart, index, expected_degree=self.baseline_degree)

    def model_value(self, index, chart):
        cur = dict(zip(chart.param_names(), chart.to_params()))
        return self.models[_normalize_index(index, self.p)]([cur[k] for k in self.domain.varying])


def _box_indices(p, max_order):
    # the full box for p <= 2, else total degree up to max_order
    return [idx for idx in np.ndindex(*([max_order + 1] * p)) if p <= 2 or sum(idx) <= max_order]


def _family_weights(data, coords, jac):
    """Residue weights at the points ``coords`` of the charts a family
    solve certified, with Jacobians ``jac``: (mask of the charts with no
    point on the weight's pole divisor, their weights)."""
    cols = tuple(coords.transpose(2, 0, 1))
    wval = data.weight_at(cols)
    clear = ~_on_pole(data.weight, cols, wval).any(axis=1)
    return clear, (data.numerator.evaluate(cols) / np.where(clear[:, None], wval * jac, 1.0))[clear]


def _sample_charts(data, domain, plan, indices, baseline, cls=TraceTable):
    """Evaluate the plan's charts as one list (``evaluate_chart``) against
    the ``baseline`` fiber degree and read off the listed indices.

    Samples that drop degree, meet the weight's pole divisor, whose root
    finding or polish does not converge or whose cluster stays degenerate
    under perturbation keep the evaluation's flag and NaN row. The
    per-sample term scale is the largest residue term any listed index
    summed there. Returns a ``cls`` table whose max_order is the largest
    per-slot entry of ``indices``.
    """
    offsets = plan.offset_array(domain)
    ev = evaluate_chart(data, domain.charts_at(offsets), expected_degree=baseline)
    values, term_scales = ev.value(indices)
    return cls(data, domain, _offset_dicts(domain, offsets), dict(zip(indices, values.T.copy())),
               term_scales, ev.flags, max(max(idx) for idx in indices), baseline)


def trace_table(data: ResidueData, domain: DomainSpec, max_order, plan):
    """Sample all traces u_I with per-slot index up to ``max_order`` over
    the plan's charts (total degree up to max_order for p >= 3, where the
    full box would explode).

    ``max_order`` None means 2 * fiber degree + 1, exactly what the
    inverse reconstruction consumes. The fiber degree baseline is taken
    at the domain's center chart and enforced across samples
    (domain-local properness); samples that drop degree or meet the
    weight's pole divisor are flagged and hold NaN.

    Raises ValueError, before any solve, for a ``max_order`` that is
    neither None nor an integer of at least 0, and TooFewCleanSamples
    when fewer than MIN_CLEAN_FRACTION of the samples are usable.
    """
    if max_order is not None:
        _check_counts({"order": max_order}, least=0)
    baseline = _baseline_degree(data, domain.chart)
    if max_order is None:
        max_order = 2 * baseline + 1
    t = _sample_charts(data, domain, plan, _box_indices(data.variety.p, max_order), baseline)
    m, clean = len(t.offsets), int(np.sum(t.clean_mask()))
    if clean < max(1, int(np.ceil(MIN_CLEAN_FRACTION * m))):
        raise TooFewCleanSamples(
            f"only {clean} of {m} samples usable (poles/degree drops elsewhere)")
    return t


def _baseline_degree(data, chart):
    """Fiber degree at one chart (a domain's properness baseline at its
    centre). Raises ValueError when that fiber is empty: the projection is
    not proper there."""
    degree = solve_fiber(data.variety, chart, None).total_multiplicity
    if degree == 0:
        raise ValueError(f"the fiber at {chart} is empty; the projection is not proper there")
    return degree
