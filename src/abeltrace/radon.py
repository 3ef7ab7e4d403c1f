"""The Abel-Radon transform of residue data in the affine plane-family
chart, and its structural verifications: closedness (shock relations),
holomorphy / pole classification, reparametrization equivariance, and
trace extension along the closedness relations.

In the affine chart the transform of data of top bidegree is the 1-form
(n = 1) or n-form whose coefficient on the slot choice (j_1..j_n), with
slot 0 standing for b_i and slot j >= 1 for a_i^j, is the trace u_I where
I counts the slot choices per fiber variable. Two labels with the same
count vector share a coefficient, so the sampled transform is a view of
the trace table over exactly those count vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AbelTraceError,
    DegreeDrop,
    EvaluationError,
    InsufficientMargin,
    PathCrossesPole,
    PoleDetected,
    UnsupportedDimension,
)
from .geometry import Charts, DomainSpec, ResidueData
from .multipoly import MultiPoly
from .numeric import (
    cauchy_derivative,
    cauchy_nodes,
    gauss_legendre_segment,
    polydisc_fit_grid,
    torus_nodes,
)
from .residues import (
    CLEAN,
    POLE,
    TorusPlan,
    TraceTable,
    _baseline_degree,
    _check_counts,
    _check_tol,
    _offset_dicts,
    _sample_charts,
    evaluate_chart,
)

# Cauchy circle radius of the shock check, as a share of the domain radius
SHOCK_MARGIN = 0.3
# highest total degree of the local polynomial models in verify_holomorphy
HOLO_MAX_FIT_DEGREE = 8


def radon_labels(n, p):
    """All differential-basis labels: per base slot i, a choice j_i in
    0..p (0 = the b_i direction, j >= 1 the a_i^j direction)."""
    return [tuple(label) for label in np.ndindex(*([p + 1] * n))]


def label_index(label, p):
    """Monomial count vector of a label: I_j = #{slots choosing j}."""
    return tuple(sum(1 for j in label if j == jj) for jj in range(1, p + 1))


class RadonTransform(TraceTable):
    """Sampled coefficient family of the transform over a domain: a trace
    table over the labels' count vectors, read through ``label_index``.
    Samples where the support meets the chart degenerately (weight pole)
    are flagged 'pole' and hold NaN; degree drops are flagged likewise."""

    @property
    def coeffs(self):
        """label -> complex array over samples (shared per count vector)."""
        return {
            lb: self.entries[label_index(lb, self.p)]
            for lb in radon_labels(self.n, self.p)
        }


def radon_coefficients(data: ResidueData, domain: DomainSpec, plan):
    """Sample every coefficient of the transform on the plan's charts."""
    p = data.variety.p
    indices = sorted({label_index(lb, p) for lb in radon_labels(data.variety.n, p)})
    baseline = _baseline_degree(data, domain.chart)
    return _sample_charts(data, domain, plan, indices, baseline, cls=RadonTransform)


# ---------------------------------------------------------------------------
# closedness: shock relations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ShockReport:
    passed: bool
    max_residual: float
    max_relative: float
    tol: float
    checked: int
    details: tuple


def _probe_offsets(domain, probes):
    """Deterministic interior probe offsets for a domain, at 0.45 of
    each radius: one row per probe, aligned with ``domain.varying``."""
    rows = [[0.45 * domain.radii[nm] * np.exp(1j * (2.0 * np.pi * k / probes + 0.9 + 0.61 * i))
             for i, nm in enumerate(domain.varying)] for k in range(probes)]
    return np.array(rows, dtype=complex).reshape(probes, len(domain.varying))


def verify_shock_relations(t: TraceTable, tol, probes=3, nodes=32):
    """Check the closedness identities of the transform on a trace table:
    for each base slot i and every fiber slot j whose parameter varies,
    the b_i-derivative of u_{I+e_j} must equal the a_i^j-derivative of
    u_I. Derivatives are taken by Cauchy integrals on circles of radius
    SHOCK_MARGIN * (domain radius), so the table's domain must leave that
    much margin in both parameters. Every circle chart is read for every
    index in one ``TraceTable.value`` call (one chart family), and every
    circle is differentiated in one ``cauchy_derivative`` call.
    Raises ValueError, before any chart is solved, unless ``probes`` is an
    integer of at least 1, ``nodes`` one of at least 16 and ``tol`` finite
    and at least 0; InsufficientMargin when no (index, slot) pair exists and
    EvaluationError when a circle chart fails.
    """
    _check_counts({"probe": probes})
    _check_counts({"node": nodes}, least=16)
    _check_tol(tol)
    n, p = t.n, t.p
    pairs = []
    for i in range(1, n + 1):
        if f"b{i}" not in t.domain.radii:
            raise InsufficientMargin(f"parameter b{i} is frozen; cannot differentiate")
        for j in range(1, p + 1):
            a_name = f"a{i}.{j}"
            if a_name not in t.domain.radii:
                if j == 1:
                    raise InsufficientMargin(f"parameter {a_name} is frozen; cannot differentiate")
                continue
            pairs.append((i, j, a_name))

    indices = [idx for idx in t.indices()
               if all(tuple(np.add(idx, _unit(j - 1, p))) in t.entries for (_, j, _) in pairs)]
    if not indices:
        raise InsufficientMargin(f"the order-{t.max_order} table has no index to check")

    # the parameter rows of the node charts of each (probe, parameter)
    # circle, every circle's in one array (probe, parameter, node, row)
    varied = list(dict.fromkeys(nm for (i, _, a_name) in pairs for nm in (f"b{i}", a_name)))
    radii = SHOCK_MARGIN * np.array([t.domain.radii[nm] for nm in varied])
    here = t.domain.charts_at(_probe_offsets(t.domain, probes)).params()
    rows = np.tile(here[:, None, None], (1, len(varied), nodes, 1))
    for c, col in enumerate(map(t.domain.chart.param_names().index, varied)):
        rows[:, c, :, col] = cauchy_nodes(here[:, col, None], radii[c], nodes)[1]
    # every circle chart, every index, from one read (one chart family);
    # then every circle differentiated in one cauchy_derivative call
    try:
        values = t.value(t.indices(), Charts.from_params(n, p, rows.reshape(-1, here.shape[1])))
    except AbelTraceError as exc:
        raise EvaluationError(f"a Cauchy circle chart failed: {exc}") from exc
    values = np.moveaxis(values.reshape(probes, len(varied), nodes, -1), 2, 0)
    derivatives = cauchy_derivative(values, radii[:, None])
    columns = {idx: c for c, idx in enumerate(t.indices())}

    max_abs, max_rel, details = 0.0, 0.0, []
    for k in range(probes):
        for idx in indices:
            for (i, j, a_name) in pairs:
                up = columns[tuple(np.add(idx, _unit(j - 1, p)))]
                db = derivatives[k, varied.index(f"b{i}"), up]
                da = derivatives[k, varied.index(a_name), columns[idx]]
                resid = abs(db - da)
                max_abs = max(max_abs, resid)
                max_rel = max(max_rel, resid / max(1.0, abs(db), abs(da)))
                details.append((idx, i, j, resid))
    return ShockReport(max_abs <= tol, max_abs, max_rel, tol, len(details), tuple(details))


def _unit(j, p):
    return tuple(1 if i == j else 0 for i in range(p))


# ---------------------------------------------------------------------------
# holomorphy / pole classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HolomorphyReport:
    status: dict            # label -> "holomorphic" | "meromorphic" | "inconclusive"
    pole_samples: dict      # label -> tuple of flagged sample positions
    diagnostics: dict
    tol: float


def verify_holomorphy(rt: RadonTransform, tol):
    """Classify each coefficient as pole-free on the domain or flag its
    pole samples.

    A sample is a pole candidate when evaluation already blew up there
    (the support met the plane on the weight's divisor). Pole-free
    coefficients must additionally admit a local polynomial model on the
    clean samples: of the fits of every total degree up to
    HOLO_MAX_FIT_DEGREE that the samples determine (more samples than
    monomials), the smallest residual must lie below tol relative to the
    coefficient/term scale. When neither a model of the values nor one of
    the reciprocals fits, the verdict is inconclusive (reported, never
    silently passed). Each degree is one least-squares solve per set of
    samples fitted. A numerical classification, not a proof. ValueError
    unless ``tol`` is finite and at least 0.
    """
    _check_tol(tol)
    mask = rt.clean_mask()
    # the clean samples' offsets over the radii, one row per sample; real
    # and imaginary parts divided apart, as complex / float divides them
    scaled = rt.domain.offset_array(rt.offsets)[mask]
    radii = np.array([rt.domain.radii[nm] for nm in rt.domain.varying], dtype=float)
    scaled.real /= radii
    scaled.imag /= radii
    tscale = max(rt.term_scale(), 1e-300)
    # their monomials in graded order, up to the highest degree they
    # determine: a fit of degree deg takes the first comb(deg + k, k)
    k = scaled.shape[1]
    top = sum(math.comb(deg + k, k) < len(scaled) for deg in range(1, HOLO_MAX_FIT_DEGREE + 1))
    exps = np.array(sorted((e for e in np.ndindex(*[top + 1] * k) if sum(e) <= top), key=sum))
    feats = np.prod(scaled[:, None, :] ** exps, axis=-1)

    def sweep(rows, values):
        best, best_deg = np.full(values.shape[1], np.inf), np.zeros(values.shape[1], dtype=int)
        for deg in range(1, HOLO_MAX_FIT_DEGREE + 1):
            width = math.comb(deg + k, k)
            if len(values) <= width:
                break
            f = feats[rows, :width]
            sol, _, _, _ = np.linalg.lstsq(f, values, rcond=None)
            resid = np.max(np.abs(f @ sol - values), axis=0)
            better = resid < best
            best[better], best_deg[better] = resid[better], deg
        return best, best_deg

    # a column per distinct count vector (labels sharing one share it) of
    # values on every clean sample, then one of reciprocals on the samples
    # where the value is not tiny, fitted when there are at least 6; the
    # columns on the same samples are fitted together
    labels = {lb: label_index(lb, rt.p) for lb in radon_labels(rt.n, rt.p)}
    keys = list(dict.fromkeys(labels.values()))
    c = len(keys)
    vals = np.stack([np.asarray(rt.entries[key])[mask] for key in keys], axis=1)
    vmax = np.max(np.abs(vals), axis=0, initial=0.0)
    big = np.abs(vals) > 1e-9 * tscale
    inv = np.divide(1.0, vals, out=np.zeros_like(vals), where=big)
    cols, rows = np.concatenate([vals, inv], axis=1), np.concatenate([np.ones_like(big), big], axis=1)
    resid, deg = np.full(2 * c, np.inf), np.zeros(2 * c, dtype=int)
    groups = {}
    for j in np.flatnonzero(np.r_[np.ones(c, dtype=bool), np.sum(big, axis=0) >= 6]):
        groups.setdefault(rows[:, j].tobytes(), []).append(j)
    for js in groups.values():
        here = rows[:, js[0]]
        resid[js], deg[js] = sweep(here, cols[here][:, js])
    resid[c:] /= np.maximum(1e-300, np.max(np.abs(inv), axis=0))

    status, poles, diags = {}, {}, {}
    flagged = tuple(int(i) for i, f in enumerate(rt.flags) if f == POLE)
    for label, key in labels.items():
        j = keys.index(key)
        if flagged:
            status[label] = "meromorphic"
        elif resid[j] <= tol * max(vmax[j], tscale):
            status[label] = "holomorphic"
        elif resid[c + j] <= tol:
            status[label] = "meromorphic"
        else:
            status[label] = "inconclusive"
        poles[label] = flagged
        diags[label] = {
            "fit_residual": float(resid[j]), "fit_degree": int(deg[j]),
            "value_scale": float(vmax[j]), "reciprocal_residual": float(resid[c + j]),
            "reciprocal_degree": int(deg[c + j]),
        }
    return HolomorphyReport(status, poles, diags, tol)


# ---------------------------------------------------------------------------
# reparametrization equivariance
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AffineMap:
    """Invertible affine map of the flattened chart parameters
    (a1.1..a1.p, ..., b1..bn): params -> matrix @ params + offset."""

    matrix: np.ndarray
    offset: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        v = np.asarray(self.offset, dtype=complex)
        if m.shape[0] != m.shape[1] or m.shape[0] != v.size:
            raise ValueError("affine map shape mismatch")
        if np.linalg.matrix_rank(m) < len(m):
            raise ValueError("affine map is not invertible")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "offset", v)

    def __call__(self, params):
        return self.matrix @ np.asarray(params, dtype=complex) + self.offset


@dataclass(frozen=True)
class EquivarianceReport:
    passed: bool
    max_residual: float
    max_relative: float
    tol: float
    probes: int


def reparametrize_check(data: ResidueData, domain: DomainSpec, mu: AffineMap, tol=1e-8, probes=4):
    """Compare the transform of the reparametrized family against the
    pullback of the original transform through ``mu``.

    The direct side differentiates the composed incidence equation
    l(x, y; t') symbolically in the new parameters and sums residues
    against those derivative polynomials; the pullback side evaluates the
    standard coefficient labels at mu(t') and applies the chain rule
    matrix. ``domain`` is the probe domain in the new parameters. Every
    probe's image chart is held to the fiber degree at the image of the
    domain centre, so a probe that loses a point raises DegreeDrop.

    For an affine ``mu`` the direct side's integrand -d(composed)/dt'_c
    is sum_row M[row, c] * (y_row, or 1 on the b row), so the direct sum
    equals the pullback term by term for any residue weights: the check
    tests the chain rule through the transform's labels, not the
    residues themselves. ValueError unless ``probes`` is an integer of at
    least 1 and ``tol`` finite and at least 0.
    """
    _check_counts({"probe": probes})
    _check_tol(tol)
    n, p = data.variety.n, data.variety.p
    if n != 1:
        raise UnsupportedDimension("reparametrize_check supports n = 1")
    k = n * (p + 1)

    # composed plane polynomial over (x, y, t'_1..t'_k)
    tvars = tuple(f"t{i + 1}" for i in range(k))
    allv = data.variety.vars + tvars
    x_poly = MultiPoly.variable(data.variety.x_vars[0], allv)
    composed = x_poly
    for row in range(k):
        # theta_row = sum_k M[row, c] t'_c + v[row]
        theta = MultiPoly.constant(mu.offset[row], allv)
        for c in range(k):
            if mu.matrix[row, c] != 0:
                theta = theta + mu.matrix[row, c] * MultiPoly.variable(tvars[c], allv)
        if row < p:
            composed = composed - theta * MultiPoly.variable(
                data.variety.y_vars[row], allv
            )
        else:
            composed = composed - theta
    d_composed = [composed.partial(tv) for tv in tvars]

    # the probes' image charts as one list after the image of the domain
    # centre, whose fiber degree sets the list's (as trace_table holds
    # its samples to the centre's); the first failed chart raises
    tps = domain.charts_at(_probe_offsets(domain, probes)).params()
    images = Charts.from_params(n, p, [mu(tp) for tp in [domain.chart.to_params(), *tps]])
    ev = evaluate_chart(data, images).checked()

    # pullback side: the label coefficients u_(e_1), .., u_(e_p), u_0 at
    # each image chart (one per parameter row), chain rule
    pull = ev.value([_unit(row, p) for row in range(p)] + [(0,) * p])[0][1:] @ mu.matrix

    # direct side: symbolic derivative of the composed incidence form,
    # evaluated at every fiber point of every probe at once
    point = {**dict(zip(data.variety.vars, np.moveaxis(ev.coords[1:], -1, 0))),
             **dict(zip(tvars, tps.T[..., None]))}
    direct = np.stack([-np.sum(ev.weights[1:] * d.evaluate(point), axis=-1)
                       for d in d_composed], axis=-1)

    resid = np.max(np.abs(direct - pull), axis=-1)
    max_abs = float(np.max(resid))
    max_rel = float(np.max(resid / np.maximum(1.0, np.max(np.abs(pull), axis=-1))))
    return EquivarianceReport(max_abs <= tol, max_abs, max_rel, tol, probes)


# ---------------------------------------------------------------------------
# trace extension along the closedness relations
# ---------------------------------------------------------------------------

def propagate_trace_extension(t: TraceTable, u0_ext, big_domain: DomainSpec, order, fft_nodes=32):
    """Extend the trace ladder u_(k,0,..) from a polydisc P to an enlarged
    polydisc P' = P_a x P_b' given an extension evaluator for the order-0
    trace on P'.

    Each new level is built from the previous one through the closedness
    identity: for fixed a, the b_1-differential of u_{I+e_1} equals the
    a_1^1-derivative of u_I, so its value is the base value at (a, b*)
    plus a Gauss-Legendre integral along the straight segment b* -> b,
    taken over the whole torus grid in one quadrature call. Levels are
    represented as Taylor models fitted on the distinguished boundary of
    P'; base values on P come from the input table.

    ``u0_ext`` takes a Charts batch and returns the extended order-0 traces
    of its charts in order, for example ``lambda charts: trace(data,
    charts, 0)``; indexed or iterated, the batch is a sequence of
    PlaneCharts. It is called once, on the whole torus grid followed by
    four off-grid validation probes; ``trace`` holds the probes to the
    grid's fiber degree. The base slices of every level share one set of
    charts, read for every level in one ``TraceTable.value`` call (one
    chart family) before the first level is built; with ``order`` 0
    there is none. Returns a TraceTable on P' carrying sampled values and
    the fitted models (use ``model_value`` to evaluate them off-grid).

    Raises PathCrossesPole when the extension evaluator blows up on P'
    (the extension is meromorphic there), InsufficientMargin when the
    required parameters are frozen, and ValueError for an ``order`` that
    is not an integer of at least 0 or when the evaluator returns a
    non-finite value on the grid or at a probe.
    """
    _check_counts({"order": order}, least=0)
    n, p = t.n, t.p
    if n != 1:
        raise UnsupportedDimension("trace propagation supports n = 1")
    names = big_domain.varying
    if "b1" not in names or "a1.1" not in names:
        raise InsufficientMargin("propagation needs b1 and a1.1 to vary")
    if set(names) != set(t.domain.varying):
        raise ValueError("enlarged domain must vary the same parameters")
    # the centres' and radii's entries in ``names`` order
    at = [big_domain.chart.param_names().index(nm) for nm in names]
    if np.any(t.domain.chart.to_params()[at] != big_domain.chart.to_params()[at]):
        raise ValueError("domains must share their center")
    if not all(np.isclose(t.domain.radii[nm], big_domain.radii[nm]) for nm in names if nm != "b1"):
        raise ValueError("only the b_1 radius may grow")
    if big_domain.radii["b1"] < t.domain.radii["b1"]:
        raise ValueError("enlarged domain must contain the original")

    ib, ia = names.index("b1"), names.index("a1.1")
    center = big_domain.chart.to_params()[at].tolist()
    radii = [float(big_domain.radii[nm]) for nm in names]

    def charts_at(points):
        # the charts at the rows of ``points``, parameters in ``names`` order
        return big_domain.charts_at(points.reshape(-1, len(names)) - center)

    def u0_values(points):
        try:
            return np.asarray(u0_ext(charts_at(points)), dtype=complex)
        except (PoleDetected, DegreeDrop) as exc:
            raise PathCrossesPole(
                f"order-0 extension blows up on the enlarged polydisc: {exc}") from exc

    # the torus grid on P', which is also the output table's plan, then the
    # off-grid validation probes: a pole strictly inside the polydisc spoils
    # Taylor convergence even when no sample lands on the divisor
    offsets = TorusPlan(fft_nodes).offset_array(big_domain)
    pts = (center + offsets).reshape((fft_nodes,) * len(names) + (len(names),))
    probes = np.array([[center[ax] + 0.62 * radii[ax] * w * np.exp(0.29j * (ax + 1))
                        for ax in range(len(names))]
                       for w in [np.exp(1j * (0.53 + 1.31 * tprobe)) for tprobe in range(4)]])
    u0 = u0_values(np.concatenate([pts.reshape(-1, len(names)), probes]))
    grid0, u0_probes = u0[:len(offsets)].reshape(pts.shape[:-1]), u0[len(offsets):]
    model0 = polydisc_fit_grid(grid0, center, radii)
    bad = np.flatnonzero(~np.isfinite(u0_probes))
    if bad.size:
        raise ValueError(f"{bad.size} non-finite order-0 validation probe value(s), "
                         f"the first at probe {int(bad[0])}")
    verr = float(np.max(np.abs(model0(probes.T) - u0_probes)))
    vscale = max(1.0, float(np.max(np.abs(grid0))))
    if verr > 1e-6 * vscale:
        raise PathCrossesPole(f"order-0 extension is not holomorphic on the enlarged polydisc "
                              f"(Taylor model validation error {verr:.3e})")
    model0.build_error = verr
    models, grids = {(0,) * p: model0}, {(0,) * p: grid0}

    a_axes = [i for i in range(len(names)) if i != ib]
    # the torus points with a trailing axis for the quadrature nodes
    q = [pts[..., ax, None] for ax in range(len(names))]
    a_center = [center[i] for i in a_axes]
    a_radii = [radii[i] for i in a_axes]

    # the base slices u_new(a, b*) of every level come from the input
    # table (inside P) at the same charts, all read at once
    a_pts = torus_nodes(a_center, a_radii, fft_nodes)
    base_pts = np.insert(a_pts, ib, center[ib], axis=-1)
    levels = [(k,) + (0,) * (p - 1) for k in range(1, order + 1)]
    try:
        base_grids = (t.value(levels, charts_at(base_pts)).T.reshape((order,) + a_pts.shape[:-1])
                      if levels else [])
    except (PoleDetected, DegreeDrop) as exc:
        raise PathCrossesPole(f"base slices are contaminated: {exc}") from exc

    for prev_idx, new_idx, base_grid in zip([(0,) * p] + levels, levels, base_grids):
        base_model = polydisc_fit_grid(base_grid, a_center, a_radii)
        deriv = models[prev_idx].derivative(ia)
        grid_k = base_model([pts[..., ax] for ax in a_axes]) + gauss_legendre_segment(
            lambda beta: deriv(q[:ib] + [beta] + q[ib + 1:]), center[ib], pts[..., ib]
        )
        models[new_idx] = polydisc_fit_grid(grid_k, center, radii)
        grids[new_idx] = grid_k

    entries = {idx: g.ravel() for idx, g in grids.items()}
    return TraceTable(t.data, big_domain, _offset_dicts(big_domain, offsets),
                      entries, np.max(np.abs(list(entries.values())), axis=0),
                      (CLEAN,) * len(offsets), max(order, t.max_order), t.baseline_degree,
                      models=models)
