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

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegreeDrop,
    InsufficientMargin,
    PathCrossesPole,
    PoleDetected,
    UnsupportedDimension,
)
from .geometry import DomainSpec, PlaneChart, ResidueData
from .multipoly import MultiPoly
from .numeric import (
    TOL_ARITH,
    cauchy_derivative,
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

    def labels(self):
        return radon_labels(self.n, self.p)

    max_coefficient = TraceTable.scale


def radon_coefficients(data: ResidueData, domain: DomainSpec, plan,
                       tol=TOL_ARITH):
    """Sample every coefficient of the transform on the plan's charts."""
    p = data.variety.p
    indices = sorted({label_index(lb, p) for lb in radon_labels(data.variety.n, p)})
    baseline = _baseline_degree(data, domain, tol)
    return _sample_charts(
        data, domain, plan, indices, baseline, tol, cls=RadonTransform
    )


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

    def to_dict(self):
        return {
            "passed": bool(self.passed),
            "max_residual": self.max_residual,
            "max_relative": self.max_relative,
            "tol": self.tol,
            "checked": self.checked,
        }


def _probe_offsets(domain, probes):
    """Deterministic interior probe offsets for a domain, at 0.45 of
    each radius."""
    out = []
    names = domain.varying
    for k in range(probes):
        phase = 2.0 * np.pi * k / probes + 0.9
        out.append(
            {
                nm: 0.45 * domain.radii[nm] * np.exp(1j * (phase + 0.61 * i))
                for i, nm in enumerate(names)
            }
        )
    return out


def verify_shock_relations(t: TraceTable, tol, probes=3, nodes=32):
    """Check the closedness identities of the transform on a trace table:
    for each base slot i and every fiber slot j whose parameter varies,
    the b_i-derivative of u_{I+e_j} must equal the a_i^j-derivative of
    u_I. Derivatives are taken by Cauchy integrals on circles of radius
    SHOCK_MARGIN * (domain radius), so the table's domain must leave that
    much margin in both parameters.
    """
    n, p = t.n, t.p
    pairs = []
    for i in range(1, n + 1):
        if f"b{i}" not in t.domain.radii:
            raise InsufficientMargin(f"parameter b{i} is frozen; cannot differentiate")
        for j in range(1, p + 1):
            a_name = f"a{i}.{j}"
            if a_name not in t.domain.radii:
                if j == 1:
                    raise InsufficientMargin(
                        f"parameter {a_name} is frozen; cannot differentiate"
                    )
                continue
            pairs.append((i, j, a_name))

    indices = [
        idx for idx in t.indices()
        if all(
            tuple(np.add(idx, _unit(j - 1, p))) in t.entries
            for (_, j, _) in pairs
        )
    ]

    max_abs, max_rel, details = 0.0, 0.0, []
    checked = 0
    for off in _probe_offsets(t.domain, probes):
        chart0 = t.domain.chart_at(off)
        for idx in indices:
            for (i, j, a_name) in pairs:
                up = tuple(np.add(idx, _unit(j - 1, p)))
                b_name = f"b{i}"

                def u_of(name, index):
                    return lambda z: t.value(index, chart0.replace(**{name: z}))

                here = dict(zip(chart0.param_names(), chart0.to_params()))
                db = cauchy_derivative(
                    u_of(b_name, up), complex(here[b_name]),
                    SHOCK_MARGIN * t.domain.radii[b_name], 1, nodes,
                )
                da = cauchy_derivative(
                    u_of(a_name, idx), complex(here[a_name]),
                    SHOCK_MARGIN * t.domain.radii[a_name], 1, nodes,
                )
                resid = abs(db - da)
                scale = max(1.0, abs(db), abs(da))
                max_abs = max(max_abs, resid)
                max_rel = max(max_rel, resid / scale)
                checked += 1
                details.append((idx, i, j, resid))
    return ShockReport(max_abs <= tol, max_abs, max_rel, tol, checked, tuple(details))


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

    @property
    def holomorphic(self):
        return all(s == "holomorphic" for s in self.status.values())

    def to_dict(self):
        return {
            "status": {str(k): v for k, v in self.status.items()},
            "pole_samples": {
                str(k): [int(i) for i in v] for k, v in self.pole_samples.items()
            },
            "tol": self.tol,
        }


def _poly_features(offsets, names, radii, deg):
    """Monomials of total degree <= deg in the scaled offsets, one row
    per offset."""
    exps = [e for e in np.ndindex(*([deg + 1] * len(names))) if sum(e) <= deg]
    s = np.array([[complex(off.get(nm, 0.0)) / radii[nm] for nm in names]
                  for off in offsets], dtype=complex).reshape(len(offsets), len(names))
    return np.prod(s[:, None, :] ** np.array(exps), axis=-1)


def verify_holomorphy(rt: RadonTransform, tol):
    """Classify each coefficient as pole-free on the domain or flag its
    pole samples.

    A sample is a pole candidate when evaluation already blew up there
    (the support met the plane on the weight's divisor). Pole-free
    coefficients must additionally admit a converging local polynomial
    model on the clean samples (degree swept upward until the residual
    falls below tol relative to the coefficient/term scale); when neither
    a model of the values nor one of the reciprocals fits, the verdict is
    inconclusive (reported, never silently passed). A numerical
    classification, not a proof.
    """
    names = rt.domain.varying
    mask = rt.clean_mask()
    nclean = int(np.sum(mask))
    clean_offsets = [off for off, keep in zip(rt.offsets, mask) if keep]
    tscale = max(rt.term_scale(), 1e-300)

    def sweep(values, offsets):
        best = np.inf
        best_deg = 0
        for deg in range(1, HOLO_MAX_FIT_DEGREE + 1):
            feats = _poly_features(offsets, names, rt.domain.radii, deg)
            if feats.shape[0] <= feats.shape[1]:
                break
            sol, _, _, _ = np.linalg.lstsq(feats, values, rcond=None)
            resid = float(np.max(np.abs(feats @ sol - values)))
            if resid < best:
                best, best_deg = resid, deg
        return best, best_deg

    status, poles, diags = {}, {}, {}
    flagged = tuple(int(i) for i, f in enumerate(rt.flags) if f == POLE)
    for label, vals in rt.coeffs.items():
        clean_vals = np.asarray(vals)[mask]
        vmax = float(np.max(np.abs(clean_vals))) if clean_vals.size else 0.0
        resid, deg = sweep(clean_vals, clean_offsets)
        fit_ok = resid <= tol * max(vmax, tscale)

        inv_resid, inv_deg = np.inf, 0
        big = np.abs(clean_vals) > 1e-9 * tscale
        if int(np.sum(big)) >= 6:
            inv_offsets = [o for o, keep in zip(clean_offsets, big) if keep]
            inv_resid, inv_deg = sweep(1.0 / clean_vals[big], inv_offsets)
            inv_resid /= max(1e-300, float(np.max(np.abs(1.0 / clean_vals[big]))))

        if flagged:
            status[label] = "meromorphic"
        elif fit_ok:
            status[label] = "holomorphic"
        elif inv_resid <= tol:
            status[label] = "meromorphic"
        else:
            status[label] = "inconclusive"
        poles[label] = flagged
        diags[label] = {
            "fit_residual": resid, "fit_degree": deg, "value_scale": vmax,
            "reciprocal_residual": inv_resid, "reciprocal_degree": inv_deg,
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
        if abs(np.linalg.det(m)) < 1e-12:
            raise ValueError("affine map is not invertible")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "offset", v)

    @classmethod
    def identity(cls, k):
        return cls(np.eye(k, dtype=complex), np.zeros(k, dtype=complex))

    def __call__(self, params):
        return self.matrix @ np.asarray(params, dtype=complex) + self.offset


@dataclass(frozen=True)
class EquivarianceReport:
    passed: bool
    max_residual: float
    max_relative: float
    tol: float
    probes: int

    def to_dict(self):
        return {
            "passed": bool(self.passed),
            "max_residual": self.max_residual,
            "max_relative": self.max_relative,
            "tol": self.tol,
            "probes": self.probes,
        }


def reparametrize_check(data: ResidueData, domain: DomainSpec, mu: AffineMap,
                        tol=1e-8, probes=4):
    """Compare the transform of the reparametrized family against the
    pullback of the original transform through ``mu``.

    The direct side differentiates the composed incidence equation
    l(x, y; t') symbolically in the new parameters and sums residues
    against those derivative polynomials; the pullback side evaluates the
    standard coefficient labels at mu(t') and applies the chain rule
    matrix. ``domain`` is the probe domain in the new parameters.

    For an affine ``mu`` the direct side's integrand -d(composed)/dt'_c
    is sum_row M[row, c] * (y_row, or 1 on the b row), so the direct sum
    equals the pullback term by term for any residue weights: the check
    tests the chain rule through the transform's labels, not the
    residues themselves.
    """
    n, p = data.variety.n, data.variety.p
    if n != 1:
        raise UnsupportedDimension("reparametrize_check supports n = 1")
    k = n * (p + 1)
    names = domain.chart.param_names()

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

    max_abs, max_rel = 0.0, 0.0
    for off in _probe_offsets(domain, probes):
        tp = domain.chart_at(off).to_params()
        theta = mu(tp)
        chart = PlaneChart.from_params(n, p, theta)
        ev = evaluate_chart(data, chart, TOL_ARITH, expected_degree=None)

        # pullback side: label coefficients at the image chart, chain rule
        u = {}
        for j in range(p + 1):
            idx = _unit(j - 1, p) if j >= 1 else (0,) * p
            u[j] = ev.value(idx)[0]
        pull = np.array(
            [
                sum(mu.matrix[row, c] * (u[row + 1] if row < p else u[0])
                    for row in range(k))
                for c in range(k)
            ],
            dtype=complex,
        )

        # direct side: symbolic derivative of the composed incidence form
        direct = np.zeros(k, dtype=complex)
        tvals = dict(zip(tvars, tp))
        for c in range(k):
            acc = 0j
            for coords, w in ev.terms:
                point = dict(zip(data.variety.vars, coords))
                point.update(tvals)
                acc += w * (-d_composed[c].evaluate(point))
            direct[c] = acc

        resid = float(np.max(np.abs(direct - pull)))
        scale = max(1.0, float(np.max(np.abs(pull))))
        max_abs = max(max_abs, resid)
        max_rel = max(max_rel, resid / scale)
    return EquivarianceReport(max_abs <= tol, max_abs, max_rel, tol, probes)


# ---------------------------------------------------------------------------
# trace extension along the closedness relations
# ---------------------------------------------------------------------------

def _torus_grid(f, pts):
    """Values of ``f`` at the points of a torus_nodes grid, one array axis
    per parameter."""
    grid = np.empty(pts.shape[:-1], dtype=complex)
    for idx in np.ndindex(*grid.shape):
        grid[idx] = f(pts[idx])
    return grid


def propagate_trace_extension(t: TraceTable, u0_ext, big_domain: DomainSpec,
                              order, fft_nodes=32):
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

    ``u0_ext`` takes a PlaneChart and returns the extended order-0 trace.
    Returns a TraceTable on P' carrying sampled values and the fitted
    models (use ``model_value`` to evaluate them off-grid).

    Raises PathCrossesPole when the extension evaluator blows up on P'
    (the extension is meromorphic there) and InsufficientMargin when the
    required parameters are frozen.
    """
    n, p = t.n, t.p
    if n != 1:
        raise UnsupportedDimension("trace propagation supports n = 1")
    names = big_domain.varying
    if "b1" not in names or "a1.1" not in names:
        raise InsufficientMargin("propagation needs b1 and a1.1 to vary")
    if set(names) != set(t.domain.varying):
        raise ValueError("enlarged domain must vary the same parameters")
    small_params = dict(zip(t.domain.chart.param_names(), t.domain.chart.to_params()))
    big_params = dict(zip(big_domain.chart.param_names(), big_domain.chart.to_params()))
    for nm in names:
        if small_params[nm] != big_params[nm]:
            raise ValueError("domains must share their center")
        if nm != "b1" and not np.isclose(
            t.domain.radii[nm], big_domain.radii[nm]
        ):
            raise ValueError("only the b_1 radius may grow")
    if big_domain.radii["b1"] < t.domain.radii["b1"]:
        raise ValueError("enlarged domain must contain the original")

    ib = names.index("b1")
    ia = names.index("a1.1")
    center = [complex(big_params[nm]) for nm in names]
    radii = [float(big_domain.radii[nm]) for nm in names]
    b_star = center[ib]

    def chart_of(point):
        off = {nm: complex(point[i]) - center[i] for i, nm in enumerate(names)}
        return big_domain.chart_at(off)

    pts = torus_nodes(center, radii, fft_nodes)
    try:
        grid0 = _torus_grid(lambda point: u0_ext(chart_of(point)), pts)
    except (PoleDetected, DegreeDrop) as exc:
        raise PathCrossesPole(
            f"order-0 extension blows up on the enlarged polydisc: {exc}"
        ) from exc
    model0 = polydisc_fit_grid(grid0, center, radii)
    # a pole strictly inside the polydisc spoils Taylor convergence even
    # when no sample lands on the divisor; validate off-grid
    verr = 0.0
    for tprobe in range(4):
        w = np.exp(1j * (0.53 + 1.31 * tprobe))
        point = [
            center[ax] + 0.62 * radii[ax] * w * np.exp(0.29j * (ax + 1))
            for ax in range(len(names))
        ]
        try:
            verr = max(verr, abs(model0(point) - u0_ext(chart_of(point))))
        except (PoleDetected, DegreeDrop) as exc:
            raise PathCrossesPole(
                f"order-0 extension blows up on the enlarged polydisc: {exc}"
            ) from exc
    vscale = max(1.0, float(np.max(np.abs(grid0))))
    if verr > 1e-6 * vscale:
        raise PathCrossesPole(
            f"order-0 extension is not holomorphic on the enlarged polydisc "
            f"(Taylor model validation error {verr:.3e})"
        )
    model0.build_error = verr
    models = {(0,) * p: model0}
    grids = {(0,) * p: grid0}

    a_axes = [i for i in range(len(names)) if i != ib]
    # the torus points with a trailing axis for the quadrature nodes
    q = [pts[..., ax, None] for ax in range(len(names))]
    a_center = [center[i] for i in a_axes]
    a_radii = [radii[i] for i in a_axes]

    prev_idx = (0,) * p
    for k in range(1, order + 1):
        new_idx = (k,) + (0,) * (p - 1)

        # base values u_new(a, b*) from the input table (inside P)
        def base_eval(a_point):
            point = [0j] * len(names)
            for pos, ax in enumerate(a_axes):
                point[ax] = a_point[pos]
            point[ib] = b_star
            return t.value(new_idx, chart_of(point))

        try:
            base_grid = _torus_grid(base_eval, torus_nodes(a_center, a_radii, fft_nodes))
        except (PoleDetected, DegreeDrop) as exc:
            raise PathCrossesPole(
                f"base slice for level {k} is contaminated: {exc}"
            ) from exc
        base_model = polydisc_fit_grid(base_grid, a_center, a_radii)

        deriv = models[prev_idx].derivative(ia)
        grid_k = base_model([pts[..., ax] for ax in a_axes]) + gauss_legendre_segment(
            lambda beta: deriv(q[:ib] + [beta] + q[ib + 1:]), b_star, pts[..., ib]
        )
        models[new_idx] = polydisc_fit_grid(grid_k, center, radii)
        grids[new_idx] = grid_k
        prev_idx = new_idx

    offsets = TorusPlan(fft_nodes).offsets(big_domain)
    m = len(offsets)
    entries = {idx: grids[idx].ravel() for idx in grids}
    term_scales = np.zeros(m)
    for g in grids.values():
        term_scales = np.maximum(term_scales, np.abs(g.ravel()))
    out = TraceTable(
        t.data, big_domain, offsets, entries, term_scales,
        (CLEAN,) * m, max(order, t.max_order), t.baseline_degree,
        models=models, tol=t.tol,
    )
    return out
