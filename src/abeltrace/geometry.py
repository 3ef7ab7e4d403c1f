"""Complete-intersection varieties over a base, affine plane-family charts,
fiber solving, and the Veronese lift of a hypersurface family.

Variable and equation ordering convention (fixed repo-wide): variables are
ordered (x_1..x_n, y_1..y_p) and equations (f_1..f_p, l_1..l_n); the
punctual residue divides by exactly this Jacobian determinant, which makes
round trips sign-exact. For a chart with matrix ``a`` the determinant
equals (-1)^(n p) times the y-Jacobian of the substituted system.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegreeDrop,
    DimensionMismatch,
    ExcessPoints,
    NonConvergence,
    UnsupportedDimension,
    UnsupportedShape,
)
from .multipoly import MultiPoly, _monomials, _substitute_terms, _term_matrix
from .numeric import TOL_ARITH, UniPoly, _companion_roots, _scaled_rows, poly_roots

ESCAPE_RADIUS = 1e8


# ---------------------------------------------------------------------------
# charts and domains
# ---------------------------------------------------------------------------

class PlaneChart:
    """Affine chart of the family of p-planes
    { x_i = sum_j a[i][j] y_j + b[i], i = 1..n }."""

    __slots__ = ("n", "p", "a", "b")

    def __init__(self, a, b):
        a = np.atleast_2d(np.asarray(a, dtype=complex))
        b = np.atleast_1d(np.asarray(b, dtype=complex))
        if a.shape[0] != b.shape[0]:
            raise DimensionMismatch(f"a has {a.shape[0]} rows but b has {b.shape[0]} entries")
        self.n, self.p = int(a.shape[0]), int(a.shape[1])
        self.a, self.b = a, b

    # flattened parameter order: a1.1..a1.p, a2.1.., ..., b1..bn
    def param_names(self):
        names = [f"a{i + 1}.{j + 1}" for i in range(self.n) for j in range(self.p)]
        return tuple(names + [f"b{i + 1}" for i in range(self.n)])

    def to_params(self):
        return np.concatenate([self.a.ravel(), self.b])

    @staticmethod
    def from_params(n, p, vec):
        return Charts.from_params(n, p, np.reshape(vec, (1, -1)))[0]

    def __repr__(self):
        return f"PlaneChart(a={self.a.tolist()}, b={self.b.tolist()})"


class Charts:
    """m charts of one shape as arrays, ``a`` (m, n, p) and ``b`` (m, n):
    the batch a chart family is solved on, and a sequence of PlaneCharts,
    each built when indexed."""

    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)

    @classmethod
    def stack(cls, charts):
        """The batch of a sequence of PlaneCharts of one shape;
        DimensionMismatch for charts of different (n, p)."""
        shape = (len(charts), charts[0].n, charts[0].p) if len(charts) else (0, 0, 0)
        try:
            return cls(np.reshape([ch.a for ch in charts], shape),
                       np.reshape([ch.b for ch in charts], shape[:2]))
        except ValueError:
            raise DimensionMismatch("charts of different shapes (n, p) in one list") from None

    @classmethod
    def from_params(cls, n, p, params):
        """The batch of parameter rows (m, n (p + 1)), each in to_params order."""
        params = np.asarray(params, dtype=complex)
        if params.ndim != 2 or params.shape[1] != n * (p + 1):
            raise DimensionMismatch(f"parameter rows of shape {params.shape} for n={n}, p={p}")
        return cls(params[:, : n * p].reshape(-1, n, p), params[:, n * p:])

    def params(self):
        return np.concatenate([self.a.reshape(len(self.b), -1), self.b], axis=1)

    def __len__(self):
        return len(self.b)

    def __getitem__(self, s):
        # an int only; past the end, IndexError ends iteration
        return PlaneChart(self.a[operator.index(s)], self.b[s])


@dataclass(frozen=True)
class DomainSpec:
    """Polydisc in chart-parameter space: a center chart plus positive
    radii for the varying parameters (parameters not listed are frozen)."""

    chart: PlaneChart
    radii: dict

    def __post_init__(self):
        # parameter name -> position in the flattened parameter vector
        positions = {k: i for i, k in enumerate(self.chart.param_names())}
        for key, r in self.radii.items():
            if key not in positions:
                raise DimensionMismatch(f"unknown parameter {key!r}")
            if not (r > 0 and np.isfinite(r)):
                raise ValueError(f"radius for {key!r} must be positive and finite")
        object.__setattr__(self, "_positions", positions)
        # the varied parameter names, in parameter order
        object.__setattr__(self, "varying", tuple(k for k in positions if k in self.radii))

    def offset_array(self, offsets):
        """Offset dicts keyed by parameter name (a missing key is 0) as an
        (m, len(varying)) array; DimensionMismatch for a key not varied."""
        cols = {k: i for i, k in enumerate(self.varying)}
        out = np.zeros((len(offsets), len(cols)), dtype=complex)
        for s, off in enumerate(offsets):
            for key, dz in off.items():
                if key not in cols:
                    raise DimensionMismatch(f"parameter {key!r} is not varied by the domain")
                out[s, cols[key]] = dz
        return out

    def charts_at(self, offsets):
        """Charts at center + each row of ``offsets``, an (m, len(varying))
        array aligned with ``self.varying``; DimensionMismatch otherwise,
        ValueError for a non-finite offset."""
        offsets = np.asarray(offsets, dtype=complex)
        if offsets.ndim != 2 or offsets.shape[1] != len(self.varying):
            raise DimensionMismatch(f"offsets of shape {offsets.shape} for {self.varying}")
        if not np.all(np.isfinite(offsets)):
            raise ValueError("chart offsets must be finite")
        params = np.repeat(self.chart.to_params()[None], len(offsets), axis=0)
        params[:, [self._positions[k] for k in self.varying]] += offsets
        return Charts.from_params(self.chart.n, self.chart.p, params)

    def chart_at(self, offsets):
        """Chart at center + offsets, keyed by parameter name or a sequence
        aligned with ``self.varying``, as charts_at checks them."""
        return self.charts_at(self.offset_array([offsets]) if isinstance(offsets, dict)
                              else [offsets])[0]


# ---------------------------------------------------------------------------
# varieties and residue data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LiftInfo:
    """Provenance of a Veronese lift: the original variety and the
    monomial coordinate map (MultiPolys in the original variables)."""

    original: "VarietySpec"
    coordinate_map: tuple
    degree: int


class VarietySpec:
    """Complete intersection of codimension p over an n-dimensional base.

    ``defs`` lists p polynomials in the variables x_vars + y_vars whose
    common zero locus is proper over the working domains: fibers of the
    projection to the chart parameters are finite. The fiber degree belongs
    to a domain, not to the variety: trace sampling takes it at the
    domain's centre chart and refuses an empty fiber there.
    """

    __slots__ = ("x_vars", "y_vars", "defs", "lift", "_partials")

    def __init__(self, x_vars, y_vars, defs, lift=None):
        self.x_vars = tuple(x_vars)
        self.y_vars = tuple(y_vars)
        if not self.x_vars or not self.y_vars:
            raise DimensionMismatch("need at least one base and one fiber variable")
        if len(defs) != len(self.y_vars):
            raise DimensionMismatch(
                f"{len(defs)} defining polynomials for {len(self.y_vars)} fiber variables"
            )
        allv = self.vars
        fixed = []
        for f in defs:
            if f.vars != allv:
                f = f.with_vars(allv)
            if f.is_zero:
                raise ValueError("zero defining polynomial")
            fixed.append(f)
        self.defs = tuple(fixed)
        self.lift = lift
        # every partial, def by def
        self._partials = _term_matrix([f.partial(var) for f in self.defs for var in allv])

    @property
    def vars(self):
        return self.x_vars + self.y_vars

    @property
    def n(self):
        return len(self.x_vars)

    @property
    def p(self):
        return len(self.y_vars)

    def __repr__(self):
        return (f"VarietySpec(x={list(self.x_vars)}, y={list(self.y_vars)}, "
                f"p={self.p})")


@dataclass(frozen=True)
class ResidueData:
    """Rational residue data: a variety, a polynomial numerator, and an
    optional polynomial denominator weight sitting outside the
    residue-defining system (the computable form of a meromorphic
    numerator). The represented object is
    numerator / (weight * defs_1 * ... * defs_p) dx ^ dy, taken as a
    residue along the defs."""

    variety: VarietySpec
    numerator: MultiPoly
    label: str = ""
    weight: MultiPoly = None

    def __post_init__(self):
        allv = self.variety.vars
        num = self.numerator if self.numerator.vars == allv else self.numerator.with_vars(allv)
        object.__setattr__(self, "numerator", num)
        if self.weight is not None:
            w = self.weight if self.weight.vars == allv else self.weight.with_vars(allv)
            object.__setattr__(self, "weight", w)

    def weight_at(self, coords):
        return self.weight.evaluate(coords) if self.weight is not None else 1.0 + 0j


# ---------------------------------------------------------------------------
# fibers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FiberPoint:
    coords: tuple  # values aligned with variety.vars = (x.., y..)
    jacobian: complex
    cluster_size: int = 1


@dataclass(frozen=True, eq=False)
class Fiber:
    """Distinct fiber points as arrays: coordinates (k, n + p) aligned with
    variety.vars, Jacobian determinants (k,) and multiplicities (k,), a
    cluster being one point of multiplicity above 1."""

    coords: np.ndarray
    jacobians: np.ndarray
    multiplicities: np.ndarray

    @property
    def total_multiplicity(self):
        return int(self.multiplicities.sum())


def plane_substitute(v: VarietySpec, chart: PlaneChart):
    """Eliminate the base variables: substitute x_i = sum_j a_ij y_j + b_i
    into each defining polynomial, returning p polynomials in y only."""
    if chart.n != v.n or chart.p != v.p:
        raise DimensionMismatch(f"chart is ({chart.n},{chart.p}) but variety is ({v.n},{v.p})")
    # x_i -> b_i + sum_j a_ij y_j; the term order 1, y_1..y_p fixes the
    # order of every sum in substitute, which leaves each y alone
    exps = [(0,) * v.p] + [tuple(int(k == j) for k in range(v.p)) for j in range(v.p)]
    mapping = {
        xv: MultiPoly(v.y_vars, dict(zip(exps, (chart.b[i], *chart.a[i]))))
        for i, xv in enumerate(v.x_vars)
    }
    return [f.substitute(mapping) for f in v.defs]


def full_jacobian(v: VarietySpec, chart: PlaneChart, coords):
    """det of the (n+p) x (n+p) Jacobian of (defs..., plane equations...)
    with respect to (x_vars..., y_vars...) at the given point, or, for
    coordinate arrays of one shape, an array of the value at each point."""
    dets = _jacobian_dets(v, chart.a, coords)
    return dets if dets.ndim else complex(dets)


def _jacobian_dets(v, a, coords):
    """full_jacobian at ``coords`` (values or arrays of shape S) of charts
    ``a``, shape T + (n, p) with T broadcasting to S: F_defs over [I, -a]."""
    f = _monomials(v._partials[0], coords) @ v._partials[1]
    j = np.zeros(f.shape[:-1] + (len(v.vars),) * 2, dtype=complex)
    j[..., :v.p, :] = f.reshape(j.shape[:-2] + (v.p, len(v.vars)))
    j[..., v.p:, :v.n] = np.eye(v.n)
    j[..., v.p:, v.n:] = -a
    return np.linalg.det(j)


def _newton_polish(exps, coefs, y, active):
    """At most four Newton steps, in place, from each active point y[c, k]
    on chart c's square system: values, then Jacobian rows, at z are
    _monomials(exps, z) @ coefs[c]. A point stops on a step below
    1e-15 relative, a singular Jacobian or |z| > ESCAPE_RADIUS. Returns
    each point's largest |value| over evaluation scale, coordinates at
    least 1 as in solve_bivariate's candidate rule (0 past the radius)."""
    p = y.shape[-1]
    for _ in range(4):
        ci, pi = np.nonzero(active)
        if not ci.size:
            break
        ya = y[ci, pi]
        vals = (_monomials(exps, tuple(ya.T))[:, None] @ coefs[ci])[:, 0]
        jm = vals[:, p:].reshape(-1, p, p)
        go = np.linalg.det(jm) != 0
        step = np.zeros_like(ya)
        step[go] = np.linalg.solve(jm[go], vals[go, :p, None])[..., 0]
        y[ci, pi] = ya = ya - step
        active[ci, pi] = go & (np.abs(step).max(axis=1) >= 1e-15 * (1.0 + np.abs(ya).max(axis=1)))
        active &= np.abs(y).max(axis=-1) <= ESCAPE_RADIUS
    z = tuple(np.where(np.abs(y) <= ESCAPE_RADIUS, y, 0.0).transpose(2, 0, 1))
    vals = _monomials(exps, z) @ coefs[..., :p]
    floor = [np.maximum(1.0, np.abs(c)) for c in z]
    scale = _monomials(exps, floor) @ np.abs(coefs[..., :p])
    res = np.max(np.abs(vals) / np.maximum(scale.real, 1e-300), axis=-1, initial=0.0)
    return np.where(np.abs(y).max(axis=-1, initial=0.0) <= ESCAPE_RADIUS, res, 0.0)


def _polish_solutions(polys, points, multiplicities):
    """_newton_polish, in place, from each simple one of ``points`` (k, p)
    of multiplicities (k,); returns both, and raises NonConvergence when a
    polished point misses the system by over 1e-6."""
    exps, coefs = _term_matrix(
        list(polys) + [f.partial(nm) for f in polys for nm in polys[0].vars])
    simple = multiplicities[None] == 1
    worst = _newton_polish(exps, coefs[None], points[None], simple.copy())[simple].max(initial=0.0)
    if worst > 1e-6:
        raise NonConvergence(f"polished fiber point misses the system (relative residual "
                             f"{worst:.3e})", worst_residual=worst)
    return points, multiplicities


# -- shape-specific solvers -------------------------------------------------

def _branch_roots(f, j, points, multiplicities):
    """One triangular stage: each branch of ``points`` (k, p), whose
    coordinate j is still unsolved (0), with multiplicities (k,), becomes
    one branch per poly_roots root in y_j of f at its solved coordinates,
    of the product multiplicity. A branch where f has degree 0 in y_j
    ends; ValueError where f vanishes there. Every branch's coefficient
    row in y_j is one _monomials(...) @ coefs from f.matrix()."""
    exps, coefs = f.matrix()
    base = exps.copy()
    base[:, j] = 0
    rows = _monomials(base, tuple(points.T)) @ (coefs * (exps[:, j, None] == np.arange(f._degrees[j] + 1)))
    counts, found = [], []
    for g in map(UniPoly, rows):
        if g.is_zero:
            raise ValueError("substituted system vanishes identically; not zero-dimensional")
        roots = poly_roots(g) if g.degree >= 1 else []
        counts.append(len(roots))
        found += roots
    points = np.repeat(points, counts, axis=0)
    points[:, j] = [r for r, _ in found]
    return points, np.repeat(multiplicities, counts) * np.array([m for _, m in found], dtype=int)


def _solve_univariate(subs):
    """Roots and multiplicities of the one substituted def, unpolished."""
    return _branch_roots(subs[0], 0, np.zeros((1, 1), dtype=complex), np.ones(1, dtype=int))


def _triangular_order(subs, y_names):
    """Order (def_index, variable position in y_names) pairs so each def
    is univariate in a new variable given the previously solved ones;
    None if not triangular."""
    used = np.array([f._degrees for f in subs]) > 0
    unsolved = np.ones(len(y_names), dtype=bool)
    remaining, order = list(range(len(subs))), []
    while remaining:
        k = next((k for k in remaining if np.count_nonzero(used[k] & unsolved) == 1), None)
        if k is None:
            return None
        j = int(np.flatnonzero(used[k] & unsolved)[0])
        order.append((k, j))
        unsolved[j] = False
        remaining.remove(k)
    return order


def _solve_triangular(subs, order):
    """Polished points (k, p) and multiplicities (k,) of a triangular
    system, stage by stage in ``order`` (_branch_roots)."""
    points, multiplicities = np.zeros((1, len(subs)), dtype=complex), np.ones(1, dtype=int)
    for k, j in order:
        points, multiplicities = _branch_roots(subs[k], j, points, multiplicities)
    return _polish_solutions(subs, points, multiplicities)


def _coefficient_tensors(systems, m):
    """Dense coefficients of two polynomials in (u, w), term maps whose
    coefficients may be arrays over m charts: [c, j, i] holds u^i w^j on
    chart c, both written to arrays of one u-width. Top rows and columns
    zero on every chart are dropped, down to the larger u-degree. Returns
    them and their (w, u) degrees."""
    width = 1 + max(e[0] for terms in systems for e in terms)
    out, degrees = [], []
    for terms in systems:
        t = np.zeros((m, 1 + max(e[1] for e in terms), width), dtype=complex)
        for (i, j), c in terms.items():
            t[:, j, i] = c
        rows, cols = np.nonzero(t.any(axis=0))
        out.append(t)
        degrees.append((max(rows, default=0), max(cols, default=0)))
    du = max(d for _, d in degrees)
    return [t[:, :dw + 1, :du + 1] for t, (dw, _) in zip(out, degrees)], degrees


def _resultants(t1, t2, bound):
    """Resultants in u of the pairs (t1[c], t2[c]) of _coefficient_tensors:
    the Sylvester determinant in w, sampled at bound + 1 nodes on a circle
    and interpolated. Returns (charts, bound + 1) coefficients, lowest
    first, those below 1e-11 of a row's largest set to 0 (a row of zeros
    where the resultant vanishes identically)."""
    count = bound + 1
    radius = 1.37
    nodes = radius * np.exp(2j * np.pi * np.arange(count) / count)
    dw1, dw2 = t1.shape[1] - 1, t2.shape[1] - 1
    node_powers = nodes[:, None] ** np.arange(t1.shape[2])
    cf = node_powers @ np.swapaxes(t1, 1, 2)
    cg = node_powers @ np.swapaxes(t2, 1, 2)
    size = dw1 + dw2
    syl = np.zeros((len(t1), count, size, size), dtype=complex)
    for r in range(dw2):
        syl[:, :, r, r: r + dw1 + 1] = cf[:, :, ::-1]
    for r in range(dw1):
        syl[:, :, dw2 + r, r: r + dw2 + 1] = cg[:, :, ::-1]
    dets = np.linalg.det(syl)
    dscale = np.max(np.abs(dets), axis=1, keepdims=True)
    # interpolate: the DFT of the values at radius * e^(2 pi i k / count)
    coeffs = np.fft.fft(dets / np.where(dscale == 0.0, 1.0, dscale)) / count
    coeffs /= radius ** np.arange(count)
    cutoff = 1e-11 * np.max(np.abs(coeffs), axis=1, keepdims=True)
    return np.where(np.abs(coeffs) <= cutoff, 0.0, coeffs)


def solve_bivariate(g1: MultiPoly, g2: MultiPoly):
    """Common zeros of two polynomials in two variables via one resultant
    elimination step (evaluation-interpolation of the Sylvester
    determinant), then back-substitution and Newton polish: first by the
    family kernel (_resultant_points, _polished_points) when both
    polynomials involve both variables, as simple points if it certifies
    the system, else one resultant root at a time.

    Returns points (k, 2), aligned with the polynomials' variables (u, w),
    and their multiplicities (k,); (0, 2) and (0,) arrays when the
    resultant has degree 0. Raises ExcessPoints when the merged total
    multiplicity exceeds the resultant's degree.
    """
    if g1.vars != g2.vars or len(g1.vars) != 2:
        raise UnsupportedShape("solve_bivariate needs two polynomials in the same two variables")
    u, w = g1.vars  # eliminate w, keep u
    du1, du2 = g1.degree(u), g2.degree(u)
    dw1, dw2 = g1.degree(w), g2.degree(w)
    if dw1 < 0 or dw2 < 0:
        raise ValueError("a polynomial vanishes identically")
    if dw1 == 0 and dw2 == 0:
        raise UnsupportedShape("neither polynomial involves the elimination variable")

    (m1, m2), degrees = _coefficient_tensors((g1.terms, g2.terms), 1)
    coeffs = _resultants(m1, m2, max(du1 * dw2 + du2 * dw1, 1))
    if not coeffs.any():
        raise ValueError("resultant vanishes identically; common component present")
    res_poly = UniPoly(coeffs[0])
    if res_poly.degree < 1:
        return np.zeros((0, 2), dtype=complex), np.zeros(0, dtype=int)
    if min(map(min, degrees)) > 0:
        idx, y = _polished_points((m1, m2), *_resultant_points(m1, m2, degrees, coeffs,
                                                               res_poly.degree))
        if len(idx):
            return y[0], np.ones(len(y[0]), dtype=int)

    m1, m2 = m1[0], m2[0]
    du = m1.shape[1] - 1

    points, mults = [np.zeros((0, 2), dtype=complex)], [np.zeros(0, dtype=int)]
    for u_val, u_mult in poly_roots(res_poly):
        upow = u_val ** np.arange(du + 1)
        h1 = UniPoly(m1 @ upow)
        h2 = UniPoly(m2 @ upow)
        lead, (other, dense) = (h1, (g2, m2)) if h1.degree >= h2.degree else (h2, (g1, m1))
        if lead.degree < 1:
            continue
        w_vals = np.array([w_val for w_val, _ in poly_roots(lead)])
        hit = (np.abs(other.evaluate((u_val, w_vals))) <= 1e-6 * max(np.abs(dense).max(), 1e-300)
               * np.maximum(1.0, np.abs(w_vals)) ** other.degree(w))
        # a multiple resultant root with a single fiber candidate is a
        # genuine multiple intersection point; keep its full count
        k = int(hit.sum())
        points.append(np.column_stack([np.full(k, u_val), w_vals[hit]]))
        mults.append(np.full(k, u_mult if k == 1 else 1))
    y, mults = _polish_solutions([g1, g2], np.concatenate(points), np.concatenate(mults))

    # merge duplicates into clusters: each point joins the first earlier
    # representative within 1e-7 of it
    first = np.arange(len(y))
    for i in range(len(y)):
        reps = np.flatnonzero(first[:i] == np.arange(i))
        near = reps[np.max(np.abs(y[i] - y[reps]), axis=1) < 1e-7 * (1.0 + np.max(np.abs(y[i])))]
        first[i] = near[0] if len(near) else i
    merged = np.zeros(len(y), dtype=int)
    np.add.at(merged, first, mults)
    keep = first == np.arange(len(y))
    if (total := int(merged.sum())) > res_poly.degree:
        raise ExcessPoints(f"{total} points found, above the resultant's degree {res_poly.degree}")
    return y[keep], merged[keep]


def _lifted_plane(cmap, a, b):
    """Term map of the plane pulled back through the coordinate map,
    cmap[0] - b_1 - sum_j a_1j cmap[j]; a, b may carry a chart axis."""
    terms = dict(cmap[0].terms)
    terms[(0, 0)] = terms.get((0, 0), 0j) - b[..., 0]
    for j in range(1, len(cmap)):
        for e, c in cmap[j].terms.items():
            terms[e] = terms.get(e, 0j) - c * a[..., 0, j - 1]
    return terms


def _lift_points(lift, points):
    """Points of the original curve (..., 2) in the lifted coordinates: the
    monomials of degree 1..lift.degree, in the coordinate map's order."""
    return _monomials(np.array(_monomials_up_to(lift.degree)), np.moveaxis(points, -1, 0))


def _solve_lifted(v, chart):
    """Fiber of a lifted variety through the graph correspondence: pull the
    plane back to the original chart and solve there. Returns
    solve_bivariate's points of the original curve and multiplicities."""
    if chart.n != 1:
        raise UnsupportedShape("lifted fibers support a single plane equation")
    hyper = MultiPoly(v.lift.original.vars, _lifted_plane(v.lift.coordinate_map, chart.a, chart.b))
    return solve_bivariate(v.lift.original.defs[0], hyper)


def solve_fiber(v: VarietySpec, chart: PlaneChart, expected_degree):
    """All intersection points of the variety with the chart's plane.

    Supported shapes: p = 1 (univariate after substitution); triangular
    cascades for p >= 2; general p = 2 via one resultant step; Veronese
    lifts via the graph correspondence. Every path returns point and
    multiplicity arrays: y values (k, p), to which the plane adds the x
    values, or on the lifted path points of the original curve (k, 2),
    which _lift_points maps. The Fiber holds the coordinates aligned with
    v.vars, the determinant of the full (n+p) x (n+p) Jacobian of (defs,
    plane equations) in the repo variable order and the multiplicity of
    each point.

    ``expected_degree``: None disables the constancy check, an integer
    checks against that value. A cluster (multiple point) is returned as
    one point of multiplicity above 1.

    Raises DegreeDrop when points are missing against the expectation or
    escape beyond ESCAPE_RADIUS.
    """
    if chart.n != v.n or chart.p != v.p:
        raise DimensionMismatch(f"chart is ({chart.n},{chart.p}) but variety is ({v.n},{v.p})")

    if v.lift is not None:
        points, mults = _solve_lifted(v, chart)
        coords = _lift_points(v.lift, points)
    else:
        subs = plane_substitute(v, chart)
        if v.p == 1:
            ys, mults = _solve_univariate(subs)
        else:
            order = _triangular_order(subs, v.y_vars)
            if order is not None:
                ys, mults = _solve_triangular(subs, order)
            elif v.p == 2:
                ys, mults = solve_bivariate(subs[0], subs[1])
            else:
                raise UnsupportedShape(
                    f"no supported solve path for p={v.p} non-triangular systems"
                )
        coords = np.concatenate([ys @ chart.a.T + chart.b, ys], axis=1)
    fiber = Fiber(coords, full_jacobian(v, chart, tuple(coords.T)), mults)
    if not np.all(np.abs(coords) <= ESCAPE_RADIUS):
        raise DegreeDrop(
            f"fiber point escaped beyond |z| = {ESCAPE_RADIUS:g}",
            found=None, expected=None,
        )
    if expected_degree is not None and fiber.total_multiplicity != expected_degree:
        raise DegreeDrop(
            f"fiber has total multiplicity {fiber.total_multiplicity}, "
            f"expected {expected_degree}",
            found=fiber.total_multiplicity,
            expected=expected_degree,
        )
    return fiber


# -- chart families -----------------------------------------------------

def _with_lead(c):
    """Polynomials stacked on leading axes (coefficients lowest first),
    each leading coefficient too small to keep every root within
    2 ESCAPE_RADIUS replaced by 1, and a mask of where it was large
    enough (a smaller, or zero, one puts a root beyond ESCAPE_RADIUS)."""
    d = c.shape[-1] - 1
    # |c_d| (2 ESCAPE_RADIUS)^d > max |c|, taken to the power 1/d: no overflow
    top = np.abs(c[..., d]) ** (1 / d) * (2.0 * ESCAPE_RADIUS) > np.max(np.abs(c), axis=-1) ** (1 / d)
    return np.where((np.arange(d + 1) < d) | top[..., None], c, 1.0), top


def _family_roots(c):
    """Roots of polynomials stacked on leading axes (coefficients lowest
    first, leading one nonzero): companion eigenvalues above degree 3,
    closed forms up to it. A quadratic z^2 + b z + c has the roots q and
    c/q, q = -(b +- sqrt(b^2 - 4c))/2 with the sign of the larger |q|. A
    cubic keeps Cardano's root of largest modulus, with the square root's
    sign of the larger-modulus branch, and its quotient is a quadratic."""
    d = c.shape[-1] - 1
    if d > 3:
        return _companion_roots(c)
    c = c[..., :-1] / c[..., -1:]
    if d == 1:
        return -c
    if d == 3:
        # the depressed cubic t^3 + p t + q in t = z + e/3
        e, f, g = c[..., 2], c[..., 1], c[..., 0]
        p, q = f - e * e / 3.0, (2.0 * e * e / 27.0 - f / 3.0) * e + g
        s = np.sqrt(q * q / 4.0 + p * p * p / 27.0)
        u = (np.where((q.conj() * s).real > 0, -s, s) - q / 2.0) ** (1.0 / 3.0)
        u = u[..., None] * np.exp(2j * np.pi / 3.0 * np.arange(3))
        z = u - np.divide(p[..., None] / 3.0, u, out=np.zeros_like(u), where=u != 0) - e[..., None] / 3.0
        z1 = np.take_along_axis(z, np.argmax(np.abs(z), axis=-1)[..., None], axis=-1)[..., 0]
        c = np.stack([np.divide(-g, z1, out=np.zeros_like(g), where=z1 != 0), e + z1], axis=-1)
    b, c0 = c[..., 1], c[..., 0]
    s = np.sqrt(b * b - 4.0 * c0)
    q = -(b + np.where((b.conj() * s).real < 0, -s, s)) / 2.0
    z = np.stack([q, np.divide(c0, q, out=np.zeros_like(q), where=q != 0)], axis=-1)
    return z if d == 2 else np.concatenate([z1[..., None], z], axis=-1)


def _certified_roots(c):
    """Roots of polynomials stacked on leading axes (coefficients lowest
    first): _family_roots, then two Newton steps, each step and the last
    residual a product with numeric._scaled_rows, the rows poly_roots
    judges its residuals by (so the rule is the same). Also
    returns whether each polynomial's roots are certified (its leading
    coefficient passes _with_lead; every root passes the residual rule and
    lies within ESCAPE_RADIUS and outside the others' merge radius max(1,
    |z|) TOL_ARITH^(1/2), so poly_roots finds the same simple roots) and
    g' at each root of a certified polynomial."""
    d = c.shape[-1] - 1
    c, top = _with_lead(c)
    k = np.arange(d + 1)
    z = _family_roots(c)
    for step in range(3):
        vand = _scaled_rows(z, d)
        val = np.einsum("...rk,...k->...r", vand, c)
        der = np.einsum("...rk,...k->...r", vand[..., :-1], c[..., 1:] * k[1:])
        if step < 2:
            z = z - np.divide(val, der, out=np.zeros_like(z), where=der != 0)
    scale = np.einsum("...rk,...k->...r", np.abs(vand), np.abs(c))
    scale = np.maximum(scale, np.max(np.abs(c), axis=-1)[..., None])
    s = np.maximum(1.0, np.abs(z))
    ok = (top & np.all((np.abs(val) <= TOL_ARITH * scale) & (np.abs(z) <= ESCAPE_RADIUS), axis=-1)
          & _separated(z[..., None], s * TOL_ARITH**0.5))
    return z, ok, der * np.where(ok[..., None], s, 1.0) ** d


def _dense_values(t, u, w):
    """Values of the polynomials t[c] of _coefficient_tensors at points
    u, w of shape (c, ...)."""
    return np.einsum("cji,c...i,c...j->c...", t, u[..., None] ** np.arange(t.shape[2]),
                     w[..., None] ** np.arange(t.shape[1]))


def _separated(z, reach):
    """Per leading index: no two vectors z[..., k, :] lie within
    reach[..., k] of each other (in the largest coordinate difference)."""
    gap = np.abs(z[..., :, None, :] - z[..., None, :, :]).max(axis=-1)
    return ~np.any((gap <= reach[..., None]) & ~np.eye(z.shape[-2], dtype=bool), axis=(-2, -1))


def _resultant_points(t1, t2, degrees, res, degree):
    """Points (u, w) of the charts of a family in which both polynomials
    involve both variables: the roots u of each resultant ``res``, then
    the w-roots of one polynomial at each u, kept where the other
    vanishes. A chart counts when it has the family's degrees, its
    resultant has degree ``degree`` and certified roots, and each root
    has exactly one w candidate. Returns (positions, points of shape
    (k, degree, 2)), or None when no chart can have ``degree`` points."""
    if not 1 <= degree < res.shape[1]:
        return None
    ok = np.logical_and.reduce([t[:, :, d_u].any(axis=1) & t[:, d_w].any(axis=1)
                                for t, (d_w, d_u) in zip((t1, t2), degrees)])
    # u: roots of each resultant, which must have degree ``degree``
    ok &= (res[:, degree] != 0) & ~res[:, degree + 1:].any(axis=1)
    idx, t1, t2, res = (arr[ok] for arr in (np.arange(len(t1)), t1, t2, res[:, :degree + 1]))
    z, ok, _ = _certified_roots(res)
    idx, t1, t2, z = (arr[ok] for arr in (idx, t1, t2, z))

    # w: roots of the w-polynomial of higher degree at each u (g1 on a
    # tie), kept where the other polynomial vanishes (solve_bivariate's test)
    (lead, _), (other, do) = sorted(zip((t1, t2), [d_w for d_w, _ in degrees]), key=lambda td: -td[1])
    h, top = _with_lead(np.einsum("cji,cdi->cdj", lead, z[..., None] ** np.arange(lead.shape[2])))
    w = _family_roots(h)
    ok = np.all(top & np.all(np.abs(w) <= ESCAPE_RADIUS, axis=-1), axis=1)
    idx, z, w, other = (arr[ok] for arr in (idx, z, w, other))
    oscale = np.maximum(np.max(np.abs(other), axis=(1, 2)), 1e-300)[:, None, None]
    hit = (np.abs(_dense_values(other, np.broadcast_to(z[..., None], w.shape), w))
           <= 1e-6 * oscale * np.maximum(1.0, np.abs(w)) ** do)
    ok = np.all(hit.sum(axis=-1) == 1, axis=1)
    y = np.stack([z, np.sum(np.where(hit, w, 0.0), axis=-1)], axis=-1)
    return idx[ok], y[ok]


def _triangular_points(t1, t2, degrees, degree):
    """Points (u, w) of the charts of a triangular family, stage by stage:
    the roots of the polynomial of w-degree 0, then at each of them the
    w-roots of the other polynomial; every pair is a point. With no
    polynomial of w-degree 0 (one has u-degree 0), u and w swap roles and
    the point columns are swapped back. A chart counts when both stages'
    roots are certified (which needs both leading coefficients) and
    their count du * dw is ``degree``. Returns (positions, points of shape
    (k, degree, 2)), or None when no chart can have ``degree`` points."""
    swap = min(d_w for d_w, _ in degrees) > 0
    if swap:
        t1, t2 = t1.swapaxes(1, 2), t2.swapaxes(1, 2)
        degrees = [d[::-1] for d in degrees]
    (ta, (_, du)), (tb, (dw, _)) = sorted(zip((t1, t2), degrees), key=lambda td: td[1][0])
    if min(du, dw) < 1 or du * dw != degree:
        return None
    z, ok, _ = _certified_roots(ta[:, 0, :du + 1])
    idx, tb, z = np.flatnonzero(ok), tb[ok], z[ok]
    w, ok, _ = _certified_roots(
        np.einsum("cji,cdi->cdj", tb[:, :dw + 1], z[..., None] ** np.arange(tb.shape[2])))
    ok = np.all(ok, axis=1)
    y = np.stack(np.broadcast_arrays(z[ok, :, None], w[ok]), axis=-1).reshape(-1, degree, 2)
    return idx[ok], y[..., ::-1] if swap else y


def _polished_points(tensors, idx, y):
    """_newton_polish of points y (k, degree, 2) of charts ``idx`` on two systems
    ``tensors`` and their partials; keeps (positions, points) of the charts whose
    points are 1e-7 apart, within ESCAPE_RADIUS and pass the 1e-6 residual rule."""
    grid = np.indices((max(t.shape[1] for t in tensors), tensors[0].shape[2]))
    ts = np.zeros((len(idx),) + grid.shape[1:] + (6,), dtype=complex)
    for s, t in enumerate(t[idx] for t in tensors):
        dw = t.shape[1]
        ts[:, :dw, :, s], ts[:, :dw, :-1, 2 + 2 * s] = t, t[..., 1:] * grid[1, :dw, 1:]
        ts[:, :dw - 1, :, 3 + 2 * s] = t[:, 1:] * grid[0, 1:dw]
    res = _newton_polish(grid[::-1].reshape(2, -1).T, ts.reshape(len(idx), grid[0].size, 6), y,
                         np.ones(y.shape[:2], dtype=bool))
    ok = (_separated(y, 1e-7 * (1.0 + np.max(np.abs(y), axis=-1)))
          & np.all(np.abs(y) <= ESCAPE_RADIUS, axis=(1, 2)) & np.all(res <= 1e-6, axis=1))
    return idx[ok], y[ok]


def solve_family(v: VarietySpec, charts: Charts, degree):
    """Fibers of a batch of charts in one stacked pass, for the charts it
    certifies; the rest are left to solve_fiber. Covers p = 1 families,
    p = 2 families and Veronese lifts in which both polynomials involve
    both variables (_resultant_points), and p = 2 families in which, on
    every chart, one substituted def has degree 0 in one of the variables
    (_triangular_points). The points of a certified p = 2 chart are then
    polished together; a chart stays certified when no two points merge,
    each passes the polish's 1e-6 residual rule and every coordinate is
    within ESCAPE_RADIUS with a nonzero Jacobian, so solve_fiber finds
    the same simple points. Returns (positions, coords, jacobians) of
    shapes (k,), (k, degree, n + p) and (k, degree); None otherwise.

    ``degree`` None takes a p = 1 family's from chart 0, its top exactly
    nonzero coefficient (UniPoly's rule), whether or not chart 0 is
    certified at it; any other family returns None."""
    a, b, own = charts.a, charts.b, degree is None
    if a.shape[1:] != (v.n, v.p) or not len(b) or (own and v.p > 1):
        return None
    if v.lift is not None:
        # the original curve and the pulled-back plane in (x, y)
        systems = (v.lift.original.defs[0].terms, _lifted_plane(v.lift.coordinate_map, a, b))
    elif v.p <= 2:
        # the substituted defs in (y1, y2), keyed (k, 0) for p = 1, in
        # plane_substitute's term order
        one, units = (0, 0), ((1, 0), (0, 1))[:v.p]
        images = [{one: b[:, i], **{e: a[:, i, j] for j, e in enumerate(units)}}
                  for i in range(v.n)] + [{e: 1.0 + 0j} for e in units]
        systems = [_substitute_terms(f, images, one) for f in v.defs]
    else:
        return None
    tensors, degrees = _coefficient_tensors(systems, len(b))
    if v.p == 1:
        # a chart counts when its coefficients above ``degree`` are exactly
        # 0 and its roots are certified; the Jacobian is (-1)^n g'(y)
        c = tensors[0][:, 0]
        degree = int(np.flatnonzero(c[0]).max(initial=0)) if own else degree
        if not 1 <= degree < c.shape[1]:
            return None
        z, ok, der = _certified_roots(c[:, :degree + 1])
        ok &= ~c[:, degree + 1:].any(axis=1)
        found, jac = (np.flatnonzero(ok), z[ok, :, None]), (-1) ** v.n * der[ok]
    elif min(map(min, degrees)) > 0:
        (dw1, du1), (dw2, du2) = degrees
        res = _resultants(*tensors, du1 * dw2 + du2 * dw1)
        found = _resultant_points(*tensors, degrees, res, degree)
    else:
        found = None if v.lift is not None else _triangular_points(*tensors, degrees, degree)
    if found is None:
        return None
    idx, y = found if v.p == 1 else _polished_points(tensors, *found)
    a, b = a[idx], b[idx]

    if v.lift is not None:
        coords = _lift_points(v.lift, y)
    else:
        coords = np.concatenate([np.einsum("cij,cdj->cdi", a, y) + b[:, None], y], axis=-1)
    if v.p > 1:
        jac = _jacobian_dets(v, a[:, None], tuple(coords.transpose(2, 0, 1)))
    ok = np.all(np.all(np.abs(coords) <= ESCAPE_RADIUS, axis=-1) & (jac != 0), axis=1)
    return idx[ok], coords[ok], jac[ok]


def hypersurface_section(v: VarietySpec, hyper: MultiPoly):
    """Intersection of a plane curve (n = p = 1 variety in two ambient
    variables) with one polynomial hypersurface, with the Jacobian of
    (def, hypersurface) at each point. The nonlinear analogue of a chart
    fiber, used to cross-check Veronese-lifted computations."""
    if v.n != 1 or v.p != 1:
        raise UnsupportedDimension("hypersurface sections support n = p = 1")
    h = hyper if hyper.vars == v.vars else hyper.with_vars(v.vars)
    # Jacobian rows: the def's partials, then the hypersurface's
    exps, coefs = _term_matrix([f.partial(nm) for f in (v.defs[0], h) for nm in v.vars])
    points, mults = solve_bivariate(v.defs[0], h)
    jac = np.linalg.det((_monomials(exps, tuple(points.T)) @ coefs).reshape(-1, 2, 2))
    return [FiberPoint(tuple(c), j, m) for c, j, m in zip(points.tolist(), jac.tolist(), mults.tolist())]


# ---------------------------------------------------------------------------
# Veronese lift
# ---------------------------------------------------------------------------

def _monomial_name(vars, exps):
    bits = []
    for v, e in zip(vars, exps):
        if e == 1:
            bits.append(v)
        elif e > 1:
            bits.append(f"{v}{e}")
    return "".join(bits)


def _monomials_up_to(degree):
    """Exponent vectors in two variables of total degree 1..degree, degree
    ascending and first-variable-major within each degree (x, y, x^2, xy,
    y^2, ...)."""
    return [(d - k, k) for d in range(1, degree + 1) for k in range(d + 1)]


def veronese_lift(v: VarietySpec, degree: int):
    """Lift a plane-curve variety through the degree-d Veronese map, so a
    family of degree-d curves corresponds to the hyperplane family in the
    lifted space.

    Returns (v_lifted, coordinate_map): the lifted variety's defining
    system consists of the graph relations (new variable minus monomial,
    ordered as the monomials are enumerated) followed by the original
    defining polynomial; coordinate_map lists the monomials of degree
    1..degree in the original variables. That def ordering makes lifted
    chart traces agree exactly (including sign) with sections by the
    pulled-back hypersurface.
    """
    if degree < 2:
        raise ValueError("lift degree must be >= 2")
    if v.n != 1 or v.p != 1:
        raise UnsupportedDimension("the lift supports plane curves (n = p = 1)")

    orig_vars = v.vars
    exps = _monomials_up_to(degree)
    cmap = [MultiPoly(orig_vars, {e: 1.0}) for e in exps]
    names = [_monomial_name(orig_vars, e) for e in exps]
    lifted_vars = tuple(names)

    graph_defs = []
    for idx in range(2, len(exps)):
        mono_exps = exps[idx] + (0,) * (len(lifted_vars) - 2)
        rel = MultiPoly.variable(names[idx], lifted_vars) - MultiPoly(
            lifted_vars, {mono_exps: 1.0}
        )
        graph_defs.append(rel)
    orig_defs = [f.with_vars(lifted_vars) for f in v.defs]

    info = LiftInfo(original=v, coordinate_map=tuple(cmap), degree=degree)
    v_lifted = VarietySpec(
        x_vars=(names[0],),
        y_vars=tuple(names[1:]),
        defs=graph_defs + orig_defs,
        lift=info,
    )
    return v_lifted, list(cmap)


def lift_residue_data(data: ResidueData, v_lifted: VarietySpec):
    """Transport residue data through a Veronese lift (variables of the
    numerator/weight are shared with the degree-1 lifted coordinates)."""
    num = data.numerator.with_vars(v_lifted.vars)
    w = data.weight.with_vars(v_lifted.vars) if data.weight is not None else None
    return ResidueData(v_lifted, num, label=data.label + "|lifted", weight=w)
