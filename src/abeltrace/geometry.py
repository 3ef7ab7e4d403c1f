"""Complete-intersection varieties over a base, affine plane-family charts,
fiber solving, and the Veronese lift of a hypersurface family.

Variable and equation ordering convention (fixed repo-wide): variables are
ordered (x_1..x_n, y_1..y_p) and equations (f_1..f_p, l_1..l_n); the
punctual residue divides by exactly this Jacobian determinant, which makes
round trips sign-exact. For a chart with matrix ``a`` the determinant
equals (-1)^(n p) times the y-Jacobian of the substituted system.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    AbelTraceError,
    DegreeDrop,
    DimensionMismatch,
    UnsupportedDimension,
    UnsupportedShape,
)
from .multipoly import MultiPoly, _evaluate_all
from .numeric import TOL_ARITH, UniPoly, poly_roots

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
            raise DimensionMismatch(
                f"a has {a.shape[0]} rows but b has {b.shape[0]} entries"
            )
        self.n, self.p = int(a.shape[0]), int(a.shape[1])
        self.a, self.b = a, b

    @classmethod
    def vertical(cls, b, p=1):
        """Chart with a = 0: the fiber of the plain base projection."""
        b = np.atleast_1d(np.asarray(b, dtype=complex))
        return cls(np.zeros((b.size, p), dtype=complex), b)

    # flattened parameter order: a1.1..a1.p, a2.1.., ..., b1..bn
    def param_names(self):
        names = [f"a{i + 1}.{j + 1}" for i in range(self.n) for j in range(self.p)]
        return tuple(names + [f"b{i + 1}" for i in range(self.n)])

    def to_params(self):
        return np.concatenate([self.a.ravel(), self.b])

    @classmethod
    def from_params(cls, n, p, vec):
        vec = np.asarray(vec, dtype=complex)
        if vec.size != n * (p + 1):
            raise DimensionMismatch(f"parameter vector length {vec.size} != {n * (p + 1)}")
        return cls(vec[: n * p].reshape(n, p), vec[n * p:])

    def replace(self, **updates):
        """New chart with named parameters replaced (e.g. replace(**{'b1': z}))."""
        names = self.param_names()
        vec = self.to_params()
        for key, val in updates.items():
            vec[names.index(key)] = val
        return PlaneChart.from_params(self.n, self.p, vec)

    def __repr__(self):
        return f"PlaneChart(a={self.a.tolist()}, b={self.b.tolist()})"


@dataclass(frozen=True)
class DomainSpec:
    """Polydisc in chart-parameter space: a center chart plus positive
    radii for the varying parameters (parameters not listed are frozen)."""

    chart: PlaneChart
    radii: dict

    def __post_init__(self):
        names = self.chart.param_names()
        for key, r in self.radii.items():
            if key not in names:
                raise DimensionMismatch(f"unknown parameter {key!r}")
            if not r > 0:
                raise ValueError(f"radius for {key!r} must be positive")

    @property
    def varying(self):
        order = self.chart.param_names()
        return tuple(k for k in order if k in self.radii)

    def chart_at(self, offsets):
        """Chart at center + offsets, offsets keyed by parameter name or a
        sequence aligned with ``self.varying``."""
        if not isinstance(offsets, dict):
            offsets = dict(zip(self.varying, offsets))
        updates = {}
        names = self.chart.param_names()
        vec = self.chart.to_params()
        for key, dz in offsets.items():
            updates[key] = vec[names.index(key)] + complex(dz)
        return self.chart.replace(**updates)


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
    common zero locus is proper over the base: fibers of the projection
    (x, y) -> x are finite. ``degree`` is the generic fiber degree of that
    projection, probed at construction when not supplied. Working domains
    with a != 0 may meet the support in a different (constant) number of
    points; trace sampling establishes its own per-domain baseline.
    """

    __slots__ = ("x_vars", "y_vars", "defs", "degree", "lift", "_partials", "_degrees")

    def __init__(self, x_vars, y_vars, defs, degree=None, lift=None):
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
        # every partial, def by def, and a bound on their degrees
        self._partials = tuple(f.partial(var) for f in self.defs for var in allv)
        self._degrees = tuple(map(max, zip(*(f._degrees for f in self.defs))))
        if degree is None:
            degree = self._probe_degree()
        self.degree = int(degree)

    @property
    def vars(self):
        return self.x_vars + self.y_vars

    @property
    def n(self):
        return len(self.x_vars)

    @property
    def p(self):
        return len(self.y_vars)

    def _probe_degree(self):
        # deterministic pseudo-random projection fiber; also the empirical
        # zero-dimensionality check
        b = np.array(
            [0.8123 + 0.3456j + 0.077j * i + 0.041 * i for i in range(self.n)]
        )
        chart = PlaneChart.vertical(b, p=self.p)
        try:
            fiber = solve_fiber(self, chart, expected_degree=None)
        except (UnsupportedShape, UnsupportedDimension):
            raise
        except (AbelTraceError, ValueError) as exc:
            raise ValueError(
                f"probe fiber failed; system is not zero-dimensional in y ({exc})"
            ) from exc
        if fiber.total_multiplicity == 0:
            raise ValueError("probe fiber is empty; projection is not proper")
        return fiber.total_multiplicity

    def __repr__(self):
        return (
            f"VarietySpec(x={list(self.x_vars)}, y={list(self.y_vars)}, "
            f"p={self.p}, degree={self.degree})"
        )


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

    def numerator_at(self, coords):
        return self.numerator.evaluate(coords)

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


@dataclass(frozen=True)
class Fiber:
    points: tuple

    @property
    def total_multiplicity(self):
        return sum(pt.cluster_size for pt in self.points)

    @property
    def clustered(self):
        return any(pt.cluster_size > 1 for pt in self.points)


def plane_substitute(v: VarietySpec, chart: PlaneChart):
    """Eliminate the base variables: substitute x_i = sum_j a_ij y_j + b_i
    into each defining polynomial, returning p polynomials in y only."""
    if chart.n != v.n or chart.p != v.p:
        raise DimensionMismatch(
            f"chart is ({chart.n},{chart.p}) but variety is ({v.n},{v.p})"
        )
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
    with respect to (x_vars..., y_vars...) at the given point."""
    m = len(v.vars)
    j = np.zeros((m, m), dtype=complex)
    for k, val in enumerate(_evaluate_all(v._partials, coords, v._degrees)):
        j[divmod(k, m)] = val
    for i in range(v.n):
        j[v.p + i, i] = 1.0
        for jj in range(v.p):
            j[v.p + i, v.n + jj] = -chart.a[i, jj]
    return complex(np.linalg.det(j))


def _newton_polish(polys, solutions):
    """Up to four Newton steps on the square system polys(y) = 0 from each
    simple solution of ``solutions``, (values, multiplicity) pairs whose
    values are aligned with the polynomials' variables; multiple points
    are returned unchanged. Values come back as tuples of complex."""
    system = list(polys) + [f.partial(nm) for f in polys for nm in polys[0].vars]
    degrees = tuple(map(max, zip(*(f._degrees for f in polys))))
    p = len(polys)
    out = []
    for start, mult in solutions:
        y = np.array(start, dtype=complex)
        for _ in range(4 if mult == 1 else 0):
            vals = np.array(_evaluate_all(system, y, degrees))
            try:
                step = np.linalg.solve(vals[p:].reshape(p, p), vals[:p])
            except np.linalg.LinAlgError:
                break
            y -= step
            if np.max(np.abs(step)) < 1e-15 * (1.0 + np.max(np.abs(y))):
                break
        out.append((tuple(map(complex, y)), mult))
    return out


# -- shape-specific solvers -------------------------------------------------

def _solve_univariate(subs, y_name, tol):
    g = subs[0].as_univariate(y_name)
    if g.is_zero:
        raise ValueError("substituted system vanishes identically; not zero-dimensional")
    if g.degree < 1:
        return []
    return [((r,), m) for r, m in poly_roots(g, tol)]


def _triangular_order(subs, y_names):
    """Order (def_index, var) pairs so each def is univariate in a new
    variable given the previously solved ones; None if not triangular."""
    remaining = set(range(len(subs)))
    unsolved = set(y_names)
    order = []
    while remaining:
        progress = False
        for k in sorted(remaining):
            used = {v for v in y_names if subs[k].uses(v)}
            new = used & unsolved
            if len(new) == 1:
                var = new.pop()
                order.append((k, var))
                unsolved.discard(var)
                remaining.discard(k)
                progress = True
                break
        if not progress:
            return None
    return order


def _solve_triangular(subs, y_names, order, tol):
    branches = [({}, 1)]
    for k, var in order:
        coeff_polys = subs[k].univariate_coeffs(var)
        new_branches = []
        for assignment, mult in branches:
            # later variables are unused at this stage; 0 is a placeholder
            point = {v: assignment.get(v, 0.0) for v in y_names}
            coeffs = [cp.evaluate(point) for cp in coeff_polys]
            g = UniPoly(coeffs)
            if g.is_zero:
                raise ValueError("triangular stage vanishes identically")
            if g.degree < 1:
                continue
            for r, m in poly_roots(g, tol):
                new_branches.append(({**assignment, var: r}, mult * m))
        branches = new_branches
    return _newton_polish(
        [s.restricted(y_names) for s in subs],
        [(tuple(assignment[v] for v in y_names), mult) for assignment, mult in branches],
    )


def _dft_interpolate(values, radius, count):
    """Coefficients of the polynomial with the given values at
    radius * e^(2 pi i k / count), lowest degree first."""
    coeffs = np.fft.fft(np.asarray(values, dtype=complex)) / count
    return coeffs / radius ** np.arange(count)


def _coefficient_matrix(g, du):
    """Dense coefficients of g(u, w): entry [j, i] is that of u^i w^j,
    with columns up to u^du."""
    out = np.zeros((g.degree(g.vars[1]) + 1, du + 1), dtype=complex)
    for (i, j), c in g.terms.items():
        out[j, i] = c
    return out


def solve_bivariate(g1: MultiPoly, g2: MultiPoly, tol=TOL_ARITH):
    """Common zeros of two polynomials in two variables via one resultant
    elimination step (evaluation-interpolation of the Sylvester
    determinant), then back-substitution and Newton polish.

    Returns a list of ((u, w), multiplicity) pairs, the values aligned
    with the polynomials' variables (u, w).
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

    bound = max(du1 * dw2 + du2 * dw1, 1)
    count = bound + 1
    radius = 1.37
    nodes = radius * np.exp(2j * np.pi * np.arange(count) / count)

    # Sylvester matrices of g1, g2 in w at every node, stacked
    du = max(du1, du2)
    m1 = _coefficient_matrix(g1, du)
    m2 = _coefficient_matrix(g2, du)
    node_powers = nodes[:, None] ** np.arange(du + 1)
    cf = node_powers @ m1.T
    cg = node_powers @ m2.T
    size = dw1 + dw2
    syl = np.zeros((count, size, size), dtype=complex)
    for r in range(dw2):
        syl[:, r, r: r + dw1 + 1] = cf[:, ::-1]
    for r in range(dw1):
        syl[:, dw2 + r, r: r + dw2 + 1] = cg[:, ::-1]
    dets = np.linalg.det(syl)
    dscale = float(np.max(np.abs(dets)))
    if dscale == 0.0:
        raise ValueError("resultant vanishes identically; common component present")
    coeffs = _dft_interpolate(dets / dscale, radius, count)
    res_poly = UniPoly(coeffs).snapped(1e-11)
    if res_poly.degree < 1:
        return []

    out = []
    for u_val, u_mult in poly_roots(res_poly, tol):
        upow = u_val ** np.arange(du + 1)
        h1 = UniPoly(m1 @ upow)
        h2 = UniPoly(m2 @ upow)
        lead, other = (h1, g2) if h1.degree >= h2.degree else (h2, g1)
        if lead.degree < 1:
            continue
        oscale = max(other.coefficient_scale(), 1e-300)
        cands = []
        for w_val, _ in poly_roots(lead, tol):
            if abs(other.evaluate((u_val, w_val))) <= 1e-6 * oscale * max(
                1.0, abs(w_val)
            ) ** other.degree(w):
                cands.append(w_val)
        # a multiple resultant root with a single fiber candidate is a
        # genuine multiple intersection point; keep its full count
        for w_val in cands:
            out.append(((u_val, w_val), u_mult if len(cands) == 1 else 1))
    out = _newton_polish([g1, g2], out)

    # merge duplicates into clusters
    merged = []
    for sol, m in out:
        vec = np.array(sol)
        for entry in merged:
            if np.max(np.abs(vec - entry[0])) < 1e-7 * (1.0 + np.max(np.abs(vec))):
                entry[1] += m
                break
        else:
            merged.append([vec, m])
    return [(tuple(map(complex, vec)), m) for vec, m in merged]


def _solve_lifted(v, chart, tol):
    """Fiber of a lifted variety through the graph correspondence: pull the
    plane back to the original chart, solve there, lift the points.
    Returns (lifted coordinates, multiplicity) pairs."""
    info = v.lift
    orig = info.original
    cmap = info.coordinate_map
    if chart.n != 1:
        raise UnsupportedShape("lifted fibers support a single plane equation")
    hyper = cmap[0] - MultiPoly.constant(chart.b[0], orig.vars)
    for j in range(1, len(cmap)):
        if chart.a[0, j - 1] != 0:
            hyper = hyper - chart.a[0, j - 1] * cmap[j]
    return [
        (tuple(mp.evaluate(sol) for mp in cmap), m)
        for sol, m in solve_bivariate(orig.defs[0], hyper, tol)
    ]


def solve_fiber(v: VarietySpec, chart: PlaneChart, tol=TOL_ARITH,
                expected_degree="variety"):
    """All intersection points of the variety with the chart's plane.

    Supported shapes: p = 1 (univariate after substitution); triangular
    cascades for p >= 2; general p = 2 via one resultant step; Veronese
    lifts via the graph correspondence. Every path but the lifted one
    returns (y values, multiplicity) pairs, and the plane gives the x
    values. Each point carries its coordinates as a tuple of complex
    aligned with v.vars and the determinant of the full (n+p) x (n+p)
    Jacobian of (defs, plane equations) in the repo variable order.

    ``expected_degree``: "variety" checks against v.degree, None disables
    the constancy check, an integer checks against that value. A cluster
    (multiple point) is returned as one point with cluster_size > 1, and
    the fiber reports it as ``clustered``.

    Raises DegreeDrop when points are missing against the expectation or
    escape beyond ESCAPE_RADIUS.
    """
    if chart.n != v.n or chart.p != v.p:
        raise DimensionMismatch(
            f"chart is ({chart.n},{chart.p}) but variety is ({v.n},{v.p})"
        )

    if v.lift is not None:
        solutions = _solve_lifted(v, chart, tol)
    else:
        subs = plane_substitute(v, chart)
        if v.p == 1:
            solutions = _solve_univariate(subs, v.y_vars[0], tol)
        else:
            order = _triangular_order(subs, v.y_vars)
            if order is not None:
                solutions = _solve_triangular(subs, v.y_vars, order, tol)
            elif v.p == 2:
                g1 = subs[0].restricted(v.y_vars)
                g2 = subs[1].restricted(v.y_vars)
                solutions = solve_bivariate(g1, g2, tol)
            else:
                raise UnsupportedShape(
                    f"no supported solve path for p={v.p} non-triangular systems"
                )
        solutions = [
            (tuple(map(complex, chart.a @ ys + chart.b)) + ys, mult)
            for ys, mult in solutions
        ]

    fiber = Fiber(tuple(
        FiberPoint(coords, full_jacobian(v, chart, coords), mult)
        for coords, mult in solutions
    ))
    if any(max(map(abs, pt.coords)) > ESCAPE_RADIUS for pt in fiber.points):
        raise DegreeDrop(
            f"fiber point escaped beyond |z| = {ESCAPE_RADIUS:g}",
            found=None, expected=None,
        )
    if expected_degree == "variety":
        expected_degree = v.degree
    if expected_degree is not None and fiber.total_multiplicity != expected_degree:
        raise DegreeDrop(
            f"fiber has total multiplicity {fiber.total_multiplicity}, "
            f"expected {expected_degree}",
            found=fiber.total_multiplicity,
            expected=expected_degree,
        )
    return fiber


def hypersurface_section(v: VarietySpec, hyper: MultiPoly, tol=TOL_ARITH):
    """Intersection of a plane curve (n = p = 1 variety in two ambient
    variables) with one polynomial hypersurface, with the Jacobian of
    (def, hypersurface) at each point. The nonlinear analogue of a chart
    fiber, used to cross-check Veronese-lifted computations."""
    if v.n != 1 or v.p != 1:
        raise UnsupportedDimension("hypersurface sections support n = p = 1")
    h = hyper if hyper.vars == v.vars else hyper.with_vars(v.vars)
    # Jacobian rows: the def's partials, then the hypersurface's
    partials = v._partials + tuple(h.partial(nm) for nm in v.vars)
    degrees = tuple(map(max, v._degrees, h._degrees))
    out = []
    for coords, m in solve_bivariate(v.defs[0], h, tol):
        jm = np.reshape(_evaluate_all(partials, coords, degrees), (2, 2))
        out.append(FiberPoint(coords, complex(np.linalg.det(jm)), m))
    return out


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


def _monomials_up_to(nvars, degree):
    """Exponent vectors of total degree 1..degree, degree ascending and
    first-variable-major within each degree (x, y, x^2, xy, y^2, ...)."""
    out = []
    for d in range(1, degree + 1):
        if nvars == 2:
            out.extend([(d - k, k) for k in range(d + 1)])
        else:
            raise UnsupportedDimension("monomial enumeration supports 2 variables")
    return out


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
    m = v.n + v.p
    if m > 3:
        raise UnsupportedDimension(f"ambient dimension {m} > 3 unsupported")
    if m != 2 or v.p != 1:
        raise UnsupportedDimension(
            "lifted fiber solving currently supports plane curves (n = p = 1)"
        )

    orig_vars = v.vars
    exps = _monomials_up_to(2, degree)
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
