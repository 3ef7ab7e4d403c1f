"""Foundational numerics: univariate complex polynomials, simultaneous
root finding, Cauchy-integral differentiation, least-squares polynomial
interpolation, polydisc Taylor models fitted on torus grids, and
Gauss-Legendre segment quadrature.

Tolerances: TOL_ARITH = 1e-10, fixed, for arithmetic-level checks (roots,
zero snaps); TOL_FIT = 1e-8, the default of fitting-level checks (the
shifted-Hankel recurrence fit in reconstruct, interpolation).
"""

from __future__ import annotations

import cmath
import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import EvaluationError, NonConvergence, ZeroPolynomial

TOL_ARITH = 1e-10
TOL_FIT = 1e-8
COND_CAP = 1e12
# Taylor coefficients below this share of the largest one are dropped
TRUNC_TOL = 1e-14


# ---------------------------------------------------------------------------
# univariate polynomials
# ---------------------------------------------------------------------------

def _horner(coeffs, z):
    """Value at z of the polynomial with coefficients lowest degree first."""
    acc = 0j
    for c in coeffs[::-1]:
        acc = acc * z + c
    return acc


class UniPoly:
    """Univariate polynomial with complex coefficients, lowest degree first.

    The zero polynomial has an empty coefficient tuple and degree -1; any
    other polynomial stores a nonzero leading coefficient.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        c = np.asarray(list(coeffs), dtype=complex)
        nz = np.nonzero(c)[0]
        self.coeffs = tuple(map(complex, c[: nz[-1] + 1])) if nz.size else ()

    @property
    def degree(self):
        return len(self.coeffs) - 1

    @property
    def is_zero(self):
        return not self.coeffs

    @classmethod
    def zero(cls):
        return cls(())

    def __call__(self, z):
        return _horner(self.coeffs, z)

    def __eq__(self, other):
        return isinstance(other, UniPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        if self.is_zero:
            return "UniPoly(0)"
        terms = ", ".join(f"{c:.6g}" for c in self.coeffs)
        return f"UniPoly([{terms}])"


# ---------------------------------------------------------------------------
# root finding
# ---------------------------------------------------------------------------

def _companion_roots(c):
    """Roots of polynomials stacked on leading axes (coefficients lowest
    first, leading one nonzero): eigenvalues of np.roots' companions."""
    d = c.shape[-1] - 1
    comp = np.zeros(c.shape[:-1] + (d, d), dtype=complex)
    comp[..., 0, :] = -c[..., -2::-1] / c[..., -1:]
    comp[..., np.arange(1, d), np.arange(d - 1)] = 1.0
    return np.linalg.eigvals(comp)


def _aberth_refine(coeffs, z):
    """Aberth-Ehrlich simultaneous refinement of root estimates ``z``: at
    most 80 sweeps, stopping once no estimate moves by 1e-15 relative."""
    d = len(coeffs) - 1
    dcoeffs = np.asarray(coeffs[1:], dtype=complex) * np.arange(1, d + 1)
    for _ in range(80):
        moved = 0.0
        for j in range(d):
            pj = _horner(coeffs, z[j])
            if pj == 0:
                continue
            dpj = _horner(dcoeffs, z[j])
            ratio = pj / dpj if dpj != 0 else pj
            rep = 0j
            for k in range(d):
                if k != j:
                    dz = z[j] - z[k]
                    if dz != 0:
                        rep += 1.0 / dz
            denom = 1.0 - ratio * rep
            step = ratio / denom if denom != 0 else ratio
            z[j] -= step
            moved = max(moved, abs(step) / (1.0 + abs(z[j])))
        if moved < 1e-15:
            break
    return z


def _cluster_centre(coeffs, group, radius, tol):
    """``group`` as one m-fold root (m = len(group)) of the polynomial with
    coefficients ``coeffs``, lowest first: the root of its (m-1)-th
    derivative next to the group's mean, by Newton's method. None unless it
    is within ``radius`` of the mean and every Taylor coefficient of order
    j < m there is at most tol of its scale sum_k |c_k| C(k, j) |z|^(k-j)
    (both divided by max(1, |z|)^(d-j), so that no power overflows)."""
    m, c = len(group), np.asarray(coeffs, dtype=complex)
    k = np.arange(len(c))
    q = c[m - 1:] * np.prod(k[m - 1:, None] - np.arange(m - 1), axis=1)
    dq = q[1:] * np.arange(1, len(q))
    z = mean = complex(np.mean(group))
    for _ in range(10):
        dqz = _horner(dq, z)
        step = _horner(q, z) / dqz if dqz else 0.0
        z -= step
        if abs(step) <= 1e-16 * max(1.0, abs(z)):
            break
    r = max(1.0, abs(z))
    binom = np.array([[math.comb(kk, j) for kk in k] for j in range(m)], dtype=float)
    pw = binom * (z / r) ** np.maximum(k - np.arange(m)[:, None], 0) * r ** (k - k[-1])
    ok = abs(z - mean) <= radius and np.all(np.abs(pw @ c) <= tol * (np.abs(pw) @ np.abs(c)))
    return z if ok else None


def _merge_clusters(roots, tol, coeffs):
    """Multiplicity-aware merge (Z. Zeng, Math. Comp. 74, 2005): m roots,
    a root's m nearest, become one of multiplicity m when their diameter is
    at most max(1, |z|) tol^(1/m) and ``_cluster_centre`` finds an m-fold
    root of the polynomial near them, the largest such group first.
    ``coeffs`` are the polynomial's, lowest first."""
    z, out = np.asarray(roots, dtype=complex), []
    while True:
        n, left = z.size, z.tolist()
        # fast path, exact for tol < 1: a group that fits below has a pair
        # (its largest |z|, any other) within max(1, |r|, |q|) tol^(1/n)
        if all(abs(r - q) > max(1.0, abs(r), abs(q)) * tol ** (1.0 / n)
               for r, q in itertools.combinations(left, 2)):
            return out + [(r, 1) for r in left]
        dist = np.abs(z[:, None] - z)
        order = np.argsort(dist, axis=1, kind="stable")
        # diameter and scale of each root's k nearest, k = 1..n
        diam = np.maximum.accumulate(
            np.triu(dist[order[:, :, None], order[:, None, :]], 1).max(axis=1), axis=1)
        scale = np.maximum.accumulate(np.maximum(1.0, np.abs(z))[order], axis=1)
        radius = scale[:, 1:] * tol ** (1.0 / np.arange(2, n + 1))
        fits = np.nonzero(diam[:, 1:] <= radius)
        for s, m in sorted(zip(*fits), key=lambda sm: (-sm[1], diam[sm[0], sm[1] + 1])):
            group = order[s, :m + 2]
            centre = _cluster_centre(coeffs, z[group], radius[s, m], tol)
            if centre is not None:
                out.append((centre, m + 2))
                z = np.delete(z, group)
                break
        else:
            return out + [(r, 1) for r in left]


def _cluster_residuals_ok(coeffs, merged, tol):
    """Residual acceptance against the local evaluation scale, with a
    coefficient-scale floor so multiple roots (where the evaluation scale
    itself vanishes) are judged fairly. Returns worst failing residual.

    Outside the unit disc the residual and both scales are divided by
    |z|^d, i.e. the reversed polynomial is judged at 1/z: the same rule,
    with no power of |z| that can overflow."""
    cmax = max(abs(c) for c in coeffs)
    worst = 0.0
    for root, mult in merged:
        c, z = (coeffs, root) if abs(root) <= 1.0 else (coeffs[::-1], 1.0 / root)
        az = abs(z)
        scale = max(sum(abs(ck) * az**k for k, ck in enumerate(c)), cmax)
        rel = abs(_horner(c, z)) / scale
        eff = tol ** (1.0 / mult) if mult > 1 else tol
        if rel > eff:
            worst = max(worst, rel)
    return worst


def poly_roots(p):
    """All roots of ``p`` with multiplicities.

    Companion-matrix eigenvalues (``_companion_roots``) start a simultaneous
    Aberth-Ehrlich refinement. Nearby iterates are merged into clusters
    whose radius scales like TOL_ARITH^(1/multiplicity); a merged cluster
    carries the summed multiplicity so downstream residue code can sum
    over it. Every cluster's residual is then checked against the local
    evaluation scale, at relative tolerance TOL_ARITH.

    Parameters
    ----------
    p : UniPoly or coefficient sequence (lowest degree first)

    Returns
    -------
    list of (root, multiplicity) with multiplicities summing to the
    degree, sorted by (real, imag).

    Raises
    ------
    ValueError : a coefficient is not finite.
    ZeroPolynomial : degree < 1.
    NonConvergence : a residual is above tolerance after refinement;
        carries the worst relative residual.
    """
    if not isinstance(p, UniPoly):
        p = UniPoly(p)
    if not all(map(cmath.isfinite, p.coeffs)):
        raise ValueError("polynomial coefficients must be finite")
    if p.degree < 1:
        raise ZeroPolynomial(f"need degree >= 1, got degree {p.degree}")

    top = max(map(abs, p.coeffs))
    coeffs = tuple(c / top for c in p.coeffs)

    # exact roots at the origin come off first
    k0 = 0
    while coeffs[k0] == 0:
        k0 += 1
    work = coeffs[k0:]
    z = _aberth_refine(work, _companion_roots(np.asarray(work))) if len(work) > 1 else []
    merged = _merge_clusters(list(z) + [0.0] * k0, TOL_ARITH, coeffs)
    worst = _cluster_residuals_ok(coeffs, merged, TOL_ARITH)
    if worst > 0.0:
        raise NonConvergence(
            f"root refinement stalled (worst relative residual {worst:.3e})",
            worst_residual=worst,
        )

    merged.sort(key=lambda rm: (rm[0].real, rm[0].imag))
    return [(complex(r), int(m)) for r, m in merged]


# ---------------------------------------------------------------------------
# Cauchy-integral differentiation
# ---------------------------------------------------------------------------

def cauchy_nodes(z0, radius, nodes):
    """Angles and points z0 + radius e^(i angle) of the ``nodes``-point
    trapezoid rule on a circle, as cauchy_derivative samples it."""
    theta = 2.0 * np.pi * np.arange(nodes) / nodes
    return theta, z0 + radius * np.exp(1j * theta)


def cauchy_derivative(f, z0, radius, nodes):
    """First derivative of a holomorphic ``f`` at ``z0``.

    Trapezoid rule on the circle |z - z0| = radius applied to the Cauchy
    integral 1/(2 pi i) * contour integral of f(z)/(z-z0)^2; the relative
    error decays exponentially in ``nodes`` for f holomorphic on the
    closed disc. ``f`` is called once, on the array of nodes, and returns
    values with the node axis first: a complex for scalar values, else an
    array of derivatives over the trailing axes. ValueError, before ``f``
    is called, unless ``nodes`` is an integer of at least 16 and
    ``radius`` is positive.
    """
    if not isinstance(nodes, numbers.Integral) or nodes < 16:
        raise ValueError(f"node count must be an integer of at least 16, got {nodes!r}")
    if radius <= 0:
        raise ValueError("radius must be positive")
    theta, points = cauchy_nodes(z0, radius, nodes)
    try:
        vals = np.asarray(f(points), dtype=complex)
    except Exception as exc:  # noqa: BLE001 - evaluator contract
        raise EvaluationError(f"evaluator failed on the Cauchy circle: {exc}") from exc
    if vals.shape[:1] != (nodes,):
        raise EvaluationError(f"evaluator returned shape {vals.shape} on {nodes} nodes")
    out = (np.exp(-1j * theta) @ vals) / (nodes * radius)
    return complex(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# least-squares polynomial interpolation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PolyFit:
    coeffs: np.ndarray     # (columns, deg_bound + 1), lowest degree first
    residual: np.ndarray   # (columns,): largest |fit - value| per column


def poly_interpolate(x, values, deg_bound, tol=TOL_FIT):
    """Least-squares polynomials of degree <= deg_bound through the
    columns of ``values`` (k points x m columns, or one 1-D column) at the
    points ``x``, all from one solve.

    Fits in a centered/scaled variable for conditioning and converts back
    to the monomial basis; in each column, coefficients at or below
    tol * its max|coeff| snap to 0. The residual of a column is its
    largest misfit at the points, after the snap; judging it is left to
    the caller.
    """
    x = np.asarray(x, dtype=complex)
    vals = np.asarray(values, dtype=complex).reshape(len(x), -1)
    if deg_bound < 0:
        raise ValueError("deg_bound must be >= 0")
    if len(set(x.tolist())) < deg_bound + 1:
        raise ValueError(f"need at least {deg_bound + 1} distinct sample points")

    center = complex(np.mean(x))
    spread = float(np.max(np.abs(x - center)))
    spread = spread if spread > 0 else 1.0
    sol = np.linalg.lstsq(np.vander((x - center) / spread, deg_bound + 1, increasing=True),
                          vals, rcond=None)[0]

    # ((x - center) / spread)^k = sum_j C(k, j) (-center)^(k-j) x^j / spread^k
    k = np.arange(deg_bound + 1)
    binom = np.array([[math.comb(kk, j) for kk in k] for j in k], dtype=float)
    shift = (-center) ** np.maximum(k - k[:, None], 0)
    coeffs = ((binom * shift / spread**k) @ sol).T
    cutoff = tol * np.abs(coeffs).max(axis=1, keepdims=True)
    coeffs = np.where(np.abs(coeffs) <= cutoff, 0j, coeffs)

    fitted = np.vander(x, deg_bound + 1, increasing=True) @ coeffs.T
    return PolyFit(coeffs, np.abs(fitted - vals).max(axis=0))


# ---------------------------------------------------------------------------
# polydisc Taylor models
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class PolydiscModel:
    """Truncated Taylor model of a holomorphic function on a polydisc.

    Coefficients live in the scaled variables s_k = (z_k - center_k) /
    radius_k, so the model's natural domain is the unit polydisc in s.
    ``coeffs[e]`` multiplies prod_k s_k^e_k: a dense tensor with one axis
    per variable, all of the same length. Models compare by identity.
    """

    center: tuple
    radii: tuple
    coeffs: np.ndarray
    build_error: float = 0.0

    def __call__(self, point):
        """Value at ``point``, one coordinate per variable. Coordinates may
        be arrays that broadcast against each other; the value then has
        their broadcast shape. The tensor is contracted one axis at a time
        against that variable's powers, built as running products (1, s,
        s^2, ...)."""
        out = self.coeffs
        k, d = out.ndim, out.shape[0]
        for ax in range(k):
            s = (np.asarray(point[ax], dtype=complex) - self.center[ax]) / self.radii[ax]
            powers = np.empty(s.shape + (1, d), dtype=complex)
            powers[..., 0] = 1.0
            for e in range(1, d):
                np.multiply(powers[..., e - 1], s[..., None], out=powers[..., e])
            # leading axes of ``out``: the coordinates' broadcast shape so far
            out = out.reshape(out.shape[: out.ndim + ax - k] + (d, -1))
            out = powers @ out
            out = out.reshape(out.shape[:-2] + (d,) * (k - ax - 1))
        return out[()]

    def derivative(self, axis):
        """Analytic partial derivative along one axis (unscaled variable)."""
        c = np.moveaxis(self.coeffs, axis, -1)
        out = np.zeros_like(c)
        out[..., :-1] = c[..., 1:] * np.arange(1, c.shape[-1]) / self.radii[axis]
        return PolydiscModel(
            self.center, self.radii, np.moveaxis(out, -1, axis), self.build_error
        )


def torus_nodes(center, radii, nodes):
    """The distinguished-boundary sample grid: per grid index, the point
    (center_k + radii_k * e^{2 pi i idx_k / nodes})_k."""
    ring = np.exp(2j * np.pi * np.arange(nodes) / nodes)
    k = len(center)
    pts = np.empty((nodes,) * k + (k,), dtype=complex)
    for ax in range(k):
        shape = (nodes,) + (1,) * (k - ax - 1)
        pts[..., ax] = np.reshape(center[ax] + radii[ax] * ring, shape)
    return pts


def polydisc_fit_grid(grid, center, radii):
    """Fit a PolydiscModel from values sampled on the torus_nodes grid.

    The multidimensional DFT of the value grid yields Taylor coefficients;
    frequencies above nodes//2 per axis are discarded (aliasing guard), and
    coefficients below TRUNC_TOL * max|coeff| are set to 0.

    Raises ValueError when a sample is not finite: the DFT would spread
    it over every coefficient.
    """
    grid = np.asarray(grid, dtype=complex)
    bad = np.argwhere(~np.isfinite(grid))
    if bad.size:
        raise ValueError(f"{len(bad)} non-finite torus grid sample(s), "
                         f"the first at grid index {tuple(map(int, bad[0]))}")
    coeff_grid = np.fft.fftn(grid) / grid.size
    cutoff = TRUNC_TOL * max(float(np.max(np.abs(coeff_grid))), 1e-300)
    coeffs = coeff_grid[(slice(grid.shape[0] // 2 + 1),) * grid.ndim]
    return PolydiscModel(
        tuple(map(complex, center)), tuple(map(float, radii)),
        np.where(np.abs(coeffs) > cutoff, coeffs, 0j),
    )


# nodes and weights of the 24-point Gauss-Legendre rule on [-1, 1]
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(24)


def gauss_legendre_segment(g, z0, z1):
    """Gauss-Legendre quadrature of ``g`` along the straight segments
    z0 -> z1. The end points may be arrays that broadcast; ``g`` is called
    once on every segment's nodes, which sit on a trailing axis, and the
    result has the end points' broadcast shape."""
    mid = 0.5 * (np.asarray(z0) + z1)
    half = 0.5 * (np.asarray(z1) - z0)
    return (g(mid[..., None] + half[..., None] * _GL_NODES) @ _GL_WEIGHTS) * half
