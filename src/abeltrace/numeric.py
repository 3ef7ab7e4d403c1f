"""Foundational numerics: univariate complex polynomials, simultaneous
root finding, Cauchy-integral differentiation, least-squares polynomial
interpolation, polydisc Taylor models fitted on torus grids, and
Gauss-Legendre segment quadrature.

Default tolerances: 1e-10 for arithmetic-level checks (roots, zero snaps),
1e-8 for fitting-level checks (the shifted-Hankel recurrence fit in
reconstruct, interpolation).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    EvaluationError,
    NonConvergence,
    OverdeterminedMismatch,
    ZeroPolynomial,
)

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

    def __init__(self, coeffs=()):
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

    @classmethod
    def constant(cls, value):
        return cls((value,))

    @classmethod
    def from_roots(cls, roots):
        """Monic polynomial with the given roots."""
        c = np.array([1.0], dtype=complex)
        for r in roots:
            c = np.convolve(c, np.array([-r, 1.0], dtype=complex))
        return cls(c)

    def __call__(self, z):
        return _horner(self.coeffs, z)

    def derivative(self, order=1):
        c = np.asarray(self.coeffs, dtype=complex)
        for _ in range(order):
            if len(c) <= 1:
                return UniPoly.zero()
            c = c[1:] * np.arange(1, len(c))
        return UniPoly(c)

    def __eq__(self, other):
        return isinstance(other, UniPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        if self.is_zero:
            return "UniPoly(0)"
        terms = ", ".join(f"{c:.6g}" for c in self.coeffs)
        return f"UniPoly([{terms}])"

    def snapped(self, tol=TOL_ARITH):
        """Zero out coefficients below tol * max|coeff|."""
        if self.is_zero:
            return self
        c = np.asarray(self.coeffs, dtype=complex)
        cutoff = tol * np.max(np.abs(c))
        return UniPoly(np.where(np.abs(c) <= cutoff, 0.0, c))


# ---------------------------------------------------------------------------
# root finding
# ---------------------------------------------------------------------------

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


def _merge_clusters(roots, tol):
    """Greedy agglomerative merge; radius scales like tol^(1/multiplicity)."""
    clusters = [[complex(r), 1] for r in roots]
    while True:
        best = None
        for i in range(len(clusters)):
            for j in range(i + 1, len(clusters)):
                dist = abs(clusters[i][0] - clusters[j][0])
                m = clusters[i][1] + clusters[j][1]
                scale = max(1.0, abs(clusters[i][0]), abs(clusters[j][0]))
                if dist <= scale * tol ** (1.0 / m) and (best is None or dist < best[0]):
                    best = (dist, i, j)
        if best is None:
            break
        _, i, j = best
        ci, cj = clusters[i], clusters[j]
        m = ci[1] + cj[1]
        clusters[i] = [(ci[0] * ci[1] + cj[0] * cj[1]) / m, m]
        del clusters[j]
    return [(c, m) for c, m in clusters]


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


def poly_roots(p, tol=TOL_ARITH):
    """All roots of ``p`` with multiplicities.

    Companion-matrix eigenvalues (``np.roots``) start a simultaneous
    Aberth-Ehrlich refinement. Nearby iterates are merged into clusters
    whose radius scales like tol^(1/multiplicity); a merged cluster
    carries the summed multiplicity so downstream residue code can sum
    over it. Every cluster's residual is then checked against the local
    evaluation scale.

    Parameters
    ----------
    p : UniPoly or coefficient sequence (lowest degree first)
    tol : residual tolerance relative to the local evaluation scale

    Returns
    -------
    list of (root, multiplicity) with multiplicities summing to the
    degree, sorted by (real, imag).

    Raises
    ------
    ValueError : a coefficient is not finite, or tol is not positive.
    ZeroPolynomial : degree < 1.
    NonConvergence : a residual is above tolerance after refinement;
        carries the worst relative residual.
    """
    if not isinstance(p, UniPoly):
        p = UniPoly(p)
    coeffs = np.asarray(p.coeffs, dtype=complex)
    if not np.all(np.isfinite(coeffs)):
        raise ValueError("polynomial coefficients must be finite")
    if p.degree < 1:
        raise ZeroPolynomial(f"need degree >= 1, got degree {p.degree}")
    if tol <= 0:
        raise ValueError("tol must be positive")

    coeffs = tuple(coeffs / np.max(np.abs(coeffs)))

    # exact roots at the origin come off first
    k0 = 0
    while coeffs[k0] == 0:
        k0 += 1
    work = coeffs[k0:]
    z = _aberth_refine(work, np.roots(np.asarray(work)[::-1]).astype(complex))
    merged = _merge_clusters(list(z) + [0.0] * k0, tol)
    worst = _cluster_residuals_ok(coeffs, merged, tol)
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

def cauchy_derivative(f, z0, radius, order=1, nodes=64):
    """order-th derivative of a holomorphic ``f`` at ``z0``.

    Trapezoid rule on the circle |z - z0| = radius applied to the Cauchy
    integral order!/(2 pi i) * contour integral of f(z)/(z-z0)^(order+1);
    the relative error decays exponentially in ``nodes`` for f holomorphic
    on the closed disc.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if nodes < 16:
        raise ValueError("nodes must be >= 16")
    if radius <= 0:
        raise ValueError("radius must be positive")
    theta = 2.0 * np.pi * np.arange(nodes) / nodes
    ring = np.exp(1j * theta)
    try:
        vals = np.array([f(z0 + radius * w) for w in ring], dtype=complex)
    except Exception as exc:  # noqa: BLE001 - evaluator contract
        raise EvaluationError(f"evaluator failed on the Cauchy circle: {exc}") from exc
    fact = float(np.prod(np.arange(1, order + 1)))
    return complex(fact * np.mean(vals * np.exp(-1j * order * theta)) / radius**order)


# ---------------------------------------------------------------------------
# least-squares polynomial interpolation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PolyFit:
    poly: UniPoly
    residual: float
    condition: float


def poly_interpolate(samples, deg_bound, tol=TOL_FIT):
    """Least-squares polynomial through (point, value) samples.

    Fits in a centered/scaled variable for conditioning and converts back
    to the monomial basis; coefficients below tol * max|coeff| snap to 0.

    Raises OverdeterminedMismatch when the fit residual exceeds
    tol * max(1, max|value|): the data is not polynomial of this degree
    (wrong degree bound, or a genuinely meromorphic coefficient).
    """
    pts = np.asarray([s[0] for s in samples], dtype=complex)
    vals = np.asarray([s[1] for s in samples], dtype=complex)
    if deg_bound < 0:
        raise ValueError("deg_bound must be >= 0")
    if len(set(map(complex, pts))) < deg_bound + 1:
        raise ValueError(f"need at least {deg_bound + 1} distinct sample points")

    center = complex(np.mean(pts))
    spread = float(np.max(np.abs(pts - center)))
    spread = spread if spread > 0 else 1.0
    s = (pts - center) / spread

    v = np.vander(s, deg_bound + 1, increasing=True)
    sol, _, _, sv = np.linalg.lstsq(v, vals, rcond=None)
    cond = float(sv[0] / sv[-1]) if sv.size and sv[-1] > 0 else np.inf

    # expand c_k ((x-center)/spread)^k back to monomials in x
    out = np.zeros(deg_bound + 1, dtype=complex)
    basis = np.array([1.0 + 0j])
    shift = np.array([-center, 1.0], dtype=complex)
    for k in range(deg_bound + 1):
        out[: len(basis)] += sol[k] / spread**k * basis
        basis = np.convolve(basis, shift)
    poly = UniPoly(out).snapped(tol)

    vscale = max(1.0, float(np.max(np.abs(vals))) if vals.size else 0.0)
    residual = float(np.max(np.abs([poly(x) - y for x, y in zip(pts, vals)])))
    if residual > tol * vscale:
        raise OverdeterminedMismatch(
            f"data is not polynomial of degree <= {deg_bound} "
            f"(residual {residual:.3e} vs tol {tol * vscale:.3e})",
            residual=residual,
        )
    return PolyFit(poly, residual, cond)


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
        against that variable's powers."""
        out = self.coeffs
        k, d = out.ndim, out.shape[0]
        for ax in range(k):
            s = (np.asarray(point[ax], dtype=complex) - self.center[ax]) / self.radii[ax]
            # leading axes of ``out``: the coordinates' broadcast shape so far
            out = out.reshape(out.shape[: out.ndim + ax - k] + (d, -1))
            out = (s[..., None, None] ** np.arange(d)) @ out
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
    """
    grid = np.asarray(grid, dtype=complex)
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
