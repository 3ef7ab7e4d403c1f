"""Inverse direction: recover minimal polynomials, the numerator, and
global algebraic data from trace moments.

Per fiber variable the moments satisfy a monic linear recurrence whose
coefficients are the minimal-polynomial coefficients; solving the
shifted-Hankel systems (rows indexed by the other slots' multi-indices)
recovers them, and the generating-series identity

    sum_I m_I / y^(I+1) = Q / (P_1 ... P_p),       m_I = (-1)^(n p) u_I

yields the numerator coefficients by clearing negative powers slot by
slot (first fiber slot first, then the next). The sign normalization
converts the repo Jacobian convention into the substituted-system
residues the series identity is stated for, so a round trip returns the
source numerator with its original sign.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from itertools import product as iproduct

import numpy as np

from .errors import (
    DegreeUndetectable,
    IllConditioned,
    InconsistentTraces,
    OverdeterminedMismatch,
    UnsupportedDimension,
)
from .geometry import DomainSpec, ResidueData, VarietySpec
from .multipoly import MultiPoly
from .numeric import COND_CAP, TOL_FIT, UniPoly, poly_interpolate
from .residues import (
    CLEAN,
    TorusPlan,
    TraceTable,
    _check_tol,
    moment_sign,
    trace_table,
)


@dataclass(frozen=True)
class MinimalPolySet:
    """Monic minimal polynomials per fiber variable: degrees d_i and
    coefficient functions (UniPolys in the base variable, possibly
    constants), ordered a_1 .. a_{d_i} from the sub-leading term down."""

    base_var: str
    y_vars: tuple
    degrees: tuple
    coeffs: tuple          # per variable: tuple of UniPoly, length d_i
    diagnostics: dict = field(default_factory=dict)

    def coefficient_values(self, i, x):
        """(a_1, ..., a_d) for variable i at a base value, or as arrays
        over an array of base values."""
        return [np.polyval(c.coeffs[::-1], x) for c in self.coeffs[i]]

    def as_multipoly(self, i, x_var):
        """P_i as a MultiPoly over (x_var, y_i)."""
        d = self.degrees[i]
        terms = {(e, d - j): c for j in range(1, d + 1)
                 for e, c in enumerate(self.coeffs[i][j - 1].coeffs)}
        terms[(0, d)] = 1.0
        return MultiPoly((x_var, self.y_vars[i]), terms)


@dataclass(frozen=True)
class ReconstructedData:
    """Product-form residue data recovered from traces: minimal
    polynomials, a numerator with deg_{y_i} Q <= d_i - 1, and fit
    diagnostics. ``is_zero`` marks the zero reconstruction (all traces
    vanished)."""

    minimal: MinimalPolySet
    numerator: MultiPoly
    diagnostics: dict = field(default_factory=dict)
    is_zero: bool = False

    def to_residue_data(self):
        """The reconstruction as ResidueData labelled "reconstructed"."""
        x = self.minimal.base_var
        y_vars = self.minimal.y_vars
        allv = (x,) + tuple(y_vars)
        defs = [
            self.minimal.as_multipoly(i, x).with_vars(allv)
            for i in range(len(y_vars))
        ]
        variety = VarietySpec((x,), y_vars, defs)
        return ResidueData(variety, self.numerator.with_vars(allv), label="reconstructed")

    @classmethod
    def zero(cls, base_var, y_vars):
        p = len(y_vars)
        minimal = MinimalPolySet(
            base_var, tuple(y_vars), (1,) * p,
            tuple((UniPoly.zero(),) for _ in range(p)),
        )
        num = MultiPoly.zero((base_var,) + tuple(y_vars))
        return cls(minimal, num, {"zero_traces": True}, is_zero=True)


# ---------------------------------------------------------------------------
# moment plumbing
# ---------------------------------------------------------------------------

def _reconstruction_samples(t: TraceTable):
    """Clean samples of a projection-chart table: (base values of shape
    (k,), moments of shape (k, indices), {index: moment column}). The
    table must come from vertical charts (a = 0) with at most b_1 varying."""
    if t.n != 1:
        raise UnsupportedDimension("reconstruction supports one base variable")
    if np.any(t.domain.chart.a != 0):
        raise ValueError("reconstruction expects vertical charts (a = 0)")
    extra = [k for k in t.domain.varying if k != "b1"]
    if extra:
        raise ValueError(f"reconstruction tables may vary only b1, got {extra}")
    keep = [s for s, f in enumerate(t.flags) if f == CLEAN]
    if not keep:
        raise ValueError("no clean samples available")
    # b1, when it varies, is the offsets' one column
    xs = complex(t.domain.chart.b[0]) + t.domain.offset_array(t.offsets)[keep].sum(axis=1)
    cols = {idx: j for j, idx in enumerate(t.entries)}
    moments = np.stack([np.asarray(t.entries[idx], dtype=complex)[keep] for idx in cols], axis=1)
    return xs, moments, cols


def _slot_rows(cols, i, d, p, max_order):
    """The recurrence system of fiber slot i as moment columns:
    a_1 * m[.., k_i+d-1, ..] + ... + a_d * m[.., k_i, ..] = -m[.., k_i+d, ..],
    one row per k_i and other slots' indices whose top moment the table
    holds. Returns the left-hand columns (rows, d) and the right-hand
    columns (rows,)."""
    lhs, rhs = [], []
    for k_i in range(max_order - d + 1):
        for other in iproduct(range(max_order + 1), repeat=p - 1):
            idx = [other[:i] + (k,) + other[i:] for k in range(k_i + d, k_i - 1, -1)]
            if idx[0] in cols:
                rhs.append(cols[idx[0]])
                lhs.append([cols[ix] for ix in idx[1:]])
    return np.array(lhs, dtype=int).reshape(len(rhs), d), np.array(rhs, dtype=int)


def _fit_slot(moments, rows, scale):
    """Least-squares solutions of one slot's recurrence at every sample,
    from one stacked SVD: the minimum-norm solutions np.linalg.lstsq gives
    with rcond=None, each sample's largest defect over ``scale`` and its
    condition number (inf when singular), as arrays over the samples."""
    a, b = moments[:, rows[0]], -moments[:, rows[1]]
    u, sv, vh = np.linalg.svd(a, full_matrices=False)
    keep = sv > np.finfo(float).eps * max(a.shape[1:]) * sv[:, :1]
    inv = np.divide(1.0, sv, out=np.zeros_like(sv), where=keep)
    sol = np.einsum("kij,ki->kj", vh.conj(), inv * np.einsum("kri,kr->ki", u.conj(), b))
    resid = np.abs(np.einsum("krj,kj->kr", a, sol) - b).max(axis=1) / scale
    cond = np.divide(sv[:, 0], sv[:, -1], out=np.full(len(sv), np.inf), where=sv[:, -1] > 0)
    return sol, resid, cond


def _fit_coefficients(xs, values, deg_bound, tol, scale):
    """Fit each column of ``values`` (samples x columns), one coefficient
    function of a family, as a polynomial in the base variable: at
    ``deg_bound``, or without one at the first degree 0 .. (samples-1)//2
    whose residual is at most tol * max(1, max|column|), each degree one
    stacked solve over the columns still unfitted. Coefficients at or
    below tol * scale (the family's shared magnitude) snap to zero.
    Returns the coefficient rows (columns, largest degree + 1) and the
    largest residual; raises OverdeterminedMismatch when a column never
    fits."""
    sweep = ([deg_bound] if deg_bound is not None and len(xs) > 1
             else range((len(xs) - 1) // 2 + 1))
    coeffs = np.zeros((values.shape[1], sweep[-1] + 1), dtype=complex)
    resid = np.zeros(values.shape[1])
    limit = tol * np.maximum(1.0, np.abs(values).max(axis=0))
    left = np.arange(values.shape[1])
    for deg in sweep:
        fit = poly_interpolate(xs, values[:, left], deg, tol)
        ok = fit.residual <= limit[left]
        coeffs[left[ok], :deg + 1] = fit.coeffs[ok]
        resid[left[ok]] = fit.residual[ok]
        left = left[~ok]
        if not left.size:
            coeffs[np.abs(coeffs) <= tol * max(scale, 1e-300)] = 0.0
            return coeffs, float(resid.max())
    worst = float(fit.residual[~ok].max())
    raise OverdeterminedMismatch(
        f"{left.size} coefficient function(s) not polynomial of degree <= {sweep[-1]} "
        f"(largest residual {worst:.3e}): a wrong bound or a meromorphic coefficient",
        residual=worst,
    )


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def fit_minimal_polys(t: TraceTable, d_max, tol=TOL_FIT, coeff_deg_bound=None):
    """Recover the monic minimal-polynomial coefficients from a trace
    table: per fiber variable, the smallest recurrence length d <= d_max
    whose residual falls below tol (rows taken across the other slots'
    multi-indices), solved per base sample and then fitted as polynomials
    in the base variable.

    Raises DegreeUndetectable (zero_moments=True when all traces vanish),
    IllConditioned near the discriminant (a sample's recurrence condition
    number above COND_CAP), OverdeterminedMismatch when a coefficient is
    not polynomial within the degree bound. The reported condition is the
    worst over all samples. ValueError, before any work, unless ``d_max``
    is an integer of at least 1 and ``tol`` finite and at least 0.
    """
    if isinstance(d_max, bool) or not isinstance(d_max, numbers.Integral) or d_max < 1:
        raise ValueError(f"d_max must be an integer of at least 1, got {d_max!r}")
    _check_tol(tol)
    xs, moments, cols = _reconstruction_samples(t)
    p = t.p
    scale = t.scale()
    if scale <= tol * max(t.term_scale(), 1e-300):
        raise DegreeUndetectable(
            "all traces vanish; data is identically zero", zero_moments=True
        )
    if t.max_order < 2 * d_max - 1:
        raise ValueError(
            f"table max_order {t.max_order} too small for d_max {d_max} "
            f"(need at least 2*d_max - 1)"
        )

    degrees, coeff_polys, diags = [], [], {}
    for i in range(p):
        # degree detection at the first clean sample
        best = None
        for d in range(1, d_max + 1):
            rows = _slot_rows(cols, i, d, p, t.max_order)
            if len(rows[1]) < d:
                raise ValueError(f"too few recurrence rows for degree {d} in slot {i}")
            resid = _fit_slot(moments[:1], rows, scale)[1][0]
            if best is None or resid < best[1]:
                best = (d, float(resid))
            if resid <= tol:
                break
        else:
            raise DegreeUndetectable(
                f"no degree <= {d_max} fits slot {i} "
                f"(best residual {best[1]:.3e} at degree {best[0]})"
            )
        per_sample, resid, cond = _fit_slot(moments, rows, scale)
        worst_res = float(resid.max())
        worst_cond = float(cond.max())
        if worst_cond > COND_CAP:
            raise IllConditioned(
                f"slot {i} recurrence condition {worst_cond:.3e} beyond cap",
                condition=worst_cond,
            )
        if worst_res > 10 * tol:
            raise DegreeUndetectable(
                f"slot {i} degree {d} detected at the first sample does not "
                f"fit all samples (worst residual {worst_res:.3e})"
            )
        slot_scale = max(1.0, float(np.max(np.abs(per_sample))))
        fitted, fit_res = _fit_coefficients(xs, per_sample, coeff_deg_bound, tol, slot_scale)
        degrees.append(d)
        coeff_polys.append(tuple(map(UniPoly, fitted)))
        diags[f"slot{i}"] = {
            "degree": d, "recurrence_residual": worst_res,
            "condition": worst_cond, "coefficient_fit_residual": fit_res,
        }
    return MinimalPolySet(
        t.data.variety.x_vars[0], t.data.variety.y_vars,
        tuple(degrees), tuple(coeff_polys), diags,
    )


def reconstruct_numerator(t: TraceTable, minimal: MinimalPolySet, tol=TOL_FIT,
                          coeff_deg_bound=None):
    """Recover the numerator Q from the trace table and fitted minimal
    polynomials: the formal series of sign-normalized moments equals
    Q / (P_1 ... P_p) up to the truncation order, and clearing negative
    powers slot by slot gives, for K_i < d_i, the coefficient of
    y_i^(d_i-1-K_i) as the convolution of the minimal coefficients with
    the moments.

    Raises InconsistentTraces when the recurrence defect beyond the
    reconstruction window exceeds tolerance (the traces are not generated
    by rational data of this shape). ValueError, before any work, unless
    ``tol`` is finite and at least 0.
    """
    _check_tol(tol)
    xs, moments, cols = _reconstruction_samples(t)
    p = t.p
    sign = moment_sign(t.n, p)
    scale = max(t.scale(), 1e-300)
    degrees = minimal.degrees
    # per slot, (1, a_1, ..., a_d) at every sample: shape (samples, d + 1)
    acoef = [np.column_stack([np.ones(len(xs))] + minimal.coefficient_values(i, xs))
             for i in range(p)]

    # truncation-defect check: the recurrence must keep holding on every
    # available index window beyond the fitted degree
    worst = 0.0
    for i in range(p):
        lhs, rhs = _slot_rows(cols, i, degrees[i], p, t.max_order)
        if rhs.size:
            defect = np.einsum("krj,kj->kr", moments[:, lhs], acoef[i][:, 1:]) + moments[:, rhs]
            worst = max(worst, float(np.max(np.abs(defect))) / scale)
    if worst > max(10 * tol, 1e-6):
        raise InconsistentTraces(
            f"recurrence defect {worst:.3e} beyond tolerance; traces are not "
            f"generated by rational data of this shape",
            defect=worst,
        )

    # one column per K (K_i < d_i): samples of the coefficient of
    # prod_i y_i^(d_i-1-K_i)
    family = list(iproduct(*[range(d) for d in degrees]))
    samples = np.zeros((len(xs), len(family)), dtype=complex)
    for col, K in enumerate(family):
        for J in iproduct(*[range(k + 1) for k in K]):
            prod_a = np.prod([acoef[i][:, J[i]] for i in range(p)], axis=0)
            midx = tuple(K[i] - J[i] for i in range(p))
            samples[:, col] += prod_a * (sign * moments[:, cols[midx]])

    fitted, fit_res = _fit_coefficients(
        xs, samples, coeff_deg_bound, tol, max(1.0, float(np.max(np.abs(samples))))
    )
    allv = (minimal.base_var,) + tuple(minimal.y_vars)
    terms = {(e,) + tuple(degrees[i] - 1 - K[i] for i in range(p)): c
             for K, row in zip(family, fitted) for e, c in enumerate(row) if c != 0}
    num = MultiPoly(allv, terms)

    diags = dict(minimal.diagnostics)
    diags["truncation_defect"] = worst
    diags["numerator_fit_residual"] = fit_res
    return ReconstructedData(minimal, num, diags)


@dataclass(frozen=True)
class MatchReport:
    passed: bool
    max_residual: float
    max_relative: float
    tol: float
    samples: int
    indices: int


def verify_traces_match(data1: ResidueData, data2: ResidueData, domain: DomainSpec,
                        max_order, tol):
    """Max trace discrepancy between two datasets over the shared plan
    TorusPlan(6), at the samples clean in both tables; the computational
    form of trace injectivity (matching traces on enough indices pin the
    data). ValueError, before any chart is solved, unless ``tol`` is
    finite and at least 0."""
    _check_tol(tol)
    if data1.variety.p != data2.variety.p:
        raise ValueError("datasets have different fiber dimension")
    plan = TorusPlan(6)
    t1 = trace_table(data1, domain, max_order, plan)
    t2 = trace_table(data2, domain, max_order, plan)
    mask = t1.clean_mask() & t2.clean_mask()
    worst = 0.0
    scale = max(t1.scale(), t2.scale(), 1e-300)
    shared = [idx for idx in t1.entries if idx in t2.entries]
    for idx in shared:
        diff = np.abs(t1.entries[idx][mask] - t2.entries[idx][mask])
        if diff.size:
            worst = max(worst, float(np.max(diff)))
    return MatchReport(
        worst <= tol, worst, worst / scale, tol, int(np.sum(mask)), len(shared)
    )


def reconstruct_global(t: TraceTable, d_max, deg_bounds, tol=TOL_FIT):
    """Full inverse pipeline on a locally sampled table: fit the minimal
    polynomials with global polynomial coefficients within ``deg_bounds``,
    then the numerator. Local trace data of algebraic origin determines
    the data on the whole base; non-algebraic data within the bounds fails
    with OverdeterminedMismatch (the honest failure mode). All-zero traces
    return the zero reconstruction.

    ``deg_bounds`` is an int bounding the degree of every coefficient
    function, or None to take each at the lowest degree that fits.
    """
    try:
        minimal = fit_minimal_polys(t, d_max, tol, coeff_deg_bound=deg_bounds)
    except DegreeUndetectable as exc:
        if exc.zero_moments:
            return ReconstructedData.zero(
                t.data.variety.x_vars[0], t.data.variety.y_vars
            )
        raise
    return reconstruct_numerator(t, minimal, tol, coeff_deg_bound=deg_bounds)
