"""Sparse multivariate polynomials with complex coefficients.

Terms are stored as a map from exponent vectors to coefficients; no
zero-coefficient term is kept. Instances are immutable: the degree in each
variable is computed once, at construction.
"""

from __future__ import annotations

import itertools
import math
import operator

import numpy as np

from .numeric import UniPoly


def _mul_terms(t1, t2):
    """Product of two exponent-vector -> coefficient maps."""
    out = {}
    for e1, c1 in t1.items():
        for e2, c2 in t2.items():
            e = tuple(map(operator.add, e1, e2))
            out[e] = out.get(e, 0j) + c1 * c2
    return out


def _substitute_terms(poly, images, one):
    """Term map of ``poly`` with images[i] (term maps over the targets, zero
    exponent ``one``, coefficients maybe chart arrays) for variable i, by
    Horner's rule on one dense tensor kept on ``poly`` per image layout:
    chart axis; an axis per image but a monomial of coefficient 1, which
    places the terms, each folded in from the top, one shifted add per
    image term; flat target exponents up to the most a term can reach."""
    horner = tuple(i for i, img in enumerate(images)
                   if [type(c) is complex and c == 1 for c in img.values()] != [True])
    key = (one, horner) + tuple(map(tuple, images))
    if key not in poly._layouts:
        poly._layouts[key] = _substitution_layout(poly, images, horner, one)
    keys, sizes, offsets, t = poly._layouts[key]
    lead = next((c.shape for i in horner for c in images[i].values()
                 if isinstance(c, np.ndarray)), ())
    t = np.broadcast_to(t, lead + t.shape) if lead else t
    for i, size, offs in zip(horner, sizes, offsets):
        block = t.shape[-1] // size
        shifts = [(o, c[..., None] if isinstance(c, np.ndarray) else c)
                  for o, c in zip(offs, images[i].values())]
        acc = t[..., -block:]
        for k in range(size - 2, -1, -1):
            prev, acc = acc, t[..., k * block:(k + 1) * block].copy()
            for o, c in shifts:
                acc[..., o:] += c * prev[..., :block - o]
        t = acc
    values = t.tolist() if not lead else list(t.transpose(-1, *range(len(lead))))
    return dict(zip(keys, values))


def _substitution_layout(poly, images, horner, one):
    """For _substitute_terms: the target exponents, the Horner axis sizes,
    the flat shift of each Horner image term, and the placed tensor."""
    exps = np.array(list(poly.terms), dtype=int).reshape(-1, len(images))
    image_degrees = [list(map(max, zip(*img))) if img else one for img in images]
    tshape = [d + 1 for d in (exps @ image_degrees).max(axis=0, initial=0).tolist()]
    shape = [poly._degrees[i] + 1 for i in horner] + tshape
    strides = [math.prod(shape[k + 1:]) for k in range(len(shape))]
    offset = lambda e: sum(map(operator.mul, e, strides[len(horner):]))  # noqa: E731
    step = [strides[horner.index(i)] if i in horner else offset(next(iter(img)))
            for i, img in enumerate(images)]
    t = np.zeros(math.prod(shape), dtype=complex)
    np.add.at(t, exps @ step, list(poly.terms.values()))
    return (list(itertools.product(*map(range, tshape))), shape[:len(horner)],
            [[offset(e) for e in images[i]] for i in horner], t)


def _monomials(exps, point):
    """Values of the monomials z^e, e the rows of the integer array
    ``exps``, at m values or arrays of one shape S: shape S + (rows,)."""
    out = np.ones(len(exps))
    for z, col in zip(point, exps.T):
        out = out * np.asarray(z, dtype=complex)[..., None] ** col
    return out


def _term_matrix(polys):
    """(exps, coefs) with _monomials(exps, z) @ coefs the values of
    ``polys`` at z: the monomials any of them uses, and their coefficients."""
    monos = sorted(set().union(*(f.terms for f in polys)))
    return (np.array(monos, dtype=int).reshape(len(monos), len(polys[0].vars)),
            np.array([[f.terms.get(e, 0j) for f in polys] for e in monos],
                     dtype=complex).reshape(-1, len(polys)))


class MultiPoly:
    """Polynomial in named variables, exponent-vector -> coefficient."""

    __slots__ = ("vars", "terms", "_degrees", "_layouts", "_matrix")

    def __init__(self, vars, terms=None):
        self.vars = tuple(vars)
        clean = {}
        for exps, c in (terms or {}).items():
            exps = tuple(map(int, exps))
            if len(exps) != len(self.vars):
                raise ValueError(
                    f"exponent vector {exps} does not match variables {self.vars}"
                )
            if min(exps, default=0) < 0:
                raise ValueError(f"negative exponent in {exps}")
            c = complex(c)
            if c != 0:
                clean[exps] = clean.get(exps, 0j) + c
        self.terms = {e: c for e, c in clean.items() if c != 0}
        self._layouts = {}  # _substitute_terms' tensors, one per image layout
        self._matrix = None  # _term_matrix([self]), built on first use
        # degree in each variable, 0 throughout for the zero polynomial
        if self.terms:
            self._degrees = tuple(map(max, zip(*self.terms)))
        else:
            self._degrees = (0,) * len(self.vars)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, vars):
        return cls(vars, {})

    @classmethod
    def constant(cls, value, vars):
        vars = tuple(vars)
        return cls(vars, {(0,) * len(vars): value})

    @classmethod
    def variable(cls, name, vars):
        vars = tuple(vars)
        idx = vars.index(name)
        exps = tuple(1 if i == idx else 0 for i in range(len(vars)))
        return cls(vars, {exps: 1.0})

    # -- predicates / views -------------------------------------------

    @property
    def is_zero(self):
        return not self.terms

    def degree(self, name):
        """Degree in one variable; -1 for the zero poly."""
        if not self.terms:
            return -1
        return self._degrees[self.vars.index(name)]

    def uses(self, name):
        return self._degrees[self.vars.index(name)] > 0

    def coefficient_scale(self):
        return max((abs(c) for c in self.terms.values()), default=0.0)

    # -- arithmetic ----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, MultiPoly):
            if other.vars != self.vars:
                raise ValueError(f"variable mismatch: {other.vars} vs {self.vars}")
            return other
        return MultiPoly.constant(other, self.vars)

    def __add__(self, other):
        other = self._coerce(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, 0j) + c
        return MultiPoly(self.vars, terms)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            return MultiPoly(
                self.vars, {e: c * other for e, c in self.terms.items()}
            )
        other = self._coerce(other)
        return MultiPoly(self.vars, _mul_terms(self.terms, other.terms))

    __rmul__ = __mul__

    def __eq__(self, other):
        return (
            isinstance(other, MultiPoly)
            and self.vars == other.vars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    # -- calculus / evaluation ------------------------------------------

    def partial(self, name):
        idx = self.vars.index(name)
        terms = {}
        for e, c in self.terms.items():
            if e[idx] == 0:
                continue
            ne = e[:idx] + (e[idx] - 1,) + e[idx + 1:]
            terms[ne] = terms.get(ne, 0j) + c * e[idx]
        return MultiPoly(self.vars, terms)

    def matrix(self):
        """(exps, coefs) of _term_matrix([self]), built on first use and
        kept: _monomials(exps, z) @ coefs is the value at z."""
        if self._matrix is None:
            self._matrix = _term_matrix([self])
        return self._matrix

    def evaluate(self, values):
        """Evaluate at a point given as {name: value} or a sequence
        aligned with ``self.vars``; values may be arrays of one shape,
        giving the value at each of their points."""
        if isinstance(values, dict):
            point = [values[v] for v in self.vars]
        else:
            point = list(values)
            if len(point) != len(self.vars):
                raise ValueError(
                    f"point has {len(point)} values for variables {self.vars}"
                )
        exps, coefs = self.matrix()
        out = (_monomials(exps, point) @ coefs)[..., 0]
        return out if out.ndim else complex(out)

    def substitute(self, mapping):
        """Substitute polynomials for variables.

        ``mapping`` sends variable names to MultiPoly instances over a
        common target variable tuple; unmapped variables must appear in
        the target tuple themselves. The powers of each image are built
        once per call, each from the one below it.
        """
        target = None
        for v in mapping.values():
            if target is None:
                target = v.vars
            elif v.vars != target:
                raise ValueError("substitution images use inconsistent variables")
        if target is None:
            target = self.vars
        images = [(mapping[name] if name in mapping else MultiPoly.variable(name, target)).terms
                  for name in self.vars]
        terms = _substitute_terms(self, images, (0,) * len(target))
        return MultiPoly(target, terms)

    def with_vars(self, new_vars):
        """Re-embed into a superset variable tuple."""
        new_vars = tuple(new_vars)
        pos = []
        for v in self.vars:
            pos.append(new_vars.index(v))
        terms = {}
        for e, c in self.terms.items():
            ne = [0] * len(new_vars)
            for p, k in zip(pos, e):
                ne[p] = k
            terms[tuple(ne)] = c
        return MultiPoly(new_vars, terms)

    def as_univariate(self, name):
        """View as UniPoly in ``name``; all other variables must be unused."""
        idx = self.vars.index(name)
        coeffs = np.zeros(self.degree(name) + 1 if self.terms else 0, dtype=complex)
        for e, c in self.terms.items():
            if any(k and i != idx for i, k in enumerate(e)):
                raise ValueError(f"polynomial is not univariate in {name}")
            coeffs[e[idx]] += c
        return UniPoly(coeffs)

    def univariate_coeffs(self, name):
        """Coefficients in ``name`` as MultiPolys over the other variables,
        lowest degree first."""
        idx = self.vars.index(name)
        rest = tuple(v for v in self.vars if v != name)
        d = self.degree(name)
        buckets = [dict() for _ in range(max(d + 1, 1))]
        for e, c in self.terms.items():
            re = tuple(k for i, k in enumerate(e) if i != idx)
            buckets[e[idx]][re] = buckets[e[idx]].get(re, 0j) + c
        return [MultiPoly(rest, b) for b in buckets]

    # -- display ---------------------------------------------------------

    def __repr__(self):
        if not self.terms:
            return "MultiPoly(0)"
        bits = []
        for e in sorted(self.terms, key=lambda t: (sum(t), t)):
            c = self.terms[e]
            mono = "*".join(
                f"{v}^{k}" if k > 1 else v
                for v, k in zip(self.vars, e)
                if k
            )
            bits.append(f"({c:.4g}){'*' + mono if mono else ''}")
        return " + ".join(bits)
