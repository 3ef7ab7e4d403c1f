"""Sparse multivariate polynomials with complex coefficients.

Terms are stored as a map from exponent vectors to coefficients; no
zero-coefficient term is kept. Instances are treated as immutable.
"""

from __future__ import annotations

import numpy as np

from .numeric import UniPoly


class MultiPoly:
    """Polynomial in named variables, exponent-vector -> coefficient."""

    __slots__ = ("vars", "terms")

    def __init__(self, vars, terms=None):
        self.vars = tuple(vars)
        clean = {}
        for exps, c in (terms or {}).items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != len(self.vars):
                raise ValueError(
                    f"exponent vector {exps} does not match variables {self.vars}"
                )
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            c = complex(c)
            if c != 0:
                clean[exps] = clean.get(exps, 0j) + c
        self.terms = {e: c for e, c in clean.items() if c != 0}

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

    @classmethod
    def from_univariate(cls, p: UniPoly, name, vars):
        vars = tuple(vars)
        idx = vars.index(name)
        terms = {}
        for k, c in enumerate(p.coeffs):
            if c != 0:
                exps = tuple(k if i == idx else 0 for i in range(len(vars)))
                terms[exps] = c
        return cls(vars, terms)

    # -- predicates / views -------------------------------------------

    @property
    def is_zero(self):
        return not self.terms

    def degree(self, name=None):
        """Total degree, or degree in one variable; -1 for the zero poly."""
        if not self.terms:
            return -1
        if name is None:
            return max(sum(e) for e in self.terms)
        idx = self.vars.index(name)
        return max(e[idx] for e in self.terms)

    def uses(self, name):
        idx = self.vars.index(name)
        return any(e[idx] for e in self.terms)

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
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                terms[e] = terms.get(e, 0j) + c1 * c2
        return MultiPoly(self.vars, terms)

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power")
        out = MultiPoly.constant(1.0, self.vars)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

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

    def evaluate(self, values):
        """Evaluate at a point given as {name: value} or a sequence
        aligned with ``self.vars``."""
        if isinstance(values, dict):
            point = [complex(values[v]) for v in self.vars]
        else:
            point = [complex(v) for v in values]
        # cache powers per variable up to the needed degree
        powers = []
        for i, z in enumerate(point):
            dmax = max((e[i] for e in self.terms), default=0)
            col = [1.0 + 0j]
            for _ in range(dmax):
                col.append(col[-1] * z)
            powers.append(col)
        total = 0j
        for e, c in self.terms.items():
            term = c
            for i, k in enumerate(e):
                if k:
                    term *= powers[i][k]
            total += term
        return total

    def substitute(self, mapping):
        """Substitute polynomials for variables.

        ``mapping`` sends variable names to MultiPoly instances over a
        common target variable tuple; unmapped variables must appear in
        the target tuple themselves.
        """
        target = None
        for v in mapping.values():
            if target is None:
                target = v.vars
            elif v.vars != target:
                raise ValueError("substitution images use inconsistent variables")
        if target is None:
            target = self.vars
        images = []
        for name in self.vars:
            if name in mapping:
                images.append(mapping[name])
            else:
                images.append(MultiPoly.variable(name, target))
        out = MultiPoly.zero(target)
        for e, c in self.terms.items():
            term = MultiPoly.constant(c, target)
            for img, k in zip(images, e):
                if k:
                    term = term * img**k
            out = out + term
        return out

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

    def restricted(self, names):
        """Drop unused variables down to ``names`` (must cover all used)."""
        names = tuple(names)
        keep = [self.vars.index(v) for v in names]
        used = set()
        for e in self.terms:
            for i, k in enumerate(e):
                if k:
                    used.add(i)
        if not used.issubset(keep):
            missing = [self.vars[i] for i in sorted(used - set(keep))]
            raise ValueError(f"polynomial still uses {missing}")
        terms = {tuple(e[i] for i in keep): c for e, c in self.terms.items()}
        return MultiPoly(names, terms)

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
