"""Polynomial and fiber-point builders shared by the tests."""

import numpy as np

from abeltrace.geometry import FiberPoint
from abeltrace.multipoly import MultiPoly
from abeltrace.numeric import UniPoly


def from_roots(roots):
    """Monic UniPoly with the given roots."""
    c = np.array([1.0], dtype=complex)
    for r in roots:
        c = np.convolve(c, np.array([-r, 1.0], dtype=complex))
    return UniPoly(c)


def from_univariate(p, name, vars):
    """The UniPoly ``p`` as a MultiPoly in the variable ``name`` of ``vars``."""
    vars = tuple(vars)
    idx = vars.index(name)
    terms = {tuple(k if i == idx else 0 for i in range(len(vars))): c
             for k, c in enumerate(p.coeffs) if c != 0}
    return MultiPoly(vars, terms)


def fiber_points(fiber):
    """A solved Fiber's points as the FiberPoints that punctual_residue
    and clustered_residue take."""
    return tuple(FiberPoint(tuple(c), j, m) for c, j, m in zip(
        fiber.coords.tolist(), fiber.jacobians.tolist(), fiber.multiplicities.tolist()))


def derivative(p):
    """The UniPoly p'."""
    c = np.asarray(p.coeffs, dtype=complex)
    return UniPoly(c[1:] * np.arange(1, len(c)))
