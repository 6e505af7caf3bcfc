"""Quadrature rules on the reference triangle and the unit interval.

Triangle rules are built as collapsed (Duffy) tensor products of
Gauss-Legendre rules, which gives exactness for any requested polynomial
degree with deterministic point ordering.  The reference triangle is
{(x, y): x >= 0, y >= 0, x + y <= 1} with measure 1/2.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

MAX_DEGREE = 20


@dataclass(frozen=True)
class QuadratureRule:
    """Points and weights of a fixed rule; ``points`` are reference coords."""

    points: np.ndarray
    weights: np.ndarray
    degree: int


def _gauss01(n: int):
    # Gauss-Legendre on [0, 1]
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


@lru_cache(maxsize=None)
def edge_rule(degree: int) -> QuadratureRule:
    """Gauss rule on [0, 1] exact for polynomials up to ``degree``."""
    if not 1 <= degree <= MAX_DEGREE:
        raise ValueError(f"unsupported edge quadrature degree {degree}")
    n = degree // 2 + 1
    x, w = _gauss01(n)
    return QuadratureRule(points=x.copy(), weights=w.copy(), degree=degree)


@lru_cache(maxsize=None)
def triangle_rule(degree: int) -> QuadratureRule:
    """Rule on the reference triangle exact for total degree ``degree``.

    Duffy map (u, v) -> (u, v*(1-u)) of a tensor Gauss grid; a monomial
    x^i y^j picks up an extra factor (1-u), so the u-rule needs exactness
    degree+1 and the v-rule needs degree.
    """
    if not 1 <= degree <= MAX_DEGREE:
        raise ValueError(f"unsupported triangle quadrature degree {degree}")
    nu = (degree + 1) // 2 + 1
    nv = degree // 2 + 1
    xu, wu = _gauss01(nu)
    xv, wv = _gauss01(nv)
    U, V = np.meshgrid(xu, xv, indexing="ij")
    X = U.ravel()
    Y = (V * (1.0 - U)).ravel()
    W = (np.outer(wu, wv) * (1.0 - U)).ravel()
    return QuadratureRule(points=np.column_stack([X, Y]), weights=W, degree=degree)
