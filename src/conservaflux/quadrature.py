"""Gauss quadrature on the reference triangle and the unit segment.

Triangle rules are collapsed Gauss-Legendre x Gauss-Jacobi product rules
(Duffy map of the unit square), which gives positive weights and any
requested polynomial exactness without tabulated constants. Gauss-Legendre
nodes come from numpy; the Gauss-Jacobi(1, 0) factor from the eigenvalues of
its Jacobi matrix (Golub & Welsch, Math. Comp. 23, 1969).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

_MAX_EXACTNESS = 60


@dataclass(frozen=True)
class QuadratureRule:
    points: np.ndarray   # (m, 2) for triangles, (m,) for segments
    weights: np.ndarray  # (m,), positive
    exactness: int

    def __post_init__(self):
        self.points.setflags(write=False)
        self.weights.setflags(write=False)


def _gauss_jacobi_10(m):
    """Gauss rule for the weight 1 - x on [-1, 1]: eigenvalues of the Jacobi
    matrix, and 2 (the weight's integral) times squared first components."""
    n = np.arange(m)
    off = np.sqrt(n[1:] * (n[1:] + 1.0)) / (2 * n[1:] + 1)
    jm = (np.diag(-1.0 / ((2 * n + 1) * (2 * n + 3)))
          + np.diag(off, 1) + np.diag(off, -1))
    x, v = np.linalg.eigh(jm)
    return x, 2.0 * v[0] ** 2


def _checked_exactness(exactness):
    if (isinstance(exactness, bool)
            or not isinstance(exactness, (int, np.integer))
            or exactness < 0 or exactness > _MAX_EXACTNESS):
        raise ValueError(f"unsupported triangle exactness request: {exactness!r} "
                         f"(supported: 0..{_MAX_EXACTNESS})")
    return int(exactness)


@lru_cache(maxsize=None, typed=True)
def segment_rule(npoints):
    """Gauss-Legendre rule on [0, 1] with the given point count.

    Exact for polynomials of degree 2*npoints - 1.
    """
    if (isinstance(npoints, bool)
            or not isinstance(npoints, (int, np.integer)) or npoints < 1):
        raise ValueError(f"segment rule needs a positive point count, got {npoints!r}")
    x, w = leggauss(int(npoints))
    return QuadratureRule((x + 1.0) / 2.0, w / 2.0, 2 * int(npoints) - 1)


@lru_cache(maxsize=None, typed=True)
def triangle_rule(exactness):
    """Rule on the reference triangle {x, y >= 0, x + y <= 1}.

    Integrates all polynomials up to the requested total degree; the
    weights sum to the reference area 1/2.
    """
    m = _checked_exactness(exactness) // 2 + 1  # 2m - 1 >= exactness
    seg = segment_rule(m)
    # Jacobi weight (1 - v) absorbs the Duffy-map Jacobian exactly.
    xv, wv = _gauss_jacobi_10(m)
    u, v = np.meshgrid(seg.points, (xv + 1.0) / 2.0, indexing="ij")
    pts = np.column_stack([(u * (1.0 - v)).ravel(), v.ravel()])
    w = np.outer(seg.weights, wv / 4.0).ravel()
    return QuadratureRule(pts, w, int(exactness))
