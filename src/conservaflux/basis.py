"""Lagrange reference elements on the unit triangle, degrees 1 to 3.

Node ordering per degree: the three vertices (0,0), (1,0), (0,1), then the
edge nodes walking edges (v0,v1), (v1,v2), (v2,v0) away from the first
vertex of each edge, then the interior node (cubic only).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

N_NODES = {1: 3, 2: 6, 3: 10}

_EDGE_PAIRS = ((0, 1), (1, 2), (2, 0))

# Barycentric gradients on the reference triangle.
_DL = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])


def _check_degree(degree):
    if degree not in N_NODES:
        raise ValueError(f"unsupported degree {degree!r}; supported: 1, 2, 3")


@lru_cache(maxsize=None)
def node_lattice(degree):
    """Integer lattice positions (i, j) of the nodes; coordinates are (i, j)/k."""
    _check_degree(degree)
    k = degree
    verts = [(0, 0), (k, 0), (0, k)]
    lattice = list(verts)
    for a, b in _EDGE_PAIRS:
        pa, pb = verts[a], verts[b]
        for j in range(1, k):
            lattice.append((pa[0] + (pb[0] - pa[0]) * j // k,
                            pa[1] + (pb[1] - pa[1]) * j // k))
    for i in range(1, k):
        for j in range(1, k - i):
            lattice.append((i, j))
    return tuple(lattice)


@lru_cache(maxsize=None)
def ref_nodes(degree):
    """Reference coordinates of the nodal points, shape (N, 2)."""
    pts = np.array(node_lattice(degree), dtype=float) / degree
    pts.setflags(write=False)
    return pts


def eval_basis(degree, points):
    """Nodal basis values and gradients at reference points.

    Returns (values, gradients) with shapes (P, N) and (P, N, 2). The basis
    satisfies the Kronecker property at the nodes, sums to one, and its
    gradients sum to zero at every point.
    """
    _check_degree(degree)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    x, y = pts[:, 0], pts[:, 1]
    lam = np.stack([1.0 - x - y, x, y], axis=1)          # (P, 3)
    npts = len(pts)
    n = N_NODES[degree]
    vals = np.empty((npts, n))
    grads = np.empty((npts, n, 2))

    if degree == 1:
        vals[:] = lam
        grads[:] = _DL[None, :, :]
        return vals, grads

    if degree == 2:
        for i in range(3):
            li = lam[:, i]
            vals[:, i] = li * (2.0 * li - 1.0)
            grads[:, i] = (4.0 * li - 1.0)[:, None] * _DL[i]
        for m, (a, b) in enumerate(_EDGE_PAIRS):
            la, lb = lam[:, a], lam[:, b]
            vals[:, 3 + m] = 4.0 * la * lb
            grads[:, 3 + m] = 4.0 * (lb[:, None] * _DL[a] + la[:, None] * _DL[b])
        return vals, grads

    for i in range(3):
        li = lam[:, i]
        vals[:, i] = 0.5 * li * (3.0 * li - 1.0) * (3.0 * li - 2.0)
        grads[:, i] = (0.5 * (27.0 * li * li - 18.0 * li + 2.0))[:, None] * _DL[i]
    for m, (a, b) in enumerate(_EDGE_PAIRS):
        la, lb = lam[:, a], lam[:, b]
        c = 3 + 2 * m
        vals[:, c] = 4.5 * la * lb * (3.0 * la - 1.0)
        grads[:, c] = 4.5 * ((lb * (6.0 * la - 1.0))[:, None] * _DL[a]
                             + (la * (3.0 * la - 1.0))[:, None] * _DL[b])
        vals[:, c + 1] = 4.5 * la * lb * (3.0 * lb - 1.0)
        grads[:, c + 1] = 4.5 * ((lb * (3.0 * lb - 1.0))[:, None] * _DL[a]
                                 + (la * (6.0 * lb - 1.0))[:, None] * _DL[b])
    l0, l1, l2 = lam[:, 0], lam[:, 1], lam[:, 2]
    vals[:, 9] = 27.0 * l0 * l1 * l2
    grads[:, 9] = 27.0 * ((l1 * l2)[:, None] * _DL[0]
                          + (l0 * l2)[:, None] * _DL[1]
                          + (l0 * l1)[:, None] * _DL[2])
    return vals, grads


def map_points(v0, jac, ref, out=None):
    """Images v0 + J r of reference points r (..., 2) under the affine maps
    (v0 (T, 2), jac (T, 2, 2)) of T elements, shape (T, ..., 2); v0=None
    maps vectors by J alone. One matrix product [v0 | J] (2T, 3) @ [1; r]
    (3, P), rows ordered coordinate-major, so each coordinate is its own
    contiguous plane; it agrees with the einsum contraction to a few ulps.
    `out`, a flat float array of at least 2 T P values, receives the
    product, and the result is a view into it."""
    ref = np.asarray(ref, dtype=float)
    r = ref.reshape(-1, 2).T
    a = jac.transpose(1, 0, 2)
    if v0 is not None:
        a = np.concatenate([v0.T[:, :, None], a], axis=2)
        r = np.vstack([np.ones(r.shape[1]), r])
    a = a.reshape(2 * len(jac), -1)
    if out is not None:
        out = out[:a.shape[0] * r.shape[1]].reshape(a.shape[0], -1)
    out = np.matmul(a, r, out=out)
    return np.moveaxis(out.reshape((2, len(jac)) + ref.shape[:-1]), 0, -1)

