"""Lagrange reference elements on the unit triangle, degrees 1 to 3.

`node_lattice` alone fixes the node order: the three vertices (0,0), (1,0),
(0,1), then the edge nodes walking edges (v0,v1), (v1,v2), (v2,v0) away
from the first vertex of each edge, then the interior node (cubic only).
Everything else reads a node's barycentric multi-index: the basis (one
Silvester product for every degree), the facets of the subcell segments,
and the dof map's kinds, edge slots and P1 interpolation weights.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

N_NODES = {1: 3, 2: 6, 3: 10}

# Barycentric gradients on the reference triangle.
_DL = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])


def _check_degree(degree):
    # True == 1 and 2.0 == 2, but neither is a degree; the caches keyed by
    # a degree are typed, so no warm entry of 1 or 2 answers for them.
    if (isinstance(degree, bool) or not isinstance(degree, (int, np.integer))
            or degree not in N_NODES):
        raise ValueError(f"unsupported degree {degree!r}; supported: 1, 2, 3")


@lru_cache(maxsize=None, typed=True)
def node_lattice(degree):
    """Integer lattice positions (i, j) of the nodes; coordinates are (i, j)/k."""
    _check_degree(degree)
    k, v = degree, ((0, 0), (degree, 0), (0, degree))
    edges = tuple(tuple((p * (k - j) + q * j) // k for p, q in zip(v[a], v[b]))
                  for a, b in ((0, 1), (1, 2), (2, 0)) for j in range(1, k))
    return v + edges + tuple((i, j) for i in range(1, k)
                             for j in range(1, k - i))


@lru_cache(maxsize=None, typed=True)
def ref_nodes(degree):
    """Reference coordinates of the nodal points, shape (N, 2)."""
    pts = np.array(node_lattice(degree), dtype=float) / degree
    pts.setflags(write=False)
    return pts


@lru_cache(maxsize=None, typed=True)
def _multi_index(degree):
    """Barycentric multi-indices (k - i - j, i, j) of the nodes, (N, 3):
    node n lies at sum_c a[n, c] / k times vertex c."""
    ij = np.array(node_lattice(degree))
    a = np.column_stack([degree - ij.sum(axis=1), ij])
    a.setflags(write=False)
    return a


def node_facets(degree):
    """(N, 3) mask: node n lies on facet m, the edge from vertex m to
    vertex (m + 1) % 3, where its index at vertex (m + 2) % 3 is 0."""
    return np.roll(_multi_index(degree) == 0, 1, axis=1)


def eval_basis(degree, points):
    """Nodal basis values and gradients at reference points.

    Returns (values, gradients) with shapes (P, N) and (P, N, 2). The node
    at lattice position (i, j) has the multi-index a = (k - i - j, i, j)
    over lambda = (1 - x - y, x, y), and the function
    prod_c L_{a_c}(lambda_c) (Silvester), where L_0 = 1 and L_{m+1} =
    L_m (k lambda - m) / (m + 1) vanishes at lambda = 0, 1/k, ..., m/k; the
    gradient is sum_c dphi/dlambda_c grad(lambda_c). The basis satisfies the
    Kronecker property at the nodes, sums to one, and its gradients sum to
    zero at every point.
    """
    a = _multi_index(degree)
    x, y = np.atleast_2d(np.asarray(points, dtype=float)).T
    lam = np.stack([1.0 - x - y, x, y])                  # (3, P)
    ls, dls = [np.ones_like(lam)], [np.zeros_like(lam)]
    for m in range(degree):
        s = degree * lam - m
        dls.append((dls[m] * s + degree * ls[m]) / (m + 1))
        ls.append(ls[m] * s / (m + 1))
    f, df = (np.array(t)[a, [0, 1, 2]] for t in (ls, dls))  # (N, 3, P)
    # Row c of the (N, 3, 3, P) stack holds the factors with the c-th
    # differentiated: its product is dphi/dlambda_c.
    dphi = np.where(np.eye(3, dtype=bool)[:, :, None], df[:, None],
                    f[:, None]).prod(axis=2)
    return (np.ascontiguousarray(f.prod(axis=1).T),
            dphi.transpose(2, 0, 1) @ _DL)


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
    a = a.reshape(2 * len(jac), a.shape[-1])
    if out is not None:
        out = out[:a.shape[0] * r.shape[1]].reshape(a.shape[0], -1)
    out = np.matmul(a, r, out=out)
    return np.moveaxis(out.reshape((2, len(jac)) + ref.shape[:-1]), 0, -1)

