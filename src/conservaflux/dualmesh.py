"""Subcell partitions and nodal control volumes on triangular elements.

Each element is split into degree^2 congruent sub-triangles (edge midpoints
for quadratics, edge trisection for cubics); inside every sub-triangle the
barycenter is joined to the edge midpoints. The three quadrilaterals this
creates are assigned to the sub-triangle's corner nodes, and the union of a
node's quadrilaterals is its subcell polygonal. Gluing the subcells of one
global degree of freedom across elements yields its control volume. Subcell
integrals use a tensor Gauss rule on each quadrilateral, the bilinear image
of the unit square (see `subcell_quadrature`).

Subcell boundary segments come in two classes:
  * "cv"      - dual segments interior to the element; these tile the part
                of the control-volume boundary crossing this element.
  * "element" - segments on the element boundary; across a shared facet the
                neighboring element contributes the matching subcell, so
                these are interior to the control volume (or lie on the
                domain boundary).

The whole construction is affine: it is tabulated once per degree on the
reference triangle and mapped through each element's jacobian.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import basis
from ._table import coords, labels, numbers, write_table
from .quadrature import _checked_exactness, segment_rule

CLASS_CONTROL_VOLUME = "cv"
CLASS_ELEMENT_BOUNDARY = "element"


class DualMeshError(Exception):
    """Inconsistent control-volume geometry."""


def _rot(v):
    """Rotate by -90 degrees: outward normal direction of a CCW-oriented edge."""
    out = np.empty_like(v)
    out[..., 0] = v[..., 1]
    out[..., 1] = -v[..., 0]
    return out


@dataclass(frozen=True)
class _RefDual:
    """Reference-triangle tabulation of the subcell construction for one degree.

    Control-volume segments are stored once per geometric segment, oriented
    counterclockwise for `cv_plus` (so the rotated direction is that owner's
    outward normal); `cv_minus` is the owner on the other side.
    """
    cv_start: np.ndarray     # (S, 2)
    cv_end: np.ndarray       # (S, 2)
    cv_plus: np.ndarray      # (S,)
    cv_minus: np.ndarray     # (S,)
    bd_start: np.ndarray     # (B, 2)
    bd_end: np.ndarray       # (B, 2)
    bd_owner: np.ndarray     # (B,)
    bd_facet: np.ndarray     # (B,)
    bd_mate: np.ndarray      # (B, 3)
    areas: np.ndarray        # (N,) subcell areas, sum = 1/2
    loops: tuple             # per node, (m, 2) CCW polygon loop
    quads: np.ndarray        # (P, 4, 2) corner, midpoint, barycenter, midpoint
    quad_owner: np.ndarray   # (P,)


@lru_cache(maxsize=None)
def _ref_dual(degree):
    k = degree
    index = {p: i for i, p in enumerate(basis.node_lattice(k))}
    xy = basis.ref_nodes(k)
    n = basis.N_NODES[k]
    on = basis.node_facets(k)

    subtris = []
    for i in range(k):
        for j in range(k - i):
            subtris.append(((i, j), (i + 1, j), (i, j + 1)))
    for i in range(k - 1):
        for j in range(k - 1 - i):
            subtris.append(((i + 1, j), (i + 1, j + 1), (i, j + 1)))

    cv_start, cv_end, cv_plus, cv_minus = [], [], [], []
    bd_start, bd_end, bd_owner, bd_facet = [], [], [], []
    quads, quad_owner = [], []
    loop_edges = [[] for _ in range(n)]

    for lat in subtris:
        ids = [index[p] for p in lat]
        p = [xy[i] for i in ids]
        bc = (p[0] + p[1] + p[2]) / 3.0
        mids = [(p[a] + p[b]) / 2.0 for a, b in ((0, 1), (1, 2), (2, 0))]

        # Dual segments: midpoint of sub-edge m to the barycenter. CCW for
        # the corner preceding the sub-edge, clockwise for the one after it.
        for m in range(3):
            plus, minus = ids[m], ids[(m + 1) % 3]
            cv_start.append(mids[m])
            cv_end.append(bc)
            cv_plus.append(plus)
            cv_minus.append(minus)
            loop_edges[plus].append((mids[m], bc))
            loop_edges[minus].append((bc, mids[m]))

        # Sub-edge m lies on the facets both its ends lie on (at most one).
        facets = [np.flatnonzero(on[ids[m]] & on[ids[(m + 1) % 3]])
                  for m in range(3)]
        for c in range(3):
            owner = ids[c]
            m_next = mids[c]            # midpoint of sub-edge (c, c+1)
            m_prev = mids[(c + 2) % 3]  # midpoint of sub-edge (c-1, c)
            quads.append([p[c], m_next, bc, m_prev])
            quad_owner.append(owner)

            # Half-edges of the sub-triangle boundary. Interior ones separate
            # two quadrilaterals of the same node and are dropped.
            for fct, seg in ((facets[c], (p[c], m_next)),
                             (facets[(c + 2) % 3], (m_prev, p[c]))):
                if fct.size:
                    bd_start.append(seg[0])
                    bd_end.append(seg[1])
                    bd_owner.append(owner)
                    bd_facet.append(fct[0])
                    loop_edges[owner].append(seg)

    loops = tuple(_chain_loop(edges) for edges in loop_edges)
    quads = np.array(quads)
    # A quadrilateral's area is half the cross product of its diagonals.
    d1, d2 = quads[:, 2] - quads[:, 0], quads[:, 3] - quads[:, 1]
    areas = np.bincount(quad_owner, 0.5 * (d1[:, 0] * d2[:, 1]
                                           - d1[:, 1] * d2[:, 0]), n)
    bd_start, bd_end = np.array(bd_start), np.array(bd_end)
    bd_facet = np.array(bd_facet, dtype=np.int64)
    # bd_mate[s, f']: the segment on facet f' whose position along its facet
    # mirrors that of s. A neighbour whose facet f' is s's facet runs it the
    # other way, so that is its copy of s, with the points reversed.
    mid = 0.5 * (bd_start + bd_end)
    par = np.choose(bd_facet, [mid[:, 0], mid[:, 1], 1.0 - mid[:, 1]])
    slot = np.rint(2 * k * par - 0.5).astype(np.int64)
    at = np.empty((3, 2 * k), dtype=np.int32)
    at[bd_facet, slot] = np.arange(len(bd_facet))

    ref = _RefDual(
        cv_start=np.array(cv_start), cv_end=np.array(cv_end),
        cv_plus=np.array(cv_plus, dtype=np.int64),
        cv_minus=np.array(cv_minus, dtype=np.int64),
        bd_start=bd_start, bd_end=bd_end,
        bd_owner=np.array(bd_owner, dtype=np.int64),
        bd_facet=bd_facet,
        bd_mate=at[:, 2 * k - 1 - slot].T,
        areas=areas,
        loops=loops,
        quads=quads,
        quad_owner=np.array(quad_owner, dtype=np.int64),
    )
    assert abs(ref.areas.sum() - 0.5) < 1e-14
    return ref


def _chain_loop(edges):
    """Chain directed edges into a single closed CCW polygon loop."""
    def key(pt):
        return (round(float(pt[0]), 12), round(float(pt[1]), 12))

    succ = {}
    for a, b in edges:
        succ[key(a)] = (key(b), a)
    start = next(iter(succ))
    loop = []
    cur = start
    for _ in range(len(edges)):
        nxt, pt = succ.pop(cur)
        loop.append(pt)
        cur = nxt
    if cur != start or succ:
        raise DualMeshError("subcell boundary does not chain into one loop")
    return np.array(loop)


@lru_cache(maxsize=None)
def subcell_quadrature(degree, exactness):
    """Composite rule over the subcell pieces of the reference triangle:
    (points, weights, owner), an m x m Gauss-Legendre product rule on each
    quadrilateral piece through its bilinear map from the unit square, and
    the subcell node owning each point. That map's Jacobian is affine, so a
    total-degree-e integrand has degree <= e + 1 in each square coordinate,
    exact for m = (e + 3) // 2. The weights are positive and sum to 1/2.
    """
    ref = _ref_dual(degree)
    seg = segment_rule((_checked_exactness(exactness) + 3) // 2)
    s, t = (a.ravel() for a in np.meshgrid(seg.points, seg.points, indexing="ij"))
    # Bilinear shape functions of the corners, and their s and t derivatives.
    shape = np.stack([(1 - s) * (1 - t), s * (1 - t), s * t, (1 - s) * t], 1)
    x_s = np.stack([t - 1, 1 - t, t, -t], 1) @ ref.quads      # (P, Q, 2)
    x_t = np.stack([s - 1, -s, s, 1 - s], 1) @ ref.quads
    det = x_s[..., 0] * x_t[..., 1] - x_s[..., 1] * x_t[..., 0]
    out = ((shape @ ref.quads).reshape(-1, 2),
           (np.outer(seg.weights, seg.weights).ravel() * det).ravel(),
           np.repeat(ref.quad_owner, len(s)))
    for arr in out:
        arr.setflags(write=False)
    return out


class DualGeometry:
    """Subcell partitions of every element of a mesh, for one degree: the
    shared reference tabulation `ref` and the element maps. Element t's
    subcell areas are `ref.areas * det_jac[t]`; its segments come from
    `_segments(t)`.
    """

    def __init__(self, mesh, degree):
        basis._check_degree(degree)
        self.mesh = mesh
        self.degree = degree
        self.ref = _ref_dual(degree)
        self.v0, self.jac, self.inv_jac, self.det_jac = mesh.element_maps()

    def _segments(self, t):
        """Start and end points (..., M, 2) of the subcell segments of
        element t, or of the elements t selects, and the owner and class of
        each of the M rows. Control-volume segments appear twice, once per
        adjacent subcell and oriented counterclockwise for that owner, so
        the -90 degree rotation of end - start is its outward normal times
        the length; element-boundary segments follow, once each."""
        ref = self.ref
        ns, nb = len(ref.cv_start), len(ref.bd_start)
        jt = self.jac[t].swapaxes(-1, -2)
        v0 = self.v0[t][..., None, :]
        start = np.vstack([ref.cv_start, ref.cv_start, ref.bd_start]) @ jt + v0
        end = np.vstack([ref.cv_end, ref.cv_end, ref.bd_end]) @ jt + v0
        # Second cv block: the minus-owner side, with swapped endpoints.
        minus = (..., slice(ns, 2 * ns), slice(None))
        start[minus], end[minus] = end[minus].copy(), start[minus].copy()
        owner = np.concatenate([ref.cv_plus, ref.cv_minus, ref.bd_owner])
        cls = np.array([CLASS_CONTROL_VOLUME] * (2 * ns)
                       + [CLASS_ELEMENT_BOUNDARY] * nb)
        return start, end, owner, cls


def build_partitions(mesh, degree):
    """Subcell partitions for all elements (shared reference tabulation)."""
    return DualGeometry(mesh, degree)


@dataclass
class ControlVolumeIndex:
    """Control volumes assembled from per-element subcells: `areas[g]` is
    the area of the control volume of global dof g."""
    areas: np.ndarray        # (ndofs,)

    @property
    def n_dofs(self):
        return len(self.areas)


def build_cv_index(mesh, dofmap, partitions):
    """Control-volume areas, summed over the subcells of each global dof."""
    geo = _check_partitions(mesh, partitions, dofmap.degree)
    areas = np.zeros(dofmap.n_dofs)
    np.add.at(areas, dofmap.cell_dofs.ravel(),
              (geo.ref.areas[None, :] * geo.det_jac[:, None]).ravel())
    return ControlVolumeIndex(areas=areas)


def _check_partitions(mesh, partitions, degree):
    """`partitions` itself when it is the DualGeometry that build_partitions
    returns for this mesh and degree; anything else is an error."""
    if not isinstance(partitions, DualGeometry):
        raise DualMeshError("partitions must come from build_partitions, got "
                            f"{type(partitions).__name__}")
    if partitions.mesh is not mesh or partitions.degree != degree:
        raise DualMeshError("partitions built for a different mesh or degree")
    return partitions


def export_dual_csv(partitions, path):
    """Write all subcell boundary segments as
    "x0,y0,x1,y1,class,element,local_dof" rows."""
    det = partitions.det_jac
    tiny = np.nonzero(np.abs(det) < 1e-14 * partitions.mesh.h ** 2)[0]
    if tiny.size:
        t = int(tiny[0])
        raise ValueError(f"triangle {t} is degenerate (|det J| = {det[t]:g})")
    start, end, owner, cls = partitions._segments(slice(None))
    nt, m = start.shape[:2]
    ends = [coords(p[..., a].ravel()) for p in (start, end) for a in (0, 1)]
    write_table(path, "x0,y0,x1,y1,class,element,local_dof", nt * m,
                ends + [labels(cls, np.tile(np.arange(m), nt)),
                        numbers(np.repeat(np.arange(nt), m)),
                        numbers(np.tile(owner, nt))])
