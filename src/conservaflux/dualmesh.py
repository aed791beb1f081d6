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

Every segment is oriented counterclockwise for its owner, so the -90 degree
rotation of its direction is the owner's outward normal. An element lists
each "cv" segment twice, once per owner, then its "element" segments facet
by facet: facet m runs from vertex m to vertex m + 1 in 2k half-segments
between its nodes and the midpoints, each owned by the nearer node. A
neighbour runs the facet the other way: slot j is slot 2k - 1 - j of its
copy. `export_dual_csv` writes each element's rows in this order.

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
    """Reference-triangle tabulation of the subcell construction for one
    degree, read-only: the segment table of the module docstring, of which
    the cv_* and bd_* arrays are views, and the subcell pieces."""
    seg_start: np.ndarray    # (2S + B, 2)
    seg_end: np.ndarray      # (2S + B, 2)
    seg_owner: np.ndarray    # (2S + B,)
    cv_start: np.ndarray     # (S, 2), CCW for cv_plus
    cv_end: np.ndarray       # (S, 2)
    cv_plus: np.ndarray      # (S,)
    cv_minus: np.ndarray     # (S,) the owner on the other side
    bd_start: np.ndarray     # (B, 2)
    bd_end: np.ndarray       # (B, 2)
    bd_owner: np.ndarray     # (B,)
    bd_facet: np.ndarray     # (B,)
    bd_mate: np.ndarray      # (B, 3) [s, f]: s's copy on a neighbour's facet f
    areas: np.ndarray        # (N,) subcell areas, sum = 1/2
    loops: tuple             # per node, (m, 2) CCW polygon loop
    quads: np.ndarray        # (P, 4, 2) corner, midpoint, barycenter, midpoint
    quad_owner: np.ndarray   # (P,)


@lru_cache(maxsize=None, typed=True)
def _ref_dual(degree):
    basis._check_degree(degree)
    k, n = degree, basis.N_NODES[degree]
    xy, a = basis.ref_nodes(k), basis._multi_index(k)
    # Sub-triangles (T, 3) as node ids, counterclockwise: the upward ones
    # with lower-left lattice corner (i, j), i + j < k, then the downward
    # ones with upper-left corner (i, j + 1), i + j < k - 1.
    at = np.empty((k + 1, k + 1), dtype=np.int64)
    at[tuple(np.array(basis.node_lattice(k)).T)] = np.arange(n)
    (i, j), (i2, j2) = (np.nonzero(np.tri(m)[::-1]) for m in (k, k - 1))
    ids = np.vstack([at[i[:, None] + (0, 1, 0), j[:, None] + (0, 0, 1)],
                     at[i2[:, None] + (1, 1, 0), j2[:, None] + (0, 1, 1)]])
    p = xy[ids]
    bc = np.broadcast_to((p.sum(axis=1) / 3.0)[:, None], p.shape)
    mids = (p + np.roll(p, -1, axis=1)) / 2.0   # of sub-edge (c, c + 1)
    # The quadrilateral of corner c: corner, midpoints of its two sub-edges
    # and the barycenter. Dual segment c runs from the midpoint of sub-edge
    # (c, c + 1) to the barycenter: CCW for corner c, CW for corner c + 1.
    quads = np.stack([p, mids, bc, np.roll(mids, 1, axis=1)], 2).reshape(
        -1, 4, 2)
    # Facet m's k + 1 nodes from vertex m to vertex m + 1 (by their index at
    # vertex m + 1), with the midpoints between them: its 2k half-segments,
    # each owned by the nearer node.
    fac = np.argsort(np.where(basis.node_facets(k), np.roll(a, -1, axis=1),
                              k + 1).T, axis=1)[:, :k + 1]
    walk = np.empty((3, 2 * k + 1, 2))
    walk[:, ::2] = xy[fac]
    walk[:, 1::2] = (walk[:, :-2:2] + walk[:, 2::2]) / 2.0
    slot = np.tile(np.arange(2 * k), 3)

    cv_start, cv_end = mids.reshape(-1, 2), bc.reshape(-1, 2)
    s = len(cv_start)
    seg_start = np.concatenate([cv_start, cv_end, walk[:, :-1].reshape(-1, 2)])
    seg_end = np.concatenate([cv_end, cv_start, walk[:, 1:].reshape(-1, 2)])
    seg_owner = np.concatenate([ids.ravel(), np.roll(ids, -1, axis=1).ravel(),
                                fac[:, np.arange(1, 2 * k + 1) // 2].ravel()])
    # A quadrilateral's area is half the cross product of its diagonals.
    d1, d2 = quads[:, 2] - quads[:, 0], quads[:, 3] - quads[:, 1]
    loops = tuple(_chain_loop(seg_start[seg_owner == i],
                              seg_end[seg_owner == i]) for i in range(n))
    ref = _RefDual(
        seg_start=seg_start, seg_end=seg_end, seg_owner=seg_owner,
        cv_start=seg_start[:s], cv_end=seg_end[:s],
        cv_plus=seg_owner[:s], cv_minus=seg_owner[s:2 * s],
        bd_start=seg_start[2 * s:], bd_end=seg_end[2 * s:],
        bd_owner=seg_owner[2 * s:],
        bd_facet=np.repeat(np.arange(3), 2 * k),
        bd_mate=(2 * k * np.arange(3) + (2 * k - 1 - slot)[:, None]).astype(
            np.int32),
        areas=np.bincount(ids.ravel(), 0.5 * (d1[:, 0] * d2[:, 1]
                                              - d1[:, 1] * d2[:, 0]), n),
        loops=loops,
        quads=quads,
        quad_owner=ids.ravel(),
    )
    assert abs(ref.areas.sum() - 0.5) < 1e-14
    for arr in (*loops, *(v for v in vars(ref).values() if v is not loops)):
        arr.setflags(write=False)
    return ref


def _chain_loop(start, end):
    """Chain directed segments into one closed CCW polygon loop, keyed by
    their exact points: two segments that meet compute them alike."""
    succ = {tuple(a): (tuple(b), a) for a, b in zip(start, end)}
    first = cur = next(iter(succ))
    loop = []
    for _ in range(len(start)):
        cur, pt = succ.pop(cur)
        loop.append(pt)
    if cur != first or succ:
        raise DualMeshError("subcell boundary does not chain into one loop")
    return np.array(loop)


@lru_cache(maxsize=None, typed=True)
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
        self.mesh = mesh
        self.degree = degree
        self.ref = _ref_dual(degree)
        self.v0, self.jac, self.det_jac = mesh._maps()

    def _segments(self, t):
        """Start and end points (..., M, 2) of the subcell segments of
        element t, or of the elements t selects, and the owner and class of
        each of the M rows: the reference segment table mapped (see the
        module docstring)."""
        ref = self.ref
        jt = self.jac[t].swapaxes(-1, -2)
        v0 = self.v0[t][..., None, :]
        cls = np.where(np.arange(len(ref.seg_owner)) < 2 * len(ref.cv_plus),
                       CLASS_CONTROL_VOLUME, CLASS_ELEMENT_BOUNDARY)
        return (ref.seg_start @ jt + v0, ref.seg_end @ jt + v0, ref.seg_owner,
                cls)


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
    geo = _check_partitions(mesh, partitions, dofmap)
    areas = np.zeros(dofmap.n_dofs)
    np.add.at(areas, dofmap.cell_dofs.ravel(),
              (geo.ref.areas[None, :] * geo.det_jac[:, None]).ravel())
    return ControlVolumeIndex(areas=areas)


def _check_partitions(mesh, partitions, dofmap):
    """`partitions` itself when it is the DualGeometry that build_partitions
    returns for this mesh and the degree of `dofmap`, a dof map of this
    mesh; anything else is an error."""
    if dofmap.mesh is not mesh:
        raise ValueError("the mesh is not the one the dof map was built on")
    if not isinstance(partitions, DualGeometry):
        raise DualMeshError("partitions must come from build_partitions, got "
                            f"{type(partitions).__name__}")
    if partitions.mesh is not mesh or partitions.degree != dofmap.degree:
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
