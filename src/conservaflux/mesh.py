"""Conforming triangulations of polygonal domains.

A mesh is built once and then treated as read-only: the arrays are frozen
after construction so downstream modules (and worker threads) can share
them without copies or locks.
"""

from __future__ import annotations

import math

import numpy as np

_GEO_TOL = 1e-12


class MeshError(Exception):
    """Invalid mesh topology or geometry."""


class TriMesh:
    """Triangulation with edge topology and labeled boundary.

    Attributes:
        vertices: (nv, 2) float coordinates.
        triangles: (nt, 3) vertex indices, counterclockwise.
        edges: (ne, 2) vertex pairs with lo < hi.
        edge_tris: (ne, 2) adjacent triangle indices, -1 where absent.
        tri_edges: (nt, 3) edge id of facet m, where facet m runs from
            local vertex m to local vertex (m + 1) % 3.
        tri_neighbors: (nt, 3) triangle across facet m, -1 on the boundary.
        boundary_edges: (nb,) edge ids lying on the domain boundary.
        boundary_labels: (nb,) part label per boundary edge.
        h: maximum element diameter.
    """

    def __init__(self, vertices, triangles, h=None):
        self.vertices = np.ascontiguousarray(vertices, dtype=np.float64)
        self.triangles = np.ascontiguousarray(triangles, dtype=np.int64)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise MeshError("vertices must be an (nv, 2) array")
        if self.triangles.ndim != 2 or self.triangles.shape[1] != 3:
            raise MeshError("triangles must be an (nt, 3) array")
        if self.triangles.size and (self.triangles.min() < 0
                                    or self.triangles.max() >= len(self.vertices)):
            raise MeshError("triangle vertex index out of range")

        areas = self.signed_areas()
        bad = np.nonzero(areas <= 0.0)[0]
        if bad.size:
            raise MeshError(f"triangle {bad[0]} is degenerate or clockwise "
                            f"(signed area {areas[bad[0]]:g})")

        self._build_edges()
        self._label_boundary()

        v = self.vertices
        t = self.triangles
        lengths = np.stack([
            np.linalg.norm(v[t[:, 1]] - v[t[:, 0]], axis=1),
            np.linalg.norm(v[t[:, 2]] - v[t[:, 1]], axis=1),
            np.linalg.norm(v[t[:, 0]] - v[t[:, 2]], axis=1),
        ])
        self.h = float(h) if h is not None else float(lengths.max())
        self._geom = None

        nv, ne, nt = len(self.vertices), len(self.edges), len(self.triangles)
        if nv - ne + nt != 1:
            raise MeshError(f"Euler relation violated: V-E+F = {nv - ne + nt}, "
                            "expected 1 for a simply connected domain")

        for a in (self.vertices, self.triangles, self.edges, self.edge_tris,
                  self.tri_edges, self.tri_neighbors, self.boundary_edges):
            a.setflags(write=False)

    # -- topology -----------------------------------------------------------

    def _build_edges(self):
        # Half-edge t*3 + m is facet m of triangle t. Edges are numbered in
        # order of first appearance and list their triangles in that order.
        tri = self.triangles
        lo, hi = np.sort([tri, np.roll(tri, -1, axis=1)], axis=0).reshape(2, -1)
        _, first, inv = np.unique(lo * len(self.vertices) + hi,
                                  return_index=True, return_inverse=True)
        eid = np.argsort(np.argsort(first))[inv.ravel()]
        count = np.bincount(eid, minlength=len(first))
        order = np.argsort(eid, kind="stable")     # half-edges grouped by edge
        start = np.cumsum(count) - count
        if np.any(count > 2):
            third = order[start[count > 2] + 2].min()
            raise MeshError(f"edge {(int(lo[third]), int(hi[third]))} "
                            "referenced by more than two triangles")
        head = order[start]
        second = order[np.minimum(start + 1, len(order) - 1)] // 3
        self.edges = np.column_stack([lo[head], hi[head]])
        self.edge_tris = np.column_stack(
            [head // 3, np.where(count == 2, second, -1)])
        self.tri_edges = eid.reshape(-1, 3)

        pair = self.edge_tris[self.tri_edges]              # (nt, 3, 2)
        own = pair[..., 0] == np.arange(len(tri))[:, None]
        self.tri_neighbors = np.where(own, pair[..., 1], pair[..., 0])
        self.boundary_edges = np.nonzero(self.edge_tris[:, 1] == -1)[0]

    def _label_boundary(self):
        # Geometric labeling for the unit square: a boundary edge gets the
        # part whose coordinate both endpoints share to within 1e-12.
        out = []
        for eid in self.boundary_edges:
            p, q = self.vertices[self.edges[eid]]
            if abs(p[0]) < _GEO_TOL and abs(q[0]) < _GEO_TOL:
                out.append("left")
            elif abs(p[0] - 1) < _GEO_TOL and abs(q[0] - 1) < _GEO_TOL:
                out.append("right")
            elif abs(p[1]) < _GEO_TOL and abs(q[1]) < _GEO_TOL:
                out.append("bottom")
            elif abs(p[1] - 1) < _GEO_TOL and abs(q[1] - 1) < _GEO_TOL:
                out.append("top")
            else:
                out.append("other")
        self.boundary_labels = tuple(out)

    # -- queries ------------------------------------------------------------

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_triangles(self):
        return len(self.triangles)

    @property
    def n_edges(self):
        return len(self.edges)

    def signed_areas(self):
        v = self.vertices
        t = self.triangles
        d1 = v[t[:, 1]] - v[t[:, 0]]
        d2 = v[t[:, 2]] - v[t[:, 0]]
        return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])

    def element_maps(self):
        """Affine maps for all elements: (v0, jac, inv_jac, det_jac).

        jac columns are the edge vectors from local vertex 0, so a reference
        point (x, y) maps to v0 + jac @ (x, y). det_jac equals twice the
        element area and is positive for this mesh's orientation.
        """
        if self._geom is None:
            v = self.vertices
            t = self.triangles
            v0 = v[t[:, 0]]
            jac = np.empty((len(t), 2, 2))
            jac[:, :, 0] = v[t[:, 1]] - v0
            jac[:, :, 1] = v[t[:, 2]] - v0
            det = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
            inv = np.empty_like(jac)
            inv[:, 0, 0] = jac[:, 1, 1] / det
            inv[:, 0, 1] = -jac[:, 0, 1] / det
            inv[:, 1, 0] = -jac[:, 1, 0] / det
            inv[:, 1, 1] = jac[:, 0, 0] / det
            for a in (v0, jac, inv, det):
                a.setflags(write=False)
            self._geom = (v0, jac, inv, det)
        return self._geom

    def locate(self, points):
        """Triangle index containing each query point to within _GEO_TOL
        in reference coordinates (-1 if outside); a point on shared edges
        or vertices goes to the lowest index."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        # Bucket the element bounding boxes, widened by _GEO_TOL in reference
        # coordinates plus a rounding margin, on a uniform grid of about
        # nt / 2 cells; a point is tested against its cell's elements only.
        v0, jac, inv, _ = self.element_maps()
        pad = (2 * _GEO_TOL + 1e-9) * np.abs(jac).sum(axis=2)
        lo = v0 + np.minimum(np.minimum(jac[..., 0], jac[..., 1]), 0) - pad
        hi = v0 + np.maximum(np.maximum(jac[..., 0], jac[..., 1]), 0) + pad
        origin, ext = lo.min(axis=0), hi.max(axis=0) - lo.min(axis=0)
        size = math.sqrt(2.0 * ext.prod() / len(lo))
        shape = np.ceil(ext / size).astype(np.int64)

        def cell(x):
            ij = np.clip(np.nan_to_num((x - origin) // size), 0, shape - 1)
            return ij.astype(np.int64)

        c0 = cell(lo)
        span = cell(hi) - c0 + 1
        elem, rank = _expand(span.prod(axis=1))
        key = ((c0[elem, 1] + rank // span[elem, 0]) * shape[0]
               + c0[elem, 0] + rank % span[elem, 0])
        order = np.argsort(key)
        start = np.searchsorted(key[order], np.arange(shape.prod() + 1))
        pc = cell(pts) @ [1, shape[0]]
        pi, rank = _expand(start[pc + 1] - start[pc])
        e = elem[order[start[pc[pi]] + rank]]
        r = np.einsum("pab,pb->pa", inv[e], pts[pi] - v0[e])
        tol = _GEO_TOL
        ok = (r[:, 0] >= -tol) & (r[:, 1] >= -tol) & (r.sum(1) <= 1 + tol)
        out = np.full(len(pts), len(lo))
        np.minimum.at(out, pi[ok], e[ok])
        return np.where(out < len(lo), out, -1)


def _expand(counts):
    """Owner and rank within the owner of each of sum(counts) items."""
    owner = np.repeat(np.arange(len(counts)), counts)
    return owner, np.arange(len(owner)) - (np.cumsum(counts) - counts)[owner]


def build_structured_mesh(n):
    """Uniform triangulation of the unit square.

    Each of the n*n grid cells is split along the lower-left to upper-right
    diagonal, giving 2*n*n counterclockwise triangles and h = sqrt(2)/n.
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"subdivision count must be a positive integer, got {n!r}")
    n = int(n)
    coords = np.linspace(0.0, 1.0, n + 1)
    xx, yy = np.meshgrid(coords, coords)
    vertices = np.column_stack([xx.ravel(), yy.ravel()])

    # Cell (i, j) has corners a (lower left), b, c (upper right), d.
    j, i = np.divmod(np.arange(n * n, dtype=np.int64), n)
    a = j * (n + 1) + i
    b, c, d = a + 1, a + n + 2, a + n + 1
    triangles = np.empty((2 * n * n, 3), dtype=np.int64)
    triangles[0::2] = np.column_stack([a, b, c])
    triangles[1::2] = np.column_stack([a, c, d])
    return TriMesh(vertices, triangles, h=math.sqrt(2.0) / n)


def write_mesh_file(mesh, path):
    """Plain-text export: header "nv nt ne", vertex lines, triangle lines,
    then one "v0 v1 label" line per boundary edge. Indices are 0-based."""
    lines = [f"{mesh.n_vertices} {mesh.n_triangles} {len(mesh.boundary_edges)}"]
    for x, y in mesh.vertices:
        lines.append(f"{float(x)!r} {float(y)!r}")
    for a, b, c in mesh.triangles:
        lines.append(f"{a} {b} {c}")
    for eid, label in zip(mesh.boundary_edges, mesh.boundary_labels):
        a, b = mesh.edges[eid]
        lines.append(f"{a} {b} {label}")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def read_mesh_file(path):
    """Inverse of write_mesh_file. Edge topology is rebuilt from the
    triangles; the listed boundary edges only provide part labels. A
    malformed file raises a MeshError naming the file and, where one line
    is at fault, its 1-based number."""
    with open(path) as f:
        rows = [(no, ln.split()) for no, ln in enumerate(f, 1) if ln.strip()]

    def fields(i, types, form):
        no, r = rows[i]
        try:
            if len(r) != len(types):
                raise ValueError
            return [t(x) for t, x in zip(types, r)]
        except ValueError:
            raise MeshError(f"mesh file {path}, line {no}: expected "
                            f"'{form}', found {' '.join(r)!r}") from None

    def table(lo, hi, types, form):
        """Lines lo..hi-1 as one array, parsed by numpy in bulk; on failure
        `fields` finds the first malformed line."""
        words = [r for _, r in rows[lo:hi]]
        try:
            if any(len(r) != len(types) for r in words):
                raise ValueError
            return np.array(words, dtype=types[0])
        except ValueError:
            for i in range(lo, hi):
                fields(i, types, form)
            raise

    if not rows:
        raise MeshError(f"mesh file {path}, line 1: expected 'nv nt ne', "
                        "found end of file")
    nv, nt, ne = fields(0, (int, int, int), "nv nt ne")
    if len(rows) != 1 + nv + nt + ne:
        raise MeshError(f"mesh file {path}: expected {1 + nv + nt + ne} lines, "
                        f"found {len(rows)}")
    vertices = table(1, 1 + nv, (float, float), "x y")
    triangles = table(1 + nv, 1 + nv + nt, (int, int, int), "v0 v1 v2")
    labeled = {}
    for i in range(1 + nv + nt, len(rows)):
        a, b, label = fields(i, (int, int, str), "v0 v1 label")
        labeled[(min(a, b), max(a, b))] = (rows[i][0], label)
    mesh = TriMesh(vertices, triangles)
    labels = []
    for eid in mesh.boundary_edges:
        key = tuple(int(x) for x in mesh.edges[eid])
        if key not in labeled:
            raise MeshError(f"mesh file {path}: boundary edge {key} has no label")
        labels.append(labeled.pop(key)[1])
    if labeled:
        key, (no, _) = next(iter(labeled.items()))
        raise MeshError(f"mesh file {path}, line {no}: listed edge {key} "
                        "is not a boundary edge of the triangulation")
    mesh.boundary_labels = tuple(labels)
    return mesh
