"""Conforming triangulations of polygonal domains.

A mesh is built once and then treated as read-only: the arrays are frozen
after construction so downstream modules (and worker threads) can share
them without copies or locks.
"""

from __future__ import annotations

import math

import numpy as np

_GEO_TOL = 1e-12
# Index arrays are int32: a count of vertices, edges, triangles or dofs at
# this or above cannot be indexed.
_INDEX_LIMIT = 2 ** 31


class MeshError(Exception):
    """Invalid mesh topology or geometry."""


def _check_count(name, count):
    """Raise a MeshError unless int32 indices can number `count` items."""
    if count >= _INDEX_LIMIT:
        raise MeshError(f"{name} count {count} is 2^31 or more: indices "
                        "are int32")


def _inv_jac(jac, det):
    """inv J = adj(J) / det J of the maps jac (..., 2, 2), det (...), in
    closed form; every reader forms it from this, per chunk, to the same
    floats."""
    inv = np.empty(jac.shape)
    inv[..., 0, 0] = jac[..., 1, 1] / det
    inv[..., 0, 1] = -jac[..., 0, 1] / det
    inv[..., 1, 0] = -jac[..., 1, 0] / det
    inv[..., 1, 1] = jac[..., 0, 0] / det
    return inv


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
        neighbor_facets: (nt, 3) int8, which facet of tri_neighbors[t, m]
            facet m of t is, -1 on the boundary.
        boundary_edges: (nb,) edge ids lying on the domain boundary.
        boundary_labels: (nb,) part label per boundary edge.
        h: maximum element diameter.

    Every index array is int32, so a count of 2^31 or more is a MeshError.
    """

    def __init__(self, vertices, triangles, h=None):
        self.vertices = np.ascontiguousarray(vertices, dtype=np.float64)
        tri = np.asarray(triangles)
        if tri.dtype.kind not in "iu":
            tri = tri.astype(np.int64)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise MeshError("vertices must be an (nv, 2) array")
        if tri.ndim != 2 or tri.shape[1] != 3:
            raise MeshError("triangles must be an (nt, 3) array")
        _check_count("vertex", len(self.vertices))
        _check_count("triangle", len(tri))
        # Checked before the cast: an index of 2^32 + 1 would wrap to 1.
        if tri.size and (tri.min() < 0 or tri.max() >= len(self.vertices)):
            raise MeshError("triangle vertex index out of range")
        self.triangles = np.ascontiguousarray(tri, dtype=np.int32)
        bad = np.flatnonzero(~np.isfinite(self.vertices).all(axis=1))
        if bad.size:  # a NaN signed area would pass the check below
            x, y = self.vertices[bad[0]]
            raise MeshError(f"vertex {bad[0]} is not finite: ({x:g}, {y:g})")

        areas = self.signed_areas()
        bad = np.nonzero(areas <= 0.0)[0]
        if bad.size:
            raise MeshError(f"triangle {bad[0]} is degenerate or clockwise "
                            f"(signed area {areas[bad[0]]:g})")

        self._build_edges()
        self._label_boundary()

        # An element's diameter is its longest edge; a given h is that of
        # every element. The median sizes the solver's aggregation boxes. It
        # is read off a stable argsort, whose kernel other passes load too:
        # np.median's partition kernel added 0.25 MiB of resident code.
        diam = np.full(1, h)
        if h is None:
            v, t = self.vertices, self.triangles
            diam = np.max([np.linalg.norm(v[t[:, (m + 1) % 3]] - v[t[:, m]],
                                          axis=1) for m in range(3)], axis=0)
        mid = np.argsort(diam, kind="stable")[(len(diam) - 1) // 2:
                                              len(diam) // 2 + 1]
        self.h, self._h_median = float(diam.max()), float(diam[mid].mean())
        self._geom = self._grid = self._boxes = None  # built on first use

        nv, ne, nt = len(self.vertices), len(self.edges), len(self.triangles)
        if nv - ne + nt != 1:
            raise MeshError(f"Euler relation violated: V-E+F = {nv - ne + nt}, "
                            "expected 1 for a simply connected domain")

        for a in (self.vertices, self.triangles, self.edges, self.edge_tris,
                  self.tri_edges, self.tri_neighbors, self.neighbor_facets,
                  self.boundary_edges):
            a.setflags(write=False)

    # -- topology -----------------------------------------------------------

    def _build_edges(self):
        # Half-edge t*3 + m is facet m of triangle t. Edges are numbered in
        # order of first appearance and list their triangles in that order:
        # a stable sort groups the half-edges by key lo * nv + hi, and one
        # more sorts the groups by first appearance. Large temporaries are
        # dropped once used: they set the peak of the mesh build. The keys
        # are int64, every array kept is int32.
        tri, nv = self.triangles, len(self.vertices)
        nxt = np.roll(tri, -1, axis=1)
        key = np.minimum(tri, nxt, dtype=np.int64)
        key *= nv
        key += np.maximum(tri, nxt, out=nxt)
        order = np.argsort(key, axis=None, kind="stable")
        key = key.ravel()[order]
        start = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
        count = np.diff(np.r_[start, len(order)])
        if np.any(count > 2):
            third = start[count > 2] + 2
            third = third[np.argmin(order[third])]
            raise MeshError(f"edge {divmod(int(key[third]), nv)} "
                            "referenced by more than two triangles")
        ne = len(start)
        _check_count("edge", ne)
        by_first = np.argsort(order[start])
        self.edges = np.empty((ne, 2), dtype=np.int32)
        self.edges[:, 0], self.edges[:, 1] = np.divmod(key[start[by_first]],
                                                       nv)
        edge = np.empty(ne, dtype=np.int32)
        eid = np.empty(len(order), dtype=np.int32)
        edge[by_first] = np.arange(ne)
        del nxt, key
        eid[order] = np.repeat(edge, count)
        self.tri_edges = eid.reshape(-1, 3)
        start, count = start[by_first], count[by_first]
        head, last = order[start], order[start + count - 1]
        self.edge_tris = np.empty((ne, 2), dtype=np.int32)
        self.edge_tris[:, 0] = head // 3
        self.edge_tris[:, 1] = np.where(count == 2, last // 3, -1)
        del order
        # Across facet m: facet (other half-edge of its edge) % 3, or -1.
        facets = np.empty(len(tri) * 3, dtype=np.int8)
        facets[head], facets[last] = last % 3, head % 3
        facets[head[count == 1]] = -1
        self.neighbor_facets = facets.reshape(-1, 3)
        del head, last
        # The triangle across facet m is the other one of its edge, t ^ a ^ b
        # for the edge's triangles a, b, one of them t (-1 stays -1).
        pair = self.edge_tris.take(self.tri_edges, axis=0)
        self.tri_neighbors = pair[..., 0] ^ pair[..., 1]
        self.tri_neighbors ^= np.arange(len(tri), dtype=np.int32)[:, None]
        self.boundary_edges = np.flatnonzero(
            self.edge_tris[:, 1] == -1).astype(np.int32)

    def _label_boundary(self):
        # Geometric labeling for the unit square: a boundary edge gets the
        # first part whose coordinate both endpoints share to within 1e-12.
        ends = self.vertices[self.edges[self.boundary_edges]]     # (nb, 2, 2)
        on = [np.all(np.abs(ends[:, :, axis] - at) < _GEO_TOL, axis=1)
              for axis, at in ((0, 0.0), (0, 1.0), (1, 0.0), (1, 1.0))]
        part = np.argmax(np.stack(on + [np.ones(len(ends), bool)]), axis=0)
        names = ("left", "right", "bottom", "top", "other")
        self.boundary_labels = tuple(names[i] for i in part)

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
        v0 = v.take(t[:, 0], axis=0)
        d1 = v.take(t[:, 1], axis=0) - v0
        d2 = v.take(t[:, 2], axis=0) - v0
        return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])

    def element_maps(self):
        """Affine maps for all elements: (v0, jac, inv_jac, det_jac).

        jac columns are the edge vectors from local vertex 0, so a reference
        point (x, y) maps to v0 + jac @ (x, y). det_jac equals twice the
        element area and is positive for this mesh's orientation. inv_jac
        is formed on each call; the mesh keeps only v0, jac and det_jac.
        """
        v0, jac, det = self._maps()
        return v0, jac, _inv_jac(jac, det), det

    def _maps(self):
        """(v0, jac, det_jac) of `element_maps`, built on first use and
        kept; the package's passes read these and form inv J per chunk."""
        if self._geom is None:
            v = self.vertices
            t = self.triangles
            v0 = v.take(t[:, 0], axis=0)
            jac = np.empty((len(t), 2, 2))
            jac[:, :, 0] = v.take(t[:, 1], axis=0) - v0
            jac[:, :, 1] = v.take(t[:, 2], axis=0) - v0
            det = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
            for a in (v0, jac, det):
                a.setflags(write=False)
            self._geom = (v0, jac, det)
        return self._geom

    def _bucket_grid(self):
        """`locate`'s search structure, built on first use: the element
        bounding boxes, widened by _GEO_TOL in reference coordinates plus a
        rounding margin, bucketed on a uniform grid (origin, cell size,
        shape) of about nt / 2 cells; cell c's elements are
        slot[start[c]:start[c + 1]]."""
        if self._grid is None:
            v0, jac, _ = self._maps()
            pad = (2 * _GEO_TOL + 1e-9) * np.abs(jac).sum(axis=2)
            lo = v0 + np.minimum(np.minimum(jac[..., 0], jac[..., 1]), 0) - pad
            hi = v0 + np.maximum(np.maximum(jac[..., 0], jac[..., 1]), 0) + pad
            origin, ext = lo.min(axis=0), hi.max(axis=0) - lo.min(axis=0)
            size = math.sqrt(2.0 * ext.prod() / len(lo))
            shape = np.ceil(ext / size).astype(np.int64)
            c0 = _cell(lo, origin, size, shape)
            span = _cell(hi, origin, size, shape) - c0 + 1
            elem, rank = _expand(span.prod(axis=1))
            key = ((c0[elem, 1] + rank // span[elem, 0]) * shape[0]
                   + c0[elem, 0] + rank % span[elem, 0])
            order = np.argsort(key)
            start = np.searchsorted(key[order], np.arange(shape.prod() + 1))
            slot = elem[order]
            for a in (origin, shape, start, slot):
                a.setflags(write=False)
            self._grid = (origin, size, shape, start, slot)
        return self._grid

    def locate(self, points):
        """Triangle index containing each query point to within _GEO_TOL
        in reference coordinates (-1 if outside); a point on shared edges
        or vertices goes to the lowest index. A point is tested against
        the elements of its cell of `_bucket_grid` only."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        v0, jac, det = self._maps()
        origin, size, shape, start, slot = self._bucket_grid()
        pc = _cell(pts, origin, size, shape) @ [1, shape[0]]
        pi, rank = _expand(start[pc + 1] - start[pc])
        e = slot[start[pc[pi]] + rank]
        r = np.einsum("pab,pb->pa", _inv_jac(jac[e], det[e]), pts[pi] - v0[e])
        tol = _GEO_TOL
        ok = (r[:, 0] >= -tol) & (r[:, 1] >= -tol) & (r.sum(1) <= 1 + tol)
        nt = self.n_triangles
        out = np.full(len(pts), nt)
        np.minimum.at(out, pi[ok], e[ok])
        return np.where(out < nt, out, -1)

    def _edge_boxes(self):
        """Edge ends e0, e1 and bounding boxes lo, hi, sorted by lo[:, 0],
        and the widest box, built on first use. Each box is padded by its
        edge's own extent: a crossing that the polyline flux's tolerances
        accept lies well inside."""
        if self._boxes is None:
            e0 = self.vertices[self.edges[:, 0]]
            e1 = self.vertices[self.edges[:, 1]]
            pad = np.abs(e1 - e0)
            lo, hi = np.minimum(e0, e1) - pad, np.maximum(e0, e1) + pad
            order = np.argsort(lo[:, 0])
            boxes = (e0[order], e1[order], lo[order], hi[order])
            for a in boxes:
                a.setflags(write=False)
            self._boxes = (*boxes, np.max(hi - lo))
        return self._boxes


def _cell(x, origin, size, shape):
    """Grid cell (i, j) of points x (P, 2), clamped to the grid."""
    ij = np.clip(np.nan_to_num((x - origin) // size), 0, shape - 1)
    return ij.astype(np.int64)


def _expand(counts):
    """Owner and rank within the owner of each of sum(counts) items."""
    owner = np.repeat(np.arange(len(counts)), counts)
    return owner, np.arange(len(owner)) - (np.cumsum(counts) - counts)[owner]


def build_structured_mesh(n):
    """Uniform triangulation of the unit square.

    Each of the n*n grid cells is split along the lower-left to upper-right
    diagonal, giving 2*n*n counterclockwise triangles and h = sqrt(2)/n.
    """
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
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

    def fields(i, types, form, below=None):
        no, r = rows[i]
        try:
            vals = [t(x) for t, x in zip(types, r)]
            # Every integer field is a count or a 0-based vertex index, the
            # latter below `below` where given.
            ints = [v for t, v in zip(types, vals) if t is int]
            if len(r) != len(types) or any(
                    v < 0 or below is not None and v >= below for v in ints):
                raise ValueError
            return vals
        except ValueError:
            raise MeshError(f"mesh file {path}, line {no}: expected "
                            f"'{form}', found {' '.join(r)!r}") from None

    def table(lo, hi, types, form, below=None):
        """Lines lo..hi-1 as one array, parsed by numpy in bulk, integers
        in [0, below); on failure `fields` finds the first malformed line."""
        words = [r for _, r in rows[lo:hi]]
        try:
            if any(len(r) != len(types) for r in words):
                raise ValueError
            arr = np.array(words, dtype=types[0])
            if below is not None and arr.size and (arr.min() < 0
                                                   or arr.max() >= below):
                raise ValueError
            return arr
        except ValueError:
            for i in range(lo, hi):
                fields(i, types, form, below)
            raise

    if not rows:
        raise MeshError(f"mesh file {path}, line 1: expected 'nv nt ne', "
                        "found end of file")
    nv, nt, ne = fields(0, (int, int, int), "nv nt ne")
    if len(rows) != 1 + nv + nt + ne:
        raise MeshError(f"mesh file {path}: expected {1 + nv + nt + ne} lines, "
                        f"found {len(rows)}")
    vertices = table(1, 1 + nv, (float, float), "x y")
    triangles = table(1 + nv, 1 + nv + nt, (int, int, int), "v0 v1 v2", nv)
    labeled = {}
    for i in range(1 + nv + nt, len(rows)):
        a, b, label = fields(i, (int, int, str), "v0 v1 label", nv)
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
