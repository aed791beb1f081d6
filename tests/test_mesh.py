import re

import numpy as np
import pytest

from conservaflux import build_dof_map, build_structured_mesh
from conservaflux import mesh as mesh_mod
from conservaflux.mesh import MeshError, TriMesh, read_mesh_file, write_mesh_file


def brute_force_edges(mesh):
    """Independent edge enumeration straight from the triangle list."""
    edges = set()
    for tri in mesh.triangles:
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            edges.add((min(a, b), max(a, b)))
    return edges


def loop_topology(triangles):
    """Reference edge topology from one scan over the facets in triangle
    order: edges numbered by first appearance, triangles listed in the order
    they reference the edge."""
    ids, edges, edge_tris = {}, [], []
    tri_edges = np.empty((len(triangles), 3), dtype=np.int64)
    for t, tri in enumerate(triangles):
        for m in range(3):
            a, b = int(tri[m]), int(tri[(m + 1) % 3])
            key = (min(a, b), max(a, b))
            if key in ids:
                edge_tris[ids[key]][1] = t
            else:
                ids[key] = len(edges)
                edges.append(key)
                edge_tris.append([t, -1])
            tri_edges[t, m] = ids[key]
    nbr = np.array([[edge_tris[e][1] if edge_tris[e][0] == t
                     else edge_tris[e][0] for e in row]
                    for t, row in enumerate(tri_edges)])
    edge_tris = np.array(edge_tris)
    return {"edges": np.array(edges), "edge_tris": edge_tris,
            "tri_edges": tri_edges, "tri_neighbors": nbr,
            "boundary_edges": np.nonzero(edge_tris[:, 1] == -1)[0]}


@pytest.mark.parametrize("case", [f"structured-{n}" for n in range(1, 9)]
                         + ["jittered-7", "shuffled-5"])
def test_topology_matches_loop_oracle(case, jittered_mesh, shuffled):
    kind, n = case.split("-")
    mesh = {"structured": lambda: build_structured_mesh(int(n)),
            "jittered": lambda: jittered_mesh(int(n), seed=3),
            "shuffled": lambda: shuffled(build_structured_mesh(int(n)), 4),
            }[kind]()
    for name, expected in loop_topology(mesh.triangles).items():
        got = getattr(mesh, name)
        assert got.dtype == np.int32, name
        assert np.array_equal(got, expected.reshape(got.shape)), name


def test_rejects_edge_shared_by_three_triangles():
    vertices = [[0, 0], [1, 0], [0, 1], [0.5, -1], [0.5, 2]]
    with pytest.raises(MeshError, match=r"edge \(0, 1\) referenced by more "
                                        "than two triangles"):
        TriMesh(vertices, [[0, 1, 2], [1, 0, 3], [0, 1, 4]])


def unique_topology(triangles, nv):
    """Reference edge topology built with np.unique and two argsorts, as
    TriMesh built it before its single-sort version; a MeshError for an
    edge referenced more than twice, with the same text."""
    tri = np.asarray(triangles, dtype=np.int64)
    lo, hi = np.sort([tri, np.roll(tri, -1, axis=1)], axis=0).reshape(2, -1)
    _, first, inv = np.unique(lo * nv + hi, return_index=True,
                              return_inverse=True)
    eid = np.argsort(np.argsort(first))[inv.ravel()]
    count = np.bincount(eid, minlength=len(first))
    order = np.argsort(eid, kind="stable")
    start = np.cumsum(count) - count
    if np.any(count > 2):
        third = order[start[count > 2] + 2].min()
        raise MeshError(f"edge {(int(lo[third]), int(hi[third]))} "
                        "referenced by more than two triangles")
    head = order[start]
    second = order[np.minimum(start + 1, len(order) - 1)] // 3
    edge_tris = np.column_stack([head // 3, np.where(count == 2, second, -1)])
    tri_edges = eid.reshape(-1, 3)
    pair = edge_tris[tri_edges]
    own = pair[..., 0] == np.arange(len(tri))[:, None]
    return {"edges": np.column_stack([lo[head], hi[head]]),
            "edge_tris": edge_tris, "tri_edges": tri_edges,
            "tri_neighbors": np.where(own, pair[..., 1], pair[..., 0]),
            "boundary_edges": np.nonzero(edge_tris[:, 1] == -1)[0]}


@pytest.mark.parametrize("case", ["structured", "jittered", "shuffled",
                                  "file"])
def test_topology_matches_unique_based_oracle(case, jittered_mesh, shuffled,
                                              tmp_path):
    if case == "file":
        path = tmp_path / "mesh.txt"
        write_mesh_file(shuffled(jittered_mesh(9, seed=2), 6), path)
        mesh = read_mesh_file(path)
    else:
        mesh = {"structured": lambda: build_structured_mesh(23),
                "jittered": lambda: jittered_mesh(17, seed=8),
                "shuffled": lambda: shuffled(build_structured_mesh(14), 9),
                }[case]()
    expected = unique_topology(mesh.triangles, mesh.n_vertices)
    for name, ref in expected.items():
        got = getattr(mesh, name)
        assert got.dtype == np.int32, name
        assert np.array_equal(got, ref), name


@pytest.mark.parametrize("case", ["structured", "jittered", "shuffled",
                                  "file"])
def test_neighbor_facets_match_edge_search_oracle(case, jittered_mesh,
                                                  shuffled, tmp_path):
    # Oracle: the facet of the neighbour whose edge id is facet m's, found
    # by comparing the neighbour's three edge ids with it.
    if case == "file":
        path = tmp_path / "mesh.txt"
        write_mesh_file(shuffled(jittered_mesh(9, seed=2), 6), path)
        mesh = read_mesh_file(path)
    else:
        mesh = {"structured": lambda: build_structured_mesh(23),
                "jittered": lambda: jittered_mesh(17, seed=8),
                "shuffled": lambda: shuffled(build_structured_mesh(14), 9),
                }[case]()
    nbr, edges = mesh.tri_neighbors, mesh.tri_edges
    back = np.argmax(edges[np.maximum(nbr, 0)] == edges[:, :, None], 2)
    got = mesh.neighbor_facets
    assert got.dtype == np.int8 and got.shape == (mesh.n_triangles, 3)
    assert not got.flags.writeable
    assert np.array_equal(got < 0, nbr < 0)
    assert np.all(got[nbr < 0] == -1)
    assert np.array_equal(got[nbr >= 0], back[nbr >= 0])
    # Across facet m and back again is facet m of t.
    t, m = np.nonzero(nbr >= 0)
    assert np.array_equal(nbr[nbr[t, m], got[t, m]], t)
    assert np.array_equal(got[nbr[t, m], got[t, m]], m)


@pytest.mark.parametrize("triangles", [
    [[0, 1, 2], [1, 0, 3], [0, 1, 4]],
    [[0, 1, 2], [1, 0, 3], [2, 1, 4], [1, 2, 3], [0, 1, 4]],
    [[0, 1, 2], [1, 0, 3], [0, 1, 4], [2, 1, 4], [1, 2, 3]],
])
def test_overreferenced_edge_error_matches_unique_based_oracle(triangles):
    vertices = [[0, 0], [1, 0], [0, 1], [0.5, -1], [0.5, 2]]
    with pytest.raises(MeshError) as oracle:
        unique_topology(triangles, len(vertices))
    with pytest.raises(MeshError) as got:
        TriMesh(vertices, triangles)
    assert str(got.value) == str(oracle.value)


def int64_dof_map(triangles, topology, nv, k):
    """cell_dofs and the kind of every dof, in int64, from the dof map's
    definition on the int64 `topology` of the unique-based mesh oracle:
    vertices, then k - 1 dofs per edge from its lower vertex on, then the
    interior dofs of each element in local order."""
    from conservaflux.basis import _multi_index
    a, tri = _multi_index(k), np.asarray(triangles, dtype=np.int64)
    edges, tri_edges = topology["edges"], topology["tri_edges"]
    nc = nv + (k - 1) * len(edges)
    kind = np.count_nonzero(a, axis=1) - 1
    inner = np.flatnonzero(kind == 2)
    cell_dofs = np.empty((len(tri), len(a)), dtype=np.int64)
    for n, an in enumerate(a):
        c = np.flatnonzero(an)
        if len(c) == 1:
            cell_dofs[:, n] = tri[:, c[0]]
        elif len(c) == 2:  # on facet m, from local vertex m to m + 1
            eid = tri_edges[:, {(0, 1): 0, (1, 2): 1, (0, 2): 2}[tuple(c)]]
            at_hi = np.where(tri[:, c[0]] == edges[eid, 1], an[c[0]], an[c[1]])
            cell_dofs[:, n] = nv + (k - 1) * eid + at_hi - 1
    cell_dofs[:, inner] = nc + np.arange(len(tri) * len(inner)).reshape(
        len(tri), -1)
    kinds = np.empty(cell_dofs.max() + 1, dtype=np.int64)
    kinds[cell_dofs] = kind
    return cell_dofs, kinds


@pytest.mark.parametrize("shuffle", [False, True])
def test_int32_indices_where_edge_keys_pass_2_to_the_31(shuffle, shuffled):
    # 47,089 vertices: the keys lo * nv + hi that group the half-edges pass
    # 2^31, so keys formed in int32 would wrap. The int32 topology holds the
    # int64 values of the unique-based oracle, and at k = 1..3 the int32
    # cell_dofs and int8 kinds those of the int64 dof-map oracle.
    mesh = build_structured_mesh(216)
    if shuffle:
        mesh = shuffled(mesh, 5)
    nv = mesh.n_vertices
    expected = unique_topology(mesh.triangles, nv)
    lo, hi = expected["edges"].T
    assert (lo * nv + hi).max() >= 2 ** 31
    for name, ref in expected.items():
        got = getattr(mesh, name)
        assert got.dtype == np.int32 and ref.dtype == np.int64, name
        assert np.array_equal(got, ref), name
    for k in (1, 2, 3):
        dm = build_dof_map(mesh, k)
        cell_dofs, kinds = int64_dof_map(mesh.triangles, expected, nv, k)
        assert dm.cell_dofs.dtype == np.int32 and dm.kind.dtype == np.int8
        assert np.array_equal(dm.cell_dofs, cell_dofs)
        assert np.array_equal(dm.kind, kinds) and dm.n_dofs == len(kinds)


def test_triangle_index_is_range_checked_before_the_int32_cast():
    # 2^32 + 1 would wrap to 1, a valid vertex index.
    triangles = np.array([[0, 2 ** 32 + 1, 2]], dtype=np.int64)
    with pytest.raises(MeshError,
                       match="^triangle vertex index out of range$"):
        TriMesh([[0, 0], [1, 0], [0, 1]], triangles)


@pytest.mark.parametrize("limit, name, count", [
    (16, "vertex", 16), (17, "triangle", 18), (19, "edge", 33)])
def test_counts_that_int32_cannot_index_are_refused(limit, name, count,
                                                    monkeypatch):
    # The 3 x 3 mesh has 16 vertices, 18 triangles and 33 edges. The limit
    # is 2^31 and lowered here: 2^31 vertices alone would take 32 GiB.
    monkeypatch.setattr(mesh_mod, "_INDEX_LIMIT", limit)
    with pytest.raises(MeshError, match=rf"^{name} count {count} is 2\^31 "
                                        "or more: indices are int32$"):
        build_structured_mesh(3)
    monkeypatch.setattr(mesh_mod, "_INDEX_LIMIT", 34)
    assert build_structured_mesh(3).n_edges == 33


def test_element_maps_form_inv_j_on_each_call(jittered_mesh):
    # The mesh keeps v0, J and det J; inv J is formed anew by each call,
    # as adj(J) / det J.
    mesh = jittered_mesh(5, seed=1)
    v0, jac, inv, det = mesh.element_maps()
    again = mesh.element_maps()
    assert again[0] is v0 and again[1] is jac and again[3] is det
    assert again[2] is not inv and np.array_equal(again[2], inv)
    assert len(mesh._geom) == 3 and all(
        a is b for a, b in zip(mesh._geom, (v0, jac, det)))
    adj = np.stack([np.stack([jac[:, 1, 1], -jac[:, 0, 1]], axis=1),
                    np.stack([-jac[:, 1, 0], jac[:, 0, 0]], axis=1)], axis=1)
    assert np.array_equal(inv, adj / det[:, None, None])
    assert np.abs(inv @ jac - np.eye(2)).max() < 1e-13


def test_structured_triangles_match_cell_loop():
    n = 5
    mesh = build_structured_mesh(n)
    expected = []
    for j in range(n):
        for i in range(n):
            a, b = j * (n + 1) + i, j * (n + 1) + i + 1
            c, d = b + n + 1, a + n + 1
            expected += [(a, b, c), (a, c, d)]
    assert np.array_equal(mesh.triangles, expected)


def test_smallest_mesh_counts():
    mesh = build_structured_mesh(1)
    assert mesh.n_vertices == 4
    assert mesh.n_triangles == 2
    assert mesh.n_edges == 5


def test_n2_counts_and_euler():
    mesh = build_structured_mesh(2)
    assert (mesh.n_vertices, mesh.n_triangles, mesh.n_edges) == (9, 8, 16)
    assert mesh.n_vertices - mesh.n_edges + mesh.n_triangles == 1


def test_n4_counts_against_brute_force():
    mesh = build_structured_mesh(4)
    assert mesh.n_vertices == 25
    assert mesh.n_triangles == 32
    edges = brute_force_edges(mesh)
    assert len(edges) == 56
    assert mesh.n_edges == 56
    assert set(map(tuple, mesh.edges)) == edges
    assert mesh.n_vertices - mesh.n_edges + mesh.n_triangles == 1


@pytest.mark.parametrize("n", [1, 3, 7])
def test_positive_areas_summing_to_one(n):
    mesh = build_structured_mesh(n)
    areas = mesh.signed_areas()
    assert np.all(areas > 0)
    assert abs(areas.sum() - 1.0) < 1e-12


def test_h_is_cell_diagonal_and_halves_exactly():
    for n in (2, 5, 12):
        mesh = build_structured_mesh(n)
        assert abs(mesh.h - np.sqrt(2.0) / n) < 1e-15
        fine = build_structured_mesh(2 * n)
        assert fine.h == mesh.h / 2.0


def test_h_matches_max_edge_length():
    mesh = build_structured_mesh(6)
    lengths = np.linalg.norm(mesh.vertices[mesh.edges[:, 0]]
                             - mesh.vertices[mesh.edges[:, 1]], axis=1)
    assert abs(mesh.h - lengths.max()) < 1e-12 * mesh.h


def test_rejects_zero_subdivisions():
    with pytest.raises(ValueError):
        build_structured_mesh(0)


def test_edge_reference_counts():
    mesh = build_structured_mesh(3)
    interior = mesh.edge_tris[:, 1] >= 0
    assert np.all(mesh.edge_tris[:, 0] >= 0)
    # each boundary edge has exactly one triangle, interior ones two
    assert interior.sum() + len(mesh.boundary_edges) == mesh.n_edges


def test_two_triangle_neighbors():
    mesh = build_structured_mesh(1)
    nbrs = mesh.tri_neighbors[0]
    assert sorted(nbrs[nbrs >= 0]) == [1]
    assert np.sum(nbrs == -1) == 2


def test_boundary_triangle_has_missing_neighbor():
    mesh = build_structured_mesh(4)
    boundary_tris = set()
    for eid in mesh.boundary_edges:
        boundary_tris.add(int(mesh.edge_tris[eid, 0]))
    for t in boundary_tris:
        assert -1 in mesh.tri_neighbors[t]


def test_neighbor_symmetry_against_all_pairs_scan():
    mesh = build_structured_mesh(4)
    # oracle: all-pairs shared-edge scan
    shared = {}
    for t, tri in enumerate(mesh.triangles):
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            shared.setdefault((min(a, b), max(a, b)), []).append(t)
    for t in range(mesh.n_triangles):
        nbrs = mesh.tri_neighbors[t]
        tri = mesh.triangles[t]
        for m, nb in enumerate(nbrs):
            a, b = tri[m], tri[(m + 1) % 3]
            owners = shared[(min(a, b), max(a, b))]
            if nb == -1:
                assert owners == [t]
            else:
                assert sorted(owners) == sorted([t, nb])
                assert t in mesh.tri_neighbors[nb]


def test_boundary_labels_geometric():
    mesh = build_structured_mesh(3)
    for eid, label in zip(mesh.boundary_edges, mesh.boundary_labels):
        p, q = mesh.vertices[mesh.edges[eid]]
        if label == "left":
            assert p[0] == 0 and q[0] == 0
        elif label == "right":
            assert p[0] == 1 and q[0] == 1
        elif label == "bottom":
            assert p[1] == 0 and q[1] == 0
        elif label == "top":
            assert p[1] == 1 and q[1] == 1
        else:
            raise AssertionError(f"unexpected label {label}")
    assert set(mesh.boundary_labels) == {"left", "right", "bottom", "top"}


def loop_labels(mesh):
    """Reference labels, one boundary edge at a time: the first side of
    the unit square both endpoints lie on to within 1e-12, else "other"."""
    out = []
    for eid in mesh.boundary_edges:
        p, q = mesh.vertices[mesh.edges[eid]]
        sides = [(0, 0.0, "left"), (0, 1.0, "right"), (1, 0.0, "bottom"),
                 (1, 1.0, "top")]
        out.append(next((name for a, at, name in sides
                         if abs(p[a] - at) < 1e-12 and abs(q[a] - at) < 1e-12),
                        "other"))
    return tuple(out)


@pytest.mark.parametrize("cut", [2.0, 1.3, 1.0, 0.7])
def test_boundary_labels_match_loop_oracle(cut, jittered_mesh):
    # Triangles whose centroid has x + y < cut, renumbered: a staircase
    # boundary part labeled "other" below cut = 2, the whole square there.
    base = jittered_mesh(7, seed=3)
    keep = base.triangles[base.vertices[base.triangles].mean(1).sum(1) < cut]
    used, tris = np.unique(keep, return_inverse=True)
    mesh = TriMesh(base.vertices[used], tris.reshape(-1, 3))
    labels = mesh.boundary_labels
    assert labels == loop_labels(mesh)
    assert all(type(label) is str for label in labels)
    assert ("other" in labels) == (cut < 2.0)


def test_rejects_clockwise_triangle():
    with pytest.raises(MeshError):
        TriMesh([[0, 0], [1, 0], [0, 1]], [[0, 2, 1]])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_rejects_non_finite_vertex(bad, tmp_path):
    # A NaN vertex gives a NaN signed area, which passes `areas <= 0`.
    msg = re.escape(f"vertex 2 is not finite: (0.5, {bad:g})")
    with pytest.raises(MeshError, match=msg):
        TriMesh([[0, 0], [1, 0], [0.5, bad], [0, 1]], [[0, 1, 3], [1, 2, 3]])
    path = edit_mesh_file(tmp_path, set_line(3, f"0.5 {bad}"))
    with pytest.raises(MeshError, match=msg):
        read_mesh_file(path)


def test_mesh_arrays_frozen():
    mesh = build_structured_mesh(2)
    with pytest.raises(ValueError):
        mesh.vertices[0, 0] = 5.0


def test_file_round_trip(tmp_path):
    mesh = build_structured_mesh(3)
    path = tmp_path / "mesh.txt"
    write_mesh_file(mesh, path)
    back = read_mesh_file(path)
    assert np.array_equal(back.vertices, mesh.vertices)
    assert np.array_equal(back.triangles, mesh.triangles)
    assert back.boundary_labels == mesh.boundary_labels
    assert abs(back.h - mesh.h) < 1e-15


def test_file_rejects_nonboundary_label(tmp_path):
    mesh = build_structured_mesh(2)
    path = tmp_path / "mesh.txt"
    write_mesh_file(mesh, path)
    lines = path.read_text().splitlines()
    # relabel an interior edge: vertex 4 is the center, edge (0,4) is interior
    lines.append("0 4 left")
    bad = tmp_path / "bad.txt"
    header = lines[0].split()
    header[2] = str(int(header[2]) + 1)
    lines[0] = " ".join(header)
    bad.write_text("\n".join(lines) + "\n")
    with pytest.raises(MeshError):
        read_mesh_file(bad)


def edit_mesh_file(tmp_path, edit):
    """Path of build_structured_mesh(2)'s mesh file (26 lines) with its
    list of lines edited in place by `edit`."""
    path = tmp_path / "mesh.txt"
    write_mesh_file(build_structured_mesh(2), path)
    lines = path.read_text().splitlines()
    edit(lines)
    path.write_text("\n".join(lines) + "\n")
    return path


def set_line(i, text):
    return lambda lines: lines.__setitem__(i, text)


@pytest.mark.parametrize("edit, line, found", [
    (list.clear, 1, "end of file"),
    (set_line(0, "9 8"), 1, "'9 8'"),
    (lambda lines: lines.__setitem__(slice(0, 1), ["", "9 8"]), 2, "'9 8'"),
    (set_line(3, "0.5"), 4, "'0.5'"),
    (set_line(10, "0 1 x"), 11, "'0 1 x'"),
    (set_line(-1, "1 2"), 26, "'1 2'"),
    (set_line(0, "9 -8 24"), 1, "'9 -8 24'"),
    (set_line(0, "9 8 -8"), 1, "'9 8 -8'"),
    (set_line(0, "-1 8 19"), 1, "'-1 8 19'"),
    (set_line(-1, "-1 8 top"), 26, "'-1 8 top'"),
    (set_line(10, "-1 1 4"), 11, "'-1 1 4'"),
    (set_line(10, "0 1 99"), 11, "'0 1 99'"),
    (set_line(-1, "0 99 top"), 26, "'0 99 top'"),
], ids=["empty", "short-header", "blank-then-short-header",
        "one-coordinate", "bad-index", "short-label-line",
        "negative-triangle-count", "negative-edge-count",
        "negative-vertex-count", "negative-label-index",
        "negative-triangle-vertex", "triangle-vertex-past-last",
        "label-vertex-past-last"])
def test_file_malformed_line_names_file_and_line(tmp_path, edit, line, found):
    # Line numbers count the file's own lines, blank ones included.
    path = edit_mesh_file(tmp_path, edit)
    msg = f"{re.escape(str(path))}, line {line}: expected .*, found {found}"
    with pytest.raises(MeshError, match=msg):
        read_mesh_file(path)


def test_file_rejects_wrong_line_count(tmp_path):
    path = edit_mesh_file(tmp_path, lambda lines: lines.pop(2))
    msg = f"{re.escape(str(path))}: expected 26 lines, found 25"
    with pytest.raises(MeshError, match=msg):
        read_mesh_file(path)


def test_file_rejects_unlabeled_boundary_edge(tmp_path):
    # Swap the last boundary edge for an interior one: the line count still
    # matches, but a boundary edge of the triangulation has no label.
    path = edit_mesh_file(tmp_path, set_line(-1, "0 4 left"))
    msg = f"{re.escape(str(path))}: boundary edge \\(7, 8\\) has no label"
    with pytest.raises(MeshError, match=msg):
        read_mesh_file(path)


def test_locate_structured():
    mesh = build_structured_mesh(4)
    rng = np.random.default_rng(0)
    pts = rng.random((50, 2))
    found = mesh.locate(pts)
    v0, _, inv, _ = mesh.element_maps()
    for p, t in zip(pts, found):
        r = inv[t] @ (p - v0[t])
        assert r[0] >= -1e-9 and r[1] >= -1e-9 and r.sum() <= 1 + 1e-9


def brute_locate(mesh, p, tol=1e-12):
    """Lowest index of the elements containing p to within tol, else -1."""
    v0, _, inv, _ = mesh.element_maps()
    r = np.einsum("tab,tb->ta", inv, p - v0)
    ok = (r[:, 0] >= -tol) & (r[:, 1] >= -tol) & (r.sum(1) <= 1 + tol)
    hits = np.nonzero(ok)[0]
    return hits[0] if hits.size else -1


def test_locate_structured_grid_lines_take_the_lowest_index():
    # Points on grid lines, diagonals and vertices lie in several elements
    # and go to the lowest index; points off the unit square give -1.
    mesh = build_structured_mesh(4)
    rng = np.random.default_rng(7)
    line = np.column_stack([np.repeat(np.arange(5) / 4, 8), rng.random(40)])
    diag = rng.random((20, 1)) / 4 + np.arange(4).repeat(5)[:, None] / 4
    pts = np.vstack([mesh.vertices, line, line[:, ::-1],
                     np.hstack([diag, diag]),
                     [[1.5, 0.5], [0.5, -0.25], [-1e-3, 1.0], [1.0, 1.1]]])
    found = mesh.locate(pts)
    assert np.array_equal(found, [brute_locate(mesh, p) for p in pts])
    assert np.all(found[:-4] >= 0) and np.all(found[-4:] == -1)


def test_polyline_flux_equal_on_structured_and_plain_mesh():
    # A polyline along a grid line is split at the same points on both
    # constructions of one mesh, and every piece goes to the same element.
    from conservaflux import flux_along_polyline, load_example, solve_problem
    mesh = build_structured_mesh(16)
    plain = TriMesh(mesh.vertices, mesh.triangles)
    prob = load_example(2)
    u = solve_problem(mesh, 2, prob)
    line = [[0.5, 0.0], [0.5, 1.0], [0.3, 0.5]]
    assert np.array_equal(flux_along_polyline(mesh, u, prob, line),
                          flux_along_polyline(plain, u, prob, line))


def test_polyline_probes_share_the_mesh_search_structures(jittered_mesh):
    # The first probe builds locate's bucket grid and the edge boxes, read
    # only; the second reuses them and agrees bit for bit, as does a probe
    # on a fresh copy of the mesh.
    from conservaflux import flux_along_polyline, load_example, solve_problem
    mesh = jittered_mesh(10, seed=3)
    prob = load_example(2)
    u = solve_problem(mesh, 2, prob)
    line = [[0.05, 0.1], [0.9, 0.55], [0.2, 0.95], [0.5, 0.5]]
    first = flux_along_polyline(mesh, u, prob, line)
    grid, boxes = mesh._grid, mesh._boxes
    assert grid is not None and boxes is not None
    assert not any(a.flags.writeable for a in (*grid, *boxes)
                   if isinstance(a, np.ndarray))
    assert np.array_equal(flux_along_polyline(mesh, u, prob, line), first)
    assert mesh._grid is grid and mesh._boxes is boxes
    fresh = TriMesh(mesh.vertices, mesh.triangles)
    assert np.array_equal(flux_along_polyline(fresh, u, prob, line), first)


def test_locate_generic_matches_brute_force(jittered_mesh):
    # The bucketed search must return what testing every element does: the
    # lowest index among the hits for points on vertices and edges, and -1
    # off the mesh.
    mesh = jittered_mesh(7, seed=5)
    rng = np.random.default_rng(2)
    v = mesh.vertices
    a, b = v[mesh.edges[:, 0]], v[mesh.edges[:, 1]]
    pts = np.vstack([v, a + rng.random((len(a), 1)) * (b - a),
                     rng.uniform(-0.2, 1.2, size=(300, 2)),
                     [[np.nan, 0.5], [0.5, 1 + 1e-3], [2.0, 2.0]]])

    found = mesh.locate(pts)
    assert np.array_equal(found, [brute_locate(mesh, p) for p in pts])
    assert np.all(found[:len(v) + len(a)] >= 0)
    assert np.all(found[-3:] == -1)
