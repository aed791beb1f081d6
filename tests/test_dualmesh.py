import numpy as np
import pytest

from conservaflux import (build_cv_index, build_dof_map, build_partitions,
                          build_structured_mesh, export_dual_csv)
from conservaflux.basis import map_points, ref_nodes
from conservaflux.dualmesh import (CLASS_CONTROL_VOLUME,
                                   CLASS_ELEMENT_BOUNDARY, DualMeshError)
from conservaflux.mesh import TriMesh


def shoelace(loop):
    x, y = loop[:, 0], loop[:, 1]
    return 0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)


def unit_right_triangle():
    return TriMesh([[0, 0], [1, 0], [0, 1]], [[0, 1, 2]])


def subcells(mesh, t, k):
    """Element t's subcell areas, nodes, loops and segments, from the
    partition arrays: (areas, nodes, loops, start, end, owner, cls)."""
    parts = build_partitions(mesh, k)
    ref = parts.ref
    areas = ref.areas * parts.det_jac[t]

    def to_element(pts):
        return map_points(parts.v0[t:t + 1], parts.jac[t:t + 1], pts)[0]

    loops = [to_element(loop) for loop in ref.loops]
    return (areas, to_element(ref_nodes(k)), loops) + parts._segments(t)


def scaled_normals(start, end):
    """Outward normals of counterclockwise segments, times their lengths."""
    d = end - start
    return np.stack([d[..., 1], -d[..., 0]], axis=-1)


def test_k1_three_quadrilaterals_of_equal_area():
    areas, _, loops, *_ = subcells(unit_right_triangle(), 0, 1)
    assert len(areas) == 3
    # barycentric dual splits any triangle into three equal areas
    assert np.abs(areas - 1.0 / 6.0).max() < 1e-14
    for loop in loops:
        assert len(loop) == 4
        assert abs(shoelace(loop) - 1.0 / 6.0) < 1e-14


def test_k2_six_polygonals_partition():
    areas = subcells(unit_right_triangle(), 0, 2)[0]
    assert len(areas) == 6
    assert abs(areas.sum() - 0.5) < 1e-13
    # vertices keep one quad of the quarter-subtriangle, edge nodes three
    assert np.abs(areas[:3] - 1.0 / 24.0).max() < 1e-14
    assert np.abs(areas[3:] - 1.0 / 8.0).max() < 1e-14


def test_k3_interior_node_has_no_element_boundary():
    areas, _, _, _, _, owner, cls = subcells(unit_right_triangle(), 0, 3)
    assert len(areas) == 10
    assert np.sum((owner == 9) & (cls == CLASS_ELEMENT_BOUNDARY)) == 0
    assert np.sum((owner == 9) & (cls == CLASS_CONTROL_VOLUME)) == 12
    assert abs(areas.sum() - 0.5) < 1e-13


@pytest.mark.parametrize("k", [1, 2, 3])
def test_subcell_areas_partition_random_elements(k):
    mesh = build_structured_mesh(5)
    areas = mesh.signed_areas()
    for t in (0, 17, 31, 49):
        sub, _, loops, *_ = subcells(mesh, t, k)
        assert abs(sub.sum() - areas[t]) < 1e-13 * areas[t]
        # loops agree with tabulated areas
        for i, loop in enumerate(loops):
            assert abs(shoelace(loop) - sub[i]) < 1e-13


@pytest.mark.parametrize("k", [1, 2, 3])
def test_loops_contain_their_nodes(k):
    _, nodes, loops, *_ = subcells(build_structured_mesh(2), 3, k)
    for node, loop in zip(nodes, loops):
        on_vertex = np.linalg.norm(loop - node, axis=1).min() < 1e-13
        if not on_vertex:
            # interior node: winding test
            d = loop - node
            angles = np.arctan2(d[:, 1], d[:, 0])
            turns = np.diff(np.concatenate([angles, angles[:1]]))
            turns = (turns + np.pi) % (2 * np.pi) - np.pi
            assert abs(turns.sum() - 2 * np.pi) < 1e-10
        else:
            assert on_vertex


@pytest.mark.parametrize("k", [1, 2, 3])
def test_every_segment_has_exactly_one_class(k):
    parts = build_partitions(build_structured_mesh(3), k)
    *_, cls = parts._segments(4)
    assert set(cls) <= {CLASS_CONTROL_VOLUME, CLASS_ELEMENT_BOUNDARY}
    # element-boundary rows are the facet-tagged reference segments
    bd = cls == CLASS_ELEMENT_BOUNDARY
    assert bd.sum() == len(parts.ref.bd_facet)
    assert np.all(np.isin(parts.ref.bd_facet, (0, 1, 2)))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_boundary_segments_walk_each_facet_in_slot_order(k):
    # Facet m's 2k segments are contiguous and chain from vertex m to
    # vertex m + 1, each a half of a node spacing, owned by its end on the
    # facet's nodes: the slot order the facet pairing relies on.
    ref = build_partitions(unit_right_triangle(), k).ref
    vert = ref_nodes(k)[:3]
    assert np.array_equal(ref.bd_facet, np.repeat(np.arange(3), 2 * k))
    for m in range(3):
        sl = slice(2 * k * m, 2 * k * (m + 1))
        start, end, owner = ref.bd_start[sl], ref.bd_end[sl], ref.bd_owner[sl]
        walk = np.vstack([start, end[-1:]])
        assert np.array_equal(start[1:], end[:-1])
        t = np.linspace(0.0, 1.0, 2 * k + 1)[:, None]
        assert np.abs(walk - (vert[m] + t * (vert[(m + 1) % 3] - vert[m]))
                      ).max() < 1e-15
        near = np.where(np.arange(2 * k) % 2 == 0, 0, 1)
        nodes = np.stack([start, end], 1)[np.arange(2 * k), near]
        assert np.array_equal(ref_nodes(k)[owner], nodes)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_segments_of_each_owner_chain_into_its_loop(k):
    # The rows of one owner, mapped to an element, are its subcell loop
    # mapped: each row starts at a loop point and runs to the next one.
    _, _, loops, start, end, owner, _ = subcells(build_structured_mesh(3),
                                                 5, k)
    for i, loop in enumerate(loops):
        rows = np.nonzero(owner == i)[0]
        gap = np.linalg.norm(start[rows, None] - loop[None], axis=-1)
        at = gap.argmin(axis=1)
        assert gap.min(axis=1).max() < 1e-14
        assert sorted(at) == list(range(len(loop)))
        assert np.abs(end[rows] - np.roll(loop, -1, 0)[at]).max() < 1e-14


@pytest.mark.parametrize("k", [1, 2, 3])
def test_reference_dual_is_read_only(k):
    # One tabulation per degree is shared by every mesh in the process: a
    # write through parts.ref would corrupt every later partition.
    ref = build_partitions(build_structured_mesh(2), k).ref
    arrays = [v for v in vars(ref).values() if isinstance(v, np.ndarray)]
    assert len(arrays) == len(vars(ref)) - 1
    for a in arrays + list(ref.loops):
        assert not a.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        ref.areas[0] = 1.0


@pytest.mark.parametrize("k", [1, 2, 3])
def test_interior_cv_segments_paired_with_opposite_normals(k):
    *_, start, end, owner, cls = subcells(build_structured_mesh(2), 1, k)
    n_len = scaled_normals(start, end)
    cv = np.nonzero(cls == CLASS_CONTROL_VOLUME)[0]
    # group by unordered endpoints
    seen = {}
    for i in cv:
        key = tuple(sorted([tuple(np.round(start[i], 12)),
                            tuple(np.round(end[i], 12))]))
        seen.setdefault(key, []).append(i)
    for key, pair in seen.items():
        assert len(pair) == 2
        i, j = pair
        assert owner[i] != owner[j]
        assert np.abs(n_len[i] + n_len[j]).max() < 1e-12
        assert abs(np.linalg.norm(n_len[i])
                   - np.linalg.norm(n_len[j])) < 1e-14


@pytest.mark.parametrize("k", [1, 2, 3])
def test_constant_field_flux_closes(k):
    # sum over subcells of the flux of a constant field through the dual
    # segments vanishes: closed interior interfaces cancel pairwise
    rng = np.random.default_rng(5)
    const = rng.standard_normal(2)
    *_, start, end, _, cls = subcells(build_structured_mesh(3), 7, k)
    cv = cls == CLASS_CONTROL_VOLUME
    flux = scaled_normals(start[cv], end[cv]) @ const
    assert abs(flux.sum()) < 1e-13


@pytest.mark.parametrize("k", [1, 2, 3])
def test_element_boundary_segments_tile_the_boundary(k):
    *_, start, end, _, cls = subcells(unit_right_triangle(), 0, k)
    bd = cls == CLASS_ELEMENT_BOUNDARY
    total = np.linalg.norm(end[bd] - start[bd], axis=1).sum()
    assert abs(total - (2.0 + np.sqrt(2.0))) < 1e-12
    # 2k segments per facet
    assert bd.sum() == 6 * k


@pytest.mark.parametrize("k", [1, 2, 3])
def test_noninterior_subcells_have_two_boundary_segments(k):
    areas, *_, owner, cls = subcells(unit_right_triangle(), 0, k)
    for i in range(len(areas)):
        nb = np.sum((owner == i) & (cls == CLASS_ELEMENT_BOUNDARY))
        assert nb in (0, 2)
        if nb == 0:
            assert k == 3 and i == 9


@pytest.mark.parametrize("k", [1, 2, 3])
def test_cv_index_areas_partition_domain(k):
    mesh = build_structured_mesh(4)
    dm = build_dof_map(mesh, k)
    parts = build_partitions(mesh, k)
    cv = build_cv_index(mesh, dm, parts)
    assert abs(cv.areas.sum() - 1.0) < 1e-12
    assert cv.n_dofs == dm.n_dofs


def test_cv_member_counts():
    mesh = build_structured_mesh(2)
    # k=1: the center vertex of the n=2 mesh has valence 6
    dm = build_dof_map(mesh, 1)
    center = int(np.nonzero((np.abs(dm.coords - 0.5) < 1e-12).all(axis=1))[0][0])
    assert np.bincount(dm.cell_dofs.ravel())[center] == 6
    elems, locs = np.nonzero(dm.cell_dofs == center)
    assert len(elems) == 6

    # k=2: every edge dof is supported by the edge's adjacent elements
    dm2 = build_dof_map(mesh, 2)
    edge_dofs = np.nonzero(dm2.kind == 1)[0]
    interior_edge_dofs = edge_dofs[~dm2.on_boundary[edge_dofs]]
    assert np.all(np.bincount(dm2.cell_dofs.ravel())[interior_edge_dofs] == 2)

    # k=3: each barycenter dof has exactly one subcell, the whole volume
    dm3 = build_dof_map(mesh, 3)
    parts3 = build_partitions(mesh, 3)
    cv3 = build_cv_index(mesh, dm3, parts3)
    interior_dofs = np.nonzero(dm3.kind == 2)[0]
    assert np.all(np.bincount(dm3.cell_dofs.ravel())[interior_dofs] == 1)
    for g in interior_dofs:
        elems, locs = np.nonzero(dm3.cell_dofs == g)
        area = parts3.ref.areas[locs[0]] * parts3.det_jac[elems[0]]
        assert abs(cv3.areas[g] - area) < 1e-15


@pytest.mark.parametrize("k", [1, 2, 3])
def test_cv_boundaries_close_across_elements(k):
    # the control volume of an interior dof is a closed polygon: the flux of
    # any constant field through its assembled boundary vanishes
    mesh = build_structured_mesh(3)
    dm = build_dof_map(mesh, k)
    parts = build_partitions(mesh, k)
    rng = np.random.default_rng(11)
    const = rng.standard_normal(2)
    start, end, owner, cls = parts._segments(slice(None))
    flux = scaled_normals(start, end) @ const                  # (nt, M)
    for g in np.nonzero(~dm.on_boundary)[0]:
        total = 0.0
        for t, loc in zip(*np.nonzero(dm.cell_dofs == g)):
            segs = (owner == loc) & (cls == CLASS_CONTROL_VOLUME)
            total += flux[t, segs].sum()
        assert abs(total) < 1e-12


def test_cv_index_rejects_mismatched_degree():
    mesh = build_structured_mesh(2)
    dm = build_dof_map(mesh, 2)
    parts = build_partitions(mesh, 1)
    with pytest.raises(DualMeshError):
        build_cv_index(mesh, dm, parts)


def test_export_dual_csv(tmp_path):
    mesh = build_structured_mesh(2)
    parts = build_partitions(mesh, 2)
    path = tmp_path / "dual.csv"
    export_dual_csv(parts, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "x0,y0,x1,y1,class,element,local_dof"
    per_element = len(parts._segments(0)[2])
    assert len(lines) == 1 + per_element * mesh.n_triangles
    fields = lines[1].split(",")
    assert fields[4] in ("cv", "element")


def test_export_dual_csv_rejects_degenerate_triangle(tmp_path):
    parts = build_partitions(build_structured_mesh(2), 1)
    parts.det_jac = parts.det_jac.copy()
    parts.det_jac[5] = 0.0
    with pytest.raises(ValueError, match=r"triangle 5 is degenerate"):
        export_dual_csv(parts, tmp_path / "dual.csv")
    assert not (tmp_path / "dual.csv").exists()


def test_partitions_must_come_from_build_partitions():
    from conservaflux import (compute_lce, elemental_conservation_report,
                              load_example, postprocess_all, solve_problem)
    mesh = build_structured_mesh(2)
    prob = load_example(1)
    u = solve_problem(mesh, 1, prob)
    parts = build_partitions(mesh, 1)
    cv = build_cv_index(mesh, u.dofmap, parts)
    tilde = postprocess_all(mesh, u.dofmap, parts, u, prob)
    for bad in (None, [parts]):
        calls = (
            lambda: postprocess_all(mesh, u.dofmap, bad, u, prob),
            lambda: compute_lce(mesh, cv, bad, tilde, prob),
            lambda: elemental_conservation_report(mesh, bad, tilde, prob),
            lambda: build_cv_index(mesh, u.dofmap, bad),
        )
        for call in calls:
            with pytest.raises(DualMeshError, match="build_partitions"):
                call()
