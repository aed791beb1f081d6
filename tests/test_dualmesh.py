import numpy as np
import pytest

from conservaflux import (build_cv_index, build_dof_map,
                          build_partitions, build_structured_mesh,
                          build_subcell_partition, export_dual_csv)
from conservaflux.dualmesh import (CLASS_CONTROL_VOLUME,
                                   CLASS_ELEMENT_BOUNDARY, DualMeshError)
from conservaflux.mesh import TriMesh


def shoelace(loop):
    x, y = loop[:, 0], loop[:, 1]
    return 0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)


def unit_right_triangle():
    return TriMesh([[0, 0], [1, 0], [0, 1]], [[0, 1, 2]])


def test_k1_three_quadrilaterals_of_equal_area():
    part = build_subcell_partition(unit_right_triangle(), 0, 1)
    assert part.n_nodes == 3
    # barycentric dual splits any triangle into three equal areas
    assert np.abs(part.areas - 1.0 / 6.0).max() < 1e-14
    for loop in part.loops:
        assert len(loop) == 4
        assert abs(shoelace(loop) - 1.0 / 6.0) < 1e-14


def test_k2_six_polygonals_partition():
    part = build_subcell_partition(unit_right_triangle(), 0, 2)
    assert part.n_nodes == 6
    assert abs(part.areas.sum() - 0.5) < 1e-13
    # vertices keep one quad of the quarter-subtriangle, edge nodes three
    assert np.abs(part.areas[:3] - 1.0 / 24.0).max() < 1e-14
    assert np.abs(part.areas[3:] - 1.0 / 8.0).max() < 1e-14


def test_k3_interior_node_has_no_element_boundary():
    part = build_subcell_partition(unit_right_triangle(), 0, 3)
    assert part.n_nodes == 10
    assert len(part.segments_of(9, CLASS_ELEMENT_BOUNDARY)) == 0
    assert len(part.segments_of(9, CLASS_CONTROL_VOLUME)) == 12
    assert abs(part.areas.sum() - 0.5) < 1e-13


@pytest.mark.parametrize("k", [1, 2, 3])
def test_subcell_areas_partition_random_elements(k):
    mesh = build_structured_mesh(5)
    areas = mesh.signed_areas()
    for t in (0, 17, 31, 49):
        part = build_subcell_partition(mesh, t, k)
        assert abs(part.areas.sum() - areas[t]) < 1e-13 * areas[t]
        # loops agree with tabulated areas
        for i, loop in enumerate(part.loops):
            assert abs(shoelace(loop) - part.areas[i]) < 1e-13


@pytest.mark.parametrize("k", [1, 2, 3])
def test_loops_contain_their_nodes(k):
    part = build_subcell_partition(build_structured_mesh(2), 3, k)
    for i, loop in enumerate(part.loops):
        node = part.node_coords[i]
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
    part = build_subcell_partition(build_structured_mesh(3), 4, k)
    classes = set(part.seg_class)
    assert classes <= {CLASS_CONTROL_VOLUME, CLASS_ELEMENT_BOUNDARY}
    # element-boundary segments carry a facet id, dual segments do not
    bd = part.seg_class == CLASS_ELEMENT_BOUNDARY
    assert np.all(part.seg_facet[bd] >= 0)
    assert np.all(part.seg_facet[~bd] == -1)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_interior_cv_segments_paired_with_opposite_normals(k):
    part = build_subcell_partition(build_structured_mesh(2), 1, k)
    cv = np.nonzero(part.seg_class == CLASS_CONTROL_VOLUME)[0]
    # group by unordered endpoints
    seen = {}
    for i in cv:
        key = tuple(sorted([tuple(np.round(part.seg_start[i], 12)),
                            tuple(np.round(part.seg_end[i], 12))]))
        seen.setdefault(key, []).append(i)
    for key, pair in seen.items():
        assert len(pair) == 2
        i, j = pair
        assert part.seg_owner[i] != part.seg_owner[j]
        assert np.abs(part.seg_normal[i] + part.seg_normal[j]).max() < 1e-12
        assert abs(part.seg_length[i] - part.seg_length[j]) < 1e-14


@pytest.mark.parametrize("k", [1, 2, 3])
def test_constant_field_flux_closes(k):
    # sum over subcells of the flux of a constant field through the dual
    # segments vanishes: closed interior interfaces cancel pairwise
    rng = np.random.default_rng(5)
    const = rng.standard_normal(2)
    part = build_subcell_partition(build_structured_mesh(3), 7, k)
    cv = part.seg_class == CLASS_CONTROL_VOLUME
    flux = (part.seg_normal[cv] @ const) * part.seg_length[cv]
    assert abs(flux.sum()) < 1e-13


@pytest.mark.parametrize("k", [1, 2, 3])
def test_element_boundary_segments_tile_the_boundary(k):
    part = build_subcell_partition(unit_right_triangle(), 0, k)
    bd = part.seg_class == CLASS_ELEMENT_BOUNDARY
    total = part.seg_length[bd].sum()
    assert abs(total - (2.0 + np.sqrt(2.0))) < 1e-12
    # 2k segments per facet
    assert bd.sum() == 6 * k


@pytest.mark.parametrize("k", [1, 2, 3])
def test_noninterior_subcells_have_two_boundary_segments(k):
    part = build_subcell_partition(unit_right_triangle(), 0, k)
    for i in range(part.n_nodes):
        nb = len(part.segments_of(i, CLASS_ELEMENT_BOUNDARY))
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
    cv = build_cv_index(mesh, dm, build_partitions(mesh, 1))
    center = int(np.nonzero((np.abs(dm.coords - 0.5) < 1e-12).all(axis=1))[0][0])
    assert cv.counts[center] == 6
    elems, locs = cv.members(center)
    assert len(elems) == 6

    # k=2: every edge dof is supported by the edge's adjacent elements
    dm2 = build_dof_map(mesh, 2)
    cv2 = build_cv_index(mesh, dm2, build_partitions(mesh, 2))
    edge_dofs = np.nonzero(dm2.kind == 1)[0]
    interior_edge_dofs = edge_dofs[~dm2.on_boundary[edge_dofs]]
    assert np.all(cv2.counts[interior_edge_dofs] == 2)

    # k=3: each barycenter dof has exactly one subcell, the whole volume
    dm3 = build_dof_map(mesh, 3)
    parts3 = build_partitions(mesh, 3)
    cv3 = build_cv_index(mesh, dm3, parts3)
    interior_dofs = np.nonzero(dm3.kind == 2)[0]
    assert np.all(cv3.counts[interior_dofs] == 1)
    for g in interior_dofs:
        elems, locs = cv3.members(g)
        part = parts3[int(elems[0])]
        assert abs(cv3.areas[g] - part.areas[int(locs[0])]) < 1e-15


@pytest.mark.parametrize("k", [1, 2, 3])
def test_cv_boundaries_close_across_elements(k):
    # the control volume of an interior dof is a closed polygon: the flux of
    # any constant field through its assembled boundary vanishes
    mesh = build_structured_mesh(3)
    dm = build_dof_map(mesh, k)
    parts = build_partitions(mesh, k)
    cv = build_cv_index(mesh, dm, parts)
    rng = np.random.default_rng(11)
    const = rng.standard_normal(2)
    cache = [parts[t] for t in range(mesh.n_triangles)]
    for g in np.nonzero(~dm.on_boundary)[0]:
        total = 0.0
        for t, loc in zip(*cv.members(g)):
            part = cache[int(t)]
            segs = part.segments_of(int(loc), CLASS_CONTROL_VOLUME)
            total += ((part.seg_normal[segs] @ const)
                      * part.seg_length[segs]).sum()
        assert abs(total) < 1e-12


def test_cv_index_rejects_mismatched_degree():
    mesh = build_structured_mesh(2)
    dm = build_dof_map(mesh, 2)
    parts = build_partitions(mesh, 1)
    with pytest.raises(DualMeshError):
        build_cv_index(mesh, dm, parts)


def test_cv_index_names_facet_of_displaced_element():
    mesh = build_structured_mesh(4)
    dm = build_dof_map(mesh, 2)
    parts = build_partitions(mesh, 2)
    t = 10                                     # interior element
    parts.v0 = parts.v0.copy()
    parts.v0[t] += [0.01, 0.02]
    with pytest.raises(DualMeshError, match="disagree") as err:
        build_cv_index(mesh, dm, parts)
    facet = int(str(err.value).split()[1].rstrip(":"))
    assert facet in mesh.tri_edges[t]


def test_partition_out_of_range():
    mesh = build_structured_mesh(2)
    with pytest.raises(IndexError):
        build_subcell_partition(mesh, 50, 1)


def test_export_dual_csv(tmp_path):
    mesh = build_structured_mesh(2)
    parts = build_partitions(mesh, 2)
    path = tmp_path / "dual.csv"
    export_dual_csv(parts, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "x0,y0,x1,y1,class,element,local_dof"
    part0 = parts[0]
    per_element = len(part0.seg_owner)
    assert len(lines) == 1 + per_element * mesh.n_triangles
    fields = lines[1].split(",")
    assert fields[4] in ("cv", "element")
