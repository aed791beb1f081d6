import numpy as np
import pytest

from conservaflux import (apply_dirichlet, assemble, build_dof_map,
                          build_structured_mesh, export_solution_csv,
                          load_example, solve, solve_problem)
from conservaflux import mesh as mesh_mod
from conservaflux.mesh import MeshError, TriMesh
from conservaflux.problems import ProblemSpec
from conservaflux.solver import DOF_INTERIOR, SolverError, blocks


def constant_problem(value=1.0, g=None):
    if g is None:
        def g(x, y):
            return np.zeros_like(x)
    return ProblemSpec(
        kappa=lambda x, y: np.full_like(np.asarray(x, dtype=float), value),
        source=lambda x, y: np.ones_like(np.asarray(x, dtype=float)),
        dirichlet={p: g for p in ("left", "right", "bottom", "top")},
    )


def linear_problem():
    def u(x, y):
        return x + y
    return ProblemSpec(
        kappa=lambda x, y: np.ones_like(np.asarray(x, dtype=float)),
        source=lambda x, y: np.zeros_like(np.asarray(x, dtype=float)),
        dirichlet={p: u for p in ("left", "right", "bottom", "top")},
        exact=u,
        exact_grad=lambda x, y: (np.ones_like(x), np.ones_like(x)),
    )


def test_dof_counts_n2():
    mesh = build_structured_mesh(2)
    assert build_dof_map(mesh, 1).n_dofs == 9
    # 9 vertices + 16 edges -> 25 = (2n+1)^2
    assert build_dof_map(mesh, 2).n_dofs == 25
    # 9 + 2*16 + 8 -> 49 = (3n+1)^2
    assert build_dof_map(mesh, 3).n_dofs == 49


@pytest.mark.parametrize("n,k", [(1, 1), (3, 2), (2, 3), (4, 3)])
def test_dof_count_formula(n, k):
    mesh = build_structured_mesh(n)
    assert build_dof_map(mesh, k).n_dofs == (k * n + 1) ** 2


@pytest.mark.parametrize("k", [1, 2, 3])
def test_conformity_shared_dof_coordinates(k, jittered_mesh, shuffled):
    # a shared dof index must mean the same physical point from both sides;
    # on the shuffled mesh an element's local vertex 0 is not always the
    # lower end of its edges
    from conservaflux import ref_nodes
    from conservaflux.basis import map_points
    for mesh in (build_structured_mesh(3), shuffled(jittered_mesh(4, 2), 3)):
        dm = build_dof_map(mesh, k)
        v0, jac, _, _ = mesh.element_maps()
        phys = map_points(v0, jac, ref_nodes(k))
        seen = {}
        for t in range(mesh.n_triangles):
            for local, g in enumerate(dm.cell_dofs[t]):
                if g in seen:
                    assert np.linalg.norm(seen[g] - phys[t, local]) < 1e-12
                else:
                    seen[g] = phys[t, local]
        assert len(seen) == dm.n_dofs
        for g, p in seen.items():
            assert np.linalg.norm(dm.coords[g] - p) < 1e-12


@pytest.mark.parametrize("k", [2, 3])
def test_p1_interpolation_is_exact_for_linear_functions(k, jittered_mesh,
                                                         shuffled):
    # Row g of p1 holds dof g's barycentric weights on its element's
    # vertices: from the vertex values of a linear function it gives the
    # function's value at every node of every element that holds dof g.
    from conservaflux import ref_nodes
    from conservaflux.basis import map_points
    mesh = shuffled(jittered_mesh(5, 4), 7)
    dm = build_dof_map(mesh, k)
    assert dm.p1.shape == (dm.n_dofs, mesh.n_vertices)
    assert np.array_equal(np.diff(dm.p1.indptr), dm.kind + 1)
    assert np.array_equal(dm.coords[:mesh.n_vertices], mesh.vertices)

    def lin(xy):
        return 0.3 - 1.7 * xy[..., 0] + 2.9 * xy[..., 1]

    v0, jac, _, _ = mesh.element_maps()
    nodes = lin(map_points(v0, jac, ref_nodes(k)))          # (nt, N)
    interp = dm.p1 @ lin(mesh.vertices)
    assert np.abs(interp[dm.cell_dofs] - nodes).max() < 1e-14
    assert np.abs(interp - lin(dm.coords)).max() < 1e-14


def test_dof_count_that_int32_cannot_index_is_refused(monkeypatch):
    # The limit is 2^31, lowered here to 34: the 3 x 3 mesh (16 vertices,
    # 18 triangles, 33 edges) passes, and so do its 16 dofs at k = 1.
    monkeypatch.setattr(mesh_mod, "_INDEX_LIMIT", 34)
    mesh = build_structured_mesh(3)
    assert build_dof_map(mesh, 1).n_dofs == 16
    with pytest.raises(MeshError, match=r"^dof count 49 is 2\^31 or more: "
                                        "indices are int32$"):
        build_dof_map(mesh, 2)


def test_dof_ordering_vertices_edges_interior():
    mesh = build_structured_mesh(2)
    dm = build_dof_map(mesh, 3)
    kinds = dm.kind
    assert np.all(kinds[:9] == 0)
    assert np.all(kinds[9:9 + 32] == 1)
    assert np.all(kinds[9 + 32:] == 2)
    # Edge dof j of edge (lo, hi) lies j/3 of the way from lo to hi; the
    # bubble of element t is its centroid.
    lo, hi = (mesh.vertices[mesh.edges[:, c]] for c in (0, 1))
    for j in (1, 2):
        assert np.abs(dm.coords[9 + j - 1:9 + 32:2]
                      - (lo + (hi - lo) * j / 3)).max() < 1e-15
    centroids = mesh.vertices[mesh.triangles].mean(axis=1)
    assert np.abs(dm.coords[9 + 32:] - centroids).max() < 1e-15


def test_local_stiffness_unit_right_triangle():
    mesh = TriMesh([[0, 0], [1, 0], [0, 1]], [[0, 1, 2]])
    prob = constant_problem()
    k_loc = blocks(mesh, build_dof_map(mesh, 1), prob).k_loc
    expected = np.array([[1.0, -0.5, -0.5], [-0.5, 0.5, 0.0], [-0.5, 0.0, 0.5]])
    assert np.abs(k_loc[0] - expected).max() < 1e-14


def test_unconstrained_nullspace_and_load_sum():
    mesh = build_structured_mesh(3)
    dm = build_dof_map(mesh, 2)
    a, b = assemble(mesh, dm, constant_problem())
    ones = np.ones(dm.n_dofs)
    assert np.abs(a @ ones).max() < 1e-12
    # partition of unity: sum of load entries equals |domain| for f = 1
    assert abs(b.sum() - 1.0) < 1e-13


def test_assembled_matrix_symmetric():
    mesh = build_structured_mesh(3)
    dm = build_dof_map(mesh, 3)
    prob = load_example(2)
    a, _ = assemble(mesh, dm, prob)
    diff = (a - a.T).tocoo()
    scale = np.abs(a.data).max()
    assert (np.abs(diff.data).max() if diff.nnz else 0.0) < 1e-12 * scale


def test_assembly_stores_each_entry_once(jittered_mesh):
    # A is summed by one sparse product: it matches the COO sum of the
    # stiffness blocks, holds no exact zero and no slot beyond its entries,
    # and assembling it holds at most 8 bytes per block entry beside A and
    # b (5.9 measured). The COO matrix's CSR kept a slot per block entry
    # (51,200 for 39,649 entries here) and held rows, columns and that CSR
    # at once (11.7 bytes per block entry).
    import tracemalloc
    import scipy.sparse as sp
    mesh = jittered_mesh(16, seed=3)
    prob = load_example(2)
    dm = build_dof_map(mesh, 3)
    disc = blocks(mesh, dm, prob, 8)
    cd, k_loc = dm.cell_dofs, disc.k_loc
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        a, b = assemble(mesh, dm, prob)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    ref = sp.coo_matrix((k_loc.ravel(), (np.repeat(cd, 10, axis=1).ravel(),
                                         np.tile(cd, (1, 10)).ravel())),
                        shape=a.shape).tocsr()
    assert a.has_canonical_format
    assert abs(a - ref).max() <= 1e-14 * np.abs(ref.data).max()
    assert np.all(a.data != 0.0)
    for arr in (a.data, a.indices):
        while arr.base is not None:
            arr = arr.base
        assert arr.size == a.nnz
    a_bytes = a.data.nbytes + a.indices.nbytes + a.indptr.nbytes
    assert peak <= a_bytes + b.nbytes + 8 * k_loc.size


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("ex", [1, 2, 3])
@pytest.mark.parametrize("jittered", [False, True])
def test_assembled_and_constrained_matrices_are_exactly_symmetric(
        jittered, ex, k, jittered_mesh):
    # The stiffness blocks are made symmetric to the bit, and A sums each
    # pair of entries in the same element order. Without that, the reference
    # table's products rounded unlike their transposes: at example 2, k = 3,
    # jittered n = 16, 21,412 entries of A_c differed from A_c^T.
    mesh = jittered_mesh(8, seed=k) if jittered else build_structured_mesh(8)
    prob = load_example(ex)
    dm = build_dof_map(mesh, k)
    a, b = assemble(mesh, dm, prob)
    a_c = apply_dirichlet(a, b, dm, prob).matrix
    assert (a - a.T).nnz == 0
    assert (a_c - a_c.T).nnz == 0


def test_dirichlet_zero_boundary():
    mesh = build_structured_mesh(3)
    prob = constant_problem()
    u = solve_problem(mesh, 2, prob)
    bnd = u.dofmap.on_boundary
    assert np.abs(u.values[bnd]).max() == 0.0


def test_dirichlet_trace_matches_g():
    # boundary coefficients equal the boundary data at the nodes
    mesh = build_structured_mesh(4)
    prob = load_example(2)
    u = solve_problem(mesh, 2, prob)
    dm = u.dofmap
    bnd = dm.on_boundary
    g = prob.exact(dm.coords[bnd, 0], dm.coords[bnd, 1])
    assert np.abs(u.values[bnd] - g).max() < 1e-14


def test_mixed_bc_neumann_rows_untouched():
    mesh = build_structured_mesh(3)
    dm = build_dof_map(mesh, 1)
    prob = load_example(3)
    a, b = assemble(mesh, dm, prob)
    system = apply_dirichlet(a, b, dm, prob)
    dir_mask = system.dirichlet_mask
    # dirichlet only on left/right
    assert np.array_equal(dir_mask, dm.on_part["left"] | dm.on_part["right"])
    # rows of free dofs keep their assembled values
    free = ~dir_mask
    a_rows = a[free][:, free].toarray()
    c_rows = system.matrix[free][:, free].toarray()
    assert np.abs(a_rows - c_rows).max() == 0.0


def test_dirichlet_on_unlabeled_part_errors():
    mesh = build_structured_mesh(2)
    dm = build_dof_map(mesh, 1)
    prob = ProblemSpec(kappa=lambda x, y: np.ones_like(x),
                       source=lambda x, y: np.zeros_like(x),
                       dirichlet={"inlet": lambda x, y: np.zeros_like(x)})
    a, b = assemble(mesh, dm, prob)
    with pytest.raises(SolverError):
        apply_dirichlet(a, b, dm, prob)


def test_kappa_must_be_positive():
    mesh = build_structured_mesh(2)
    dm = build_dof_map(mesh, 1)
    bad = ProblemSpec(kappa=lambda x, y: x - 0.5,
                      source=lambda x, y: np.zeros_like(x), dirichlet={})
    with pytest.raises(SolverError):
        assemble(mesh, dm, bad)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_linear_solution_exact(k):
    mesh = build_structured_mesh(4)
    u = solve_problem(mesh, k, linear_problem())
    dm = u.dofmap
    exact = dm.coords[:, 0] + dm.coords[:, 1]
    assert np.abs(u.values - exact).max() < 1e-11
    assert u.solve_residual <= 1e-10


def test_cubic_polynomial_exact_for_k3():
    def u(x, y):
        return x ** 3
    prob = ProblemSpec(kappa=lambda x, y: np.ones_like(np.asarray(x, float)),
                       source=lambda x, y: -6.0 * x,
                       dirichlet={p: u for p in ("left", "right", "bottom",
                                                 "top")})
    mesh = build_structured_mesh(3)
    field = solve_problem(mesh, 3, prob)
    dm = field.dofmap
    assert np.abs(field.values - u(dm.coords[:, 0], dm.coords[:, 1])).max() \
        < 1e-11


def test_galerkin_orthogonality_residual():
    mesh = build_structured_mesh(8)
    dm = build_dof_map(mesh, 2)
    prob = load_example(1)
    a, b = assemble(mesh, dm, prob)
    system = apply_dirichlet(a, b, dm, prob)
    u = solve(system)
    r = a @ u.values - b
    free = ~system.dirichlet_mask
    assert np.abs(r[free]).max() <= 1e-9 * np.linalg.norm(b)


def test_h1_error_decreases_second_order_for_k2():
    prob = load_example(1)
    from conservaflux import h1_seminorm_error
    errs = []
    for n in (4, 8, 16):
        mesh = build_structured_mesh(n)
        u = solve_problem(mesh, 2, prob)
        errs.append(h1_seminorm_error(mesh, u, prob.exact_grad))
    rate = np.log2(errs[0] / errs[1]), np.log2(errs[1] / errs[2])
    assert all(abs(r - 2.0) < 0.2 for r in rate)


def test_solve_reports_singular_system():
    # An exactly singular level has no Cholesky factor: the solve fails at
    # the residual check with a NaN solution, without iterating.
    import scipy.sparse as sp

    from conservaflux.solver import ConstrainedSystem
    mesh = build_structured_mesh(1)
    dm = build_dof_map(mesh, 1)
    n = dm.n_dofs
    system = ConstrainedSystem(matrix=sp.csr_matrix(np.ones((n, n))),
                               rhs=np.arange(1.0, n + 1.0), mesh=mesh,
                               dofmap=dm, dirichlet_mask=np.zeros(n, bool),
                               dirichlet_values=np.zeros(n))
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(system.matrix.toarray())
    with pytest.raises(SolverError, match="relative residual nan exceeds "
                                          r"1\.0e-10 after 0 CG iterations"):
        solve(system)


@pytest.mark.parametrize("exactness", [6.9, "7"])
def test_malformed_exactness_is_rejected(exactness):
    # Not rounded down or parsed: the same check as triangle_rule's.
    mesh = build_structured_mesh(2)
    prob = load_example(2)
    with pytest.raises(ValueError,
                       match="unsupported triangle exactness request"):
        assemble(mesh, build_dof_map(mesh, 1), prob, exactness)
    with pytest.raises(ValueError,
                       match="unsupported triangle exactness request"):
        solve_problem(mesh, 1, prob, exactness=exactness)


def test_solution_csv_export(tmp_path):
    mesh = build_structured_mesh(2)
    u = solve_problem(mesh, 1, linear_problem())
    path = tmp_path / "solution.csv"
    export_solution_csv(u, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "dof_index,x,y,value"
    assert len(lines) == 1 + u.dofmap.n_dofs
    idx, x, y, v = lines[1].split(",")
    assert float(v) == pytest.approx(float(x) + float(y), abs=1e-12)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_element_blocks_match_einsum_reference(k, jittered_mesh, monkeypatch):
    # A budget of 7 elements' composite source points makes the 72 elements
    # span several chunks, the last one partial.
    from conservaflux import solver
    from conservaflux.basis import eval_basis
    from conservaflux.dualmesh import _rot, subcell_quadrature
    from conservaflux.quadrature import triangle_rule
    width = len(subcell_quadrature(k, solver.default_exactness(k))[0])
    monkeypatch.setattr(solver, "_BUDGET", 7 * width)
    mesh = jittered_mesh(6, seed=11)
    prob = load_example(2)
    disc = blocks(mesh, build_dof_map(mesh, k), prob)
    v0, jac, inv, det = mesh.element_maps()

    rule = triangle_rule(disc.exactness)
    _, grads = eval_basis(k, rule.points)
    phys = v0[:, None, :] + np.einsum("tab,qb->tqa", jac, rule.points)
    g = np.einsum("tba,qib->tqia", inv, grads)
    c = rule.weights * det[:, None] * prob.kappa(phys[..., 0], phys[..., 1])
    pts, w, owner = subcell_quadrature(k, disc.exactness)
    vals, _ = eval_basis(k, pts)
    onehot = np.eye(vals.shape[1])[owner]
    phys = v0[:, None, :] + np.einsum("tab,qb->tqa", jac, pts)
    coef = w * det[:, None] * prob.source(phys[..., 0], phys[..., 1])
    # Dual-segment fluxes: kappa times the physical gradients dotted with
    # the length-scaled normals rot(J d), summed into subcell rows.
    rseg = disc.rseg
    phys = v0[:, None, None, :] + np.einsum("tab,snb->tsna", jac, rseg.cv_pts)
    kap = prob.kappa(phys[..., 0], phys[..., 1])
    _, g_cv = eval_basis(k, rseg.cv_pts.reshape(-1, 2))
    g_cv = np.einsum("tba,pjb->tpja", inv, g_cv).reshape(
        len(det), *rseg.cv_pts.shape[:2], -1, 2)
    rotd = _rot(np.einsum("tab,sb->tsa", jac, rseg.cv_dir))
    flux = np.einsum("q,tsq,tsqja,tsa->tsj", rseg.sw, kap, g_cv, rotd)
    det_m = det[:, None, None] * np.einsum("tac,tbc->tab", inv, inv)
    expected = {
        "k_loc": np.einsum("tq,tqia,tqja->tij", c, g, g),
        "b_loc": np.einsum("tq,qi->ti", coef, vals),
        "f_sub": np.einsum("tq,qi->ti", coef, onehot),
        "f_abs": np.abs(coef).sum(axis=1),
        "d_loc": np.einsum("is,tsj->tij", rseg.sgn_cv, flux),
        "det_m": det_m[:, [0, 1, 0], [0, 1, 1]],
    }
    for name, ref in expected.items():
        val = getattr(disc, name)
        assert np.abs(val - ref).max() <= 1e-13 * np.abs(ref).max(), name


@pytest.mark.parametrize("k, per_element", [(1, 224), (2, 704), (3, 1792)])
def test_block_bytes_per_element(k, per_element):
    # Every array the blocks hold but the mesh and the dof map do not:
    # k_loc, b_loc, f_sub, f_abs and det_m, then d_loc from its first read
    # on. The facet pairing and kappa on the element boundaries are not
    # stored: the recovery reads the mesh's topology and samples kappa per
    # chunk.
    mesh = build_structured_mesh(4)
    disc = blocks(mesh, build_dof_map(mesh, k), load_example(2))
    shared = [*mesh.element_maps(), disc.cell_dofs, mesh.tri_neighbors,
              mesh.neighbor_facets]

    def own():
        return {name: a for name, a in vars(disc).items()
                if isinstance(a, np.ndarray)
                and all(a is not b for b in shared)}

    assert sorted(own()) == sorted(["k_loc", "b_loc", "f_sub", "f_abs",
                                    "det_m"])
    assert disc.d_loc is disc.d_loc
    assert sorted(own()) == sorted(["k_loc", "d_loc", "b_loc", "f_sub",
                                    "f_abs", "det_m"])
    total = sum(a.nbytes for a in own().values())
    assert total == per_element * mesh.n_triangles


@pytest.mark.parametrize("example", [2, 3])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_dirichlet_elimination_matches_two_product_formula(k, example,
                                                           jittered_mesh):
    # Zeroing the constrained rows and columns in place must give the CSR
    # arrays of keep @ A @ keep + diag(mask), entry for entry; example 3 has
    # Dirichlet data on two sides and homogeneous Neumann on the others.
    import scipy.sparse as sp
    mesh = jittered_mesh(6, seed=4)
    prob = load_example(example)
    dm = build_dof_map(mesh, k)
    a, b = assemble(mesh, dm, prob)
    system = apply_dirichlet(a, b, dm, prob)
    mask = system.dirichlet_mask
    keep = sp.diags((~mask).astype(float))
    ref = (keep @ a @ keep + sp.diags(mask.astype(float))).tocsr()
    assert sp.isspmatrix_csr(system.matrix)
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(system.matrix, name), getattr(ref, name))


def test_dirichlet_elimination_inserts_a_missing_diagonal():
    # Rows of Dirichlet dofs that store no diagonal entry, one of them no
    # entry at all, still become identity rows, with no sparse-efficiency
    # warning (pytest turns warnings into errors).
    import scipy.sparse as sp
    mesh = build_structured_mesh(4)
    prob = load_example(3)
    dm = build_dof_map(mesh, 2)
    a, b = assemble(mesh, dm, prob)
    mask = apply_dirichlet(a, b, dm, prob).dirichlet_mask
    cut = np.flatnonzero(mask)[[0, 3, 7]]
    a = a.tolil()
    a[cut[:2], cut[:2]] = 0.0
    a[cut[2], :] = 0.0
    a = a.tocsr()
    a.eliminate_zeros()
    assert np.all(a.diagonal()[cut] == 0.0) and a[cut[2]].nnz == 0
    system = apply_dirichlet(a, b, dm, prob)
    keep = sp.diags((~mask).astype(float))
    ref = (keep @ a @ keep + sp.diags(mask.astype(float))).tocsr()
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(system.matrix, name), getattr(ref, name))
    rows = system.matrix[np.flatnonzero(mask)]
    assert np.array_equal(rows.toarray(), np.eye(dm.n_dofs)[mask])


def test_dirichlet_elimination_copies_the_matrix_once():
    # The peak allocated while constraining stays within one copy of A and
    # a few dof vectors; adding diag(mask) to the copy held two copies of A
    # at once (A + 31 dof vectors here).
    import tracemalloc
    mesh = build_structured_mesh(16)
    prob = load_example(3)
    dm = build_dof_map(mesh, 3)
    a, b = assemble(mesh, dm, prob)
    a_bytes = a.data.nbytes + a.indices.nbytes + a.indptr.nbytes
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        apply_dirichlet(a, b, dm, prob)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= a_bytes + 12 * 8 * dm.n_dofs


def pure_neumann_system(n, degree=1):
    # apply_dirichlet rejects a problem without Dirichlet data, so the
    # singular system is assembled and left unconstrained by hand.
    from conservaflux import ConstrainedSystem
    mesh = build_structured_mesh(n)
    dm = build_dof_map(mesh, degree)
    a, b = assemble(mesh, dm, load_example(2))
    return ConstrainedSystem(matrix=a, rhs=b, mesh=mesh, dofmap=dm,
                             dirichlet_mask=np.zeros(dm.n_dofs, dtype=bool),
                             dirichlet_values=np.zeros(dm.n_dofs))


def test_pure_neumann_problem_fails_before_any_factorization(monkeypatch):
    def cholesky(*args, **kwargs):
        pytest.fail("a system without Dirichlet data was factored")

    monkeypatch.setattr(np.linalg, "cholesky", cholesky)
    prob = load_example(2)
    neumann = ProblemSpec(kappa=prob.kappa, source=prob.source, dirichlet={})
    msg = (r"no boundary part has Dirichlet data \(mesh parts: \['bottom', "
           r"'left', 'right', 'top'\]\): the system is singular")
    mesh = build_structured_mesh(4)
    dm = build_dof_map(mesh, 2)
    with pytest.raises(SolverError, match=msg):
        apply_dirichlet(*assemble(mesh, dm, neumann), dm, neumann)
    with pytest.raises(SolverError, match=msg):
        solve_problem(mesh, 2, neumann)


def test_singular_system_fails_after_one_factorization_and_capped_cg(
        monkeypatch):
    # A singular system costs one factorization of the last level and at
    # most the capped number of CG iterations; the residual check reports
    # the residual attained and the iterations taken. All vertices are
    # free: S (k = 1) or A_0 (k = 2) is aggregated into boxes of 3 median
    # element diameters, then three times wider, down to `_COARSEST`
    # rows, which are factored once, in diagonal blocks of at most
    # `_BLOCK` rows. Whether a singular last level has a Cholesky factor in
    # floating point depends on rounding: without one the solution is NaN
    # and CG never runs (n = 128 here), with one CG runs, to the cap at
    # n = 48.
    import re
    import warnings

    from conservaflux import solver
    factored = []

    def cholesky(a):
        factored.append(a.shape)
        return real(a)

    real = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", cholesky)
    for n, k, rows in ((128, 1, 11 ** 2), (128, 2, 11 ** 2), (48, 1, 12 ** 2)):
        system = pure_neumann_system(n, degree=k)
        nv = system.mesh.n_vertices
        assert last_level_rows(system.mesh, np.arange(nv),
                               solver._COARSEST) == rows
        factored.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(SolverError, match="relative residual") as err:
                solve(system)
        assert all(m == n <= solver._BLOCK for m, n in factored)
        assert sum(m for m, _ in factored) <= rows
        if "residual nan" not in str(err.value):
            assert sum(m for m, _ in factored) == rows
        its = re.search(r"after (\d+) CG iterations", str(err.value))
        if "residual nan" in str(err.value):
            assert int(its[1]) == 0
        else:
            assert 0 < int(its[1]) <= solver._CG_MAXITER


def test_cg_iteration_cap_is_reported(monkeypatch):
    # CG stops at `_CG_MAXITER`; the count is on the field when the full
    # system still passes its residual check, and in the error otherwise.
    from conservaflux import solver
    mesh = build_structured_mesh(8)
    prob = load_example(2)
    u = solve_problem(mesh, 2, prob)
    assert u.solve_levels == (225, 49) and 0 < u.solve_iterations < 30
    monkeypatch.setattr(solver, "_CG_RTOL", 0.0)
    monkeypatch.setattr(solver, "_CG_MAXITER", 40)
    assert solve_problem(mesh, 2, prob).solve_iterations == 40
    monkeypatch.setattr(solver, "_CG_MAXITER", 3)
    with pytest.raises(SolverError, match="after 3 CG iterations"):
        solve_problem(mesh, 2, prob)


def test_cg_breakdown_returns_the_iterate_reached(monkeypatch):
    # Without a tolerance, CG drives the recursive residual down until
    # r @ z underflows (after about 200 iterations here); the next step
    # would divide by zero. It stops there instead, with the iterate
    # reached, which passes the residual check: no warning, no NaN.
    from conservaflux import solver
    monkeypatch.setattr(solver, "_CG_RTOL", 0.0)
    u = solve_problem(build_structured_mesh(8), 2, load_example(2))
    assert 0 < u.solve_iterations < solver._CG_MAXITER
    assert np.all(np.isfinite(u.values)) and u.solve_residual <= 1e-14


@pytest.mark.parametrize("k", [1, 2])
def test_exactly_singular_coarse_factor_fails_at_the_residual_check(
        k, monkeypatch):
    # A last level without a Cholesky factor (singular or indefinite) makes
    # the solve report the residual as the relative residual check does,
    # without iterating.
    from conservaflux import solver

    def cholesky(a):
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    def pcg(*args):
        pytest.fail("no iteration without a coarse factor")

    monkeypatch.setattr(np.linalg, "cholesky", cholesky)
    monkeypatch.setattr(solver, "_pcg", pcg)
    mesh = build_structured_mesh(4)
    dm = build_dof_map(mesh, k)
    prob = load_example(2)
    system = apply_dirichlet(*assemble(mesh, dm, prob), dm, prob)
    with pytest.raises(SolverError, match="relative residual nan exceeds "
                                          r"1\.0e-10 after 0 CG iterations"):
        solve(system)


def plain_solve(system):
    import scipy.sparse.linalg as spla
    return spla.spsolve(system.matrix.tocsc(), system.rhs,
                        permc_spec="MMD_AT_PLUS_A")


@pytest.mark.parametrize("k", [2, 3])
def test_only_the_coarse_matrix_is_factored(k, monkeypatch):
    # The one factor is A_0 = P^T S P on the free vertices (the bubbles are
    # condensed out and the edge dofs are iterated on), applied once per CG
    # iteration.
    mesh = build_structured_mesh(4)
    prob = load_example(3)  # Dirichlet data on two of the four sides
    dm = build_dof_map(mesh, k)
    system = apply_dirichlet(*assemble(mesh, dm, prob), dm, prob)
    sizes = []

    def cholesky(a):
        sizes.append(a.shape)
        return real(a)

    real = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", cholesky)
    u = solve(system)
    nf = int(np.sum(~system.dirichlet_mask[:mesh.n_vertices]))
    nc = int(np.sum(~system.dirichlet_mask[dm.kind != DOF_INTERIOR]))
    assert nf < mesh.n_vertices
    assert sizes == [(nf, nf)]
    assert u.solve_levels == (nc, nf)
    assert 0 < u.solve_iterations <= 60


@pytest.fixture
def condensed(monkeypatch):
    """The Schur complements S that `solve` forms, in order."""
    from conservaflux import solver
    seen, real = [], solver._condense

    def condense(*args):
        s, rhs = real(*args)
        seen.append(s)
        return s, rhs

    monkeypatch.setattr(solver, "_condense", condense)
    return seen


def held_entries(s):
    """The entries the arrays under S's `data` and `indices` hold."""
    return [(v if v.base is None else v.base).size
            for v in (s.data, s.indices)]


def condensation_fill_in(system):
    """Pairs of free coupled dofs where A_ci D^-1 A_ic has an entry and A
    stores none: A stores no coupling that sums to exactly 0."""
    import scipy.sparse as sp
    a, dm = system.matrix.tocsr(), system.dofmap
    nc = dm.n_dofs - int(np.sum(dm.kind == DOF_INTERIOR))
    free = np.flatnonzero(~system.dirichlet_mask[:nc])
    c = a[free][:, nc:] @ sp.diags(1 / a.diagonal()[nc:]) @ a[nc:][:, free]
    on_c = abs(c) > 0
    return on_c.sum() - on_c.multiply(a[free][:, free] != 0).sum()


@pytest.mark.parametrize("jittered, example", [
    pytest.param(True, example, id=str(example)) for example in (1, 2, 3)] + [
    pytest.param(False, example, id=f"structured-{example}")
    for example in (1, 2, 3)])
def test_k3_condensed_solve_matches_full_system(jittered, example,
                                                jittered_mesh):
    # On structured meshes S = A_cc - A_ci D^-1 A_ic has entries where A
    # stores none (couplings that sum to exactly 0): S must hold them too.
    # No two elements of a jittered mesh share a shape, and its A drops
    # nothing.
    mesh = jittered_mesh(6, seed=9) if jittered else build_structured_mesh(6)
    prob = load_example(example)
    dm = build_dof_map(mesh, 3)
    a, b = assemble(mesh, dm, prob)
    system = apply_dirichlet(a, b, dm, prob)
    assert (condensation_fill_in(system) == 0) == jittered
    ref = plain_solve(system)
    full = system.matrix
    for u in (solve(system), solve_problem(mesh, 3, prob)):
        assert np.abs(u.values - ref).max() <= 1e-12 * np.abs(ref).max()
        res = (np.linalg.norm(full @ u.values - system.rhs)
               / np.linalg.norm(system.rhs))
        assert u.solve_residual == pytest.approx(res, rel=1e-6, abs=1e-18)
        assert u.solve_residual <= 1e-10


@pytest.mark.parametrize("k", [1, 2, 3])
def test_solve_matches_the_plain_direct_solve(k, jittered_mesh):
    # The PCG solve (k = 2, 3) and the direct solve of the free dofs (k = 1)
    # agree with one direct solve of the whole constrained system.
    mesh = jittered_mesh(6, seed=9)
    prob = load_example(2)
    dm = build_dof_map(mesh, k)
    system = apply_dirichlet(*assemble(mesh, dm, prob), dm, prob)
    ref = plain_solve(system)
    for u in (solve(system), solve_problem(mesh, k, prob)):
        assert np.abs(u.values - ref).max() <= 1e-12 * np.abs(ref).max()
        assert np.array_equal(u.values[system.dirichlet_mask],
                              system.dirichlet_values[system.dirichlet_mask])


@pytest.mark.parametrize("k", [2, 3])
def test_solve_is_deterministic(k, jittered_mesh):
    mesh = jittered_mesh(8, seed=3)
    prob = load_example(2)
    dm = build_dof_map(mesh, k)
    system = apply_dirichlet(*assemble(mesh, dm, prob), dm, prob)
    assert np.array_equal(solve(system).values, solve(system).values)
    assert np.array_equal(solve_problem(mesh, k, prob).values,
                          solve_problem(mesh, k, prob).values)


def last_level_rows(mesh, free_vertices, coarsest):
    """Rows of the one factored level: while more than `coarsest` remain,
    the free vertices are binned into boxes 3 median element diameters (an
    element's longest edge) wide, then three times wider per further
    level."""
    xy = mesh.vertices[free_vertices]
    tri = mesh.vertices[mesh.triangles]
    diam = np.linalg.norm(tri - np.roll(tri, 1, axis=1), axis=2).max(axis=1)
    box = np.floor((xy - xy.min(0)) / (3 * np.median(diam))).astype(int)
    rows = len(box)
    while rows > coarsest:
        box = np.unique(box, axis=0)
        rows, box = len(box), box // 3
    return rows


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("jittered", [False, True])
def test_aggregation_levels_match_the_plain_direct_solve(k, jittered,
                                                         jittered_mesh,
                                                         monkeypatch):
    # With a small `_COARSEST`, smoothed-aggregation levels go under S
    # (k = 1) or A_0 (k = 2, 3), and only the last, small one is factored.
    from conservaflux import solver
    monkeypatch.setattr(solver, "_COARSEST", 8)
    mesh = jittered_mesh(16, seed=5) if jittered else build_structured_mesh(16)
    prob = load_example(2)
    dm = build_dof_map(mesh, k)
    system = apply_dirichlet(*assemble(mesh, dm, prob), dm, prob)
    ref = plain_solve(system)
    u = solve(system)
    free = np.flatnonzero(~system.dirichlet_mask[:mesh.n_vertices])
    rows = last_level_rows(mesh, free, 8)
    first = last_level_rows(mesh, free, len(free) - 1)
    # The first aggregation level alone keeps more than 8 rows: two run.
    assert rows <= 8 < first
    assert u.solve_levels[-2:] == (first, rows)
    assert len(u.solve_levels) == (4 if k > 1 else 3)
    assert 0 < u.solve_iterations <= 60
    assert np.abs(u.values - ref).max() <= 1e-12 * np.abs(ref).max()
    assert np.array_equal(solve(system).values, u.values)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_solve_holds_one_copy_of_the_matrix_beside_it(k, jittered_mesh):
    # The peak allocated inside `solve` stays within S, written from A's
    # arrays in chunks of rows, the levels under it and the PCG's dof
    # vectors. Gathering the free rows of A, then their free columns, then
    # forming S = A_cc - C with scipy held 3.3 A at k = 3 (1.5 A + 43 dof
    # vectors here). Sizing S's arrays for every entry of the free rows,
    # the couplings to bubbles too, held 1.45 A at k = 3; sized for the
    # entries between free coupled dofs, the peak is 1.37 A.
    import tracemalloc
    mesh = jittered_mesh(32, seed=4)
    prob = load_example(2)
    dm = build_dof_map(mesh, k)
    system = apply_dirichlet(*assemble(mesh, dm, prob), dm, prob)
    a = system.matrix
    a_bytes = a.data.nbytes + a.indices.nbytes + a.indptr.nbytes
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        u = solve(system)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(u.solve_levels) == (3 if k > 1 else 2)  # levels aggregate
    assert peak <= (1.4 * a_bytes if k == 3
                    else 1.5 * a_bytes + 32 * 8 * dm.n_dofs)


@pytest.mark.parametrize("k, n, levels, bound", [
    (1, 96, (9025, 529, 64), 4.0), (2, 48, (9025, 2209, 121), 2.45)])
def test_solve_holds_each_transfer_once(k, n, levels, bound):
    # The CG holds each transfer once, as P^T, and prolongs through its
    # transpose view; every level is formed a chunk of P^T rows at a time.
    # The peak allocated inside `solve` measured 3.81 A (k = 1) and 2.34 A
    # (k = 2). Holding P and a CSR copy of P^T through the CG, with the
    # aggregation levels formed as one whole product, it was 4.25 A and
    # 2.60 A.
    import tracemalloc
    mesh = build_structured_mesh(n)
    prob = load_example(2)
    dm = build_dof_map(mesh, k)
    system = apply_dirichlet(*assemble(mesh, dm, prob), dm, prob)
    a = system.matrix
    a_bytes = a.data.nbytes + a.indices.nbytes + a.indptr.nbytes
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        u = solve(system)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert u.solve_levels == levels
    assert peak <= bound * a_bytes


def test_aggregation_writes_p_into_the_product_arrays(monkeypatch):
    # Example 2, k = 1, n = 96, A in bytes as above. P is formed in the
    # arrays of A T: the peak inside `_aggregate` measured 1.05 A above its
    # entry, and 1.61 A as T - (2/3 D^-1) (A T), which also held A T's
    # scaled copy and an over-allocated difference. The solve's peak, now
    # set in `_galerkin`, measured 3.63 A (3.81 A).
    import tracemalloc
    from conservaflux import solver
    mesh = build_structured_mesh(96)
    prob = load_example(2)
    dm = build_dof_map(mesh, 1)
    system = apply_dirichlet(*assemble(mesh, dm, prob), dm, prob)
    a = system.matrix
    a_bytes = a.data.nbytes + a.indices.nbytes + a.indptr.nbytes
    rises, real = [], solver._aggregate

    def aggregate(level, box):
        entry = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = real(level, box)
        rises.append(tracemalloc.get_traced_memory()[1] - entry)
        return out

    monkeypatch.setattr(solver, "_aggregate", aggregate)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        u = solve(system)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert u.solve_levels == (9025, 529, 64) and len(rises) == 2
    assert max(rises) <= 1.2 * a_bytes
    assert peak <= 3.7 * a_bytes


@pytest.mark.parametrize("k", [1, 2, 3])
def test_aggregation_prolongation_is_the_scipy_formula_bit_for_bit(
        k, jittered_mesh, monkeypatch):
    # P from the arrays of A T equals T - (2/3 D^-1) (A T) as scipy forms
    # it, array for array and bit for bit, order included: the order of a
    # level's entries sets the rounding of its products. The cases include
    # rows of A T without an entry in their own aggregate (it summed to
    # exactly 0) and, with `_COARSEST` at 3, a last level whose rows of A T
    # all descend, where scipy sorts the difference. Exact zeros are
    # rounding coincidences: with the symmetric stiffness blocks, the k = 2
    # levels of the first two meshes have none, those of the third three.
    from conservaflux import solver
    monkeypatch.setattr(solver, "_COARSEST", 3)
    real, seen = solver._aggregate, {"lack": 0, "sorted": 0}

    def aggregate(level, box):
        p, wider = real(level, box)
        lack, ordered = check_prolongation(p, wider, level, box)
        seen["lack"] += lack
        seen["sorted"] += ordered
        return p, wider

    monkeypatch.setattr(solver, "_aggregate", aggregate)
    for mesh in (build_structured_mesh(16), jittered_mesh(16, seed=5),
                 jittered_mesh(16, seed=2)):
        solve_problem(mesh, k, load_example(2))
    assert seen["lack"] > 0 and seen["sorted"] > 0


def check_prolongation(p, wider, level, box):
    """Assert that (p, wider) is what T - (2/3 D^-1) (A T) gives for the
    level A and the boxes, bit for bit; return A T's rows without an entry
    in their own aggregate, and whether scipy sorted the difference."""
    import scipy.sparse as sp
    _, first, agg = np.unique(box[:, 0] * (box[:, 1].max() + 1) + box[:, 1],
                              return_index=True, return_inverse=True)
    t = sp.csr_matrix((np.ones(len(agg)), (np.arange(len(agg)), agg)),
                      shape=(len(agg), len(first)))
    at = level @ t
    x = sp.diags(2 / 3 / level.diagonal()) @ at
    ref = t - x
    for name in ("data", "indices", "indptr"):
        got, want = getattr(p, name), getattr(ref, name)
        assert got.dtype == want.dtype, name
        assert np.array_equal(got.view(np.uint8), want.view(np.uint8)), name
    assert p.shape == ref.shape
    assert np.array_equal(wider, box[first] // 3)
    rows = np.repeat(np.arange(len(agg)), np.diff(at.indptr))
    return (len(agg) - np.count_nonzero(at.indices == agg[rows]),
            x.has_canonical_format)


@pytest.mark.parametrize("seed", range(6))
def test_aggregation_prolongation_of_small_levels(seed):
    # Random symmetric levels of 2-12 rows with random boxes; the path
    # graph of 2 rows in 2 boxes, whose rows of A T descend with two
    # entries: there scipy sorts the difference, and so must P; and 2 rows
    # in one box whose P is exactly 0: scipy drops those entries.
    import scipy.sparse as sp
    from conservaflux import solver
    rng = np.random.default_rng(seed)
    n = rng.integers(2, 13)
    off = sp.random(n, n, density=0.4, random_state=rng, format="csr")
    level = (-(off + off.T) + sp.diags(np.full(n, 2.0 * n))).tocsr()
    box = rng.integers(0, 3, size=(n, 2))
    check_prolongation(*solver._aggregate(level, box), level, box)
    level = sp.csr_matrix([[2.0, -1.0], [-1.0, 2.0]])
    box = np.array([[0, 0], [1, 0]])
    assert check_prolongation(*solver._aggregate(level, box), level, box)[1]
    level, box = sp.csr_matrix([[2.0, 1.0], [1.0, 2.0]]), np.zeros((2, 2), int)
    p, wider = solver._aggregate(level, box)
    assert p.nnz == 0
    check_prolongation(p, wider, level, box)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_every_coarse_level_is_the_galerkin_product(k, jittered_mesh,
                                                    monkeypatch):
    # Each level under a level L is P^T L P for the transfer P^T that the
    # cycle applies, here formed densely. With `_COARSEST` at 8, two
    # aggregation levels go under S (k = 1) or A_0 (k = 2, 3).
    from conservaflux import solver
    monkeypatch.setattr(solver, "_COARSEST", 8)
    seen = []
    real = solver._pcg

    def pcg(levels, maps, li, b):
        seen.append((levels, maps))
        return real(levels, maps, li, b)

    monkeypatch.setattr(solver, "_pcg", pcg)
    solve_problem(jittered_mesh(16, seed=5), k, load_example(2))
    (levels, maps), = seen
    assert len(maps) == len(levels) - 1 == (3 if k > 1 else 2)
    for fine, pt, coarse in zip(levels, maps, levels[1:]):
        pt = pt.toarray()
        ref = pt @ fine.toarray() @ pt.T
        assert coarse.shape == ref.shape
        assert np.abs(coarse.toarray() - ref).max() <= \
            1e-14 * np.abs(ref).max()


@pytest.mark.parametrize("jittered", [False, True])
def test_condensed_s_holds_only_its_entries(jittered, jittered_mesh,
                                            condensed):
    # S is written into arrays sized for the entries of A between free
    # coupled dofs, grown in place for fill-in (structured meshes), and
    # keeps no unused tail.
    mesh = jittered_mesh(8, seed=4) if jittered else build_structured_mesh(8)
    solve_problem(mesh, 3, load_example(2))
    (s,) = condensed
    assert held_entries(s) == [s.nnz, s.nnz]


def test_condensation_fill_in_beyond_the_couplings_to_bubbles(
        jittered_mesh, condensed):
    # S is written into arrays sized for the entries of A between free
    # coupled dofs. With the coupled block of A cut to its diagonal, the
    # fill-in of A_ci D^-1 A_ic outnumbers even all entries of the free
    # rows, and the arrays have to grow by more than they were sized for.
    import scipy.sparse as sp
    from dataclasses import replace
    mesh = jittered_mesh(6, seed=9)
    prob = load_example(2)
    dm = build_dof_map(mesh, 3)
    system = apply_dirichlet(*assemble(mesh, dm, prob), dm, prob)
    a = system.matrix.tocoo()
    nc = dm.n_dofs - int(np.sum(dm.kind == DOF_INTERIOR))
    # Twice the row's absolute sum on a free diagonal: S stays positive.
    diag = np.where(system.dirichlet_mask, 1.0, 2 * np.bincount(
        a.row, np.abs(a.data), minlength=dm.n_dofs))
    coupled = (a.row < nc) & (a.col < nc)
    data = np.where(coupled, 0.0, a.data)
    on_diag = coupled & (a.row == a.col)
    data[on_diag] = diag[a.row[on_diag]]
    cut = sp.csr_matrix((data, (a.row, a.col)), shape=a.shape)
    cut.eliminate_zeros()
    cut_system = replace(system, matrix=cut)
    free_rows = np.diff(cut.indptr)[:nc][~system.dirichlet_mask[:nc]]
    assert condensation_fill_in(cut_system) > free_rows.sum()
    ref = plain_solve(cut_system)
    u = solve(cut_system)
    assert np.abs(u.values - ref).max() <= 1e-12 * np.abs(ref).max()
    (s,) = condensed
    assert held_entries(s) == [s.nnz, s.nnz]


def test_no_free_dof_takes_the_direct_path(monkeypatch):
    # One element row of the unit square: every vertex is on the boundary,
    # so there is one empty level, not aggregated, and no iteration.
    from conservaflux import solver
    monkeypatch.setattr(solver, "_COARSEST", 0)
    u = solve_problem(build_structured_mesh(1), 1, linear_problem())
    assert np.array_equal(u.values, u.dofmap.coords.sum(axis=1))
    assert u.solve_levels == (0,) and u.solve_iterations == 0


def test_singular_pure_neumann_fails_with_residual():
    import warnings
    system = pure_neumann_system(64)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(SolverError, match="relative residual"):
            solve(system)
