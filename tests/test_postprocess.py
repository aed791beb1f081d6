import numpy as np
import pytest

from conservaflux import (N_NODES, assemble_elemental_system,
                          build_partitions, build_structured_mesh,
                          build_subcell_partition, edge_average_flux,
                          eval_basis, export_postprocessed_csv,
                          flux_along_polyline, interp_piecewise_constant,
                          load_example, map_to_element, postprocess_all,
                          segment_flux_split, solve_elemental,
                          solve_problem, subcell_quadrature)
from conservaflux.dualmesh import CLASS_CONTROL_VOLUME
from conservaflux.postprocess import PostprocessError
from conservaflux.problems import ProblemSpec
from conservaflux.quadrature import segment_rule, triangle_rule


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


MANUFACTURED = {
    1: (lambda x, y: 1 + 2 * x - 3 * y,
        lambda x, y: (2 * np.ones_like(x), -3 * np.ones_like(x)),
        lambda x, y: np.zeros_like(x)),
    2: (lambda x, y: x ** 2 - 2 * x * y + 3 * y ** 2 + x,
        lambda x, y: (2 * x - 2 * y + 1, -2 * x + 6 * y),
        lambda x, y: np.full_like(np.asarray(x, dtype=float), -8.0)),
    3: (lambda x, y: x ** 3 + 2 * y ** 3 - 3 * x ** 2 * y + x * y,
        lambda x, y: (3 * x ** 2 - 6 * x * y + y, 6 * y ** 2 - 3 * x ** 2 + x),
        lambda x, y: -(6 * x + 6 * y)),
}


def manufactured_problem(k):
    u, gu, f = MANUFACTURED[k]
    return ProblemSpec(
        kappa=lambda x, y: np.ones_like(np.asarray(x, dtype=float)),
        source=f,
        dirichlet={p: u for p in ("left", "right", "bottom", "top")},
        exact=u, exact_grad=gu)


def random_ref_points(rng, count):
    p = rng.random((count, 2))
    flip = p.sum(axis=1) > 1
    p[flip] = 1.0 - p[flip]
    return p


# -- piecewise-constant interpolation ---------------------------------------

def test_interp_fixes_constants():
    part = build_subcell_partition(build_structured_mesh(2), 1, 2)
    vals = interp_piecewise_constant(
        part, lambda x, y: 3.5 * np.ones_like(x))
    assert np.all(vals == 3.5)


def test_interp_of_basis_is_characteristic():
    part = build_subcell_partition(build_structured_mesh(2), 1, 3)
    e = np.zeros(10)
    e[4] = 1.0
    vals = interp_piecewise_constant(part, e)
    assert np.array_equal(vals, e)


def test_interp_l2_distance_first_order():
    # the nodal-value projection onto subcell constants is first order in L2
    def w(x, y):
        return np.sin(2.3 * x + 0.7) * np.cos(1.9 * y)

    k = 2
    pts, wq, owner = subcell_quadrature(k, 6)
    errs = []
    for n in (2, 4, 8, 16):
        mesh = build_structured_mesh(n)
        total = 0.0
        for t in range(mesh.n_triangles):
            part = build_subcell_partition(mesh, t, k)
            phys, _, det = map_to_element(mesh, t, pts)
            nodal = interp_piecewise_constant(part, w)
            diff = w(phys[:, 0], phys[:, 1]) - nodal[owner]
            total += (wq * det * diff ** 2).sum()
        errs.append(np.sqrt(total))
    rates = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(np.abs(rates - 1.0) < 0.25)


def test_interp_rejects_bad_length():
    part = build_subcell_partition(build_structured_mesh(2), 0, 1)
    with pytest.raises(ValueError):
        interp_piecewise_constant(part, np.ones(5))


# -- facet flux averaging -----------------------------------------------------

def test_average_flux_of_linear_field_has_no_jump():
    mesh = build_structured_mesh(4)
    prob = linear_problem()
    u = solve_problem(mesh, 1, prob)
    # interior facet of element 5: compare against the continuous gradient
    for t, facet in ((5, 0), (10, 1)):
        verts = mesh.triangle_vertices(t)
        a, b = verts[facet], verts[(facet + 1) % 3]
        d = b - a
        n = np.array([d[1], -d[0]]) / np.linalg.norm(d)
        pts, vals = edge_average_flux(mesh, prob, u, t, a, b)
        assert np.abs(vals - (n[0] + n[1])).max() < 1e-12


def test_average_flux_interior_jump_is_mean_of_traces():
    mesh = build_structured_mesh(2)
    prob = load_example(2)
    u = solve_problem(mesh, 2, prob)
    t = 1
    facet = 0
    nbr = int(mesh.tri_neighbors[t, facet])
    verts = mesh.triangle_vertices(t)
    a, b = verts[facet], verts[(facet + 1) % 3]
    d = b - a
    n = np.array([d[1], -d[0]]) / np.linalg.norm(d)
    pts, vals = edge_average_flux(mesh, prob, u, t, a, b)
    # oracle: evaluate the two one-sided gradients independently
    v0, _, inv, _ = mesh.element_maps()
    kap = prob.kappa(pts[:, 0], pts[:, 1])
    sides = []
    for elem in (t, nbr):
        ref = (pts - v0[elem]) @ inv[elem].T
        g = u.grad_on(elem, ref)
        sides.append(kap * (g @ n))
    expected = 0.5 * (sides[0] + sides[1])
    assert np.abs(vals - expected).max() < 1e-13
    # and the two traces genuinely differ here
    assert np.abs(sides[0] - sides[1]).max() > 1e-6


def test_average_flux_boundary_is_one_sided():
    mesh = build_structured_mesh(2)
    prob = load_example(1)
    u = solve_problem(mesh, 2, prob)
    # element 0 facet 0 lies on the bottom boundary
    verts = mesh.triangle_vertices(0)
    a, b = verts[0], verts[1]
    pts, vals = edge_average_flux(mesh, prob, u, 0, a, b)
    v0, _, inv, _ = mesh.element_maps()
    ref = (pts - v0[0]) @ inv[0].T
    g = u.grad_on(0, ref)
    n = np.array([0.0, -1.0])
    expected = prob.kappa(pts[:, 0], pts[:, 1]) * (g @ n)
    assert np.abs(vals - expected).max() < 1e-14


def test_average_flux_rejects_off_boundary_segment():
    mesh = build_structured_mesh(2)
    prob = load_example(1)
    u = solve_problem(mesh, 1, prob)
    with pytest.raises(ValueError):
        edge_average_flux(mesh, prob, u, 0, [0.1, 0.1], [0.3, 0.2])


# -- elemental systems --------------------------------------------------------

@pytest.mark.parametrize("k", [1, 2, 3])
def test_elemental_matrix_nullspace_and_rank(k):
    mesh = build_structured_mesh(4)
    prob = load_example(2)
    u = solve_problem(mesh, k, prob)
    parts = build_partitions(mesh, k)
    for t in (0, 9, 20):
        sys_t = assemble_elemental_system(mesh, parts[t], u, prob)
        a = sys_t.matrix
        norm = np.linalg.norm(a)
        assert np.abs(a @ np.ones(N_NODES[k])).max() < 1e-12 * norm
        sv = np.linalg.svd(a, compute_uv=False)
        assert sv[-1] < 1e-12 * sv[0]          # constants are exactly flat
        assert sv[-2] > 1e-8 * sv[0]           # and nothing else is
        assert sys_t.defect <= 1e-10 * (sys_t.scale + 1e-30)


def test_elemental_rhs_partition_sums():
    # sum of load rows is the element source integral; stiffness and facet
    # rows telescope to zero by partition of unity
    mesh = build_structured_mesh(4)
    prob = load_example(1)
    k = 2
    u = solve_problem(mesh, k, prob)
    from conservaflux.postprocess import _boundary_flux_terms
    disc = u.discretization
    assert np.abs(disc.b_loc.sum(axis=1)
                  - disc.f_sub.sum(axis=1)).max() < 1e-14
    u_loc = u.values[u.dofmap.cell_dofs]
    a_rows = np.einsum("tij,tj->ti", disc.k_loc, u_loc)
    assert np.abs(a_rows.sum(axis=1)).max() < 1e-13
    q_seg, e_phi = _boundary_flux_terms(disc, u.values, 0, mesh.n_triangles)
    e_char = np.einsum("xs,ts->tx", disc.segments.own_bd, q_seg)
    assert np.abs((e_char - e_phi).sum(axis=1)).max() < 1e-13


def test_k1_matrix_against_segment_oracle():
    # independent path: constant P1 gradients dotted with each dual segment's
    # scaled normal, accumulated per subcell row
    mesh = build_structured_mesh(2)
    prob = linear_problem()
    u = solve_problem(mesh, 1, prob)
    parts = build_partitions(mesh, 1)
    v0, _, inv, _ = mesh.element_maps()
    for t in (0, 3, 6):
        part = parts[t]
        sys_t = assemble_elemental_system(mesh, part, u, prob)
        _, grads = eval_basis(1, [[1 / 3, 1 / 3]])
        g_phys = grads[0] @ inv[t]                        # (3, 2) constant
        expected = np.zeros((3, 3))
        for xi in range(3):
            for i in part.segments_of(xi, CLASS_CONTROL_VOLUME):
                n_len = part.seg_normal[i] * part.seg_length[i]
                expected[xi] -= g_phys @ n_len
        assert np.abs(sys_t.matrix - expected).max() < 1e-13


def test_unit_right_triangle_dual_matrix_equals_stiffness():
    # for constant kappa and degree 1 the dual-flux matrix coincides with the
    # Galerkin stiffness matrix
    from conservaflux.mesh import TriMesh
    mesh = TriMesh([[0, 0], [1, 0], [0, 1]], [[0, 1, 2]])
    prob = ProblemSpec(kappa=lambda x, y: np.ones_like(x),
                       source=lambda x, y: np.zeros_like(x),
                       dirichlet={"other": lambda x, y: np.zeros_like(x)})
    u = solve_problem(mesh, 1, prob)
    parts = build_partitions(mesh, 1)
    sys_t = assemble_elemental_system(mesh, parts[0], u, prob)
    expected = np.array([[1.0, -0.5, -0.5], [-0.5, 0.5, 0.0],
                         [-0.5, 0.0, 0.5]])
    assert np.abs(sys_t.matrix - expected).max() < 1e-14


def test_solve_elemental_zero_rhs_gives_gauge_constant():
    mesh = build_structured_mesh(2)
    prob = ProblemSpec(kappa=lambda x, y: np.ones_like(x),
                       source=lambda x, y: np.zeros_like(x),
                       dirichlet={p: (lambda x, y: np.zeros_like(x))
                                  for p in ("left", "right", "bottom", "top")})
    u = solve_problem(mesh, 2, prob)
    assert np.abs(u.values).max() < 1e-14
    parts = build_partitions(mesh, 2)
    sys_t = assemble_elemental_system(mesh, parts[0], u, prob)
    assert np.abs(sys_t.rhs).max() < 1e-15
    alpha = solve_elemental(sys_t, gauge_shift=2.5)
    assert np.abs(alpha - 2.5).max() < 1e-12


@pytest.mark.parametrize("k", [1, 2, 3])
def test_gauge_independence_of_gradient(k):
    mesh = build_structured_mesh(4)
    prob = load_example(1)
    u = solve_problem(mesh, k, prob)
    parts = build_partitions(mesh, k)
    sys_t = assemble_elemental_system(mesh, parts[7], u, prob)
    a0 = solve_elemental(sys_t)
    a1 = solve_elemental(sys_t, gauge_shift=10.0)
    rng = np.random.default_rng(2)
    pts = random_ref_points(rng, 10)
    _, grads = eval_basis(k, pts)
    d = np.einsum("pnd,n->pd", grads, a1 - a0)
    assert np.abs(d).max() < 1e-12


@pytest.mark.parametrize("k", [1, 2, 3])
def test_manufactured_polynomial_recovers_nodal_values(k):
    # with kappa = 1 and u in the trial space, the corrected coefficients
    # equal the solution coefficients up to the gauge constant
    mesh = build_structured_mesh(3)
    prob = manufactured_problem(k)
    u = solve_problem(mesh, k, prob)
    parts = build_partitions(mesh, k)
    for t in (0, 5, 11):
        sys_t = assemble_elemental_system(mesh, parts[t], u, prob)
        alpha = solve_elemental(sys_t)
        u_loc = u.values[u.dofmap.cell_dofs[t]]
        shift = alpha - u_loc
        assert np.abs(shift - shift.mean()).max() < 1e-9


@pytest.mark.parametrize("k", [1, 2])
def test_dual_form_coercive_for_low_degrees(k):
    # v.T A v > 0 for nonconstant v on shape-regular elements
    mesh = build_structured_mesh(4)
    prob = load_example(2)
    u = solve_problem(mesh, k, prob)
    parts = build_partitions(mesh, k)
    rng = np.random.default_rng(31)
    for t in (0, 11, 25):
        sys_t = assemble_elemental_system(mesh, parts[t], u, prob)
        for _ in range(100):
            v = rng.standard_normal(N_NODES[k])
            v -= v.mean()
            if np.abs(v).max() < 1e-12:
                continue
            assert v @ sys_t.matrix @ v > 0.0


def test_solve_elemental_reports_incompatible_system():
    mesh = build_structured_mesh(2)
    prob = load_example(1)
    u = solve_problem(mesh, 1, prob)
    parts = build_partitions(mesh, 1)
    sys_t = assemble_elemental_system(mesh, parts[0], u, prob)
    sys_t.rhs[0] += 1.0  # break compatibility
    sys_t.defect = abs(sys_t.rhs.sum())
    with pytest.raises(PostprocessError):
        solve_elemental(sys_t)


# -- whole-field recovery -----------------------------------------------------

@pytest.mark.parametrize("k", [1, 2, 3])
def test_linear_solution_recovers_unit_gradient(k):
    mesh = build_structured_mesh(3)
    prob = linear_problem()
    u = solve_problem(mesh, k, prob)
    parts = build_partitions(mesh, k)
    tilde = postprocess_all(mesh, u.dofmap, parts, u, prob)
    rng = np.random.default_rng(4)
    pts = random_ref_points(rng, 6)
    for t in range(mesh.n_triangles):
        g = tilde.grad_on(t, pts)
        assert np.abs(g - 1.0).max() < 1e-10


def test_recovery_attaches_and_reuses_discretization():
    from conservaflux import apply_dirichlet, assemble, build_dof_map, solve
    mesh = build_structured_mesh(3)
    prob = load_example(2)
    dm = build_dof_map(mesh, 2)
    u = solve(apply_dirichlet(*assemble(mesh, dm, prob), dm, prob))
    assert u.discretization is None            # split API: nothing to reuse
    parts = build_partitions(mesh, 2)
    tilde = postprocess_all(mesh, dm, parts, u, prob)
    disc = tilde.discretization
    assert u.discretization is disc            # attached for later checks
    again = postprocess_all(mesh, dm, parts, u, prob)
    assert again.discretization is disc
    # Another problem or exactness gets its own blocks and keeps the field's.
    other = postprocess_all(mesh, dm, parts, u, load_example(2))
    finer = postprocess_all(mesh, dm, parts, u, prob, exactness=8)
    assert other.discretization is not disc
    assert finer.discretization not in (disc, other.discretization)
    assert u.discretization is disc
    assert np.array_equal(other.coeffs, tilde.coeffs)


def test_serial_parallel_bit_identity():
    mesh = build_structured_mesh(6)
    prob = load_example(2)
    u = solve_problem(mesh, 2, prob)
    parts = build_partitions(mesh, 2)
    serial = postprocess_all(mesh, u.dofmap, parts, u, prob, threads=1,
                             chunk_size=17)
    parallel = postprocess_all(mesh, u.dofmap, parts, u, prob, threads=4,
                               chunk_size=17)
    assert np.array_equal(serial.coeffs, parallel.coeffs)
    assert np.array_equal(serial.boundary_flux, parallel.boundary_flux)


def test_threads_env_variable(monkeypatch):
    from conservaflux.postprocess import _thread_count
    monkeypatch.setenv("CONSERVAFLUX_THREADS", "3")
    assert _thread_count(None) == 3
    monkeypatch.delenv("CONSERVAFLUX_THREADS")
    assert _thread_count(None) == 1
    assert _thread_count(8) == 8


@pytest.mark.parametrize("value", ["abc", "0", "-3"])
def test_threads_env_variable_rejects_bad_values(monkeypatch, value):
    from conservaflux.postprocess import _thread_count
    monkeypatch.setenv("CONSERVAFLUX_THREADS", value)
    with pytest.raises(ValueError, match=f"CONSERVAFLUX_THREADS.*{value}"):
        _thread_count(None)


def test_threads_empty_env_defaults_to_one(monkeypatch):
    from conservaflux.postprocess import _thread_count
    monkeypatch.setenv("CONSERVAFLUX_THREADS", "  ")
    assert _thread_count(None) == 1
    monkeypatch.delenv("CONSERVAFLUX_THREADS")
    assert _thread_count(None) == 1


@pytest.mark.parametrize("value", [0, -2])
def test_threads_argument_rejects_non_positive(monkeypatch, value):
    from conservaflux.postprocess import _thread_count
    monkeypatch.delenv("CONSERVAFLUX_THREADS", raising=False)
    with pytest.raises(ValueError, match=f"threads.*{value}"):
        _thread_count(value)


# -- boundary flux split ------------------------------------------------------

def test_split_sums_to_boundary_datum():
    mesh = build_structured_mesh(4)
    prob = load_example(1)
    k = 2
    u = solve_problem(mesh, k, prob)
    parts = build_partitions(mesh, k)
    tilde = postprocess_all(mesh, u.dofmap, parts, u, prob)
    for t in (0, 13):
        for xi in range(N_NODES[k]):
            starts, ends, vals = segment_flux_split(mesh, u, prob, t, xi)
            assert len(vals) == 2
            assert abs(vals.sum() - tilde.boundary_flux[t, xi]) < 1e-13


def test_split_element_sum_balances_source():
    # summing the split fluxes over all subcells reproduces the element
    # source integral
    mesh = build_structured_mesh(4)
    prob = load_example(2)
    k = 3
    u = solve_problem(mesh, k, prob)
    pts, w, _ = subcell_quadrature(k, 2 * k + 2)
    for t in (3, 17):
        total = 0.0
        for xi in range(N_NODES[k]):
            if xi == 9:
                continue
            _, _, vals = segment_flux_split(mesh, u, prob, t, xi)
            total += vals.sum()
        phys, _, det = map_to_element(mesh, t, pts)
        f_int = (w * det * prob.source(phys[:, 0], phys[:, 1])).sum()
        assert abs(total - f_int) < 1e-12 * max(1.0, abs(f_int))


def test_split_of_linear_field_is_exact_one_sided_flux():
    mesh = build_structured_mesh(2)
    prob = linear_problem()
    u = solve_problem(mesh, 1, prob)
    for t in (0, 5):
        for xi in range(3):
            starts, ends, vals = segment_flux_split(mesh, u, prob, t, xi)
            for s, e, v in zip(starts, ends, vals):
                d = e - s
                n_len = np.array([d[1], -d[0]])
                exact = -(n_len[0] + n_len[1])  # -grad(u).n dl for u = x + y
                assert abs(v - exact) < 1e-13


def test_split_rejects_interior_node():
    mesh = build_structured_mesh(2)
    prob = load_example(1)
    u = solve_problem(mesh, 3, prob)
    with pytest.raises(ValueError):
        segment_flux_split(mesh, u, prob, 0, 9)


def test_split_against_independent_recomputation():
    # separate quadrature path: plain element-level rules, explicit loops
    mesh = build_structured_mesh(4)
    prob = load_example(1)
    k = 2
    u = solve_problem(mesh, k, prob)
    t, xi = 13, 4
    starts, ends, vals = segment_flux_split(mesh, u, prob, t, xi)

    rule = triangle_rule(8)
    phys, _, det = map_to_element(mesh, t, rule.points)
    vals_b, grads_b = eval_basis(k, rule.points)
    _, _, inv, _ = mesh.element_maps()
    u_loc = u.values[u.dofmap.cell_dofs[t]]

    ell = (rule.weights * det * prob.source(phys[:, 0], phys[:, 1])
           * vals_b[:, xi]).sum()
    g_phi = np.einsum("qnd,da->qna", grads_b, inv[t])
    g_u = np.einsum("qna,n->qa", g_phi, u_loc)
    a_term = (rule.weights * det * prob.kappa(phys[:, 0], phys[:, 1])
              * np.einsum("qa,qa->q", g_u, g_phi[:, xi])).sum()

    srule = segment_rule(k + 4)
    verts = mesh.triangle_vertices(t)
    v0 = mesh.element_maps()[0]

    def avg_flux_dot_nlen(a, b, qpts):
        d = b - a
        n_len = np.array([d[1], -d[0]])
        total = np.zeros(len(qpts))
        sides = []
        m = None
        for mm in range(3):
            va, vb = verts[mm], verts[(mm + 1) % 3]
            dd = vb - va
            c0 = dd[0] * (a - va)[1] - dd[1] * (a - va)[0]
            c1 = dd[0] * (b - va)[1] - dd[1] * (b - va)[0]
            if abs(c0) < 1e-12 and abs(c1) < 1e-12:
                pa = (a - va) @ dd / (dd @ dd)
                pb = (b - va) @ dd / (dd @ dd)
                if -1e-9 <= pa <= 1 + 1e-9 and -1e-9 <= pb <= 1 + 1e-9:
                    m = mm
                    break
        nbr = int(mesh.tri_neighbors[t, m])
        elems = [t] if nbr < 0 else [t, nbr]
        kap = prob.kappa(qpts[:, 0], qpts[:, 1])
        for elem in elems:
            ref = (qpts - v0[elem]) @ inv[elem].T
            g = u.grad_on(elem, ref)
            sides.append(kap * (g @ n_len))
        return sum(sides) / len(sides)

    e_phi = 0.0
    for m in range(3):
        a, b = verts[m], verts[(m + 1) % 3]
        qpts = a + srule.points[:, None] * (b - a)
        ref = (qpts - v0[t]) @ inv[t].T
        phi_vals, _ = eval_basis(k, ref)
        e_phi += (srule.weights * avg_flux_dot_nlen(a, b, qpts)
                  * phi_vals[:, xi]).sum()

    for s, e, v in zip(starts, ends, vals):
        qpts = s + srule.points[:, None] * (e - s)
        q_gamma = (srule.weights * avg_flux_dot_nlen(s, e, qpts)).sum()
        expected = (ell - a_term + e_phi) / 2.0 - q_gamma
        assert abs(v - expected) < 1e-12


# -- flux sampling ------------------------------------------------------------

def test_polyline_flux_constant_field():
    mesh = build_structured_mesh(4)
    prob = linear_problem()
    u = solve_problem(mesh, 2, prob)
    parts = build_partitions(mesh, 2)
    tilde = postprocess_all(mesh, u.dofmap, parts, u, prob)
    # flux of -(1,1) through the vertical line x = 1/2 (normal (1,0))
    out = flux_along_polyline(mesh, tilde, prob, [[0.5, 0.0], [0.5, 1.0]])
    assert abs(out[0] + 1.0) < 1e-12
    # diagonal segment: -(1,1).rot(d) with rot(d) = (dy, -dx)
    out = flux_along_polyline(mesh, tilde, prob, [[0.1, 0.1], [0.7, 0.5]])
    assert abs(out[0] - (-(0.4 - 0.6))) < 1e-12


def test_polyline_needs_two_points():
    mesh = build_structured_mesh(2)
    prob = linear_problem()
    u = solve_problem(mesh, 1, prob)
    with pytest.raises(ValueError):
        flux_along_polyline(mesh, u, prob, [[0.5, 0.5]])


def test_polyline_off_structured_mesh_raises():
    mesh = build_structured_mesh(4)
    prob = linear_problem()
    u = solve_problem(mesh, 1, prob)
    with pytest.raises(ValueError, match="leaves the mesh"):
        flux_along_polyline(mesh, u, prob, [[0.5, 0.5], [1.5, 0.5]])


def test_export_postprocessed_csv(tmp_path):
    mesh = build_structured_mesh(2)
    prob = load_example(1)
    u = solve_problem(mesh, 2, prob)
    parts = build_partitions(mesh, 2)
    tilde = postprocess_all(mesh, u.dofmap, parts, u, prob)
    path = tmp_path / "tilde.csv"
    export_postprocessed_csv(tilde, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "element,local_dof,x,y,alpha"
    assert len(lines) == 1 + mesh.n_triangles * 6


# -- facet pairing ---------------------------------------------------------

@pytest.mark.parametrize("k", [1, 2, 3])
def test_facet_mates_pair_reversed_gauss_points(k, jittered_mesh):
    mesh = jittered_mesh(6, seed=5)
    u = solve_problem(mesh, k, load_example(2))
    disc = u.discretization
    seg = disc.segments
    nt, nb = seg.mate.shape
    mate = seg.mate.ravel()
    paired = mate >= 0
    nbr = mesh.tri_neighbors[:, disc.ref.bd_facet]
    assert np.array_equal(seg.mate < 0, nbr < 0)          # boundary facets
    assert np.all(mate[~paired] == -1)
    assert np.array_equal(mate[mate[paired]], np.nonzero(paired)[0])
    assert np.array_equal(mate[paired] // nb, nbr.ravel()[paired])
    phys, _ = disc.segment_geometry(seg.bd_pts, seg.bd_dir)
    phys = phys.reshape(nt * nb, -1, 2)
    gap = np.abs(phys[paired] - phys[mate[paired]][:, ::-1]).max()
    assert gap <= 1e-12 * mesh.h


@pytest.mark.parametrize("k", [1, 2, 3])
def test_neighbour_trace_matches_mapped_point_reference(k, jittered_mesh):
    # Reference: the neighbour's gradient evaluated at this element's own
    # Gauss points, mapped into the neighbour's reference element.
    from conservaflux.postprocess import _boundary_flux_terms
    mesh = jittered_mesh(6, seed=6)
    u = solve_problem(mesh, k, load_example(2))
    disc = u.discretization
    seg = disc.segments
    v0, _, inv, _ = mesh.element_maps()
    coeffs = u.values[u.dofmap.cell_dofs]
    phys, rotd = disc.segment_geometry(seg.bd_pts, seg.bd_dir)

    def flux(t, pts, rot):
        _, grads = eval_basis(k, (pts - v0[t]) @ inv[t].T)
        return (np.einsum("pnd,n->pd", grads, coeffs[t]) @ inv[t]) @ rot

    nt, nb = seg.mate.shape
    q_avg = np.empty(seg.kap_bd.shape)
    for t in range(nt):
        for s in range(nb):
            own = flux(t, phys[t, s], rotd[t, s])
            m = mesh.tri_neighbors[t, disc.ref.bd_facet[s]]
            other = own if m < 0 else flux(m, phys[t, s], rotd[t, s])
            q_avg[t, s] = seg.kap_bd[t, s] * 0.5 * (own + other)
    q_ref = q_avg @ seg.sw
    e_ref = np.einsum("tsi,i,six->tx", q_avg, seg.sw, seg.phi_bd)

    # The whole mesh at once and in chunks that cut through neighbour pairs.
    for bounds in ((0, nt), (0, 13, 40, nt)):
        parts = [_boundary_flux_terms(disc, u.values, a, b)
                 for a, b in zip(bounds[:-1], bounds[1:])]
        q_seg = np.concatenate([p[0] for p in parts])
        e_phi = np.concatenate([p[1] for p in parts])
        assert np.abs(q_seg - q_ref).max() <= 1e-12 * np.abs(q_ref).max()
        assert np.abs(e_phi - e_ref).max() <= 1e-12 * np.abs(e_ref).max()
