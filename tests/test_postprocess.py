import dataclasses
import re
import sys

import numpy as np
import pytest

from conservaflux import (N_NODES, build_cv_index, build_partitions,
                          build_structured_mesh, compute_lce, eval_basis,
                          export_postprocessed_csv, flux_along_polyline,
                          load_example, postprocess_all, solve_problem,
                          subcell_quadrature)
from conservaflux.basis import map_points
from conservaflux import solver
from conservaflux.dualmesh import (CLASS_CONTROL_VOLUME, CLASS_ELEMENT_BOUNDARY,
                                   _rot)
from conservaflux.mesh import TriMesh
from conservaflux.postprocess import (PostprocessError, _averaged_traces,
                                      _boundary_flux_terms, _elemental_blocks,
                                      _facet_copies, _solve_chunk)
from conservaflux.problems import ProblemSpec
from conservaflux.quadrature import segment_rule, triangle_rule
from conservaflux.solver import SolverError, default_segment_points, sample


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



def elemental_blocks(u, t0, t1):
    """Matrices, right-hand sides, gauge targets, defects and scales of the
    auxiliary systems of elements t0..t1-1, from the solution's blocks."""
    return _elemental_blocks(u.discretization, u.values, t0, t1)[:5]


def min_norm_coeffs(u):
    """The min-norm solution pinv(D) @ beta of every elemental system: a
    gauge chosen independently of the recovery's."""
    mats, beta = elemental_blocks(u, 0, u.mesh.n_triangles)[:2]
    return np.einsum("tij,tj->ti", np.linalg.pinv(mats), beta)


def bd_segments(mesh, k, t):
    """Start and end points and owner of the element-boundary subcell
    segments of element t (or of the elements t selects), in the column
    order of the recovery's per-segment data."""
    start, end, owner, cls = build_partitions(mesh, k)._segments(t)
    bd = cls == CLASS_ELEMENT_BOUNDARY
    return start[..., bd, :], end[..., bd, :], owner[bd]


def scaled_normals(start, end):
    """Outward normals of counterclockwise segments, times their lengths."""
    d = end - start
    return np.stack([d[..., 1], -d[..., 0]], axis=-1)


# -- facet flux averaging -----------------------------------------------------

def test_average_flux_of_linear_field_has_no_jump():
    mesh = build_structured_mesh(4)
    prob = linear_problem()
    u = solve_problem(mesh, 1, prob)
    # every element-boundary segment, against the continuous gradient (1, 1)
    start, end, _ = bd_segments(mesh, 1, slice(None))
    disc = u.discretization
    q_seg = _averaged_traces(disc, u.values, 0, mesh.n_triangles) \
        @ disc.rseg.sw
    assert np.abs(q_seg - scaled_normals(start, end).sum(axis=-1)).max() \
        < 1e-12


def facet_oracle(mesh, prob, u, t, elems, s):
    """Mean over `elems` of the one-sided integrals of kappa grad(u).n dl on
    element-boundary segment s of element t, each trace evaluated at
    physical points mapped into that element; also the traces themselves."""
    start, end, _ = bd_segments(mesh, u.degree, t)
    srule = segment_rule(default_segment_points(u.degree))
    pts = start[s] + srule.points[:, None] * (end[s] - start[s])
    n_len = scaled_normals(start[s], end[s])
    kap = prob.kappa(pts[:, 0], pts[:, 1])
    v0, _, inv, _ = mesh.element_maps()
    sides = [kap * (u.grad_on(e, (pts - v0[e]) @ inv[e].T) @ n_len)
             for e in elems]
    return srule.weights @ np.mean(sides, axis=0), sides


def test_average_flux_interior_jump_is_mean_of_traces():
    mesh = build_structured_mesh(2)
    prob = load_example(2)
    u = solve_problem(mesh, 2, prob)
    t = 1
    facet = 0
    nbr = int(mesh.tri_neighbors[t, facet])
    q_seg = _averaged_traces(u.discretization, u.values, t, t + 1) \
        @ u.discretization.rseg.sw
    for s in np.nonzero(u.discretization.ref.bd_facet == facet)[0]:
        expected, sides = facet_oracle(mesh, prob, u, t, (t, nbr), s)
        assert abs(q_seg[0, s] - expected) < 1e-13
        # and the two traces genuinely differ here
        assert np.abs(sides[0] - sides[1]).max() > 1e-6


def test_average_flux_boundary_is_one_sided():
    mesh = build_structured_mesh(2)
    prob = load_example(1)
    u = solve_problem(mesh, 2, prob)
    # element 0 facet 0 lies on the bottom boundary
    assert mesh.tri_neighbors[0, 0] < 0
    q_seg = _averaged_traces(u.discretization, u.values, 0, 1) \
        @ u.discretization.rseg.sw
    for s in np.nonzero(u.discretization.ref.bd_facet == 0)[0]:
        expected, _ = facet_oracle(mesh, prob, u, 0, (0,), s)
        assert abs(q_seg[0, s] - expected) < 1e-14


# -- elemental systems --------------------------------------------------------

@pytest.mark.parametrize("k", [1, 2, 3])
def test_elemental_matrix_nullspace_and_rank(k):
    mesh = build_structured_mesh(4)
    prob = load_example(2)
    u = solve_problem(mesh, k, prob)
    mats, _, _, defect, scale = elemental_blocks(u, 0, mesh.n_triangles)
    for t in (0, 9, 20):
        a = mats[t]
        norm = np.linalg.norm(a)
        assert np.abs(a @ np.ones(N_NODES[k])).max() < 1e-12 * norm
        sv = np.linalg.svd(a, compute_uv=False)
        assert sv[-1] < 1e-12 * sv[0]          # constants are exactly flat
        assert sv[-2] > 1e-8 * sv[0]           # and nothing else is
        assert defect[t] <= 1e-10 * (scale[t] + 1e-30)


def test_elemental_rhs_partition_sums():
    # sum of load rows is the element source integral; stiffness and facet
    # rows telescope to zero by partition of unity
    mesh = build_structured_mesh(4)
    prob = load_example(1)
    k = 2
    u = solve_problem(mesh, k, prob)
    disc = u.discretization
    assert np.abs(disc.b_loc.sum(axis=1)
                  - disc.f_sub.sum(axis=1)).max() < 1e-14
    u_loc = u.values[u.dofmap.cell_dofs]
    a_rows = np.einsum("tij,tj->ti", disc.k_loc, u_loc)
    assert np.abs(a_rows.sum(axis=1)).max() < 1e-13
    e_rows = _boundary_flux_terms(disc, u.values, 0, mesh.n_triangles)
    assert np.abs(e_rows.sum(axis=1)).max() < 1e-13


def test_k1_matrix_against_segment_oracle():
    # independent path: constant P1 gradients dotted with each dual segment's
    # scaled normal, accumulated per subcell row
    mesh = build_structured_mesh(2)
    prob = linear_problem()
    u = solve_problem(mesh, 1, prob)
    parts = build_partitions(mesh, 1)
    mats = elemental_blocks(u, 0, mesh.n_triangles)[0]
    v0, _, inv, _ = mesh.element_maps()
    _, grads = eval_basis(1, [[1 / 3, 1 / 3]])
    for t in (0, 3, 6):
        g_phys = grads[0] @ inv[t]                        # (3, 2) constant
        start, end, owner, cls = parts._segments(t)
        n_len = scaled_normals(start, end)
        expected = np.zeros((3, 3))
        for xi in range(3):
            for i in np.nonzero((owner == xi)
                                & (cls == CLASS_CONTROL_VOLUME))[0]:
                expected[xi] -= g_phys @ n_len[i]
        assert np.abs(mats[t] - expected).max() < 1e-13


@pytest.mark.parametrize("k", [1, 2, 3])
def test_dual_blocks_match_segment_oracle(k, jittered_mesh):
    # d_loc[t, xi, j] is the outward flux of -kappa grad(phi_j) through the
    # dual segments of subcell xi, here integrated at Gauss points mapped
    # from each owner's own copy of the segment.
    mesh = jittered_mesh(5, seed=7)
    prob = load_example(3)
    disc = solve_problem(mesh, k, prob).discretization
    start, end, owner, cls = build_partitions(mesh, k)._segments(slice(None))
    cv = cls == CLASS_CONTROL_VOLUME
    start, end, owner = start[:, cv], end[:, cv], owner[cv]   # (nt, M, 2)
    rule = segment_rule(default_segment_points(k))
    pts = (start[:, :, None]
           + rule.points[:, None] * (end - start)[:, :, None])  # (nt, M, ns, 2)
    v0, _, inv, _ = mesh.element_maps()
    ref = np.einsum("tab,tmib->tmia", inv, pts - v0[:, None, None])
    _, grads = eval_basis(k, ref.reshape(-1, 2))
    grads = np.einsum("tmind,tda->tmina",
                      grads.reshape(ref.shape[:3] + grads.shape[1:]), inv)
    flux = -np.einsum("i,tmi,tmina,tma->tmn", rule.weights,
                      sample(prob.kappa, pts), grads,
                      scaled_normals(start, end))
    oracle = np.zeros(disc.d_loc.shape)
    for m, xi in enumerate(owner):
        oracle[:, xi] += flux[:, m]
    assert np.abs(disc.d_loc - oracle).max() <= 1e-13 * np.abs(oracle).max()


def test_unit_right_triangle_dual_matrix_equals_stiffness():
    # for constant kappa and degree 1 the dual-flux matrix coincides with the
    # Galerkin stiffness matrix
    from conservaflux.mesh import TriMesh
    mesh = TriMesh([[0, 0], [1, 0], [0, 1]], [[0, 1, 2]])
    prob = ProblemSpec(kappa=lambda x, y: np.ones_like(x),
                       source=lambda x, y: np.zeros_like(x),
                       dirichlet={"other": lambda x, y: np.zeros_like(x)})
    u = solve_problem(mesh, 1, prob)
    mats = elemental_blocks(u, 0, 1)[0]
    expected = np.array([[1.0, -0.5, -0.5], [-0.5, 0.5, 0.0],
                         [-0.5, 0.0, 0.5]])
    assert np.abs(mats[0] - expected).max() < 1e-14


def test_zero_rhs_recovers_the_gauge_constant():
    mesh = build_structured_mesh(2)
    prob = ProblemSpec(kappa=lambda x, y: np.ones_like(x),
                       source=lambda x, y: np.zeros_like(x),
                       dirichlet={p: (lambda x, y: np.zeros_like(x))
                                  for p in ("left", "right", "bottom", "top")})
    u = solve_problem(mesh, 2, prob)
    assert np.abs(u.values).max() < 1e-14
    beta = elemental_blocks(u, 0, mesh.n_triangles)[1]
    assert np.abs(beta).max() < 1e-15
    tilde = postprocess_all(mesh, u.dofmap, build_partitions(mesh, 2), u,
                            prob)
    assert np.abs(tilde.coeffs).max() < 1e-12


@pytest.mark.parametrize("k", [1, 2, 3])
def test_gauge_independence_of_gradient(k):
    mesh = build_structured_mesh(4)
    prob = load_example(1)
    u = solve_problem(mesh, k, prob)
    parts = build_partitions(mesh, k)
    a0 = postprocess_all(mesh, u.dofmap, parts, u, prob).coeffs
    a1 = min_norm_coeffs(u) + 10.0
    rng = np.random.default_rng(2)
    pts = random_ref_points(rng, 10)
    _, grads = eval_basis(k, pts)
    d = np.einsum("pnd,tn->tpd", grads, a1 - a0)
    assert np.abs(d).max() < 1e-12


@pytest.mark.parametrize("k", [1, 2, 3])
def test_manufactured_polynomial_recovers_nodal_values(k):
    # with kappa = 1 and u in the trial space, the corrected coefficients
    # equal the solution coefficients up to the gauge constant
    mesh = build_structured_mesh(3)
    prob = manufactured_problem(k)
    u = solve_problem(mesh, k, prob)
    tilde = postprocess_all(mesh, u.dofmap, build_partitions(mesh, k), u,
                            prob)
    shift = tilde.coeffs - u.values[u.dofmap.cell_dofs]
    assert np.abs(shift - shift.mean(axis=1, keepdims=True)).max() < 1e-9


@pytest.mark.parametrize("k", [1, 2])
def test_dual_form_coercive_for_low_degrees(k):
    # v.T A v > 0 for nonconstant v on shape-regular elements
    mesh = build_structured_mesh(4)
    prob = load_example(2)
    u = solve_problem(mesh, k, prob)
    mats = elemental_blocks(u, 0, mesh.n_triangles)[0]
    rng = np.random.default_rng(31)
    for t in (0, 11, 25):
        for _ in range(100):
            v = rng.standard_normal(N_NODES[k])
            v -= v.mean()
            if np.abs(v).max() < 1e-12:
                continue
            assert v @ mats[t] @ v > 0.0


@pytest.mark.parametrize("k", [1, 2, 3])
def test_elemental_systems_are_n_by_n(k, monkeypatch):
    # The paper's elemental system has N = (k + 1)(k + 2) / 2 unknowns.
    mesh = build_structured_mesh(3)
    prob = load_example(2)
    u = solve_problem(mesh, k, prob)
    shapes, real = [], np.linalg.solve

    def spy(a, b):
        shapes.append(a.shape)
        return real(a, b)

    monkeypatch.setattr(np.linalg, "solve", spy)
    postprocess_all(mesh, u.dofmap, build_partitions(mesh, k), u, prob)
    n = (k + 1) * (k + 2) // 2
    assert shapes == [(mesh.n_triangles, n, n)]


def test_incompatible_elemental_system_is_reported():
    mesh = build_structured_mesh(2)
    prob = load_example(1)
    u = solve_problem(mesh, 1, prob)
    mats, beta, gauge, _, scale = elemental_blocks(u, 3, 4)
    beta[0, 0] += 1.0  # break compatibility
    with pytest.raises(PostprocessError, match="element 3"):
        _solve_chunk(mats, beta, gauge, np.abs(beta.sum(axis=1)), scale, 3)


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
    # The dof map owns the blocks: the split path's field holds the ones
    # `assemble` built, and the recovery reuses them.
    from conservaflux import apply_dirichlet, assemble, build_dof_map, solve
    mesh = build_structured_mesh(3)
    prob = load_example(2)
    dm = build_dof_map(mesh, 2)
    a, b = assemble(mesh, dm, prob)
    disc = dm.discretization
    assert disc is not None and disc.exactness == 6
    u = solve(apply_dirichlet(a, b, dm, prob))
    assert u.discretization is disc
    parts = build_partitions(mesh, 2)
    tilde = postprocess_all(mesh, dm, parts, u, prob)
    assert tilde.discretization is disc and u.discretization is disc
    assert solver.blocks(mesh, dm, prob) is disc
    # Another problem object builds new blocks in their place.
    other = postprocess_all(mesh, dm, parts, u, load_example(2))
    replaced = dm.discretization
    assert replaced is not disc and replaced.exactness == 6
    assert np.array_equal(other.coeffs, tilde.coeffs)
    # Only assemble sets the exactness; the readers keep the held one, also
    # when another problem object makes them build new blocks.
    assemble(mesh, dm, prob, exactness=8)
    assert dm.discretization not in (disc, replaced)
    assert dm.discretization.exactness == 8
    postprocess_all(mesh, dm, parts, u, load_example(2))
    assert dm.discretization.exactness == 8
    # A mesh that is not the dof map's is an error, not a silent mix.
    twin = build_structured_mesh(3)
    for call in (solver.blocks, assemble):
        with pytest.raises(ValueError, match="mesh"):
            call(twin, dm, prob)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_library_flow_shares_the_solve_exactness(k, monkeypatch):
    # The README library flow after a solve at exactness 5: the recovery and
    # the checks read the solve's blocks, so the recovered flux stays
    # conservative, and no call builds blocks at another exactness.
    from conservaflux import (build_cv_index, compute_lce,
                              elemental_conservation_report, f_l1_norm,
                              h1_seminorm_diff, h1_seminorm_error)
    built = []

    class Counted(solver.Discretization):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self.exactness)

    monkeypatch.setattr(solver, "Discretization", Counted)
    mesh = build_structured_mesh(8)
    prob = load_example(2)
    u = solve_problem(mesh, k, prob, exactness=5)
    dm = u.dofmap
    parts = build_partitions(mesh, k)
    tilde = postprocess_all(mesh, dm, parts, u, prob)
    assert dm.discretization.exactness == 5
    cv = build_cv_index(mesh, dm, parts)
    lce = compute_lce(mesh, cv, parts, tilde, prob)
    for call in (lambda: compute_lce(mesh, cv, parts, u, prob),
                 lambda: elemental_conservation_report(mesh, parts, tilde,
                                                       prob),
                 lambda: h1_seminorm_error(mesh, tilde, prob.exact_grad),
                 lambda: h1_seminorm_diff(mesh, u, tilde),
                 lambda: flux_along_polyline(mesh, tilde, prob,
                                             [[0.5, 0.0], [0.5, 1.0]])):
        assert dm.discretization.exactness == 5
        call()
    assert dm.discretization.exactness == 5
    assert built == [5]
    assert lce.max_abs <= 1e-10 * max(1.0, f_l1_norm(mesh, k, prob))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_recovery_is_invariant_to_a_constant_added_to_u_h(k):
    # The stiffness rows act on u_h minus its element mean, and the mean is
    # added back after the solve, so u_h + c recovers the same field plus c
    # to within a few roundings of c itself.
    from conservaflux.solver import FemField
    mesh = build_structured_mesh(16)
    prob = load_example(2)
    u = solve_problem(mesh, k, prob)
    parts = build_partitions(mesh, k)
    tilde = postprocess_all(mesh, u.dofmap, parts, u, prob)
    for c in (1e3, 1e6, 1e9):
        shifted = FemField(mesh, u.dofmap, u.values + c)
        got = postprocess_all(mesh, u.dofmap, parts, shifted, prob).coeffs
        err = np.abs((got - c) - tilde.coeffs).max()
        assert err <= 4 * np.finfo(float).eps * c, (c, err)


def test_chunk_budget_moves_only_rounding(jittered_mesh, monkeypatch):
    # Every per-element pass cuts the mesh into chunks of `_BUDGET` points:
    # the blocks of the 512 elements here are built 97 at a time at 2^16
    # and 6 at a time at 2^12. u_h and tilde agree to rounding.
    mesh = jittered_mesh(16, seed=6)
    prob = load_example(2)
    parts = build_partitions(mesh, 3)

    def run():
        u = solve_problem(mesh, 3, prob)
        tilde = postprocess_all(mesh, u.dofmap, parts, u, prob, threads=1)
        return u.values, tilde.coeffs

    assert solver._BUDGET == 2 ** 16
    whole = run()
    monkeypatch.setattr(solver, "_BUDGET", 2 ** 12)
    for got, ref in zip(run(), whole):
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def test_serial_parallel_bit_identity(monkeypatch):
    # 17 elements of 48 boundary-segment points at k=2: 72 elements make
    # five chunks, the last one partial.
    monkeypatch.setattr(solver, "_BUDGET", 17 * 48)
    mesh = build_structured_mesh(6)
    prob = load_example(2)
    u = solve_problem(mesh, 2, prob)
    parts = build_partitions(mesh, 2)
    serial = postprocess_all(mesh, u.dofmap, parts, u, prob, threads=1)
    parallel = postprocess_all(mesh, u.dofmap, parts, u, prob, threads=4)
    assert np.array_equal(serial.coeffs, parallel.coeffs)
    assert np.array_equal(serial.boundary_flux, parallel.boundary_flux)


def test_chunk_queue_gives_each_chunk_to_one_thread(monkeypatch):
    # More threads than cores and a short switch interval: every chunk of
    # the queue is taken exactly once, and the result is the serial one.
    # The 8 threads share one budget of 24 elements: chunks of 3.
    from conservaflux import postprocess
    mesh = build_structured_mesh(6)
    prob = load_example(2)
    u = solve_problem(mesh, 2, prob)
    parts = build_partitions(mesh, 2)
    monkeypatch.setattr(solver, "_BUDGET",
                        24 * u.discretization.rseg.bd_width)
    serial = postprocess_all(mesh, u.dofmap, parts, u, prob, threads=1)
    taken, real = [], postprocess._elemental_blocks

    def spy(disc, u_values, t0, t1):
        taken.append(t0)
        return real(disc, u_values, t0, t1)

    monkeypatch.setattr(postprocess, "_elemental_blocks", spy)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            taken.clear()
            got = postprocess_all(mesh, u.dofmap, parts, u, prob, threads=8)
            assert sorted(taken) == list(range(0, mesh.n_triangles, 3))
            for name in ("coeffs", "boundary_flux", "defects"):
                assert np.array_equal(getattr(got, name),
                                      getattr(serial, name)), name
    finally:
        sys.setswitchinterval(interval)


def counting_kappa(prob):
    """`prob` with a kappa that records the number of points of each call,
    and that record (list.append is safe on the recovery's threads)."""
    sizes = []

    def kappa(x, y):
        sizes.append(np.size(x))
        return prob.kappa(x, y)
    return dataclasses.replace(prob, kappa=kappa), sizes


@pytest.mark.parametrize("threads", [1, 8])
def test_first_recovery_builds_the_dual_blocks_once(threads, jittered_mesh):
    # The solve samples kappa at the element rule's points only. The first
    # recovery adds the dual-segment points once, before its threads start
    # (8 of them, more than the cores, under a short switch interval): its
    # kappa points exceed a second recovery's, which samples the same
    # element-boundary traces, by exactly those. compute_lce adds none.
    k = 2
    mesh = jittered_mesh(6, seed=3)
    prob, sizes = counting_kappa(load_example(2))
    u = solve_problem(mesh, k, prob)
    disc, nt = u.discretization, mesh.n_triangles
    assert "d_loc" not in vars(disc)
    assert sum(sizes) == nt * len(disc.rseg.q_pts)
    parts = build_partitions(mesh, k)
    counts = [sum(sizes)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(2):
            postprocess_all(mesh, u.dofmap, parts, u, prob, threads=threads)
            counts.append(sum(sizes))
    finally:
        sys.setswitchinterval(interval)
    first, second = np.diff(counts)
    assert first - second == nt * disc.rseg.cv_pts[..., 0].size
    compute_lce(mesh, build_cv_index(mesh, u.dofmap, parts), parts, u, prob)
    assert sum(sizes) == counts[-1]
    assert u.discretization is disc


@pytest.mark.parametrize("k", [1, 2, 3])
def test_compute_lce_first_builds_the_same_dual_blocks(k, jittered_mesh):
    # Two solves of one problem: on the first, compute_lce reads d_loc
    # before any recovery and so builds it; on the second, after one. Both
    # give the same blocks, LCE and recovered coefficients, bit for bit.
    mesh = jittered_mesh(6, seed=5)
    prob = load_example(2)
    parts = build_partitions(mesh, k)
    first, after = (solve_problem(mesh, k, prob) for _ in range(2))
    cv = build_cv_index(mesh, first.dofmap, parts)
    lce_first = compute_lce(mesh, cv, parts, first, prob)
    tilde_after = postprocess_all(mesh, after.dofmap, parts, after, prob)
    lce_after = compute_lce(mesh, cv, parts, after, prob)
    assert np.array_equal(first.discretization.d_loc,
                          after.discretization.d_loc)
    assert np.array_equal(lce_first.values, lce_after.values)
    tilde_first = postprocess_all(mesh, first.dofmap, parts, first, prob)
    assert np.array_equal(tilde_first.coeffs, tilde_after.coeffs)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_kappa_nonpositive_on_a_dual_segment_fails_in_the_recovery(
        k, jittered_mesh):
    # kappa is -1 at one dual-segment Gauss point of element 13 only: the
    # solve never samples it there, the recovery and compute_lce do, and
    # each raises the block build's SolverError naming that point.
    mesh = jittered_mesh(4, seed=2)
    base = load_example(2)
    rseg = solver._ref_segments(k, solver.default_exactness(k))
    v0, jac, _, _ = mesh.element_maps()
    px, py = map_points(v0[13:14], jac[13:14],
                        rseg.cv_pts.reshape(-1, 2))[0, 1]

    def kappa(x, y):
        at = np.hypot(x - px, y - py) < 1e-9
        return np.where(at, -1.0, base.kappa(x, y))

    prob = dataclasses.replace(base, kappa=kappa)
    u = solve_problem(mesh, k, prob)
    parts = build_partitions(mesh, k)
    msg = re.escape(f"kappa must be positive; got -1 at ({px:.6g}, {py:.6g})")
    cv = build_cv_index(mesh, u.dofmap, parts)
    with pytest.raises(SolverError, match=msg):
        compute_lce(mesh, cv, parts, u, prob)
    with pytest.raises(SolverError, match=msg):
        postprocess_all(mesh, u.dofmap, parts, u, prob, threads=2)
    assert "d_loc" not in vars(u.discretization)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_kappa_nonpositive_on_element_edges_fails_in_the_recovery(k, threads):
    # kappa is -1 on the grid line x = 0.5, where of all the points kappa is
    # sampled at only the recovery's element-boundary Gauss points fall:
    # the solve and the dual blocks pass, and the recovery raises the block
    # build's SolverError, naming a point on the line.
    base = load_example(2)
    prob = dataclasses.replace(
        base, kappa=lambda x, y: np.where(x == 0.5, -1.0, base.kappa(x, y)))
    mesh = build_structured_mesh(4)
    u = solve_problem(mesh, k, prob)
    parts = build_partitions(mesh, k)
    u.discretization.d_loc
    with pytest.raises(SolverError, match=r"^kappa must be positive; got -1 "
                                          r"at \(0\.5, 0\.\d+\)$"):
        postprocess_all(mesh, u.dofmap, parts, u, prob, threads=threads)


def test_incompatible_element_fails_alike_on_any_thread_count(monkeypatch):
    # Elements 20 and 50 of 72, in the second and third of five one-thread
    # chunks, are made incompatible. Every thread count reports element 20, as one
    # thread does, and returns: no helper waits on a chunk never taken.
    import threading
    mesh = build_structured_mesh(6)
    prob = load_example(2)
    u = solve_problem(mesh, 2, prob)
    parts = build_partitions(mesh, 2)
    monkeypatch.setattr(solver, "_BUDGET",
                        17 * u.discretization.rseg.bd_width)
    u.discretization.f_sub[[20, 50], 0] += 1.0
    messages, running = {}, threading.active_count()
    for threads in (1, 2, 4):
        def run():
            try:
                postprocess_all(mesh, u.dofmap, parts, u, prob, threads=threads)
            except PostprocessError as err:
                messages[threads] = str(err)
        worker = threading.Thread(target=run, daemon=True)
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive(), threads
        assert threading.active_count() == running, threads
    assert messages[1].startswith("element 20: compatibility defect")
    assert messages[2] == messages[1] and messages[4] == messages[1]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_chunk_borders_cutting_facets_match_one_chunk_run(k, jittered_mesh,
                                                          monkeypatch):
    # Neighbours outside a chunk get their traces computed apart from the
    # chunk's own; the result must not depend on where the borders fall.
    # The triangles are shuffled, so most facets cross a border.
    base = jittered_mesh(8, seed=7)
    order = np.random.default_rng(5).permutation(base.n_triangles)
    mesh = TriMesh(base.vertices, base.triangles[order])
    prob = load_example(2)
    u = solve_problem(mesh, k, prob)
    parts = build_partitions(mesh, k)
    width = u.discretization.rseg.bd_width
    assert mesh.n_triangles <= solver._BUDGET // width     # one chunk
    whole = postprocess_all(mesh, u.dofmap, parts, u, prob, threads=1)
    step = 5
    monkeypatch.setattr(solver, "_BUDGET", step * width)
    t = np.arange(mesh.n_triangles)[:, None]
    nbr = mesh.tri_neighbors
    for border in range(step, mesh.n_triangles, step):
        assert np.any((t < border) & (nbr >= border)), border
    for threads in (1, 2):
        got = postprocess_all(mesh, u.dofmap, parts, u, prob, threads=threads)
        for name in ("coeffs", "boundary_flux", "defects"):
            assert np.array_equal(getattr(got, name), getattr(whole, name)), (
                name, threads)


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


# -- recovered boundary flux --------------------------------------------------

def test_split_element_sum_balances_source():
    # summing the recovered boundary flux over all subcells reproduces the
    # element source integral
    mesh = build_structured_mesh(4)
    prob = load_example(2)
    k = 3
    u = solve_problem(mesh, k, prob)
    tilde = postprocess_all(mesh, u.dofmap, build_partitions(mesh, k), u,
                            prob)
    pts, w, _ = subcell_quadrature(k, 2 * k + 2)
    v0, jac, _, det = mesh.element_maps()
    for t in (3, 17):
        total = tilde.boundary_flux[t].sum()
        phys = map_points(v0[t:t + 1], jac[t:t + 1], pts)[0]
        f_int = (w * det[t] * prob.source(phys[:, 0], phys[:, 1])).sum()
        assert abs(total - f_int) < 1e-12 * max(1.0, abs(f_int))


def test_split_of_linear_field_is_exact_one_sided_flux():
    # boundary_flux[t, xi] is -grad(u).n dl summed over the element-boundary
    # segments of subcell xi; for u = x + y that is exact on every segment
    mesh = build_structured_mesh(2)
    prob = linear_problem()
    for k in (1, 2, 3):
        u = solve_problem(mesh, k, prob)
        tilde = postprocess_all(mesh, u.dofmap, build_partitions(mesh, k), u,
                                prob)
        start, end, owner = bd_segments(mesh, k, slice(None))
        exact = -scaled_normals(start, end).sum(axis=-1)      # (nt, B)
        expected = exact @ (owner[:, None] == np.arange(N_NODES[k]))
        assert np.abs(tilde.boundary_flux - expected).max() < 1e-13


def test_split_against_independent_recomputation():
    # separate quadrature path: plain element-level rules, explicit loops
    mesh = build_structured_mesh(4)
    prob = load_example(1)
    k = 2
    u = solve_problem(mesh, k, prob)
    t, xi = 13, 4
    tilde = postprocess_all(mesh, u.dofmap, build_partitions(mesh, k), u,
                            prob)
    starts, ends, owner = bd_segments(mesh, k, t)
    starts, ends = starts[owner == xi], ends[owner == xi]
    assert len(starts) == 2

    rule = triangle_rule(8)
    v0, jac, inv, det_all = mesh.element_maps()
    phys = map_points(v0[t:t + 1], jac[t:t + 1], rule.points)[0]
    det = det_all[t]
    vals_b, grads_b = eval_basis(k, rule.points)
    u_loc = u.values[u.dofmap.cell_dofs[t]]

    ell = (rule.weights * det * prob.source(phys[:, 0], phys[:, 1])
           * vals_b[:, xi]).sum()
    g_phi = np.einsum("qnd,da->qna", grads_b, inv[t])
    g_u = np.einsum("qna,n->qa", g_phi, u_loc)
    a_term = (rule.weights * det * prob.kappa(phys[:, 0], phys[:, 1])
              * np.einsum("qa,qa->q", g_u, g_phi[:, xi])).sum()

    srule = segment_rule(k + 4)
    verts = mesh.vertices[mesh.triangles[t]]

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

    # the subcell's datum is the sum over its two segments of half the
    # jump-corrected balance minus the segment's averaged-flux integral
    expected = 0.0
    for s, e in zip(starts, ends):
        qpts = s + srule.points[:, None] * (e - s)
        q_gamma = (srule.weights * avg_flux_dot_nlen(s, e, qpts)).sum()
        expected += (ell - a_term + e_phi) / 2.0 - q_gamma
    assert abs(tilde.boundary_flux[t, xi] - expected) < 1e-12


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


@pytest.mark.parametrize("k", [1, 2, 3])
def test_polyline_flux_along_edges_ignores_element_numbering(k):
    # The same fields on the mesh with its triangles in reverse order: the
    # line x = 1/2 runs along interior edges, whose two elements swap
    # numbers, and each piece takes the average of both sides either way.
    import dataclasses
    from conservaflux.mesh import TriMesh
    mesh = build_structured_mesh(16)
    rev = TriMesh(mesh.vertices, mesh.triangles[::-1])
    prob = load_example(2)
    u = solve_problem(mesh, k, prob)
    tilde = postprocess_all(mesh, u.dofmap, build_partitions(mesh, k), u,
                            prob)
    dm = solver.build_dof_map(rev, k)
    values = np.empty(dm.n_dofs)
    values[dm.cell_dofs] = u.values[u.dofmap.cell_dofs[::-1]]
    u_rev = solver.FemField(rev, dm, values)
    tilde_rev = dataclasses.replace(tilde, mesh=rev, dofmap=dm,
                                    coeffs=tilde.coeffs[::-1])
    line = [[0.5, 0.0], [0.5, 1.0]]
    for field, renumbered in ((u, u_rev), (tilde, tilde_rev)):
        assert np.array_equal(flux_along_polyline(mesh, field, prob, line),
                              flux_along_polyline(rev, renumbered, prob, line))


def all_edge_crossings(p, d, edges):
    """Sorted parameters in [0, 1] where p + t d crosses any of the edges
    from e0 to e1 (`edges[:2]`), every edge intersected."""
    e0, e1 = edges[:2]
    r = e1 - e0
    denom = d[0] * r[:, 1] - d[1] * r[:, 0]
    rel = e0 - p
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (rel[:, 0] * r[:, 1] - rel[:, 1] * r[:, 0]) / denom
        s = (rel[:, 0] * d[1] - rel[:, 1] * d[0]) / denom
    ok = (np.isfinite(t) & (t > 1e-12) & (t < 1 - 1e-12)
          & (s >= -1e-12) & (s <= 1 + 1e-12))
    return np.concatenate([[0.0], np.unique(t[ok]), [1.0]])


def per_piece_polyline_flux(mesh, field, prob, points):
    """Oracle of `flux_along_polyline`, one piece at a time: split each
    segment at every edge crossing, find the elements whose closed triangle
    holds the piece's midpoint (two on an edge) by testing all of them, and
    average -kappa grad(field).rot(d) over them with `grad_on`. Also returns
    each segment's integral of kappa |grad(field)| |d|, the scale of the
    flux's rounding."""
    v0, _, inv, _ = mesh.element_maps()
    edges = (mesh.vertices[mesh.edges[:, 0]], mesh.vertices[mesh.edges[:, 1]])
    srule = segment_rule(default_segment_points(field.degree))
    pts = np.asarray(points, dtype=float)
    out, scale = np.zeros(len(pts) - 1), np.zeros(len(pts) - 1)
    for i, (p, d) in enumerate(zip(pts, np.diff(pts, axis=0))):
        cuts = all_edge_crossings(p, d, edges)
        for a, b in zip(cuts[:-1], cuts[1:]):
            if b - a < 1e-14:
                continue
            r = np.einsum("tab,tb->ta", inv, p + (a + b) / 2 * d - v0)
            owners = np.flatnonzero((r.min(axis=1) >= -1e-10)
                                    & (r.sum(axis=1) <= 1 + 1e-10))
            assert 1 <= len(owners) <= 2
            gpts = p + (a + srule.points * (b - a))[:, None] * d
            kap = sample(prob.kappa, gpts)
            grads = [field.grad_on(e, (gpts - v0[e]) @ inv[e].T)
                     for e in owners]
            flux = np.mean([-kap * (g @ [d[1], -d[0]]) for g in grads], 0)
            out[i] += (b - a) * (srule.weights @ flux)
            scale[i] += (b - a) * (srule.weights @ (kap * np.linalg.norm(
                grads[0], axis=1))) * np.linalg.norm(d)
    return out, scale


@pytest.mark.parametrize("k", [1, 2, 3])
def test_polyline_matches_per_piece_oracle(k, jittered_mesh):
    # The probe evaluates all pieces in batches; the oracle one at a time.
    # The lines run around a circle, through vertices, along an edge, and
    # across the mesh.
    mesh = jittered_mesh(12, seed=4)
    prob = load_example(2)
    u = solve_problem(mesh, k, prob)
    tilde = postprocess_all(mesh, u.dofmap, build_partitions(mesh, k), u,
                            prob)
    th = np.linspace(0.0, 2.0 * np.pi, 31)
    circle = np.column_stack([0.5 + 0.3 * np.cos(th), 0.5 + 0.35 * np.sin(th)])
    a, b = mesh.vertices[mesh.edges[40]]
    lines = [circle, [[0.0, 0.0], [1.0, 1.0], [0.0, 1.0]], [a, b],
             [[0.0, 0.5], [1.0, 0.5]]]
    for field in (u, tilde):
        for line in lines:
            ref, scale = per_piece_polyline_flux(mesh, field, prob, line)
            got = flux_along_polyline(mesh, field, prob, line)
            assert np.all(np.abs(got - ref) <= 1e-13 * scale)


def test_polyline_splits_at_every_edge_it_crosses():
    # y = 0.4 crosses the n = 4 grid's verticals at 1/4, 1/2, 3/4 and its
    # diagonals at 0.15, 0.4, 0.65, 0.9; the top boundary is cut at its
    # vertices. Each crossing lies on its edge, not on the edge's extension.
    from conservaflux.postprocess import _edge_crossings
    edges = build_structured_mesh(4)._edge_boxes()
    got = _edge_crossings(np.array([0.0, 0.4]), np.array([1.0, 0.0]), edges)
    assert np.allclose(got, [0, 0.15, 0.25, 0.4, 0.5, 0.65, 0.75, 0.9, 1],
                       rtol=0, atol=1e-15)
    got = _edge_crossings(np.array([1.0, 1.0]), np.array([-1.0, 0.0]), edges)
    assert np.allclose(got, [0, 0.25, 0.5, 0.75, 1], rtol=0, atol=1e-15)


def test_polyline_repeated_point_has_zero_flux():
    mesh = build_structured_mesh(8)
    prob = load_example(2)
    u = solve_problem(mesh, 1, prob)
    out = flux_along_polyline(mesh, u, prob, [[0.5, 0.5], [0.5, 0.5],
                                              [0.7, 0.5]])
    assert out[0] == 0.0
    assert out[1] == flux_along_polyline(mesh, u, prob,
                                         [[0.5, 0.5], [0.7, 0.5]])[0]


def test_polyline_crossings_match_all_edges_oracle(jittered_mesh,
                                                   monkeypatch):
    # Intersecting only the edges whose boxes meet a segment's gives the
    # same floats as intersecting every edge; the polyline runs through
    # vertices, along an edge, and around a circle.
    from conservaflux import postprocess

    mesh = jittered_mesh(12, seed=5)
    prob = load_example(2)
    u = solve_problem(mesh, 2, prob)
    th = np.linspace(0.0, 2.0 * np.pi, 41)
    circle = np.column_stack([0.5 + 0.3 * np.cos(th), 0.5 + 0.35 * np.sin(th)])
    a, b = mesh.vertices[mesh.edges[0]]
    lines = [circle, [[0.0, 0.0], [1.0, 1.0], [0.0, 1.0]], [a, b],
             [[0.0, 0.5], [1.0, 0.5]]]
    fast = [flux_along_polyline(mesh, u, prob, line) for line in lines]
    monkeypatch.setattr(postprocess, "_edge_crossings", all_edge_crossings)
    for line, got in zip(lines, fast):
        assert np.array_equal(got, flux_along_polyline(mesh, u, prob, line))


def test_polyline_needs_two_points():
    mesh = build_structured_mesh(2)
    prob = linear_problem()
    u = solve_problem(mesh, 1, prob)
    with pytest.raises(ValueError):
        flux_along_polyline(mesh, u, prob, [[0.5, 0.5]])


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_polyline_rejects_a_non_finite_point(bad):
    # Named before any search, which would warn on the inf or nan first.
    mesh = build_structured_mesh(4)
    prob = linear_problem()
    u = solve_problem(mesh, 1, prob)
    line = [[0.2, 0.2], [0.5, 0.5], [bad, 0.5]]
    msg = r"point 2 is not finite: \[ *-?(inf|nan) "
    with pytest.raises(ValueError, match=msg):
        flux_along_polyline(mesh, u, prob, line)


def test_field_on_another_mesh_is_rejected(jittered_mesh):
    # A field of one mesh read against another: every reader names it
    # instead of mixing the two. A plain copy of the field's mesh is fine.
    from conservaflux import build_cv_index, build_dof_map, h1_seminorm_diff
    from conservaflux.verify import h1_seminorm_error
    prob = load_example(2)
    mesh = build_structured_mesh(8)
    u = solve_problem(mesh, 2, prob)
    line = [[0.1, 0.2], [0.9, 0.7]]
    for other in (build_structured_mesh(4), jittered_mesh(8, seed=1)):
        for call in (
                lambda: h1_seminorm_error(other, u, prob.exact_grad),
                lambda: h1_seminorm_diff(other, u, u),
                lambda: flux_along_polyline(other, u, prob, line)):
            with pytest.raises(ValueError, match="not on this mesh"):
                call()
        with pytest.raises(ValueError, match="dof map was built on"):
            build_cv_index(other, u.dofmap, build_partitions(other, 2))
    copy = TriMesh(mesh.vertices, mesh.triangles)
    assert h1_seminorm_error(copy, u, prob.exact_grad) == \
        h1_seminorm_error(mesh, u, prob.exact_grad)
    # A field of another degree does not fit the dof map.
    dm1 = build_dof_map(mesh, 1)
    with pytest.raises(ValueError, match="degree 2, not 1"):
        postprocess_all(mesh, dm1, build_partitions(mesh, 1), u, prob)
    with pytest.raises(ValueError, match="degree 1, not 2"):
        h1_seminorm_diff(mesh, u, solve_problem(mesh, 1, prob))


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
    for mesh in (jittered_mesh(6, seed=5), build_structured_mesh(6)):
        disc = solve_problem(mesh, k, load_example(2)).discretization
        nt, nb = mesh.n_triangles, len(disc.ref.bd_facet)
        # Slot j of a facet is slot 2k - 1 - j of facet f's copy.
        slot = np.arange(nb) % (2 * k)
        assert np.array_equal(disc.ref.bd_mate, 2 * k * np.arange(3)
                              + (2 * k - 1 - slot)[:, None])
        m, s = _facet_copies(disc, 0, nt)
        # The pairing as flat segment indices m * B + s, -1 unpaired.
        mate = np.where(m >= 0, m * nb + s, -1).ravel()
        paired = mate >= 0
        nbr = mesh.tri_neighbors[:, disc.ref.bd_facet]
        assert np.array_equal(m < 0, nbr < 0)             # boundary facets
        assert np.all(mate[~paired] == -1)
        assert np.array_equal(mate[mate[paired]], np.nonzero(paired)[0])
        assert np.array_equal(mate[paired] // nb, nbr.ravel()[paired])
        phys = map_points(disc.v0, disc.jac, disc.rseg.bd_pts)
        phys = phys.reshape(nt * nb, -1, 2)
        gap = np.abs(phys[paired] - phys[mate[paired]][:, ::-1]).max()
        assert gap <= 1e-12 * mesh.h


@pytest.mark.parametrize("k", [1, 2, 3])
def test_neighbour_trace_matches_mapped_point_reference(k, jittered_mesh):
    # Reference: the neighbour's gradient evaluated at this element's own
    # Gauss points, mapped into the neighbour's reference element.
    mesh = jittered_mesh(6, seed=6)
    u = solve_problem(mesh, k, load_example(2))
    disc = u.discretization
    rseg = disc.rseg
    v0, jac, inv, _ = mesh.element_maps()
    coeffs = u.values[u.dofmap.cell_dofs]
    phys = map_points(v0, jac, rseg.bd_pts)
    rotd = _rot(map_points(None, jac, rseg.bd_dir))

    def flux(t, pts, rot):
        _, grads = eval_basis(k, (pts - v0[t]) @ inv[t].T)
        return (np.einsum("pnd,n->pd", grads, coeffs[t]) @ inv[t]) @ rot

    kap = sample(load_example(2).kappa, phys)
    nt, nb = kap.shape[:2]
    q_avg = np.empty(kap.shape)
    for t in range(nt):
        for s in range(nb):
            own = flux(t, phys[t, s], rotd[t, s])
            m = mesh.tri_neighbors[t, disc.ref.bd_facet[s]]
            other = own if m < 0 else flux(m, phys[t, s], rotd[t, s])
            q_avg[t, s] = kap[t, s] * 0.5 * (own + other)
    q_ref = q_avg @ rseg.sw
    # Rows: the segment integrals into the owner's row, minus the traces
    # weighted by every basis function.
    vals, _ = eval_basis(k, rseg.bd_pts.reshape(-1, 2))
    phi = vals.reshape(*rseg.bd_pts.shape[:2], -1)
    own = np.eye(N_NODES[k])[disc.ref.bd_owner][:, None, :]
    e_ref = np.einsum("tsi,i,six->tx", q_avg, rseg.sw, own - phi)

    # The whole mesh at once and in chunks that cut through neighbour pairs.
    for bounds in ((0, nt), (0, 13, 40, nt)):
        chunks = list(zip(bounds[:-1], bounds[1:]))
        q_seg = np.concatenate([_averaged_traces(disc, u.values, a, b)
                                for a, b in chunks]) @ rseg.sw
        e_rows = np.concatenate([_boundary_flux_terms(disc, u.values, a, b)
                                 for a, b in chunks])
        assert np.abs(q_seg - q_ref).max() <= 1e-12 * np.abs(q_ref).max()
        assert np.abs(e_rows - e_ref).max() <= 1e-12 * np.abs(e_ref).max()
