import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest

from conservaflux import (build_cv_index, build_dof_map, build_partitions,
                          build_structured_mesh, compute_lce,
                          convergence_study, elemental_conservation_report,
                          f_l1_norm, h1_seminorm_diff, h1_seminorm_error,
                          load_example, postprocess_all, solve_problem,
                          subcell_quadrature, triangle_rule,
                          true_solution_residual,
                          write_convergence_csv, write_lce_csv)
from conservaflux import basis, solver, verify
from conservaflux.dualmesh import _rot
from conservaflux.problems import ProblemSpec
from conservaflux.solver import FemField


def pipeline(problem, k, n, solve_field=solve_problem, **kw):
    mesh = build_structured_mesh(n)
    u = solve_field(mesh, k, problem)
    parts = build_partitions(mesh, k)
    tilde = postprocess_all(mesh, u.dofmap, parts, u, problem, **kw)
    cv = build_cv_index(mesh, u.dofmap, parts)
    return mesh, u, parts, tilde, cv


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


def test_lce_zero_for_exact_linear_flux():
    prob = linear_problem()
    mesh, u, parts, tilde, cv = pipeline(prob, 1, 4)
    for field in (u, tilde):
        rep = compute_lce(mesh, cv, parts, field, prob)
        assert rep.max_abs < 1e-13


def test_lce_contrast_before_and_after_recovery():
    prob = load_example(1)
    mesh, u, parts, tilde, cv = pipeline(prob, 2, 8)
    scale = max(1.0, f_l1_norm(mesh, 2, prob))
    rep_t = compute_lce(mesh, cv, parts, tilde, prob)
    rep_u = compute_lce(mesh, cv, parts, u, prob)
    assert rep_t.max_abs <= 1e-10 * scale
    assert rep_u.max_abs >= 1e-6


@pytest.mark.parametrize("k", [1, 2, 3])
def test_lce_of_recovery_is_the_galerkin_residual(k):
    # Summing a dof's elemental equations gives its control-volume balance:
    # LCE(tilde) at every interior dof is (A u - b) there, for any u, so the
    # recovered flux is exactly as conservative as the solve is accurate.
    prob = load_example(2)
    mesh = build_structured_mesh(16)
    u = solve_problem(mesh, k, prob)
    dm = u.dofmap
    interior = ~dm.on_boundary
    noise = np.random.default_rng(7).uniform(-1e-6, 1e-6, int(interior.sum()))
    u = dataclasses.replace(u, values=u.values.copy())
    u.values[interior] += noise
    parts = build_partitions(mesh, k)
    tilde = postprocess_all(mesh, dm, parts, u, prob)
    report = compute_lce(mesh, build_cv_index(mesh, dm, parts), parts, tilde,
                         prob)
    a, b = solver.assemble(mesh, dm, prob)
    residual = (a @ u.values - b)[report.dof_ids]
    assert np.abs(residual).max() > 1e-8
    assert np.abs(report.values - residual).max() <= 1e-13


def test_lce_report_ordering_and_classes():
    prob = load_example(1)
    mesh, u, parts, tilde, cv = pipeline(prob, 3, 2)
    rep = compute_lce(mesh, cv, parts, tilde, prob)
    dm = u.dofmap
    assert np.all(np.diff(rep.dof_ids) > 0)
    assert np.array_equal(rep.kinds, dm.kind[rep.dof_ids])
    # vertices come before edge dofs, which come before interior dofs
    assert np.all(np.diff(rep.kinds) >= 0)
    assert not np.any(dm.on_boundary[rep.dof_ids])


def test_lce_gauge_invariance():
    prob = load_example(2)
    mesh, u, parts, tilde, cv = pipeline(prob, 2, 4)
    shifts = 3.0 * np.random.default_rng(3).random((mesh.n_triangles, 1))
    shifted = dataclasses.replace(tilde, coeffs=tilde.coeffs + shifts)
    a = compute_lce(mesh, cv, parts, tilde, prob)
    b = compute_lce(mesh, cv, parts, shifted, prob)
    assert np.abs(a.values - b.values).max() < 1e-12


def test_h1_error_zero_for_interpolated_polynomial():
    # a field whose coefficients interpolate a degree-k polynomial has zero
    # gradient error regardless of kappa
    prob = load_example(2)
    mesh = build_structured_mesh(3)
    for k, poly, grad in (
            (1, lambda x, y: 2 * x - y, lambda x, y: (2 * np.ones_like(x),
                                                      -np.ones_like(x))),
            (2, lambda x, y: x * y + y ** 2,
             lambda x, y: (y, x + 2 * y))):
        dm = build_dof_map(mesh, k)
        from conservaflux.solver import FemField
        field = FemField(mesh, dm, poly(dm.coords[:, 0], dm.coords[:, 1]))
        assert h1_seminorm_error(mesh, field, grad) < 1e-12


def test_h1_diff_ignores_elementwise_constants():
    prob = load_example(1)
    mesh, u, parts, tilde, cv = pipeline(prob, 2, 4)
    shifts = 7.0 * np.random.default_rng(7).random((mesh.n_triangles, 1))
    shifted = dataclasses.replace(tilde, coeffs=tilde.coeffs + shifts)
    assert h1_seminorm_diff(mesh, tilde, shifted) < 1e-11


def einsum_h1(mesh, coeffs, degree, exact_grad=None):
    """The einsum formulation of the H1 kernels, kept as their reference."""
    from conservaflux import basis, solver, triangle_rule
    rule = triangle_rule(solver.default_exactness(degree))
    _, grads = basis.eval_basis(degree, rule.points)
    v0, jac, inv, det = mesh.element_maps()
    g_ref = np.einsum("tn,qnd->tqd", coeffs, grads)
    g_phys = np.einsum("tqd,tda->tqa", g_ref, inv)
    if exact_grad is not None:
        phys = basis.map_points(v0, jac, rule.points)
        gx, gy = exact_grad(phys[..., 0], phys[..., 1])
        g_phys = np.stack([gx - g_phys[..., 0], gy - g_phys[..., 1]], -1)
    return float(np.sqrt(np.einsum("q,t,tqa->", rule.weights, det,
                                   g_phys * g_phys)))


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("jittered", [False, True])
def test_h1_kernels_match_einsum_reference(k, jittered, jittered_mesh):
    from conservaflux.postprocess import local_coefficients
    prob = load_example(2)
    mesh = jittered_mesh(6, seed=k) if jittered else build_structured_mesh(6)
    u = solve_problem(mesh, k, prob)
    parts = build_partitions(mesh, k)
    tilde = postprocess_all(mesh, u.dofmap, parts, u, prob)
    # Matmul and einsum sum in different orders; the errors are ~1e-3 to
    # 1e-6, so rounding moves them by far less than 1e-9 relative.
    for fld in (u, tilde):
        ref = einsum_h1(mesh, local_coefficients(fld), k, prob.exact_grad)
        assert h1_seminorm_error(mesh, fld, prob.exact_grad) == \
            pytest.approx(ref, rel=1e-9)
    diff = local_coefficients(u) - local_coefficients(tilde)
    assert h1_seminorm_diff(mesh, u, tilde) == \
        pytest.approx(einsum_h1(mesh, diff, k), rel=1e-9)


def test_h1_error_first_order_for_k1():
    prob = load_example(1)
    errs = []
    for n in (8, 16, 32):
        mesh = build_structured_mesh(n)
        u = solve_problem(mesh, 1, prob)
        errs.append(h1_seminorm_error(mesh, u, prob.exact_grad))
    rates = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(np.abs(rates - 1.0) < 0.1)


def test_elemental_conservation_examples():
    for ex, k in ((1, 1), (2, 2), (3, 3)):
        prob = load_example(ex)
        mesh, u, parts, tilde, cv = pipeline(prob, k, 4)
        rep = elemental_conservation_report(mesh, parts, tilde, prob)
        assert rep.max_relative <= 1e-10


def test_elemental_conservation_zero_for_sourceless_linear():
    prob = linear_problem()
    mesh, u, parts, tilde, cv = pipeline(prob, 1, 3)
    rep = elemental_conservation_report(mesh, parts, tilde, prob)
    assert rep.max_residual < 1e-13


def test_elemental_conservation_requires_recovered_field():
    prob = load_example(1)
    mesh, u, parts, tilde, cv = pipeline(prob, 1, 2)
    with pytest.raises(TypeError):
        elemental_conservation_report(mesh, parts, u, prob)


def test_conservation_with_manufactured_variable_kappa():
    # symbolic oracle: f derived from -div(kappa grad u) by differentiation
    sympy = pytest.importorskip("sympy")
    x, y = sympy.symbols("x y")
    u_sym = sympy.sin(sympy.pi * x) * sympy.sin(sympy.pi * y) + x ** 2
    kap_sym = 1 + sympy.Rational(3, 10) * sympy.sin(x + 2 * y) \
        + sympy.Rational(1, 5) * x * y
    f_sym = -(sympy.diff(kap_sym * sympy.diff(u_sym, x), x)
              + sympy.diff(kap_sym * sympy.diff(u_sym, y), y))
    u_fn = sympy.lambdify((x, y), u_sym, "numpy")
    k_fn = sympy.lambdify((x, y), kap_sym, "numpy")
    f_fn = sympy.lambdify((x, y), f_sym, "numpy")
    gx_fn = sympy.lambdify((x, y), sympy.diff(u_sym, x), "numpy")
    gy_fn = sympy.lambdify((x, y), sympy.diff(u_sym, y), "numpy")
    prob = ProblemSpec(kappa=k_fn, source=f_fn,
                       dirichlet={p: u_fn for p in ("left", "right",
                                                    "bottom", "top")},
                       exact=u_fn,
                       exact_grad=lambda a, b: (gx_fn(a, b), gy_fn(a, b)))
    mesh, u, parts, tilde, cv = pipeline(prob, 2, 6)
    rep = elemental_conservation_report(mesh, parts, tilde, prob)
    assert rep.max_relative <= 1e-9
    lce = compute_lce(mesh, cv, parts, tilde, prob)
    assert lce.max_abs <= 1e-10 * max(1.0, f_l1_norm(mesh, 2, prob))


def test_global_balance_from_elemental_identities():
    # summing the elemental balances telescopes to the global one
    prob = load_example(2)
    mesh, u, parts, tilde, cv = pipeline(prob, 2, 6)
    f_sub = u.discretization.f_sub
    boundary_outflow = tilde.boundary_flux.sum()
    assert abs(boundary_outflow - f_sub.sum()) <= 1e-9 * max(1.0, abs(f_sub.sum()))


def split_solve(mesh, k, problem):
    dm = build_dof_map(mesh, k)
    return solver.solve(solver.apply_dirichlet(
        *solver.assemble(mesh, dm, problem), dm, problem))


def assert_source_evaluated_once_per_composite_point(solve_field):
    # Solve, recovery and every check share the dof map's blocks, so f is
    # sampled at each composite subcell point of each element exactly once.
    base = load_example(2)
    points = []

    def source(x, y):
        points.append(np.size(x))
        return base.source(x, y)

    prob = dataclasses.replace(base, source=source)
    mesh, u, parts, tilde, cv = pipeline(prob, 2, 6, solve_field)
    compute_lce(mesh, cv, parts, u, prob)
    compute_lce(mesh, cv, parts, tilde, prob)
    elemental_conservation_report(mesh, parts, tilde, prob)
    pts, _, _ = subcell_quadrature(2, 6)
    assert sum(points) == mesh.n_triangles * len(pts)


def test_source_evaluated_once_per_composite_point():
    assert_source_evaluated_once_per_composite_point(solve_problem)


def test_source_evaluated_once_per_composite_point_split_solve():
    assert_source_evaluated_once_per_composite_point(split_solve)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_f_l1_norm_matches_the_composite_source_pass(k):
    # The element rule and the level's composite subcell rule integrate |f|
    # to the same value up to quadrature error; example 2's is e - 1.
    mesh = build_structured_mesh(12)
    for ex in (1, 2, 3):
        prob = load_example(ex)
        got = f_l1_norm(mesh, k, prob)
        ref = solve_problem(mesh, k, prob).discretization.f_abs.sum()
        assert abs(got - ref) <= 1e-12 * ref, ex
        if ex == 2:
            assert abs(got - (math.e - 1.0)) <= 1e-12 * (math.e - 1.0)


@pytest.mark.parametrize("degree", [0, 5, 7, -3, 2.5])
def test_f_l1_norm_rejects_an_unsupported_degree(degree):
    # Checked before the rule is chosen: 0, 5 and 7 were accepted, and -3
    # and 2.5 failed on the exactness 2k + 2 instead of the degree.
    with pytest.raises(ValueError, match=re.escape(
            f"unsupported degree {degree!r}; supported: 1, 2, 3")):
        f_l1_norm(build_structured_mesh(2), degree, load_example(2))


def test_h1_seminorm_error_requires_the_exact_gradient():
    # Without one it measured |u_h|_H1, not an error.
    mesh = build_structured_mesh(4)
    u = solve_problem(mesh, 1, load_example(2))
    with pytest.raises(ValueError, match="requires the exact gradient"):
        h1_seminorm_error(mesh, u, None)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_f_l1_norm_samples_the_element_rule_once(k):
    base = load_example(2)
    points = []

    def source(x, y):
        points.append(np.size(x))
        return base.source(x, y)

    mesh = build_structured_mesh(6)
    f_l1_norm(mesh, k, dataclasses.replace(base, source=source))
    assert sum(points) == mesh.n_triangles * len(
        triangle_rule(2 * k + 2).weights)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_chunked_h1_and_f_l1_match_one_chunk(k, jittered_mesh, monkeypatch):
    # A budget of 7 elements of the H1 pass (14 of f_l1_norm's) cuts the 72
    # elements into ragged chunks; their sums match one whole-mesh chunk.
    mesh = jittered_mesh(6, seed=5)
    prob = load_example(2)
    u = solve_problem(mesh, k, prob)
    tilde = postprocess_all(mesh, u.dofmap, build_partitions(mesh, k), u,
                            prob)

    def values():
        return np.array([h1_seminorm_error(mesh, u, prob.exact_grad),
                         h1_seminorm_error(mesh, tilde, prob.exact_grad),
                         h1_seminorm_diff(mesh, u, tilde),
                         f_l1_norm(mesh, k, prob)])

    whole = values()
    q = len(triangle_rule(solver.default_exactness(k)).weights)
    monkeypatch.setattr(solver, "_BUDGET", 7 * 2 * q)
    assert np.all(np.abs(values() - whole) <= 1e-14 * whole)


@pytest.mark.parametrize("k", [1, 3])
def test_per_element_passes_have_bounded_transient_memory(k, monkeypatch):
    # With a budget of 4,096 points per chunk, no pass holds more than ten
    # doubles per budget point at a time beyond what it returns, on the
    # 32 x 32 mesh and on the 64 x 64 one alike: no temporary grows with
    # the mesh.
    monkeypatch.setattr(solver, "_BUDGET", 4096)
    prob = load_example(2)
    transient = {}

    def measure(name, fn):
        tracemalloc.start()
        try:
            out = fn()
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        transient[name] = peak - current
        return out

    for n in (32, 64):
        mesh = build_structured_mesh(n)
        mesh.element_maps()
        dm = build_dof_map(mesh, k)
        parts = build_partitions(mesh, k)
        u = FemField(mesh, dm, prob.exact(*dm.coords.T))
        measure("Discretization", lambda: solver.blocks(mesh, dm, prob))
        tilde = measure("postprocess_all", lambda: postprocess_all(
            mesh, dm, parts, u, prob, threads=1))
        measure("h1_seminorm_error",
                lambda: h1_seminorm_error(mesh, tilde, prob.exact_grad))
        measure("f_l1_norm", lambda: f_l1_norm(mesh, k, prob))
        assert max(transient.values()) <= 10 * 8 * 4096, (n, transient)


def test_true_solution_residual_quadrature_limited():
    for ex in (1, 2):
        prob = load_example(ex)
        mesh = build_structured_mesh(8)
        for k in (1, 2, 3):
            r = true_solution_residual(mesh, k, prob)
            assert np.abs(r).max() <= 1e-8


def einsum_true_solution_residual(mesh, k, prob):
    """`true_solution_residual` with its boundary rows in einsum form,
    through the owner table own_bd (N, B) and the basis values phi_bd
    (B, ns, N) at the boundary Gauss points; also those rows."""
    disc = solver.blocks(mesh, build_dof_map(mesh, k), prob)
    rseg = disc.rseg
    v0, jac, inv, det = mesh.element_maps()

    def grad_at(phys):
        return np.stack(np.broadcast_arrays(
            *prob.exact_grad(phys[..., 0], phys[..., 1])), axis=-1)

    def flux(pts, d):
        phys = v0[:, None, None] + np.einsum("tab,sib->tsia", jac, pts)
        rotd = _rot(np.einsum("tab,sb->tsa", jac, d))
        return solver.sample(prob.kappa, phys) * np.einsum(
            "tsia,tsa->tsi", grad_at(phys), rotd)

    q_seg = np.einsum("tsi,i->ts", flux(rseg.cv_pts, rseg.cv_dir), rseg.sw)
    b_rows = np.einsum("xs,ts->tx", rseg.sgn_cv, q_seg)
    rule = triangle_rule(disc.exactness)
    _, grads = basis.eval_basis(k, rule.points)
    phys = basis.map_points(v0, jac, rule.points)
    c = rule.weights * det[:, None] * solver.sample(prob.kappa, phys)
    g_phi = np.einsum("tba,qib->tqia", inv, grads)
    a_rows = np.einsum("tq,tqa,tqia->ti", c, grad_at(phys), g_phi)
    q_bd = flux(rseg.bd_pts, rseg.bd_dir)
    nb, ns = rseg.bd_pts.shape[:2]
    own_bd = np.eye(disc.n)[disc.ref.bd_owner].T
    phi_bd = basis.eval_basis(k, rseg.bd_pts.reshape(-1, 2))[0].reshape(
        nb, ns, -1)
    q_bseg = np.einsum("tsi,i->ts", q_bd, rseg.sw)
    e_rows = (np.einsum("xs,ts->tx", own_bd, q_bseg)
              - np.einsum("tsi,i,six->tx", q_bd, rseg.sw, phi_bd))
    return b_rows - (disc.f_sub - disc.b_loc + a_rows + e_rows), e_rows


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("ex", [1, 2, 3])
def test_true_solution_residual_matches_einsum_boundary_rows(ex, k):
    # The boundary rows come from one table, w (owner - phi); the einsum
    # form sums the same terms in another order. Measured: at most 2.1e-14
    # of the largest boundary row, as with the einsum form in the library.
    mesh = build_structured_mesh(8)
    prob = load_example(ex)
    expected, e_rows = einsum_true_solution_residual(mesh, k, prob)
    got = true_solution_residual(mesh, k, prob)
    assert np.abs(got - expected).max() <= 1e-13 * np.abs(e_rows).max()


def test_convergence_study_needs_three_levels():
    with pytest.raises(ValueError):
        convergence_study(load_example(1), 1, [4, 8])


@pytest.mark.parametrize("levels", [[8, 8, 8], [4, 8, 8, 4]])
def test_convergence_table_needs_three_distinct_levels(levels):
    # Fewer than three distinct levels make the rate fit rank-deficient;
    # the table is refused before any level is solved.
    def level(n):
        raise AssertionError("no level should be solved")

    msg = re.escape(f"at least 3 distinct mesh levels, got {levels}")
    with pytest.raises(ValueError, match=msg):
        verify.convergence_table(load_example(1), 1, levels, level)


def test_convergence_study_exact_flag():
    prob = linear_problem()
    table = convergence_study(prob, 1, [2, 4, 8])
    assert table.exact
    assert np.isnan(table.slope_uh)


def test_convergence_study_rates_k1():
    prob = load_example(1)
    table = convergence_study(prob, 1, [8, 16, 32])
    assert abs(table.slope_uh - 1.0) < 0.15
    assert abs(table.slope_tilde - 1.0) < 0.15
    assert table.slope_diff > 1.8


def test_csv_writers_deterministic(tmp_path):
    prob = load_example(1)
    mesh, u, parts, tilde, cv = pipeline(prob, 2, 4)
    rep = compute_lce(mesh, cv, parts, tilde, prob)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_lce_csv(rep, p1)
    write_lce_csv(rep, p2)
    assert p1.read_bytes() == p2.read_bytes()
    lines = p1.read_text().splitlines()
    assert lines[0] == "dof_index,class,x,y,lce"
    assert len(lines) == 1 + len(rep.dof_ids)

    table = convergence_study(prob, 1, [2, 4, 8])
    c1, c2 = tmp_path / "c.csv", tmp_path / "d.csv"
    write_convergence_csv(table, c1)
    write_convergence_csv(table, c2)
    assert c1.read_bytes() == c2.read_bytes()
    assert c1.read_text().splitlines()[0] == "n,h,err_uh,err_tilde,err_diff"
