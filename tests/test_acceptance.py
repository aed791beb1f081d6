"""Acceptance suite: end-to-end conservation, convergence, and geometry gates.

Run with `pytest tests/test_acceptance.py -v -s` to see one summary line per
criterion. Each criterion pins its tolerance here; nothing is calibrated at
run time.
"""

import dataclasses

import numpy as np
import pytest

from conservaflux import (build_cv_index, build_partitions,
                          build_structured_mesh, compute_lce,
                          convergence_study, elemental_conservation_report,
                          f_l1_norm, h1_seminorm_error, load_example,
                          postprocess_all, read_mesh_file, solve_problem,
                          true_solution_residual, write_mesh_file)
from conservaflux import solver
from conservaflux.basis import map_points
from conservaflux.cli import default_ladder, rate_window
from conservaflux.postprocess import _elemental_blocks
from conservaflux.problems import ProblemSpec
from conservaflux.verify import convergence_table

EXAMPLES = (1, 2, 3)
DEGREES = (1, 2, 3)
DEFAULT_N = 8


def report(criterion, text, ok):
    print(f"[criterion {criterion}] {text} -> {'PASS' if ok else 'FAIL'}")
    return ok


@pytest.fixture(scope="module")
def solved():
    """Solve + recover every example/degree pair on the default mesh."""
    out = {}
    for ex in EXAMPLES:
        prob = load_example(ex)
        for k in DEGREES:
            mesh = build_structured_mesh(DEFAULT_N)
            u = solve_problem(mesh, k, prob)
            parts = build_partitions(mesh, k)
            tilde = postprocess_all(mesh, u.dofmap, parts, u, prob)
            cv = build_cv_index(mesh, u.dofmap, parts)
            out[ex, k] = (prob, mesh, u, parts, tilde, cv)
    return out


@pytest.fixture(scope="module")
def ladders():
    out = {}
    for ex in EXAMPLES:
        prob = load_example(ex)
        for k in DEGREES:
            out[ex, k] = convergence_study(prob, k, default_ladder(ex, k))
    return out


def test_criterion_1_conservation_after_recovery(solved):
    worst = -1.0
    worst_case = None
    ok = True
    for (ex, k), (prob, mesh, u, parts, tilde, cv) in solved.items():
        rep = compute_lce(mesh, cv, parts, tilde, prob)
        tol = 1e-10 * max(1.0, f_l1_norm(mesh, k, prob))
        ratio = rep.max_abs / tol
        if ratio > worst:
            worst, worst_case = ratio, (ex, k, rep.max_abs, tol)
        ok &= rep.max_abs <= tol
    ex, k, val, tol = worst_case
    assert report(1, f"max |LCE(recovered)| over all 9 cases: worst "
                     f"example {ex} k={k}: {val:.2e} vs tol {tol:.2e}", ok)


def test_criterion_2_nonconservation_before_recovery(solved):
    prob, mesh, u, parts, tilde, cv = solved[1, 2]
    rep = compute_lce(mesh, cv, parts, u, prob)
    ok = rep.max_abs >= 1e-6
    assert report(2, f"max |LCE(u_h)| example 1 k=2 n=8: {rep.max_abs:.2e} "
                     ">= 1e-06", ok)


def test_criterion_3_elemental_conservation(solved):
    worst = -1.0
    ok = True
    for (ex, k), (prob, mesh, u, parts, tilde, cv) in solved.items():
        rep = elemental_conservation_report(mesh, parts, tilde, prob)
        worst = max(worst, rep.max_relative)
        ok &= rep.max_relative <= 1e-10
    assert report(3, f"elemental conservation residual / scale, worst of 9 "
                     f"cases: {worst:.2e} <= 1e-10", ok)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("k", DEGREES)
@pytest.mark.parametrize("ex", EXAMPLES)
def test_criteria_1_to_3_on_jittered_meshes(ex, k, seed, jittered_mesh,
                                            tmp_path):
    # The mesh reaches the solver through the mesh file format.
    built = jittered_mesh(12, seed)
    write_mesh_file(built, tmp_path / "mesh.txt")
    mesh = read_mesh_file(tmp_path / "mesh.txt")
    assert np.array_equal(mesh.vertices.view(np.int64),
                          built.vertices.view(np.int64))
    assert np.array_equal(mesh.triangles, built.triangles)
    assert mesh.boundary_labels == built.boundary_labels

    prob = load_example(ex)
    u = solve_problem(mesh, k, prob)
    parts = build_partitions(mesh, k)
    tilde = postprocess_all(mesh, u.dofmap, parts, u, prob)
    cv = build_cv_index(mesh, u.dofmap, parts)
    tol = 1e-10 * max(1.0, f_l1_norm(mesh, k, prob))
    lce_tilde = compute_lce(mesh, cv, parts, tilde, prob).max_abs
    lce_uh = compute_lce(mesh, cv, parts, u, prob).max_abs
    cons = elemental_conservation_report(mesh, parts, tilde,
                                         prob).max_relative
    ok = lce_tilde <= tol < lce_uh and cons <= 1e-10
    assert report("1-3", f"jittered 12x12 seed {seed} example {ex} k={k}: "
                         f"LCE(tilde) {lce_tilde:.1e} <= {tol:.1e} < LCE(uh) "
                         f"{lce_uh:.1e}; elemental {cons:.1e} <= 1e-10", ok)


@pytest.mark.parametrize("k", DEGREES)
@pytest.mark.parametrize("contrast", [1.0, 1e3])
def test_criteria_1_to_3_with_kappa_jumps_across_facets(contrast, k):
    # kappa = contrast on the dark squares of a 4 x 4 checkerboard whose
    # lines are mesh edges: facet Gauss points lie on the jumps, and the two
    # sides may sample kappa on opposite sides of them. At k=1, LCE(u_h) is
    # already at rounding level (the P1 box-method identity).
    def kappa(x, y):
        dark = (np.floor(4 * x) + np.floor(4 * y)) % 2 == 1
        return np.where(dark, contrast, 1.0)

    zero = lambda x, y: np.zeros_like(x)  # noqa: E731
    prob = ProblemSpec(kappa=kappa, source=lambda x, y: np.ones_like(x),
                       dirichlet={p: zero for p in
                                  ("left", "right", "bottom", "top")})
    mesh = build_structured_mesh(16)
    u = solve_problem(mesh, k, prob)
    parts = build_partitions(mesh, k)
    tilde = postprocess_all(mesh, u.dofmap, parts, u, prob)
    cv = build_cv_index(mesh, u.dofmap, parts)
    tol = 1e-10 * max(1.0, f_l1_norm(mesh, k, prob))
    lce_tilde = compute_lce(mesh, cv, parts, tilde, prob).max_abs
    lce_uh = compute_lce(mesh, cv, parts, u, prob).max_abs
    cons = elemental_conservation_report(mesh, parts, tilde,
                                         prob).max_relative
    ok = lce_tilde <= tol and cons <= 1e-10 and (k == 1 or lce_uh > tol)
    assert report("1-3", f"kappa contrast {contrast:g} checkerboard k={k}: "
                         f"LCE(tilde) {lce_tilde:.1e} <= {tol:.1e}, LCE(uh) "
                         f"{lce_uh:.1e}; elemental {cons:.1e} <= 1e-10", ok)


def test_criterion_4_compatibility_and_rank(solved):
    worst_defect = -1.0
    worst_sv = np.inf
    ok = True
    for (ex, k), (prob, mesh, u, parts, tilde, cv) in solved.items():
        mats, beta, gauge, defect, scale, _ = _elemental_blocks(
            u.discretization, u.values, 0, mesh.n_triangles)
        rel = defect / (scale + 1e-30)
        worst_defect = max(worst_defect, rel.max())
        ok &= bool(np.all(rel <= 1e-10))
        sv = np.linalg.svd(mats, compute_uv=False)
        ratio = sv[:, -2] / sv[:, 0]
        worst_sv = min(worst_sv, ratio.min())
        ok &= bool(np.all(ratio > 1e-8))
    assert report(4, f"compatibility defect/scale worst {worst_defect:.2e} "
                     f"<= 1e-10; second-smallest singular value/|A| min "
                     f"{worst_sv:.2e} > 1e-08", ok)


def test_criterion_5_optimal_convergence(ladders):
    ok = True
    lines = []
    for (ex, k), table in ladders.items():
        w = rate_window(ex, k)
        good = (abs(table.slope_uh - k) <= w
                and abs(table.slope_tilde - k) <= w)
        ok &= good
        lines.append(f"ex{ex} k{k}: uh {table.slope_uh:.2f} "
                     f"tilde {table.slope_tilde:.2f} (+-{w})")
    assert report(5, "H1 slopes " + "; ".join(lines), ok)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_criterion_5_convergence_on_jittered_ladders(seed, jittered_mesh):
    # Every level of the default ladder is jittered independently by up to
    # 0.1 h per coordinate; the levels are not nested refinements.
    ok = True
    lines = []
    for ex in EXAMPLES:
        prob = load_example(ex)
        for k in DEGREES:
            def level(n):
                mesh = jittered_mesh(n, seed, amplitude=0.1)
                u = solve_problem(mesh, k, prob)
                parts = build_partitions(mesh, k)
                return (mesh, u, parts,
                        postprocess_all(mesh, u.dofmap, parts, u, prob))

            table = convergence_table(prob, k, default_ladder(ex, k), level)
            w = rate_window(ex, k)
            ok &= (abs(table.slope_uh - k) <= w
                   and abs(table.slope_tilde - k) <= w)
            lines.append(f"ex{ex} k{k}: uh {table.slope_uh:.2f} "
                         f"tilde {table.slope_tilde:.2f} (+-{w})")
    assert report(5, f"H1 slopes on jittered ladders, seed {seed}: "
                     + "; ".join(lines), ok)


def test_criterion_6_error_indicator_order(ladders):
    table = ladders[1, 1]
    ok = table.slope_diff >= 1.8
    assert report(6, f"|u_h - recovered|_H1 slope for example 1 k=1: "
                     f"{table.slope_diff:.2f} >= 1.8", ok)


def test_criterion_7_true_solution_residual():
    worst = -1.0
    ok = True
    for ex in (1, 2):
        prob = load_example(ex)
        mesh = build_structured_mesh(16)
        for k in DEGREES:
            r = np.abs(true_solution_residual(mesh, k, prob)).max()
            worst = max(worst, r)
            ok &= r <= 1e-8
    assert report(7, f"true-solution residual, worst of examples 1-2 "
                     f"(n=16, all degrees): {worst:.2e} <= 1e-08", ok)


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


def test_criterion_8_polynomial_exactness():
    rng = np.random.default_rng(8)
    worst_h1 = -1.0
    worst_grad = -1.0
    ok = True
    for k, (u, gu, f) in MANUFACTURED.items():
        prob = ProblemSpec(
            kappa=lambda x, y: np.ones_like(np.asarray(x, dtype=float)),
            source=f,
            dirichlet={p: u for p in ("left", "right", "bottom", "top")},
            exact=u, exact_grad=gu)
        mesh = build_structured_mesh(4)
        u_h = solve_problem(mesh, k, prob)
        err = h1_seminorm_error(mesh, u_h, gu)
        worst_h1 = max(worst_h1, err)
        ok &= err <= 1e-9
        parts = build_partitions(mesh, k)
        tilde = postprocess_all(mesh, u_h.dofmap, parts, u_h, prob)
        v0, jac, _, _ = mesh.element_maps()
        for t in range(mesh.n_triangles):
            pts = rng.random((4, 2))
            flip = pts.sum(axis=1) > 1
            pts[flip] = 1 - pts[flip]
            g = tilde.grad_on(t, pts)
            phys = map_points(v0[t:t + 1], jac[t:t + 1], pts)[0]
            gx, gy = gu(phys[:, 0], phys[:, 1])
            diff = np.abs(g - np.stack([gx, gy], axis=1)).max()
            worst_grad = max(worst_grad, diff)
            ok &= diff <= 1e-9
    assert report(8, f"polynomial exactness: |u - u_h|_H1 worst "
                     f"{worst_h1:.2e} <= 1e-09, recovered gradient worst "
                     f"{worst_grad:.2e} <= 1e-09", ok)


def test_criterion_9_geometry_suite(solved, monkeypatch):
    ok = True
    # subcell areas partition each element
    mesh = build_structured_mesh(5)
    areas = mesh.signed_areas()
    worst_sub = -1.0
    for k in DEGREES:
        parts = build_partitions(mesh, k)
        sub = parts.ref.areas[None, :] * parts.det_jac[:, None]
        rel = np.abs(sub.sum(axis=1) - areas) / areas
        worst_sub = max(worst_sub, rel.max())
    ok &= worst_sub <= 1e-13

    # control-volume areas partition the domain
    worst_cv = -1.0
    for (ex, k), (prob, m, u, parts, tilde, cv) in solved.items():
        worst_cv = max(worst_cv, abs(cv.areas.sum() - 1.0))
    ok &= worst_cv <= 1e-12

    # gauge invariance of the recovered gradient
    prob, m, u, parts, tilde, cv = solved[2, 2]
    # against an independent gauge: the min-norm solution of every system
    mats, beta = _elemental_blocks(u.discretization, u.values, 0,
                                   m.n_triangles)[:2]
    shifted = dataclasses.replace(tilde, coeffs=4.0 + np.einsum(
        "tij,tj->ti", np.linalg.pinv(mats), beta))
    rng = np.random.default_rng(9)
    worst_gauge = -1.0
    for t in range(0, m.n_triangles, 7):
        pts = rng.random((3, 2))
        flip = pts.sum(axis=1) > 1
        pts[flip] = 1 - pts[flip]
        d = np.abs(tilde.grad_on(t, pts) - shifted.grad_on(t, pts)).max()
        worst_gauge = max(worst_gauge, d)
    ok &= worst_gauge <= 1e-12

    # serial/parallel bit identity
    # 11 elements of 48 boundary-segment points at k=2: ragged chunks.
    monkeypatch.setattr(solver, "_BUDGET", 11 * 48)
    serial = postprocess_all(m, u.dofmap, parts, u, prob, threads=1)
    parallel = postprocess_all(m, u.dofmap, parts, u, prob, threads=4)
    identical = np.array_equal(serial.coeffs, parallel.coeffs)
    ok &= identical

    assert report(9, f"geometry: subcell partition rel {worst_sub:.1e} "
                     f"<= 1e-13, CV partition {worst_cv:.1e} <= 1e-12, "
                     f"gauge drift {worst_gauge:.1e} <= 1e-12, "
                     f"serial/parallel identical: {identical}", ok)
