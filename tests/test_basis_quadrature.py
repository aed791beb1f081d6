import functools
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import conservaflux
from conservaflux import (N_NODES, build_structured_mesh, eval_basis,
                          ref_nodes, segment_rule, subcell_quadrature,
                          triangle_rule)
from conservaflux.basis import map_points
from conservaflux.dualmesh import _ref_dual
from conservaflux.mesh import TriMesh


def random_ref_points(rng, count):
    """Uniform points in the closed reference triangle."""
    p = rng.random((count, 2))
    flip = p.sum(axis=1) > 1
    p[flip] = 1.0 - p[flip]
    return p


@pytest.mark.parametrize("k", [1, 2, 3])
def test_kronecker_property(k):
    vals, _ = eval_basis(k, ref_nodes(k))
    assert np.abs(vals - np.eye(N_NODES[k])).max() < 1e-13


def test_p1_vertex_values():
    vals, _ = eval_basis(1, [[0.0, 0.0]])
    assert np.allclose(vals[0], [1.0, 0.0, 0.0])


def test_p2_edge_midpoint_values():
    vals, _ = eval_basis(2, [[0.5, 0.0]])
    expected = np.zeros(6)
    expected[3] = 1.0
    assert np.abs(vals[0] - expected).max() < 1e-14


def test_p3_barycenter_is_interior_node():
    vals, grads = eval_basis(3, [[1 / 3, 1 / 3]])
    expected = np.zeros(10)
    expected[9] = 1.0
    assert np.abs(vals[0] - expected).max() < 1e-13
    assert np.abs(grads[0].sum(axis=0)).max() < 1e-13


@pytest.mark.parametrize("k", [1, 2, 3])
def test_against_symbolic_lagrange(k):
    # independent oracle: construct the degree-k Lagrange basis exactly with
    # rational arithmetic and compare values and gradients at random points
    sympy = pytest.importorskip("sympy")
    x, y = sympy.symbols("x y")
    monos = [x ** i * y ** j for i in range(k + 1) for j in range(k + 1 - i)]
    nodes = [(sympy.Rational(i, k), sympy.Rational(j, k))
             for (i, j) in __import__("conservaflux").basis.node_lattice(k)]
    vander = sympy.Matrix([[m.subs({x: nx, y: ny}) for m in monos]
                           for nx, ny in nodes])
    coeffs = vander.inv()
    rng = np.random.default_rng(7)
    pts = random_ref_points(rng, 12)
    vals, grads = eval_basis(k, pts)
    n = N_NODES[k]
    for i in range(n):
        phi = sum(coeffs[j, i] * monos[j] for j in range(n))
        fn = sympy.lambdify((x, y), phi, "numpy")
        gx = sympy.lambdify((x, y), sympy.diff(phi, x), "numpy")
        gy = sympy.lambdify((x, y), sympy.diff(phi, y), "numpy")
        shape = (len(pts),)
        assert np.abs(vals[:, i] - np.broadcast_to(
            fn(pts[:, 0], pts[:, 1]), shape)).max() < 1e-12
        assert np.abs(grads[:, i, 0] - np.broadcast_to(
            gx(pts[:, 0], pts[:, 1]), shape)).max() < 1e-11
        assert np.abs(grads[:, i, 1] - np.broadcast_to(
            gy(pts[:, 0], pts[:, 1]), shape)).max() < 1e-11


@pytest.mark.parametrize("k", [1, 2, 3])
def test_partition_of_unity_and_gradient_sum(k):
    rng = np.random.default_rng(k)
    pts = random_ref_points(rng, 200)
    vals, grads = eval_basis(k, pts)
    assert np.abs(vals.sum(axis=1) - 1.0).max() < 1e-13
    assert np.abs(grads.sum(axis=1)).max() < 1e-12


@pytest.mark.parametrize("k", [1, 2, 3])
def test_polynomial_reproduction(k):
    # interpolating any polynomial of degree <= k at the nodes reproduces it
    rng = np.random.default_rng(42 + k)
    exps = [(i, j) for i in range(k + 1) for j in range(k + 1 - i)]
    coef = rng.standard_normal(len(exps))

    def poly(p):
        return sum(c * p[:, 0] ** i * p[:, 1] ** j
                   for c, (i, j) in zip(coef, exps))

    nodal = poly(ref_nodes(k))
    pts = random_ref_points(rng, 50)
    vals, _ = eval_basis(k, pts)
    assert np.abs(vals @ nodal - poly(pts)).max() < 1e-12


def test_unsupported_degree():
    with pytest.raises(ValueError):
        eval_basis(4, [[0.1, 0.1]])


def test_triangle_rule_constant_and_monomial():
    rule = triangle_rule(4)
    assert abs(rule.weights.sum() - 0.5) < 1e-14
    got = (rule.weights * rule.points[:, 0] ** 2 * rule.points[:, 1]).sum()
    assert abs(got - 1.0 / 60.0) < 1e-15  # int x^2 y over the reference triangle


@pytest.mark.parametrize("d", [0, 1, 2, 3, 4, 5, 6, 7, 8, 10])
def test_triangle_rule_exactness_table(d):
    rule = triangle_rule(d)
    assert np.all(rule.weights > 0)
    for a in range(d + 1):
        for b in range(d + 1 - a):
            exact = math.factorial(a) * math.factorial(b) \
                / math.factorial(a + b + 2)
            got = (rule.weights * rule.points[:, 0] ** a
                   * rule.points[:, 1] ** b).sum()
            assert abs(got - exact) < 1e-13 * max(1.0, abs(exact))


def test_triangle_rule_rejects_bad_exactness():
    with pytest.raises(ValueError):
        triangle_rule(-1)
    with pytest.raises(ValueError):
        triangle_rule(1000)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_segment_rule_gauss_property(m):
    rule = segment_rule(m)
    assert abs(rule.weights.sum() - 1.0) < 1e-14
    assert np.all(rule.weights > 0)
    d = 2 * m - 1
    got = (rule.weights * rule.points ** d).sum()
    assert abs(got - 1.0 / (d + 1)) < 1e-14


def test_gauss_rules_match_scipy_special():
    # The Legendre and Golub-Welsch Jacobi(1, 0) factors against scipy's
    # roots, through the public segment and triangle rules, m = 1..31.
    special = pytest.importorskip("scipy.special")
    for m in range(1, 32):
        x, w = special.roots_legendre(m)
        seg = segment_rule(m)
        assert np.abs(seg.points - (x + 1.0) / 2.0).max() < 1e-13
        assert np.abs(seg.weights - w / 2.0).max() < 1e-13
        xv, wv = special.roots_jacobi(m, 1.0, 0.0)
        u, v = np.meshgrid((x + 1.0) / 2.0, (xv + 1.0) / 2.0, indexing="ij")
        rule = triangle_rule(2 * m - 2)
        assert np.abs(rule.points[:, 0] - (u * (1.0 - v)).ravel()).max() < 1e-13
        assert np.abs(rule.points[:, 1] - v.ravel()).max() < 1e-13
        assert np.abs(rule.weights - np.outer(w / 2.0, wv / 4.0).ravel()
                      ).max() < 1e-13


def test_import_does_not_load_scipy_special():
    # scipy.special costs tens of milliseconds of every CLI start-up.
    # The child imports the package this test imported.
    code = "import sys, conservaflux; print('scipy.special' in sys.modules)"
    src = os.path.dirname(os.path.dirname(conservaflux.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"


def test_import_and_solve_do_not_load_scipy_linalg():
    # scipy.sparse.linalg, and scipy.linalg under it, cost about 10 MiB of
    # RSS and 90 ms of every CLI start-up. The child also solves a system
    # with an aggregation level, so no solve imports them lazily either.
    code = ("import sys, conservaflux as cf, conservaflux.cli\n"
            "u = cf.solve_problem(cf.build_structured_mesh(32), 2, "
            "cf.load_example(2))\n"
            "print(len(u.solve_levels), [m for m in sys.modules if m in "
            "('scipy.linalg', 'scipy.sparse.linalg')])")
    src = os.path.dirname(os.path.dirname(conservaflux.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "3 []"


@functools.lru_cache(maxsize=None)
def exact_subcell_moments(k, top):
    """Exact integrals of x^i y^j, i + j <= top, over every subcell polygon
    of degree k, by Green's theorem: int x^i y^j dA is the loop integral of
    x^(i+1) y^j / (i+1) dy. The vertices (nodes, midpoints, barycenters)
    lie on the 1/(6k) lattice, so they are exact rationals."""
    sympy = pytest.importorskip("sympy")
    tau = sympy.Symbol("tau")
    den = 6 * k
    moments = []
    for loop in _ref_dual(k).loops:
        lat = np.rint(loop * den).astype(int)
        assert np.abs(lat / den - loop).max() < 1e-14
        verts = [(sympy.Rational(a, den), sympy.Rational(b, den))
                 for a, b in lat]
        acc = {}
        for (x0, y0), (x1, y1) in zip(verts, verts[1:] + verts[:1]):
            if y1 == y0:
                continue
            x = sympy.Poly(x0 + tau * (x1 - x0), tau)
            y = sympy.Poly(y0 + tau * (y1 - y0), tau)
            xp, yp = [x ** p for p in range(top + 2)], [y ** p for p in
                                                       range(top + 1)]
            for i in range(top + 1):
                for j in range(top + 1 - i):
                    poly = (xp[i + 1] * yp[j]).integrate()
                    acc[i, j] = (acc.get((i, j), 0)
                                 + poly.eval(1) * (y1 - y0) / (i + 1))
        moments.append(acc)
    return moments


@pytest.mark.parametrize("k", [1, 2, 3])
def test_subcell_rule_exact_on_every_subcell(k):
    # Every exactness 0..2k+2, plus the odd 5 that --quad-exactness reaches
    # at k = 1: the per-owner sums integrate every monomial of total degree
    # <= e over that node's subcell polygon exactly.
    top = max(2 * k + 2, 5)
    moments = exact_subcell_moments(k, top)
    for e in sorted(set(range(2 * k + 3)) | {5}):
        pts, w, owner = subcell_quadrature(k, e)
        assert np.all(w > 0.0)
        assert abs(w.sum() - 0.5) < 1e-15
        for node, exact in enumerate(moments):
            sel = owner == node
            x, y = pts[sel, 0], pts[sel, 1]
            for i in range(e + 1):
                for j in range(e + 1 - i):
                    got = np.dot(w[sel], x ** i * y ** j)
                    assert abs(got - float(exact[i, j])) < 1e-14, (e, node, i, j)


def test_subcell_rule_default_point_counts():
    # (e + 3) // 2 Gauss points per direction on 3k^2 quadrilaterals.
    counts = [len(subcell_quadrature(k, 2 * k + 2)[1]) for k in (1, 2, 3)]
    assert counts == [27, 192, 675]


def test_segment_rule_rejects_zero_points():
    with pytest.raises(ValueError):
        segment_rule(0)


def test_element_map_identity_triangle():
    mesh = TriMesh([[0, 0], [1, 0], [0, 1]], [[0, 1, 2]])
    v0, jac, _, det = mesh.element_maps()
    phys = map_points(v0, jac, [[0.0, 0.0]])[0]
    assert np.allclose(phys[0], [0, 0])
    assert np.allclose(jac[0], np.eye(2))
    assert abs(det[0] - 1.0) < 1e-15


def test_element_map_vertices_and_barycenter():
    mesh = build_structured_mesh(3)
    v0, jac, _, det = mesh.element_maps()
    phys = map_points(v0, jac, [[0, 0], [1, 0], [0, 1], [1 / 3, 1 / 3]])
    for t in (0, 7, 11):
        verts = mesh.vertices[mesh.triangles[t]]
        assert np.allclose(phys[t, :3], verts, atol=1e-15)
        assert np.allclose(phys[t, 3], verts.mean(axis=0), atol=1e-15)
        area = 0.5 * abs(np.linalg.det(np.stack([verts[1] - verts[0],
                                                 verts[2] - verts[0]])))
        assert abs(det[t] - 2 * area) < 1e-14


@pytest.mark.parametrize("with_v0", [True, False])
def test_map_points_into_buffer_matches_allocating_call(with_v0):
    # Chunks of 4 elements over 10 (the last one ragged) written into one
    # buffer sized for the largest chunk: each result is a view into the
    # buffer and equals the allocating call bit for bit.
    mesh = build_structured_mesh(3)
    v0, jac, _, _ = mesh.element_maps()
    ref = random_ref_points(np.random.default_rng(5), 7)
    buf = np.full(2 * 4 * len(ref), np.nan)
    for t0 in range(0, 10, 4):
        sl = slice(t0, min(t0 + 4, 10))
        args = (v0[sl] if with_v0 else None, jac[sl], ref)
        got = map_points(*args, out=buf)
        assert got.shape == (sl.stop - sl.start, len(ref), 2)
        assert np.shares_memory(got, buf)
        assert np.array_equal(got, map_points(*args))


@pytest.mark.parametrize("with_v0", [True, False])
def test_map_points_of_no_elements_is_empty(with_v0):
    # A chunk may have no outside neighbours: T = 0 maps to (0, ..., 2).
    ref = random_ref_points(np.random.default_rng(6), 5).reshape(5, 1, 2)
    got = map_points(np.empty((0, 2)) if with_v0 else None,
                     np.empty((0, 2, 2)), ref)
    assert got.shape == (0, 5, 1, 2)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_multi_index_is_read_only(k):
    # The table is cached: a write would change every later caller's basis.
    from conservaflux.basis import _multi_index
    a = _multi_index(k)
    assert not a.flags.writeable
    with pytest.raises(ValueError):
        a[0, 0] = 7


def test_degenerate_triangle_rejected_at_construction():
    from conservaflux.mesh import MeshError
    with pytest.raises(MeshError):
        TriMesh([[0, 0], [1, 0], [2, 0]], [[0, 1, 2]])


@pytest.mark.parametrize("k", [1, 2, 3])
def test_basis_quadrature_of_unity_gives_area(k):
    mesh = build_structured_mesh(3)
    rule = triangle_rule(2 * k + 2)
    vals, _ = eval_basis(k, rule.points)
    areas = mesh.signed_areas()
    for t in (0, 5, 10):
        total = (rule.weights[:, None] * vals).sum() * 2 * areas[t]
        assert abs(total - areas[t]) < 1e-13


def test_map_points_matches_einsum_within_rounding():
    # The map is one matrix product, so it rounds differently from the
    # einsum; each entry stays within 4 eps (|v0| + |J| |r|) of it.
    rng = np.random.default_rng(3)
    v0 = rng.normal(size=(50, 2))
    jac = rng.normal(size=(50, 2, 2))
    pts = random_ref_points(rng, 40)
    segs = rng.random((7, 4, 2))
    _, grads = eval_basis(3, pts)
    eps = np.finfo(float).eps
    for v, j, r, sub in [(v0, jac, pts, "tqa"), (v0, jac, segs, "tsna"),
                         (None, jac, segs[:, 0], "tsa"),
                         (None, jac.transpose(0, 2, 1), grads, "tqia")]:
        ref = np.einsum(f"tab,{sub[1:-1]}b->{sub}", j, r)
        bound = np.einsum(f"tab,{sub[1:-1]}b->{sub}", np.abs(j), np.abs(r))
        if v is not None:
            lead = (len(v),) + (1,) * (r.ndim - 1) + (2,)
            ref = ref + v.reshape(lead)
            bound = bound + np.abs(v).reshape(lead)
        got = map_points(v, j, r)
        assert got.shape == ref.shape
        assert np.all(np.abs(got - ref) <= 4 * eps * bound)
