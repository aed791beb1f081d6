"""Conservation and accuracy metrics.

The conservation defect of a discrete flux on the control volume of dof xi
is the boundary flux integral minus the enclosed source integral,

    lce(xi) = int_{dC(xi)} (-kappa grad u).n dl - int_{C(xi)} f dx,

reported for geometrically interior dofs, whose control-volume boundaries
consist purely of dual segments. Accuracy is measured in the H1 semi-norm,
and convergence rates are least-squares slopes of log error against log h.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import basis, dualmesh, solver
from ._table import coords, labels, numbers, write_table
from .mesh import _inv_jac
from .postprocess import local_coefficients, postprocess_all
from .quadrature import triangle_rule
from .solver import blocks, sample

_EXACT_FLOOR = 1e-11


@dataclass
class LceReport:
    """Per-dof conservation defects for one discrete field.

    Rows follow the global dof order (vertices, then edge dofs, then
    interior dofs) restricted to geometrically interior dofs.
    """
    field_name: str
    dof_ids: np.ndarray
    kinds: np.ndarray
    coords: np.ndarray
    values: np.ndarray

    @property
    def max_abs(self):
        return float(np.abs(self.values).max()) if len(self.values) else 0.0


def compute_lce(mesh, cv_index, partitions, field, problem):
    """Control-volume conservation defects of a discrete field.

    The flux on each dual segment is the field's own one-sided gradient in
    the element that owns the segment (dual segments never cross facets),
    integrated with the same segment rule the flux recovery uses. The
    report is named "tilde" for a recovered field and "uh" otherwise.
    """
    dm = field.dofmap
    dualmesh._check_partitions(mesh, partitions, dm)
    if cv_index.n_dofs != dm.n_dofs:
        raise ValueError("control-volume index does not match the dof map")
    disc = blocks(mesh, dm, problem)
    coeffs = local_coefficients(field)
    s_cv = (disc.d_loc @ coeffs[:, :, None])[:, :, 0]
    contrib = s_cv - disc.f_sub

    lce = np.zeros(dm.n_dofs)
    np.add.at(lce, dm.cell_dofs.ravel(), contrib.ravel())

    interior = np.nonzero(~dm.on_boundary)[0]
    field_name = "tilde" if hasattr(field, "boundary_flux") else "uh"
    return LceReport(field_name=field_name, dof_ids=interior,
                     kinds=dm.kind[interior], coords=dm.coords[interior],
                     values=lce[interior])


def _h1_distance(mesh, field, coeffs, exact_grad=None):
    """H1 semi-norm of `field`'s elementwise polynomials with nodal
    coefficients `coeffs(sl)` (T, N) on a slice `sl` of elements, minus
    `exact_grad` when one is given, summed chunk by chunk on the triangle
    rule of the field's blocks (2k + 2 when it has none)."""
    disc = field.discretization
    rule = triangle_rule(solver.default_exactness(field.degree)
                         if disc is None else disc.exactness)
    tab = np.hstack(basis.eval_basis(field.degree, rule.points)[1])
    v0, jac, det = mesh._maps()
    total = 0.0
    # About ten values per point: gradients (T, Q, 2), points, exact ones.
    for sl in solver._chunks(mesh.n_triangles, 2 * len(rule.points)):
        g = ((coeffs(sl) @ tab).reshape(-1, len(rule.points), 2)
             @ _inv_jac(jac[sl], det[sl]))
        if exact_grad is not None:
            phys = basis.map_points(v0[sl], jac[sl], rule.points)
            for a, g_a in enumerate(exact_grad(phys[..., 0], phys[..., 1])):
                g[..., a] -= g_a
        total += det[sl] @ (np.einsum("tqa,tqa->tq", g, g) @ rule.weights)
    return float(np.sqrt(total))


def h1_seminorm_error(mesh, field, exact_grad):
    """H1 semi-norm distance to a known gradient, by elementwise quadrature."""
    if exact_grad is None:
        raise ValueError("the H1 error requires the exact gradient")
    solver._check_field(mesh, field)
    return _h1_distance(mesh, field, field.local_coeffs, exact_grad)


def h1_seminorm_diff(mesh, field_a, field_b):
    """H1 semi-norm of the difference of two fields on the same mesh/degree.

    Elementwise additive constants (the recovery gauge) do not register.
    """
    solver._check_field(mesh, field_a)
    solver._check_field(mesh, field_b, field_a.degree)
    return _h1_distance(
        mesh, field_a,
        lambda sl: field_a.local_coeffs(sl) - field_b.local_coeffs(sl))


@dataclass
class ElementalConservationReport:
    """Per-element balance of the recovered boundary flux against the source."""
    residuals: np.ndarray
    scales: np.ndarray

    @property
    def max_residual(self):
        return float(self.residuals.max())

    @property
    def max_relative(self):
        return float((self.residuals / self.scales).max())


def elemental_conservation_report(mesh, partitions, field, problem):
    """Conservation residual of the recovered flux on every element.

    The recovered flux through an element's boundary is the sum of the
    per-subcell boundary data carried by the postprocessed field; the
    residual is its mismatch against the element source integral. Scales
    are max(1, |flux data| + |f| integral) for relative comparisons.
    """
    if not hasattr(field, "boundary_flux"):
        raise TypeError("elemental conservation is defined for the "
                        "postprocessed field")
    dualmesh._check_partitions(mesh, partitions, field.dofmap)
    disc = blocks(mesh, field.dofmap, problem)
    residuals = np.abs(field.boundary_flux.sum(axis=1)
                       - disc.f_sub.sum(axis=1))
    scales = np.maximum(1.0, np.abs(field.boundary_flux).sum(axis=1)
                        + disc.f_abs)
    return ElementalConservationReport(residuals=residuals, scales=scales)


def f_l1_norm(mesh, degree, problem):
    """L1 norm of the source over the domain, on the element rule of
    exactness 2k + 2, summed chunk by chunk; the composite subcell rule's
    agrees to quadrature accuracy."""
    basis._check_degree(degree)
    rule = triangle_rule(solver.default_exactness(degree))
    v0, jac, det = mesh._maps()
    total = 0.0
    for sl in solver._chunks(mesh.n_triangles, len(rule.points)):
        f = sample(problem.source, basis.map_points(v0[sl], jac[sl],
                                                    rule.points))
        total += det[sl] @ (np.abs(f) @ rule.weights)
    return float(total)


def true_solution_residual(mesh, degree, problem):
    """Defect of the exact solution in the elemental recovery equations.

    Substitutes the exact gradient for both the unknown and the facet data
    (the exact flux is continuous, so no averaging is involved) and returns,
    per element and basis function, how far the balance

        flux through dual segments = source + stiffness + boundary data

    is from holding. With smooth data this is pure quadrature error.
    """
    if problem.exact_grad is None:
        raise ValueError("true-solution residual requires the exact gradient")
    disc = blocks(mesh, solver.build_dof_map(mesh, degree), problem)
    rseg = disc.rseg
    v0, jac, det = mesh._maps()

    def exact_grad_at(phys):
        g = np.empty(phys.shape)
        g[..., 0], g[..., 1] = problem.exact_grad(phys[..., 0], phys[..., 1])
        return g

    def exact_flux(ref_pts, ref_dir):
        """kappa times the exact gradient dotted with the length-scaled
        outward normal rot(J d) at the mapped Gauss points (nt, S, ns) of
        reference segments."""
        phys = basis.map_points(v0, jac, ref_pts)
        rotd = dualmesh._rot(basis.map_points(None, jac, ref_dir))
        return sample(problem.kappa, phys) * np.einsum(
            "tsia,tsa->tsi", exact_grad_at(phys), rotd)

    # Dual-segment flux rows of the exact field.
    q_seg = exact_flux(rseg.cv_pts, rseg.cv_dir) @ rseg.sw
    b_rows = q_seg @ rseg.sgn_cv.T

    # Stiffness rows with the exact gradient.
    rule = triangle_rule(disc.exactness)
    _, grads = basis.eval_basis(degree, rule.points)
    phys = basis.map_points(v0, jac, rule.points)
    g_phi = basis.map_points(None, _inv_jac(jac, det).transpose(0, 2, 1),
                             grads)
    c = rule.weights * det[:, None] * sample(problem.kappa, phys)
    a_rows = np.einsum("tq,tqa,tqia->ti", c, exact_grad_at(phys), g_phi)

    # Boundary data rows with the exact (one-sided) flux, from the table
    # the recovery applies to its averaged traces.
    e_rows = exact_flux(rseg.bd_pts, rseg.bd_dir).reshape(len(det), -1) \
        @ rseg.bd_rows

    ell_rows = disc.f_sub - disc.b_loc
    return b_rows - (ell_rows + a_rows + e_rows)


@dataclass
class ConvergenceTable:
    """Mesh-refinement errors and their log-log least-squares slopes."""
    degree: int
    ns: np.ndarray
    hs: np.ndarray
    err_uh: np.ndarray
    err_tilde: np.ndarray
    err_diff: np.ndarray

    def _slope(self, err):
        if err.max() < _EXACT_FLOOR:
            return float("nan")
        return float(np.polyfit(np.log(self.hs), np.log(err), 1)[0])

    @property
    def slope_uh(self):
        return self._slope(self.err_uh)

    @property
    def slope_tilde(self):
        return self._slope(self.err_tilde)

    @property
    def slope_diff(self):
        return self._slope(self.err_diff)

    @property
    def exact(self):
        """True when every error column sits at rounding level."""
        return bool(max(self.err_uh.max(), self.err_tilde.max(),
                        self.err_diff.max()) < _EXACT_FLOOR)


def solve_level(problem, degree, n, exactness=None, threads=None):
    """(mesh, u_h, partitions, recovered field) on the structured n x n
    mesh; the recovery reuses the blocks the solve built."""
    # Not at module level: the benchmark's traced CLI run patches
    # mesh.build_structured_mesh, and only a lookup at call time sees it.
    from .mesh import build_structured_mesh

    mesh = build_structured_mesh(n)
    u_h = solver.solve_problem(mesh, degree, problem, exactness)
    parts = dualmesh.build_partitions(mesh, degree)
    tilde = postprocess_all(mesh, u_h.dofmap, parts, u_h, problem,
                            threads=threads)
    return mesh, u_h, parts, tilde


def convergence_table(problem, degree, levels, level):
    """H1 errors over a mesh ladder, where `level(n)` returns mesh level n
    solved and recovered as by solve_level."""
    levels = [int(n) for n in levels]
    if len(set(levels)) < 3:  # else the rate fit is rank-deficient
        raise ValueError(f"a convergence study needs at least 3 distinct "
                         f"mesh levels, got {levels}")
    if problem.exact_grad is None:
        raise ValueError("convergence study requires the exact gradient")
    hs, err_uh, err_tilde, err_diff = [], [], [], []
    for n in levels:
        mesh, u_h, _, tilde = level(n)
        hs.append(mesh.h)
        err_uh.append(h1_seminorm_error(mesh, u_h, problem.exact_grad))
        err_tilde.append(h1_seminorm_error(mesh, tilde, problem.exact_grad))
        err_diff.append(h1_seminorm_diff(mesh, u_h, tilde))
    return ConvergenceTable(degree=degree, ns=np.array(levels),
                            hs=np.array(hs), err_uh=np.array(err_uh),
                            err_tilde=np.array(err_tilde),
                            err_diff=np.array(err_diff))


def convergence_study(problem, degree, levels):
    """Solve, recover fluxes, and measure H1 errors over a mesh ladder."""
    return convergence_table(problem, degree, levels,
                             lambda n: solve_level(problem, degree, n))


def write_lce_csv(report, path):
    """Rows "dof_index,class,x,y,lce"."""
    names = [solver.DOF_KIND_NAMES[c] for c in range(3)]
    write_table(path, "dof_index,class,x,y,lce", len(report.dof_ids),
                [numbers(report.dof_ids), labels(names, report.kinds),
                 coords(report.coords[:, 0]), coords(report.coords[:, 1]),
                 numbers(report.values)])


def write_conservation_csv(report, path):
    """Rows "element,residual,scale", with LF line endings."""
    n = len(report.residuals)
    write_table(path, "element,residual,scale", n,
                [numbers(np.arange(n)), numbers(report.residuals),
                 numbers(report.scales)], term="\n")


def write_convergence_csv(table, path):
    """Rows "n,h,err_uh,err_tilde,err_diff"."""
    write_table(path, "n,h,err_uh,err_tilde,err_diff", len(table.ns),
                [numbers(np.asarray(table.ns, dtype=np.int64))]
                + [numbers(e) for e in (table.hs, table.err_uh,
                                        table.err_tilde, table.err_diff)])
