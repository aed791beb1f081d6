"""Global continuous Galerkin assembly and solve.

The weak form is a(u, w) = int kappa grad(u).grad(w), l(w) = int f w, posed
on C0 Lagrange spaces of degree 1 to 3. Dirichlet conditions are imposed by
row/column elimination, which keeps the constrained matrix symmetric and
leaves the interior equations exactly satisfied by the solution. The
constrained system is solved by one MMD SuperLU solve, with the bubbles
condensed at k = 3, and singular systems fail at the residual check.

Assembly, flux recovery and the conservation checks share the per-element
blocks of one Discretization, which the dof map owns (see `blocks`):
stiffness, load, subcell f and element |f| integrals, the dual-segment
flux matrices of the elemental systems, and kappa samples, normal maps and
the facet pairing on the element-boundary segments, all from one chunked
pass: products of coefficient samples with reference tables tabulated once
per degree and exactness, scaled by det J > 0 after the product. Source
integrals use the composite subcell rule of the dual partition, over which
the recovery integrates f per subcell: one shared pass keeps the elemental
compatibility sums at rounding level instead of at quadrature-error level.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import basis, dualmesh
from ._table import coords, numbers, write_table
from .quadrature import segment_rule, triangle_rule

DOF_VERTEX, DOF_EDGE, DOF_INTERIOR = 0, 1, 2
DOF_KIND_NAMES = {DOF_VERTEX: "vertex", DOF_EDGE: "edge", DOF_INTERIOR: "interior"}
_BUDGET = 2 ** 17  # quadrature points per chunk of every per-element pass
_SOLVE_RTOL = 1e-10  # relative residual a solve must reach on the full system


class SolverError(Exception):
    """Assembly or solve failure."""


def default_exactness(degree):
    """Default triangle-rule exactness: 2k + 2 leaves quadrature error well
    below the discretization error for the coefficients used here."""
    return 2 * degree + 2


def default_segment_points(degree):
    """Gauss point count for boundary-segment integrals. Recovery and the
    conservation check must share it, or conservation breaks silently."""
    return degree + 2


@dataclass
class DofMap:
    """Global Lagrange degree-of-freedom numbering for one mesh and degree.

    Dofs are ordered vertices first, then edge dofs (edge index major,
    position along the edge minor), then element-interior dofs. Shared dofs
    receive the same global index from every adjacent element, which is
    what makes the space C0-conforming.
    """
    mesh: object
    degree: int
    n_dofs: int
    cell_dofs: np.ndarray      # (nt, N) local -> global
    coords: np.ndarray         # (ndofs, 2)
    kind: np.ndarray           # (ndofs,) vertex / edge / interior
    on_part: dict              # part label -> bool mask over dofs
    on_boundary: np.ndarray    # (ndofs,) geometric boundary membership
    # Per-element blocks of the most recent problem and exactness; see blocks.
    discretization: object = field(default=None, repr=False, compare=False)

    @property
    def boundary_parts(self):
        return set(self.on_part)


def build_dof_map(mesh, degree):
    if degree not in basis.N_NODES:
        raise ValueError(f"unsupported degree {degree!r}; supported: 1, 2, 3")
    k = degree
    nv, ne, nt = mesh.n_vertices, mesh.n_edges, mesh.n_triangles
    n_edge_dofs = (k - 1) * ne
    n_interior = nt if k == 3 else 0
    n_dofs = nv + n_edge_dofs + n_interior

    cell_dofs = np.empty((nt, basis.N_NODES[k]), dtype=np.int64)
    cell_dofs[:, :3] = mesh.triangles
    if k >= 2:
        for m, (a, b) in enumerate(((0, 1), (1, 2), (2, 0))):
            va = mesh.triangles[:, a]
            eid = mesh.tri_edges[:, m]
            forward = va == mesh.edges[eid, 0]
            for j in range(1, k):
                col = 3 + m * (k - 1) + (j - 1)
                slot = np.where(forward, j - 1, k - 1 - j)
                cell_dofs[:, col] = nv + eid * (k - 1) + slot
    if k == 3:
        cell_dofs[:, 9] = nv + n_edge_dofs + np.arange(nt)

    coords = np.empty((n_dofs, 2))
    coords[:nv] = mesh.vertices
    kind = np.empty(n_dofs, dtype=np.int64)
    kind[:nv] = DOF_VERTEX
    if k >= 2:
        lo = mesh.vertices[mesh.edges[:, 0]]
        hi = mesh.vertices[mesh.edges[:, 1]]
        for j in range(1, k):
            coords[nv + j - 1:nv + n_edge_dofs:k - 1] = lo + (hi - lo) * (j / k)
        kind[nv:nv + n_edge_dofs] = DOF_EDGE
    if k == 3:
        coords[nv + n_edge_dofs:] = mesh.vertices[mesh.triangles].mean(axis=1)
        kind[nv + n_edge_dofs:] = DOF_INTERIOR

    on_part = {}
    on_boundary = np.zeros(n_dofs, dtype=bool)
    for eid, label in zip(mesh.boundary_edges, mesh.boundary_labels):
        mask = on_part.setdefault(label, np.zeros(n_dofs, dtype=bool))
        a, b = mesh.edges[eid]
        mask[a] = mask[b] = True
        if k >= 2:
            s = nv + eid * (k - 1)
            mask[s:s + k - 1] = True
    for mask in on_part.values():
        on_boundary |= mask

    return DofMap(mesh=mesh, degree=k, n_dofs=n_dofs, cell_dofs=cell_dofs,
                  coords=coords, kind=kind, on_part=on_part,
                  on_boundary=on_boundary)


@dataclass
class FemField:
    """Degree-k Lagrange field: one coefficient per global dof."""
    mesh: object
    dofmap: DofMap
    values: np.ndarray
    solve_residual: float = 0.0

    @property
    def degree(self):
        return self.dofmap.degree

    @property
    def discretization(self):
        return self.dofmap.discretization

    def local_coeffs(self, t):
        return self.values[self.dofmap.cell_dofs[t]]

    def grad_on(self, t, ref_points):
        """Physical gradient at reference points of element t, shape (P, 2)."""
        _, grads = basis.eval_basis(self.degree, ref_points)
        _, _, inv, _ = self.mesh.element_maps()
        ref = np.einsum("pnd,n->pd", grads, self.local_coeffs(t))
        return ref @ inv[t]


def _chunks(nt, width):
    """Disjoint slices of range(nt) of max(1, _BUDGET // width) elements;
    `width` is a pass's points per element, doubled if it holds ten values
    per point, not five: about 5 MiB of temporaries at any size and degree."""
    step = max(1, _BUDGET // width)
    return (slice(t0, min(t0 + step, nt)) for t0 in range(0, nt, step))


def sample(fn, phys):
    """Evaluate a vectorized coefficient at points (..., 2) as a float array
    of shape phys.shape[:-1] (constant functions may return a scalar)."""
    vals = np.asarray(fn(phys[..., 0], phys[..., 1]), dtype=float)
    return np.broadcast_to(vals, phys.shape[:-1])


def _pair_table(left, right):
    """Products left[p, i, a] right[p, j, b] of two (P, N, 2) tables as
    (P, 3 N^2), ordered xx, yy, xy + yx for a symmetric M = invJ invJ^T."""
    lr = np.einsum("pia,pjb->pabij", left, right).reshape(len(left), 4, -1)
    return np.hstack([lr[:, 0], lr[:, 3], lr[:, 1] + lr[:, 2]])


class _RefSegments:
    """Reference tables of one (degree, exactness); each element kernel is a
    product of per-element samples with one of them. Element rule: points
    `q_pts`, gradient pair table `stiff`. Composite subcell rule: points
    `src_pts`, weights `src_w`, `src` (P, 2N) = w * [basis values | one-hot].
    Dual (`cv`) and element-boundary (`bd`) segments: Gauss weights `sw`
    and points, the flux pair table `dual`, the signs `sgn_cv` (N, S) of a
    dual segment in its two subcells' rows, basis values and gradients at
    the `bd` points and their owners `own_bd` (N, B)."""

    def __init__(self, k, exactness):
        ref, n = dualmesh._ref_dual(k), basis.N_NODES[k]
        srule = segment_rule(default_segment_points(k))
        self.sw = srule.weights
        tpar = srule.points

        rule = triangle_rule(exactness)
        self.q_pts = rule.points
        _, g = basis.eval_basis(k, rule.points)
        self.stiff = _pair_table(rule.weights[:, None, None] * g, g)
        self.src_pts, self.src_w, owner = dualmesh.subcell_quadrature(
            k, exactness)
        vals, _ = basis.eval_basis(k, self.src_pts)
        self.src = self.src_w[:, None] * np.hstack([vals, np.eye(n)[owner]])

        # Dual segments: invJ rot(J d) = det M rot(d), so a segment's flux
        # rows pair its sign times the weighted rot(d) with the gradients.
        self.cv_dir = ref.cv_end - ref.cv_start                 # (S, 2)
        self.cv_pts = (ref.cv_start[:, None, :]
                       + tpar[None, :, None] * self.cv_dir[:, None, :])
        s = len(self.cv_dir)
        self.sgn_cv = sgn = np.zeros((n, s))
        sgn[ref.cv_plus, np.arange(s)] = -1.0
        sgn[ref.cv_minus, np.arange(s)] += 1.0
        left = (sgn.T[:, None, :, None] * self.sw[:, None, None]
                * dualmesh._rot(self.cv_dir)[:, None, None, :])
        _, grads = basis.eval_basis(k, self.cv_pts.reshape(-1, 2))
        self.dual = _pair_table(left.reshape(-1, n, 2), grads)

        # Element-boundary segments: gradients as (N, B*ns*2).
        self.bd_dir = ref.bd_end - ref.bd_start
        self.bd_pts = (ref.bd_start[:, None, :]
                       + tpar[None, :, None] * self.bd_dir[:, None, :])
        nb, nsb = self.bd_pts.shape[:2]
        vals_b, grads_b = basis.eval_basis(k, self.bd_pts.reshape(-1, 2))
        self.phi_bd = vals_b.reshape(nb, nsb, n)
        self.g_bd = np.moveaxis(grads_b, 1, 0).reshape(n, -1)
        self.own_bd = np.zeros((n, nb))
        self.own_bd[ref.bd_owner, np.arange(nb)] = 1.0
        for arr in vars(self).values():
            arr.setflags(write=False)


@lru_cache(maxsize=None)
def _ref_segments(degree, exactness):
    return _RefSegments(degree, exactness)


class Discretization:
    """Per-element blocks of one (dof map, problem, exactness), all built
    in one chunked pass (get them through `blocks`):

    * `k_loc` (nt, N, N): stiffness blocks;
    * `b_loc` (nt, N): load blocks;
    * `f_sub` (nt, N): source integral over every subcell polygonal;
    * `f_abs` (nt,): the integral of |f| over every element;
    * `d_loc` (nt, N, N): flux of every basis function through the dual
      segments of every subcell, the matrix of the elemental systems;
    * `kap_bd` (nt, B, ns): kappa at the Gauss points of the
      element-boundary segments, and `mm_bd` (nt, B, 2) their normal maps;
    * `mate` (nt, B): the facet pairing of the element-boundary segments.

    `rseg` holds the reference tables. Everything is read-only, so
    chunks of elements can be processed concurrently.
    """

    def __init__(self, dofmap, problem, exactness):
        k, mesh = dofmap.degree, dofmap.mesh
        # Not the dof map, which holds this object: no reference cycle.
        self.cell_dofs = dofmap.cell_dofs
        self.problem = problem
        self.n = n = basis.N_NODES[k]
        self.exactness = exactness
        self.ref = ref = dualmesh._ref_dual(k)
        self.rseg = rseg = _ref_segments(k, exactness)
        self.v0, self.jac, self.inv_jac, self.det_jac = mesh.element_maps()
        nt = mesh.n_triangles
        nb, ns = rseg.bd_pts.shape[:2]
        self.k_loc = np.empty((nt, n, n))
        self.d_loc = np.empty((nt, n, n))
        self.kap_bd = np.empty((nt, nb, ns))
        self.mm_bd, self.mate = np.empty((nt, nb, 2)), np.empty((nt, nb), int)
        src, self.f_abs = np.empty((2, nt, n)), np.empty(nt)
        nbr, edges = mesh.tri_neighbors, mesh.tri_edges
        # One chunked pass: no (nt, Q, ...) quadrature array is ever built.
        # The source pass writes its mapped points and |f| into two buffers
        # sized for the largest chunk, so no chunk faults in fresh pages.
        width = len(rseg.src_pts)
        size = width * min(nt, max(1, _BUDGET // width))
        phys_buf, abs_buf = np.empty(2 * size), np.empty(size)
        for sl in _chunks(nt, width):
            self.k_loc[sl] = self._kappa_blocks(sl, rseg.q_pts, rseg.stiff)
            src[:, sl], self.f_abs[sl] = self._sources(sl, phys_buf, abs_buf)
            self.d_loc[sl] = self._kappa_blocks(sl, rseg.cv_pts, rseg.dual)
            self.kap_bd[sl] = sample(problem.kappa, basis.map_points(
                self.v0[sl], self.jac[sl], rseg.bd_pts))
            # Normal maps mm = invJ rot(J d), rot the -90 degree turn, so
            # that grad(phi).n dl is refgrad(phi).mm per unit weight.
            rotd = dualmesh._rot(basis.map_points(None, self.jac[sl],
                                                  rseg.bd_dir))
            self.mm_bd[sl] = np.einsum("tab,tsb->tsa", self.inv_jac[sl], rotd)
            # Facet pairing: mate[t, s] = m * B + s' where segment s' of the
            # neighbour m holds segment s's points in reverse order; -1 on
            # the domain boundary. TriMesh is counterclockwise and manifold,
            # so the neighbour always has such a segment.
            f_nbr = np.argmax(edges[np.maximum(nbr[sl], 0)]
                              == edges[sl, :, None], 2)
            m, f = nbr[sl, ref.bd_facet], f_nbr[:, ref.bd_facet]
            self.mate[sl] = np.where(
                m >= 0, m * nb + ref.bd_mate[np.arange(nb), f], -1)
        self.b_loc, self.f_sub = src

    def _kappa_blocks(self, sl, ref_pts, table):
        """(T, N, N) blocks det * sum_c M_c (kappa @ table_c) of a chunk,
        M = invJ invJ^T, with kappa sampled at the mapped points of a pair
        table; a nonpositive kappa is an error."""
        phys = basis.map_points(self.v0[sl], self.jac[sl],
                                ref_pts.reshape(-1, 2))
        kap = sample(self.problem.kappa, phys)
        if not np.all(kap > 0.0):
            t, q = np.unravel_index(int(np.argmin(kap)), kap.shape)
            raise SolverError(
                f"kappa must be positive; got {kap[t, q]:g} at "
                f"({phys[t, q, 0]:.6g}, {phys[t, q, 1]:.6g})")
        inv = self.inv_jac[sl]
        m = (inv @ inv.transpose(0, 2, 1)).reshape(-1, 4)[:, [0, 3, 1]]
        k = m[:, None, :] @ (kap @ table).reshape(len(m), 3, -1)
        return self.det_jac[sl, None, None] * k.reshape(-1, self.n, self.n)

    def _sources(self, sl, phys_buf, abs_buf):
        """Load blocks and subcell integrals of f (2, T, N) and element
        integrals of |f| (T,) of a chunk: composite-rule source samples
        times the weighted tables, scaled by det J > 0 afterwards. The
        mapped points and |f| are written into the flat buffers given."""
        phys = basis.map_points(self.v0[sl], self.jac[sl], self.rseg.src_pts,
                                out=phys_buf)
        f, det = sample(self.problem.source, phys), self.det_jac[sl]
        out = (f @ self.rseg.src) * det[:, None]
        abs_f = np.abs(f, out=abs_buf[:f.size].reshape(f.shape))
        return np.stack(np.hsplit(out, 2)), det * (abs_f @ self.rseg.src_w)


def blocks(mesh, dofmap, problem, exactness=None):
    """The dof map's per-element blocks for `problem` (the same object) and
    `exactness` (default 2k + 2): the ones it holds when they match, else
    new ones, which replace them on the dof map. `assemble` builds them, so
    `solve_problem` and the split `assemble` / `apply_dirichlet` / `solve`
    path leave the same blocks for the recovery and the checks to read."""
    if mesh is not dofmap.mesh:
        raise ValueError("the mesh is not the one the dof map was built on")
    exactness = (default_exactness(dofmap.degree) if exactness is None
                 else int(exactness))
    disc = dofmap.discretization
    if (disc is None or disc.problem is not problem
            or disc.exactness != exactness):
        disc = Discretization(dofmap, problem, exactness)
        dofmap.discretization = disc
    return disc


def assemble(mesh, dofmap, problem, exactness=None):
    """Unconstrained global system (A, b) as (csr matrix, vector)."""
    disc = blocks(mesh, dofmap, problem, exactness)
    n, n_dofs = disc.n, dofmap.n_dofs
    # scipy indexes with int32 whenever it can, and copies int64 input.
    cd = dofmap.cell_dofs.astype(np.int32 if n_dofs < 2 ** 31 else np.int64)
    rows = np.repeat(cd, n, axis=1).ravel()
    cols = np.tile(cd, (1, n)).ravel()
    a_glob = sp.coo_matrix((disc.k_loc.ravel(), (rows, cols)),
                           shape=(n_dofs, n_dofs)).tocsr()
    b_glob = np.zeros(n_dofs)
    np.add.at(b_glob, dofmap.cell_dofs.ravel(), disc.b_loc.ravel())
    return a_glob, b_glob


@dataclass
class ConstrainedSystem:
    matrix: sp.csr_matrix
    rhs: np.ndarray
    mesh: object
    dofmap: DofMap
    dirichlet_mask: np.ndarray
    dirichlet_values: np.ndarray


def apply_dirichlet(a_glob, b_glob, dofmap, problem):
    """Impose Dirichlet data by row/column elimination.

    Constrained rows become identity rows carrying the nodal trace of g;
    their column contributions move to the right-hand side, so the matrix
    stays symmetric. Boundary parts missing from the problem's Dirichlet
    map are homogeneous Neumann; at least one part must be Dirichlet.
    """
    unknown = set(problem.dirichlet) - dofmap.boundary_parts
    if unknown:
        raise SolverError(
            f"Dirichlet data given for unlabeled boundary part(s) "
            f"{sorted(unknown)}; mesh has {sorted(dofmap.boundary_parts)}")
    mask = np.zeros(dofmap.n_dofs, dtype=bool)
    g = np.zeros(dofmap.n_dofs)
    for part in sorted(problem.dirichlet):
        pm = dofmap.on_part[part]
        mask |= pm
        g[pm] = sample(problem.dirichlet[part], dofmap.coords[pm])
    if not mask.any():
        raise SolverError("no boundary part has Dirichlet data (mesh parts: "
                          f"{sorted(dofmap.on_part)}): the system is singular")
    b_c = b_glob - a_glob @ g
    b_c[mask] = g[mask]
    a_c = sp.csr_matrix(a_glob, copy=True)
    rows = np.repeat(mask, np.diff(a_c.indptr))
    a_c.data[rows | mask[a_c.indices]] = 0.0
    a_c = a_c + sp.diags(mask.astype(float))
    return ConstrainedSystem(matrix=a_c, rhs=b_c, mesh=dofmap.mesh,
                             dofmap=dofmap, dirichlet_mask=mask,
                             dirichlet_values=g)


def solve(system):
    """One direct sparse solve; a singular system fails the residual check.

    Element-interior dofs (k = 3) are numbered last and each couples only to
    its own element, so their block D is diagonal: the Schur complement
    A_cc - A_ci D^-1 A_ic keeps A_cc's pattern and is factored alone, and
    the interior values follow exactly as (b_i - A_ic x_c) / D. With no
    interior dofs (k = 1, 2) the complement is A itself. The relative
    residual of the returned solution on the full system is at most 1e-10;
    otherwise a SolverError reports the residual that was attained.
    """
    a, b = system.matrix.tocsr(), system.rhs
    dm = system.dofmap
    nc = len(b) - (0 if dm is None else int(np.sum(dm.kind == DOF_INTERIOR)))
    a_ci, a_ic, d = a[:nc, nc:], a[nc:, :nc], a.diagonal()[nc:]
    s = (a[:nc, :nc] - a_ci @ (sp.diags(1.0 / d) @ a_ic)).tocsc()
    x = np.empty_like(b)
    # Symmetric elimination and the condensation keep the matrix
    # structurally symmetric, so the ordering is taken on A^T + A.
    x[:nc] = spla.spsolve(s, b[:nc] - a_ci @ (b[nc:] / d),
                          permc_spec="MMD_AT_PLUS_A")
    x[nc:] = (b[nc:] - a_ic @ x[:nc]) / d
    bnorm = np.linalg.norm(b)
    res = float(np.linalg.norm(a @ x - b) / (bnorm if bnorm > 0 else 1.0))
    if not np.isfinite(res) or res > _SOLVE_RTOL:
        raise SolverError(f"linear solve failed: relative residual "
                          f"{res:.3e} exceeds {_SOLVE_RTOL:.1e}")
    return FemField(mesh=system.mesh, dofmap=system.dofmap, values=x,
                    solve_residual=res)


def solve_problem(mesh, degree, problem, exactness=None):
    """Build the dof map, assemble, constrain, and solve in one call."""
    dofmap = build_dof_map(mesh, degree)
    return solve(apply_dirichlet(*assemble(mesh, dofmap, problem, exactness),
                                 dofmap, problem))


def export_solution_csv(field, path):
    """Write the solution as "dof_index,x,y,value" rows."""
    dm = field.dofmap
    write_table(path, "dof_index,x,y,value", dm.n_dofs,
                [numbers(np.arange(dm.n_dofs)), coords(dm.coords[:, 0]),
                 coords(dm.coords[:, 1]), numbers(field.values)])
