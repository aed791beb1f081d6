"""Global continuous Galerkin assembly and solve.

The weak form is a(u, w) = int kappa grad(u).grad(w), l(w) = int f w, posed
on C0 Lagrange spaces of degree 1 to 3. Dirichlet conditions are imposed by
row/column elimination, which keeps the constrained matrix symmetric and
leaves the interior equations exactly satisfied by the solution. The free
dofs are solved for with the bubbles condensed at k = 3, by conjugate
gradients under a multigrid cycle over the P1 space (k = 2, 3) and
smoothed-aggregation levels, closed by the dense Cholesky factor of a level
of at most `_COARSEST` rows. Singular systems fail at the residual check.

Assembly, flux recovery and the conservation checks share the per-element
blocks of one Discretization, which the dof map owns (see `blocks`):
stiffness, load, subcell f and element |f| integrals, and det J invJ
invJ^T, which also maps the reference tables of the recovery's
element-boundary traces, from one chunked pass of coefficient samples
times reference tables; the dual-segment flux matrices of the elemental
systems from the same chunks when the recovery or the LCE first reads
them, so assembly and the solve do not hold them. Source
integrals use the composite subcell rule of the dual partition, over which
the recovery integrates f per subcell: one shared pass keeps the elemental
compatibility sums at rounding level instead of at quadrature-error level.
Kappa on the element boundaries is not kept: the recovery samples it per
chunk.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np
import scipy.sparse as sp

from . import basis, dualmesh
from ._table import coords, numbers, write_table
from .mesh import _check_count, _expand, _inv_jac
from .quadrature import _checked_exactness, segment_rule, triangle_rule

DOF_VERTEX, DOF_EDGE, DOF_INTERIOR = 0, 1, 2
DOF_KIND_NAMES = {DOF_VERTEX: "vertex", DOF_EDGE: "edge", DOF_INTERIOR: "interior"}
_BUDGET = 2 ** 17  # quadrature points per chunk of every per-element pass
_SOLVE_RTOL = 1e-10  # relative residual a solve must reach on the full system
_JACOBI = 0.5  # damping of the Jacobi smoother of the PCG's cycle
# Most rows of the dense last level, the measured crossover of its O(n^3)
# inverse against one more aggregation level (k = 1 solve of example 2, ms):
# 121 rows 8.5 dense vs 12.2 aggregated, 225 rows 15.8 vs 18.4, 289 rows
# 19.9 vs 17.1, 484 rows 54.9 vs 29.7 (README).
_COARSEST = 250
# Most rows of one block of the dense last level. OpenBLAS runs a product
# on threads once m n k exceeds 4 * 2^16, and its Cholesky from 128 rows
# on, and then rounds with the thread count (measured: A A^T from 97 rows,
# A^T B from 121); every call on blocks of 64 runs on one.
_BLOCK = 64
# Most row chunks S and P^T S are formed in. A chunk holds at least as
# many entries as S has columns: scipy's sparse products allocate and clear
# work arrays of one entry per column on every call.
_PIECES = 16
# PCG stop, relative to the condensed right-hand side. LCE(tilde) is the
# interior residual: at 1e-13 it rose from 2.9e-14 to 1.6e-12 (k=3 n=128).
_CG_RTOL = 1e-15
# PCG cap, the measured maximum plus a margin: at most 55 iterations on
# examples 1-3, 78 on structured kappa checkerboards; where jumps cut
# through jittered elements, 98 at k = 1 and 118 at k = 2 (n = 128) and
# 395 at k = 3 (n = 16), whose residual stays near 1 for 40 iterations
# first, so a rule that stops on a stalled residual would fail it. A
# singular system fails the residual check after at most this.
_CG_MAXITER = 500


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
    distance from the edge's lower-numbered vertex minor), then
    element-interior dofs. Shared dofs receive the same global index from
    every adjacent element, which is what makes the space C0-conforming.
    Row g of the P1 interpolation `p1` holds dof g's barycentric weights on
    its element's vertices, so `coords` is `p1 @ vertices`. Like the
    mesh's, the indices are int32: 2^31 dofs or more is a MeshError.
    """
    mesh: object
    degree: int
    n_dofs: int
    cell_dofs: np.ndarray      # (nt, N) int32, local -> global
    coords: np.ndarray         # (ndofs, 2)
    kind: np.ndarray           # (ndofs,) int8, vertex / edge / interior
    on_part: dict              # part label -> bool mask over dofs
    on_boundary: np.ndarray    # (ndofs,) geometric boundary membership
    p1: sp.csr_matrix = field(repr=False)  # (ndofs, nv) P1 interpolation
    # Per-element blocks of the last problem, at `assemble`'s exactness.
    discretization: object = field(default=None, repr=False, compare=False)


def build_dof_map(mesh, degree):
    """The dof map of `mesh` at `degree`, read off each local node's
    barycentric multi-index a: its count of nonzero indices minus 1 is its
    kind, an edge node's facet is where it lies, a / k its P1 weights."""
    basis._check_degree(degree)
    k, tri, nv = degree, mesh.triangles, mesh.n_vertices
    a = basis._multi_index(k)
    node_kind = (np.count_nonzero(a, axis=1) - 1).astype(np.int8)
    vert, edge, inner = (np.flatnonzero(node_kind == c) for c in range(3))
    nc = nv + (k - 1) * mesh.n_edges  # vertex and edge dofs
    n_dofs = nc + len(inner) * len(tri)
    _check_count("dof", n_dofs)

    cell_dofs = np.empty((len(tri), len(a)), dtype=np.int32)
    cell_dofs[:, vert] = tri[:, np.argmax(a[vert], axis=1)]
    # An edge node on facet m of edge (lo, hi) has slot (index at hi) - 1.
    m = np.argmax(basis.node_facets(k)[edge], axis=1)
    eid = mesh.tri_edges[:, m]
    at_hi = np.where(tri[:, m] == mesh.edges[eid, 1], a[edge, m],
                     a[edge, (m + 1) % 3])
    cell_dofs[:, edge] = nv + (k - 1) * eid + at_hi - 1
    cell_dofs[:, inner] = np.arange(nc, n_dofs).reshape(len(tri), len(inner))

    # Every element holding a dof gives it the same kind and P1 row, so
    # whichever one the scatter keeps will do.
    owner = np.empty(n_dofs, dtype=np.int64)
    owner[cell_dofs.ravel()] = np.arange(cell_dofs.size)
    t, n = np.divmod(owner, len(a))
    kind = node_kind[n]
    w = (a / k)[n].ravel()
    nz, indptr = w > 0, np.r_[0, np.cumsum(kind + 1, dtype=np.int64)]
    p1 = sp.csr_matrix((w[nz], tri[t].ravel()[nz], indptr), (n_dofs, nv))
    p1.sort_indices()
    coords = p1 @ mesh.vertices
    coords[:nv] = mesh.vertices

    # The dofs of each boundary edge: its two ends, then its edge dofs.
    be, labels = mesh.boundary_edges, np.asarray(mesh.boundary_labels)
    on_edge = np.hstack([mesh.edges[be],
                         nv + (k - 1) * be[:, None] + np.arange(k - 1)])
    on_part = {label: np.bincount(on_edge[labels == label].ravel(),
                                  minlength=n_dofs) > 0
               for label in dict.fromkeys(mesh.boundary_labels)}
    on_boundary = np.bincount(on_edge.ravel(), minlength=n_dofs) > 0

    return DofMap(mesh=mesh, degree=k, n_dofs=n_dofs, cell_dofs=cell_dofs,
                  coords=coords, kind=kind, on_part=on_part,
                  on_boundary=on_boundary, p1=p1)


@dataclass
class FemField:
    """Degree-k Lagrange field: one coefficient per global dof; `solve`
    records the rows of its levels (the last one dense) and CG iterations."""
    mesh: object
    dofmap: DofMap
    values: np.ndarray
    solve_residual: float = 0.0
    solve_levels: tuple = ()
    solve_iterations: int = 0

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
        _, jac, det = self.mesh._maps()
        ref = np.einsum("pnd,n->pd", grads, self.local_coeffs(t))
        return ref @ _inv_jac(jac[t], det[t])


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


def _positive_kappa(problem, phys):
    """`problem.kappa` sampled at the points phys (..., 2); a nonpositive
    value (NaN too) is a SolverError naming its point."""
    kap = sample(problem.kappa, phys)
    if kap.size and not kap.min() > 0.0:  # NaN fails too
        at = np.unravel_index(int(np.argmin(kap)), kap.shape)
        x, y = phys[at]
        raise SolverError(f"kappa must be positive; got {kap[at]:g} at "
                          f"({x:.6g}, {y:.6g})")
    return kap


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
    dual segment in its two subcells' rows. At the P `bd` points, rot(d)
    paired with the gradients `bd_flux` (N, 3P), the rows `bd_rows` (P, N)
    = w (owner - phi) of the traces and the recovery's chunk `bd_width`."""

    def __init__(self, k, exactness):
        ref, n = dualmesh._ref_dual(k), basis.N_NODES[k]
        srule = segment_rule(default_segment_points(k))
        self.sw, tpar = srule.weights, srule.points

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

        # Element-boundary points p = b * ns + i; `bd_flux` component major.
        self.bd_dir = ref.bd_end - ref.bd_start
        self.bd_pts = (ref.bd_start[:, None, :]
                       + tpar[None, :, None] * self.bd_dir[:, None, :])
        vals_b, grads_b = basis.eval_basis(k, self.bd_pts.reshape(-1, 2))
        rot = np.repeat(dualmesh._rot(self.bd_dir), len(tpar), axis=0)
        self.bd_flux = _pair_table(rot[:, None], grads_b).reshape(
            len(rot), 3, n).T.reshape(n, -1)
        owner = np.eye(n)[np.repeat(ref.bd_owner, len(tpar))]
        self.bd_rows = np.tile(self.sw, len(ref.bd_owner))[:, None] * (
            owner - vals_b)
        for arr in vars(self).values():
            arr.setflags(write=False)
        # Ten values per point (`_chunks`): three pair products, their sum,
        # the mapped point, kappa, the trace, its copy and their mean.
        self.bd_width = 2 * len(rot)


@lru_cache(maxsize=None)
def _ref_segments(degree, exactness):
    return _RefSegments(degree, exactness)


class Discretization:
    """Per-element blocks of one (dof map, problem, exactness), built in
    one chunked pass (get them through `blocks`):

    * `k_loc` (nt, N, N): stiffness blocks;
    * `b_loc` (nt, N): load blocks;
    * `f_sub` (nt, N): source integral over every subcell polygonal;
    * `f_abs` (nt,): the integral of |f| over every element;
    * `det_m` (nt, 3): det J invJ invJ^T as [xx, yy, xy];
    * `d_loc` (nt, N, N): flux of every basis function through the dual
      segments of every subcell, the matrix of the elemental systems,
      built by the same chunks on its first read.

    `rseg` holds the reference tables; the element maps, `tri_neighbors`
    and `neighbor_facets` are the mesh's own arrays. Everything is
    read-only once `d_loc` is built, which must happen before any
    concurrent reader, so chunks of elements can be processed concurrently.
    """

    def __init__(self, dofmap, problem, exactness):
        k, mesh = dofmap.degree, dofmap.mesh
        # Not the dof map, which holds this object: no reference cycle.
        self.cell_dofs = dofmap.cell_dofs
        self.problem = problem
        self.n = n = basis.N_NODES[k]
        self.exactness = exactness
        self.ref = dualmesh._ref_dual(k)
        self.rseg = rseg = _ref_segments(k, exactness)
        self.v0, self.jac, self.det_jac = mesh._maps()
        self.tri_neighbors, self.neighbor_facets = (mesh.tri_neighbors,
                                                    mesh.neighbor_facets)
        nt = mesh.n_triangles
        self.k_loc = np.empty((nt, n, n))
        self.det_m = np.empty((nt, 3))
        src, self.f_abs = np.empty((2, nt, n)), np.empty(nt)
        # One chunked pass: no (nt, Q, ...) quadrature array is ever built.
        # Both passes write their mapped points, and the source pass |f| and
        # the stiffness pass kappa @ table, into buffers sized for the
        # largest chunk, so no chunk faults in fresh pages; the blocks go
        # straight into their arrays.
        width = len(rseg.src_pts)
        step = min(nt, max(1, _BUDGET // width))
        phys_buf = np.empty(2 * step * max(width, len(rseg.q_pts)))
        abs_buf = np.empty(step * width)
        prod_buf = np.empty(step * rseg.stiff.shape[1])
        for sl in _chunks(nt, width):
            # det J invJ invJ^T = adj(J) adj(J)^T / det J, in closed form.
            (a, b), (c, d) = self.jac[sl].transpose(1, 2, 0)
            self.det_m[sl] = np.column_stack([b * b + d * d, a * a + c * c,
                                              -(a * b + c * d)])
            self.det_m[sl] /= self.det_jac[sl, None]
            self._kappa_blocks(sl, rseg.q_pts, rseg.stiff, self.k_loc[sl],
                               phys_buf, prod_buf)
            src[:, sl], self.f_abs[sl] = self._sources(sl, phys_buf, abs_buf)
        self.b_loc, self.f_sub = src

    @cached_property
    def d_loc(self):
        """Built on the first read, by the chunks of the block build, into
        buffers sized for the dual-segment pass; the build takes no lock.
        Only the recovery and `compute_lce` read it."""
        rseg, width = self.rseg, len(self.rseg.src_pts)
        d_loc = np.empty(self.k_loc.shape)
        step = min(len(d_loc), max(1, _BUDGET // width))
        phys_buf = np.empty(2 * step * rseg.cv_pts[..., 0].size)
        prod_buf = np.empty(step * rseg.dual.shape[1])
        for sl in _chunks(len(d_loc), width):
            self._kappa_blocks(sl, rseg.cv_pts, rseg.dual, d_loc[sl],
                               phys_buf, prod_buf)
        return d_loc

    def _kappa_blocks(self, sl, ref_pts, table, out, phys_buf, prod_buf):
        """Write the (T, N, N) blocks sum_c det_m_c (kappa @ table_c) of a
        chunk into `out`, with kappa sampled at the mapped points of a pair
        table; a nonpositive kappa is an error. The mapped points and the
        products kappa @ table go into the flat buffers given."""
        phys = basis.map_points(self.v0[sl], self.jac[sl],
                                ref_pts.reshape(-1, 2), out=phys_buf)
        kap = _positive_kappa(self.problem, phys)
        prod = np.matmul(kap, table, out=prod_buf[:len(kap) * table.shape[1]]
                         .reshape(len(kap), -1))
        np.matmul(self.det_m[sl, None, :], prod.reshape(len(kap), 3, -1),
                  out=out.reshape(len(kap), 1, -1))

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
    """The dof map's blocks for `problem` (the same object) at `exactness`,
    rebuilt if either differs. `None` keeps the held exactness (2k + 2 if
    none is held): only `assemble` passes one, and every reader shares it."""
    if mesh is not dofmap.mesh:
        raise ValueError("the mesh is not the one the dof map was built on")
    disc = dofmap.discretization
    held = default_exactness(dofmap.degree) if disc is None else disc.exactness
    exactness = _checked_exactness(held if exactness is None else exactness)
    if (disc is None or disc.problem is not problem
            or disc.exactness != exactness):
        disc = dofmap.discretization = Discretization(dofmap, problem,
                                                      exactness)
    return disc


def _check_field(mesh, field, degree=None):
    """Raise a ValueError unless `field` is on `mesh` (that object, or one
    with the same vertices and triangles) and, where given, of `degree`."""
    on = field.dofmap.mesh
    if on is not mesh and not (np.array_equal(on.vertices, mesh.vertices) and
                               np.array_equal(on.triangles, mesh.triangles)):
        raise ValueError("the field is not on this mesh")
    if degree is not None and field.degree != degree:
        raise ValueError(f"the field has degree {field.degree}, not {degree}")


def assemble(mesh, dofmap, problem, exactness=None):
    """Unconstrained global system (A, b) as (csr matrix, vector)."""
    disc = blocks(mesh, dofmap, problem, default_exactness(dofmap.degree)
                  if exactness is None else exactness)
    n, n_dofs, cd = disc.n, dofmap.n_dofs, dofmap.cell_dofs
    # int32, as scipy indexes: it copies int64 input.
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
    unknown = set(problem.dirichlet) - dofmap.on_part.keys()
    if unknown:
        raise SolverError(
            f"Dirichlet data given for unlabeled boundary part(s) "
            f"{sorted(unknown)}; mesh has {sorted(dofmap.on_part)}")
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
    # One copy of A, edited in place: the constrained rows and columns are
    # zeroed, their stored diagonal set to 1 and the zeros dropped. These
    # are the CSR arrays of keep A keep + diag(mask), without its copies.
    a_c = sp.csr_matrix(a_glob, copy=True)
    a_c.sum_duplicates()
    # The entries `at` of the constrained rows, each in row `row`.
    row, rank = _expand(np.diff(a_c.indptr)[mask])
    row = np.flatnonzero(mask)[row]
    at = a_c.indptr[row] + rank
    diag = at[a_c.indices[at] == row]
    a_c.data[mask[a_c.indices]] = 0.0
    a_c.data[at] = 0.0
    a_c.data[diag] = 1.0
    missing = mask.copy()
    missing[a_c.indices[diag]] = False
    a_c.eliminate_zeros()
    if missing.any():  # a constrained row without a stored diagonal
        a_c = a_c + sp.diags(missing.astype(float))
    return ConstrainedSystem(matrix=a_c, rhs=b_c, mesh=dofmap.mesh,
                             dofmap=dofmap, dirichlet_mask=mask,
                             dirichlet_values=g)


def solve(system):
    """Solve for the free dofs; a singular system fails the residual check.

    Dirichlet dofs keep their values exactly. The system's dof map numbers
    element-interior dofs (k = 3) last, and each couples only to its own
    element, so their block D is diagonal: they are condensed to the Schur
    complement S = A_cc - A_ci D^-1 A_ic on the free coupled dofs and follow
    exactly as (b_i - A_ic x_c) / D (`_condense`). S is the first level of a
    short hierarchy, and each level L has P^T L P under it (`_galerkin`): P
    is the dof map's P1 interpolation `p1` on the free coupled dofs and
    vertices at k = 2, 3, then, while a level has more than `_COARSEST`
    rows, a smoothed aggregation (`_aggregate`). The last level is inverted
    densely, so with one level (k = 1, at most `_COARSEST` rows) the
    preconditioner is exact. CG solves S to rounding level, preconditioned
    by one symmetric cycle, since the recovered flux's control-volume defect
    is exactly this solve's interior residual. Beside A, the setup holds S,
    the levels under it, each P^T and chunks of rows. The relative residual
    of the returned solution on the full system is at most 1e-10; otherwise
    a SolverError reports it and the CG iterations.
    """
    a, b = system.matrix.tocsr(), system.rhs
    dm, mask = system.dofmap, system.dirichlet_mask
    x = np.where(mask, system.dirichlet_values, 0.0)
    nc = len(b) - int(np.sum(dm.kind == DOF_INTERIOR))
    free = np.flatnonzero(~mask[:nc])
    d = a.diagonal()[nc:]
    s, rhs = _condense(a, ~mask, free, nc, b - a @ x, d)
    levels, maps = [s], []
    free_v = free[free < dm.mesh.n_vertices]
    if dm.degree > 1:
        _galerkin(levels, maps, dm.p1[free][:, free_v])
    if levels[-1].shape[0] > _COARSEST:
        # Boxes 3 median element diameters wide: the longest edge of the
        # mesh, `h`, would widen every box.
        xy = dm.coords[free_v]
        box = np.floor((xy - xy.min(0)) / (3 * dm.mesh._h_median))
        box = box.astype(np.int64)
        while levels[-1].shape[0] > _COARSEST:
            p, box = _aggregate(levels[-1], box)
            _galerkin(levels, maps, p)
        del p  # the cycle keeps P^T only
    try:
        # A_c^-1 = L^-T L^-1: two dense products per cycle.
        li = _inverse_factor(levels[-1].toarray())
    except np.linalg.LinAlgError:  # singular or indefinite: fail below
        x[free], its = np.nan, 0
    else:
        x[free], its = _pcg(levels, maps, li, rhs)
    if nc < len(b):  # the bubbles, still 0 in x
        x[nc:] = (b[nc:] - (a @ x)[nc:]) / d
    bnorm = np.linalg.norm(b)
    res = float(np.linalg.norm(a @ x - b) / (bnorm if bnorm > 0 else 1.0))
    if not np.isfinite(res) or res > _SOLVE_RTOL:
        raise SolverError(f"linear solve failed: relative residual "
                          f"{res:.3e} exceeds {_SOLVE_RTOL:.1e} after "
                          f"{its} CG iterations")
    return FemField(mesh=system.mesh, dofmap=system.dofmap, values=x,
                    solve_residual=res, solve_iterations=its,
                    solve_levels=tuple(lv.shape[0] for lv in levels))


def _pieces(nnz, width):
    """How many row chunks to cut `nnz` entries into: at most `_PIECES`,
    each of at least `width` entries."""
    return max(1, min(_PIECES, nnz // max(width, 1)))


def _split(n, parts):
    """`parts` slices of range(n), in order, of sizes differing by at most
    one."""
    return [slice(i * n // parts, (i + 1) * n // parts) for i in range(parts)]


def _rows(a, r0, r1, keep, cols, width):
    """The rows r0..r1-1 of the CSR matrix `a` marked in `keep`, with the
    entries in the columns j where cols[j] < width moved to column cols[j],
    in their order in `a`: a CSR matrix of `width` columns."""
    ptr = a.indptr[r0:r1 + 1] - a.indptr[r0]
    at = slice(a.indptr[r0], a.indptr[r1])
    col = cols.take(a.indices[at])
    hit = col < width
    hit &= np.repeat(keep[r0:r1], np.diff(ptr))
    # Few entries drop out (a constrained row, a bubble's diagonal): count
    # them per row.
    out = np.searchsorted(ptr[1:], np.flatnonzero(~hit), side="right")
    counts = (np.diff(ptr) - np.bincount(out, minlength=r1 - r0))[keep[r0:r1]]
    return sp.csr_matrix((a.data[at][hit], col[hit],
                          np.r_[0, np.cumsum(counts)]),
                         shape=(len(counts), width))


def _condense(a, keep, free, nc, r, d):
    """Wilson's static condensation of A x = r onto the free coupled dofs
    `free` (the rows below `nc` marked in `keep`): S = A_cc - A_ci D^-1 A_ic
    and r_c - A_ci D^-1 r_i, where the dofs from `nc` on are the bubbles,
    whose block is the diagonal `d`.

    S is written into arrays sized for the free rows of A (its entries
    and their couplings to bubbles), one chunk of rows at a time: a chunk
    [A_cc A_ci] of the rows of A times [I; -D^-1 A_ic] is S's chunk, with
    the entries where A stores none (exact zeros that `apply_dirichlet`
    dropped). The arrays are then shrunk in place to S's entries. Beside A
    and S, only D^-1 A_ic, one chunk and dof vectors are held."""
    n, nf = a.shape[0], len(free)
    width = nf + n - nc
    cols = np.full(n, width, dtype=a.indices.dtype)  # constrained: dropped
    cols[free] = np.arange(nf)
    cols[nc:] = np.arange(nf, width)
    rhs, cond = r[free], None
    if nc < n:  # bubbles are interior dofs: never constrained
        a_ic = _rows(a, nc, n, keep, cols, nf)
        a_ic.data *= np.repeat(-1.0 / d, np.diff(a_ic.indptr))
        cond = sp.csr_matrix((np.r_[np.ones(nf), a_ic.data],
                              np.r_[np.arange(nf), a_ic.indices],
                              np.r_[np.arange(nf), nf + a_ic.indptr]),
                             shape=(width, nf))
        del a_ic
        r_i = np.r_[np.zeros(nf), r[nc:] / d]
    size = int(np.diff(a.indptr)[free].sum())
    idx = np.int32 if max(size, n) < 2 ** 31 else np.int64
    data, indices = np.empty(size), np.empty(size, dtype=idx)
    indptr = np.zeros(nf + 1, dtype=idx)
    cuts = np.searchsorted(a.indptr[:nc + 1], np.linspace(
        0, a.indptr[nc], _pieces(size, width) + 1)[1:-1])
    at = row = 0
    for r0, r1 in zip(np.r_[0, cuts], np.r_[cuts, nc]):
        chunk = _rows(a, r0, r1, keep, cols, width)
        if cond is not None:
            rhs[row:row + chunk.shape[0]] -= chunk @ r_i
            chunk = chunk @ cond
        if at + chunk.nnz > size:  # more fill-in than couplings to bubbles
            size = at + chunk.nnz + size // 4
            data, indices = (np.r_[v[:at], np.empty(size - at, v.dtype)]
                             for v in (data, indices))
        data[at:at + chunk.nnz] = chunk.data
        indices[at:at + chunk.nnz] = chunk.indices
        indptr[row + 1:row + 1 + chunk.shape[0]] = at + chunk.indptr[1:]
        at, row = at + chunk.nnz, row + chunk.shape[0]
    for v in (data, indices):  # drop the unused tail, copying nothing
        v.resize(at, refcheck=False)
    return sp.csr_matrix((data, indices, indptr), (nf, nf)), rhs


def _galerkin(levels, maps, p):
    """Put P^T S P under the last level S of `levels`, from row chunks of
    P^T S of at least 2^14 entries (for A_0, 0.27 / 0.41 of S's at k = 3 /
    2; two chunks took 1.4-1.7 times one's time at 575-2,303 rows), and
    P^T, the one transfer the cycle keeps, in `maps`."""
    s, pt = levels[-1], p.T.tocsr()
    maps.append(pt)
    cuts = _split(pt.shape[0], _pieces(s.nnz // 3, max(s.shape[0], 2 ** 14)))
    levels.append(sp.vstack([pt[q] @ s @ p for q in cuts], format="csr"))


def _blocks(n):
    """Slices of range(n) of at most `_BLOCK` each, as few as can be."""
    return _split(n, -(-n // _BLOCK))


def _product(a, b):
    """a @ b summed block by block, in a fixed order, from products of
    blocks of at most `_BLOCK` rows and columns."""
    out = np.zeros((a.shape[0], b.shape[1]))
    for i in _blocks(a.shape[0]):
        for j in _blocks(b.shape[1]):
            for m in _blocks(a.shape[1]):
                out[i, j] += a[i, m] @ b[m, j]
    return out


def _inverse_factor(c):
    """L^-1 for the Cholesky factor L of the dense level c = L L^T (`c` is
    overwritten), one diagonal block of `_blocks` at a time, so that no
    BLAS or LAPACK call runs on threads and the rounding does not depend on
    their number. Raises LinAlgError where `c` has no factor."""
    li = np.zeros_like(c)
    for j in _blocks(len(c)):
        inv = np.linalg.inv(np.linalg.cholesky(c[j, j]))
        # The strictly lower blocks of c hold those of L by now.
        li[j, :j.start] = _product(-inv, _product(c[j, :j.start],
                                                  li[:j.start, :j.start]))
        li[j, j] = inv
        below = slice(j.stop, len(c))
        c[below, j] = _product(c[below, j], inv.T)
        c[below, below] -= _product(c[below, j], c[below, j].T)
    return li


def _aggregate(a, box):
    """Smoothed aggregation (Vanek, Mandel & Brezina 1996) of the level `a`
    whose rows sit in the integer boxes `box` (rows, 2): the box indicator
    T smoothed by damped Jacobi, (I - 2/3 D^-1 A) T, is the prolongation.
    Returns it and the boxes three times wider, which nest.

    P is written into the arrays of A T, whose rows are scaled by
    -2/3 D^-1 in place (`_own_last` adds T). These are the floats of
    T - (2/3 D^-1) (A T) in the order scipy gives them, without its two
    copies of P: that order sets the rounding of every product with the
    levels below."""
    _, first, agg = np.unique(box[:, 0] * (box[:, 1].max() + 1) + box[:, 1],
                              return_index=True, return_inverse=True)
    shape = (len(agg), len(first))
    at = a @ sp.csr_matrix((np.ones(len(agg)), (np.arange(len(agg)), agg)),
                           shape=shape)
    ptr, col, val = at.indptr, at.indices, at.data
    del at  # np.insert below frees the arrays it replaces
    agg = agg.astype(col.dtype)
    val *= np.repeat(-2 / 3 / a.diagonal(), np.diff(ptr))
    # scipy sorts the rows of the difference if those of 2/3 D^-1 (A T),
    # the reverse of A T's, all ascend.
    step = np.diff(col) < 0
    step[ptr[1:-1][(ptr[1:-1] > 0) & (ptr[1:-1] < len(col))] - 1] = True
    descends = step.all()
    del step
    lack = _own_last(ptr, col, val, agg)
    if len(lack):  # rows whose own entry of A T summed to exactly 0
        ends = ptr[lack + 1]
        val = np.insert(val, ends, 1.0)
        col = np.insert(col, ends, agg[lack])
        ptr = ptr + np.searchsorted(lack, np.arange(len(ptr))).astype(
            ptr.dtype)
    p = sp.csr_matrix((val, col, ptr), shape=shape)
    p.eliminate_zeros()
    if descends:
        p.sort_indices()
    return p, box[first] // 3


def _own_last(ptr, col, val, agg):
    """In the CSR arrays (ptr, col, val), move the entry of each row r in
    column agg[r] to the row's end, the others keeping their order, and add
    1 to it; return the rows that have no such entry. Each temporary is
    dropped once used: at k = 1 they are as large as the arrays."""
    own = np.flatnonzero(col == np.repeat(agg, np.diff(ptr)))
    row = np.searchsorted(ptr, own, side="right") - 1
    lack = np.ones(len(agg), dtype=bool)
    lack[row] = False
    last = ptr[row + 1] - 1
    del row
    # The entries after a row's own one move up a place: a step up after
    # the own entry and down after the row's last one marks them.
    tail = np.zeros(len(col) + 1, dtype=np.int8)
    tail[own + 1] += 1
    tail[last + 1] -= 1
    tail = np.cumsum(tail[:-1], dtype=np.int8).view(bool)[1:]
    gain, mine = 1.0 + val[own], col[own]
    del own
    for v in (val, col):
        v[:-1][tail] = v[1:][tail]
    del tail
    val[last], col[last] = gain, mine
    return np.flatnonzero(lack)


def _pcg(levels, maps, li, b):
    """CG on S x = b from x = 0, preconditioned by one symmetric cycle
    over the levels, until |r| <= _CG_RTOL |b|, |r @ z| is not a normal
    float (CG broke down) or _CG_MAXITER iterations;
    returns x and the iteration count."""
    # P = (P^T)^T, a view made once: scipy checks the arrays on each .T.
    steps = [(a, _JACOBI / a.diagonal(), t.T, t) for a, t in zip(levels, maps)]
    x, r = np.zeros_like(b), b.copy()
    tol, rz, p = _CG_RTOL * np.linalg.norm(b), 1.0, np.zeros_like(b)
    for its in range(_CG_MAXITER):
        if np.linalg.norm(r) <= tol:
            return x, its
        z = _cycle(steps, li, r)
        rz, rz_old = r @ z, rz
        # Breakdown: r @ z underflowed (p @ S p would follow) or is not
        # finite. A negative one (an indefinite cycle) still converges.
        if not np.finfo(float).tiny <= abs(rz) < np.inf:
            return x, its
        p *= rz / rz_old
        p += z
        q = levels[0] @ p
        alpha = rz / (p @ q)
        x += alpha * p
        r -= alpha * q
    return x, _CG_MAXITER


def _cycle(steps, li, r):
    """Damped Jacobi, the coarse correction, damped Jacobi again: a
    symmetric W-cycle, whose correction runs the next level's cycle twice,
    the second time on the first one's residual; the dense last level
    applies li^T li. Not a closure: one that calls itself is a reference
    cycle, which keeps every level alive until the garbage collector runs."""
    if not steps:
        return li.T @ (li @ r)
    a, dinv, p, pt = steps[0]
    z = dinv * r
    rc = pt @ (r - a @ z)
    e = _cycle(steps[1:], li, rc)
    if len(steps) > 1:  # the last level is solved exactly: once will do
        e += _cycle(steps[1:], li, rc - steps[1][0] @ e)
    z += p @ e
    z += dinv * (r - a @ z)
    return z


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
