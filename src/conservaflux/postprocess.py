"""Element-local recovery of locally conservative fluxes.

Every element gets an auxiliary N x N system whose unknowns are the nodal
coefficients of a corrected field. Row xi balances the flux of the corrected
field through the dual (control-volume) segments of subcell xi against
source, stiffness, and averaged-boundary-flux data computed from the global
solution. The system matrix annihilates constants from both sides, so the
solution is fixed only up to an additive constant; the gradient, and with
it the recovered flux, is unique. Adding a rank-one term s 1 1^T makes the
N x N matrix regular; its solution has mean zero up to the compatibility
defect, and the element mean of u_h is added after, so the two fields are
comparable and a constant in u_h stays out of the solve.

On facets shared by two elements the normal flux of the global solution is
the average of the two kappa-weighted one-sided traces, each side with its
own kappa samples, so it is single-valued where kappa jumps across the
facet; on the domain boundary the one-sided trace is used. Identical
segment quadrature on both sides makes these contributions cancel exactly
when control volumes are assembled across elements, which is what drives
the conservation defect down to rounding level.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import pairwise

import numpy as np

from . import basis, dualmesh, solver
from ._table import coords, numbers, write_table
from .dualmesh import _rot
from .mesh import _GEO_TOL
from .quadrature import segment_rule
from .solver import FemField, blocks, default_segment_points, sample

THREADS_ENV = "CONSERVAFLUX_THREADS"
_DEFECT_RTOL = 1e-10
_SOLVE_RTOL = 1e-10


class PostprocessError(Exception):
    """Elemental flux recovery failure (carries the element index)."""


def _thread_count(threads):
    """Worker count: `threads`, else CONSERVAFLUX_THREADS, else 1. Anything
    but a positive integer is rejected with the name of its source."""
    name, value = "threads", threads
    if threads is None:
        name = THREADS_ENV
        value = os.environ.get(THREADS_ENV, "").strip() or "1"
    if not str(value).isdecimal() or int(value) < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    return int(value)


def _boundary_flux_terms(disc, u_values, t0, t1):
    """Averaged normal-flux data on element-boundary segments.

    Returns (q_seg, e_phi): per-segment integrals of {kappa grad u_h}.n dl,
    shape (ct, B), and the rows e(u_h, phi_xi) = int_bd {kappa grad u_h}.n
    phi_xi dl, shape (ct, N).
    """
    rseg = disc.rseg
    mate = disc.mate[t0:t1]
    nb = mate.shape[1]
    paired = mate >= 0
    # Traces of the chunk and of its facet neighbours in one pass. A
    # neighbour's mated segment holds the same points in reverse order, and
    # its normal is the opposite one.
    elems, row = np.unique(
        np.concatenate([np.arange(t0, t1), mate[paired] // nb]),
        return_inverse=True)
    g = (u_values[disc.cell_dofs[elems]] @ rseg.g_bd).reshape(
        len(elems), nb, -1, 2)
    mm = disc.mm_bd[elems]
    q = g[..., 0] * mm[:, :, None, 0] + g[..., 1] * mm[:, :, None, 1]
    q *= disc.kap_bd[elems]
    q_own = q[row[:t1 - t0]]
    q_nbr = q_own.copy()
    q_nbr[paired] = -q[row[t1 - t0:], mate[paired] % nb, ::-1]
    q_avg = 0.5 * (q_own + q_nbr)

    q_seg = q_avg @ rseg.sw
    e_phi = ((q_avg * rseg.sw).reshape(t1 - t0, -1)
             @ rseg.phi_bd.reshape(-1, disc.n))
    return q_seg, e_phi


def _elemental_blocks(disc, u_values, t0, t1):
    """Matrices, right-hand sides, defects, and boundary data for a chunk."""
    sl = slice(t0, t1)
    u_loc = u_values[disc.cell_dofs[sl]]
    gauge = u_loc.mean(axis=1)
    # k_loc annihilates constants: centred, its rounding ignores |u_h|.
    a_term = (disc.k_loc[sl] @ (u_loc - gauge[:, None])[:, :, None])[:, :, 0]
    q_seg, e_phi = _boundary_flux_terms(disc, u_values, t0, t1)
    e_term = q_seg @ disc.rseg.own_bd.T - e_phi

    beta = disc.f_sub[sl] - disc.b_loc[sl] + a_term + e_term
    bflux = disc.b_loc[sl] - a_term - e_term
    defect = np.abs(beta.sum(axis=1))
    scale = np.linalg.norm(beta, axis=1) + disc.f_abs[sl]
    return disc.d_loc[sl], beta, gauge, defect, scale, bflux


def _solve_chunk(mats, beta, gauge, defect, scale, t0):
    bad = defect > _DEFECT_RTOL * (scale + 1e-30)
    if np.any(bad):
        t = int(np.argmax(np.where(bad, defect, -np.inf)))
        raise PostprocessError(
            f"element {t0 + t}: compatibility defect {defect[t]:.3e} exceeds "
            f"{_DEFECT_RTOL:.0e} * scale ({scale[t]:.3e}); the elemental "
            "system is not solvable")
    # D annihilates constants from both sides, so D + s 1 1^T is regular
    # (s, the mean |D_ij|, keeps the term on D's scale). Its solution solves
    # D alpha = beta up to a constant, the defect's share, which the
    # residual check removes, and has mean sum(beta) / (s N^2).
    s = np.abs(mats).mean(axis=(1, 2))
    alpha = np.linalg.solve(mats + s[:, None, None], beta[:, :, None])[:, :, 0]

    resid = np.einsum("txn,tn->tx", mats, alpha) - beta
    resid -= resid.mean(axis=1, keepdims=True)
    rnorm = np.linalg.norm(resid, axis=1)
    mat_scale = np.linalg.norm(mats.reshape(len(mats), -1), axis=1)
    tol = _SOLVE_RTOL * (scale + mat_scale) + 1e-30
    bad = rnorm > tol
    if np.any(bad):
        t = int(np.argmax(np.where(bad, rnorm, -np.inf)))
        raise PostprocessError(
            f"element {t0 + t}: singular-system residual {rnorm[t]:.3e} "
            f"exceeds tolerance {tol[t]:.3e} after gauge fixing")
    return alpha + gauge[:, None]


@dataclass
class PostprocessedField:
    """Elementwise corrected field; its gradient is the recovered flux.

    `coeffs[t]` are nodal coefficients on element t (values are
    discontinuous across elements; only the gradient is the deliverable).
    `boundary_flux[t, xi]` is the recovered outward flux integral of
    -kappa grad(u) through the element-boundary part of subcell xi.
    """
    mesh: object
    dofmap: object
    coeffs: np.ndarray         # (nt, N)
    boundary_flux: np.ndarray  # (nt, N)
    defects: np.ndarray        # (nt,)

    @property
    def degree(self):
        return self.dofmap.degree

    def local_coeffs(self, t):
        return self.coeffs[t]

    discretization = FemField.discretization
    grad_on = FemField.grad_on


def local_coefficients(field):
    """Per-element coefficient table (nt, N) for either field type."""
    return field.local_coeffs(slice(None))


def postprocess_all(mesh, dofmap, partitions, u_h, problem, threads=None,
                    exactness=None):
    """Recover the conservative flux field on every element.

    Chunks of elements, sized by their boundary-segment points, are
    independent and may run on a thread pool (capped by CONSERVAFLUX_THREADS
    when `threads` is None); results go to disjoint slices, so the output is
    bit-identical for any thread count. The per-element blocks are the dof
    map's (see `solver.blocks`).
    """
    dualmesh._check_partitions(mesh, partitions, dofmap.degree)
    nthreads = _thread_count(threads)
    disc = blocks(mesh, dofmap, problem, exactness)
    nt = mesh.n_triangles
    n = disc.n
    coeffs = np.empty((nt, n))
    bflux = np.empty((nt, n))
    defects = np.empty(nt)

    def work(sl):
        mats, beta, gauge, defect, scale, bf = _elemental_blocks(
            disc, u_h.values, sl.start, sl.stop)
        coeffs[sl] = _solve_chunk(mats, beta, gauge, defect, scale, sl.start)
        bflux[sl] = bf
        defects[sl] = defect

    # Flux traces hold about ten values per boundary-segment point.
    chunks = solver._chunks(nt, disc.rseg.g_bd.shape[1])
    if nthreads == 1:
        for sl in chunks:
            work(sl)
    else:
        with ThreadPoolExecutor(max_workers=nthreads) as pool:
            list(pool.map(work, chunks))
    return PostprocessedField(mesh=mesh, dofmap=dofmap, coeffs=coeffs,
                              boundary_flux=bflux, defects=defects)


def flux_along_polyline(mesh, field, problem, points):
    """Integral of -kappa grad(field).n over each polyline segment.

    Segments are split where they cross mesh edges, and each piece is
    integrated with its element, or with the mean of both elements' fluxes
    on an interior edge (as in the recovery's facet data). The normal is
    the -90 degree rotation of the walking direction.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) < 2:
        raise ValueError("polyline needs at least two (x, y) points")
    srule = segment_rule(default_segment_points(field.degree))
    v0, _, inv, _ = mesh.element_maps()
    e0 = mesh.vertices[mesh.edges[:, 0]]
    e1 = mesh.vertices[mesh.edges[:, 1]]
    d = np.diff(pts, axis=0)
    pieces = [(i, a, b) for i in range(len(d))
              for a, b in pairwise(_edge_crossings(pts[i], d[i], e0, e1))
              if b - a >= 1e-14]
    mids = np.array([pts[i] + (a + b) / 2 * d[i] for i, a, b in pieces])
    elems = mesh.locate(mids)
    # A midpoint on facet m (the barycentric coordinate of vertex (m + 2) % 3
    # within locate's tolerance) puts its whole piece on that facet.
    r = np.einsum("pab,pb->pa", inv[elems], mids - v0[elems])
    lam = np.column_stack([r[:, 1], 1.0 - r.sum(axis=1), r[:, 0]])
    mates = np.where(np.abs(lam) <= _GEO_TOL, mesh.tri_neighbors[elems], -1)

    out = np.zeros(len(d))
    for (i, a, b), t, m, mid in zip(pieces, elems, mates.max(axis=1), mids):
        if t < 0:
            raise ValueError(f"polyline leaves the mesh near {mid}")
        seg_len = np.linalg.norm(d[i])
        normal = _rot(d[i]) / seg_len
        gpts = pts[i] + (a + srule.points * (b - a))[:, None] * d[i]
        sides = (t,) if m < 0 else (t, m)
        flux = np.mean([-sample(problem.kappa, gpts) * (field.grad_on(
            e, (gpts - v0[e]) @ inv[e].T) @ normal) for e in sides], axis=0)
        out[i] += seg_len * (b - a) * float(srule.weights @ flux)
    return out


def _edge_crossings(p, d, e0, e1):
    """Sorted parameters in [0, 1] where p + t d crosses any mesh edge."""
    r = e1 - e0
    denom = d[0] * r[:, 1] - d[1] * r[:, 0]
    rel = e0 - p
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (rel[:, 0] * r[:, 1] - rel[:, 1] * r[:, 0]) / denom
        s = (rel[:, 0] * d[1] - rel[:, 1] * d[0]) / -denom
    ok = np.isfinite(t) & (t > 1e-12) & (t < 1 - 1e-12) & (s >= -1e-12) \
        & (s <= 1 + 1e-12)
    return np.concatenate([[0.0], np.unique(t[ok]), [1.0]])


def export_postprocessed_csv(field, path):
    """Write the corrected coefficients as "element,local_dof,x,y,alpha"."""
    v0, jac, _, _ = field.mesh.element_maps()
    pts = basis.ref_nodes(field.degree) @ jac.transpose(0, 2, 1) + v0[:, None]
    nt, n = field.coeffs.shape
    write_table(path, "element,local_dof,x,y,alpha", nt * n,
                [numbers(np.repeat(np.arange(nt), n)),
                 numbers(np.tile(np.arange(n), nt)),
                 coords(pts[..., 0].ravel()), coords(pts[..., 1].ravel()),
                 numbers(field.coeffs.ravel())])
