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
import threading
from collections import deque
from dataclasses import dataclass

import numpy as np

from . import basis, dualmesh, solver
from ._table import (coords, element_rows, ids, labels, numbers,
                     write_table)
from .mesh import _GEO_TOL, _inv_jac
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


def _traces(disc, u_values, elems):
    """kappa grad(u_h).n per unit reference weight at the element-boundary
    Gauss points (T, B, ns) of the elements `elems` (slice or indices):
    det_m @ (u_loc @ bd_flux) times kappa at the mapped points, checked as
    the block build checks it (`solver._positive_kappa`). Here and in
    `_boundary_flux_terms` every product is one per element: a longer one's
    rounding depends on its row count, and a chunk's must not."""
    rseg = disc.rseg
    nb, ns = rseg.bd_pts.shape[:2]
    pair = (u_values.take(disc.cell_dofs[elems])[:, None]
            @ rseg.bd_flux).reshape(-1, 3, nb * ns)
    q = (disc.det_m[elems, None] @ pair).reshape(-1, nb, ns)
    q *= solver._positive_kappa(disc.problem, basis.map_points(
        disc.v0[elems], disc.jac[elems], rseg.bd_pts))
    return q


def _facet_copies(disc, t0, t1):
    """Neighbour m (ct, B) across each boundary segment of elements t0..t1-1
    (-1 on the domain boundary) and m's copy bd_mate[segment, m's facet],
    both int32."""
    ref = disc.ref
    back = disc.neighbor_facets[t0:t1, ref.bd_facet]
    return (disc.tri_neighbors[t0:t1, ref.bd_facet],
            ref.bd_mate[np.arange(len(ref.bd_facet)), back])


def _averaged_traces(disc, u_values, t0, t1):
    """{kappa grad u_h}.n (ct, B, ns) like `_traces` for elements t0..t1-1:
    the mean of both sides' traces, the own trace on the domain boundary."""
    q = _traces(disc, u_values, slice(t0, t1))
    # A copy holds the same points reversed, with the opposite normal. One
    # gather at rows `at` reads those inside the chunk; domain-boundary
    # segments keep their own trace, and outside neighbours are traced once.
    m, s = _facet_copies(disc, t0, t1)
    inside = (m >= t0) & (m < t1)
    at = np.where(inside, (m - t0) * m.shape[1] + s, 0).ravel()
    q_nbr = q.reshape(len(at), -1)[at, ::-1].reshape(q.shape)
    q_nbr *= -1.0
    q_nbr[m < 0] = q[m < 0]
    outside = (m >= 0) & ~inside
    out, at = np.unique(m[outside], return_inverse=True)
    q_nbr[outside] = -_traces(disc, u_values, out)[at, s[outside], ::-1]
    return 0.5 * (q + q_nbr)


def _boundary_flux_terms(disc, u_values, t0, t1):
    """Boundary rows (ct, N) of elements t0..t1-1, the averaged traces times
    `bd_rows`: the integral of {kappa grad u_h}.n over the boundary part of
    subcell xi, minus its integral against phi_xi over the whole boundary."""
    q_avg = _averaged_traces(disc, u_values, t0, t1)
    return (q_avg.reshape(t1 - t0, 1, -1) @ disc.rseg.bd_rows)[:, 0]


def _elemental_blocks(disc, u_values, t0, t1):
    """Matrices, right-hand sides, defects, and boundary data for a chunk."""
    sl = slice(t0, t1)
    u_loc = u_values.take(disc.cell_dofs[sl])
    gauge = u_loc.mean(axis=1)
    # k_loc annihilates constants: centred, its rounding ignores |u_h|.
    a_term = (disc.k_loc[sl] @ (u_loc - gauge[:, None])[:, :, None])[:, :, 0]
    e_term = _boundary_flux_terms(disc, u_values, t0, t1)

    beta = disc.f_sub[sl] - disc.b_loc[sl] + a_term + e_term
    bflux = disc.b_loc[sl] - a_term - e_term
    defect = np.abs(beta.sum(axis=1))
    # In exact arithmetic sum(beta) = 0 term by term: f_sub and b_loc both
    # sum to the element's source integral, k_loc's columns sum to zero and
    # the boundary data's rows cancel (the basis is a partition of unity).
    # In floating point each of these sums leaves rounding relative to the
    # magnitudes it cancels: |f| for the sources, sum |k_loc| max |u - mean|
    # for the stiffness rows and sum |e_term| for the boundary data. Under a
    # steep kappa contrast the last two dwarf |beta|, so they set the scale.
    u_dev = np.abs(u_loc - gauge[:, None]).max(axis=1)
    scale = (np.linalg.norm(beta, axis=1) + disc.f_abs[sl]
             + np.abs(disc.k_loc[sl]).sum(axis=(1, 2)) * u_dev
             + np.abs(e_term).sum(axis=1))
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


def postprocess_all(mesh, dofmap, partitions, u_h, problem, threads=None):
    """Recover the conservative flux field on every element.

    Chunks of elements, sized by their boundary-segment points so that
    the chunks of all threads together fit one budget, are independent:
    the calling thread and `threads` - 1 helper threads (`threads` None:
    CONSERVAFLUX_THREADS, else 1) take them in order from one queue.
    Results go to disjoint slices, so the output is bit-identical for any
    thread count, and a failure raises the error of the first failing
    chunk, as one thread would. The per-element blocks are the dof map's
    (see `solver.blocks`).
    """
    dualmesh._check_partitions(mesh, partitions, dofmap)
    solver._check_field(mesh, u_h, dofmap.degree)
    nthreads = _thread_count(threads)
    disc = blocks(mesh, dofmap, problem)
    disc.d_loc  # built here, before any helper thread reads it
    nt = mesh.n_triangles
    n = disc.n
    coeffs = np.empty((nt, n))
    bflux = np.empty((nt, n))
    defects = np.empty(nt)
    chunks = deque(enumerate(solver._chunks(nt,
                                            disc.rseg.bd_width * nthreads)))
    failed = []

    def drain():
        # popleft is atomic: each chunk goes to one thread. After a failure
        # no chunk is taken; those taken before it, all earlier, finish.
        while not failed:
            try:
                i, sl = chunks.popleft()
            except IndexError:
                return
            try:
                mats, beta, gauge, defect, scale, bf = _elemental_blocks(
                    disc, u_h.values, sl.start, sl.stop)
                coeffs[sl] = _solve_chunk(mats, beta, gauge, defect, scale,
                                          sl.start)
            except Exception as err:
                failed.append((i, err))
                return
            bflux[sl] = bf
            defects[sl] = defect

    # The caller works too: a pool of `threads` workers beside an idle
    # caller holds one more malloc arena. Even so, two threads peak higher
    # than one (p1-structured: 74.3-74.6 MiB of RSS against 72.8-73.3).
    helpers = [threading.Thread(target=drain) for _ in range(nthreads - 1)]
    for h in helpers:
        h.start()
    try:
        drain()
    finally:
        chunks.clear()  # if the caller was interrupted, helpers stop too
        for h in helpers:
            h.join()
    if failed:
        raise min(failed, key=lambda f: f[0])[1]
    return PostprocessedField(mesh=mesh, dofmap=dofmap, coeffs=coeffs,
                              boundary_flux=bflux, defects=defects)


def flux_along_polyline(mesh, field, problem, points):
    """Integral of -kappa grad(field).n over each polyline segment.

    Segments are split where they cross mesh edges, and each piece is
    integrated with its element, or with the mean of both elements' fluxes
    on an interior edge (as in the recovery's facet data). The normal is
    the -90 degree rotation of the walking direction, of the segment's
    length: a repeated point makes a segment of flux 0.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) < 2:
        raise ValueError("polyline needs at least two (x, y) points")
    bad = np.flatnonzero(~np.isfinite(pts).all(axis=1))
    if bad.size:
        raise ValueError(f"polyline point {bad[0]} is not finite: "
                         f"{pts[bad[0]]}")
    solver._check_field(mesh, field)
    srule = segment_rule(default_segment_points(field.degree))
    v0, jac, det = mesh._maps()
    edges = mesh._edge_boxes()
    d = np.diff(pts, axis=0)
    cuts = [_edge_crossings(p, dp, edges) for p, dp in zip(pts, d)]
    seg = np.repeat(np.arange(len(d)), [len(c) for c in cuts])
    t = np.concatenate(cuts)
    keep = np.flatnonzero((seg[1:] == seg[:-1]) & (np.diff(t) >= 1e-14))
    seg, a, b = seg[keep], t[keep], t[keep + 1]
    mids = pts[seg] + ((a + b) / 2)[:, None] * d[seg]
    elems = mesh.locate(mids)
    if np.any(elems < 0):
        raise ValueError(f"polyline leaves the mesh near {mids[elems < 0][0]}")
    # A midpoint on facet m (its P1 coordinate of the vertex off facet m
    # within locate's tolerance) puts its whole piece on that facet, whose
    # two elements are the piece's two sides; elsewhere both are its element.
    r = np.einsum("pab,pb->pa", _inv_jac(jac[elems], det[elems]),
                  mids - v0[elems])
    off = basis.eval_basis(1, r)[0] @ ~basis.node_facets(1)
    mates = np.where(np.abs(off) <= _GEO_TOL, mesh.tri_neighbors[elems],
                     -1).max(axis=1)
    sides = np.column_stack([elems, np.where(mates < 0, elems, mates)])
    flux = np.empty(len(seg))
    width = 2 * srule.points.size * basis.N_NODES[field.degree]
    for sl in solver._chunks(len(seg), width):
        e, ds = sides[sl], d[seg[sl], None]
        gpts = pts[seg[sl], None] + (a[sl, None] + srule.points * (
            b - a)[sl, None])[..., None] * ds
        # invJ x per side, entry by entry (no rounding depends on the
        # batch): reference points, and invJ rot(d), with which the
        # reference gradient gives grad(u).rot(d)
        m = _inv_jac(jac[e], det[e])[:, :, None]        # (c, 2, 1, 2, 2)
        x = gpts[:, None] - v0[e][:, :, None]
        ref = m[..., 0] * x[..., :1] + m[..., 1] * x[..., 1:]
        nv = m[..., 0] * ds[..., 1:, None] - m[..., 1] * ds[..., :1, None]
        _, g = basis.eval_basis(field.degree, ref.reshape(-1, 2))
        g = (g.reshape(*ref.shape[:3], -1, 2)
             * field.local_coeffs(e)[:, :, None, :, None]).sum(axis=3)
        q = g[..., 0] * nv[..., 0] + g[..., 1] * nv[..., 1]
        q = -sample(problem.kappa, gpts) * (0.5 * (q[:, 0] + q[:, 1]))
        flux[sl] = (q * srule.weights).sum(axis=1)
    return np.bincount(seg, weights=(b - a) * flux, minlength=len(d))


def _edge_crossings(p, d, edges):
    """Sorted parameters in [0, 1] where p + t d crosses any mesh edge. Only
    the edges whose boxes meet the segment's are intersected: a run of the
    x-sorted boxes, filtered. Each edge's arithmetic is its own, so the
    parameters are the same floats as when intersecting every edge."""
    e0, e1, lo, hi, width = edges
    a, b = np.minimum(p, p + d), np.maximum(p, p + d)
    run = slice(np.searchsorted(lo[:, 0], a[0] - width),
                np.searchsorted(lo[:, 0], b[0], side="right"))
    near = run.start + np.flatnonzero(
        (hi[run, 0] >= a[0]) & (lo[run, 1] <= b[1]) & (hi[run, 1] >= a[1]))
    e0, e1 = e0[near], e1[near]
    r = e1 - e0
    denom = d[0] * r[:, 1] - d[1] * r[:, 0]
    rel = e0 - p
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (rel[:, 0] * r[:, 1] - rel[:, 1] * r[:, 0]) / denom
        s = (rel[:, 0] * d[1] - rel[:, 1] * d[0]) / denom
    ok = np.isfinite(t) & (t > 1e-12) & (t < 1 - 1e-12) & (s >= -1e-12) \
        & (s <= 1 + 1e-12)
    return np.concatenate([[0.0], np.unique(t[ok]), [1.0]])


def export_postprocessed_csv(field, path):
    """Write the corrected coefficients as "element,local_dof,x,y,alpha"."""
    v0, jac, _ = field.mesh._maps()
    nodes = basis.ref_nodes(field.degree)
    nt, n = field.coeffs.shape
    xy, local = coords(), numbers(np.arange(n))

    def block(rows):
        t, e, i = element_rows(rows, n)
        pts = (nodes @ jac[t].transpose(0, 2, 1) + v0[t, None])[e, i]
        return [labels(ids(t), e), labels(local, i), xy(pts[:, 0]),
                xy(pts[:, 1]), numbers(field.coeffs.reshape(-1)[rows])]
    write_table(path, "element,local_dof,x,y,alpha", nt * n, block)
