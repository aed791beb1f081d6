"""Workload inputs, the timed pipelines and the paper's gates.

Everything here goes through the library's public API or `cli.main`.
A pipeline takes an optional `Tracer`; without one (the untraced run) the
spans are empty contexts and nothing in the package is patched.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import io
import operator
import shutil
import tempfile
import time
import tracemalloc
from contextlib import contextmanager, nullcontext, redirect_stdout
from pathlib import Path

import numpy as np

import conservaflux as cf
from conservaflux import cli, dualmesh, postprocess, solver, verify
from conservaflux import mesh as mesh_mod
from tracing import Tracer, patched

LCE_RTOL = 1e-10          # scaled by max(1, ||f||_1), as in the CLI
CONSERVATION_RTOL = 1e-10
RESIDUAL_TOL = 1e-10


def _nospan(name):
    return nullcontext()


# -- inputs ---------------------------------------------------------------

def jittered_square(n, amplitude, seed):
    """Vertex and triangle arrays of the n x n unit-square grid, each cell
    split along its lower-left/upper-right diagonal, with every interior
    vertex moved by a uniform offset of +-amplitude*h per coordinate.
    Boundary vertices stay put, so the boundary labels do not change."""
    rng = np.random.default_rng(seed)
    c = np.linspace(0.0, 1.0, n + 1)
    xx, yy = np.meshgrid(c, c)
    vertices = np.column_stack([xx.ravel(), yy.ravel()])
    interior = np.all((vertices > 0.0) & (vertices < 1.0), axis=1)
    h = 1.0 / n
    vertices[interior] += rng.uniform(-amplitude * h, amplitude * h,
                                      size=(int(interior.sum()), 2))
    j, i = np.divmod(np.arange(n * n), n)
    a = j * (n + 1) + i
    b, cc, d = a + 1, a + n + 2, a + n + 1
    triangles = np.empty((2 * n * n, 3), dtype=np.int64)
    triangles[0::2] = np.column_stack([a, b, cc])
    triangles[1::2] = np.column_stack([a, cc, d])
    return vertices, triangles


def mesh_builder(cfg, seed):
    """Zero-argument mesh constructor for a library workload. The timed
    part is the library call; the jittered arrays are made here, once."""
    if cfg["jitter"]:
        vertices, triangles = jittered_square(cfg["n"], cfg["jitter"], seed)
        return lambda: cf.TriMesh(vertices, triangles)
    return lambda: cf.build_structured_mesh(cfg["n"])


# -- tracing helpers -------------------------------------------------------

@contextmanager
def _recover_span(tr, name="postprocess.recover"):
    """A recovery span with the tracemalloc peak taken inside it."""
    with tr.span(name):
        tracemalloc.start()
        try:
            yield
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
    tr.keep_max("postprocess.peak_alloc_mib", peak / 2 ** 20)


def counted_problem(problem, tr):
    """Benchmark-owned copy of a ProblemSpec whose kappa and source count
    the points they are evaluated at and run inside problems.eval spans."""
    def counted(counter, fn):
        @functools.wraps(fn)
        def wrapper(x, y):
            tr.add(counter, int(np.size(x)))
            with tr.span("problems.eval"):
                return fn(x, y)
        return wrapper
    return dataclasses.replace(
        problem, kappa=counted("problems.kappa_points", problem.kappa),
        source=counted("problems.source_points", problem.source))


def _record_system(tr, system):
    tr.keep_max("solver.n_dofs", system.matrix.shape[0])
    tr.keep_max("solver.nnz", system.matrix.nnz)


def _record_lce(tr, report):
    tr.keep_max(f"verify.max_lce_{report.field_name}", report.max_abs)


# -- library workloads ----------------------------------------------------

def library_pipeline(build_mesh, problem, degree, threads, tr=None):
    """The README library sequence, from mesh construction to a gated
    recovered flux. Returns (wall seconds, outcome dict)."""
    span = tr.span if tr else _nospan
    t0 = time.perf_counter()
    with span("mesh.build"):
        mesh = build_mesh()
    if tr is None:
        u_h = cf.solve_problem(mesh, degree, problem)
    else:
        dofmap = tr.call("solver.dofmap", cf.build_dof_map, mesh, degree)
        a_glob, b_glob = tr.call("solver.assemble", cf.assemble, mesh,
                                 dofmap, problem)
        system = tr.call("solver.dirichlet", cf.apply_dirichlet, a_glob,
                         b_glob, dofmap, problem)
        _record_system(tr, system)
        u_h = tr.call("solver.solve", cf.solve, system)
    with span("dualmesh.partitions"):
        parts = cf.build_partitions(mesh, degree)
    with (_recover_span(tr) if tr else nullcontext()):
        tilde = cf.postprocess_all(mesh, u_h.dofmap, parts, u_h, problem,
                                   threads=threads)
    with span("dualmesh.cv_index"):
        cv = cf.build_cv_index(mesh, u_h.dofmap, parts)
    with span("verify.lce"):
        lce_uh = cf.compute_lce(mesh, cv, parts, u_h, problem).max_abs
    with span("verify.lce"):
        lce_tilde = cf.compute_lce(mesh, cv, parts, tilde, problem).max_abs
    with span("verify.conservation"):
        cons = cf.elemental_conservation_report(mesh, parts, tilde,
                                                problem).max_relative
    with span("verify.f_l1"):
        f_l1 = cf.f_l1_norm(mesh, degree, problem)
    with span("verify.h1"):
        err_uh = cf.h1_seminorm_error(mesh, u_h, problem.exact_grad)
        err_tilde = cf.h1_seminorm_error(mesh, tilde, problem.exact_grad)
    wall = time.perf_counter() - t0
    outcome = {
        "max_lce_uh": lce_uh, "max_lce_tilde": lce_tilde,
        "max_cons_rel": cons, "f_l1": f_l1,
        "solve_residual": float(u_h.solve_residual),
        "h1_err_uh": err_uh, "h1_err_tilde": err_tilde,
        "n_dofs": u_h.dofmap.n_dofs,
        "mesh": mesh, "u_h": u_h, "parts": parts, "tilde": tilde,
    }
    return wall, outcome


def library_gates(o):
    """The paper's gates on one library run, as a list of gate records."""
    tol = LCE_RTOL * max(1.0, o["f_l1"])
    return [
        gate("lce_tilde", o["max_lce_tilde"], "<=", tol),
        gate("lce_uh_visible", o["max_lce_uh"], ">", tol),
        gate("elemental_conservation", o["max_cons_rel"], "<=",
             CONSERVATION_RTOL),
        gate("solve_residual", o["solve_residual"], "<=", RESIDUAL_TOL),
    ]


_OPS = {"<=": operator.le, ">": operator.gt, "==": operator.eq}


def gate(name, value, op, limit):
    return {"name": name, "value": value, "op": op, "limit": limit,
            "pass": bool(_OPS[op](value, limit))}


def traced_library(cfg, seed, problem, scratch):
    """Traced repetition of a library workload: the pipeline under spans,
    then (outside the pipeline span) the 1-thread recovery when the
    workload runs more threads, and the CSV export of the run's fields."""
    tr = Tracer(run_id=f"{cfg['name']}-{seed}-{time.time_ns()}")
    counted = counted_problem(problem, tr)
    build = mesh_builder(cfg, seed)
    with tr.span("pipeline") as root:
        wall, o = library_pipeline(build, counted, cfg["degree"],
                                   cfg["threads"], tr)
    gates = library_gates(o)
    for key in ("max_lce_uh", "max_lce_tilde", "max_cons_rel"):
        tr.keep_max("verify." + key, o[key])
    tr.keep_max("solver.residual", o["solve_residual"])

    recover_s = tr.total("postprocess.recover")
    if cfg["threads"] > 1:
        # A problem object the pipeline has not used keys a fresh recovery
        # context, so both timings include the context build.
        with _recover_span(tr, "postprocess.recover_1t"):
            one = cf.postprocess_all(o["mesh"], o["u_h"].dofmap, o["parts"],
                                     o["u_h"], problem, threads=1)
        recover_1t = tr.total("postprocess.recover_1t")
        same = np.array_equal(one.coeffs, o["tilde"].coeffs)
        gates.append(gate("thread_bit_identity", bool(same), "==", True))
    else:
        recover_1t = recover_s

    out = Path(tempfile.mkdtemp(prefix="export-", dir=scratch))
    try:
        with tr.span("cli.export"):
            cf.export_solution_csv(o["u_h"], out / "solution.csv")
            cf.export_postprocessed_csv(o["tilde"], out / "tilde.csv")
        export_bytes = sum(p.stat().st_size for p in out.iterdir())
    finally:
        shutil.rmtree(out)

    layers = _layer_metrics(tr, root, cfg["degree"])
    layers.update({
        "postprocess.recover_1t_s": recover_1t,
        "postprocess.thread_speedup": recover_1t / recover_s,
        "cli.export_bytes": export_bytes,
    })
    return wall, o, gates, layers, tr


# -- CLI workload ---------------------------------------------------------

def cli_argv(cfg, out_dir):
    return ["solve", "--example", str(cfg["example"]),
            "--degree", str(cfg["degree"]),
            "--levels", ",".join(str(n) for n in cfg["levels"]),
            "--check", "all", "--threads", str(cfg["threads"]),
            "--out", str(out_dir)]


def cli_pipeline(cfg, out_dir, tr=None):
    """One `cli.main` call; returns (wall, exit status, captured stdout,
    root span or None)."""
    buf = io.StringIO()
    span = tr.span if tr else _nospan
    with redirect_stdout(buf), span("cli.main") as root:
        t0 = time.perf_counter()
        status = cli.main(cli_argv(cfg, out_dir))
        wall = time.perf_counter() - t0
    return wall, status, buf.getvalue(), root


def cli_outputs(cfg, out_dir):
    """SHA-256 and size of every CSV written, and the finest-level H1
    error of the recovered field read from the convergence table."""
    files = sorted(Path(out_dir).glob("*.csv"))
    hashes = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
              for p in files}
    size = sum(p.stat().st_size for p in files)
    conv = Path(out_dir) / f"conv_{cfg['example']}_k{cfg['degree']}.csv"
    last = conv.read_text().splitlines()[-1].split(",")
    return hashes, size, float(last[3])


def cli_patches(tr):
    """(module, attribute, wrapper) triples for every module attribute the
    CLI calls, including its `build_structured_mesh` alias and the module
    global `open` it writes the conservation CSV with."""
    w = tr.wrap
    build_mesh = w("mesh.build", mesh_mod.build_structured_mesh)

    def recover(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tr.add("cli.recoveries")
            with _recover_span(tr):
                return fn(*args, **kwargs)
        return wrapper

    def keep(name, attr):
        return lambda result: tr.keep_max(name, getattr(result, attr))

    export = [(verify, "write_lce_csv"), (verify, "write_convergence_csv"),
              (solver, "export_solution_csv"),
              (postprocess, "export_postprocessed_csv")]
    return [
        (cli, "build_structured_mesh", build_mesh),
        (mesh_mod, "build_structured_mesh", build_mesh),
        (cli, "load_example",
         lambda ex: counted_problem(cf.load_example(ex), tr)),
        (solver, "solve_problem",
         w("solver.solve_problem", solver.solve_problem,
           lambda _: tr.add("cli.solves"))),
        (solver, "build_dof_map", w("solver.dofmap", solver.build_dof_map)),
        (solver, "assemble", w("solver.assemble", solver.assemble)),
        (solver, "apply_dirichlet",
         w("solver.dirichlet", solver.apply_dirichlet,
           lambda s: _record_system(tr, s))),
        (solver, "solve", w("solver.solve", solver.solve,
                            keep("solver.residual", "solve_residual"))),
        (dualmesh, "build_partitions",
         w("dualmesh.partitions", dualmesh.build_partitions)),
        (dualmesh, "build_cv_index",
         w("dualmesh.cv_index", dualmesh.build_cv_index)),
        (postprocess, "postprocess_all", recover(postprocess.postprocess_all)),
        (verify, "postprocess_all", recover(verify.postprocess_all)),
        (verify, "compute_lce",
         w("verify.lce", verify.compute_lce, lambda r: _record_lce(tr, r))),
        (verify, "elemental_conservation_report",
         w("verify.conservation", verify.elemental_conservation_report,
           keep("verify.max_cons_rel", "max_relative"))),
        (verify, "f_l1_norm", w("verify.f_l1", verify.f_l1_norm)),
        (verify, "h1_seminorm_error",
         w("verify.h1", verify.h1_seminorm_error)),
        (verify, "h1_seminorm_diff", w("verify.h1", verify.h1_seminorm_diff)),
        (verify, "convergence_study",
         w("verify.convergence", verify.convergence_study)),
        (cli, "open", tr.timed_open("cli.export")),
    ] + [(mod, name, w("cli.export", getattr(mod, name)))
         for mod, name in export]


def traced_cli(cfg, seed, out_dir):
    tr = Tracer(run_id=f"{cfg['name']}-{seed}-{time.time_ns()}")
    with patched(cli_patches(tr)):
        wall, status, text, root = cli_pipeline(cfg, out_dir, tr)
    layers = _layer_metrics(tr, root, cfg["degree"])
    recover_s = layers["postprocess.recover_s"]
    layers.update({
        "postprocess.recover_1t_s": recover_s,   # the CLI runs one thread
        "postprocess.thread_speedup": 1.0,
    })
    return wall, status, text, layers, tr


# -- per-layer metrics ----------------------------------------------------

_SPAN_TOTALS = {
    "mesh.build_s": "mesh.build",
    "solver.dofmap_s": "solver.dofmap",
    "solver.assemble_s": "solver.assemble",
    "solver.dirichlet_s": "solver.dirichlet",
    "solver.solve_s": "solver.solve",
    "dualmesh.partitions_s": "dualmesh.partitions",
    "dualmesh.cv_index_s": "dualmesh.cv_index",
    "postprocess.recover_s": "postprocess.recover",
    "verify.lce_s": "verify.lce",
    "verify.conservation_s": "verify.conservation",
    "verify.f_l1_s": "verify.f_l1",
    "verify.h1_s": "verify.h1",
    "problems.eval_s": "problems.eval",
    "cli.export_s": "cli.export",
}

_RECORDED = ("solver.residual", "solver.n_dofs", "solver.nnz",
             "postprocess.peak_alloc_mib", "verify.max_lce_uh",
             "verify.max_lce_tilde", "verify.max_cons_rel")

_COUNTED = ("problems.kappa_points", "problems.source_points",
            "cli.solves", "cli.recoveries")


def _layer_metrics(tr, root, degree):
    out = {name: tr.total(span) for name, span in _SPAN_TOTALS.items()}
    out.update({name: tr.values[name] for name in _RECORDED})
    out.update({name: tr.counts.get(name, 0) for name in _COUNTED})
    pts, _, _ = cf.subcell_quadrature(degree, solver.default_exactness(degree))
    out["dualmesh.subcell_points"] = len(pts)
    out["trace.coverage"] = tr.coverage(root)
    return out
