"""Command-line driver: solve, recover fluxes, and run conservation and
convergence checks on the built-in test problems, emitting CSV artifacts.

Exit status is 0 exactly when every enabled check passes its tolerance.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from . import dualmesh, postprocess, solver, verify
from .mesh import build_structured_mesh
from .problems import load_example
from .quadrature import triangle_rule

CHECKS = ("lce", "conservation", "convergence", "all")

DEFAULT_LCE_N = 8
DEFAULT_TOL_LCE = 1e-10
CONSERVATION_RTOL = 1e-10

# Refinement ladders reaching the asymptotic regime at desk scale. The
# oscillatory-coefficient problem (example 3) gets multiples of 3 so element
# boundaries resolve the coefficient period.
DEFAULT_LADDERS = {
    1: [8, 16, 32, 64],
    2: [4, 8, 16, 32],
    3: [4, 8, 16],
}
DEFAULT_LADDERS_EX3 = {
    1: [24, 48, 96],
    2: [12, 24, 48],
    3: [12, 24, 48],
}

# H1 rate window by degree; `rate_window` widens it to 0.2 for example 3.
RATE_WINDOWS = {1: 0.15, 2: 0.15, 3: 0.2}


def rate_window(example, degree):
    return 0.2 if example == 3 else RATE_WINDOWS[degree]


def default_ladder(example, degree):
    table = DEFAULT_LADDERS_EX3 if example == 3 else DEFAULT_LADDERS
    return list(table[degree])


def _check_lce(args, problem, out, n, level):
    """The lce check on one solved level: both LCE reports and their CSVs,
    then the solution and recovered-field CSVs. Returns (lines, failures)."""
    mesh, u_h, parts, tilde = level
    cv = dualmesh.build_cv_index(mesh, u_h.dofmap, parts)
    # ||f||_1 from the level's own source pass; f_l1_norm's element
    # rule agrees with it to quadrature accuracy.
    scale = max(1.0, float(u_h.discretization.f_abs.sum()))
    tol = args.tol_lce * scale
    lines, failures = [], []
    for fname, fld in (("uh", u_h), ("tilde", tilde)):
        report = verify.compute_lce(mesh, cv, parts, fld, problem)
        path = out / f"lce_{fname}_{args.example}_k{args.degree}_n{n}.csv"
        verify.write_lce_csv(report, path)
        if fname == "tilde":
            ok = report.max_abs <= tol
            lines.append(f"check=lce example={args.example} k={args.degree} "
                         f"n={n} max_lce_tilde={report.max_abs:.3e} "
                         f"tol={tol:.3e} {'PASS' if ok else 'FAIL'}")
            if not ok:
                failures.append(f"lce n={n}: {report.max_abs:.3e} > {tol:.3e}")
        else:
            lines.append(f"check=lce example={args.example} k={args.degree} "
                         f"n={n} max_lce_uh={report.max_abs:.3e} "
                         "(unprocessed, informational)")
    solver.export_solution_csv(
        u_h, out / f"solution_{args.example}_k{args.degree}_n{n}.csv")
    postprocess.export_postprocessed_csv(
        tilde, out / f"tilde_{args.example}_k{args.degree}_n{n}.csv")
    return lines, failures


def _check_conservation(args, problem, out, n, level):
    """The conservation check on one solved level: the elemental report and
    its CSV. Returns (lines, failures)."""
    mesh, _, parts, tilde = level
    report = verify.elemental_conservation_report(mesh, parts, tilde, problem)
    path = out / f"conservation_{args.example}_k{args.degree}_n{n}.csv"
    verify.write_conservation_csv(report, path)
    ok = report.max_relative <= CONSERVATION_RTOL
    line = (f"check=conservation example={args.example} k={args.degree} "
            f"n={n} max_residual={report.max_residual:.3e} "
            f"max_relative={report.max_relative:.3e} "
            f"tol={CONSERVATION_RTOL:.1e} {'PASS' if ok else 'FAIL'}")
    if ok:
        return [line], []
    return [line], [f"conservation n={n}: relative "
                    f"{report.max_relative:.3e} > {CONSERVATION_RTOL:.1e}"]


def _check_convergence(args, out, table):
    """The convergence check on its ladder's table: writes the CSV, prints
    the verdict and returns the failures."""
    verify.write_convergence_csv(
        table, out / f"conv_{args.example}_k{args.degree}.csv")
    window = rate_window(args.example, args.degree)
    k = args.degree
    if table.exact:
        print(f"check=convergence example={args.example} k={k} "
              "errors at rounding level (exact reproduction) PASS")
        return []
    ok_uh = abs(table.slope_uh - k) <= window
    ok_tilde = abs(table.slope_tilde - k) <= window
    print(f"check=convergence example={args.example} k={k} "
          f"levels={','.join(str(n) for n in table.ns)} "
          f"slope_uh={table.slope_uh:.3f} slope_tilde={table.slope_tilde:.3f} "
          f"slope_diff={table.slope_diff:.3f} window=k+-{window:.2f} "
          f"{'PASS' if ok_uh and ok_tilde else 'FAIL'}")
    failures = []
    if not ok_uh:
        failures.append(f"convergence: slope_uh {table.slope_uh:.3f} outside "
                        f"{k}+-{window}")
    if not ok_tilde:
        failures.append(f"convergence: slope_tilde {table.slope_tilde:.3f} "
                        f"outside {k}+-{window}")
    return failures


_LEVEL_CHECKS = {"lce": _check_lce, "conservation": _check_conservation}


def _run_level(args, problem, out, n, checks, h1):
    """Solve and recover level n, run `checks` on it and, when `h1`, take
    its row of the convergence table. The level is dropped on return;
    returns {check: (lines, failures)}, with the row under "h1"."""
    level = verify.solve_level(problem, args.degree, n, args.quad_exactness,
                               args.threads)
    done = {name: _LEVEL_CHECKS[name](args, problem, out, n, level)
            for name in checks}
    if h1:
        done["h1"] = verify.level_errors(problem, level)
    return done


def run(args, check):
    """Run `check` (`all`: each in turn) on the parsed arguments, whose
    `levels` holds the run's mesh levels; returns a process exit status.

    One pass visits each distinct level once, those of `levels` first,
    then the rest of the convergence ladder, and drops it after its last
    check, so the run holds one level at a time. The lce lines print as
    their levels finish, in the order of `levels`; the conservation and
    convergence lines print after the pass."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    problem = load_example(args.example)
    checks = [name for name in _LEVEL_CHECKS if check in (name, "all")]
    levels = args.levels if checks else []
    ladder = []
    if check in ("convergence", "all"):
        ladder = args.levels
        if len(set(ladder)) < 3:
            ladder = default_ladder(args.example, args.degree)

    done, shown = {}, 0
    for n in dict.fromkeys(levels + ladder):
        done[n] = _run_level(args, problem, out, n,
                             checks if n in levels else (), n in ladder)
        while ("lce" in checks and shown < len(levels)
               and levels[shown] in done):
            print(*done[levels[shown]]["lce"][0], sep="\n")
            shown += 1

    failures = []
    for name in checks:
        for n in levels:
            lines, failed = done[n][name]
            if name != "lce":
                print(*lines, sep="\n")
            failures += failed
    if ladder:
        failures += _check_convergence(
            args, out, verify.ConvergenceTable.from_rows(
                args.degree, ladder, [done[n]["h1"] for n in ladder]))
    if failures:
        print(f"{len(failures)} check(s) failed:")
        for msg in failures:
            print(f"  {msg}")
        return 1
    return 0


def _parse_levels(text):
    try:
        levels = [int(x) for x in text.split(",") if x.strip()]
    except ValueError:
        levels = []
    if not levels:
        raise argparse.ArgumentTypeError(f"bad level list {text!r}")
    return levels


def _add_common(p):
    p.add_argument("--example", type=int, choices=(1, 2, 3), required=True)
    p.add_argument("--degree", type=int, choices=(1, 2, 3), required=True)
    p.add_argument("--n", type=int, default=None,
                   help="single mesh subdivision count")
    p.add_argument("--levels", type=_parse_levels, default=None,
                   help="comma-separated ladder, e.g. 8,16,32")
    p.add_argument("--out", type=Path, default=Path("out"))
    p.add_argument("--quad-exactness", type=int, default=None)
    p.add_argument("--tol-lce", type=float, default=DEFAULT_TOL_LCE)
    p.add_argument("--threads", type=int, default=None,
                   help="overrides CONSERVAFLUX_THREADS")


def _levels_from_args(args, check):
    """The run's mesh levels; a convergence ladder given on the command
    line must have at least 3 distinct levels (`--check all` falls back to
    the default ladder instead)."""
    if check == "convergence":
        if args.levels and len(set(args.levels)) < 3:
            raise ValueError(f"convergence needs at least 3 distinct levels, "
                             f"got --levels {','.join(map(str, args.levels))}")
        if not args.levels and args.n is not None:
            raise ValueError(f"convergence needs --levels a,b,c (at least "
                             f"3), got --n {args.n}")
    if args.levels:
        return args.levels
    if args.n is not None:
        return [args.n]
    if check == "convergence":
        return default_ladder(args.example, args.degree)
    return [DEFAULT_LCE_N]


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="conservaflux",
        description="Continuous Galerkin solver with locally conservative "
                    "flux recovery on nodal control volumes")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve and run checks")
    _add_common(p_solve)
    p_solve.add_argument("--check", choices=CHECKS, default="lce")

    p_conv = sub.add_parser("convergence", help="run a refinement ladder")
    _add_common(p_conv)

    p_dual = sub.add_parser("export-dual", help="dump the dual mesh as CSV")
    p_dual.add_argument("--degree", type=int, choices=(1, 2, 3), required=True)
    p_dual.add_argument("--n", type=int, default=DEFAULT_LCE_N)
    p_dual.add_argument("--out", type=Path, default=Path("out"))

    args = parser.parse_args(argv)

    if args.command == "export-dual":
        if args.n < 1:
            p_dual.error(f"--n must be >= 1, got {args.n}")
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        mesh = build_structured_mesh(args.n)
        parts = dualmesh.build_partitions(mesh, args.degree)
        path = out / f"dual_k{args.degree}_n{args.n}.csv"
        dualmesh.export_dual_csv(parts, path)
        print(f"wrote {path}")
        return 0

    check = args.check if args.command == "solve" else "convergence"
    try:
        args.levels = _levels_from_args(args, check)
        if any(n < 1 for n in args.levels):
            raise ValueError(f"mesh levels must be >= 1, got {args.levels}")
        if not (math.isfinite(args.tol_lce) and args.tol_lce > 0):
            raise ValueError(f"tol_lce must be finite and > 0, got "
                             f"{args.tol_lce!r}")
        postprocess._thread_count(args.threads)
        if args.quad_exactness is not None:
            triangle_rule(args.quad_exactness)
    except ValueError as err:
        parser.error(str(err))
    return run(args, check)


if __name__ == "__main__":
    sys.exit(main())
