"""conservaflux benchmark: timed, gated runs of three workloads.

    python3 perfbench/run.py --workload p3-jittered --seed 1 --seconds 40
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 1

Run from the repository root. Every repetition runs in a fresh child process
(perfbench/rep.py) that imports the package from ./src. A run repeats the
workload until --seconds are used (at least three repetitions untraced) and
prints, as its last line, one JSON object with the medians over the passing
repetitions (for peak RSS, the largest): the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. A repetition whose gates
fail counts as failed and adds no timing. The full record, spans included,
goes to perfbench/out/.

See perfbench/README.md for why the workloads are what they are.
"""

import argparse
import ctypes
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = {
    "p1-structured": {"kind": "library", "example": 2, "degree": 1,
                      "n": 128, "jitter": 0.0, "threads": 2},
    "p3-jittered": {"kind": "library", "example": 2, "degree": 3,
                    "n": 48, "jitter": 0.2, "threads": 1},
    "cli-check-all": {"kind": "cli", "example": 3, "degree": 2,
                      "levels": (12, 24, 48), "threads": 1},
}
# Tiny sizes for the benchmark's own tests (--smoke).
SMOKE = {
    "p1-structured": {"n": 4},
    "p3-jittered": {"n": 4},
    "cli-check-all": {"levels": (6, 12, 24)},
}

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB",
              "h1_err_tilde": "1"}
PER_LAYER = {
    "mesh.build_s": "s",
    "solver.dofmap_s": "s", "solver.assemble_s": "s",
    "solver.dirichlet_s": "s", "solver.solve_s": "s",
    "solver.residual": "1", "solver.n_dofs": "count", "solver.nnz": "count",
    "dualmesh.partitions_s": "s", "dualmesh.cv_index_s": "s",
    "dualmesh.subcell_points": "count",
    "postprocess.recover_s": "s", "postprocess.recover_1t_s": "s",
    "postprocess.thread_speedup": "ratio",
    "postprocess.peak_alloc_mib": "MiB",
    "verify.lce_s": "s", "verify.conservation_s": "s", "verify.f_l1_s": "s",
    "verify.h1_s": "s", "verify.max_lce_uh": "1", "verify.max_lce_tilde": "1",
    "verify.max_cons_rel": "1",
    "problems.eval_s": "s", "problems.kappa_points": "count",
    "problems.source_points": "count",
    "cli.solves": "count", "cli.recoveries": "count", "cli.export_s": "s",
    "cli.export_bytes": "B",
    "trace.overhead_s": "s", "trace.coverage": "ratio",
}

BLAS_THREADS = 1          # at most nproc; the recovery has its own pool
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_REPS = 3              # untraced repetitions per run, at least
REP_TIMEOUT_S = 150
RUN_LIMIT_S = 150         # start no repetition that would end past this


def workload_config(name, smoke=False):
    cfg = dict(WORKLOADS[name], name=name)
    if smoke:
        cfg.update(SMOKE[name])
    return cfg


def child_env():
    env = dict(os.environ)
    env.pop("CONSERVAFLUX_THREADS", None)
    env.update({k: str(BLAS_THREADS) for k in BLAS_ENV})
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_rep(workload, seed, trace, smoke):
    """One repetition in a fresh process; its JSON record, or a failed
    record when it crashed, timed out or printed no result."""
    cmd = [sys.executable, str(HERE / "rep.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), text=True,
                              capture_output=True, timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"ok": False, "trace": trace,
                "error": f"timed out after {REP_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    try:
        rec = json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"ok": False, "trace": trace,
                "error": f"exit {proc.returncode}, no result: "
                         + proc.stderr.strip()[-2000:]}
    rec.setdefault("trace", trace)
    return rec


def repeat(workload, seed, seconds, trace, smoke):
    """Repetitions until `seconds` are used: untraced ones for --trace 0;
    for --trace 1, pairs of one untraced and one traced repetition."""
    kinds = (0, 1) if trace else (0,)
    min_rounds = 1 if trace else MIN_REPS
    reps = []
    start = time.perf_counter()
    while True:
        for t in kinds:
            reps.append(run_rep(workload, seed, t, smoke))
        rounds = len(reps) // len(kinds)
        elapsed = time.perf_counter() - start
        per_round = elapsed / rounds
        if elapsed + per_round > RUN_LIMIT_S:
            break
        # Another round may end at most half a round past --seconds.
        if rounds >= min_rounds and elapsed + per_round / 2 > seconds:
            break
    return reps


def check_csv_determinism(reps):
    """CLI repetitions of one commit must write byte-identical CSVs: a
    passing repetition whose hashes differ from the first one's fails."""
    ref = None
    for rec in reps:
        if not rec.get("ok") or "csv_sha256" not in rec:
            continue
        if ref is None:
            ref = rec["csv_sha256"]
        elif rec["csv_sha256"] != ref:
            rec["ok"] = False
            rec["error"] = "CSV hashes differ from the first repetition"


def top_percentile(n):
    """Highest percentile with at least ten samples beyond it, if any."""
    return 100.0 * (n - 10) / n if n > 10 else None


def summarize(reps, trace):
    """Medians over passing repetitions, keyed by metric name."""
    good = [r for r in reps if r.get("ok")]
    metrics = {}
    if trace:
        traced = [r for r in good if r["trace"] == 1]
        untraced = [r for r in good if r["trace"] == 0]
        if traced and untraced:
            for name in PER_LAYER:
                if name == "trace.overhead_s":
                    continue
                metrics[name] = statistics.median(
                    r["layers"][name] for r in traced)
            metrics["trace.overhead_s"] = (
                statistics.median(r["wall_s"] for r in traced)
                - statistics.median(r["wall_s"] for r in untraced))
        units = PER_LAYER
    else:
        if good:
            for name in END_TO_END:
                metrics[name] = statistics.median(r[name] for r in good)
            # A process's peak RSS on p1-structured is bimodal (about 242 or
            # 271 MiB from one repetition to the next, allocator state), so
            # the median flips between modes; the largest peak is steady and
            # is what a user must provision.
            metrics["peak_rss_mib"] = max(r["peak_rss_mib"] for r in good)
        units = END_TO_END
    return {name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()}


def provenance(reps):
    libc = ctypes.CDLL(None)
    # glibc sysconf names _SC_LEVEL2_CACHE_SIZE / _SC_LEVEL3_CACHE_SIZE;
    # glibc reads them from cpuid on x86.
    l2, l3 = (libc.sysconf(c) for c in (191, 194))
    child = next((r["provenance"] for r in reps if "provenance" in r), {})
    rss = [r["peak_rss_mib"] for r in reps if "peak_rss_mib" in r]
    l3_mib = l3 / 2 ** 20 if l3 > 0 else None
    return dict(child, nproc=len(os.sched_getaffinity(0)),
                l2_mib=l2 / 2 ** 20 if l2 > 0 else None, l3_mib=l3_mib,
                blas_threads=BLAS_THREADS,
                working_set_over_l3=(statistics.median(rss) / l3_mib
                                     if rss and l3_mib else None))


def bench(workload, seed, seconds, trace, smoke=False):
    """Run one workload; returns (last-line result, full record)."""
    reps = repeat(workload, seed, seconds, trace, smoke)
    check_csv_determinism(reps)
    failed = sum(not r.get("ok") for r in reps)
    metrics = summarize(reps, trace)
    result = {"correct": failed == 0 and bool(metrics),
              "attempted": len(reps), "failed": failed, "metrics": metrics}
    n = len(reps) - failed
    record = dict(result, workload=workload, seed=seed, seconds=seconds,
                  trace=trace, smoke=smoke,
                  config=workload_config(workload, smoke),
                  samples=n, top_percentile=top_percentile(n),
                  provenance=provenance(reps), repetitions=reps)
    return result, record


def write_record(record):
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / (f"{record['workload']}-trace{record['trace']}"
                  f"-seed{record['seed']}.json")
    path.write_text(json.dumps(record, indent=1))
    return path


def report(record):
    """Human-readable lines: each metric by name and unit, and the gates
    of failed repetitions."""
    print(f"workload={record['workload']} seed={record['seed']} "
          f"trace={record['trace']} attempted={record['attempted']} "
          f"failed={record['failed']} samples={record['samples']} "
          f"top_percentile={record['top_percentile']}")
    for name, m in record["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    for rec in record["repetitions"]:
        if not rec.get("ok"):
            bad = [g["name"] for g in rec.get("gates", []) if not g["pass"]]
            why = rec.get("error") or rec.get("stdout_tail")
            print(f"  FAILED repetition: gates={bad} error={why}")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny problem sizes, for the benchmark's own tests")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "conservaflux" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'conservaflux'}; "
              "run from the repository root", file=sys.stderr)
        return 2

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result, record = bench(name, args.seed, args.seconds, args.trace,
                               args.smoke)
        report(record)
        print(f"  record: {write_record(record).relative_to(ROOT)}")
        results[name] = result
    final = results if args.workload == "all" else results[args.workload]
    print(json.dumps(final))
    return 0 if all(r["metrics"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
