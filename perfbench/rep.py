"""One benchmark repetition, run by perfbench/run.py in a fresh process.

The process sets up (imports the package, loads the example and runs one
warm-up pipeline of the same example and degree on n=2), then runs the
workload once, checks the paper's gates on the result, and prints one JSON
object as the last line of its standard output:

    python3 perfbench/rep.py --workload p1-structured --seed 1 --trace 0

A repetition whose gates fail reports "ok": false; run.py then counts it
as failed and uses none of its timings.
"""

import time

T0 = time.perf_counter()  # set-up is timed from here, before numpy loads

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from run import workload_config  # noqa: E402  (stdlib-only module)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _provenance(np, scipy, cf):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "conservaflux": cf.__version__,
        "package_path": str(Path(cf.__file__).resolve().parent),
        "blas_threads_env": {k: os.environ.get(k) for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                              "MKL_NUM_THREADS")},
    }


def run(workload, seed, trace, smoke):
    cfg = workload_config(workload, smoke)
    # Imported here so that the set-up time covers numpy, scipy and the
    # package itself.
    import numpy as np
    import scipy
    import conservaflux as cf
    import pipelines

    if ROOT / "src" not in Path(cf.__file__).resolve().parents:
        raise RuntimeError(f"conservaflux imported from {cf.__file__}, "
                           f"not from {ROOT / 'src'}")
    problem = cf.load_example(cfg["example"])
    pipelines.library_pipeline(lambda: cf.build_structured_mesh(2), problem,
                               cfg["degree"], threads=1)
    setup_s = time.perf_counter() - T0

    result = {"workload": workload, "seed": seed, "trace": trace,
              "threads": cfg["threads"], "setup_s": setup_s,
              "provenance": _provenance(np, scipy, cf)}
    scratch = HERE / "out"
    scratch.mkdir(exist_ok=True)

    if cfg["kind"] == "cli":
        out_dir = tempfile.mkdtemp(prefix="cli-", dir=scratch)
        try:
            if trace:
                wall, status, text, layers, tr = pipelines.traced_cli(
                    cfg, seed, out_dir)
            else:
                wall, status, text, _ = pipelines.cli_pipeline(cfg, out_dir)
            gates = [pipelines.gate("exit_status", status, "==", 0)]
            hashes, size, h1 = (pipelines.cli_outputs(cfg, out_dir)
                                if status == 0 else ({}, 0, None))
        finally:
            shutil.rmtree(out_dir)
        result.update(csv_sha256=hashes, h1_err_tilde=h1)
        if trace:
            layers["cli.export_bytes"] = size
        if status != 0:
            result["stdout_tail"] = text.splitlines()[-10:]
    else:
        if trace:
            wall, o, gates, layers, tr = pipelines.traced_library(
                cfg, seed, problem, scratch)
        else:
            build = pipelines.mesh_builder(cfg, seed)
            wall, o = pipelines.library_pipeline(build, problem,
                                                 cfg["degree"], cfg["threads"])
            gates = pipelines.library_gates(o)
        result.update(h1_err_tilde=o["h1_err_tilde"],
                      h1_err_uh=o["h1_err_uh"], n_dofs=o["n_dofs"],
                      n_elements=o["mesh"].n_triangles)

    result.update(
        wall_s=wall, gates=gates,
        ok=all(g["pass"] for g in gates),
        peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    if trace:
        result.update(layers=layers, spans=tr.spans,
                      self_times=tr.self_times())
    return result


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.trace, args.smoke)
    except Exception as exc:  # reported to run.py as a failed repetition
        result = {"workload": args.workload, "seed": args.seed, "ok": False,
                  "error": f"{type(exc).__name__}: {exc}",
                  "traceback": traceback.format_exc()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
