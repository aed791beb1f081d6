"""Tests of the benchmark itself, at the tiny --smoke sizes.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402


def _bench(*args, cwd=ROOT):
    script = Path(cwd) / "perfbench" / "run.py"
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert spec["paths"] == ["perfbench"]


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_reports_every_metric(trace):
    proc = _bench("--workload", "all", "--seed", "3", "--seconds", "0.1",
                  "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout.strip().splitlines()[-1])
    names = run.PER_LAYER if trace else run.END_TO_END
    for workload, res in results.items():
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["correct"] and res["failed"] == 0, workload
        assert set(res["metrics"]) == set(names), workload
        for name, m in res["metrics"].items():
            assert m["unit"] == names[name]
            assert np.isfinite(m["value"])
        if trace:
            # The top-level layer spans leave no stage untimed.
            assert res["metrics"]["trace.coverage"]["value"] >= 0.9, workload
    if trace:
        cli = results["cli-check-all"]["metrics"]
        assert cli["cli.solves"]["value"] == 9
        assert cli["cli.recoveries"]["value"] == 9
        assert cli["cli.export_bytes"]["value"] > 0


def test_failed_repetition_counts_and_adds_no_timing(monkeypatch):
    good = {"ok": True, "trace": 0, "wall_s": 1.0, "setup_s": 0.5,
            "peak_rss_mib": 100.0, "h1_err_tilde": 1e-3}
    bad = dict(good, ok=False, wall_s=0.001, setup_s=0.001,
               peak_rss_mib=900.0,
               gates=[{"name": "lce_tilde", "pass": False}])
    reps = iter([good, bad, dict(good, wall_s=2.0, setup_s=0.7)])
    monkeypatch.setattr(run, "run_rep", lambda *a: next(reps))
    monkeypatch.setattr(run, "MIN_REPS", 3)
    result, record = run.bench("p1-structured", 1, 0.0, 0)
    assert (result["attempted"], result["failed"]) == (3, 1)
    assert not result["correct"]
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    assert metrics == pytest.approx({"wall_s": 1.5, "setup_s": 0.6,
                                     "peak_rss_mib": 100.0,
                                     "h1_err_tilde": 1e-3})
    assert record["samples"] == 2


def test_gates_catch_an_unrecovered_flux(monkeypatch):
    import dataclasses

    import conservaflux as cf
    import pipelines

    cfg = run.workload_config("p3-jittered", smoke=True)
    problem = cf.load_example(cfg["example"])

    def outcome():
        return pipelines.library_pipeline(pipelines.mesh_builder(cfg, 1),
                                          problem, cfg["degree"],
                                          cfg["threads"])[1]

    assert all(g["pass"] for g in pipelines.library_gates(outcome()))

    # A recovery that hands back the Galerkin coefficients unchanged.
    real = cf.postprocess_all

    def unrecovered(mesh, dofmap, parts, u_h, *args, **kwargs):
        field = real(mesh, dofmap, parts, u_h, *args, **kwargs)
        coeffs = cf.postprocess.local_coefficients(u_h)
        return dataclasses.replace(field, coeffs=coeffs)

    monkeypatch.setattr(cf, "postprocess_all", unrecovered)
    failed = [g["name"] for g in pipelines.library_gates(outcome())
              if not g["pass"]]
    assert failed == ["lce_tilde"]


def test_cli_hash_mismatch_fails_the_repetition():
    reps = [{"ok": True, "csv_sha256": {"a.csv": "1"}},
            {"ok": True, "csv_sha256": {"a.csv": "2"}}]
    run.check_csv_determinism(reps)
    assert [r["ok"] for r in reps] == [True, False]


def test_jittered_inputs_follow_the_seed():
    import pipelines

    v1, t1 = pipelines.jittered_square(6, 0.2, seed=1)
    v2, _ = pipelines.jittered_square(6, 0.2, seed=1)
    v3, _ = pipelines.jittered_square(6, 0.2, seed=2)
    assert np.array_equal(v1, v2) and not np.array_equal(v1, v3)
    c = np.linspace(0.0, 1.0, 7)
    grid = np.column_stack([a.ravel() for a in np.meshgrid(c, c)])
    moved = np.any(v1 != grid, axis=1)
    on_boundary = np.any((grid == 0.0) | (grid == 1.0), axis=1)
    assert not moved[on_boundary].any() and moved[~on_boundary].all()
    assert np.abs(v1 - grid).max() <= 0.2 / 6
    assert t1.shape == (72, 3)


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "p1-structured", "--seed", "1",
                  "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
