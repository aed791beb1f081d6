import gc
import re
import weakref

import numpy as np
import pytest

from conservaflux.cli import default_ladder, main


def test_solve_lce_check_passes(tmp_path):
    code = main(["solve", "--example", "1", "--degree", "2", "--n", "8",
                 "--check", "lce", "--out", str(tmp_path)])
    assert code == 0
    for name in ("lce_tilde_1_k2_n8.csv", "lce_uh_1_k2_n8.csv",
                 "solution_1_k2_n8.csv", "tilde_1_k2_n8.csv"):
        assert (tmp_path / name).exists()
    rows = (tmp_path / "lce_tilde_1_k2_n8.csv").read_text().splitlines()[1:]
    vals = np.array([float(r.split(",")[4]) for r in rows])
    assert np.abs(vals).max() <= 1e-10


def test_solve_conservation_check(tmp_path):
    code = main(["solve", "--example", "1", "--degree", "3", "--n", "4",
                 "--check", "conservation", "--out", str(tmp_path)])
    assert code == 0
    rows = (tmp_path / "conservation_1_k3_n4.csv").read_text().splitlines()
    assert rows[0] == "element,residual,scale"
    assert len(rows) == 1 + 2 * 4 * 4


def test_convergence_subcommand(tmp_path):
    code = main(["convergence", "--example", "1", "--degree", "1",
                 "--levels", "8,16,32", "--out", str(tmp_path)])
    assert code == 0
    rows = (tmp_path / "conv_1_k1.csv").read_text().splitlines()
    assert rows[0] == "n,h,err_uh,err_tilde,err_diff"
    assert len(rows) == 4
    errs = np.array([[float(x) for x in r.split(",")[2:]] for r in rows[1:]])
    # each refinement roughly halves the H1 errors
    assert np.all(errs[:-1, 0] / errs[1:, 0] > 1.7)


def test_failing_check_gives_nonzero_exit(tmp_path, capsys):
    code = main(["solve", "--example", "1", "--degree", "1", "--n", "4",
                 "--check", "lce", "--tol-lce", "1e-30",
                 "--out", str(tmp_path)])
    assert code == 1
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_export_dual(tmp_path):
    code = main(["export-dual", "--degree", "2", "--n", "2",
                 "--out", str(tmp_path)])
    assert code == 0
    rows = (tmp_path / "dual_k2_n2.csv").read_text().splitlines()
    assert rows[0] == "x0,y0,x1,y1,class,element,local_dof"
    assert len(rows) > 8 * 10


@pytest.mark.parametrize("n", ["0", "-3"])
def test_export_dual_rejects_empty_mesh(n, tmp_path, capsys):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["export-dual", "--degree", "2", "--n", n, "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert err[-1].endswith(f"--n must be >= 1, got {n}")
    assert not out.exists()


def test_byte_identical_reruns(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["solve", "--example", "2", "--degree", "1", "--n", "4",
                     "--check", "lce", "--out", str(out)]) == 0
    for name in ("lce_tilde_2_k1_n4.csv", "lce_uh_2_k1_n4.csv",
                 "solution_2_k1_n4.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


@pytest.mark.parametrize("levels", ["12,24,48", "12,24,96"])
def test_csvs_do_not_depend_on_the_blas_thread_count(levels, tmp_path):
    # Each setting runs in a child process, since OpenBLAS reads it once,
    # at load. The dense last levels of 12,24,48 have 143, 36 and 132 rows;
    # with LAPACK on the whole level, 11 of the 16 CSVs (levels 12 and 48)
    # differed between 1 and 2 BLAS threads. At n = 96 (37,249 dofs) the
    # CG's vectors are long enough for BLAS's dot products to run on
    # threads: with them, the 5 CSVs of n = 96 and conv_3_k2.csv differed.
    import os
    import subprocess
    import sys
    from pathlib import Path
    src = Path(__file__).resolve().parents[1] / "src"
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       [str(src), os.environ.get("PYTHONPATH", "")]))
        env.pop("CONSERVAFLUX_THREADS", None)
        subprocess.run(
            [sys.executable, "-c",
             "import sys; from conservaflux.cli import main; "
             "sys.exit(main(sys.argv[1:]))",
             "solve", "--example", "3", "--degree", "2", "--levels",
             levels, "--check", "all", "--threads", "1", "--out",
             str(out)], env=env, check=True, capture_output=True)
        outs.append(out)
    names = sorted(p.name for p in outs[0].iterdir())
    assert len(names) == 16
    assert names == sorted(p.name for p in outs[1].iterdir())
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_convergence_requires_ladder_with_n():
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--example", "1", "--degree", "1", "--n", "8",
              "--check", "convergence"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", [["solve", "--check", "convergence"],
                                     ["convergence"]])
@pytest.mark.parametrize("args, value", [(["--levels", "4,8"], "--levels 4,8"),
                                         (["--n", "4"], "--n 4"),
                                         (["--levels", "8,8,8"],
                                          "--levels 8,8,8")])
def test_short_convergence_ladder_is_a_usage_error(command, args, value,
                                                   tmp_path, capsys):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(command + ["--example", "1", "--degree", "1", "--out", str(out)]
             + args)
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()[-1]
    assert "at least 3" in err and err.endswith(f"got {value}")
    assert not out.exists()


@pytest.mark.parametrize("command", [["solve"], ["convergence"]])
@pytest.mark.parametrize("value", ["", ","])
def test_empty_level_list_is_a_usage_error(command, value, tmp_path, capsys):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(command + ["--example", "1", "--degree", "1", "--levels", value,
                        "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()[-1]
    assert err.endswith(f"bad level list {value!r}")
    assert not out.exists()


def test_default_ladders_shape():
    assert default_ladder(1, 1) == [8, 16, 32, 64]
    assert default_ladder(2, 3) == [4, 8, 16]
    for k in (1, 2, 3):
        ladder = default_ladder(3, k)
        assert all(n % 3 == 0 for n in ladder)
        assert len(ladder) >= 3


def test_check_all_short_ladder_falls_back_to_default(tmp_path, capsys):
    # Three copies of one level are one level: the rates need the default.
    assert main(["solve", "--example", "1", "--degree", "3", "--levels",
                 "4,4,4", "--check", "all", "--out", str(tmp_path)]) == 0
    conv = [ln for ln in capsys.readouterr().out.splitlines()
            if ln.startswith("check=convergence")]
    assert len(conv) == 1 and " levels=4,8,16 " in conv[0]


def test_check_all_solves_each_level_once(tmp_path, monkeypatch):
    from conservaflux import solver
    real = solver.solve_problem
    solved = []

    def counting(mesh, *args, **kwargs):
        solved.append(mesh.n_triangles)
        return real(mesh, *args, **kwargs)

    monkeypatch.setattr(solver, "solve_problem", counting)
    base = ["solve", "--example", "3", "--degree", "2", "--levels", "6,12,24"]
    assert main(base + ["--check", "all", "--out", str(tmp_path / "all")]) == 0
    assert solved == [2 * n * n for n in (6, 12, 24)]
    # The shared levels change no artifact: separate runs write the same bytes.
    for check in ("lce", "conservation", "convergence"):
        assert main(base + ["--check", check,
                            "--out", str(tmp_path / "each")]) == 0
    names = sorted(p.name for p in (tmp_path / "all").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "each").iterdir())
    for name in names:
        assert ((tmp_path / "all" / name).read_bytes()
                == (tmp_path / "each" / name).read_bytes()), name


def test_each_level_is_released_before_the_next_is_solved(tmp_path,
                                                         monkeypatch):
    # `--check all` on 8,4 runs the fallback ladder 4,8,16,32: one pass over
    # 8, 4, 16, 32. With the garbage collector off, a level is freed when
    # its last reference goes, so no mesh of an earlier level may be alive
    # when a level is solved.
    from conservaflux import verify
    real = verify.solve_level
    meshes = {}

    def solve_level(problem, degree, n, *args, **kwargs):
        held = [m for m, ref in meshes.items() if ref() is not None]
        assert not held, f"levels {held} held while solving level {n}"
        level = real(problem, degree, n, *args, **kwargs)
        meshes[n] = weakref.ref(level[0])
        return level

    monkeypatch.setattr(verify, "solve_level", solve_level)
    gc.disable()
    try:
        assert main(["solve", "--example", "2", "--degree", "2", "--levels",
                     "8,4", "--check", "all", "--out", str(tmp_path)]) == 0
    finally:
        gc.enable()
    assert list(meshes) == [8, 4, 16, 32]


def test_quad_exactness_sets_every_level_rule(tmp_path, monkeypatch, capsys):
    # --quad-exactness sets the rule of each level's one set of blocks, which
    # the solve, the recovery, the checks and the H1 errors all read.
    from conservaflux import solver
    built = []

    class Counted(solver.Discretization):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self.exactness)

    monkeypatch.setattr(solver, "Discretization", Counted)
    assert main(["solve", "--example", "2", "--degree", "3", "--levels",
                 "4,8,16", "--check", "all", "--quad-exactness", "5",
                 "--out", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 10
    assert all(line.endswith("PASS") for line in lines
               if "informational" not in line)
    assert built == [5, 5, 5]


def test_lce_check_samples_the_source_once_per_level(tmp_path, monkeypatch):
    # The lce tolerance's ||f||_1 comes from the level's own source pass,
    # not from a second pass over the composite rule.
    import dataclasses

    from conservaflux import cli, load_example, solver, subcell_quadrature
    points = []

    def counted(ex):
        prob = load_example(ex)

        def source(x, y):
            points.append(np.size(x))
            return prob.source(x, y)
        return dataclasses.replace(prob, source=source)

    monkeypatch.setattr(cli, "load_example", counted)
    levels = (3, 6)
    assert main(["solve", "--example", "2", "--degree", "2", "--levels",
                 ",".join(map(str, levels)), "--check", "lce",
                 "--out", str(tmp_path)]) == 0
    pts, _, _ = subcell_quadrature(2, solver.default_exactness(2))
    assert sum(points) == len(pts) * sum(2 * n * n for n in levels)


@pytest.mark.parametrize("args, env, message", [
    (["--threads", "0"], None, "threads must be a positive integer, got 0"),
    (["--threads", "-2"], None, "threads must be a positive integer, got -2"),
    ([], "abc", "CONSERVAFLUX_THREADS must be a positive integer, got 'abc'"),
    (["--tol-lce", "nan"], None, "tol_lce must be finite and > 0, got nan"),
    (["--tol-lce", "-1"], None, "tol_lce must be finite and > 0, got -1.0"),
    (["--tol-lce", "0"], None, "tol_lce must be finite and > 0, got 0.0"),
    (["--tol-lce", "inf"], None, "tol_lce must be finite and > 0, got inf"),
    (["--levels", "0,4"], None, "mesh levels must be >= 1, got [0, 4]"),
    (["--quad-exactness", "99"], None,
     "unsupported triangle exactness request: 99 (supported: 0..60)"),
    (["--quad-exactness", "-1"], None,
     "unsupported triangle exactness request: -1 (supported: 0..60)"),
    (["--example", "5"], None,
     "argument --example: invalid choice: 5 (choose from 1, 2, 3)"),
    (["--degree", "9"], None,
     "argument --degree: invalid choice: 9 (choose from 1, 2, 3)"),
])
def test_malformed_values_fail_before_solving(args, env, message, tmp_path,
                                              monkeypatch, capsys):
    from conservaflux import solver

    def never(*args, **kwargs):
        raise AssertionError("solve_problem called")

    monkeypatch.setattr(solver, "solve_problem", never)
    if env is None:
        monkeypatch.delenv("CONSERVAFLUX_THREADS", raising=False)
    else:
        monkeypatch.setenv("CONSERVAFLUX_THREADS", env)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--example", "2", "--degree", "3", "--n", "96",
              "--out", str(out)] + args)
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()[-1]
    # Later Python releases quote the rejected choice.
    assert re.sub(r"choice: '(\w+)'", r"choice: \1", err).endswith(message)
    assert not out.exists()
