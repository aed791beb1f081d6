"""Byte identity of the column-wise CSV writers against row-by-row oracles.

The oracles below are the writers as they were before the block writer:
one csv.writer row (CRLF) or one f-string line (LF, conservation) per
record, one repr(float(...)) per value, one element at a time.
"""

import csv

import numpy as np
import pytest

from conservaflux import (build_cv_index, build_partitions,
                          build_structured_mesh, compute_lce,
                          elemental_conservation_report, export_dual_csv,
                          export_postprocessed_csv, export_solution_csv,
                          load_example, postprocess_all, ref_nodes,
                          solve_problem, write_conservation_csv,
                          write_convergence_csv, write_lce_csv)
from conservaflux._table import BLOCK_ROWS
from conservaflux.cli import main
from conservaflux.verify import (ConvergenceTable,
                                 ElementalConservationReport, LceReport,
                                 convergence_table)

SPECIAL = [-0.0, 0.0, 5e-324, 1e-05, 1e+16, np.inf, -np.inf, np.nan]


# -- row-by-row oracles ----------------------------------------------------

def oracle_solution(field, path):
    dm = field.dofmap
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["dof_index", "x", "y", "value"])
        for i in range(dm.n_dofs):
            writer.writerow([i, repr(float(dm.coords[i, 0])),
                             repr(float(dm.coords[i, 1])),
                             repr(float(field.values[i]))])


def oracle_postprocessed(field, path):
    nodes_ref = ref_nodes(field.degree)
    v0, jac, _, _ = field.mesh.element_maps()
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["element", "local_dof", "x", "y", "alpha"])
        for t in range(field.mesh.n_triangles):
            pts = nodes_ref @ jac[t].T + v0[t]
            for i in range(len(nodes_ref)):
                writer.writerow([t, i, repr(float(pts[i, 0])),
                                 repr(float(pts[i, 1])),
                                 repr(float(field.coeffs[t, i]))])


def oracle_lce(report, path):
    kind_names = {0: "vertex", 1: "edge", 2: "interior"}
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["dof_index", "class", "x", "y", "lce"])
        for i in range(len(report.dof_ids)):
            writer.writerow([
                int(report.dof_ids[i]),
                kind_names[int(report.kinds[i])],
                repr(float(report.coords[i, 0])),
                repr(float(report.coords[i, 1])),
                repr(float(report.values[i])),
            ])


def oracle_conservation(report, path):
    with open(path, "w", newline="") as f:
        f.write("element,residual,scale\n")
        for t in range(len(report.residuals)):
            f.write(f"{t},{float(report.residuals[t])!r},"
                    f"{float(report.scales[t])!r}\n")


def oracle_convergence(table, path):
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["n", "h", "err_uh", "err_tilde", "err_diff"])
        for i in range(len(table.ns)):
            writer.writerow([
                int(table.ns[i]),
                repr(float(table.hs[i])),
                repr(float(table.err_uh[i])),
                repr(float(table.err_tilde[i])),
                repr(float(table.err_diff[i])),
            ])


def oracle_dual(partitions, path):
    ref = partitions.ref
    ns, nb = len(ref.cv_start), len(ref.bd_start)
    owner = np.concatenate([ref.cv_plus, ref.cv_minus, ref.bd_owner])
    cls = ["cv"] * (2 * ns) + ["element"] * nb
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["x0", "y0", "x1", "y1", "class", "element",
                         "local_dof"])
        for t in range(partitions.mesh.n_triangles):
            J, v0 = partitions.jac[t], partitions.v0[t]
            start = np.vstack([ref.cv_start, ref.cv_start,
                               ref.bd_start]) @ J.T + v0
            end = np.vstack([ref.cv_end, ref.cv_end, ref.bd_end]) @ J.T + v0
            start[ns:2 * ns], end[ns:2 * ns] = (end[ns:2 * ns].copy(),
                                                start[ns:2 * ns].copy())
            for i in range(len(owner)):
                writer.writerow([
                    repr(float(start[i, 0])), repr(float(start[i, 1])),
                    repr(float(end[i, 0])), repr(float(end[i, 1])),
                    cls[i], t, int(owner[i]),
                ])


def same_bytes(tmp_path, writer, oracle, obj):
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    writer(obj, new)
    oracle(obj, old)
    return new.read_bytes() == old.read_bytes()


# -- library writers on solved levels -------------------------------------

@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("mesh_kind", ["structured", "jittered"])
def test_writers_match_row_oracles(k, mesh_kind, jittered_mesh, tmp_path):
    mesh = (build_structured_mesh(5) if mesh_kind == "structured"
            else jittered_mesh(5, seed=k))
    prob = load_example(2)
    u = solve_problem(mesh, k, prob)
    parts = build_partitions(mesh, k)
    tilde = postprocess_all(mesh, u.dofmap, parts, u, prob)
    cv = build_cv_index(mesh, u.dofmap, parts)
    cases = [
        (export_solution_csv, oracle_solution, u),
        (export_postprocessed_csv, oracle_postprocessed, tilde),
        (export_dual_csv, oracle_dual, parts),
        (write_conservation_csv, oracle_conservation,
         elemental_conservation_report(mesh, parts, tilde, prob)),
    ] + [(write_lce_csv, oracle_lce, compute_lce(mesh, cv, parts, f, prob))
         for f in (u, tilde)]
    for writer, oracle, obj in cases:
        assert same_bytes(tmp_path, writer, oracle, obj), writer.__name__


def test_rows_crossing_block_boundaries(tmp_path):
    # 2 * BLOCK_ROWS + 1 rows: two full blocks and a one-row tail.
    n = 2 * BLOCK_ROWS + 1
    rng = np.random.default_rng(7)
    report = LceReport(field_name="uh", dof_ids=np.arange(n) * 3,
                       kinds=rng.integers(0, 3, n),
                       coords=rng.integers(0, 40, (n, 2)) / 39.0,
                       values=rng.standard_normal(n) * 1e-9)
    assert same_bytes(tmp_path, write_lce_csv, oracle_lce, report)
    cons = ElementalConservationReport(residuals=rng.random(n) * 1e-15,
                                       scales=1.0 + rng.random(n))
    assert same_bytes(tmp_path, write_conservation_csv, oracle_conservation,
                      cons)
    # A solution whose dof count crosses a block boundary.
    u = solve_problem(build_structured_mesh(24), 2, load_example(1))
    assert u.dofmap.n_dofs > BLOCK_ROWS
    assert same_bytes(tmp_path, export_solution_csv, oracle_solution, u)


def test_lce_report_without_interior_dofs_is_header_only(tmp_path):
    prob = load_example(1)
    mesh = build_structured_mesh(1)
    u = solve_problem(mesh, 1, prob)
    parts = build_partitions(mesh, 1)
    report = compute_lce(mesh, build_cv_index(mesh, u.dofmap, parts), parts,
                         u, prob)
    assert len(report.dof_ids) == 0
    assert same_bytes(tmp_path, write_lce_csv, oracle_lce, report)
    assert (tmp_path / "new.csv").read_bytes() == b"dof_index,class,x,y,lce\r\n"


def test_special_values_in_value_and_coordinate_columns(tmp_path):
    vals = np.array(SPECIAL * 2)
    n = len(vals)
    coords = np.column_stack([vals, vals[::-1]])
    report = LceReport(field_name="tilde", dof_ids=np.arange(n),
                       kinds=np.arange(n) % 3, coords=coords, values=vals)
    assert same_bytes(tmp_path, write_lce_csv, oracle_lce, report)
    text = (tmp_path / "new.csv").read_text()
    for spelled in ("-0.0", "5e-324", "1e-05", "1e+16", "-inf", "nan"):
        assert spelled in text
    cons = ElementalConservationReport(residuals=vals, scales=vals[::-1])
    assert same_bytes(tmp_path, write_conservation_csv, oracle_conservation,
                      cons)
    table = ConvergenceTable(degree=1, ns=np.arange(n) + 1, hs=vals,
                             err_uh=vals[::-1], err_tilde=vals,
                             err_diff=vals)
    assert same_bytes(tmp_path, write_convergence_csv, oracle_convergence,
                      table)


# -- the CLI ---------------------------------------------------------------

def test_cli_check_all_matches_oracles_on_its_levels(tmp_path, monkeypatch):
    from conservaflux import verify
    real = verify.solve_level
    levels = {}

    def keep(problem, degree, n, *args, **kwargs):
        levels[n] = real(problem, degree, n, *args, **kwargs)
        return levels[n]

    monkeypatch.setattr(verify, "solve_level", keep)
    out, ref = tmp_path / "cli", tmp_path / "ref"
    assert main(["solve", "--example", "3", "--degree", "2", "--levels",
                 "6,12,24", "--check", "all", "--out", str(out)]) == 0

    ref.mkdir()
    prob = load_example(3)
    for n, (mesh, u, parts, tilde) in levels.items():
        cv = build_cv_index(mesh, u.dofmap, parts)
        for name, fld in (("uh", u), ("tilde", tilde)):
            oracle_lce(compute_lce(mesh, cv, parts, fld, prob),
                       ref / f"lce_{name}_3_k2_n{n}.csv")
        oracle_solution(u, ref / f"solution_3_k2_n{n}.csv")
        oracle_postprocessed(tilde, ref / f"tilde_3_k2_n{n}.csv")
        oracle_conservation(
            elemental_conservation_report(mesh, parts, tilde, prob),
            ref / f"conservation_3_k2_n{n}.csv")
    oracle_convergence(convergence_table(prob, 2, [6, 12, 24], levels.get),
                       ref / "conv_3_k2.csv")

    names = sorted(p.name for p in out.iterdir())
    assert len(names) == 16
    assert names == sorted(p.name for p in ref.iterdir())
    for name in names:
        assert (out / name).read_bytes() == (ref / name).read_bytes(), name
