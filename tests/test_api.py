import dataclasses
import importlib
import inspect
import operator

import pytest

import conservaflux

PUBLIC = [
    "N_NODES", "eval_basis", "ref_nodes",
    "ControlVolumeIndex", "DualGeometry", "build_cv_index",
    "build_partitions", "export_dual_csv", "subcell_quadrature",
    "TriMesh", "build_structured_mesh", "read_mesh_file", "write_mesh_file",
    "PostprocessedField", "export_postprocessed_csv", "flux_along_polyline",
    "postprocess_all",
    "ProblemSpec", "load_example",
    "QuadratureRule", "segment_rule", "triangle_rule",
    "ConstrainedSystem", "DofMap", "FemField", "apply_dirichlet", "assemble",
    "build_dof_map", "export_solution_csv", "solve", "solve_problem",
    "ConvergenceTable", "LceReport", "compute_lce", "convergence_study",
    "elemental_conservation_report", "f_l1_norm", "h1_seminorm_diff",
    "h1_seminorm_error", "true_solution_residual", "write_conservation_csv",
    "write_convergence_csv", "write_lce_csv",
]

# Deleted names: single-element helpers whose quantities now come from the
# batched arrays, the per-field block lookup (the dof map owns the blocks)
# and constants nothing read.
DELETED = {
    "basis": ["map_to_element", "DEGREES"],
    "solver": ["for_field"],
    "mesh": ["edge_neighbors", "BOUNDARY_PARTS"],
    "dualmesh": ["SubcellPartition", "build_subcell_partition"],
    "postprocess": ["ElementalSystem", "assemble_elemental_system",
                    "solve_elemental", "interp_piecewise_constant",
                    "edge_average_flux", "segment_flux_split"],
}


# Settable values with one value in use, now constants: (callable, parameter).
REMOVED_PARAMETERS = [
    ("solve", "rtol"), ("solve_problem", "rtol"),
    ("postprocess_all", "gauge_shift"), ("flux_along_polyline", "npoints"),
    ("compute_lce", "field_name"), ("TriMesh", "boundary_labels"),
    ("TriMesh.locate", "tol"), ("f_l1_norm", "exactness"),
    ("true_solution_residual", "exactness"),
    ("convergence_study", "exactness"), ("convergence_study", "threads"),
]


def test_all_is_the_public_list():
    assert conservaflux.__all__ == PUBLIC
    assert len(set(PUBLIC)) == len(PUBLIC)


@pytest.mark.parametrize("name", PUBLIC)
def test_public_name_resolves(name):
    assert getattr(conservaflux, name) is not None


@pytest.mark.parametrize("module, name", [
    (m, n) for m, names in DELETED.items() for n in names])
def test_deleted_name_is_gone(module, name):
    assert not hasattr(conservaflux, name)
    assert not hasattr(importlib.import_module(f"conservaflux.{module}"), name)
    with pytest.raises(ImportError):
        exec(f"from conservaflux import {name}", {})


@pytest.mark.parametrize("name, param", REMOVED_PARAMETERS)
def test_removed_parameter_is_gone(name, param):
    fn = operator.attrgetter(name)(conservaflux)
    assert param not in inspect.signature(fn).parameters


def test_problem_spec_has_no_unread_fields():
    names = {f.name for f in dataclasses.fields(conservaflux.ProblemSpec)}
    assert names == {"kappa", "source", "dirichlet", "exact", "exact_grad"}


def test_dual_geometry_is_not_a_sequence():
    parts = conservaflux.build_partitions(
        conservaflux.build_structured_mesh(2), 1)
    assert not hasattr(parts, "__getitem__")
    assert not hasattr(parts, "__len__")
