"""Continuous Galerkin solver on triangular meshes with element-local
recovery of fluxes that are conservative on nodal control volumes."""

from .basis import N_NODES, eval_basis, ref_nodes
from .dualmesh import (ControlVolumeIndex, DualGeometry, build_cv_index,
                       build_partitions, export_dual_csv, subcell_quadrature)
from .mesh import (TriMesh, build_structured_mesh, read_mesh_file,
                   write_mesh_file)
from .postprocess import (PostprocessedField, export_postprocessed_csv,
                          flux_along_polyline, postprocess_all)
from .problems import ProblemSpec, load_example
from .quadrature import QuadratureRule, segment_rule, triangle_rule
from .solver import (ConstrainedSystem, DofMap, FemField, apply_dirichlet,
                     assemble, build_dof_map, export_solution_csv, solve,
                     solve_problem)
from .verify import (ConvergenceTable, LceReport, compute_lce,
                     convergence_study, elemental_conservation_report,
                     f_l1_norm, h1_seminorm_diff, h1_seminorm_error,
                     true_solution_residual, write_conservation_csv,
                     write_convergence_csv, write_lce_csv)

__version__ = "0.1.0"

__all__ = [
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
