from dataclasses import fields

import pytest

import tridax
import tridax.perfmodel
from tridax.perfmodel import DesignPoint

PUBLIC = [
    "Precision", "TridiagonalSystem", "TridiagonalBatch",
    "solve_system", "batch_solve", "dense_oracle_solve", "residual_max_norm",
    "random_dominant_system", "relative_inf_error", "TilePlan",
    "Mesh", "Axis", "solve_lines", "read_mesh", "write_mesh",
    "AdiConfig", "RunReport", "adi_run", "effective_bandwidth",
    "TridaxError", "ZeroPivot", "SingularMatrix", "InvalidTilePlan",
    "LineSolveError", "BatchSolveError", "NonFiniteSolution",
    "ZeroDuration", "NoFeasibleDesign", "__version__",
]
# one field per design parameter: none is filled from another
DESIGN_POINT_FIELDS = ["algorithm", "precision", "interleave_group", "vector_width",
                       "unroll", "tiles", "compute_units", "partitions",
                       "pipeline_latency", "frequency_hz"]
# solver internals the top level no longer exports
INTERNAL = ["adi_rhs", "axis_lines", "gather_lines", "scatter_lines",
            "modified_thomas_phase", "assemble_reduced", "back_substitute"]


@pytest.mark.parametrize("module", [tridax, tridax.perfmodel], ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_public_surface_is_pinned():
    assert tridax.__all__ == PUBLIC


def test_design_point_fields_are_pinned():
    assert [f.name for f in fields(DesignPoint)] == DESIGN_POINT_FIELDS


def test_internals_are_not_top_level_names():
    assert [name for name in INTERNAL if hasattr(tridax, name)] == []
