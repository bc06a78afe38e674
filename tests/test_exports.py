from dataclasses import fields

import pytest

import tridax
import tridax.adi
import tridax.perfmodel
import tridax.perfmodel.device
import tridax.perfmodel.dse
from tridax.perfmodel import Algorithm, DesignPoint, GridSpec

PUBLIC = [
    "Precision", "TridiagonalSystem", "TridiagonalBatch",
    "solve_system", "batch_solve", "error_bound", "residual_max_norm",
    "random_dominant_batch", "random_dominant_system", "relative_inf_error", "TilePlan",
    "Mesh", "Axis", "solve_lines", "read_mesh", "write_mesh",
    "AdiConfig", "adi_run", "effective_bandwidth",
    "TridaxError", "ZeroPivot", "InvalidTilePlan",
    "LineSolveError", "BatchSolveError", "NonFiniteSolution",
    "ZeroDuration", "NoFeasibleDesign", "__version__",
]
# the model's entry points and the types they take or return
PERFMODEL_PUBLIC = [
    "Algorithm", "DesignPoint", "DeviceProfile", "U280", "BUILTIN_PROFILES",
    "LatencyEstimate", "ResourceEstimate", "MeasuredReference", "GridSpec",
    "ProblemSpec", "DseRow", "DSE_COLUMNS", "DSE_SCHEMA",
    "default_interleave_group", "load_device_profile", "latency_for_problem",
    "memory_words", "dse_enumerate", "rows_to_json", "find_reference",
    "MEASURED_REFERENCES", "relative_error",
]
# one field per design parameter: none is filled from another
DESIGN_POINT_FIELDS = ["algorithm", "precision", "interleave_group", "vector_width",
                       "unroll", "tiles", "compute_units", "pipeline_latency",
                       "frequency_hz"]
# every design the model covers, each one dse ranks
ALGORITHMS = ["batched-thomas", "batched-pcr", "thomas-thomas", "thomas-pcr", "adi2d",
              "adi3d", "adi2d-tiled"]
# model internals tridax.perfmodel no longer exports
MODEL_INTERNAL = ["latency_batched_thomas", "latency_batched_pcr", "latency_batched_spike",
                  "latency_thomas_thomas", "latency_thomas_pcr", "latency_adi2d",
                  "latency_adi2d_tiled", "latency_adi3d", "ceil_div", "ceil_log2",
                  "cycles_to_seconds", "reconstruct_adi_runtime"]
# the CSV table writer and the device search directory: every CLI artifact is JSON
REMOVED = [(tridax.perfmodel.dse, "rows_to_csv"), (tridax.perfmodel.device, "DEVICE_DIR_ENV")]
# the classes adi_run's report was built through: it returns the payload dict
REPORT_CLASSES = ["RunReport", "PhaseStats"]
# solver internals the top level no longer exports
INTERNAL = ["adi_rhs", "axis_lines", "gather_lines", "scatter_lines",
            "modified_thomas_phase", "assemble_reduced", "back_substitute"]


@pytest.mark.parametrize("module", [tridax, tridax.perfmodel], ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_public_surface_is_pinned():
    assert tridax.__all__ == PUBLIC


def test_perfmodel_surface_is_pinned():
    assert tridax.perfmodel.__all__ == PERFMODEL_PUBLIC


def test_perfmodel_exports_no_per_design_model():
    # every design's formula is reached through latency_for_problem
    assert [name for name in MODEL_INTERNAL if hasattr(tridax.perfmodel, name)] == []
    assert [name for name in dir(tridax.perfmodel)
            if name.startswith(("latency_batched_", "latency_thomas_", "latency_adi"))] == []


def test_design_point_fields_are_pinned():
    assert [f.name for f in fields(DesignPoint)] == DESIGN_POINT_FIELDS


def test_model_designs_are_pinned():
    assert [a.value for a in Algorithm] == ALGORITHMS


def test_every_model_design_is_ranked_by_dse():
    assert [a for a in Algorithm if a not in GridSpec.for_kind(a.kind).algorithms] == []


def test_internals_are_not_top_level_names():
    assert [name for name in INTERNAL if hasattr(tridax, name)] == []


def test_removed_encodings_stay_gone():
    assert [name for module, name in REMOVED if hasattr(module, name)] == []


def test_adi_report_has_no_class():
    assert [name for name in REPORT_CLASSES
            if hasattr(tridax, name) or hasattr(tridax.adi, name)] == []
