"""Analytic latency, memory and feasibility models plus grid enumeration."""

from .calibration import (MEASURED_REFERENCES, MeasuredReference, find_reference,
                          reconstruct_adi_runtime, relative_error)
from .design import Algorithm, DesignPoint, ProblemSpec, default_interleave_group
from .device import BUILTIN_PROFILES, U280, DeviceProfile, load_device_profile
from .dse import (DSE_COLUMNS, DSE_SCHEMA, DseRow, GridSpec, dse_enumerate, rows_to_csv,
                  rows_to_json)
from .latency import (LatencyEstimate, ceil_div, ceil_log2, cycles_to_seconds,
                      latency_adi2d, latency_adi2d_tiled, latency_adi3d,
                      latency_batched_pcr, latency_batched_spike,
                      latency_batched_thomas, latency_for_problem,
                      latency_thomas_pcr, latency_thomas_thomas)
from .memory import ResourceEstimate, memory_words

__all__ = [
    "Algorithm", "DesignPoint", "DeviceProfile", "U280", "BUILTIN_PROFILES",
    "LatencyEstimate", "ResourceEstimate", "MeasuredReference", "GridSpec",
    "ProblemSpec", "DseRow", "DSE_COLUMNS", "DSE_SCHEMA",
    "default_interleave_group", "load_device_profile", "ceil_div", "ceil_log2",
    "cycles_to_seconds", "latency_batched_thomas", "latency_batched_pcr",
    "latency_batched_spike", "latency_thomas_thomas", "latency_thomas_pcr",
    "latency_adi2d", "latency_adi2d_tiled", "latency_adi3d",
    "latency_for_problem", "memory_words", "dse_enumerate", "rows_to_csv",
    "rows_to_json", "find_reference", "MEASURED_REFERENCES",
    "reconstruct_adi_runtime", "relative_error",
]
