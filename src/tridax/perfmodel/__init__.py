"""Analytic latency, memory and feasibility models plus grid enumeration.

:func:`latency_for_problem` and :func:`memory_words` evaluate one design,
:func:`dse_enumerate` ranks a grid of them, and :func:`find_reference`
pairs a design and problem with a published measurement.
"""

from .calibration import MEASURED_REFERENCES, MeasuredReference, find_reference, relative_error
from .design import Algorithm, DesignPoint, ProblemSpec, default_interleave_group
from .device import BUILTIN_PROFILES, U280, DeviceProfile, load_device_profile
from .dse import DSE_COLUMNS, DSE_SCHEMA, DseRow, GridSpec, dse_enumerate, rows_to_json
from .latency import LatencyEstimate, latency_for_problem
from .memory import ResourceEstimate, memory_words

__all__ = [
    "Algorithm", "DesignPoint", "DeviceProfile", "U280", "BUILTIN_PROFILES",
    "LatencyEstimate", "ResourceEstimate", "MeasuredReference", "GridSpec",
    "ProblemSpec", "DseRow", "DSE_COLUMNS", "DSE_SCHEMA",
    "default_interleave_group", "load_device_profile", "latency_for_problem",
    "memory_words", "dse_enumerate", "rows_to_json", "find_reference",
    "MEASURED_REFERENCES", "relative_error",
]
