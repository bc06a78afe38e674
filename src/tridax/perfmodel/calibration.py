"""Published hardware measurements the model is checked against.

Each :class:`MeasuredReference` holds the resolved design and the problem
that were measured, and :func:`find_reference` returns one only for a query
whose resolved design and problem both equal them. Runtimes for the
application designs were published as effective bandwidths (logical bytes
per call over wall time), so comparing against them means reconstructing a
runtime from the byte accounting; those references are flagged
``reconstructed``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..adi import logical_bytes_per_iteration
from .design import Algorithm, DesignPoint, ProblemSpec


@dataclass(frozen=True)
class MeasuredReference:
    """One published measurement: the design and problem it ran, and its time."""

    name: str
    design: DesignPoint
    problem: ProblemSpec
    measured_seconds: float
    reconstructed: bool = False


def reconstruct_adi_runtime(dims: tuple[int, ...], batch: int, n_iter: int,
                            word_bytes: int, bandwidth_gbps: float) -> float:
    """Runtime implied by a published effective bandwidth."""
    points = batch
    for e in dims:
        points *= e
    per_iter = logical_bytes_per_iteration(points, word_bytes, len(dims))
    return n_iter * per_iter / (bandwidth_gbps * 1e9)


MEASURED_REFERENCES = (
    # 8000 systems of size 128, FP32, interleave 32, 8 lanes, 300 MHz:
    # measured 0.47 ms on the reference card.
    MeasuredReference(
        name="batched-thomas B=8000 N=128 fp32",
        design=DesignPoint(Algorithm.BATCHED_THOMAS).resolved(),
        problem=ProblemSpec(batch=8000, size=128),
        measured_seconds=0.47e-3,
    ),
    # 2-D heat application, 128x128 FP32, 3000 meshes, 120 iterations,
    # unroll 3, 3 compute units at 292 MHz: published effective bandwidth
    # 620 GB/s over the 9 mesh-transfers-per-iteration accounting.
    MeasuredReference(
        name="adi2d 128x128 fp32 B=3000 iters=120",
        design=DesignPoint(Algorithm.ADI2D, unroll=3, compute_units=3,
                           frequency_hz=292e6).resolved(),
        problem=ProblemSpec(batch=3000, dims=(128, 128), n_iter=120),
        measured_seconds=reconstruct_adi_runtime((128, 128), 3000, 120, 4, 620.0),
        reconstructed=True,
    ),
)


def relative_error(predicted_seconds: float, measured_seconds: float) -> float:
    return abs(predicted_seconds - measured_seconds) / measured_seconds


def find_reference(dp: DesignPoint, *, batch: int, n: int | None = None,
                   dims: tuple[int, ...] | None = None,
                   n_iter: int | None = None) -> MeasuredReference | None:
    """The published measurement of exactly this design on exactly this
    problem (in the design's precision), or ``None``."""
    design = dp.resolved()
    problem = ProblemSpec(batch, n, None if dims is None else tuple(dims), dp.precision,
                          n_iter)
    return next((ref for ref in MEASURED_REFERENCES
                 if ref.design == design and ref.problem == problem), None)
