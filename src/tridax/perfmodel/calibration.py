"""Published hardware measurements the model is checked against.

Runtimes for the application designs were published as effective
bandwidths (logical bytes per call over wall time), so comparing against
them means reconstructing a runtime from the byte accounting; those
comparisons are flagged ``reconstructed``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..adi import logical_bytes_per_iteration
from .design import Algorithm, DesignPoint


@dataclass(frozen=True)
class MeasuredReference:
    """One published measurement a prediction can be compared against."""

    name: str
    measured_seconds: float
    reconstructed: bool = False
    note: str = ""


# 8000 systems of size 128, FP32, interleave 32, 8 lanes, 300 MHz:
# measured 0.47 ms on the reference card.
BATCHED_THOMAS_8000x128 = MeasuredReference(
    name="batched-thomas B=8000 N=128 fp32",
    measured_seconds=0.47e-3,
    note="vendor-library comparison benchmark, measured runtime",
)

# 2-D heat application, 128x128 FP32, 3000 meshes, 120 iterations,
# unroll 3, 3 compute units at 292 MHz: published effective bandwidth
# 620 GB/s over the 9 mesh-transfers-per-iteration accounting.
ADI2D_FP32_128_B3000_BW_GBPS = 620.0


def reconstruct_adi_runtime(dims: tuple[int, ...], batch: int, n_iter: int,
                            word_bytes: int, bandwidth_gbps: float) -> float:
    """Runtime implied by a published effective bandwidth."""
    points = batch
    for e in dims:
        points *= e
    per_iter = logical_bytes_per_iteration(points, word_bytes, len(dims))
    return n_iter * per_iter / (bandwidth_gbps * 1e9)


def adi2d_fp32_reference() -> MeasuredReference:
    seconds = reconstruct_adi_runtime((128, 128), 3000, 120, 4,
                                      ADI2D_FP32_128_B3000_BW_GBPS)
    return MeasuredReference(
        name="adi2d 128x128 fp32 B=3000 iters=120",
        measured_seconds=seconds,
        reconstructed=True,
        note="runtime reconstructed from the published 620 GB/s effective bandwidth",
    )


def relative_error(predicted_seconds: float, measured_seconds: float) -> float:
    return abs(predicted_seconds - measured_seconds) / measured_seconds


def find_reference(dp: DesignPoint, *, batch: int, n: int | None = None,
                   dims: tuple[int, ...] | None = None,
                   n_iter: int | None = None) -> MeasuredReference | None:
    """Match a fully specified problem against the known measurements."""
    dp = dp.resolved()
    if (dp.algorithm is Algorithm.BATCHED_THOMAS and batch == 8000 and n == 128
            and dp.interleave_group == 32 and dp.vector_width == 8
            and dp.compute_units == 1 and round(dp.frequency_hz) == 300_000_000):
        return BATCHED_THOMAS_8000x128
    if (dp.algorithm is Algorithm.ADI2D and dims == (128, 128) and batch == 3000
            and n_iter == 120 and dp.unroll == 3 and dp.compute_units == 3
            and dp.vector_width == 8):
        return adi2d_fp32_reference()
    return None
