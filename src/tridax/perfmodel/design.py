"""Design points: one complete parameterization of an accelerator solver."""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

from ..precision import Precision


class Algorithm(Enum):
    """Solver/application designs the analytic model covers."""

    BATCHED_THOMAS = "batched-thomas"
    BATCHED_PCR = "batched-pcr"
    BATCHED_SPIKE = "batched-spike"
    THOMAS_THOMAS = "thomas-thomas"
    THOMAS_PCR = "thomas-pcr"
    ADI2D = "adi2d"
    ADI3D = "adi3d"
    ADI2D_TILED = "adi2d-tiled"

    @classmethod
    def parse(cls, name: str) -> "Algorithm":
        try:
            return cls(str(name).lower())
        except ValueError:
            raise ValueError(f"unknown algorithm {name!r}") from None

    @property
    def is_tiled(self) -> bool:
        return self in (Algorithm.THOMAS_THOMAS, Algorithm.THOMAS_PCR,
                        Algorithm.ADI2D_TILED)

    @property
    def is_adi(self) -> bool:
        return self in (Algorithm.ADI2D, Algorithm.ADI3D, Algorithm.ADI2D_TILED)


def default_interleave_group(precision: Precision) -> int:
    """Systems interleaved to hide the elimination dependency distance."""
    return 32 if precision is Precision.FP32 else 64


@dataclass(frozen=True)
class DesignPoint:
    """Algorithm choice plus every tunable the latency/memory model reads.

    ``None`` fields resolve to precision-dependent defaults via
    :meth:`resolved`: the interleave groups default to 32 (FP32) or 64
    (FP64) and the pentadiagonal stage cost to twice the pipeline latency.
    """

    algorithm: Algorithm
    precision: Precision = Precision.FP32
    interleave_group: int | None = None       # systems round-robined per solver
    reduced_group: int | None = None          # same, for the reduced-system stage
    vector_width: int = 8                     # solver lanes fed per cycle
    unroll: int = 1                           # replicated inner-loop/iteration circuits
    tiles: int | None = None                  # tile count of a tiled solve
    tiles_x: int | None = None                # per-axis tile counts (tiled 2-D app)
    tiles_y: int | None = None
    datapath_tile_x: int | None = None        # buffered x extent of the tiled 2-D data path
    compute_units: int = 1                    # replicated full pipelines
    partitions: int = 1                       # partition count of the partitioned solver
    pipeline_latency: int = 30                # arithmetic pipeline depth, cycles
    partition_stage_cost: int | None = None   # per-block reduced-stage cost, cycles
    points_per_cycle: int | None = None       # effective points/cycle under port sharing
    frequency_hz: float = 300e6

    def __post_init__(self):
        for name in ("vector_width", "unroll", "compute_units", "partitions",
                     "pipeline_latency"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        for name in ("interleave_group", "reduced_group", "tiles", "tiles_x",
                     "tiles_y", "datapath_tile_x", "points_per_cycle"):
            val = getattr(self, name)
            if val is not None and val < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.partition_stage_cost is not None and self.partition_stage_cost < 0:
            raise ValueError("partition_stage_cost must be >= 0")
        if self.frequency_hz <= 0:
            raise ValueError("frequency_hz must be positive")
        if self.points_per_cycle is not None and self.points_per_cycle > self.vector_width:
            raise ValueError("points_per_cycle cannot exceed vector_width")

    def resolved(self) -> "DesignPoint":
        """Fill every defaulted field so the model reads concrete values."""
        g = self.interleave_group or default_interleave_group(self.precision)
        return replace(
            self,
            interleave_group=g,
            reduced_group=self.reduced_group or default_interleave_group(self.precision),
            partition_stage_cost=(self.partition_stage_cost
                                  if self.partition_stage_cost is not None
                                  else 2 * self.pipeline_latency),
            points_per_cycle=self.points_per_cycle or self.vector_width,
        )

    def describe(self) -> dict:
        out = {"algorithm": self.algorithm.value, "precision": self.precision.value}
        for name in ("interleave_group", "reduced_group", "vector_width", "unroll",
                     "tiles", "tiles_x", "tiles_y", "datapath_tile_x",
                     "compute_units", "partitions", "pipeline_latency",
                     "points_per_cycle", "frequency_hz"):
            val = getattr(self, name)
            if val is not None:
                out[name] = val
        return out
