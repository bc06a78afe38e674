"""Design points, one complete parameterization of an accelerator solver,
and the problems they solve."""

from __future__ import annotations

import math
from copy import copy
from dataclasses import dataclass, fields
from enum import Enum

from ..precision import Precision


class Algorithm(Enum):
    """Solver/application designs the analytic model covers."""

    BATCHED_THOMAS = "batched-thomas"
    BATCHED_PCR = "batched-pcr"
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
        return "tiles" in DESIGN_FIELDS[self]

    @property
    def kind(self) -> str:
        """The :attr:`ProblemSpec.kind` the design solves."""
        if self is Algorithm.ADI3D:
            return "adi3d"
        return "adi2d" if self in (Algorithm.ADI2D, Algorithm.ADI2D_TILED) else "batch"


# The DesignPoint fields the latency and memory models read: every design's,
# then each design's own. A lane field, vector_width (batched-thomas, adi2d,
# adi3d, adi2d-tiled) or compute_units (batched-thomas, adi2d, adi3d), is read
# where the latency divides work by it; memory_words replicates over just those.
SHARED_FIELDS = ("precision", "frequency_hz")
DESIGN_FIELDS = {
    Algorithm.BATCHED_THOMAS: ("interleave_group", "vector_width", "compute_units"),
    Algorithm.BATCHED_PCR: ("unroll", "pipeline_latency"),
    Algorithm.THOMAS_THOMAS: ("interleave_group", "tiles"),
    Algorithm.THOMAS_PCR: ("interleave_group", "tiles", "pipeline_latency"),
    Algorithm.ADI2D: ("interleave_group", "vector_width", "unroll", "compute_units"),
    Algorithm.ADI2D_TILED: ("interleave_group", "vector_width", "tiles"),
    Algorithm.ADI3D: ("interleave_group", "vector_width", "compute_units"),
}


def readers_of(name: str) -> str:
    """The designs whose ``DESIGN_FIELDS`` list field ``name``, comma-separated."""
    return ", ".join(a.value for a in Algorithm if name in DESIGN_FIELDS[a])


def check_reads(name: str, algorithms) -> None:
    """Raise ``ValueError`` unless a design in ``algorithms`` reads field ``name``."""
    if name not in SHARED_FIELDS and all(name not in DESIGN_FIELDS[a] for a in algorithms):
        raise ValueError(f"{name} applies to {readers_of(name)}, not "
                         + "/".join(a.value for a in algorithms))


def check_kind(algo: Algorithm, problem: ProblemSpec) -> None:
    """Raise ``ValueError`` unless ``problem`` is of the kind ``algo`` solves."""
    if problem.kind != algo.kind:
        need = ("needs a system size n" if algo.kind == "batch"
                else "needs mesh dims" if problem.dims is None
                else f"cannot take mesh dims {problem.dims}")
        raise ValueError(f"{algo.value} {need}")


def default_interleave_group(precision: Precision) -> int:
    """Systems interleaved to hide the elimination dependency distance."""
    return 32 if precision is Precision.FP32 else 64


@dataclass(frozen=True)
class DesignPoint:
    """Algorithm choice plus the tunables its latency/memory model reads.

    The knobs between ``precision`` and ``frequency_hz`` start unset,
    ``None``. Setting a field outside ``SHARED_FIELDS`` and the design's
    ``DESIGN_FIELDS`` raises :func:`check_reads`'s ``ValueError`` before
    any value is checked. A tiled algorithm needs a tile count, used on
    every axis it tiles; the latency models check it against the problem
    with the solver's :class:`tridax.tiled.TilePlan`.
    """

    algorithm: Algorithm
    precision: Precision = Precision.FP32
    interleave_group: int | None = None   # systems round-robined per solver
    vector_width: int | None = None       # solver lanes fed (points moved) per cycle
    unroll: int | None = None             # replicated inner-loop/iteration circuits
    tiles: int | None = None              # tile count of a tiled solve, per axis
    compute_units: int | None = None      # replicated full pipelines
    pipeline_latency: int | None = None   # arithmetic pipeline depth, cycles
    frequency_hz: float = 300e6

    def __post_init__(self):
        algo = self.algorithm
        for f in fields(self)[1:]:
            if getattr(self, f.name) is not None:
                check_reads(f.name, [algo])
        for f in fields(self)[2:-1]:  # the knobs that count something
            if getattr(self, f.name) is not None and getattr(self, f.name) < 1:
                raise ValueError(f"{f.name} must be >= 1")
        if not 0 < self.frequency_hz < math.inf:
            raise ValueError(f"frequency_hz must be finite and positive, not {self.frequency_hz}")
        if algo.is_tiled and self.tiles is None:
            raise ValueError(f"{algo.value} requires a tile count")

    def resolved(self) -> "DesignPoint":
        """This design with each unset field it reads filled from one table,
        so it holds a value in exactly those fields; resolved designs compare
        equal exactly when they are the same design."""
        out = copy(self)  # not checked again: the filled values are defaults
        defaults = {"interleave_group": default_interleave_group(self.precision),
                    "vector_width": 8, "unroll": 1, "compute_units": 1, "pipeline_latency": 30}
        for name in DESIGN_FIELDS[self.algorithm]:
            if getattr(out, name) is None:
                object.__setattr__(out, name, defaults[name])
        return out

    @property
    def reduced_group(self) -> int:
        """Systems interleaved by a tiled solve's reduced stage: the
        precision's default group, whatever ``interleave_group`` is."""
        return default_interleave_group(self.precision)

    def describe(self) -> dict:
        """The algorithm and every field of :meth:`resolved` that the model reads."""
        dp, reads = self.resolved(), SHARED_FIELDS + DESIGN_FIELDS[self.algorithm]
        return {"algorithm": dp.algorithm.value, "precision": dp.precision.value,
                **{f.name: getattr(dp, f.name) for f in fields(dp)[2:] if f.name in reads}}


@dataclass(frozen=True)
class ProblemSpec:
    """What is being solved: a batch of ``size``-row systems or of ``dims`` meshes.
    ``n_iter`` starts unset: a mesh problem fills in 1, a batch rejects any value."""

    batch: int
    size: int | None = None         # system size for 1-D batches
    dims: tuple[int, ...] | None = None
    precision: Precision = Precision.FP32
    n_iter: int | None = None       # iterations of a mesh problem

    def __post_init__(self):
        if self.n_iter is None and self.dims is not None:
            object.__setattr__(self, "n_iter", 1)
        if self.batch < 1 or any(v is not None and v < 1 for v in (self.n_iter, self.size)):
            raise ValueError("batch, n_iter and size must be >= 1")
        if (self.size is None) == (self.dims is None):
            raise ValueError("a problem needs a system size or mesh dims, not both")
        if self.size is not None and self.n_iter is not None:  # no batch model reads it
            raise ValueError(f"n_iter applies to mesh problems; a batch of systems is "
                             f"solved once and takes none, not {self.n_iter}")
        if self.dims is not None and (len(self.dims) not in (2, 3) or min(self.dims) < 1):
            raise ValueError(f"mesh dims must be 2 or 3 positive extents, not {self.dims}")

    @property
    def kind(self) -> str:
        return f"adi{len(self.dims)}d" if self.dims else "batch"

    @property
    def largest_extent(self) -> int:
        return max(self.dims) if self.dims else self.size
