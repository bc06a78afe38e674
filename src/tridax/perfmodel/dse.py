"""Design-space enumeration: evaluate a parameter grid, filter, rank."""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field, replace
from itertools import product

from ..errors import InvalidTilePlan, NoFeasibleDesign
from ..precision import Precision
from .design import Algorithm, DesignPoint
from .device import DeviceProfile
from .latency import LatencyEstimate, latency_for_problem
from .memory import ResourceEstimate, memory_words

DSE_SCHEMA = "tridax.dse.v1"

# frozen report column order
DSE_COLUMNS = [
    "rank", "algorithm", "precision", "batch", "size", "dims", "n_iter",
    "interleave_group", "reduced_group", "vector_width", "unroll", "tiles",
    "tiles_x", "tiles_y", "compute_units", "partitions", "frequency_hz",
    "cycles", "seconds", "words", "on_chip_bytes", "hbm_ports", "feasible",
]

_ALGO_ORDER = {algo: i for i, algo in enumerate(Algorithm)}


@dataclass(frozen=True)
class ProblemSpec:
    """What is being solved: a 1-D batch or a mesh application."""

    kind: str                       # "batch", "adi2d", "adi3d"
    batch: int
    size: int | None = None         # system size for 1-D batches
    dims: tuple[int, ...] | None = None
    precision: Precision = Precision.FP32
    n_iter: int = 1

    def __post_init__(self):
        if self.kind not in ("batch", "adi2d", "adi3d"):
            raise ValueError(f"unknown problem kind {self.kind!r}")
        if self.batch < 1 or self.n_iter < 1:
            raise ValueError("batch and n_iter must be >= 1")
        if self.kind == "batch" and (self.size is None or self.size < 1):
            raise ValueError("batch problems need a system size")
        if self.kind != "batch" and not self.dims:
            raise ValueError("mesh problems need dims")

    @property
    def largest_extent(self) -> int:
        return self.size if self.kind == "batch" else max(self.dims)


@dataclass
class GridSpec:
    """Parameter ranges to enumerate; empty lists fall back to defaults."""

    algorithms: list[Algorithm] = field(default_factory=list)
    tiles: list[int] = field(default_factory=lambda: [2, 4, 8, 16])
    unrolls: list[int] = field(default_factory=lambda: [1])
    groups: list[int | None] = field(default_factory=lambda: [None])
    vector_widths: list[int] = field(default_factory=lambda: [8])
    compute_units: list[int] = field(default_factory=lambda: [1])
    frequencies_hz: list[float] = field(default_factory=lambda: [300e6])

    @classmethod
    def for_kind(cls, kind: str) -> "GridSpec":
        if kind == "batch":
            algos = [Algorithm.BATCHED_THOMAS, Algorithm.BATCHED_PCR,
                     Algorithm.THOMAS_THOMAS, Algorithm.THOMAS_PCR]
        elif kind == "adi2d":
            algos = [Algorithm.ADI2D, Algorithm.ADI2D_TILED]
        else:
            algos = [Algorithm.ADI3D]
        return cls(algorithms=algos)


@dataclass(frozen=True)
class DseRow:
    rank: int | None
    design: DesignPoint
    latency: LatencyEstimate
    resources: ResourceEstimate
    problem: ProblemSpec

    def record(self) -> dict:
        dp = self.design.resolved()
        return {
            "rank": self.rank,
            "algorithm": dp.algorithm.value,
            "precision": dp.precision.value,
            "batch": self.problem.batch,
            "size": self.problem.size,
            "dims": "x".join(map(str, self.problem.dims)) if self.problem.dims else None,
            "n_iter": self.problem.n_iter,
            "interleave_group": dp.interleave_group,
            "reduced_group": dp.reduced_group,
            "vector_width": dp.vector_width,
            "unroll": dp.unroll,
            "tiles": dp.tiles,
            "tiles_x": dp.tiles_x,
            "tiles_y": dp.tiles_y,
            "compute_units": dp.compute_units,
            "partitions": dp.partitions,
            "frequency_hz": dp.frequency_hz,
            "cycles": float(self.latency.cycles),
            "seconds": self.latency.seconds,
            "words": self.resources.words,
            "on_chip_bytes": self.resources.total_bytes,
            "hbm_ports": self.resources.hbm_ports,
            "feasible": self.resources.feasible,
        }


def _candidate_designs(problem: ProblemSpec, grid: GridSpec):
    algorithms = grid.algorithms or GridSpec.for_kind(problem.kind).algorithms
    for algo, g, v, f_u, n_cu, freq in product(
            algorithms, grid.groups, grid.vector_widths, grid.unrolls,
            grid.compute_units, grid.frequencies_hz):
        base = DesignPoint(algorithm=algo, precision=problem.precision,
                           interleave_group=g, vector_width=v, unroll=f_u,
                           compute_units=n_cu, frequency_hz=freq)
        if algo.is_tiled:
            for t in grid.tiles:
                yield replace(base, tiles=t, tiles_x=t, tiles_y=t)
        else:
            yield base


def dse_enumerate(problem: ProblemSpec, device: DeviceProfile, grid: GridSpec,
                  *, include_infeasible: bool = False) -> list[DseRow]:
    """Evaluate the grid and return feasible designs ranked by runtime.

    Ties break deterministically by algorithm declaration order, then by
    smaller on-chip footprint. Designs whose tiling cannot cover the
    problem are skipped; raising happens only when nothing survives.
    """
    if not (grid.algorithms or GridSpec.for_kind(problem.kind).algorithms):
        raise NoFeasibleDesign("empty algorithm grid")
    evaluated = []
    for dp in _candidate_designs(problem, grid):
        try:
            lat = latency_for_problem(dp, batch=problem.batch, n=problem.size,
                                      dims=problem.dims, n_iter=problem.n_iter)
            res = memory_words(dp, problem.largest_extent, device)
        except (InvalidTilePlan, ValueError):
            continue
        evaluated.append((dp, lat, res))
    feasible = [e for e in evaluated if e[2].feasible]
    if not feasible:
        raise NoFeasibleDesign(
            f"no design in the grid fits {device.name} for this problem")
    feasible.sort(key=lambda e: (e[1].seconds_exact, _ALGO_ORDER[e[0].algorithm],
                                 e[2].total_bytes))
    rows = [DseRow(i + 1, dp, lat, res, problem)
            for i, (dp, lat, res) in enumerate(feasible)]
    if include_infeasible:
        rest = [e for e in evaluated if not e[2].feasible]
        rest.sort(key=lambda e: (_ALGO_ORDER[e[0].algorithm], e[2].total_bytes))
        rows += [DseRow(None, dp, lat, res, problem) for dp, lat, res in rest]
    return rows


def rows_to_csv(rows: list[DseRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["# schema", DSE_SCHEMA])
    writer.writerow(DSE_COLUMNS)
    for row in rows:
        rec = row.record()
        writer.writerow(["" if rec[col] is None else rec[col] for col in DSE_COLUMNS])
    return buf.getvalue()


def rows_to_json(rows: list[DseRow]) -> str:
    return json.dumps({"schema_version": DSE_SCHEMA,
                       "rows": [row.record() for row in rows]},
                      indent=2, sort_keys=True)
