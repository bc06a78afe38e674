"""Design-space enumeration: evaluate a parameter grid, filter, rank."""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from itertools import product

from ..errors import NoFeasibleDesign
from .design import DESIGN_FIELDS, Algorithm, DesignPoint, ProblemSpec, check_kind
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


@dataclass
class GridSpec:
    """Parameter ranges to enumerate (no algorithms: those of :meth:`for_kind`).
    A design takes only the lists of fields its model reads, defaults for the rest."""

    algorithms: list[Algorithm] = field(default_factory=list)
    tiles: list[int] = field(default_factory=lambda: [2, 4, 8, 16])
    unrolls: list[int] = field(default_factory=lambda: [1])
    groups: list[int | None] = field(default_factory=lambda: [None])
    vector_widths: list[int] = field(default_factory=lambda: [8])
    compute_units: list[int] = field(default_factory=lambda: [1])
    frequencies_hz: list[float] = field(default_factory=lambda: [300e6])

    @classmethod
    def for_kind(cls, kind: str) -> "GridSpec":
        """Every algorithm of ``kind``."""
        return cls(algorithms=[a for a in Algorithm if a.kind == kind])


@dataclass(frozen=True)
class DseRow:
    rank: int
    design: DesignPoint
    latency: LatencyEstimate
    resources: ResourceEstimate
    problem: ProblemSpec

    def record(self) -> dict:
        dp = self.design.resolved()
        rec = {
            "rank": self.rank,
            "algorithm": dp.algorithm.value,
            "precision": dp.precision.value,
            "dims": "x".join(map(str, self.problem.dims)) if self.problem.dims else None,
            "cycles": float(self.latency.cycles),
            "seconds": self.latency.seconds,
            "words": self.resources.words,
            "on_chip_bytes": self.resources.total_bytes,
            "hbm_ports": self.resources.hbm_ports,
            "feasible": self.resources.feasible,
            "tiles_x": dp.tiles,  # frozen per-axis columns: one tile count for every axis
            "tiles_y": dp.tiles,
            "partitions": 1,  # frozen column: no ranked design is partitioned
        }
        for col in DSE_COLUMNS:  # the rest are attributes of the problem or the design
            if col not in rec:
                rec[col] = getattr(self.problem if hasattr(self.problem, col) else dp, col)
        return rec


def _candidate_designs(problem: ProblemSpec, grid: GridSpec, algorithms):
    for algo in algorithms:  # a list the design's model does not read gives its default
        reads = DESIGN_FIELDS[algo]
        for g, v, f_u, n_cu, freq, t in product(
                grid.groups if "interleave_group" in reads else [None], grid.vector_widths,
                grid.unrolls if "unroll" in reads else [1], grid.compute_units,
                grid.frequencies_hz, grid.tiles if "tiles" in reads else [None]):
            yield DesignPoint(algorithm=algo, precision=problem.precision,
                              interleave_group=g, vector_width=v, unroll=f_u, tiles=t,
                              compute_units=n_cu, frequency_hz=freq)


def dse_enumerate(problem: ProblemSpec, device: DeviceProfile,
                  grid: GridSpec) -> list[DseRow]:
    """Evaluate the grid and return feasible designs ranked by runtime, one
    row per combination of the grid values a design's model reads.

    Ties break deterministically by algorithm declaration order, then by
    smaller on-chip footprint. Designs the model rejects are skipped; if
    every one is, the error names the first reason. An empty grid list, or
    an algorithm of another kind than the problem's, raises ``ValueError``
    naming it.
    """
    for f in fields(grid):
        if f.name != "algorithms" and not getattr(grid, f.name):
            raise ValueError(f"grid list {f.name} is empty")
    algorithms = grid.algorithms or GridSpec.for_kind(problem.kind).algorithms
    for algo in algorithms:
        check_kind(algo, problem)
    evaluated, skipped = [], []
    for dp in _candidate_designs(problem, grid, algorithms):
        try:
            lat = latency_for_problem(dp, batch=problem.batch, n=problem.size,
                                      dims=problem.dims, n_iter=problem.n_iter)
            res = memory_words(dp, problem.largest_extent, device)
        except ValueError as exc:
            skipped.append(exc)
            continue
        evaluated.append((dp, lat, res))
    if skipped and not evaluated:
        raise NoFeasibleDesign(f"all {len(skipped)} candidate design(s) were skipped; "
                               f"the first: {skipped[0]}")
    feasible = [e for e in evaluated if e[2].feasible]
    if not feasible:
        raise NoFeasibleDesign(
            f"no design in the grid fits {device.name} for this problem")
    feasible.sort(key=lambda e: (e[1].seconds_exact, _ALGO_ORDER[e[0].algorithm],
                                 e[2].total_bytes))
    return [DseRow(i + 1, dp, lat, res, problem)
            for i, (dp, lat, res) in enumerate(feasible)]


def rows_to_json(rows: list[DseRow]) -> str:
    return json.dumps({"schema_version": DSE_SCHEMA,
                       "rows": [row.record() for row in rows]},
                      indent=2, sort_keys=True)
