"""Design-space enumeration: evaluate a parameter grid, filter, rank."""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from itertools import product

from ..errors import NoFeasibleDesign
from .design import (DESIGN_FIELDS, SHARED_FIELDS, Algorithm, DesignPoint, ProblemSpec,
                     check_kind)
from .device import DeviceProfile
from .latency import LatencyEstimate, latency_for_problem
from .memory import ResourceEstimate, memory_words

DSE_SCHEMA = "tridax.dse.v1"

# frozen report column order; a design column a row's design does not read is null
DSE_COLUMNS = [
    "rank", "algorithm", "precision", "batch", "size", "dims", "n_iter",
    "interleave_group", "vector_width", "unroll", "tiles", "compute_units",
    "frequency_hz", "cycles", "seconds", "words", "on_chip_bytes", "hbm_ports",
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
    # the list of each DesignPoint field, in enumeration order
    LISTS = {"interleave_group": "groups", "vector_width": "vector_widths",
             "unroll": "unrolls", "compute_units": "compute_units",
             "frequency_hz": "frequencies_hz", "tiles": "tiles"}

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
        """The row's columns: the design's are its :meth:`DesignPoint.describe`."""
        p, res = self.problem, self.resources
        rec = {**self.design.resolved().describe(), "rank": self.rank, "batch": p.batch,
               "size": p.size, "dims": "x".join(map(str, p.dims)) if p.dims else None,
               "n_iter": p.n_iter, "cycles": float(self.latency.cycles),
               "seconds": self.latency.seconds, "words": res.words,
               "on_chip_bytes": res.total_bytes, "hbm_ports": res.hbm_ports}
        return {col: rec.get(col) for col in DSE_COLUMNS}


def _candidate_designs(problem: ProblemSpec, grid: GridSpec, algorithms):
    defaults = {f.name: f.default for f in fields(DesignPoint)}
    for algo in algorithms:  # a list the design's model does not read gives its default
        reads = SHARED_FIELDS + DESIGN_FIELDS[algo]
        for values in product(*(getattr(grid, lst) if name in reads else [defaults[name]]
                                for name, lst in GridSpec.LISTS.items())):
            yield DesignPoint(algorithm=algo, precision=problem.precision,
                              **dict(zip(GridSpec.LISTS, values)))


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
