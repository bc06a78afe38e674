"""Design-space enumeration: evaluate a parameter grid, filter, rank."""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from itertools import product

from ..errors import NoFeasibleDesign
from .design import (DESIGN_FIELDS, SHARED_FIELDS, Algorithm, DesignPoint, ProblemSpec,
                     check_kind, check_reads)
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
    """Parameter ranges to enumerate. Every list starts unset, ``None``: unset
    algorithms are those of :meth:`for_kind`, unset tiles are ``[2, 4, 8, 16]``,
    and any other unset list leaves its field to :meth:`DesignPoint.resolved`.
    A design crosses only the lists of the fields its model reads."""

    algorithms: list[Algorithm] | None = None
    tiles: list[int] | None = None
    unrolls: list[int] | None = None
    groups: list[int | None] | None = None
    vector_widths: list[int] | None = None
    compute_units: list[int] | None = None
    frequencies_hz: list[float] | None = None
    UNSET = {"tiles": [2, 4, 8, 16]}  # an unset list's values where resolved() has none
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
        rec = {**self.design.describe(), "rank": self.rank, "batch": p.batch,
               "size": p.size, "dims": "x".join(map(str, p.dims)) if p.dims else None,
               "n_iter": p.n_iter, "cycles": float(self.latency.cycles),
               "seconds": self.latency.seconds, "words": res.words,
               "on_chip_bytes": res.total_bytes, "hbm_ports": res.hbm_ports}
        return {col: rec.get(col) for col in DSE_COLUMNS}


def _candidate_designs(problem: ProblemSpec, grid: GridSpec, algorithms):
    for algo in algorithms:  # the set lists, or unset tiles, of the fields algo reads
        reads = SHARED_FIELDS + DESIGN_FIELDS[algo]
        lists = {name: values for name, lst in GridSpec.LISTS.items() if name in reads
                 and (values := getattr(grid, lst) or GridSpec.UNSET.get(name)) is not None}
        for values in product(*lists.values()):
            yield DesignPoint(algorithm=algo, precision=problem.precision,
                              **dict(zip(lists, values)))


def dse_enumerate(problem: ProblemSpec, device: DeviceProfile,
                  grid: GridSpec) -> list[DseRow]:
    """Evaluate the grid and return feasible designs ranked by runtime, one
    row per combination of the grid values a design's model reads.

    Ties break deterministically by algorithm declaration order, then by
    smaller on-chip footprint. Designs the model rejects are skipped; if
    every one is, the error names the first reason. An empty grid list, a
    set list no grid algorithm reads (``check_reads``'s error, as
    :class:`DesignPoint` raises it), then an algorithm of another kind than
    the problem's raises ``ValueError`` naming it.
    """
    for f in fields(grid):
        if getattr(grid, f.name) is not None and not getattr(grid, f.name):
            raise ValueError(f"grid list {f.name} is empty")
    algorithms = grid.algorithms or GridSpec.for_kind(problem.kind).algorithms
    for name, lst in GridSpec.LISTS.items():
        if getattr(grid, lst) is not None:
            check_reads(name, algorithms)
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
