"""On-chip word counts and feasibility against a device budget.

Word counts follow the ping-pong buffer accounting of the interleaved
solvers: a single elimination lane over groups of ``g`` systems of size
``n`` keeps the six working vectors double-buffered (``12*g*n`` words) plus
four ``g``-word carry RAMs. A tiled lane halves that to nine buffers over
``g/t``-system groups, with a small reduced-system stage and a FIFO that
covers the reduced solve's cycle count. A tiling is accepted exactly when
the solver's :class:`tridax.tiled.TilePlan` accepts it, so every tile,
the short last one included, keeps at least 3 rows. The latency models
check every extent a design tiles; :func:`memory_words`, which sees only
the largest extent, checks the tiling of that one again, so it stands
alone. Lanes replicate only where the latency reads them: a vector lane
replicates the solver lane, a compute unit the whole pipeline, so
feasibility compares

    words * word_bytes * vector_width * compute_units

(a lane field is a factor only if the design's ``DESIGN_FIELDS`` list it)
against the device's combined BRAM+URAM bytes, and the design's HBM ports
(``STREAM_HBM_PORTS`` for each of a batch solver's five streams,
``ADI_HBM_PORTS`` for an ADI pipeline) against the device's ``hbm_ports``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..tiled import TilePlan
from .design import Algorithm, DesignPoint
from .device import DeviceProfile
from .latency import _reduced_solve, ceil_div, ceil_log2

REDUCED_FIFO_BUFFERS = 3  # streams drained while the reduced stage runs
ADI_HBM_PORTS = 24        # measured port budget of the fused ADI pipelines
STREAM_HBM_PORTS = 2      # ports per independent data structure stream


def _solver_lane_words(g: int, n: int) -> int:
    return 12 * g * n + 4 * g


def _tiled_lane_words(g: int, n: int, t: int) -> int:
    TilePlan(n, t)  # the solver's tiling rule
    per_group = ceil_div(g, t)
    return 18 * per_group * n + 28 * t * per_group


@dataclass(frozen=True)
class ResourceEstimate:
    """Words per solver lane and the feasibility verdict for a full design."""

    words: int
    total_bytes: int
    hbm_ports: int
    feasible: bool
    violations: tuple[str, ...] = ()


def memory_words(dp: DesignPoint, n: int, device: DeviceProfile) -> ResourceEstimate:
    """Estimate on-chip storage for a design solving size-``n`` systems.

    For mesh applications pass the largest solved extent as ``n``. The
    estimate is infeasible when it exceeds a budget of ``device``, and then
    ``violations`` names each exceeded budget.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    dp = dp.resolved()
    g = dp.interleave_group
    algo = dp.algorithm
    if algo is Algorithm.BATCHED_THOMAS:
        words = _solver_lane_words(g, n)
    elif algo is Algorithm.BATCHED_PCR:
        # streaming reduction cascade: three row streams buffered per step
        words = 3 * (n + dp.pipeline_latency) * ceil_log2(n) if n > 1 else 3
    elif algo in (Algorithm.THOMAS_THOMAS, Algorithm.THOMAS_PCR):
        words = (_tiled_lane_words(g, n, dp.tiles)
                 + REDUCED_FIFO_BUFFERS * _reduced_solve(dp, dp.tiles))
    elif algo is Algorithm.ADI2D:
        words = 2 * _solver_lane_words(g, n) + 2 * n
    elif algo is Algorithm.ADI3D:
        words = 3 * _solver_lane_words(g, n) + 2 * n * n
    else:  # Algorithm.ADI2D_TILED
        words = 2 * _tiled_lane_words(g, n, dp.tiles) + 2 * dp.tiles * n

    lanes = dp.describe()  # only the lane fields the design reads replicate its words
    total = (words * dp.precision.word_bytes * lanes.get("vector_width", 1)
             * lanes.get("compute_units", 1))
    ports = STREAM_HBM_PORTS * 5 if algo.kind == "batch" else ADI_HBM_PORTS
    violations = []
    if total > device.on_chip_bytes:
        violations.append(
            f"on-chip words need {total} bytes, device has {device.on_chip_bytes:.0f}")
    if ports > device.hbm_ports:
        violations.append(f"needs {ports} HBM ports, device has {device.hbm_ports}")
    return ResourceEstimate(
        words=words,
        total_bytes=total,
        hbm_ports=ports,
        feasible=not violations,
        violations=tuple(violations),
    )

