"""On-chip word counts and feasibility against a device budget.

Word counts follow the ping-pong buffer accounting of the interleaved
solvers: a single elimination lane over groups of ``g`` systems of size
``n`` keeps the six working vectors double-buffered (``12*g*n`` words) plus
four ``g``-word carry RAMs. A tiled lane halves that to nine buffers over
``g/t``-system groups, with a small reduced-system stage and a FIFO that
covers the reduced solve's cycle count. The vectorized data path
replicates the lane per vector lane, and each compute unit replicates the
whole pipeline, so feasibility compares

    words * word_bytes * vector_width * compute_units

against the device's combined BRAM+URAM bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import InfeasibleDesign
from .design import Algorithm, DesignPoint
from .device import DeviceProfile
from .latency import _axis_tiles, _check_tiles, ceil_div, ceil_log2

REDUCED_FIFO_BUFFERS = 3  # streams drained while the reduced stage runs
ADI_HBM_PORTS = 24        # measured port budget of the fused ADI pipelines
STREAM_HBM_PORTS = 2      # ports per independent data structure stream


def _solver_lane_words(g: int, n: int) -> int:
    return 12 * g * n + 4 * g


def _tiled_lane_words(g: int, n: int, t: int) -> int:
    if ceil_div(n, t) < 3:
        from ..errors import InvalidTilePlan

        raise InvalidTilePlan(f"n={n} over t={t} tiles leaves tiles below 3 rows")
    per_group = ceil_div(g, t)
    return 18 * per_group * n + 28 * t * per_group


@dataclass(frozen=True)
class ResourceEstimate:
    """Words per solver lane and the feasibility verdict for a full design."""

    words: int
    word_bytes: int
    lanes: int
    total_bytes: int
    hbm_ports: int
    bram_blocks_equiv: int
    uram_blocks_equiv: int
    feasible: bool
    violations: tuple[str, ...] = ()


def memory_words(dp: DesignPoint, n: int, device: DeviceProfile,
                 *, strict: bool = False) -> ResourceEstimate:
    """Estimate on-chip storage for a design solving size-``n`` systems.

    For mesh applications pass the largest solved extent as ``n``. With
    ``strict`` an infeasible design raises :class:`InfeasibleDesign`
    naming each violated budget.
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
    elif algo is Algorithm.BATCHED_SPIKE:
        words = _solver_lane_words(g, ceil_div(n, dp.partitions))
    elif algo is Algorithm.THOMAS_THOMAS:
        t = _check_tiles(dp).tiles
        reduced_cycles = dp.reduced_group * (2 * t) * 2
        words = (_tiled_lane_words(g, n, t)
                 + REDUCED_FIFO_BUFFERS * reduced_cycles)
    elif algo is Algorithm.THOMAS_PCR:
        t = _check_tiles(dp).tiles
        words = (_tiled_lane_words(g, n, t)
                 + REDUCED_FIFO_BUFFERS * (2 * t + dp.pipeline_latency) * ceil_log2(2 * t))
    elif algo is Algorithm.ADI2D:
        words = 2 * _solver_lane_words(g, n) + 2 * n
    elif algo is Algorithm.ADI3D:
        words = 3 * _solver_lane_words(g, n) + 2 * n * n
    elif algo is Algorithm.ADI2D_TILED:
        t1, t2 = _axis_tiles(dp)
        tx = dp.datapath_tile_x or t1
        words = (_tiled_lane_words(g, n, t1) + _tiled_lane_words(g, n, t2)
                 + 2 * tx * n)
    else:
        raise ValueError(f"no memory model for {algo}")

    word_bytes = dp.precision.word_bytes
    lanes = dp.vector_width * dp.compute_units
    total = words * word_bytes * lanes
    ports = ADI_HBM_PORTS if algo.is_adi else STREAM_HBM_PORTS * 5
    violations = []
    if total > device.on_chip_bytes:
        violations.append(
            f"on-chip words need {total} bytes, device has {device.on_chip_bytes:.0f}")
    if ports > device.hbm_ports:
        violations.append(f"needs {ports} HBM ports, device has {device.hbm_ports}")
    est = ResourceEstimate(
        words=words,
        word_bytes=word_bytes,
        lanes=lanes,
        total_bytes=total,
        hbm_ports=ports,
        bram_blocks_equiv=ceil_div(total, max(1, int(device.bram_bytes // device.bram_blocks))),
        uram_blocks_equiv=ceil_div(total, max(1, int(device.uram_bytes // device.uram_blocks))),
        feasible=not violations,
        violations=tuple(violations),
    )
    if strict and violations:
        raise InfeasibleDesign(violations)
    return est

