"""Analytic cycle-count models for every solver and application design.

All arithmetic is exact (integers and ``fractions.Fraction``), so a
transcription of the same equation elsewhere must agree to the last digit
and ``cycles_to_seconds(c, f) * f == c`` holds exactly. Logarithms are
base-2 ceilings throughout, matching the reduction-step count definition
(the smallest P with ``2**P >= n``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .design import Algorithm, DesignPoint


def ceil_div(a: int, b: int) -> int:
    if b <= 0:
        raise ValueError("divisor must be positive")
    return -(-a // b)


def ceil_log2(n: int) -> int:
    """Smallest P with 2**P >= n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    p = 0
    while (1 << p) < n:
        p += 1
    return p


def cycles_to_seconds(cycles, frequency_hz) -> Fraction:
    if frequency_hz <= 0:
        raise ValueError("frequency must be positive")
    return Fraction(cycles) / Fraction(frequency_hz)


@dataclass(frozen=True)
class LatencyEstimate:
    """Exact cycle count with a per-term breakdown."""

    cycles: Fraction
    frequency_hz: float
    breakdown: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)
    stalled: bool = False
    per_system_asymptote: Fraction | None = None

    @property
    def seconds_exact(self) -> Fraction:
        return cycles_to_seconds(self.cycles, Fraction(self.frequency_hz))

    @property
    def seconds(self) -> float:
        return float(self.seconds_exact)

    @property
    def milliseconds(self) -> float:
        return self.seconds * 1e3

    def dominant_term(self) -> str:
        if not self.breakdown:
            return "total"
        return max(self.breakdown, key=lambda k: self.breakdown[k])


def _require_positive(**kwargs):
    for name, val in kwargs.items():
        if val < 1:
            raise ValueError(f"{name} must be >= 1")


def latency_batched_thomas(batch: int, n: int, dp: DesignPoint,
                           *, ping_pong: bool = True) -> LatencyEstimate:
    """Interleaved elimination over a batch of ``n``-row systems.

    ``(1 + ceil(B/g)) * g * n`` cycles in the base form; double-buffering
    the forward/backward hand-off adds ``2*g*n`` fill (the ping-pong form,
    default). Vector lanes and replicated compute units divide the batch.
    """
    _require_positive(batch=batch, n=n)
    dp = dp.resolved()
    g = dp.interleave_group
    lanes = g * dp.vector_width * dp.compute_units
    fill = (3 if ping_pong else 1) * g * n
    stream = ceil_div(batch, lanes) * g * n
    return LatencyEstimate(
        cycles=Fraction(fill + stream),
        frequency_hz=dp.frequency_hz,
        breakdown={"fill": Fraction(fill), "stream": Fraction(stream)},
        per_system_asymptote=Fraction(n, dp.vector_width * dp.compute_units),
    )


def latency_batched_pcr(batch: int, n: int, dp: DesignPoint) -> LatencyEstimate:
    """Cyclic reduction with the inner loop batched and unrolled.

    ``(B*n/unroll + l) * ceil_log2(n)`` cycles; the serial outer steps pay
    the pipeline latency once each.
    """
    _require_positive(batch=batch, n=n)
    dp = dp.resolved()
    steps = ceil_log2(n)
    per_step = Fraction(batch * n, dp.unroll) + dp.pipeline_latency
    return LatencyEstimate(
        cycles=per_step * steps,
        frequency_hz=dp.frequency_hz,
        breakdown={"reduction_steps": per_step * steps},
        per_system_asymptote=Fraction(n * steps, dp.unroll),
    )


def latency_batched_spike(batch: int, n: int, dp: DesignPoint) -> LatencyEstimate:
    """Partitioned factor/solve/back-substitute pipeline.

    ``(1 + ceil(B*m/g + 1)) * g*n/m + m*C`` cycles with ``m`` partitions of
    per-block reduced-stage cost ``C``. The two readings of the ``+1``
    (inside or outside the ceiling) coincide, since ``ceil(x+1) ==
    ceil(x)+1`` for any rational x. When ``m*C >= n`` the reduced stage
    cannot keep up and the data flow stalls; the estimate flags this
    rather than absorbing it.
    """
    _require_positive(batch=batch, n=n)
    dp = dp.resolved()
    g = dp.interleave_group
    m = dp.partitions
    cost = dp.partition_stage_cost
    factor = (1 + ceil_div(batch * m, g) + 1) * Fraction(g * n, m)
    reduced = m * cost
    return LatencyEstimate(
        cycles=factor + reduced,
        frequency_hz=dp.frequency_hz,
        breakdown={"factor_substitute": factor, "reduced_stage": Fraction(reduced)},
        stalled=m * cost >= n,
    )


def _tiled_common(batch: int, n: int, dp: DesignPoint) -> Fraction:
    g = dp.interleave_group
    t = dp.tiles
    return Fraction((2 + ceil_div(batch * t, g)) * ceil_div(n, t) * g)


def _check_tiles(dp: DesignPoint) -> DesignPoint:
    dp = dp.resolved()
    if dp.tiles is None or dp.tiles < 2:
        raise ValueError("tiled designs need tiles >= 2")
    return dp


def _axis_tiles(dp: DesignPoint) -> tuple[int, int]:
    """Tile counts of the tiled 2-D design along x and y, each >= 2."""
    t1 = dp.tiles_x or dp.tiles
    t2 = dp.tiles_y or dp.tiles
    if t1 is None or t2 is None or t1 < 2 or t2 < 2:
        raise ValueError("tiled 2-D design needs tiles_x and tiles_y >= 2")
    return t1, t2


def latency_thomas_thomas(batch: int, n: int, dp: DesignPoint) -> LatencyEstimate:
    """Tiled elimination with a direct reduced solve.

    Tile phase ``(2 + ceil(B*t/g)) * ceil(n/t) * g`` plus a reduced solve of
    ``2t`` rows interleaved over ``reduced_group`` systems, ``g_r*(2t)*2``.
    """
    _require_positive(batch=batch, n=n)
    dp = _check_tiles(dp)
    tiles_term = _tiled_common(batch, n, dp)
    reduced = Fraction(dp.reduced_group * (2 * dp.tiles) * 2)
    return LatencyEstimate(
        cycles=tiles_term + reduced,
        frequency_hz=dp.frequency_hz,
        breakdown={"tile_phase": tiles_term, "reduced_solve": reduced},
        per_system_asymptote=Fraction(dp.tiles * ceil_div(n, dp.tiles)),
    )


def latency_thomas_pcr(batch: int, n: int, dp: DesignPoint) -> LatencyEstimate:
    """Tiled elimination with a cyclic-reduction reduced solve:
    same tile phase plus ``(2t + l) * ceil_log2(2t)``."""
    _require_positive(batch=batch, n=n)
    dp = _check_tiles(dp)
    tiles_term = _tiled_common(batch, n, dp)
    two_t = 2 * dp.tiles
    reduced = Fraction((two_t + dp.pipeline_latency) * ceil_log2(two_t))
    return LatencyEstimate(
        cycles=tiles_term + reduced,
        frequency_hz=dp.frequency_hz,
        breakdown={"tile_phase": tiles_term, "reduced_solve": reduced},
        per_system_asymptote=Fraction(dp.tiles * ceil_div(n, dp.tiles)),
    )


def latency_adi3d(x: int, y: int, z: int, batch: int, n_iter: int,
                  dp: DesignPoint, *, port_limited: bool = False) -> LatencyEstimate:
    """Fused stencil + x/y sweeps pipelined against the z sweep.

    Per iteration the two modules swap read/write roles, so the iteration
    costs the slower of the two. ``port_limited`` substitutes the
    effective points-per-cycle for the vector width when HBM port sharing
    throttles the data path.
    """
    _require_positive(x=x, y=y, z=z, batch=batch, n_iter=n_iter)
    dp = dp.resolved()
    v = dp.points_per_cycle if port_limited else dp.vector_width
    g = dp.interleave_group
    waves = ceil_div(batch, 2 * dp.compute_units)
    drain = waves * Fraction(x * y * z, v)
    rhs_xy = (Fraction(2 * x * y, v)
              + (2 * v * Fraction(x, v) + 3 * g * x)
              + (Fraction(2 * x * y, v) + 3 * g * y)
              + drain)
    z_sweep = (Fraction(2 * x * z, v) + 3 * g * z) + drain
    per_iter = max(rhs_xy, z_sweep)
    return LatencyEstimate(
        cycles=n_iter * per_iter,
        frequency_hz=dp.frequency_hz,
        breakdown={"rhs_xy_module": n_iter * rhs_xy, "z_module": n_iter * z_sweep},
    )


def latency_adi2d(x: int, y: int, batch: int, n_iter: int,
                  dp: DesignPoint) -> LatencyEstimate:
    """Fully pipelined 2-D iteration, unrolled ``unroll`` times.

    The pipeline prologue scales with the unroll factor while the batch
    drain is paid once per unrolled group, so deeper unrolls win at large
    batch. Iteration counts that the unroll does not divide round up.
    Also reports the iteration-loopback delay-buffer size in words.
    """
    _require_positive(x=x, y=y, batch=batch, n_iter=n_iter)
    dp = dp.resolved()
    v = dp.vector_width
    g = dp.interleave_group
    f_u = dp.unroll
    prologue = (Fraction(2 * x, v)
                + (2 * v * Fraction(x, v) + 3 * g * x)
                + (Fraction(2 * x * y, v) + 3 * g * y))
    per_group = f_u * prologue + ceil_div(batch, dp.compute_units) * Fraction(x * y, v)
    cycles = ceil_div(n_iter, f_u) * per_group
    fifo_words = (Fraction(2 * x, v) + 2 * v * Fraction(x, v)
                  + 3 * g * x + 3 * g * y + Fraction(2 * x * y, v))
    return LatencyEstimate(
        cycles=cycles,
        frequency_hz=dp.frequency_hz,
        breakdown={"prologue": ceil_div(n_iter, f_u) * f_u * prologue,
                   "stream": ceil_div(n_iter, f_u) * (per_group - f_u * prologue)},
        extras={"delay_buffer_words": fifo_words},
    )


def latency_adi2d_tiled(x: int, y: int, batch: int, n_iter: int, dp: DesignPoint,
                        *, reduced: str = "thomas") -> LatencyEstimate:
    """Large-mesh 2-D iteration built on tiled solvers.

    The stencil fuses with the x sweep; the y sweep runs as its own stage
    over buffered planes of ``datapath_tile_x`` columns. With ``reduced ==
    "pcr"`` the per-stage reduced-solve term ``4*g*t`` becomes
    ``ceil_log2(2t) * (2t + l)``.
    """
    _require_positive(x=x, y=y, batch=batch, n_iter=n_iter)
    dp = dp.resolved()
    t1, t2 = _axis_tiles(dp)
    tx = dp.datapath_tile_x or t1
    v = dp.vector_width
    g = dp.interleave_group
    if reduced == "thomas":
        red1, red2 = Fraction(4 * g * t1), Fraction(4 * g * t2)
    elif reduced == "pcr":
        l = dp.pipeline_latency
        red1 = Fraction(ceil_log2(2 * t1) * (2 * t1 + l))
        red2 = Fraction(ceil_log2(2 * t2) * (2 * t2 + l))
    else:
        raise ValueError("reduced must be 'thomas' or 'pcr'")
    drain = Fraction(batch * x * y, v)
    rhs_x = (Fraction(2 * x, v) + 2 * v * Fraction(x, v)
             + Fraction(3 * g * x, t1) + red1 + drain)
    y_stage = (2 * y * Fraction(tx, v) + Fraction(3 * g * y, t2) + red2 + drain)
    return LatencyEstimate(
        cycles=n_iter * (rhs_x + y_stage),
        frequency_hz=dp.frequency_hz,
        breakdown={"rhs_x_stage": n_iter * rhs_x, "y_stage": n_iter * y_stage},
    )


def latency_for_problem(dp: DesignPoint, *, batch: int, n: int | None = None,
                        dims: tuple[int, ...] | None = None,
                        n_iter: int = 1) -> LatencyEstimate:
    """Dispatch to the model matching the design's algorithm."""
    algo = dp.algorithm
    if algo in (Algorithm.BATCHED_THOMAS, Algorithm.BATCHED_PCR,
                Algorithm.BATCHED_SPIKE, Algorithm.THOMAS_THOMAS,
                Algorithm.THOMAS_PCR):
        if n is None:
            raise ValueError(f"{algo.value} needs a system size n")
        fn = {
            Algorithm.BATCHED_THOMAS: latency_batched_thomas,
            Algorithm.BATCHED_PCR: latency_batched_pcr,
            Algorithm.BATCHED_SPIKE: latency_batched_spike,
            Algorithm.THOMAS_THOMAS: latency_thomas_thomas,
            Algorithm.THOMAS_PCR: latency_thomas_pcr,
        }[algo]
        return fn(batch, n, dp)
    if dims is None:
        raise ValueError(f"{algo.value} needs mesh dims")
    if algo is Algorithm.ADI2D:
        return latency_adi2d(dims[0], dims[1], batch, n_iter, dp)
    if algo is Algorithm.ADI2D_TILED:
        return latency_adi2d_tiled(dims[0], dims[1], batch, n_iter, dp)
    if algo is Algorithm.ADI3D:
        if len(dims) != 3:
            raise ValueError("adi3d needs (x, y, z) dims")
        return latency_adi3d(dims[0], dims[1], dims[2], batch, n_iter, dp)
    raise ValueError(f"no latency model for {algo}")
