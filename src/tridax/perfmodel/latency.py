"""Analytic cycle-count models for every solver and application design.

All arithmetic is exact (integers and ``fractions.Fraction``), so a
transcription of the same equation elsewhere must agree to the last digit
and ``cycles_to_seconds(c, f) * f == c`` holds exactly. Logarithms are
base-2 ceilings throughout, matching the reduction-step count definition
(the smallest P with ``2**P >= n``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ..tiled import TilePlan
from .design import Algorithm, DesignPoint, ProblemSpec


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
    breakdown: dict
    stalled: bool = False

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
        return max(self.breakdown, key=lambda k: self.breakdown[k])


def _require_positive(**kwargs):
    for name, val in kwargs.items():
        if val < 1:
            raise ValueError(f"{name} must be >= 1")


def _check_partitions(partitions: int, n: int) -> None:
    """The partitioned solver's rule: every partition holds at least one of
    a system's ``n`` rows."""
    if partitions > n:
        raise ValueError(f"{partitions} partitions exceed the {n} rows of a system")


def latency_batched_thomas(batch: int, n: int, dp: DesignPoint) -> LatencyEstimate:
    """Interleaved elimination over a batch of ``n``-row systems.

    ``(3 + ceil(B/g)) * g * n`` cycles: the forward and backward sweeps hand
    off through ping-pong buffers, so the pipeline fills for ``3*g*n``
    cycles before streaming ``g*n`` per group. Vector lanes and replicated
    compute units divide the batch.
    """
    _require_positive(batch=batch, n=n)
    dp = dp.resolved()
    g = dp.interleave_group
    lanes = g * dp.vector_width * dp.compute_units
    fill = 3 * g * n
    stream = ceil_div(batch, lanes) * g * n
    return LatencyEstimate(
        cycles=Fraction(fill + stream),
        frequency_hz=dp.frequency_hz,
        breakdown={"fill": Fraction(fill), "stream": Fraction(stream)},
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
    )


def latency_batched_spike(batch: int, n: int, dp: DesignPoint) -> LatencyEstimate:
    """Partitioned factor/solve/back-substitute pipeline.

    ``(1 + ceil(B*m/g + 1)) * g*ceil(n/m) + m*C`` cycles with ``m``
    partitions of per-block reduced-stage cost ``C = 2*l``, two passes
    through the ``l``-stage pipeline; a partition holds
    ``ceil(n/m)`` rows, as in the memory model. The two readings of the
    ``+1`` (inside or outside the ceiling) coincide, since ``ceil(x+1) ==
    ceil(x)+1`` for any rational x. When ``m*C >= n`` the reduced stage
    cannot keep up and the data flow stalls; the estimate flags this rather
    than absorbing it.
    """
    _require_positive(batch=batch, n=n)
    dp = dp.resolved()
    _check_partitions(dp.partitions, n)
    g = dp.interleave_group
    m = dp.partitions
    cost = 2 * dp.pipeline_latency
    factor = Fraction((1 + ceil_div(batch * m, g) + 1) * g * ceil_div(n, m))
    reduced = m * cost
    return LatencyEstimate(
        cycles=factor + reduced,
        frequency_hz=dp.frequency_hz,
        breakdown={"factor_substitute": factor, "reduced_stage": Fraction(reduced)},
        stalled=m * cost >= n,
    )


def _reduced_solve(reduced: str, t: int, g: int, l: int) -> int:
    """Cycles of the ``2t``-row reduced solve: ``g*(2t)*2`` interleaved
    over ``g`` systems by Thomas, ``(2t + l) * ceil_log2(2t)`` by PCR."""
    if reduced == "thomas":
        return g * (2 * t) * 2
    if reduced == "pcr":
        return (2 * t + l) * ceil_log2(2 * t)
    raise ValueError("reduced must be 'thomas' or 'pcr'")


def _latency_tiled(reduced: str, batch: int, n: int, dp: DesignPoint) -> LatencyEstimate:
    _require_positive(batch=batch, n=n)
    dp = dp.resolved()
    g, t = dp.interleave_group, TilePlan(n, dp.tiles).t  # the solver's tiling rule
    tiles_term = Fraction((2 + ceil_div(batch * t, g)) * ceil_div(n, t) * g)
    red = Fraction(_reduced_solve(reduced, t, dp.reduced_group, dp.pipeline_latency))
    return LatencyEstimate(
        cycles=tiles_term + red,
        frequency_hz=dp.frequency_hz,
        breakdown={"tile_phase": tiles_term, "reduced_solve": red},
    )


def latency_thomas_thomas(batch: int, n: int, dp: DesignPoint) -> LatencyEstimate:
    """Tiled elimination with a direct reduced solve.

    Tile phase ``(2 + ceil(B*t/g)) * ceil(n/t) * g`` plus a reduced solve of
    ``2t`` rows interleaved over ``reduced_group`` systems, ``g_r*(2t)*2``.
    A tiling the solver's :class:`tridax.tiled.TilePlan` rejects raises
    :class:`tridax.errors.InvalidTilePlan`, as in every tiled model.
    """
    return _latency_tiled("thomas", batch, n, dp)


def latency_thomas_pcr(batch: int, n: int, dp: DesignPoint) -> LatencyEstimate:
    """Tiled elimination with a cyclic-reduction reduced solve:
    same tile phase plus ``(2t + l) * ceil_log2(2t)``."""
    return _latency_tiled("pcr", batch, n, dp)


def latency_adi3d(x: int, y: int, z: int, batch: int, n_iter: int,
                  dp: DesignPoint) -> LatencyEstimate:
    """Fused stencil + x/y sweeps pipelined against the z sweep.

    Per iteration the two modules swap read/write roles, so the iteration
    costs the slower of the two. The data path moves ``vector_width``
    points a cycle.
    """
    _require_positive(x=x, y=y, z=z, batch=batch, n_iter=n_iter)
    dp = dp.resolved()
    v = dp.vector_width
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
    return LatencyEstimate(
        cycles=cycles,
        frequency_hz=dp.frequency_hz,
        breakdown={"prologue": ceil_div(n_iter, f_u) * f_u * prologue,
                   "stream": ceil_div(n_iter, f_u) * (per_group - f_u * prologue)},
    )


def latency_adi2d_tiled(x: int, y: int, batch: int, n_iter: int,
                        dp: DesignPoint) -> LatencyEstimate:
    """Large-mesh 2-D iteration built on tiled solvers.

    The stencil fuses with the x sweep; the y sweep runs as its own stage
    over buffered planes of ``t`` columns. The x and the y lines are tiled
    ``t = tiles`` ways, and each stage ends in a direct solve of its ``2t``
    reduced rows, interleaved over ``g`` systems: ``4*g*t`` cycles.
    """
    _require_positive(x=x, y=y, batch=batch, n_iter=n_iter)
    dp = dp.resolved()
    t = TilePlan(x, dp.tiles).t
    TilePlan(y, t)  # the solver's rule on both axes
    v = dp.vector_width
    g = dp.interleave_group
    drain = Fraction(batch * x * y, v)
    rhs_x = (Fraction(2 * x, v) + 2 * v * Fraction(x, v)
             + Fraction(3 * g * x, t) + 4 * g * t + drain)
    y_stage = (2 * y * Fraction(t, v) + Fraction(3 * g * y, t) + 4 * g * t + drain)
    return LatencyEstimate(
        cycles=n_iter * (rhs_x + y_stage),
        frequency_hz=dp.frequency_hz,
        breakdown={"rhs_x_stage": n_iter * rhs_x, "y_stage": n_iter * y_stage},
    )


_MODELS = {  # called as (batch, n, dp) on systems, (*dims, batch, n_iter, dp) on meshes
    Algorithm.BATCHED_THOMAS: latency_batched_thomas,
    Algorithm.BATCHED_PCR: latency_batched_pcr,
    Algorithm.BATCHED_SPIKE: latency_batched_spike,
    Algorithm.THOMAS_THOMAS: latency_thomas_thomas,
    Algorithm.THOMAS_PCR: latency_thomas_pcr,
    Algorithm.ADI2D: latency_adi2d,
    Algorithm.ADI2D_TILED: latency_adi2d_tiled,
    Algorithm.ADI3D: latency_adi3d,
}


def latency_for_problem(dp: DesignPoint, *, batch: int, n: int | None = None,
                        dims: tuple[int, ...] | None = None,
                        n_iter: int = 1) -> LatencyEstimate:
    """Dispatch to the model of the design's algorithm for the problem of
    ``n``-row systems or ``dims`` meshes; a problem of another
    :attr:`~Algorithm.kind` than the design's raises ``ValueError``."""
    algo = dp.algorithm
    problem = ProblemSpec(batch, n, None if dims is None else tuple(dims), n_iter=n_iter)
    if problem.kind != algo.kind:
        need = ("needs a system size n" if algo.kind == "batch"
                else "needs mesh dims" if dims is None
                else f"cannot take mesh dims {problem.dims}")
        raise ValueError(f"{algo.value} {need}")
    if dims is None:
        return _MODELS[algo](batch, n, dp)
    return _MODELS[algo](*dims, batch, n_iter, dp)
