"""Analytic cycle-count models for every solver and application design.

All arithmetic is exact (integers and ``fractions.Fraction``), so a
transcription of the same equation elsewhere must agree to the last digit
and ``seconds_exact * frequency_hz == cycles`` holds exactly. Logarithms
are base-2 ceilings throughout, matching the reduction-step count
definition (the smallest P with ``2**P >= n``).

:func:`latency_for_problem` is the one entry point: it checks the problem
and resolves the design, so each design's formula below reads a valid
:class:`ProblemSpec` of its kind and a resolved :class:`DesignPoint`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ..tiled import TilePlan
from .design import Algorithm, DesignPoint, ProblemSpec, check_kind


def ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def ceil_log2(n: int) -> int:
    """Smallest P with 2**P >= n, for n >= 1."""
    return (n - 1).bit_length()


@dataclass(frozen=True)
class LatencyEstimate:
    """Exact cycle count with a per-term breakdown."""

    cycles: Fraction
    frequency_hz: float
    breakdown: dict
    stalled: bool = False  # no design's data flow stalls yet; reports keep the key

    @property
    def seconds_exact(self) -> Fraction:
        return Fraction(self.cycles) / Fraction(self.frequency_hz)

    @property
    def seconds(self) -> float:
        return float(self.seconds_exact)

    @property
    def milliseconds(self) -> float:
        return self.seconds * 1e3

    def dominant_term(self) -> str:
        return max(self.breakdown, key=lambda k: self.breakdown[k])


def _batched_thomas(p: ProblemSpec, dp: DesignPoint) -> LatencyEstimate:
    """Interleaved elimination over a batch of ``n``-row systems.

    ``(3 + ceil(B/g)) * g * n`` cycles: the forward and backward sweeps hand
    off through ping-pong buffers, so the pipeline fills for ``3*g*n``
    cycles before streaming ``g*n`` per group. Vector lanes and replicated
    compute units divide the batch.
    """
    g, n = dp.interleave_group, p.size
    lanes = g * dp.vector_width * dp.compute_units
    fill = 3 * g * n
    stream = ceil_div(p.batch, lanes) * g * n
    return LatencyEstimate(
        cycles=Fraction(fill + stream),
        frequency_hz=dp.frequency_hz,
        breakdown={"fill": Fraction(fill), "stream": Fraction(stream)},
    )


def _batched_pcr(p: ProblemSpec, dp: DesignPoint) -> LatencyEstimate:
    """Cyclic reduction with the inner loop batched and unrolled.

    ``(B*n/unroll + l) * max(1, ceil_log2(n))`` cycles; the serial outer
    steps pay the pipeline latency once each. A 1-row system takes no
    reduction step but still makes the solver's one normalization pass.
    """
    steps = max(1, ceil_log2(p.size))
    per_step = Fraction(p.batch * p.size, dp.unroll) + dp.pipeline_latency
    return LatencyEstimate(
        cycles=per_step * steps,
        frequency_hz=dp.frequency_hz,
        breakdown={"reduction_steps": per_step * steps},
    )


def _reduced_solve(dp: DesignPoint, t: int) -> int:
    """Cycles of a tiled design's ``2t``-row reduced solve: thomas-thomas
    interleaves it over ``reduced_group`` systems, ``g_r*(2t)*2``;
    thomas-pcr takes ``(2t + l) * ceil_log2(2t)``."""
    if dp.algorithm is Algorithm.THOMAS_THOMAS:
        return dp.reduced_group * (2 * t) * 2
    return (2 * t + dp.pipeline_latency) * ceil_log2(2 * t)


def _tiled(p: ProblemSpec, dp: DesignPoint) -> LatencyEstimate:
    """Tiled elimination followed by the reduced solve of
    :func:`_reduced_solve`.

    Tile phase ``(2 + ceil(B*t/g)) * ceil(n/t) * g``. A tiling the solver's
    :class:`tridax.tiled.TilePlan` rejects raises
    :class:`tridax.errors.InvalidTilePlan`, as in every tiled model.
    """
    g, t = dp.interleave_group, TilePlan(p.size, dp.tiles).t  # the solver's tiling rule
    tiles_term = Fraction((2 + ceil_div(p.batch * t, g)) * ceil_div(p.size, t) * g)
    red = Fraction(_reduced_solve(dp, t))
    return LatencyEstimate(
        cycles=tiles_term + red,
        frequency_hz=dp.frequency_hz,
        breakdown={"tile_phase": tiles_term, "reduced_solve": red},
    )


def _adi3d(p: ProblemSpec, dp: DesignPoint) -> LatencyEstimate:
    """Fused stencil + x/y sweeps pipelined against the z sweep.

    Per iteration the two modules swap read/write roles, so the iteration
    costs the slower of the two. The data path moves ``vector_width``
    points a cycle.
    """
    x, y, z = p.dims
    v = dp.vector_width
    g = dp.interleave_group
    waves = ceil_div(p.batch, 2 * dp.compute_units)
    drain = waves * Fraction(x * y * z, v)
    rhs_xy = (Fraction(2 * x * y, v)
              + (2 * v * Fraction(x, v) + 3 * g * x)
              + (Fraction(2 * x * y, v) + 3 * g * y)
              + drain)
    z_sweep = (Fraction(2 * x * z, v) + 3 * g * z) + drain
    per_iter = max(rhs_xy, z_sweep)
    return LatencyEstimate(
        cycles=p.n_iter * per_iter,
        frequency_hz=dp.frequency_hz,
        breakdown={"rhs_xy_module": p.n_iter * rhs_xy, "z_module": p.n_iter * z_sweep},
    )


def _adi2d(p: ProblemSpec, dp: DesignPoint) -> LatencyEstimate:
    """Fully pipelined 2-D iteration, unrolled ``unroll`` times.

    The pipeline prologue scales with the unroll factor while the batch
    drain is paid once per unrolled group, so deeper unrolls win at large
    batch. Iteration counts that the unroll does not divide round up.
    """
    x, y = p.dims
    v = dp.vector_width
    g = dp.interleave_group
    f_u = dp.unroll
    prologue = (Fraction(2 * x, v)
                + (2 * v * Fraction(x, v) + 3 * g * x)
                + (Fraction(2 * x * y, v) + 3 * g * y))
    per_group = f_u * prologue + ceil_div(p.batch, dp.compute_units) * Fraction(x * y, v)
    groups = ceil_div(p.n_iter, f_u)
    return LatencyEstimate(
        cycles=groups * per_group,
        frequency_hz=dp.frequency_hz,
        breakdown={"prologue": groups * f_u * prologue,
                   "stream": groups * (per_group - f_u * prologue)},
    )


def _adi2d_tiled(p: ProblemSpec, dp: DesignPoint) -> LatencyEstimate:
    """Large-mesh 2-D iteration built on tiled solvers.

    The stencil fuses with the x sweep; the y sweep runs as its own stage
    over buffered planes of ``t`` columns. The x and the y lines are tiled
    ``t = tiles`` ways, and each stage ends in a direct solve of its ``2t``
    reduced rows, interleaved over ``g`` systems: ``4*g*t`` cycles.
    """
    x, y = p.dims
    t = TilePlan(x, dp.tiles).t
    TilePlan(y, t)  # the solver's rule on both axes
    v = dp.vector_width
    g = dp.interleave_group
    drain = Fraction(p.batch * x * y, v)
    rhs_x = (Fraction(2 * x, v) + 2 * v * Fraction(x, v)
             + Fraction(3 * g * x, t) + 4 * g * t + drain)
    y_stage = (2 * y * Fraction(t, v) + Fraction(3 * g * y, t) + 4 * g * t + drain)
    return LatencyEstimate(
        cycles=p.n_iter * (rhs_x + y_stage),
        frequency_hz=dp.frequency_hz,
        breakdown={"rhs_x_stage": p.n_iter * rhs_x, "y_stage": p.n_iter * y_stage},
    )


_MODELS = {
    Algorithm.BATCHED_THOMAS: _batched_thomas,
    Algorithm.BATCHED_PCR: _batched_pcr,
    Algorithm.THOMAS_THOMAS: _tiled,
    Algorithm.THOMAS_PCR: _tiled,
    Algorithm.ADI2D: _adi2d,
    Algorithm.ADI2D_TILED: _adi2d_tiled,
    Algorithm.ADI3D: _adi3d,
}


def latency_for_problem(dp: DesignPoint, *, batch: int, n: int | None = None,
                        dims: tuple[int, ...] | None = None,
                        n_iter: int | None = None) -> LatencyEstimate:
    """The design's modelled latency on ``batch`` systems of ``n`` rows or
    ``batch`` meshes of ``dims``, ``n_iter`` iterations of a mesh problem
    (1 if unset; a batch problem takes none).

    The problem is checked as a :class:`ProblemSpec`; one of another
    :attr:`~Algorithm.kind` than the design's raises ``ValueError``.
    """
    problem = ProblemSpec(batch, n, None if dims is None else tuple(dims), dp.precision,
                          n_iter)
    check_kind(dp.algorithm, problem)
    return _MODELS[dp.algorithm](problem, dp.resolved())
