"""Laws of the analytic model over random designs and problems: a lane field
never slows a design down, and costs memory only where it speeds the design
up for some batch; the latency never falls as the problem grows; memory and
latency accept the same tilings of a batch problem; and a smaller design
grid never ranks a better design first.

A lane is set past ``DesignPoint``'s check that the design reads it, so the
laws also cover the lanes a design ignores: those must change nothing."""

from copy import copy

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tridax import InvalidTilePlan, NoFeasibleDesign, Precision
from tridax.perfmodel import (U280, Algorithm, DesignPoint, GridSpec, ProblemSpec,
                              dse_enumerate, latency_for_problem, memory_words)
from tridax.perfmodel.design import DESIGN_FIELDS, SHARED_FIELDS

SETTINGS = settings(max_examples=60, deadline=None)
LANES = ("vector_width", "compute_units")
# batches tried for a latency a wider lane lowers; the largest splits unevenly
# over any two lane counts drawn here
BATCHES = (1, 1000, 10**9)

precisions = st.sampled_from([Precision.FP32, Precision.FP64])


@st.composite
def designs(draw, algo):
    """A valid design of ``algo``: each field it reads drawn, the rest unset."""
    values = {"interleave_group": st.sampled_from([None, 1, 4, 16, 64]),
              "vector_width": st.integers(1, 16), "unroll": st.integers(1, 4),
              "tiles": st.integers(1, 16), "compute_units": st.integers(1, 8),
              "pipeline_latency": st.integers(1, 60),
              "frequency_hz": st.sampled_from([100e6, 300e6])}
    return DesignPoint(algo, precision=draw(precisions),
                       **{name: draw(values[name]) for name in values
                          if name in SHARED_FIELDS + DESIGN_FIELDS[algo]})


@st.composite
def problems(draw, kind):
    """``latency_for_problem`` keywords of a problem of ``kind``."""
    if kind == "batch":
        return {"batch": draw(st.integers(1, 5000)), "n": draw(st.integers(1, 3000))}
    extents = st.integers(3, 256 if kind == "adi2d" else 48)
    return {"batch": draw(st.integers(1, 40)),
            "dims": tuple(draw(extents) for _ in range(int(kind[3]))),
            "n_iter": draw(st.integers(1, 6))}


def with_field(dp, name, value):
    """``dp`` with one field set, past the check that its design reads it."""
    out = copy(dp)
    object.__setattr__(out, name, value)
    return out


def cycles(dp, **where):
    """The modelled cycles, or ``None`` for a tiling the solver rejects."""
    try:
        return latency_for_problem(dp, **where).cycles
    except InvalidTilePlan:
        return None


@pytest.mark.parametrize("algo", list(Algorithm))
@SETTINGS
@given(data=st.data(), lane=st.sampled_from(LANES), extra=st.integers(1, 8))
def test_more_lanes_never_raise_the_latency(algo, data, lane, extra):
    dp = data.draw(designs(algo))
    where = data.draw(problems(algo.kind))
    before = cycles(dp, **where)
    assume(before is not None)
    assert cycles(with_field(dp, lane, (getattr(dp, lane) or 1) + extra), **where) <= before


@pytest.mark.parametrize("algo", list(Algorithm))
@SETTINGS
@given(data=st.data(), lane=st.sampled_from(LANES), extra=st.integers(1, 8))
def test_a_lane_that_costs_memory_lowers_the_latency_of_some_batch(algo, data, lane,
                                                                   extra):
    # the idle-lane law: memory replicated over a lane must buy speed somewhere
    dp = data.draw(designs(algo))
    where = data.draw(problems(algo.kind))
    assume(cycles(dp, **where) is not None)
    wider = with_field(dp, lane, (getattr(dp, lane) or 1) + extra)  # an ignored lane is None
    n = max(where["dims"]) if "dims" in where else where["n"]
    if memory_words(wider, n, U280).total_bytes > memory_words(dp, n, U280).total_bytes:
        assert any(cycles(wider, **{**where, "batch": b}) < cycles(dp, **{**where, "batch": b})
                   for b in BATCHES), f"{lane} costs memory on {algo.value} for no speed"


@pytest.mark.parametrize("algo", list(Algorithm))
@SETTINGS
@given(data=st.data(), extra=st.integers(1, 100))
def test_the_latency_never_falls_as_the_problem_grows(algo, data, extra):
    dp = data.draw(designs(algo))
    where = data.draw(problems(algo.kind))
    grown = dict(where)
    if algo.kind == "batch":
        key = data.draw(st.sampled_from(["batch", "n"]))
        grown[key] += extra
    else:
        key = data.draw(st.sampled_from(["batch", "n_iter", "dims"]))
        if key == "dims":
            axis = data.draw(st.integers(0, len(where["dims"]) - 1))
            grown["dims"] = tuple(e + extra * (i == axis) for i, e in enumerate(where["dims"]))
        else:
            grown[key] += extra
    before, after = cycles(dp, **where), cycles(dp, **grown)
    assume(before is not None and after is not None)
    assert after >= before, key


@SETTINGS
@given(algo=st.sampled_from([a for a in Algorithm if a.kind == "batch"]),
       n=st.integers(1, 300), precision=precisions, data=st.data())
def test_memory_and_latency_accept_the_same_batch_tilings(algo, n, precision, data):
    tiles = data.draw(st.integers(1, n + 2)) if algo.is_tiled else None
    dp = DesignPoint(algo, precision=precision, tiles=tiles)
    verdicts = []
    for model in (lambda: latency_for_problem(dp, batch=10, n=n),
                  lambda: memory_words(dp, n, U280)):
        try:
            model()
            verdicts.append(None)
        except InvalidTilePlan as exc:
            verdicts.append(str(exc))
    assert verdicts[0] == verdicts[1]


GRID_VALUES = {"tiles": [2, 3, 4, 8, 16], "unrolls": [1, 2, 3], "groups": [None, 8, 32],
               "vector_widths": [1, 4, 8], "compute_units": [1, 2, 3],
               "frequencies_hz": [200e6, 300e6]}
PROBLEMS = {"batch": [dict(batch=100, size=64), dict(batch=100, size=8192),
                      dict(batch=10, size=65536), dict(batch=5, size=9)],
            "adi2d": [dict(batch=30, dims=(64, 32), n_iter=3),
                      dict(batch=100, dims=(4096, 4096))],
            "adi3d": [dict(batch=2, dims=(32, 16, 24), n_iter=2)]}


def draw_grid(data, algos, values, label):
    """A grid of some of ``algos`` with a list drawn from ``values[lst]`` for
    each field one of them reads; the grid rejects the other lists."""
    def some(pool, name):
        return data.draw(st.lists(st.sampled_from(pool), min_size=1, unique=True),
                         label=label + name)
    picked = some(algos, "algorithms")
    return GridSpec(algorithms=picked, **{
        lst: some(values[lst], lst) for name, lst in GridSpec.LISTS.items()
        if any(name in SHARED_FIELDS + DESIGN_FIELDS[a] for a in picked)})


def best_seconds(problem, grid):
    try:
        return dse_enumerate(problem, U280, grid)[0].latency.seconds_exact
    except NoFeasibleDesign:
        return None


@settings(max_examples=40, deadline=None)
@given(data=st.data(), kind=st.sampled_from(sorted(PROBLEMS)), precision=precisions)
def test_a_smaller_grid_never_ranks_a_better_design(data, kind, precision):
    problem = ProblemSpec(precision=precision,
                          **data.draw(st.sampled_from(PROBLEMS[kind]), label="problem"))
    full = draw_grid(data, [a for a in Algorithm if a.kind == kind], GRID_VALUES, "")
    small = draw_grid(data, full.algorithms, vars(full), "sub ")
    best, best_small = best_seconds(problem, full), best_seconds(problem, small)
    if best is None:
        assert best_small is None
    elif best_small is not None:
        assert best_small >= best
