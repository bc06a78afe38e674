"""Property tests: scalar, batched and mesh-sweep solves agree bit for bit
for every algorithm and tile count, a planted zero pivot is reported at its
row and line, and a batch's failures are each system's own."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tridax import (BatchSolveError, InvalidTilePlan, LineSolveError, Mesh, NonFiniteSolution,
                    Precision, TilePlan, TridiagonalBatch, TridiagonalSystem, ZeroPivot,
                    batch_solve, random_dominant_system, solve_lines, solve_system)
from tridax.core import SOLVER_NAMES

STORAGE_DIM = {"x": 3, "y": 2, "z": 1}  # axis position in (batch, z, y, x)
SETTINGS = settings(max_examples=40, deadline=None)

precisions = st.sampled_from([Precision.FP32, Precision.FP64])
seeds = st.integers(0, 2**32 - 1)
algos = st.sampled_from(SOLVER_NAMES)


def draw_tiles(data, algo, n):
    """A tile count ``TilePlan`` accepts for ``n`` rows; None for thomas and pcr."""
    if algo in ("thomas", "pcr"):
        return None
    tiles = data.draw(st.integers(2, max(2, n // 3)), label="tiles")
    try:
        TilePlan(n, tiles)
    except InvalidTilePlan:
        assume(False)
    return tiles


def dominant_rows(rng, shape, dtype):
    """Strictly diagonally dominant (a, b, c) with rows along axis 0."""
    a = rng.uniform(-1, 1, shape)
    c = rng.uniform(-1, 1, shape)
    a[0] = 0
    c[-1] = 0
    b = np.abs(a) + np.abs(c) + rng.uniform(1, 2, shape)
    return a.astype(dtype), b.astype(dtype), c.astype(dtype)


@st.composite
def batches(draw):
    n = draw(st.integers(1, 40))
    count = draw(st.integers(1, 12))
    precision = draw(precisions)
    rng = np.random.default_rng(draw(seeds))
    systems = [random_dominant_system(n, rng, precision) for _ in range(count)]
    return systems, TridiagonalBatch.from_systems(systems)


@st.composite
def meshes(draw):
    ndim = draw(st.sampled_from([2, 3]))
    dims = tuple(draw(st.integers(1, 9)) for _ in range(ndim))
    mesh = Mesh.zeros(dims, batch=draw(st.integers(1, 3)), precision=draw(precisions))
    rng = np.random.default_rng(draw(seeds))
    mesh.data[:] = rng.standard_normal(mesh.data.shape)
    axis = draw(st.sampled_from([a.value for a in mesh.solved_axes()]))
    return mesh, axis, rng


def axis_view(mesh, axis):
    return np.moveaxis(mesh.data, STORAGE_DIM[axis], 0)


def per_line_solve(mesh, axis, a, b, c, algo="thomas", tiles=None):
    """Every line solved alone by ``solve_system``; coefficients are mesh-shaped."""
    expected = mesh.copy()
    lines = axis_view(expected, axis)
    coeffs = [axis_view(m, axis) for m in (a, b, c)]
    for idx in np.ndindex(lines.shape[1:]):
        sel = (slice(None),) + idx
        system = TridiagonalSystem(*(v[sel] for v in coeffs), lines[sel].copy())
        lines[sel] = solve_system(system, algo, tiles)
    return expected


@SETTINGS
@given(batches(), algos, st.data())
def test_batch_equals_scalar_bitwise(case, algo, data):
    systems, batch = case
    tiles = draw_tiles(data, algo, batch.n)
    for s, u in zip(systems, batch_solve(batch, algo, tiles)):
        assert np.array_equal(u, solve_system(s, algo, tiles))


@SETTINGS
@given(meshes(), algos, st.data())
def test_sweep_equals_per_line_scalar_bitwise(case, algo, data):
    mesh, axis, rng = case
    tiles = draw_tiles(data, algo, axis_view(mesh, axis).shape[0])
    coeffs = [Mesh(np.empty_like(mesh.data), mesh.spatial_ndim) for _ in range(3)]
    rows = dominant_rows(rng, axis_view(mesh, axis).shape, mesh.data.dtype)
    for m, v in zip(coeffs, rows):
        axis_view(m, axis)[...] = v
    got = solve_lines(mesh, tuple(coeffs), axis, algo, tiles=tiles)
    assert np.array_equal(got.data, per_line_solve(mesh, axis, *coeffs, algo, tiles).data)


@SETTINGS
@given(meshes())
def test_stored_equals_constant_coefficients_bitwise(case):
    mesh, axis, rng = case
    n = axis_view(mesh, axis).shape[0]
    profile = dominant_rows(rng, (n,), mesh.data.dtype)
    stored = []
    for v in profile:
        m = Mesh(np.empty_like(mesh.data), mesh.spatial_ndim)
        axis_view(m, axis)[...] = v.reshape((n,) + (1,) * 3)
        stored.append(m)
    got = solve_lines(mesh, profile, axis)
    assert np.array_equal(got.data, solve_lines(mesh, tuple(stored), axis).data)
    assert np.array_equal(got.data, per_line_solve(mesh, axis, *stored).data)


@SETTINGS
@given(st.integers(2, 30), st.integers(1, 10), precisions, seeds, algos, st.data())
def test_planted_zero_pivot_reported_at_lowest_row_then_line(n, count, precision, seed,
                                                             algo, data):
    # x lines of a 2-D mesh: row = x, line = y. A zero row is Thomas's and
    # PCR's first failing pivot, so several plants are reported at the
    # lowest (row, line); the tiled hybrids check row 0 of a tile after its
    # other rows, so they get one plant, reported at its global row.
    tiles = draw_tiles(data, algo, n)
    rng = np.random.default_rng(seed)
    mesh = Mesh.zeros((n, count), precision=precision)
    mesh.data[:] = rng.standard_normal(mesh.data.shape)
    a, b, c = (Mesh(v.T.reshape(mesh.data.shape).copy(), 2)
               for v in dominant_rows(rng, (n, count), mesh.data.dtype))
    plants = data.draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, count - 1)),
                               min_size=1, max_size=4 if tiles is None else 1))
    for row, line in plants:
        for m in (a, b, c):
            m.data[0, 0, line, row] = 0  # a zero row: its pivot is exactly 0
    row, line = min(plants)
    try:
        solve_lines(mesh, (a, b, c), "x", algo, tiles=tiles)
    except LineSolveError as exc:
        assert (exc.batch, exc.line) == (0, line)
        assert exc.__cause__.index == row
    else:
        raise AssertionError("no LineSolveError")

    systems = [TridiagonalSystem(*(m.data[0, 0, k] for m in (a, b, c)), mesh.data[0, 0, k])
               for k in range(count)]
    try:
        batch_solve(TridiagonalBatch.from_systems(systems), algo, tiles)
    except BatchSolveError as exc:
        first_row = {}
        for r, k in sorted(plants, reverse=True):
            first_row[k] = r
        assert [i for i, _ in exc.failures] == sorted(first_row)
        for i, err in exc.failures:
            assert isinstance(err, ZeroPivot) and err.index == first_row[i]
    else:
        raise AssertionError("no BatchSolveError")


@SETTINGS
@given(st.integers(1, 30), st.integers(2, 10), precisions, seeds, algos, st.data())
def test_batch_failures_match_each_systems_own_solve(n, count, precision, seed, algo, data):
    tiles = draw_tiles(data, algo, n)
    rng = np.random.default_rng(seed)
    batch = TridiagonalBatch.from_systems(
        random_dominant_system(n, rng, precision) for _ in range(count))
    plants = data.draw(st.lists(st.tuples(st.integers(0, count - 1), st.integers(0, n - 1),
                                          st.sampled_from(["zero row", "nan d", "inf b"])),
                                min_size=1, max_size=6), label="plants")
    for k, row, kind in plants:
        if kind == "zero row":
            batch.a[k, row] = batch.b[k, row] = batch.c[k, row] = 0
        elif kind == "nan d":
            batch.d[k, row] = np.nan
        else:
            batch.b[k, row] = np.inf
    expected, solved = {}, {}
    for k in range(count):
        try:
            solved[k] = solve_system(batch.system(k), algo, tiles)
        except (ZeroPivot, NonFiniteSolution) as exc:
            expected[k] = (type(exc), getattr(exc, "index", None))
    try:
        batch_solve(batch, algo, tiles)
    except BatchSolveError as exc:
        assert [k for k, _ in exc.failures] == sorted(expected)
        for k, err in exc.failures:
            assert (type(err), getattr(err, "index", None)) == expected[k]
            assert err.line == k
            assert exc.solutions[k] is None
        for k, u in solved.items():
            assert np.array_equal(exc.solutions[k], u)
    else:
        raise AssertionError("no BatchSolveError")
