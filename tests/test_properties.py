"""Property tests: scalar, batched and mesh-sweep solves agree bit for bit
for every algorithm and tile count and leave a small residual, a planted
zero pivot is reported at its row and line, a batch's failures are each
system's own, and an ADI run is its public steps composed by hand, at
any chunking of its explicit passes."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tridax import (AdiConfig, BatchSolveError, InvalidTilePlan, LineSolveError, Mesh,
                    NonFiniteSolution, Precision, TilePlan, TridiagonalBatch,
                    TridiagonalSystem, ZeroPivot, adi, adi_rhs, adi_run, batch_solve,
                    random_dominant_system, residual_max_norm, solve_lines, solve_system)
from tridax.core import SOLVER_NAMES

STORAGE_DIM = {"x": 3, "y": 2, "z": 1}  # axis position in (batch, z, y, x)
SETTINGS = settings(max_examples=40, deadline=None)
# Residual bound in units of eps * max row sum of |A| * max |d|. The systems
# here are dominant by a margin of at least 1, so |u| <= |d|; the worst
# seen over 400 random batches of every algorithm was about 1 (PCR).
RESIDUAL_EPS = 8

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


def assert_small_residual(batch, u):
    """``residual_max_norm`` of ``(count, n)`` solutions within the stated bound."""
    scale = (np.max(np.abs(batch.a) + np.abs(batch.b) + np.abs(batch.c))
             * np.max(np.abs(batch.d)))
    bound = RESIDUAL_EPS * np.finfo(batch.b.dtype).eps * float(scale)
    assert residual_max_norm(batch, u) <= bound


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
    solutions = batch_solve(batch, algo, tiles)
    for s, u in zip(systems, solutions):
        assert np.array_equal(u, solve_system(s, algo, tiles))
    assert_small_residual(batch, solutions)


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
    n = axis_view(mesh, axis).shape[0]
    systems = TridiagonalBatch(*(axis_view(m, axis).reshape(n, -1).T for m in (*coeffs, mesh)))
    assert_small_residual(systems, axis_view(got, axis).reshape(n, -1).T)


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
    # lowest (row, line); the tiled hybrids eliminate tile by tile, a tile's
    # row 0 after its other rows, and report the first plant in that order.
    tiles = draw_tiles(data, algo, n)
    size = None if tiles is None else TilePlan(n, tiles).m

    def key(plant):  # a plant's place in elimination order
        return plant if size is None else (plant[0] // size, plant[0] % size == 0) + plant

    rng = np.random.default_rng(seed)
    mesh = Mesh.zeros((n, count), precision=precision)
    mesh.data[:] = rng.standard_normal(mesh.data.shape)
    a, b, c = (Mesh(v.T.reshape(mesh.data.shape).copy(), 2)
               for v in dominant_rows(rng, (n, count), mesh.data.dtype))
    plants = data.draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, count - 1)),
                               min_size=1, max_size=4))
    for row, line in plants:
        for m in (a, b, c):
            m.data[0, 0, line, row] = 0  # a zero row: its pivot is exactly 0
    row, line = min(plants, key=key)
    try:
        solve_lines(mesh, (a, b, c), "x", algo, tiles=tiles)
    except LineSolveError as exc:
        assert (exc.batch, exc.line) == (0, line)
        assert exc.failures == [(0, k) for k in sorted({k for _, k in plants})]
        assert exc.__cause__.index == row and type(exc.__cause__.index) is int
    else:
        raise AssertionError("no LineSolveError")

    systems = [TridiagonalSystem(*(m.data[0, 0, k] for m in (a, b, c)), mesh.data[0, 0, k])
               for k in range(count)]
    try:
        batch_solve(TridiagonalBatch.from_systems(systems), algo, tiles)
    except BatchSolveError as exc:
        first_row = {}
        for r, k in sorted(plants, key=key, reverse=True):
            first_row[k] = r
        assert [i for i, _ in exc.failures] == sorted(first_row)
        for i, err in exc.failures:
            assert isinstance(err, ZeroPivot) and err.index == first_row[i]
            assert type(err.index) is int
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
            assert np.isnan(exc.solutions[k]).all()
        for k, u in solved.items():
            assert np.array_equal(exc.solutions[k], u)
    else:
        raise AssertionError("no BatchSolveError")


def composed_adi(u0, cfg):
    """An ADI run as its public steps: ``adi_rhs``, ``solve_lines`` per axis,
    ``u + d``; also every iteration's max |d|."""
    u = u0.astype(cfg.precision)
    deltas = []
    for _ in range(cfg.n_iter):
        d = adi_rhs(u, cfg)
        for axis in u.solved_axes():
            solve_lines(d, cfg.line_coefficients(u.extent(axis), u.data.dtype), axis, out=d)
        u = Mesh(u.data + d.data, u.spatial_ndim)
        deltas.append(d.max_abs())
    return u, deltas


@SETTINGS
@given(st.data())
def test_adi_run_equals_composed_steps_bitwise(data):
    # x extents reach 3 and y extents 70, so x line counts cross the
    # gather's 64-line blocks at counts 64 does not divide
    ndim = data.draw(st.sampled_from([2, 3]), label="ndim")
    dims = (data.draw(st.integers(1, 12), label="x"), data.draw(st.integers(1, 70), label="y"))
    if ndim == 3:
        dims += (data.draw(st.integers(1, 5), label="z"),)
    u0 = Mesh.zeros(dims, batch=data.draw(st.integers(1, 3), label="batch"),
                    precision=data.draw(precisions, label="input precision"))
    u0.data[:] = np.random.default_rng(data.draw(seeds, label="seed")).uniform(
        -1, 1, u0.data.shape)
    if data.draw(st.booleans(), label="fortran order"):
        u0 = Mesh(np.asfortranarray(u0.data), u0.spatial_ndim)
    cfg = AdiConfig(gamma=data.draw(st.floats(0.01, 4.0), label="gamma"),
                    n_iter=data.draw(st.integers(1, 3), label="n_iter"),
                    precision=data.draw(precisions, label="precision"),
                    literal_coefficients=data.draw(st.booleans(), label="literal"))
    before = u0.data.tobytes()
    got, report = adi_run(u0, cfg)
    expected, deltas = composed_adi(u0, cfg)
    assert got.data.dtype == expected.data.dtype and got.data.shape == expected.data.shape
    assert got.data.tobytes() == expected.data.tobytes()
    assert report.delta_inf == deltas
    assert u0.data.tobytes() == before


@SETTINGS
@given(st.data())
def test_adi_chunking_is_bitwise_invisible(data):
    # the explicit passes walk the flat field in chunks of adi.STENCIL_CHUNK
    # points; chunks that split rows and planes, cut the stencil's reach or
    # leave a short last chunk give the bits of one whole-field chunk
    ndim = data.draw(st.sampled_from([2, 3]), label="ndim")
    dims = tuple(data.draw(st.integers(3, 24 if ndim == 2 else 9), label=ax)
                 for ax in "xyz"[:ndim])
    u0 = Mesh.zeros(dims, batch=data.draw(st.integers(1, 3), label="batch"),
                    precision=data.draw(precisions, label="precision"))
    u0.data[:] = np.random.default_rng(data.draw(seeds, label="seed")).uniform(
        -1, 1, u0.data.shape)
    cfg = AdiConfig(gamma=data.draw(st.floats(0.01, 4.0), label="gamma"),
                    n_iter=data.draw(st.integers(1, 3), label="n_iter"),
                    precision=u0.precision)

    def run(chunk):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(adi, "STENCIL_CHUNK", chunk)
            u, report = adi_run(u0, cfg)
            return adi_rhs(u0, cfg).data.tobytes(), u.data.tobytes(), report.delta_inf

    x, y = dims[:2]
    whole = run(u0.data.size + data.draw(st.integers(0, 50), label="extra"))
    for chunk in (1, 3, x - 1, x + 1, x * y + 5):
        assert run(chunk) == whole, chunk
