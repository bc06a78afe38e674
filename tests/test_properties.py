"""Property tests: scalar, batched and mesh-sweep solves agree bit for bit,
and a planted zero pivot is reported at its lowest (row, line)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tridax import (BatchLayout, BatchSolveError, LineSolveError, Mesh, Precision,
                    TridiagonalBatch, TridiagonalSystem, ZeroPivot, batch_solve,
                    pcr_solve, random_dominant_system, solve_lines, thomas_solve)
from tridax.mesh import ConstantLineCoefficients, StoredCoefficients

STORAGE_DIM = {"x": 3, "y": 2, "z": 1}  # axis position in (batch, z, y, x)
SETTINGS = settings(max_examples=40, deadline=None)

precisions = st.sampled_from([Precision.FP32, Precision.FP64])
seeds = st.integers(0, 2**32 - 1)


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
    layout = draw(st.sampled_from(list(BatchLayout)))
    return systems, TridiagonalBatch.from_systems(systems, layout)


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


def per_line_solve(mesh, axis, a, b, c):
    """Every line solved alone by ``thomas_solve``; coefficients are mesh-shaped."""
    expected = mesh.copy()
    lines = axis_view(expected, axis)
    coeffs = [axis_view(m, axis) for m in (a, b, c)]
    for idx in np.ndindex(lines.shape[1:]):
        sel = (slice(None),) + idx
        lines[sel] = thomas_solve(TridiagonalSystem(*(v[sel] for v in coeffs),
                                                    lines[sel].copy()))
    return expected


@SETTINGS
@given(batches(), st.sampled_from(["thomas", "pcr"]))
def test_batch_equals_scalar_bitwise(case, algo):
    systems, batch = case
    solver = thomas_solve if algo == "thomas" else pcr_solve
    for s, u in zip(systems, batch_solve(batch, algo)):
        assert np.array_equal(u, solver(s))


@SETTINGS
@given(meshes())
def test_sweep_equals_per_line_scalar_bitwise(case):
    mesh, axis, rng = case
    coeffs = [Mesh(np.empty_like(mesh.data), mesh.spatial_ndim) for _ in range(3)]
    rows = dominant_rows(rng, axis_view(mesh, axis).shape, mesh.data.dtype)
    for m, v in zip(coeffs, rows):
        axis_view(m, axis)[...] = v
    got = solve_lines(mesh, StoredCoefficients(*coeffs), axis)
    assert np.array_equal(got.data, per_line_solve(mesh, axis, *coeffs).data)


@SETTINGS
@given(meshes())
def test_stored_equals_constant_coefficients_bitwise(case):
    mesh, axis, rng = case
    n = axis_view(mesh, axis).shape[0]
    profile = dominant_rows(rng, (n,), mesh.data.dtype)
    constant = ConstantLineCoefficients(lambda n, dtype: profile)
    stored = []
    for v in profile:
        m = Mesh(np.empty_like(mesh.data), mesh.spatial_ndim)
        axis_view(m, axis)[...] = v.reshape((n,) + (1,) * 3)
        stored.append(m)
    got = solve_lines(mesh, constant, axis)
    assert np.array_equal(got.data, solve_lines(mesh, StoredCoefficients(*stored), axis).data)
    assert np.array_equal(got.data, per_line_solve(mesh, axis, *stored).data)


@SETTINGS
@given(st.integers(2, 30), st.integers(1, 10), precisions, seeds, st.data())
def test_planted_zero_pivot_reported_at_lowest_row_then_line(n, count, precision, seed,
                                                             data):
    # x lines of a 2-D mesh: row = x, line = y
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
    row, line = min(plants)
    try:
        solve_lines(mesh, StoredCoefficients(a, b, c), "x")
    except LineSolveError as exc:
        assert (exc.batch, exc.line) == (0, line)
        assert exc.__cause__.index == row
    else:
        raise AssertionError("no LineSolveError")

    systems = [TridiagonalSystem(*(m.data[0, 0, k] for m in (a, b, c)), mesh.data[0, 0, k])
               for k in range(count)]
    try:
        batch_solve(TridiagonalBatch.from_systems(systems), "thomas")
    except BatchSolveError as exc:
        first_row = {}
        for r, k in sorted(plants, reverse=True):
            first_row[k] = r
        assert [i for i, _ in exc.failures] == sorted(first_row)
        for i, err in exc.failures:
            assert isinstance(err, ZeroPivot) and err.index == first_row[i]
    else:
        raise AssertionError("no BatchSolveError")
