"""Property tests: scalar, batched and mesh-sweep solves agree bit for bit
for every algorithm and tile count and leave a small residual, the
residual keeps the bits of its plain numpy expression, a planted
zero pivot is reported at its row and system, the certified error bound
covers the exact error, a batch's failures are each system's own, a substituted line is finite exactly when its row 0 is, and
an ADI run is its public steps composed by hand, at any chunking of its
explicit passes, and a batch's run is each of its meshes' own."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tridax import (AdiConfig, BatchSolveError, InvalidTilePlan, Mesh, NonFiniteSolution,
                    Precision, TilePlan, TridiagonalBatch, TridiagonalSystem, ZeroPivot, adi,
                    adi_run, batch_solve, error_bound, random_dominant_system,
                    residual_max_norm, solve_lines, solve_system)
from tridax.core import SOLVER_NAMES, _thomas_substitute
from tridax.reference import thomas_scalar
from conftest import stack_systems, stencil

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
    return systems, stack_systems(systems)


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


def per_line_solve(mesh, axis, profile, algo, tiles):
    """Every line solved alone by ``solve_system`` with the shared ``profile``."""
    expected = Mesh(mesh.data.copy(), mesh.spatial_ndim)
    lines = axis_view(expected, axis)
    for idx in np.ndindex(lines.shape[1:]):
        sel = (slice(None),) + idx
        lines[sel] = solve_system(TridiagonalSystem(*profile, lines[sel].copy()), algo, tiles)
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


def residual_expression(system, u):
    """The plain numpy form of ``residual_max_norm``, its bitwise reference."""
    r = system.b * u - system.d
    r[..., 1:] += system.a[..., 1:] * u[..., :-1]
    r[..., :-1] += system.c[..., :-1] * u[..., 1:]
    return float(np.max(np.abs(r)))


@SETTINGS
@given(st.integers(1, 40), st.integers(1, 12), precisions, seeds)
@example(1, 3, Precision.FP32, 1)
@example(1, 3, Precision.FP64, 1)
@example(2, 3, Precision.FP32, 2)
@example(2, 3, Precision.FP64, 2)
def test_residual_equals_plain_expression_bitwise(n, count, precision, seed):
    rng = np.random.default_rng(seed)
    systems = [random_dominant_system(n, rng, precision) for _ in range(count)]
    batch = stack_systems(systems)
    u = rng.uniform(-2, 2, (count, n)).astype(precision.dtype)
    for s, ui in zip(systems, u):
        assert residual_max_norm(s, ui).hex() == residual_expression(s, ui).hex()
    assert residual_max_norm(batch, u).hex() == residual_expression(batch, u).hex()


@SETTINGS
@given(st.integers(1, 40), precisions, st.sampled_from([1.0, 0.05, 1e-6]), algos,
       st.integers(2, 13), seeds)
@example(1, Precision.FP32, 1.0, "thomas", 2, 0)
@example(1, Precision.FP64, 1e-6, "pcr", 2, 0)
def test_error_bound_covers_the_exact_error(n, precision, margin, algo, tiles, seed):
    # every row dominant by the margin alone, either sign of diagonal; the
    # exact error is taken against the rational solution of the stored system
    if algo in ("thomas", "pcr"):
        tiles = None
    else:
        try:
            TilePlan(n, tiles)
        except InvalidTilePlan:
            assume(False)
    rng = np.random.default_rng(seed)
    a, c, d = rng.uniform(-1, 1, (3, n))
    a[0] = c[-1] = 0
    b = rng.choice([-1.0, 1.0], n) * (np.abs(a) + np.abs(c) + margin)
    s = TridiagonalSystem(*(x.astype(precision.dtype) for x in (a, b, c, d)))
    u = solve_system(s, algo, tiles)
    exact = thomas_scalar(*([Fraction(float(x)) for x in getattr(s, k)] for k in "abcd"))
    err = max(abs(Fraction(float(x)) - y) for x, y in zip(u, exact))
    bound = error_bound(s, u)
    assert bound == np.inf or Fraction(bound) >= err, (float(err), bound)


@pytest.mark.parametrize("where", ["a", "b", "c", "d", "u"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("batched", [False, True])
def test_error_bound_is_inf_for_a_non_finite_value(where, value, batched):
    rows = {"a": [0.0, 0.5, 0.5], "b": [2.0, 2.0, 2.0], "c": [0.5, 0.5, 0.0],
            "d": [1.0, 1.0, 1.0], "u": [0.5, 0.5, 0.5]}
    rows[where][1] = value
    s = TridiagonalSystem(*(rows[k] for k in "abcd"))
    if batched:
        s = stack_systems([TridiagonalSystem([0, 0, 0], [1, 1, 1], [0, 0, 0], [1, 1, 1]), s])
    u = np.array([[1.0] * 3, rows["u"]] if batched else rows["u"])
    assert error_bound(s, u) == np.inf


@pytest.mark.parametrize("weak", [[2.0, 1.0, 2.0], [2.0, -1.0, 2.0], [2.0, 0.5, 2.0]],
                         ids=["tie", "tie-negative", "dominated"])
def test_error_bound_is_inf_when_a_row_is_not_strictly_dominant(weak):
    # row 1 has |a| + |c| = 1; u is the exact solution, so only the margin speaks
    s = TridiagonalSystem([0.0, 0.5, 0.5], weak, [0.5, 0.5, 0.0], [0.0, 0.0, 0.0])
    assert error_bound(s, np.zeros(3)) == np.inf
    assert error_bound(stack_systems([s, s]), np.zeros((2, 3))) == np.inf


@SETTINGS
@given(meshes(), algos, st.data())
def test_sweep_equals_per_line_scalar_bitwise(case, algo, data):
    # one shared profile per sweep; a batch of the gathered lines gives the same bits
    mesh, axis, rng = case
    n = axis_view(mesh, axis).shape[0]
    tiles = draw_tiles(data, algo, n)
    profile = dominant_rows(rng, (n,), mesh.data.dtype)
    got = solve_lines(mesh, profile, axis, algo, tiles=tiles)
    assert np.array_equal(got.data, per_line_solve(mesh, axis, profile, algo, tiles).data)
    d = axis_view(mesh, axis).reshape(n, -1).T
    systems = TridiagonalBatch(*(np.tile(v, (len(d), 1)) for v in profile), d)
    solved = axis_view(got, axis).reshape(n, -1).T
    assert np.array_equal(batch_solve(systems, algo, tiles), solved)
    assert_small_residual(systems, solved)


@SETTINGS
@given(st.integers(2, 30), st.integers(1, 10), precisions, seeds, algos, st.data())
def test_planted_zero_pivot_reported_at_lowest_row_then_line(n, count, precision, seed,
                                                             algo, data):
    # A zero row is Thomas's and PCR's first failing pivot, so several
    # plants are reported at the lowest (row, system); the tiled hybrids
    # eliminate tile by tile, a tile's row 0 after its other rows, and
    # report the first plant in that order.
    tiles = draw_tiles(data, algo, n)
    size = None if tiles is None else TilePlan(n, tiles).m

    def key(plant):  # a plant's place in elimination order
        return plant if size is None else (plant[0] // size, plant[0] % size == 0) + plant

    rng = np.random.default_rng(seed)
    d = rng.standard_normal((count, n)).astype(precision.dtype)
    a, b, c = (v.T.copy() for v in dominant_rows(rng, (n, count), precision.dtype))
    plants = data.draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, count - 1)),
                               min_size=1, max_size=4))
    for row, k in plants:
        a[k, row] = b[k, row] = c[k, row] = 0  # a zero row: its pivot is exactly 0
    try:
        batch_solve(TridiagonalBatch(a, b, c, d), algo, tiles)
    except BatchSolveError as exc:
        assert (exc.__cause__.index, exc.__cause__.line) == min(plants, key=key)
        assert type(exc.__cause__.index) is int
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
    batch = stack_systems([random_dominant_system(n, rng, precision) for _ in range(count)])
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


def sliced_stencil(u: Mesh, gamma) -> Mesh:
    """The explicit right-hand side by plain slices, in ``adi_run``'s
    operation order: per axis x, y, z in turn ``(lo - 2*u) + hi``, summed
    with ``acc + term``, then ``gamma * acc``; zero on every boundary face."""
    dims = [STORAGE_DIM[ax] for ax in "xyz"[:u.spatial_ndim]]
    inner = [slice(None)] * 4
    for dim in dims:
        inner[dim] = slice(1, -1)
    ctr = u.data[tuple(inner)]
    acc = None
    for dim in dims:
        lo, hi = list(inner), list(inner)
        lo[dim], hi[dim] = slice(None, -2), slice(2, None)
        term = (u.data[tuple(lo)] - 2 * ctr) + u.data[tuple(hi)]
        acc = term if acc is None else acc + term
    d = np.zeros_like(u.data)
    d[tuple(inner)] = u.data.dtype.type(gamma) * acc
    return Mesh(d, u.spatial_ndim)


def composed_adi(u0, cfg):
    """An ADI run as its public steps: the plain-slice stencil,
    ``solve_lines`` per axis, ``u + d``; also every iteration's max |d|."""
    u = Mesh(u0.data.astype(cfg.precision.dtype), u0.spatial_ndim)
    deltas = []
    for _ in range(cfg.n_iter):
        d = sliced_stencil(u, cfg.gamma)
        for axis in u.solved_axes():
            d = solve_lines(d, cfg.line_coefficients(u.extent(axis), u.data.dtype), axis)
        u = Mesh(u.data + d.data, u.spatial_ndim)
        deltas.append(float(np.abs(d.data).max()))
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
                    precision=data.draw(precisions, label="precision"))
    before = u0.data.tobytes()
    got, report = adi_run(u0, cfg)
    expected, deltas = composed_adi(u0, cfg)
    assert got.data.dtype == expected.data.dtype and got.data.shape == expected.data.shape
    assert got.data.tobytes() == expected.data.tobytes()
    assert report["delta_inf"] == deltas
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
            return stencil(u0, cfg.gamma).data.tobytes(), u.data.tobytes(), report["delta_inf"]

    x, y = dims[:2]
    whole = run(u0.data.size + data.draw(st.integers(0, 50), label="extra"))
    for chunk in (1, 3, x - 1, x + 1, x * y + 5):
        assert run(chunk) == whole, chunk


def with_specials(rng, shape, dtype, specials):
    """Uniform values in ``dtype``, about a third of them replaced by one of
    ``specials`` with a random sign."""
    values = rng.uniform(-2, 2, shape)
    pick = rng.random(shape) < 1 / 3
    values[pick] = rng.choice(specials, pick.sum()) * rng.choice([-1.0, 1.0], pick.sum())
    return values.astype(dtype)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 12), st.integers(1, 6), precisions, seeds)
@example(1, 4, Precision.FP32, 0)
@example(1, 4, Precision.FP64, 1)
@example(2, 4, Precision.FP32, 2)
@example(2, 4, Precision.FP64, 3)
def test_substituted_line_finite_exactly_when_row_0_is(n, lines, precision, seed):
    # mesh sweeps test row 0 alone: the substitution only multiplies and
    # subtracts after row 0's division, so a non-finite value stays
    # non-finite, and every row reaches row 0 through both passes
    rng = np.random.default_rng(seed)
    dtype = precision.dtype
    fi = np.finfo(dtype)
    shape = (n, lines)
    a, cs = (with_specials(rng, shape, dtype, [0.0, 0.0, fi.tiny, 1e3]) for _ in range(2))
    # den[0] is row 0's divisor, den[1:] the reciprocal pivots: tiny pivots are huge
    den = with_specials(rng, shape, dtype, [0.0, fi.tiny, 1 / float(fi.eps), fi.max / 4])
    d = with_specials(rng, shape, dtype, [np.inf, np.nan, fi.max, fi.max / 2])
    u = _thomas_substitute((a, cs, den), d, np.empty_like(d))
    assert np.array_equal(np.isfinite(u[0]), np.isfinite(u).all(axis=0))


@SETTINGS
@given(st.data())
def test_adi_batch_equals_its_meshes_bitwise(data):
    # batches reach 40 meshes in both precisions, so runs of one value per
    # mesh fall on both sides of adi.BATCH_RUN_BYTES, while each mesh alone
    # runs in storage order
    ndim = data.draw(st.sampled_from([2, 3]), label="ndim")
    dims = tuple(data.draw(st.integers(1, 9), label=ax) for ax in "xyz"[:ndim])
    u0 = Mesh.zeros(dims, batch=data.draw(st.integers(1, 40), label="batch"),
                    precision=data.draw(precisions, label="input precision"))
    u0.data[:] = np.random.default_rng(data.draw(seeds, label="seed")).uniform(
        -1, 1, u0.data.shape)
    cfg = AdiConfig(gamma=data.draw(st.floats(0.01, 4.0), label="gamma"),
                    n_iter=data.draw(st.integers(1, 3), label="n_iter"),
                    precision=data.draw(precisions, label="precision"))
    got, report = adi_run(u0, cfg)
    alone = [adi_run(Mesh(u0.data[k:k + 1], u0.spatial_ndim), cfg) for k in range(u0.batch)]
    for k, (mesh, _) in enumerate(alone):
        assert got.data[k:k + 1].tobytes() == mesh.data.tobytes()
    assert report["delta_inf"] == [max(it) for it in zip(*(r["delta_inf"] for _, r in alone))]
