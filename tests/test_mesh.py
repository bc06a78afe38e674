import struct

import numpy as np
import pytest

from tridax import (Axis, LineSolveError, Mesh, NonFiniteSolution, Precision,
                    TridiagonalBatch, TridiagonalSystem, ZeroPivot, batch_solve, read_mesh,
                    solve_lines, solve_system, write_mesh)
from tridax.core import SOLVER_NAMES
from tridax.mesh import _gather, _scatter, factor_lines, sweep_lines
from conftest import tiles_for

STORAGE_DIM = {"x": 3, "y": 2, "z": 1}  # axis position in (batch, z, y, x)


def axis_view(data, axis):
    """The ``(n, ...)`` axis-first view of ``data`` a sweep along ``axis`` works on."""
    return np.moveaxis(data, STORAGE_DIM[axis.value], 0)


def axis_lines(data, axis):
    """``(n, lines)`` array of every line along ``axis``, in sweep order; a
    view where the storage allows it."""
    return axis_view(data, axis).reshape(data.shape[STORAGE_DIM[axis.value]], -1)


def dominant_profile(seed, mesh, axis):
    """A dominant (a, b, c) profile for the lines of ``mesh`` along ``axis``."""
    n, dtype = mesh.extent(Axis.parse(axis)), mesh.data.dtype
    rng = np.random.default_rng(seed + n)
    a = rng.uniform(-1, 1, n).astype(dtype)
    c = rng.uniform(-1, 1, n).astype(dtype)
    a[0] = c[-1] = 0
    b = (np.abs(a) + np.abs(c) + dtype.type(1.5)).astype(dtype)
    return a, b, c


def identity_profile(mesh, axis):
    n, dtype = mesh.extent(Axis.parse(axis)), mesh.data.dtype
    return np.zeros(n, dtype), np.ones(n, dtype), np.zeros(n, dtype)


def per_line_expected(mesh, profile, axis):
    """Sweep oracle: every line solved alone by the scalar solver."""
    a, b, c = profile
    expected = Mesh(mesh.data.copy(), mesh.spatial_ndim)
    lines = np.moveaxis(expected.data, STORAGE_DIM[axis], 0)
    for idx in np.ndindex(lines.shape[1:]):
        line = lines[(slice(None),) + idx]
        line[:] = solve_system(TridiagonalSystem(a, b, c, line.copy()), "thomas")
    return expected


def random_mesh(dims, batch=1, seed=0, precision=Precision.FP64):
    mesh = Mesh.zeros(dims, batch=batch, precision=precision)
    rng = np.random.default_rng(seed)
    mesh.data[:] = rng.standard_normal(mesh.data.shape).astype(mesh.data.dtype)
    return mesh


class TestLineCounting:
    def test_x_lines_4x3x2(self):
        assert axis_lines(Mesh.zeros((4, 3, 2)).data, Axis.X).shape == (4, 6)

    def test_z_lines_4x3x2(self):
        assert axis_lines(Mesh.zeros((4, 3, 2)).data, Axis.Z).shape == (2, 12)

    def test_line_count_law(self):
        mesh = Mesh.zeros((5, 7, 3), batch=4)
        for axis in Axis:
            size, count = axis_lines(mesh.data, axis).shape
            assert size == mesh.extent(axis)
            assert count == mesh.points // size

    def test_2d_has_no_z(self):
        mesh = Mesh.zeros((4, 4))
        with pytest.raises(ValueError):
            solve_lines(mesh, identity_profile(mesh, "z"), "z")


class TestGatherScatter:
    @pytest.mark.parametrize("axis", ["x", "y", "z"])
    def test_round_trip_bit_exact(self, axis):
        mesh = random_mesh((5, 4, 3), batch=2, seed=9)
        dest = solve_lines(mesh, identity_profile(mesh, axis), axis)
        assert not np.shares_memory(dest.data, mesh.data)
        assert np.array_equal(dest.data, mesh.data)

    def test_gather_order_x_contiguous(self):
        mesh = Mesh.zeros((4, 2, 2))
        mesh.data.flat = np.arange(mesh.points)
        lines = axis_lines(mesh.data, Axis.X)
        assert np.array_equal(lines[:, 0], [0, 1, 2, 3])
        assert np.shares_memory(lines, mesh.data)

    def test_line_indices_cover_mesh(self):
        mesh = Mesh.zeros((3, 4, 5), batch=2)
        mesh.data.flat = np.arange(mesh.points)
        for axis in Axis:
            lines = axis_lines(mesh.data, axis)
            assert lines.shape == (mesh.extent(axis), mesh.points // mesh.extent(axis))
            assert np.array_equal(np.sort(lines, axis=None), np.arange(mesh.points))

    @pytest.mark.parametrize("dims,batch", [((7, 65), 2), ((3, 5, 13), 1), ((130, 1), 1),
                                            ((4, 64), 1)])
    def test_gather_scatter_round_trip(self, dims, batch):
        # 130, 65, 1 and 64 x lines: whole, partial and single transpose blocks
        mesh = random_mesh(dims, batch=batch, seed=21)
        for data in (mesh.data, np.asfortranarray(mesh.data)):
            for axis in mesh.solved_axes():
                lines = _gather(axis_view(data, axis))
                assert lines.flags.c_contiguous
                assert np.array_equal(lines, axis_lines(data, axis))
                back = np.zeros_like(data)
                _scatter(lines, axis_view(back, axis))
                assert np.array_equal(back, data)

    def test_sweep_order_per_mesh(self):
        # x lines by (batch, z, y), y lines by (batch, z, x), z lines by (batch, y, x)
        mesh = random_mesh((3, 4, 5), batch=2, seed=10)
        data = mesh.data
        x_lines = axis_lines(data, Axis.X)
        y_lines = axis_lines(data, Axis.Y)
        z_lines = axis_lines(data, Axis.Z)
        assert np.array_equal(x_lines[:, (1 * 5 + 2) * 4 + 3], data[1, 2, 3, :])
        assert np.array_equal(y_lines[:, (1 * 5 + 2) * 3 + 1], data[1, 2, :, 1])
        assert np.array_equal(z_lines[:, (1 * 4 + 3) * 3 + 2], data[1, :, 3, 2])


class TestSolveLines:
    def test_profile_taken_in_mesh_dtype(self):
        mesh = random_mesh((6, 4), seed=19, precision=Precision.FP32)
        got = solve_lines(mesh, ([0] * 6, [2] * 6, [0] * 6), "x")
        assert np.array_equal(got.data, mesh.data / np.float32(2))

    @pytest.mark.parametrize("axis", ["x", "y", "z"])
    def test_wide_profile_taken_in_mesh_dtype(self, axis):
        # FP64 profiles on an FP32 mesh: FP32 arithmetic, FP32 floor
        mesh = random_mesh((12, 10, 8), batch=2, seed=23, precision=Precision.FP32)
        wide = dominant_profile(8, random_mesh((12, 10, 8)), axis)
        got = solve_lines(mesh, wide, axis)
        assert got.data.dtype == np.float32
        cast = tuple(v.astype(np.float32) for v in wide)
        assert np.array_equal(got.data, solve_lines(mesh, cast, axis).data)

    def test_input_mesh_left_unchanged(self):
        mesh = random_mesh((8, 4, 4), seed=5)
        before = mesh.data.copy()
        out = solve_lines(mesh, dominant_profile(8, mesh, "x"), "x")
        assert out is not mesh and not np.shares_memory(out.data, mesh.data)
        assert np.array_equal(mesh.data, before)
        assert not np.array_equal(out.data, before)

    def test_identity_lines_leave_mesh_unchanged(self):
        mesh = random_mesh((8, 8, 8), seed=1)
        out = solve_lines(mesh, identity_profile(mesh, "y"), "y")
        assert np.array_equal(out.data, mesh.data)

    @pytest.mark.parametrize("axis", ["x", "y", "z"])
    def test_matches_per_line_scalar_solve(self, axis):
        mesh = random_mesh((16, 16, 16), seed=2)
        coeffs = dominant_profile(5, mesh, axis)
        expected = per_line_expected(mesh, coeffs, axis)
        got = solve_lines(mesh, coeffs, axis)
        assert np.array_equal(got.data, expected.data)

    @pytest.mark.parametrize("group", [1, 4, 8, 32])
    @pytest.mark.parametrize("width", [1, 2, 8])
    def test_blocking_invariance_bitwise(self, group, width):
        # any block of group * width lines, solved as an interleaved batch,
        # gives those lines' bits from the whole-axis sweep
        mesh = random_mesh((16, 8, 4), batch=2, seed=3)
        coeffs = dominant_profile(6, mesh, "x")
        whole = axis_lines(solve_lines(mesh, coeffs, "x").data, Axis.X)
        d = axis_lines(mesh.data, Axis.X)
        n, lines = d.shape
        block = group * width
        for start in range(0, lines, block):
            k = min(block, lines - start)
            abc = [np.broadcast_to(v, (k, n)).copy() for v in coeffs]
            batch = TridiagonalBatch(*abc, d[:, start:start + k].T.copy())
            for j, u in enumerate(batch_solve(batch)):
                assert np.array_equal(u, whole[:, start + j])

    @pytest.mark.parametrize("axis", ["x", "y", "z"])
    def test_batch_independence_bitwise(self, axis):
        mesh = random_mesh((16, 8, 4), batch=3, seed=3)
        coeffs = dominant_profile(6, mesh, axis)
        whole = solve_lines(mesh, coeffs, axis)
        for k in range(mesh.batch):
            alone = solve_lines(Mesh(mesh.data[k:k + 1].copy(), 3), coeffs, axis)
            assert np.array_equal(whole.data[k], alone.data[0])

    @pytest.mark.parametrize("algo", SOLVER_NAMES)
    @pytest.mark.parametrize("axis", ["x", "y", "z"])
    def test_equals_batch_solve_of_gathered_lines_bitwise(self, algo, axis):
        # the shared profile's (n, 1) columns give the bits of full per-line rows
        mesh = random_mesh((12, 9, 15), batch=2, seed=29)
        coeffs = dominant_profile(31, mesh, axis)
        got = solve_lines(mesh, coeffs, axis, algo, tiles=tiles_for(algo, 3))
        d = axis_lines(mesh.data, Axis.parse(axis)).T.copy()
        rows = [np.tile(v, (len(d), 1)) for v in coeffs]
        expected = batch_solve(TridiagonalBatch(*rows, d), algo, tiles_for(algo, 3))
        assert np.array_equal(axis_lines(got.data, Axis.parse(axis)).T, expected)

    def test_pcr_algo_agrees_with_thomas(self):
        mesh = random_mesh((16, 4, 4), seed=4)
        coeffs = dominant_profile(7, mesh, "x")
        th = solve_lines(mesh, coeffs, "x", "thomas")
        pc = solve_lines(mesh, coeffs, "x", "pcr")
        assert np.max(np.abs(th.data - pc.data)) <= 1e-12

    @pytest.mark.parametrize("bad", ["short", "long", "column", "mesh", "full mesh",
                                     "meshes"])
    def test_misshapen_coefficients_rejected(self, bad):
        # length-1 profiles used to broadcast over every row: pcr with the
        # profile (0, 2, 0) returned d / 2 and raised nothing; lines share
        # one profile, so a mesh of per-line coefficients is misshapen too
        mesh = random_mesh((6, 4), seed=17)
        a, b, c = dominant_profile(18, mesh, "x")
        coeffs = {"short": (np.zeros(1), np.full(1, 2.0), np.zeros(1)),
                  "long": (a, np.ones(7), c),
                  "column": (a, b[:, None], c),
                  "mesh": (a, Mesh(np.ones((1, 1, 6, 4)), 2), c),
                  "full mesh": (a, Mesh(np.ones_like(mesh.data), 2), c),
                  "meshes": (mesh, mesh, mesh)}[bad]
        with pytest.raises(ValueError, match=r"shape .*expected \(6,\) for axis x"):
            solve_lines(mesh, coeffs, "x", "pcr")
        with pytest.raises(ValueError, match=r"shape .*expected \(6,\) for axis x"):
            factor_lines(mesh, coeffs, Axis.X)

    @pytest.mark.parametrize("corner", ["a[0]", "c[n-1]"])
    @pytest.mark.parametrize("axis", ["x", "y", "z"])
    @pytest.mark.parametrize("algo", SOLVER_NAMES)
    def test_nonzero_corner_rejected_as_by_core(self, algo, axis, corner):
        # thomas and pcr ignored a nonzero corner; the tiled hybrids blamed the tiling
        mesh = random_mesh((9, 10, 12), batch=2, seed=30)
        coeffs = dominant_profile(31, mesh, axis)
        k, row = (0, 0) if corner == "a[0]" else (2, -1)
        coeffs[k][row] = 0.5
        with pytest.raises(ValueError, match=r"a\[0\] == 0 and c\[n-1\] == 0"):
            solve_lines(mesh, coeffs, axis, algo, tiles=tiles_for(algo, 3))

    def test_failing_line_identified(self):
        mesh = random_mesh((6, 2, 2), batch=2, seed=8)
        singular = (np.zeros(6), np.zeros(6), np.zeros(6))
        with pytest.raises(LineSolveError) as err:
            solve_lines(mesh, singular, "x")
        assert err.value.axis == "x"
        assert err.value.batch == 0
        assert err.value.line == 0

    @pytest.mark.parametrize("algo", ["thomas", "pcr", "thomas-thomas", "thomas-pcr"])
    def test_zero_interior_pivot_names_line(self, algo):
        # row 4 is tile 1's first interior row; the shared pivot fails every line
        mesh = random_mesh((9, 4, 2), batch=2, seed=13)
        coeffs = dominant_profile(14, mesh, "x")
        for v in coeffs:
            v[4] = 0.0
        with pytest.raises(LineSolveError) as err:
            solve_lines(mesh, coeffs, "x", algo, tiles=tiles_for(algo, 3))
        assert (err.value.batch, err.value.line, err.value.axis) == (0, 0, "x")
        assert err.value.failures == [(k, line) for k in range(2) for line in range(8)]
        assert isinstance(err.value.__cause__, ZeroPivot)
        assert err.value.__cause__.index == 4

    @pytest.mark.parametrize("algo", ["thomas", "pcr", "thomas-pcr"])
    def test_non_finite_rhs_names_line(self, algo):
        # y line 7 of mesh 1 is (z=1, x=3)
        mesh = random_mesh((4, 9, 2), batch=2, seed=15)
        mesh.data[1, 1, 5, 3] = np.nan
        with pytest.raises(LineSolveError) as err:
            solve_lines(mesh, dominant_profile(16, mesh, "y"), "y", algo,
                        tiles=tiles_for(algo, 3))
        assert (err.value.batch, err.value.line, err.value.axis) == (1, 7, "y")
        assert isinstance(err.value.__cause__, NonFiniteSolution)


    @pytest.mark.parametrize("algo", ["thomas", "pcr", "thomas-thomas", "thomas-pcr"])
    def test_every_failing_line_named(self, algo):
        # NaN right-hand sides on x line 2 of mesh 0 and lines 1 and 4 of
        # mesh 2; the first failure is the lowest line, mesh 0's line 2
        mesh = random_mesh((6, 3, 2), batch=3, seed=24)
        for k, z, y, row in [(0, 0, 2, 3), (2, 0, 1, 1), (2, 1, 1, 5)]:
            mesh.data[k, z, y, row] = np.nan
        with pytest.raises(LineSolveError) as err:
            solve_lines(mesh, dominant_profile(25, mesh, "x"), "x", algo,
                        tiles=tiles_for(algo, 2))
        assert err.value.failures == [(0, 2), (2, 1), (2, 4)]
        assert (err.value.batch, err.value.line, err.value.axis) == (0, 2, "x")


class TestFactoredSweep:
    @pytest.mark.parametrize("k, row", [(0, 0), (2, -1)])
    def test_nonzero_corner_rejected_as_by_core(self, k, row):
        mesh = random_mesh((5, 4), seed=32)
        profile = dominant_profile(33, mesh, "x")
        profile[k][row] = 0.5
        with pytest.raises(ValueError, match=r"a\[0\] == 0 and c\[n-1\] == 0"):
            factor_lines(mesh, profile, Axis.X)

    @pytest.mark.parametrize("axis", ["x", "y", "z"])
    @pytest.mark.parametrize("precision", [Precision.FP32, Precision.FP64])
    def test_equals_solve_lines_bitwise(self, axis, precision):
        mesh = random_mesh((9, 37, 2), batch=2, seed=26, precision=precision)  # 148 x lines
        ax = Axis.parse(axis)
        profile = dominant_profile(27, mesh, axis)
        data = mesh.data.copy()
        work = np.empty((mesh.extent(ax), mesh.points // mesh.extent(ax)), data.dtype)
        sweep_lines(data, factor_lines(mesh, profile, ax), ax, work)
        assert data.tobytes() == solve_lines(mesh, profile, axis).data.tobytes()

    @pytest.mark.parametrize("axis", ["x", "y", "z"])
    @pytest.mark.parametrize("memory", [(1, 2, 3, 0), (3, 0, 1, 2)],
                             ids=["batch-innermost", "x-outermost"])
    def test_any_memory_order_equals_solve_lines_bitwise(self, axis, memory):
        # (batch, z, y, x) views of a block in another memory order: lines
        # along its outermost axis are solved in place, along its innermost
        # gathered by blocked transposes, along the others by plain copies
        mesh = random_mesh((9, 37, 2), batch=16, seed=30, precision=Precision.FP32)
        ax = Axis.parse(axis)
        profile = dominant_profile(31, mesh, axis)
        data = np.empty([mesh.data.shape[k] for k in memory], mesh.data.dtype).transpose(
            np.argsort(memory))
        data[...] = mesh.data
        work = np.empty((mesh.extent(ax), mesh.points // mesh.extent(ax)), data.dtype)
        sweep_lines(data, factor_lines(mesh, profile, ax), ax, work)
        expected = solve_lines(mesh, profile, axis).data
        assert np.ascontiguousarray(data).tobytes() == expected.tobytes()

    def test_non_finite_lines_named_and_data_kept(self):
        mesh = random_mesh((5, 4), batch=2, seed=28)
        mesh.data[1, 0, 2, 3] = np.inf  # x line 2 of mesh 1
        data = mesh.data.copy()
        factor = factor_lines(mesh, dominant_profile(29, mesh, "x"), Axis.X)
        with pytest.raises(LineSolveError) as err:
            sweep_lines(data, factor, Axis.X, np.empty((5, 8)))
        assert err.value.failures == [(1, 2)]
        assert isinstance(err.value.__cause__, NonFiniteSolution)
        assert np.array_equal(data, mesh.data)


class TestMeshIo:
    def test_3d_round_trip(self, tmp_path):
        mesh = random_mesh((9, 5, 4), batch=3, seed=11)
        path = tmp_path / "m.bin"
        write_mesh(path, mesh)
        back = read_mesh(path)
        assert back.dims == (9, 5, 4)
        assert back.batch == 3
        assert np.array_equal(back.data, mesh.data)

    def test_2d_fp32_round_trip(self, tmp_path):
        mesh = random_mesh((6, 7), batch=2, seed=12, precision=Precision.FP32)
        path = tmp_path / "m32.bin"
        write_mesh(path, mesh)
        back = read_mesh(path)
        assert back.spatial_ndim == 2
        assert back.precision is Precision.FP32
        assert np.array_equal(back.data, mesh.data)

    def test_header_is_32_bytes_with_magic(self, tmp_path):
        path = tmp_path / "m.bin"
        write_mesh(path, Mesh.zeros((2, 2)))
        raw = path.read_bytes()
        assert raw[:8] == b"TRIDAX01"
        assert len(raw) == 32 + 4 * 8

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOTAMESH" + b"\0" * 40)
        with pytest.raises(ValueError):
            read_mesh(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "m.bin"
        write_mesh(path, Mesh.zeros((4, 4)))
        raw = path.read_bytes()
        huge_x = struct.pack("<I", 2**30)  # header bytes 16-20 hold x
        for damaged in (raw[:-8],  # truncated payload
                        raw + bytes(8),  # oversized payload
                        raw[:16] + huge_x + raw[20:]):  # header overstates the size
            path.write_bytes(damaged)
            with pytest.raises(ValueError, match="payload"):
                read_mesh(path)
