import struct

import numpy as np
import pytest

from tridax import (Axis, LineSolveError, Mesh, NonFiniteSolution, Precision,
                    TridiagonalBatch, TridiagonalSystem, ZeroPivot, axis_lines, batch_solve,
                    gather_lines, read_mesh, scatter_lines, solve_lines, solve_system,
                    write_mesh)
from tridax.core import SOLVER_NAMES
from tridax.mesh import factor_lines, sweep_lines

STORAGE_DIM = {"x": 3, "y": 2, "z": 1}  # axis position in (batch, z, y, x)


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


def profile_meshes(profile, mesh, axis):
    """Coefficient meshes that put ``profile`` on every line along ``axis``."""
    out = []
    for v in profile:
        m = Mesh(np.empty_like(mesh.data), mesh.spatial_ndim)
        np.moveaxis(m.data, STORAGE_DIM[axis], 0)[...] = v.reshape((-1,) + (1,) * 3)
        out.append(m)
    return tuple(out)


def per_line_expected(mesh, profile, axis):
    """Sweep oracle: every line solved alone by the scalar solver."""
    a, b, c = profile
    expected = mesh.copy()
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
        dest = Mesh.zeros((5, 4, 3), batch=2)
        solve_lines(mesh, identity_profile(mesh, axis), axis, out=dest)
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
                lines = gather_lines(data, axis)
                assert lines.flags.c_contiguous
                assert np.array_equal(lines, axis_lines(data, axis))
                back = np.zeros_like(data)
                scatter_lines(lines, back, axis)
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
    def test_coefficient_meshes_taken_in_mesh_dtype(self, axis):
        # FP64 coefficient meshes on an FP32 mesh: FP32 arithmetic, FP32 floor
        mesh = random_mesh((12, 10, 8), batch=2, seed=23, precision=Precision.FP32)
        wide = random_mesh((12, 10, 8), batch=2, seed=23)
        coeffs = profile_meshes(dominant_profile(8, wide, axis), wide, axis)
        cast = tuple(m.astype(Precision.FP32) for m in coeffs)
        got = solve_lines(mesh, coeffs, axis)
        assert got.data.dtype == np.float32
        assert np.array_equal(got.data, solve_lines(mesh, cast, axis).data)

    @pytest.mark.parametrize("algo", SOLVER_NAMES)
    @pytest.mark.parametrize("axis", ["x", "y", "z"])
    def test_mixed_coefficient_forms_bitwise(self, algo, axis):
        # a per-line a beside shared b and c: reduced rows take the per-line shape
        mesh = random_mesh((12, 9, 15), batch=2, seed=29)
        _, b, c = dominant_profile(9, mesh, axis)  # |b| > 1 + |c|
        a = random_mesh((12, 9, 15), batch=2, seed=31)
        a.data[...] = np.clip(a.data, -1, 1)
        np.moveaxis(a.data, STORAGE_DIM[axis], 0)[0] = 0
        got = solve_lines(mesh, (a, b, c), axis, algo, tiles=3)
        meshes = (a,) + profile_meshes((b, c), mesh, axis)
        assert np.array_equal(got.data, solve_lines(mesh, meshes, axis, algo, tiles=3).data)

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

    def test_pcr_algo_agrees_with_thomas(self):
        mesh = random_mesh((16, 4, 4), seed=4)
        coeffs = dominant_profile(7, mesh, "x")
        th = solve_lines(mesh, coeffs, "x", "thomas")
        pc = solve_lines(mesh, coeffs, "x", "pcr")
        assert np.max(np.abs(th.data - pc.data)) <= 1e-12

    def test_in_place_destination(self):
        mesh = random_mesh((8, 4, 4), seed=5)
        coeffs = dominant_profile(8, mesh, "x")
        expected = solve_lines(mesh, coeffs, "x")
        out = solve_lines(mesh, coeffs, "x", out=mesh)
        assert out is mesh
        assert np.array_equal(mesh.data, expected.data)

    def test_stored_coefficients_match_generated(self):
        mesh = random_mesh((12, 6, 3), seed=7)
        gen = dominant_profile(10, mesh, "x")
        stored = profile_meshes(gen, mesh, "x")
        out_g = solve_lines(mesh, gen, "x")
        out_s = solve_lines(mesh, stored, "x")
        assert np.array_equal(out_g.data, out_s.data)

    @pytest.mark.parametrize("bad", ["short", "long", "column", "mesh"])
    def test_misshapen_coefficients_rejected(self, bad):
        # length-1 profiles used to broadcast over every row: pcr with the
        # profile (0, 2, 0) returned d / 2 and raised nothing
        mesh = random_mesh((6, 4), seed=17)
        a, b, c = dominant_profile(18, mesh, "x")
        coeffs = {"short": (np.zeros(1), np.full(1, 2.0), np.zeros(1)),
                  "long": (a, np.ones(7), c),
                  "column": (a, b[:, None], c),
                  "mesh": (a, Mesh(np.ones((1, 1, 6, 4)), 2), c)}[bad]
        with pytest.raises(ValueError, match="shape"):
            solve_lines(mesh, coeffs, "x", "pcr")

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
        # line 5 of mesh 1 along x is (z=1, y=1); row 4 is tile 1's first interior row
        mesh = random_mesh((9, 4, 2), batch=2, seed=13)
        coeffs = profile_meshes(dominant_profile(14, mesh, "x"), mesh, "x")
        for m in coeffs:
            m.data[1, 1, 1, 4] = 0.0
        with pytest.raises(LineSolveError) as err:
            solve_lines(mesh, coeffs, "x", algo, tiles=3)
        assert (err.value.batch, err.value.line, err.value.axis) == (1, 5, "x")
        assert isinstance(err.value.__cause__, ZeroPivot)

    @pytest.mark.parametrize("algo", ["thomas", "pcr", "thomas-pcr"])
    def test_non_finite_rhs_names_line(self, algo):
        # y line 7 of mesh 1 is (z=1, x=3)
        mesh = random_mesh((4, 9, 2), batch=2, seed=15)
        mesh.data[1, 1, 5, 3] = np.nan
        with pytest.raises(LineSolveError) as err:
            solve_lines(mesh, dominant_profile(16, mesh, "y"), "y", algo, tiles=3)
        assert (err.value.batch, err.value.line, err.value.axis) == (1, 7, "y")
        assert isinstance(err.value.__cause__, NonFiniteSolution)


    @pytest.mark.parametrize("algo", ["thomas", "pcr", "thomas-thomas", "thomas-pcr"])
    def test_every_failing_line_named(self, algo):
        # zero rows on x line 2 of mesh 0 and lines 1 and 4 of mesh 2; the
        # first failure is the lowest row, 1, on mesh 2's line 1
        mesh = random_mesh((6, 3, 2), batch=3, seed=24)
        coeffs = profile_meshes(dominant_profile(25, mesh, "x"), mesh, "x")
        for k, z, y, row in [(0, 0, 2, 3), (2, 0, 1, 1), (2, 1, 1, 5)]:
            for m in coeffs:
                m.data[k, z, y, row] = 0.0
        with pytest.raises(LineSolveError) as err:
            solve_lines(mesh, coeffs, "x", algo, tiles=2)
        assert err.value.failures == [(0, 2), (2, 1), (2, 4)]
        assert (err.value.batch, err.value.line, err.value.axis) == (2, 1, "x")


class TestFactoredSweep:
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
