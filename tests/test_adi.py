import numpy as np
import pytest

from tridax import (AdiConfig, LineSolveError, Mesh, Precision, ZeroDuration, ZeroPivot,
                    adi, adi_rhs, adi_run, effective_bandwidth)
from tridax.adi import logical_bytes_per_iteration
from tridax.reference import naive_adi_run
from conftest import digest


def interior_random(dims, batch=1, seed=0, precision=Precision.FP64):
    """Zero-boundary mesh with seeded random interior values."""
    mesh = Mesh.zeros(dims, batch=batch, precision=precision)
    rng = np.random.default_rng(seed)
    if mesh.spatial_ndim == 2:
        inner = mesh.data[:, :, 1:-1, 1:-1]
    else:
        inner = mesh.data[:, 1:-1, 1:-1, 1:-1]
    inner[:] = rng.uniform(-1, 1, inner.shape).astype(mesh.data.dtype)
    return mesh


def full_random(dims, batch=1, seed=0, precision=Precision.FP64):
    mesh = Mesh.zeros(dims, batch=batch, precision=precision)
    rng = np.random.default_rng(seed)
    mesh.data[:] = rng.uniform(-1, 1, mesh.data.shape).astype(mesh.data.dtype)
    return mesh


class TestRhs:
    def test_constant_field_zero(self):
        mesh = Mesh.zeros((8, 8, 8))
        mesh.data[:] = 4.25
        d = adi_rhs(mesh, AdiConfig(gamma=0.5, n_iter=1))
        assert np.all(d.data == 0)

    def test_linear_field_zero_second_difference(self):
        mesh = Mesh.zeros((8, 3, 3))
        for i in range(8):
            mesh.data[:, :, :, i] = i
        d = adi_rhs(mesh, AdiConfig(gamma=0.5, n_iter=1))
        assert np.all(d.data == 0)

    def test_matches_loop_oracle_bitwise(self):
        mesh = full_random((8, 8, 8), seed=88)
        gamma = 0.37
        d = adi_rhs(mesh, AdiConfig(gamma=gamma, n_iter=1))
        u = mesh.data
        expected = np.zeros_like(u)
        for k in range(1, 7):
            for j in range(1, 7):
                for i in range(1, 7):
                    ctr = u[0, k, j, i]
                    acc = (u[0, k, j, i - 1] - 2.0 * ctr) + u[0, k, j, i + 1]
                    acc = acc + ((u[0, k, j - 1, i] - 2.0 * ctr) + u[0, k, j + 1, i])
                    acc = acc + ((u[0, k - 1, j, i] - 2.0 * ctr) + u[0, k + 1, j, i])
                    expected[0, k, j, i] = gamma * acc
        assert np.array_equal(d.data, expected)

    def test_boundary_rows_zero(self):
        mesh = full_random((6, 6, 6), seed=3)
        d = adi_rhs(mesh, AdiConfig(gamma=1.0, n_iter=1))
        assert np.all(d.data[:, 0] == 0) and np.all(d.data[:, -1] == 0)
        assert np.all(d.data[:, :, 0] == 0) and np.all(d.data[:, :, -1] == 0)
        assert np.all(d.data[:, :, :, 0] == 0) and np.all(d.data[:, :, :, -1] == 0)

    def test_rejects_non_finite(self):
        mesh = Mesh.zeros((4, 4))
        mesh.data[0, 0, 1, 1] = np.nan
        with pytest.raises(ValueError):
            adi_rhs(mesh, AdiConfig(gamma=0.5, n_iter=1))

    def test_non_finite_names_first_mesh(self):
        mesh = Mesh.zeros((4, 4, 3), batch=4)
        mesh.data[2, 1, 1, 1] = np.inf
        mesh.data[3, 0, 0, 0] = np.nan
        with pytest.raises(ValueError, match=r"non-finite values in mesh 2$"):
            adi_rhs(mesh, AdiConfig(gamma=0.5, n_iter=1))


class TestStep:
    def test_zero_is_fixed_point(self):
        u = Mesh.zeros((6, 6, 6))
        u1, report = adi_run(u, AdiConfig(gamma=0.5, n_iter=1))
        assert np.all(u1.data == 0) and report.delta_inf == [0.0]

    def test_matches_naive_reference_12cubed(self):
        u0 = full_random((12, 12, 12), seed=5)
        got, _ = adi_run(u0, AdiConfig(gamma=0.5, n_iter=1))
        ref = naive_adi_run(u0.data, 0.5, 1)
        assert np.max(np.abs(got.data - ref)) <= 1e-12

    def test_monotone_decay_sweep(self):
        # zero-boundary diffusion never grows the max-norm for gamma <= 1;
        # any violation is a failure
        rng = np.random.default_rng(99)
        for trial in range(100):
            gamma = float(rng.uniform(0.05, 1.0)) if trial % 2 else 1.0
            u = interior_random((8, 8, 8), seed=trial)
            u1, _ = adi_run(u, AdiConfig(gamma=gamma, n_iter=1))
            assert u1.max_abs() <= u.max_abs(), (trial, gamma)

    def test_2d_path_skips_z(self):
        u0 = full_random((16, 16), seed=6)
        got, _ = adi_run(u0, AdiConfig(gamma=0.5, n_iter=1))
        ref = naive_adi_run(u0.data, 0.5, 1)
        assert np.max(np.abs(got.data - ref)) <= 1e-12


class TestRun:
    def test_n_iter_zero_rejected(self):
        with pytest.raises(ValueError):
            AdiConfig(gamma=0.5, n_iter=0)

    def test_decay_matches_reference_threshold(self):
        # 100 zero-boundary iterations: monotone decay, final norm equal to
        # the plain-loop reference's
        u0 = interior_random((16, 16, 16), seed=7)
        start = u0.max_abs()
        u, report = adi_run(u0, AdiConfig(gamma=0.5, n_iter=100))
        deltas = report.delta_inf
        assert len(deltas) == 100
        ref = naive_adi_run(u0.data, 0.5, 100)
        assert np.max(np.abs(u.data - ref)) <= 1e-12
        assert u.max_abs() < start

    def test_norm_non_increasing_over_run(self):
        u = interior_random((12, 12, 12), seed=8)
        cfg = AdiConfig(gamma=0.5, n_iter=1)
        prev = u.max_abs()
        for _ in range(50):
            u, _ = adi_run(u, cfg)
            now = u.max_abs()
            assert now <= prev
            prev = now

    def test_cross_precision_agreement(self):
        u0 = full_random((32, 32, 32), seed=9)
        cfg64 = AdiConfig(gamma=0.5, n_iter=100, precision=Precision.FP64)
        cfg32 = AdiConfig(gamma=0.5, n_iter=100, precision=Precision.FP32)
        u64, _ = adi_run(u0, cfg64)
        u32, _ = adi_run(u0.astype(Precision.FP32), cfg32)
        scale = max(1.0, float(np.max(np.abs(u64.data))))
        err = float(np.max(np.abs(u32.data.astype(np.float64) - u64.data))) / scale
        assert err <= 1e-4

    def test_batch_independence_bitwise(self):
        batched = full_random((10, 10, 10), batch=3, seed=10)
        cfg = AdiConfig(gamma=0.5, n_iter=3)
        whole, _ = adi_run(batched, cfg)
        for b in range(3):
            single = Mesh(batched.data[b:b + 1].copy(), 3)
            alone, _ = adi_run(single, cfg)
            assert np.array_equal(alone.data[0], whole.data[b])

    def test_report_accounting(self):
        u0 = interior_random((8, 8, 8), seed=11)
        _, report = adi_run(u0, AdiConfig(gamma=0.5, n_iter=4))
        mesh_bytes = u0.nbytes
        assert report.phase("rhs").bytes == 4 * 2 * mesh_bytes
        for ax in "xyz":
            assert report.phase(f"sweep_{ax}").bytes == 4 * 2 * mesh_bytes
        assert report.phase("update").bytes == 4 * 3 * mesh_bytes
        for stats in report.phases.values():
            if stats.seconds > 0:
                assert stats.gb_per_s == pytest.approx(
                    stats.bytes / stats.seconds / 1e9)
        payload = report.to_dict()
        assert payload["schema_version"] == "tridax.report.v1"
        assert payload["total_bytes"] == 4 * logical_bytes_per_iteration(
            u0.points, 8, 3)

    @pytest.mark.parametrize("dims", [(1, 6, 6), (3, 8, 8), (2, 8), (8, 3)],
                             ids=lambda dims: "x".join(map(str, dims)))
    def test_small_extents_match_reference_bitwise(self, dims):
        u0 = full_random(dims, seed=14)
        got, _ = adi_run(u0, AdiConfig(gamma=0.5, n_iter=3))
        assert np.array_equal(got.data, naive_adi_run(u0.data, 0.5, 3))

    def test_unroll_only_affects_reporting(self):
        u0 = full_random((8, 8), seed=12)
        u1, r1 = adi_run(u0, AdiConfig(gamma=0.5, n_iter=6, unroll=1))
        u3, r3 = adi_run(u0, AdiConfig(gamma=0.5, n_iter=6, unroll=3))
        assert np.array_equal(u1.data, u3.data)
        assert len(r1.steps) == 6
        assert len(r3.steps) == 2

    def test_literal_coefficient_mode(self):
        u0 = full_random((8, 8), seed=13)
        cfg = AdiConfig(gamma=0.5, n_iter=2, literal_coefficients=True)
        got, _ = adi_run(u0, cfg)
        ref = naive_adi_run(u0.data, 0.5, 2, literal_coefficients=True)
        assert np.max(np.abs(got.data - ref)) <= 1e-12


    def test_failing_profile_raises_before_first_iteration(self):
        class ZeroPivotOnY(AdiConfig):
            def line_coefficients(self, n, dtype):
                a, b, c = super().line_coefficients(n, dtype)
                if n == 9:  # the y profile: a zero row 4
                    a[4] = b[4] = c[4] = 0
                return a, b, c

        u0 = full_random((6, 9), batch=2, seed=15)
        u0.data[0, 0, 3, 3] = np.nan  # the first iteration would raise ValueError
        with pytest.raises(LineSolveError) as err:
            adi_run(u0, ZeroPivotOnY(gamma=0.5, n_iter=2))
        assert (err.value.axis, err.value.batch, err.value.line) == ("y", 0, 0)
        assert err.value.failures == [(k, line) for k in range(2) for line in range(6)]
        assert isinstance(err.value.__cause__, ZeroPivot)
        assert err.value.__cause__.index == 4

    def test_non_finite_field_names_mesh_and_iteration(self):
        u0 = Mesh.zeros((5, 5), batch=3)
        u0.data[2, 0, 1, 1] = np.nan
        with pytest.raises(ValueError, match=r"in mesh 2 at iteration 0$"):
            adi_run(u0, AdiConfig(gamma=1.0, n_iter=3))

        class NegatedX(AdiConfig):  # sweeps negate x lines: d = -gamma * stencil
            def line_coefficients(self, n, dtype):
                zero = np.zeros(n, dtype)
                return zero, np.full(n, -1.0 if n == 5 else 1.0, dtype), zero

        # a lone peak M: stencil -4M, so the update gives M + 4M, finite
        # through the first sweeps but past the FP64 maximum
        u0 = Mesh.zeros((5, 7), batch=3)
        u0.data[1, 0, 3, 2] = 4e307
        for n_iter in (3, 1):  # the last iteration's update is checked too
            with pytest.warns(RuntimeWarning, match="overflow"):
                with pytest.raises(ValueError, match=r"in mesh 1 at iteration 1$"):
                    adi_run(u0, NegatedX(gamma=1.0, n_iter=n_iter))


GOLDEN = {
    "2x160x160-fp32": "9fadcfefb2c230e83315180c260f9f9801cb930e988911bb8d65ebbd10728163",
    "1x40x40x40-fp64": "699a33d90efd254e10d953ee670ea815a21031a1edb3c1c7a4068e938bff101b",
}


class TestGoldenDigests:
    """Runs on meshes larger than ``adi.STENCIL_CHUNK``, so the explicit
    passes cross chunk boundaries; the digests were recorded with the
    passes unchunked."""

    @pytest.mark.parametrize("dims, batch, precision", [
        ((160, 160), 2, Precision.FP32), ((40, 40, 40), 1, Precision.FP64)],
        ids=list(GOLDEN))
    def test_run(self, dims, batch, precision):
        u0 = full_random(dims, batch=batch, seed=sum(dims), precision=precision)
        assert u0.data.size > adi.STENCIL_CHUNK
        u, report = adi_run(u0, AdiConfig(gamma=0.5, n_iter=3, precision=precision))
        key = f"{batch}x{'x'.join(map(str, dims))}-{precision.value}"
        assert digest(u.data, np.array(report.delta_inf)) == GOLDEN[key]


class TestEffectiveBandwidth:
    def test_one_gb_per_second(self):
        assert effective_bandwidth(1e9, 1.0) == 1.0

    def test_zero_bytes(self):
        assert effective_bandwidth(0, 2.0) == 0.0

    def test_u280_peak_anchor(self):
        assert effective_bandwidth(460e9, 1.0) == 460.0

    def test_zero_duration_raises(self):
        with pytest.raises(ZeroDuration):
            effective_bandwidth(1.0, 0.0)
