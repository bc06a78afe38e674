import json
from dataclasses import fields

import numpy as np
import pytest

from tridax import (AdiConfig, LineSolveError, Mesh, NonFiniteSolution, Precision,
                    ZeroDuration, ZeroPivot, adi, adi_run, effective_bandwidth)
from tridax.reference import naive_adi_run
from conftest import digest, stencil


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


def json_leaf_types(value) -> set[type]:
    """The exact types of the non-container values in a JSON-shaped ``value``."""
    if isinstance(value, dict):
        return set().union(*map(json_leaf_types, value.values()))
    if isinstance(value, list):
        return set().union(*map(json_leaf_types, value))
    return {type(value)}


class TestRhs:
    def test_constant_field_zero(self):
        mesh = Mesh.zeros((8, 8, 8))
        mesh.data[:] = 4.25
        d = stencil(mesh, 0.5)
        assert np.all(d.data == 0)

    def test_linear_field_zero_second_difference(self):
        mesh = Mesh.zeros((8, 3, 3))
        for i in range(8):
            mesh.data[:, :, :, i] = i
        d = stencil(mesh, 0.5)
        assert np.all(d.data == 0)

    def test_matches_loop_oracle_bitwise(self):
        mesh = full_random((8, 8, 8), seed=88)
        gamma = 0.37
        d = stencil(mesh, gamma)
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
        d = stencil(mesh, 1.0)
        assert np.all(d.data[:, 0] == 0) and np.all(d.data[:, -1] == 0)
        assert np.all(d.data[:, :, 0] == 0) and np.all(d.data[:, :, -1] == 0)
        assert np.all(d.data[:, :, :, 0] == 0) and np.all(d.data[:, :, :, -1] == 0)


class TestStep:
    def test_zero_is_fixed_point(self):
        u = Mesh.zeros((6, 6, 6))
        u1, report = adi_run(u, AdiConfig(gamma=0.5, n_iter=1))
        assert np.all(u1.data == 0) and report["delta_inf"] == [0.0]

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
            assert np.abs(u1.data).max() <= np.abs(u.data).max(), (trial, gamma)

    def test_2d_path_skips_z(self):
        u0 = full_random((16, 16), seed=6)
        got, _ = adi_run(u0, AdiConfig(gamma=0.5, n_iter=1))
        ref = naive_adi_run(u0.data, 0.5, 1)
        assert np.max(np.abs(got.data - ref)) <= 1e-12


class TestRun:
    def test_config_holds_only_what_the_run_reads(self):
        assert [f.name for f in fields(AdiConfig)] == ["gamma", "n_iter", "precision"]

    def test_n_iter_zero_rejected(self):
        with pytest.raises(ValueError):
            AdiConfig(gamma=0.5, n_iter=0)

    def test_gamma_must_be_finite_in_its_precision(self):
        # no overflow warning: the cast is tested quietly
        with pytest.raises(ValueError, match=r"^gamma must be finite in fp32, not 1e\+39$"):
            AdiConfig(gamma=1e39, n_iter=1, precision=Precision.FP32)
        AdiConfig(gamma=3e38, n_iter=1, precision=Precision.FP32)
        AdiConfig(gamma=1e39, n_iter=1)

    def test_overflowing_stencil_names_gamma_mesh_and_iteration(self):
        u0 = interior_random((6, 5), batch=3, seed=4)
        u0.data[:2] = 0  # so meshes 0 and 1 have a zero right-hand side
        message = (r"^the stencil right-hand side \(gamma 1e\+308\) contains non-finite "
                   r"values in mesh 2 at iteration 0$")
        with pytest.raises(ValueError, match=message) as err:
            adi_run(u0, AdiConfig(gamma=1e308, n_iter=2))
        assert isinstance(err.value.__context__, LineSolveError)

        class PassThrough(AdiConfig):  # sweeps leave d as the stencil wrote it
            def line_coefficients(self, n, dtype):
                zero = np.zeros(n, dtype)
                return zero, np.ones(n, dtype), zero

        # a lone peak M: u becomes -3M, whose stencil 16M overflows one iteration later
        u0 = Mesh.zeros((5, 5), batch=2)
        u0.data[1, 0, 2, 2] = 2e307
        with pytest.raises(ValueError, match=r"\(gamma 1.0\) contains non-finite values "
                                             r"in mesh 1 at iteration 1$"):
            adi_run(u0, PassThrough(gamma=1.0, n_iter=3))

    def test_decay_matches_reference_threshold(self):
        # 100 zero-boundary iterations: monotone decay, final norm equal to
        # the plain-loop reference's
        u0 = interior_random((16, 16, 16), seed=7)
        start = np.abs(u0.data).max()
        u, report = adi_run(u0, AdiConfig(gamma=0.5, n_iter=100))
        deltas = report["delta_inf"]
        assert len(deltas) == 100
        ref = naive_adi_run(u0.data, 0.5, 100)
        assert np.max(np.abs(u.data - ref)) <= 1e-12
        assert np.abs(u.data).max() < start

    def test_norm_non_increasing_over_run(self):
        u = interior_random((12, 12, 12), seed=8)
        cfg = AdiConfig(gamma=0.5, n_iter=1)
        prev = np.abs(u.data).max()
        for _ in range(50):
            u, _ = adi_run(u, cfg)
            now = np.abs(u.data).max()
            assert now <= prev
            prev = now

    def test_cross_precision_agreement(self):
        u0 = full_random((32, 32, 32), seed=9)
        cfg64 = AdiConfig(gamma=0.5, n_iter=100, precision=Precision.FP64)
        cfg32 = AdiConfig(gamma=0.5, n_iter=100, precision=Precision.FP32)
        u64, _ = adi_run(u0, cfg64)
        u32, _ = adi_run(Mesh(u0.data.astype(np.float32), 3), cfg32)
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

    @pytest.mark.parametrize("dims, batch, precision, mesh_bytes, total_bytes", [
        ((12, 12), 3, Precision.FP32, 12 * 12 * 3 * 4, 4 * 9 * 1728),
        ((8, 8, 8), 1, Precision.FP64, 8 ** 3 * 8, 4 * 11 * 4096)], ids=["2d", "3d"])
    def test_report_accounting(self, dims, batch, precision, mesh_bytes, total_bytes):
        # the payload's schema and every non-timing value; no wall time is compared
        u0 = interior_random(dims, batch=batch, seed=11, precision=precision)
        _, report = adi_run(u0, AdiConfig(gamma=0.5, n_iter=4, precision=precision))
        assert sorted(report) == ["config", "delta_inf", "effective_gb_per_s", "phases",
                                  "schema_version", "steps", "total_bytes", "total_seconds"]
        assert report["schema_version"] == "tridax.report.v1"
        assert report["config"] == {"gamma": 0.5, "n_iter": 4, "precision": precision.value,
                                    "dims": list(dims), "batch": batch}
        sweeps = ["sweep_x", "sweep_y", "sweep_z"][:len(dims)]
        assert list(report["phases"]) == ["rhs", *sweeps, "update"]
        transfers = {"rhs": 2, **dict.fromkeys(sweeps, 2), "update": 3}
        for name, phase in report["phases"].items():
            assert sorted(phase) == ["bytes", "gb_per_s", "seconds"]
            assert phase["bytes"] == 4 * transfers[name] * mesh_bytes
            expected = phase["bytes"] / phase["seconds"] / 1e9 if phase["seconds"] > 0 else 0.0
            assert phase["gb_per_s"] == pytest.approx(expected)
        assert report["total_bytes"] == total_bytes
        assert report["total_bytes"] == sum(p["bytes"] for p in report["phases"].values())
        assert [sorted(s) for s in report["steps"]] == [["iterations", "seconds"]] * 4
        assert [s["iterations"] for s in report["steps"]] == [1, 2, 3, 4]
        assert len(report["delta_inf"]) == 4
        # plain JSON values only: a numpy scalar or a tuple would not survive unchanged
        assert json.loads(json.dumps(report)) == report
        assert json_leaf_types(report) <= {str, int, float}

    @pytest.mark.parametrize("dims", [(1, 6, 6), (3, 8, 8), (2, 8), (8, 3)],
                             ids=lambda dims: "x".join(map(str, dims)))
    def test_small_extents_match_reference_bitwise(self, dims):
        u0 = full_random(dims, seed=14)
        got, _ = adi_run(u0, AdiConfig(gamma=0.5, n_iter=3))
        assert np.array_equal(got.data, naive_adi_run(u0.data, 0.5, 3))

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


class TestWorkspace:
    """``adi_run`` puts the batch innermost in its workspace once a batch
    run, one value from each mesh, fills 64 bytes. Its 16-mesh FP32 runs
    here are 64-byte runs: the x sweep copies runs of whole batches, the y
    sweep runs in place, and every error names the meshes and lines that
    the storage-order run names."""

    INNERMOST, STORAGE = (1, 2, 3, 0), (0, 1, 2, 3)

    @pytest.mark.parametrize("batch, precision, innermost", [
        (32, Precision.FP32, True),   # benchmark adi2d-fp32: 128-byte runs
        (1, Precision.FP64, False),   # benchmark adi3d-fp64: one mesh
        (3, Precision.FP32, False),   # smoke adi2d-fp32: 12-byte runs
        (16, Precision.FP32, True), (15, Precision.FP32, False),
        (8, Precision.FP64, True), (7, Precision.FP64, False)])
    def test_order_rule(self, batch, precision, innermost):
        assert adi.BATCH_RUN_BYTES == 64
        expected = self.INNERMOST if innermost else self.STORAGE
        assert adi._workspace_axes(batch, precision.dtype) == expected

    def test_bitwise_as_in_storage_order(self, monkeypatch):
        u0 = full_random((7, 9, 5), batch=16, seed=40, precision=Precision.FP32)
        cfg = AdiConfig(gamma=0.5, n_iter=2, precision=Precision.FP32)
        u, report = adi_run(u0, cfg)
        monkeypatch.setattr(adi, "BATCH_RUN_BYTES", 1 << 30)
        stored, stored_report = adi_run(u0, cfg)
        assert u.data.flags.c_contiguous and u.data.shape == u0.data.shape
        assert u.data.tobytes() == stored.data.tobytes()
        assert report["delta_inf"] == stored_report["delta_inf"]

    @staticmethod
    def peaks(points, value):
        """16 FP32 7x9 meshes, zero but for ``value`` at each ``(mesh, x, y)``."""
        u0 = Mesh.zeros((7, 9), batch=16, precision=Precision.FP32)
        for k, x, y in points:
            u0.data[k, 0, y, x] = value
        return u0

    class Amplify(AdiConfig):
        """Sweeps divide by 1e-19 along ``amplified`` (x or y, by extent),
        pass the other axis through. A lone peak M gives the stencil value
        -4M there and M at its neighbours, so with M = 2e19 only the peak's
        line overflows."""

        amplified = 7

        def line_coefficients(self, n, dtype):
            zero = np.zeros(n, dtype)
            return zero, np.full(n, 1e-19 if n == self.amplified else 1.0, dtype), zero

    def test_overflowing_x_sweep_names_mesh_and_line(self):
        # kernel lines run batch innermost: mesh 11's line 3 comes first there
        u0 = self.peaks([(11, 2, 3), (5, 4, 6)], 2e19)
        cfg = self.Amplify(gamma=1.0, n_iter=2, precision=Precision.FP32)
        with pytest.raises(LineSolveError) as err:
            adi_run(u0, cfg)
        assert (err.value.axis, err.value.batch, err.value.line) == ("x", 5, 6)
        assert err.value.failures == [(5, 6), (11, 3)]
        assert str(err.value) == "solve failed on axis x, mesh 5, line 6 (2 lines failed)"
        assert isinstance(err.value.__cause__, NonFiniteSolution)

    def test_overflowing_in_place_y_sweep_names_mesh_and_line(self):
        u0 = self.peaks([(9, 2, 4), (3, 5, 2)], 2e19)
        cfg = self.Amplify(gamma=1.0, n_iter=1, precision=Precision.FP32)
        cfg.amplified = 9
        with pytest.raises(LineSolveError) as err:
            adi_run(u0, cfg)
        assert (err.value.axis, err.value.batch, err.value.line) == ("y", 3, 5)
        assert err.value.failures == [(3, 5), (9, 2)]
        assert isinstance(err.value.__cause__, NonFiniteSolution)

    def test_overflowing_stencil_names_gamma_and_mesh(self):
        # the x sweep copies batch runs, so the failed sweep leaves d intact
        u0 = self.peaks([(9, 3, 3), (4, 2, 2)], 1e38)
        cfg = AdiConfig(gamma=1.0, n_iter=1, precision=Precision.FP32)
        with pytest.raises(ValueError, match=r"^the stencil right-hand side \(gamma 1.0\) "
                                             r"contains non-finite values in mesh 4 "
                                             r"at iteration 0$"):
            adi_run(u0, cfg)

    def test_non_finite_field_names_mesh_and_iteration(self):
        fp32 = Precision.FP32
        u0 = self.peaks([(9, 3, 3)], np.nan)
        u0.data[12, 0, 1, 1] = np.inf
        with pytest.raises(ValueError, match=r"in mesh 9 at iteration 0$"):
            adi_run(u0, AdiConfig(gamma=1.0, n_iter=2, precision=fp32))

        class NegatedX(AdiConfig):  # d = -gamma * stencil
            def line_coefficients(self, n, dtype):
                zero = np.zeros(n, dtype)
                return zero, np.full(n, -1.0 if n == 7 else 1.0, dtype), zero

        # a lone peak M: stencil -4M, so the update gives M + 4M, past the FP32 maximum
        u0 = self.peaks([(13, 3, 3), (9, 4, 5)], 8e37)
        with pytest.warns(RuntimeWarning, match="overflow"):
            with pytest.raises(ValueError, match=r"in mesh 9 at iteration 1$"):
                adi_run(u0, NegatedX(gamma=1.0, n_iter=3, precision=fp32))


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
        assert digest(u.data, np.array(report["delta_inf"])) == GOLDEN[key]


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
