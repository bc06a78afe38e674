import json

import numpy as np
import pytest

from tridax import Mesh, Precision, read_mesh, residual_max_norm
from tridax.cli import main, read_batch, write_batch
from tridax.core import TridiagonalBatch, random_dominant_system


def run(argv, capsys=None):
    code = main([str(a) for a in argv])
    return code


class TestSolve:
    def test_generated_batch_report(self, tmp_path, capsys):
        out = tmp_path / "sol.bin"
        rep = tmp_path / "rep.json"
        code = run(["solve", "--batch", 100, "--size", 128, "--seed", 1,
                    "--algo", "thomas", "--out", out, "--report", rep])
        assert code == 0
        payload = json.loads(rep.read_text())
        assert payload["schema_version"] == "tridax.report.v1"
        assert payload["max_residual"] <= 1e-11
        sol = read_mesh(out)
        assert sol.batch == 100 and sol.dims[0] == 128

    def test_hybrid_without_tiles_is_usage_error(self, tmp_path):
        assert run(["solve", "--algo", "thomas-pcr", "--batch", 2,
                    "--size", 16]) == 2
        assert run(["solve", "--algo", "thomas-pcr", "--tiles", 1,
                    "--batch", 2, "--size", 16]) == 2

    def test_deterministic_outputs(self, tmp_path):
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        for out in (a, b):
            assert run(["solve", "--batch", 10, "--size", 32, "--seed", 7,
                        "--out", out, "--report", tmp_path / "r.json"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_batch_file_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        systems = [random_dominant_system(24, rng) for _ in range(5)]
        batch = TridiagonalBatch.from_systems(systems)
        path = tmp_path / "batch.bin"
        write_batch(path, batch)
        back = read_batch(path)
        assert back.count == 5 and back.n == 24
        assert np.array_equal(back.d, batch.d)
        out = tmp_path / "sol.bin"
        assert run(["solve", "--input", path, "--out", out,
                    "--report", tmp_path / "r.json"]) == 0
        sol = read_mesh(out)
        for i in range(5):
            assert residual_max_norm(systems[i], sol.data[i, 0, 0]) <= 1e-12


    def test_input_batch_reports_its_precision(self, tmp_path):
        rng = np.random.default_rng(4)
        systems = [random_dominant_system(16, rng, Precision.FP32) for _ in range(4)]
        path = tmp_path / "batch.bin"
        write_batch(path, TridiagonalBatch.from_systems(systems))
        rep = tmp_path / "r.json"
        assert run(["solve", "--input", path, "--out", tmp_path / "sol.bin",
                    "--report", rep]) == 0
        payload = json.loads(rep.read_text())
        assert payload["precision"] == "fp32"
        assert payload["bytes_moved"] == 5 * 4 * 16 * 4 == 1280

    def test_input_batch_with_failing_systems(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        batch = TridiagonalBatch.from_systems(random_dominant_system(16, rng) for _ in range(6))
        batch.a[2, 5] = batch.b[2, 5] = batch.c[2, 5] = 0  # a zero pivot
        batch.d[4, 9] = np.nan
        path = tmp_path / "batch.bin"
        write_batch(path, batch)
        out = tmp_path / "sol.bin"
        assert run(["solve", "--input", path, "--out", out,
                    "--report", tmp_path / "r.json"]) == 1
        assert "2 system(s) failed: [2, 4]" in capsys.readouterr().err
        assert not out.exists()


class TestAdi:
    def test_verify_passes(self, tmp_path, capsys):
        code = run(["adi", "--dims", "12,12,12", "--gamma", "0.5", "--iters", "3",
                    "--seed", 2, "--verify", "--out", tmp_path / "u.bin",
                    "--report", tmp_path / "r.json"])
        assert code == 0
        assert "PASS" in capsys.readouterr().out
        payload = json.loads((tmp_path / "r.json").read_text())
        assert payload["verify"]["result"] == "PASS"
        assert payload["verify"]["max_deviation"] <= 1e-12

    def test_2d_fp32_decay(self, tmp_path):
        rep = tmp_path / "r.json"
        code = run(["adi", "--dims", "32,32", "--batch", "2", "--gamma", "0.5",
                    "--iters", "20", "--precision", "fp32", "--report", rep])
        assert code == 0
        payload = json.loads(rep.read_text())
        deltas = payload["delta_inf"]
        assert len(deltas) == 20
        assert deltas[-1] < deltas[0]

    def test_report_keys_unchanged(self, tmp_path):
        rep = tmp_path / "r.json"
        assert run(["adi", "--dims", "8,8", "--batch", "2", "--gamma", "0.5",
                    "--iters", "2", "--report", rep]) == 0
        payload = json.loads(rep.read_text())
        assert sorted(payload) == ["command", "config", "delta_inf", "effective_gb_per_s",
                                   "phases", "schema_version", "steps", "total_bytes",
                                   "total_seconds"]
        assert sorted(payload["config"]) == ["batch", "dims", "gamma",
                                             "literal_coefficients", "n_iter",
                                             "precision", "unroll"]
        assert sorted(payload["phases"]) == ["rhs", "sweep_x", "sweep_y", "update"]
        assert [s["iterations"] for s in payload["steps"]] == [1, 2]

    @pytest.mark.parametrize("knob", ["--threads", "--group", "--vector"])
    def test_removed_knobs_are_usage_errors(self, knob):
        with pytest.raises(SystemExit) as err:
            run(["adi", "--dims", "8,8", "--gamma", "0.5", knob, "2"])
        assert err.value.code == 2

    def test_missing_gamma_usage_error(self):
        with pytest.raises(SystemExit) as err:
            run(["adi", "--dims", "8,8"])
        assert err.value.code == 2


class TestModel:
    def test_calibration_row(self, tmp_path, capsys):
        rep = tmp_path / "m.json"
        code = run(["model", "--algo", "batched-thomas", "--batch", 8000,
                    "--size", 128, "--group", 32, "--vector", 8,
                    "--freq-mhz", 300, "--precision", "fp32", "--report", rep])
        assert code == 0
        out = capsys.readouterr().out
        assert "0.4700 ms" in out and "1.7%" in out
        payload = json.loads(rep.read_text())
        assert payload["cycles"] == 143360
        assert payload["measured_reference"]["relative_error"] < 0.15

    def test_unknown_device_usage_error(self):
        assert run(["model", "--algo", "batched-thomas", "--batch", 10,
                    "--size", 8, "--device", "not-a-device"]) == 2

    def test_incomplete_device_profile_usage_error(self, tmp_path, capsys):
        path = tmp_path / "card.txt"
        path.write_text("dsp_count = 1000\nhbm_ports = 16\n")
        assert run(["model", "--algo", "batched-thomas", "--batch", 10,
                    "--size", 8, "--device", path]) == 2
        assert "missing keys" in capsys.readouterr().err


class TestDse:
    def test_large_system_top_row_tiled(self, tmp_path, capsys):
        rep = tmp_path / "d.json"
        code = run(["dse", "--batch", 100, "--size", 8192, "--precision", "fp32",
                    "--report", rep])
        assert code == 0
        payload = json.loads(rep.read_text())
        assert payload["rows"][0]["algorithm"] in ("thomas-pcr", "thomas-thomas")

    def test_2d_dims_rank_tiled_design(self, tmp_path):
        rep = tmp_path / "d.json"
        code = run(["dse", "--batch", 100, "--dims", "4096,4096", "--precision", "fp32",
                    "--report", rep])
        assert code == 0
        payload = json.loads(rep.read_text())
        assert payload["rows"][0]["algorithm"] == "adi2d-tiled"

    def test_no_feasible_design_exit_code(self, tmp_path):
        code = run(["dse", "--batch", 10, "--size", 8192, "--precision", "fp32",
                    "--algo", "batched-thomas", "--report", tmp_path / "d.json"])
        assert code == 3

    def test_csv_report(self, tmp_path):
        rep = tmp_path / "d.csv"
        code = run(["dse", "--batch", 8000, "--size", 128, "--precision", "fp32",
                    "--format", "csv", "--report", rep])
        assert code == 0
        lines = rep.read_text().splitlines()
        assert lines[0].startswith("# schema")
        assert lines[2].split(",")[1] == "batched-thomas"


class TestSelftest:
    def test_selftest_passes(self, capsys):
        assert run(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
