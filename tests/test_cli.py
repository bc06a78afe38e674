import errno
import json
import re

import numpy as np
import pytest

from tridax import (AdiConfig, Mesh, Precision, adi_run, batch_solve, mesh, read_mesh,
                    residual_max_norm)
from tridax.cli import main, read_batch, write_batch
from tridax.core import random_dominant_batch, random_dominant_system
from conftest import stack_systems
from tridax.perfmodel import Algorithm
from tridax.perfmodel.design import DESIGN_FIELDS


def run(argv, capsys=None):
    code = main([str(a) for a in argv])
    return code


TIMES = {"seconds", "gb_per_s", "total_seconds", "effective_gb_per_s"}


def without_times(payload):
    """``payload`` with every wall-clock value, at any depth, replaced by None."""
    if isinstance(payload, dict):
        return {k: None if k in TIMES else without_times(v) for k, v in payload.items()}
    if isinstance(payload, list):
        return [without_times(v) for v in payload]
    return payload


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

    @pytest.mark.parametrize("algo", ["thomas", "pcr"])
    def test_tiles_with_untiled_algo_is_usage_error(self, tmp_path, capsys, algo):
        out = tmp_path / "sol.bin"
        assert run(["solve", "--algo", algo, "--tiles", 4, "--batch", 2, "--size", 16,
                    "--out", out]) == 2
        assert f"not {algo}" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_tile_count_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "sol.bin"
        assert run(["solve", "--algo", "thomas-pcr", "--tiles", 64, "--size", 128,
                    "--out", out]) == 2
        assert "every tile needs >= 3" in capsys.readouterr().err
        assert not out.exists()

    def test_report_without_tiles_writes_null(self, tmp_path):
        rep = tmp_path / "r.json"
        assert run(["solve", "--batch", 3, "--size", 8, "--out", tmp_path / "sol.bin",
                    "--report", rep]) == 0
        assert json.loads(rep.read_text())["tiles"] is None

    @pytest.mark.parametrize("name", ["f32", "float32", "single", "f64", "float64", "double"])
    def test_precision_alias_is_usage_error(self, tmp_path, capsys, name):
        out = tmp_path / "s.bin"
        assert run(["solve", "--batch", 2, "--size", 8, "--precision", name,
                    "--out", out]) == 2
        assert capsys.readouterr().err == f"error: unknown precision {name!r}\n"
        assert not out.exists()

    def test_precision_ignores_case_and_spaces(self, tmp_path):
        rep = tmp_path / "r.json"
        assert run(["solve", "--batch", 2, "--size", 8, "--precision", " FP32 ",
                    "--out", tmp_path / "s.bin", "--report", rep]) == 0
        assert json.loads(rep.read_text())["precision"] == "fp32"

    def test_deterministic_outputs(self, tmp_path):
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        for out in (a, b):
            assert run(["solve", "--batch", 10, "--size", 32, "--seed", 7,
                        "--out", out, "--report", tmp_path / "r.json"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_batch_file_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        systems = [random_dominant_system(24, rng) for _ in range(5)]
        batch = stack_systems(systems)
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
        write_batch(path, stack_systems(systems))
        rep = tmp_path / "r.json"
        assert run(["solve", "--input", path, "--out", tmp_path / "sol.bin",
                    "--report", rep]) == 0
        payload = json.loads(rep.read_text())
        assert payload["precision"] == "fp32"
        assert payload["bytes_moved"] == 5 * 4 * 16 * 4 == 1280

    def test_nonpositive_batch_is_usage_error(self, tmp_path, capsys):
        assert run(["solve", "--batch", 0, "--size", 16, "--out", tmp_path / "s.bin"]) == 2
        assert capsys.readouterr().err == \
            "error: a generated batch needs count and n >= 1, not 0 and 16\n"

    def test_generated_batch_is_one_library_draw(self, tmp_path):
        out = tmp_path / "sol.bin"
        assert run(["solve", "--batch", 5, "--size", 16, "--seed", 3, "--precision", "fp32",
                    "--out", out, "--report", tmp_path / "r.json"]) == 0
        batch = random_dominant_batch(5, 16, np.random.default_rng(3), Precision.FP32)
        expected = batch_solve(batch).reshape(5, 1, 1, 16)
        assert read_mesh(out).data.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("margin", ["nan", "inf"])
    def test_nonfinite_margin_is_usage_error(self, tmp_path, capsys, margin):
        assert run(["solve", "--batch", 2, "--size", 8, "--margin", margin,
                    "--out", tmp_path / "s.bin"]) == 2
        assert capsys.readouterr().err == \
            f"error: dominance margin must be finite and positive, not {margin}\n"

    def test_input_batch_with_failing_systems(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        batch = stack_systems([random_dominant_system(16, rng) for _ in range(6)])
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
    # a z extent of 1 is still a 3-D mesh: every point is on a z face, none moves
    @pytest.mark.parametrize("dims", ["12,12,12", "5,4,1"])
    def test_verify_passes(self, tmp_path, capsys, dims):
        code = run(["adi", "--dims", dims, "--gamma", "0.5", "--iters", "3",
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
        assert sorted(payload["config"]) == ["batch", "dims", "gamma", "n_iter",
                                             "precision"]
        assert sorted(payload["phases"]) == ["rhs", "sweep_x", "sweep_y", "update"]
        assert [s["iterations"] for s in payload["steps"]] == [1, 2]

    def test_report_is_the_library_payload(self, tmp_path):
        # the CLI adds only "command" to adi_run's payload; wall times match by key
        path, rep = tmp_path / "u0.bin", tmp_path / "r.json"
        u0 = Mesh(np.random.default_rng(4).uniform(-1, 1, (1, 6, 7, 8)), 3)
        mesh.write_mesh(path, u0)
        assert run(["adi", "--input", path, "--gamma", 0.5, "--iters", 3,
                    "--report", rep]) == 0
        _, report = adi_run(u0, AdiConfig(gamma=0.5, n_iter=3))
        assert without_times(json.loads(rep.read_text())) == \
            without_times({**report, "command": "adi"})

    def test_report_carries_verify_and_mesh(self, tmp_path, capsys):
        rep = tmp_path / "r.json"
        assert run(["adi", "--dims", "8,8", "--batch", 2, "--gamma", 0.5, "--iters", 3,
                    "--verify", "--out", tmp_path / "u.bin", "--report", rep]) == 0
        payload = json.loads(rep.read_text())
        assert {"config", "delta_inf", "verify", "mesh"} <= set(payload)

    def test_input_mesh_keeps_its_precision(self, tmp_path, capsys):
        path = tmp_path / "u0.bin"
        u0 = Mesh(np.random.default_rng(3).uniform(-1, 1, (2, 1, 8, 8)).astype(np.float32), 2)
        mesh.write_mesh(path, u0)
        out, rep = tmp_path / "u.bin", tmp_path / "r.json"
        assert run(["adi", "--input", path, "--gamma", 0.5, "--iters", 3, "--verify",
                    "--out", out, "--report", rep]) == 0
        assert "verify: PASS" in capsys.readouterr().out
        payload = json.loads(rep.read_text())
        assert payload["config"]["precision"] == "fp32"
        assert payload["verify"]["result"] == "PASS"
        assert read_mesh(out).data.dtype == np.float32

    def test_input_mesh_dims(self, tmp_path, capsys):
        path = tmp_path / "u0.bin"
        mesh.write_mesh(path, Mesh.zeros((8, 6), batch=2))
        common = ["adi", "--input", path, "--gamma", 0.5, "--iters", 1,
                  "--report", tmp_path / "r.json"]
        assert run(common + ["--dims", "8,6"]) == 0
        assert run(common + ["--dims", "8,6,4"]) == 2
        assert "--dims 8,6,4 does not match the input mesh's dims 8,6" in \
            capsys.readouterr().err

    def test_no_dims_and_no_input_is_usage_error(self, capsys):
        assert run(["adi", "--gamma", 0.5]) == 2
        assert "needs --dims" in capsys.readouterr().err

    @pytest.mark.parametrize("knob", ["--threads", "--group", "--vector",
                                      "--literal-coefficients", "--unroll"])
    def test_removed_knobs_are_usage_errors(self, knob):
        with pytest.raises(SystemExit) as err:
            run(["adi", "--dims", "8,8", "--gamma", "0.5", knob, "2"])
        assert err.value.code == 2

    def test_missing_gamma_usage_error(self):
        with pytest.raises(SystemExit) as err:
            run(["adi", "--dims", "8,8"])
        assert err.value.code == 2

    @pytest.mark.parametrize("gamma", ["nan", "inf"])
    def test_nonfinite_gamma_is_usage_error(self, capsys, gamma):
        assert run(["adi", "--dims", "8,8", "--gamma", gamma]) == 2
        assert capsys.readouterr().err == \
            f"error: gamma must be finite and positive, not {gamma}\n"

    @pytest.mark.parametrize("gamma, precision, message", [
        ("1e39", "fp32", "gamma must be finite in fp32, not 1e+39"),
        ("1e308", "fp64", "the stencil right-hand side (gamma 1e+308) contains non-finite "
                          "values in mesh 0 at iteration 0")])
    def test_huge_gamma_is_usage_error(self, capsys, gamma, precision, message):
        assert run(["adi", "--dims", "8,8", "--gamma", gamma, "--iters", 2,
                    "--precision", precision]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


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

    @pytest.mark.parametrize("argv", [
        ["batched-thomas", "--batch", 8000, "--size", 128, "--group", 32,
         "--precision", "fp64"],
        ["adi2d", "--batch", 3000, "--dims", "128,128", "--iters", 120, "--unroll", 3,
         "--cus", 3, "--precision", "fp64", "--freq-mhz", 200, "--group", 64],
        ["adi2d", "--batch", 3000, "--dims", "128,128", "--iters", 120, "--unroll", 3,
         "--cus", 3, "--precision", "fp32"]],
        ids=["thomas-fp64", "adi2d-fp64", "adi2d-300mhz"])
    def test_other_design_has_no_measured_reference(self, tmp_path, capsys, argv):
        rep = tmp_path / "m.json"
        assert run(["model", "--algo", *argv, "--report", rep]) == 0
        assert "measured" not in capsys.readouterr().out
        assert "measured_reference" not in json.loads(rep.read_text())

    def test_published_adi2d_point(self, tmp_path, capsys):
        rep = tmp_path / "m.json"
        assert run(["model", "--algo", "adi2d", "--batch", 3000, "--dims", "128,128",
                    "--iters", 120, "--unroll", 3, "--cus", 3, "--precision", "fp32",
                    "--freq-mhz", 292, "--report", rep]) == 0
        out = capsys.readouterr().out
        assert "measured 342.4785 ms, err 14.6% (reconstructed)" in out
        assert json.loads(rep.read_text())["measured_reference"]["reconstructed"]

    def test_unknown_device_usage_error(self):
        assert run(["model", "--algo", "batched-thomas", "--batch", 10,
                    "--size", 8, "--device", "not-a-device"]) == 2

    def test_dropped_design_and_its_knob_are_usage_errors(self, capsys):
        argv = ["model", "--batch", 100, "--size", 128]
        assert run([*argv, "--algo", "batched-spike"]) == 2
        assert capsys.readouterr().err == "error: unknown algorithm 'batched-spike'\n"
        with pytest.raises(SystemExit) as err:
            run([*argv, "--algo", "batched-thomas", "--partitions", 1])
        assert err.value.code == 2

    def test_bad_tile_count_usage_error(self, capsys):
        assert run(["model", "--algo", "thomas-pcr", "--batch", 10, "--size", 8,
                    "--tiles", 4]) == 2
        assert "every tile needs >= 3" in capsys.readouterr().err

    def test_tiling_the_solver_rejects_is_usage_error(self, capsys):
        # ceil(9/4) = 3, but the last of the 4 tiles would hold no rows
        assert run(["model", "--algo", "thomas-pcr", "--batch", 10, "--size", 9,
                    "--tiles", 4]) == 2
        assert "leaves a tile of 0 rows; every tile needs >= 3" in capsys.readouterr().err

    def test_more_tiles_than_rows_is_usage_error(self, capsys):
        assert run(["model", "--algo", "thomas-pcr", "--batch", 1, "--size", 1024,
                    "--tiles", 1000000]) == 2
        assert ("n=1024 over t=1000000 tiles leaves a tile of 0 rows; every tile needs >= 3"
                in capsys.readouterr().err)

    def test_tiles_with_untiled_algo_is_usage_error(self, tmp_path, capsys):
        rep = tmp_path / "m.json"
        assert run(["model", "--algo", "batched-thomas", "--batch", 10, "--size", 8,
                    "--tiles", 4, "--report", rep]) == 2
        assert "not batched-thomas" in capsys.readouterr().err
        assert not rep.exists()

    @pytest.mark.parametrize("algo,flag,value,message", [
        ("batched-pcr", "--group", 7, "interleave_group applies to batched-thomas, "
         "thomas-thomas, thomas-pcr, adi2d, adi3d, adi2d-tiled, not batched-pcr"),
        ("batched-thomas", "--unroll", 2, "unroll applies to batched-pcr, adi2d, "
         "not batched-thomas"),
    ])
    def test_knob_the_design_does_not_read_is_usage_error(self, tmp_path, capsys, algo,
                                                          flag, value, message):
        rep = tmp_path / "m.json"
        argv = ["model", "--algo", algo, "--batch", 10, "--size", 64, "--report", rep]
        assert run([*argv, flag, value]) == 2
        assert f"error: {message}\n" in capsys.readouterr().err
        assert not rep.exists()
        default = {"--unroll": 1}.get(flag)
        if default is not None:  # a knob starts unset: given, even at its default, it is set
            assert run([*argv, flag, default]) == 2
            assert f"error: {message}\n" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value,message", [
        ("--cus", 2, "compute_units applies to batched-thomas, adi2d, adi3d, not thomas-pcr"),
        ("--cus", 1, "compute_units applies to batched-thomas, adi2d, adi3d, not thomas-pcr"),
        ("--vector", 8, "vector_width applies to batched-thomas, adi2d, adi3d, adi2d-tiled, "
         "not thomas-pcr"),
    ])
    def test_lane_flag_the_design_does_not_read_is_usage_error(self, tmp_path, capsys,
                                                               flag, value, message):
        # a lane flag starts unset: given, even at its default, it must be read
        rep = tmp_path / "m.json"
        argv = ["model", "--algo", "thomas-pcr", "--batch", 100, "--size", 1024,
                "--tiles", 4, "--report", rep]
        assert run([*argv, flag, value]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not rep.exists()
        assert run(argv) == 0

    def test_adi2d_tiled_reads_vector_not_cus(self, tmp_path, capsys):
        argv = ["model", "--algo", "adi2d-tiled", "--batch", 10, "--dims", "4096,4096",
                "--tiles", 8, "--precision", "fp32", "--report", tmp_path / "m.json"]
        assert run([*argv, "--cus", 2]) == 2
        assert "compute_units applies to batched-thomas, adi2d, adi3d, not adi2d-tiled" in \
            capsys.readouterr().err
        assert run([*argv, "--vector", 4]) == 0
        assert json.loads((tmp_path / "m.json").read_text())["design"]["vector_width"] == 4

    def test_lane_flag_help_names_its_readers(self, capsys):
        with pytest.raises(SystemExit):
            run(["model", "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        for flag, name, what, after in (
                ("--vector", "vector_width", "vector lanes", "--cus"),
                ("--cus", "compute_units", "compute units", "--freq-mhz")):
            readers = ", ".join(a.value for a in Algorithm if name in DESIGN_FIELDS[a])
            assert (f"{flag} {flag[2:].upper()} {what}; read by {readers} {after}"
                    in help_text), flag

    @pytest.mark.parametrize("command", ["model", "dse"])
    def test_every_design_flag_help_names_exactly_its_readers(self, capsys, monkeypatch,
                                                              command):
        monkeypatch.setenv("COLUMNS", "1000")  # no line breaks inside a design name
        with pytest.raises(SystemExit):
            run([command, "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        for flag, name in (("--tiles", "tiles"), ("--unroll", "unroll"),
                           ("--group", "interleave_group"), ("--vector", "vector_width"),
                           ("--cus", "compute_units")):
            text = re.search(rf" {flag} {flag[2:].upper()} ([^-]|-(?!-))*", help_text)[0]
            named = {a for a in Algorithm if re.search(rf"(?<![\w-]){a.value}(?![\w-])", text)}
            assert "; read by " in text and named == {a for a in Algorithm
                                                      if name in DESIGN_FIELDS[a]}, text

    def test_out_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run(["model", "--algo", "batched-thomas", "--batch", 10, "--size", 8,
                 "--out", tmp_path / "x"])
        assert err.value.code == 2

    def test_size_and_dims_is_usage_error(self, tmp_path, capsys):
        rep = tmp_path / "m.json"
        assert run(["model", "--algo", "adi2d", "--batch", 10, "--size", 128,
                    "--dims", "64,64", "--report", rep]) == 2
        assert "not both" in capsys.readouterr().err
        assert not rep.exists()

    def test_report_carries_every_field(self, tmp_path, capsys):
        rep = tmp_path / "m.json"
        assert run(["model", "--algo", "adi2d", "--batch", 3000, "--dims", "128,128",
                    "--iters", 120, "--unroll", 3, "--cus", 3, "--precision", "fp32",
                    "--freq-mhz", 292, "--report", rep]) == 0
        payload = json.loads(rep.read_text())
        assert {"design", "problem", "violations", "measured_reference"} <= set(payload)

    def test_iterations_of_a_batch_problem_are_usage_error(self, tmp_path, capsys):
        rep = tmp_path / "m.json"
        argv = ["model", "--algo", "batched-thomas", "--batch", 8000, "--size", 128,
                "--precision", "fp32", "--report", rep]
        assert run([*argv, "--iters", 5]) == 2
        assert "error: n_iter applies to mesh problems" in capsys.readouterr().err
        assert not rep.exists()
        assert run(argv) == 0
        assert "measured 0.4700 ms, err 1.7%" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["model", "dse"])
    @pytest.mark.parametrize("algo,where,message", [
        ("adi2d", ["--dims", "64,64,64"], "adi2d cannot take mesh dims (64, 64, 64)"),
        ("adi2d", ["--size", 64], "adi2d needs mesh dims"),
        ("adi3d", ["--dims", "64,64"], "adi3d cannot take mesh dims (64, 64)"),
        ("batched-pcr", ["--dims", "128,128"], "batched-pcr needs a system size n"),
    ])
    def test_design_of_another_kind_is_usage_error(self, tmp_path, capsys, command, algo,
                                                   where, message):
        rep = tmp_path / "r.json"
        assert run([command, "--algo", algo, "--batch", 1, *where, "--report", rep]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not rep.exists()

    def test_incomplete_device_profile_usage_error(self, tmp_path, capsys):
        path = tmp_path / "card.json"
        path.write_text(json.dumps({"hbm_ports": 16}))
        assert run(["model", "--algo", "batched-thomas", "--batch", 10,
                    "--size", 8, "--device", path]) == 2
        assert "missing keys" in capsys.readouterr().err

    def test_device_dir_is_not_searched(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "card.json").write_text(json.dumps({"bram_bytes": 1e6, "uram_bytes": 2e6,
                                                        "hbm_ports": 16}))
        monkeypatch.setenv("TRIDAX_DEVICE_DIR", str(tmp_path))
        assert run(["model", "--algo", "batched-thomas", "--batch", 10,
                    "--size", 8, "--device", "card"]) == 2
        assert capsys.readouterr().err == "error: unknown device profile 'card'\n"

    def test_nonnumeric_device_budget_usage_error(self, tmp_path, capsys):
        path = tmp_path / "card.json"
        path.write_text(json.dumps({"bram_bytes": "6.6e6", "uram_bytes": 1e6,
                                    "hbm_ports": 32}))
        assert run(["model", "--algo", "batched-thomas", "--batch", 10,
                    "--size", 8, "--device", path]) == 2
        assert capsys.readouterr().err == \
            "error: bram_bytes must be a finite positive number, not '6.6e6'\n"

    @pytest.mark.parametrize("name", [None, 5])
    def test_device_name_that_is_not_a_string_usage_error(self, tmp_path, capsys, name):
        path = tmp_path / "card.json"
        path.write_text(json.dumps({"name": name, "bram_bytes": 6.6e6, "uram_bytes": 1e6,
                                    "hbm_ports": 32}))
        assert run(["model", "--algo", "batched-thomas", "--batch", 10,
                    "--size", 8, "--device", path]) == 2
        assert capsys.readouterr().err == \
            f"error: name must be a string, not {name!r}\n"

    def test_device_without_name_is_named_for_its_file(self, tmp_path, capsys):
        path = tmp_path / "card.json"
        path.write_text(json.dumps({"bram_bytes": 6.6e6, "uram_bytes": 1e6, "hbm_ports": 32}))
        rep = tmp_path / "m.json"
        assert run(["model", "--algo", "batched-thomas", "--batch", 10,
                    "--size", 8, "--device", path, "--report", rep]) == 0
        assert json.loads(rep.read_text())["device"] == "card"

    @pytest.mark.parametrize("command", ["model", "dse"])
    @pytest.mark.parametrize("mhz", ["nan", "inf"])
    def test_nonfinite_frequency_is_usage_error(self, tmp_path, capsys, command, mhz):
        argv = [command, "--batch", 10, "--size", 128, "--freq-mhz", mhz]
        if command == "model":
            argv += ["--algo", "batched-thomas"]
        assert run(argv + ["--report", tmp_path / "r.json"]) == 2
        assert capsys.readouterr().err == \
            f"error: frequency_hz must be finite and positive, not {mhz}\n"


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

    def test_short_axis_tilings_rank_nothing(self, tmp_path):
        # 8 or 16 tiles leave tiles of 2 or 1 rows on the 16-point y lines
        rep = tmp_path / "d.json"
        assert run(["dse", "--batch", 10, "--dims", "64,16", "--report", rep]) == 0
        rows = json.loads(rep.read_text())["rows"]
        assert sorted(r["tiles"] for r in rows if r["algorithm"] == "adi2d-tiled") == [2, 4]

    def test_no_feasible_design_report(self, tmp_path):
        rep = tmp_path / "d.json"
        code = run(["dse", "--batch", 10, "--size", 8192, "--precision", "fp32",
                    "--algo", "batched-thomas", "--report", rep])
        assert code == 3
        payload = json.loads(rep.read_text())
        assert (payload["schema_version"], payload["command"], payload["error"]) == (
            "tridax.report.v1", "dse", "no-feasible-design")

    def test_tiling_the_solver_rejects_ranks_nothing(self, tmp_path, capsys):
        rep = tmp_path / "d.json"
        assert run(["dse", "--batch", 10, "--algo", "thomas-thomas", "--size", 10,
                    "--tiles", 4, "--report", rep]) == 3
        out, err = capsys.readouterr()
        assert "#1" not in out
        assert ("were skipped; the first: n=10 over t=4 tiles leaves a tile of 1 rows"
                in err and "u280" not in err)
        payload = json.loads(rep.read_text())
        assert payload["error"] == "no-feasible-design"
        assert payload["detail"] in err

    def test_tiles_with_untiled_algo_is_usage_error(self, tmp_path, capsys):
        rep = tmp_path / "d.json"
        assert run(["dse", "--batch", 10, "--size", 64, "--algo", "batched-thomas",
                    "--tiles", 4, "--report", rep]) == 2
        assert "not batched-thomas" in capsys.readouterr().err
        assert not rep.exists()

    @pytest.mark.parametrize("where,flag,message", [
        (["--size", 64, "--algo", "batched-thomas"], ["--unroll", "1,2"],
         "unroll applies to batched-pcr, adi2d, not batched-thomas"),
        (["--size", 64, "--algo", "batched-pcr"], ["--group", 16],
         "not batched-pcr"),
        (["--dims", "16,16,16"], ["--unroll", 2], "not adi3d"),
        (["--dims", "16,16,16"], ["--tiles", 2], "tiles applies to thomas-thomas, "
         "thomas-pcr, adi2d-tiled, not adi3d"),
        (["--size", 1024, "--algo", "thomas-pcr"], ["--vector", 4], "vector_width applies "
         "to batched-thomas, adi2d, adi3d, adi2d-tiled, not thomas-pcr"),
        (["--size", 1024, "--algo", "thomas-pcr"], ["--cus", 2], "compute_units applies "
         "to batched-thomas, adi2d, adi3d, not thomas-pcr"),
    ])
    def test_list_no_design_reads_is_usage_error(self, tmp_path, capsys, where, flag,
                                                 message):
        rep = tmp_path / "d.json"
        assert run(["dse", "--batch", 10, *where, *flag, "--report", rep]) == 2
        assert message in capsys.readouterr().err
        assert not rep.exists()

    def test_list_one_design_reads_crosses_only_that_design(self, tmp_path, capsys):
        rep = tmp_path / "d.json"
        assert run(["dse", "--batch", 1000, "--size", 128, "--unroll", "1,2,4",
                    "--precision", "fp32", "--report", rep]) == 0
        rows = json.loads(rep.read_text())["rows"]
        assert len(rows) == 12
        assert sorted(r["unroll"] for r in rows if r["algorithm"] == "batched-pcr") == \
            [1, 2, 4]
        assert {r["unroll"] for r in rows if r["algorithm"] != "batched-pcr"} == {None}
        printed = [line.split()[3] for line in capsys.readouterr().out.splitlines()]
        assert printed == [f"unroll={r['unroll'] or '-'}" for r in rows[:10]]
        assert {"unroll=-", "unroll=4"} <= set(printed)  # an unread unroll prints as -

    def test_every_design_flag_takes_a_comma_list(self, tmp_path):
        rep = tmp_path / "d.json"
        assert run(["dse", "--batch", 1000, "--size", 128, "--algo", "batched-thomas",
                    "--group", "16,32", "--vector", "4,8", "--cus", "1,2",
                    "--precision", "fp32", "--report", rep]) == 0
        rows = json.loads(rep.read_text())["rows"]
        assert sorted((r["interleave_group"], r["vector_width"], r["compute_units"])
                      for r in rows) == [(g, v, cu) for g in (16, 32) for v in (4, 8)
                                         for cu in (1, 2)]

    def test_lane_flag_crosses_only_the_designs_that_read_it(self, tmp_path, capsys):
        rep = tmp_path / "d.json"
        assert run(["dse", "--batch", 1000, "--size", 128, "--vector", 4, "--cus", 2,
                    "--precision", "fp32", "--report", rep]) == 0
        rows = json.loads(rep.read_text())["rows"]
        assert {(r["algorithm"], r["vector_width"], r["compute_units"]) for r in rows} == {
            ("batched-thomas", 4, 2), ("batched-pcr", None, None),
            ("thomas-thomas", None, None), ("thomas-pcr", None, None)}

    def test_long_systems_fit_once_idle_lanes_are_not_charged(self, tmp_path, capsys):
        # fits since the 8 default lanes its latency ignores are not charged (75.6 MB)
        rep = tmp_path / "d.json"
        assert run(["dse", "--batch", 100, "--size", 65536, "--precision", "fp32",
                    "--report", rep]) == 0
        first = capsys.readouterr().out.splitlines()[0]
        assert first.split() == ["#1", "thomas-pcr", "tiles=16", "unroll=-", "22.7202", "ms",
                                 "9.44", "MB", "on-chip"]
        row = json.loads(rep.read_text())["rows"][0]
        assert (row["algorithm"], row["tiles"], row["vector_width"]) == ("thomas-pcr", 16, None)

    def test_one_row_systems_rank_no_free_design(self, tmp_path, capsys):
        # batched-pcr still makes its normalization pass: (1000*1 + 30) * 1 cycles
        rep = tmp_path / "d.json"
        assert run(["dse", "--batch", 1000, "--size", 1, "--report", rep]) == 0
        rows = json.loads(rep.read_text())["rows"]
        assert rows[0]["algorithm"] == "batched-thomas"
        assert min(r["cycles"] for r in rows) > 0
        assert [r["cycles"] for r in rows if r["algorithm"] == "batched-pcr"] == [1030]

    def test_size_and_dims_is_usage_error(self, tmp_path, capsys):
        assert run(["dse", "--batch", 10, "--size", 128, "--dims", "64,64",
                    "--report", tmp_path / "d.json"]) == 2
        assert "not both" in capsys.readouterr().err

    def test_iterations_of_a_batch_problem_are_usage_error(self, tmp_path, capsys):
        rep = tmp_path / "d.json"
        assert run(["dse", "--batch", 100, "--size", 128, "--iters", 7,
                    "--report", rep]) == 2
        assert "error: n_iter applies to mesh problems" in capsys.readouterr().err
        assert not rep.exists()

    def test_table_goes_to_stdout_without_report(self, capsys):
        assert run(["dse", "--batch", 10, "--size", 64, "--top", 2]) == 0
        out = capsys.readouterr().out
        lines, table = out[:out.index("{")], json.loads(out[out.index("{"):])
        assert [line.split()[0] for line in lines.splitlines()] == ["#1", "#2"]
        assert table["schema_version"] == "tridax.dse.v1" and len(table["rows"]) == 10

    def test_negative_top_is_usage_error(self, tmp_path, capsys):
        rep = tmp_path / "d.json"
        argv = ["dse", "--batch", 10, "--size", 64, "--report", rep]
        assert run([*argv, "--top", -1]) == 2
        assert capsys.readouterr().err == "error: --top must be >= 0, not -1\n"
        assert not rep.exists()
        assert run([*argv, "--top", 0]) == 0  # ranks and reports, prints no row
        assert "#" not in capsys.readouterr().out
        assert len(json.loads(rep.read_text())["rows"]) == 10

    def test_out_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run(["dse", "--batch", 10, "--size", 64, "--out", tmp_path / "x"])
        assert err.value.code == 2

    def test_calibration_problem_ranks_thomas_first(self, tmp_path):
        rep = tmp_path / "d.json"
        assert run(["dse", "--batch", 8000, "--size", 128, "--precision", "fp32",
                    "--report", rep]) == 0
        payload = json.loads(rep.read_text())
        assert payload["schema_version"] == "tridax.dse.v1"
        assert payload["rows"][0]["algorithm"] == "batched-thomas"


class _FullDisk:
    """A file whose writes after the first fail as on a full disk."""

    def __init__(self, path, mode):
        self.fh = open(path, mode)
        self.writes = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.writes += 1
        if self.writes > 1:
            raise OSError(errno.ENOSPC, "No space left on device")
        return self.fh.write(data)


def _refuse(path, mode):
    raise PermissionError(errno.EACCES, "Permission denied", str(path))


WRITING_COMMANDS = {
    "solve": ["solve", "--batch", 3, "--size", 16],
    "adi": ["adi", "--dims", "8,8", "--gamma", "0.5", "--iters", 2],
}


@pytest.mark.parametrize("argv", [
    WRITING_COMMANDS["solve"], WRITING_COMMANDS["adi"],
    ["model", "--algo", "batched-thomas", "--batch", 10, "--size", 8],
    ["dse", "--batch", 10, "--size", 8]], ids=["solve", "adi", "model", "dse"])
def test_format_is_usage_error(tmp_path, monkeypatch, argv):
    # every report is JSON; there is no format to choose
    monkeypatch.chdir(tmp_path)  # where solve writes solutions.bin by default
    with pytest.raises(SystemExit) as err:
        run([*argv, "--format", "json", "--report", "r.json"])
    assert err.value.code == 2
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv,message", [
    (["adi", "--dims", "0,4", "--gamma", 0.5], "mesh extents must be positive"),
    (["adi", "--dims", "4", "--gamma", 0.5], "dims must be (x, y) or (x, y, z)"),
    (["adi", "--dims=4,-1", "--gamma", 0.5], "mesh extents must be positive"),
    (["model", "--algo", "adi2d", "--batch", 10, "--dims", "1,2,3,4"],
     "mesh dims must be 2 or 3 positive extents, not (1, 2, 3, 4)"),
    (["model", "--algo", "adi2d", "--batch", 10, "--dims", "0,4"],
     "mesh dims must be 2 or 3 positive extents, not (0, 4)")],
    ids=["adi-zero", "adi-one-axis", "adi-negative", "model-four-axes", "model-zero"])
def test_bad_dims_are_the_librarys_usage_error(tmp_path, capsys, argv, message):
    # --dims parses integers only; Mesh and ProblemSpec check the extents,
    # Mesh.zeros before numpy's own negative-dimension error
    assert run([*argv, "--report", tmp_path / "r.json"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["model", "dse"])
def test_one_iteration_of_a_batch_problem_is_usage_error(tmp_path, capsys, command):
    # n_iter starts unset, so even a mesh problem's default is a value a batch rejects
    rep = tmp_path / "r.json"
    assert run([command, "--algo", "batched-thomas", "--batch", 100, "--size", 128,
                "--iters", 1, "--report", rep]) == 2
    assert "error: n_iter applies to mesh problems" in capsys.readouterr().err
    assert not rep.exists()


@pytest.mark.parametrize("command", sorted(WRITING_COMMANDS))
class TestNoPartialOutputs:
    def test_failed_write_leaves_no_file(self, tmp_path, monkeypatch, command):
        out = tmp_path / "out.bin"
        monkeypatch.setattr(mesh, "open", _FullDisk, raising=False)
        assert run(WRITING_COMMANDS[command] + ["--out", out,
                                                "--report", tmp_path / "r.json"]) == 1
        assert not out.exists()

    def test_failure_before_opening_keeps_existing_file(self, tmp_path, monkeypatch,
                                                        command):
        out = tmp_path / "out.bin"
        out.write_bytes(b"earlier result")
        monkeypatch.setattr(mesh, "open", _refuse, raising=False)
        assert run(WRITING_COMMANDS[command] + ["--out", out,
                                                "--report", tmp_path / "r.json"]) == 1
        assert out.read_bytes() == b"earlier result"


class TestSelftest:
    def test_selftest_passes(self, capsys):
        assert run(["selftest"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "PASS: diagonal system",
            "PASS: elimination within Varah's error bound",
            "PASS: cyclic reduction within Varah's error bound",
            "PASS: tiled hybrid within Varah's error bound",
            "PASS: latency model calibration point",
            "PASS: model within 15% of batched-thomas B=8000 N=128 fp32",
            "PASS: model within 15% of adi2d 128x128 fp32 B=3000 iters=120",
            "PASS: ADI driver vs plain-loop reference",
        ]

    @pytest.mark.parametrize("option", ["--out", "--report", "--format", "--precision"])
    def test_options_are_usage_errors(self, tmp_path, option):
        value = {"--format": "json", "--precision": "fp64"}.get(option, tmp_path / "x")
        with pytest.raises(SystemExit) as err:
            run(["selftest", option, value])
        assert err.value.code == 2
