import hashlib
import json
from dataclasses import fields

import pytest

from tridax import NoFeasibleDesign, Precision
from tridax.cli import main
from tridax.perfmodel import (DSE_COLUMNS, U280, Algorithm, DesignPoint, GridSpec,
                              ProblemSpec, dse_enumerate, rows_to_json)
from tridax.perfmodel.design import DESIGN_FIELDS, SHARED_FIELDS


def batch_problem(size, batch=8000, precision=Precision.FP32):
    return ProblemSpec(batch=batch, size=size, precision=precision)


class TestEnumeration:
    def test_thomas_beats_pcr_at_small_systems(self):
        grid = GridSpec(algorithms=[Algorithm.BATCHED_THOMAS, Algorithm.BATCHED_PCR],
                        unrolls=[1, 2, 3])
        rows = dse_enumerate(batch_problem(128), U280, grid)
        assert rows[0].design.algorithm is Algorithm.BATCHED_THOMAS
        pcr_rows = [r for r in rows if r.design.algorithm is Algorithm.BATCHED_PCR]
        assert pcr_rows, "PCR designs should be feasible, only slower"
        assert all(r.latency.seconds > rows[0].latency.seconds for r in pcr_rows)

    def test_large_systems_leave_only_tiled_designs(self):
        grid = GridSpec(algorithms=[Algorithm.BATCHED_THOMAS, Algorithm.THOMAS_THOMAS,
                                    Algorithm.THOMAS_PCR],
                        tiles=[2, 4, 8, 16])
        rows = dse_enumerate(batch_problem(8192), U280, grid)
        assert all(r.design.algorithm.is_tiled for r in rows)
        assert rows[0].design.algorithm.is_tiled
        by_tiles = {}
        for r in rows:
            by_tiles.setdefault(r.design.tiles, {})[r.design.algorithm] = r.latency.cycles
        for t, algos in by_tiles.items():
            if len(algos) == 2:
                assert algos[Algorithm.THOMAS_PCR] <= algos[Algorithm.THOMAS_THOMAS]

    def test_infeasible_grid_raises(self):
        grid = GridSpec(algorithms=[Algorithm.BATCHED_THOMAS])
        with pytest.raises(NoFeasibleDesign):
            dse_enumerate(batch_problem(8192), U280, grid)

    @pytest.mark.parametrize("name", ["algorithms", "unrolls", "groups", "tiles",
                                      "compute_units"])
    def test_empty_grid_list_raises(self, name):
        grid = GridSpec(**{name: []})
        with pytest.raises(ValueError, match=f"^grid list {name} is empty$"):
            dse_enumerate(batch_problem(64, batch=10), U280, grid)

    @pytest.mark.parametrize("algos, grid_args, message", [
        ([Algorithm.THOMAS_PCR], dict(vector_widths=[4]), "vector_width applies to "
         "batched-thomas, adi2d, adi3d, adi2d-tiled, not thomas-pcr"),
        ([Algorithm.BATCHED_THOMAS, Algorithm.THOMAS_THOMAS], dict(unrolls=[1]),
         "unroll applies to batched-pcr, adi2d, not batched-thomas/thomas-thomas"),
        # before the kind check, as tridax dse --algo adi2d --size 64 --tiles 2
        ([Algorithm.ADI2D], dict(tiles=[2]), "tiles applies to thomas-thomas, thomas-pcr, "
         "adi2d-tiled, not adi2d"),
    ])
    def test_list_no_grid_algorithm_reads_raises(self, algos, grid_args, message):
        # such a list once ranked the same rows as no list at all
        grid = GridSpec(algorithms=algos, **grid_args)
        with pytest.raises(ValueError, match=f"^{message}$"):
            dse_enumerate(batch_problem(1024, batch=100), U280, grid)

    def test_unset_lists_enumerate_the_unset_tiles(self):
        rows = dse_enumerate(batch_problem(1024, batch=100), U280,
                             GridSpec(algorithms=[Algorithm.THOMAS_PCR]))
        assert sorted(r.design.tiles for r in rows) == [2, 4, 8, 16]
        assert {r.design.vector_width for r in rows} == {None}

    def test_invalid_tilings_are_skipped_not_fatal(self):
        grid = GridSpec(algorithms=[Algorithm.THOMAS_THOMAS], tiles=[2, 64])
        rows = dse_enumerate(batch_problem(8, batch=10), U280, grid)
        assert {r.design.tiles for r in rows} == {2}

    def test_algorithm_of_another_kind_raises_before_enumerating(self):
        grid = GridSpec(algorithms=[Algorithm.BATCHED_THOMAS, Algorithm.ADI2D])
        with pytest.raises(ValueError, match="^adi2d needs mesh dims$"):
            dse_enumerate(batch_problem(64, batch=10), U280, grid)

    def test_ranked_by_seconds_then_deterministic(self):
        grid = GridSpec(algorithms=[Algorithm.BATCHED_THOMAS, Algorithm.BATCHED_PCR,
                                    Algorithm.THOMAS_THOMAS, Algorithm.THOMAS_PCR])
        rows = dse_enumerate(batch_problem(128), U280, grid)
        seconds = [r.latency.seconds for r in rows]
        assert seconds == sorted(seconds)
        assert [r.rank for r in rows] == list(range(1, len(rows) + 1))
        again = dse_enumerate(batch_problem(128), U280, grid)
        assert [r.design for r in again] == [r.design for r in rows]

    def test_mesh_problem_kinds(self):
        problem = ProblemSpec(batch=3000, dims=(128, 128),
                              precision=Precision.FP32, n_iter=120)
        rows = dse_enumerate(problem, U280, GridSpec.for_kind("adi2d"))
        assert rows[0].design.algorithm is Algorithm.ADI2D

    def test_problem_validation(self):
        with pytest.raises(ValueError):
            ProblemSpec(batch=100)
        with pytest.raises(ValueError):
            ProblemSpec(batch=100, dims=(8,))
        with pytest.raises(ValueError):
            ProblemSpec(batch=100, dims=(8, 8, 8, 8))
        with pytest.raises(ValueError, match="not both"):
            ProblemSpec(batch=100, size=8, dims=(8, 8))


class TestReports:
    def test_json_schema(self):
        grid = GridSpec(algorithms=[Algorithm.BATCHED_THOMAS])
        rows = dse_enumerate(batch_problem(128), U280, grid)
        payload = json.loads(rows_to_json(rows))
        assert payload["schema_version"] == "tridax.dse.v1"
        assert payload["rows"][0]["rank"] == 1
        assert payload["rows"][0]["algorithm"] == "batched-thomas"
        assert list(payload["rows"][0]) == sorted(DSE_COLUMNS)

    def test_removed_columns_stay_gone(self):
        # frozen columns that never changed a result: feasible, since only
        # fitting rows are ranked; tiles_x and tiles_y, which repeated tiles;
        # reduced_group, a rule of the precision; partitions, always 1
        removed = {"feasible", "reduced_group", "tiles_x", "tiles_y", "partitions"}
        assert len(DSE_COLUMNS) == 18 and not removed & set(DSE_COLUMNS)
        for case in DSE_CASES:
            for row in json.loads(rows_to_json(case_rows(case)))["rows"]:
                assert not removed & set(row), (case, row)

    def test_design_columns_are_the_designs_description(self):
        # a design column the row's design does not read is null
        for case in DSE_CASES:
            for row in case_rows(case):
                rec, described = row.record(), row.design.describe()
                for col in ("algorithm", "precision", "interleave_group", "vector_width",
                            "unroll", "tiles", "compute_units", "frequency_hz"):
                    assert rec[col] == described.get(col), (case, col, rec)


# Model-layer outputs, recorded before ProblemSpec lost its kind field: the
# ranked JSON tables of a fixed set of problems and grids, and the
# `tridax model` JSON reports of a fixed set of designs. The batch-128-fp32,
# batch-1000-fp64 and adi2d-128 tables were re-pinned when dse stopped
# crossing designs with grid lists their models do not read: each equals
# the earlier table without those rows, ranks renumbered. The model reports
# were re-pinned when a report's design block came to list only the fields
# its model reads: each equals the earlier block without the unread fields.
# The batch-8192-fp32 and adi2d-4096 tables were re-pinned when dse stopped
# offering unranked infeasible rows: each equals the earlier table without its
# 3 (or 2) unranked rows. The adi2d-tiled report was re-pinned when that
# design stopped reading pipeline_latency: it lost only that line. The
# thomas-thomas, adi2d-tiled and adi3d reports were re-pinned when
# DesignPoint lost the fields resolved from others: each lost only those
# lines of its design block (reduced_group; tiles_x and tiles_y;
# points_per_cycle). The adi2d-reference case was moved to the
# published 292 MHz, where the report still pairs it with its measurement,
# since a measured reference now matches only its own design. The
# batch-1000-fp64 table was re-pinned when the batched-spike design was
# dropped: its table equals the earlier one without its 3
# batched-spike rows, ranks renumbered. The 7 tables and the pcr-fp64,
# thomas-thomas, thomas-pcr and adi2d-tiled reports were re-pinned when a
# design came to read vector_width and compute_units only where its latency
# divides work by them: each earlier table lost its 5 frozen columns
# (feasible, reduced_group, tiles_x, tiles_y, partitions), nulled the design
# columns its row's design does not read, divided on_chip_bytes by the unread
# lanes, collapsed the rows that differed only in an unread lane value, gained
# the rows that now fit (batch-8192-fp32's two t=2 rows), and renumbered its
# ranks; each report lost those lines of its design block and divided its
# on_chip_bytes likewise. The thomas-pcr case lost its --cus 2, which that
# design no longer reads. Every cycle count stayed the same. The 4 batch
# tables and the calibration, pcr-fp64, thomas-thomas and thomas-pcr reports
# were re-pinned when a batch problem's n_iter came to start unset: each
# earlier output differs only in its "n_iter" lines, 1 become null.
DSE_CASES = {
    "batch-128-fp32": (dict(batch=8000, size=128), dict(unrolls=[1, 2, 3])),
    "batch-8192-fp32": (dict(batch=100, size=8192), {}),
    "batch-1000-fp64": (dict(batch=1000, size=1000, precision=Precision.FP64),
                        dict(algorithms=[Algorithm.BATCHED_THOMAS, Algorithm.BATCHED_PCR,
                                         Algorithm.THOMAS_THOMAS, Algorithm.THOMAS_PCR],
                             groups=[None, 16], vector_widths=[4, 8])),
    "batch-9-tiles": (dict(batch=10, size=9), dict(tiles=[2, 3, 4])),
    "adi2d-128": (dict(batch=3000, dims=(128, 128), n_iter=120),
                  dict(unrolls=[1, 2, 3], compute_units=[1, 3])),
    "adi2d-4096": (dict(batch=100, dims=(4096, 4096)), {}),
    "adi3d-64-fp64": (dict(batch=1, dims=(64, 64, 64), precision=Precision.FP64,
                           n_iter=10),
                      dict(compute_units=[1, 2], vector_widths=[4, 8])),
}
MODEL_CASES = {
    "calibration": ["--algo", "batched-thomas", "--batch", 8000, "--size", 128,
                    "--group", 32, "--precision", "fp32"],
    "pcr-fp64": ["--algo", "batched-pcr", "--batch", 100, "--size", 1024, "--unroll", 4],
    "thomas-thomas": ["--algo", "thomas-thomas", "--batch", 100, "--size", 8192,
                      "--tiles", 8, "--precision", "fp32"],
    "thomas-pcr": ["--algo", "thomas-pcr", "--batch", 100, "--size", 1024, "--tiles", 4,
                   "--freq-mhz", 250],
    "adi2d-reference": ["--algo", "adi2d", "--batch", 3000, "--dims", "128,128",
                        "--iters", 120, "--unroll", 3, "--cus", 3, "--precision", "fp32",
                        "--freq-mhz", 292],
    "adi2d-tiled": ["--algo", "adi2d-tiled", "--batch", 10, "--dims", "4096,4096",
                    "--tiles", 8, "--precision", "fp32"],
    "adi3d": ["--algo", "adi3d", "--batch", 2, "--dims", "64,64,64", "--iters", 10],
}
GOLDEN = {
    "json-adi2d-128":
        "1097510cc2680ae8bf7b0dba955e330647e4040972a5bf3d92960a512ec228e4",
    "json-adi2d-4096":
        "b2d2884a7233883cc8efd44342937c0787404f6d79d75af717737224bdd00b0e",
    "json-adi3d-64-fp64":
        "b61cc768819f5d1481c1642b9ae8bbf483d8b6c54025363a0dcc9489825eda72",
    "json-batch-1000-fp64":
        "bcdb143cad5f4c9f9bb6f5e203484da40f0d4fe031adf848d5472986880beafe",
    "json-batch-128-fp32":
        "12835780ce8b8d5c4784b4b6c67586617ecfa26a3948c8f915e6a02705b6bce9",
    "json-batch-8192-fp32":
        "a96f7189465ae9bd98ba728271c5161cc94d718c2fc597b2fffcb6e3446cbadc",
    "json-batch-9-tiles":
        "73ada6f47bb78b15f17e7cf52cad75158ba56e2ce62f665bb348fc984016083d",
    "model-adi2d-reference":
        "ea50369d2e559c01adc6e405c01c562eb3473a0faf553ea6f2891eb182efbad9",
    "model-adi2d-tiled":
        "80d4bb8a4ebfb6c423bcb0f61133d49f7acea5837d0fe92cafc711b7d5262d9a",
    "model-adi3d":
        "ed65697ec7deb1d25dbbfb24d49775cf3db04f5499aa19d977191f27cb8bdbe7",
    "model-calibration":
        "dd94fb64e95df8388ef295727343f2824c0e922dfd44bb7f7727db2fd0911c2e",
    "model-pcr-fp64":
        "80515eca78676c2e1e7d46a2a424f0a1c29a6d949bbfe7f62b235027afa4792a",
    "model-thomas-pcr":
        "f8b19126c5904da2fde2bbb84a77d9aaf8671a050ff86719e378525d2f6a29f9",
    "model-thomas-thomas":
        "41f413f37e6710dacaea243706f90040527f6e08fba394e573d82ebc2fa5d36a",
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def case_rows(case):
    """The ranked table of one of the ``DSE_CASES``."""
    problem_args, grid_args = DSE_CASES[case]
    problem = ProblemSpec(**{"precision": Precision.FP32, **problem_args})
    grid = GridSpec.for_kind(problem.kind)
    for name, values in grid_args.items():
        setattr(grid, name, values)
    return dse_enumerate(problem, U280, grid)


class TestGoldenDigests:
    @pytest.mark.parametrize("case", sorted(DSE_CASES))
    def test_ranked_tables(self, case):
        rows = case_rows(case)
        assert sha256(rows_to_json(rows)) == GOLDEN[f"json-{case}"]

    @pytest.mark.parametrize("case", sorted(MODEL_CASES))
    def test_model_reports(self, case, tmp_path, capsys):
        rep = tmp_path / "m.json"
        assert main(["model", *map(str, MODEL_CASES[case]), "--report", str(rep)]) == 0
        assert sha256(rep.read_text()) == GOLDEN[f"model-{case}"]


class TestGridFields:
    @pytest.mark.parametrize("case", [*sorted(DSE_CASES), "unroll-1-2-4"])
    def test_no_row_sets_a_field_its_model_does_not_read(self, case):
        if case in DSE_CASES:
            rows = case_rows(case)
        else:  # tridax dse --batch 1000 --size 128 --unroll 1,2,4 --precision fp32
            rows = dse_enumerate(batch_problem(128, batch=1000), U280,
                                 GridSpec(unrolls=[1, 2, 4]))
            assert len(rows) == 12
        for row in rows:
            reads = SHARED_FIELDS + DESIGN_FIELDS[row.design.algorithm]
            assert [f.name for f in fields(DesignPoint)[1:] if f.name not in reads
                    and getattr(row.design, f.name) is not None] == [], row.record()
