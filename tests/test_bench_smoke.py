"""The benchmark harness runs every workload at tiny size and reports the
metric names and units that ``BENCHMARK.json`` declares, its traced spans
still find the names they wrap, its calibration problem still finds its
published measurement, and its workloads' model cycle counts and design
descriptions hold. Timings are not checked."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# spans of functions the library no longer has; every other span, the tiled
# steps and perfmodel.latency_for_problem among them, must find its name
ABSENT_SPANS = ["core.thomas_solve", "tiled.thomas_pcr_solve", "core.pcr_solve",
                "adi.adi_rhs", "mesh.solve_lines.x", "mesh.solve_lines.y",
                "mesh.solve_lines.z"]


def test_benchmark_smoke_run():
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-4000:]
    assert "smoke: ok" in proc.stdout


def test_smoke_report_pairs_calibration_with_measurement(monkeypatch):
    # the benchmark's only published point: a stricter match must not drop it
    monkeypatch.syspath_prepend(str(ROOT / "benchmarks"))
    import run

    _, report = run.run_workload("batch-thomas-fp32", 1, 0.05, False, ROOT, ROOT / "src",
                                 smoke=True)
    assert report["model"]["calibration"]["fpga_measured_s"] == 0.47e-3
    assert report["model"]["calibration"]["fpga_reference"] == \
        "batched-thomas B=8000 N=128 fp32"


def test_bench_design_cycles_are_pinned(monkeypatch):
    # a model change would silently move every run's host_over_model ratio
    monkeypatch.syspath_prepend(str(ROOT / "benchmarks"))
    import workloads
    from tridax.perfmodel import latency_for_problem

    cycles = {}
    for name in workloads.NAMES:
        wl = workloads.make(name)
        cycles[name] = latency_for_problem(wl.design, **wl.problem).cycles
    assert cycles == {"batch-thomas-fp32": 20480, "batch-tiled-fp64": 278712,
                      "adi2d-fp32": 472480, "adi3d-fp64": 297600}


def test_bench_design_descriptions_are_pinned(monkeypatch):
    # each report line's model.design; the group is named since describe()
    # reads the resolved design
    monkeypatch.syspath_prepend(str(ROOT / "benchmarks"))
    import workloads

    shared = {"frequency_hz": 300e6}
    lanes = {"vector_width": 8, "compute_units": 1}
    assert {name: workloads.make(name).design.describe() for name in workloads.NAMES} == {
        "batch-thomas-fp32": {"algorithm": "batched-thomas", "precision": "fp32",
                              "interleave_group": 32, **lanes, **shared},
        "batch-tiled-fp64": {"algorithm": "thomas-pcr", "precision": "fp64",
                             "interleave_group": 64, "tiles": 8, "pipeline_latency": 30,
                             **shared},
        "adi2d-fp32": {"algorithm": "adi2d", "precision": "fp32", "interleave_group": 32,
                       "unroll": 1, **lanes, **shared},
        "adi3d-fp64": {"algorithm": "adi3d", "precision": "fp64", "interleave_group": 64,
                       **lanes, **shared},
    }


def test_tiled_step_spans_resolve(monkeypatch):
    # a renamed function would blank its span's per-layer metrics without an error
    monkeypatch.syspath_prepend(str(ROOT / "benchmarks"))
    import tracing

    with tracing.installed(tracing.Tracer()) as absent:
        assert absent == ABSENT_SPANS
