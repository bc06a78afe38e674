"""The benchmark harness runs every workload at tiny size and reports the
metric names and units that ``BENCHMARK.json`` declares, and its traced
spans still find the names they wrap. Timings are not checked."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TILED_STEP_SPANS = ["tiled.modified_thomas_phase", "tiled.assemble_reduced",
                    "tiled.back_substitute"]


def test_benchmark_smoke_run():
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-4000:]
    assert "smoke: ok" in proc.stdout


def test_tiled_step_spans_resolve(monkeypatch):
    # a renamed step would blank the batch-tiled-fp64 split without an error
    monkeypatch.syspath_prepend(str(ROOT / "benchmarks"))
    import tracing

    with tracing.installed(tracing.Tracer()) as absent:
        assert [span for span in TILED_STEP_SPANS if span in absent] == []
