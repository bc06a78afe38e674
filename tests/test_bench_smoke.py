"""The benchmark harness runs every workload at tiny size and reports the
metric names and units that ``BENCHMARK.json`` declares. Timings are not
checked."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_smoke_run():
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-4000:]
    assert "smoke: ok" in proc.stdout
