"""Host facts for the report stamp, the reference loop that operation times
are divided by, and the in-process copy-bandwidth probe."""

from __future__ import annotations

import math
import os
import platform
import resource
import statistics
import subprocess
from pathlib import Path
from time import perf_counter

import numpy as np

MIB = 1 << 20


def llc_bytes() -> int | None:
    """Size of one last-level cache, or None when the host does not say."""
    size = os.sysconf("SC_LEVEL3_CACHE_SIZE") if "SC_LEVEL3_CACHE_SIZE" in os.sysconf_names else 0
    if size > 0:
        return size
    try:
        text = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        return None
    scale = {"K": 1 << 10, "M": MIB, "G": 1 << 30}.get(text[-1:], 1)
    return int(text.rstrip("KMG")) * scale


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git(root: Path, *args) -> str | None:
    # Only a .git inside the checkout is consulted; git never searches parents.
    if not (root / ".git").exists():
        return None
    try:
        res = subprocess.run(["git", f"--git-dir={root / '.git'}", f"--work-tree={root}", *args],
                             capture_output=True, text=True, timeout=60, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return res.stdout.strip()


def stamp(root: Path, seed: int, schema: str) -> dict:
    rev = _git(root, "rev-parse", "HEAD")
    status = _git(root, "status", "--porcelain", "--untracked-files=no")
    return {
        "schema": schema,
        "git_rev": rev or "unknown",
        "git_dirty": None if status is None else bool(status),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "llc_bytes": llc_bytes(),
        "seed": seed,
    }


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


_REF_A = np.linspace(1.0, 2.0, 128)
_REF_B = np.linspace(2.0, 3.0, 128)


def reference_s(iters: int = 4000, reps: int = 3) -> float:
    """Fastest of ``reps`` timings of a fixed loop of small numpy operations.

    The loop has the character of the solvers' inner loops (interpreter
    overhead around small array operations) and touches no ``tridax`` code,
    so the ratio of an operation's time to it tracks the program, not the
    host's current speed.
    """
    best = math.inf
    for _ in range(reps):
        acc = 0.0
        t0 = perf_counter()
        for i in range(iters):
            x = _REF_A * _REF_B - _REF_A
            acc += float(x[i & 127])
        best = min(best, perf_counter() - t0)
    return best


def copy_probe(array_bytes: int, reps: int = 5) -> dict:
    """Median bandwidth of ``np.copyto`` between two ``array_bytes`` arrays.

    The destination is written once before timing, so first-touch page
    faults are not measured. Bandwidth counts bytes read plus bytes written.
    """
    src = np.ones(array_bytes // 8)
    dst = np.empty_like(src)
    np.copyto(dst, src)
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        np.copyto(dst, src)
        times.append(perf_counter() - t0)
    seconds = statistics.median(times)
    return {"copy_gb_per_s": 2 * src.nbytes / seconds / 1e9,
            "array_bytes": src.nbytes, "reps": reps}
