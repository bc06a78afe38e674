"""Batched multi-dimensional tridiagonal solvers with ADI application
drivers and an analytic accelerator performance model.

There is one solve entry point per input form: :func:`solve_system` for
one system, :func:`batch_solve` for a batch, :func:`solve_lines` for the
lines along one axis of a mesh batch, which share one coefficient profile,
and :func:`adi_run` for the ADI application. The first three make one
kernel call per solve, ``kernel(a, b, c, d)`` on ``(n, lines)`` arrays,
for every algorithm; ``adi_run`` factors each axis once per run, then
substitutes every sweep, and returns its report as the plain
``tridax.report.v1`` dict. The top level exports the containers, these four
entry points, mesh file I/O, the ADI configuration, the tiling plan, the
precisions and the error classes; the steps inside a solver stay in its module.

The package splits into:

- :mod:`tridax.core` — scalar/batched direct solvers (elimination and
  cyclic reduction), each one kernel over ``(n, lines)`` arrays, plus a
  certified O(n) error bound;
- :mod:`tridax.tiled` — tiled hybrid solvers for systems larger than one
  sweep's working set, a kernel over the same ``(n, lines)`` arrays that
  eliminates every tile of every line as one more line;
- :mod:`tridax.mesh` — batched 2-D/3-D mesh container, whole-axis line
  sweeps on lines gathered into a contiguous ``(n, lines)`` array, binary
  mesh format;
- :mod:`tridax.adi` — ADI heat-diffusion drivers with traffic accounting,
  running on one workspace per run;
- :mod:`tridax.perfmodel` — latency/memory models per design point and a
  design-space enumerator;
- :mod:`tridax.cli` — the ``tridax`` command."""

from .core import (TridiagonalBatch, TridiagonalSystem, batch_solve, error_bound,
                   random_dominant_batch, random_dominant_system, relative_inf_error,
                   residual_max_norm, solve_system)
from .errors import (BatchSolveError, InvalidTilePlan, LineSolveError, NoFeasibleDesign,
                     NonFiniteSolution, TridaxError, ZeroDuration, ZeroPivot)
from .mesh import Axis, Mesh, read_mesh, solve_lines, write_mesh
from .adi import AdiConfig, adi_run, effective_bandwidth
from .precision import Precision
from .tiled import TilePlan

__version__ = "0.1.0"

__all__ = [
    "Precision", "TridiagonalSystem", "TridiagonalBatch",
    "solve_system", "batch_solve", "error_bound", "residual_max_norm",
    "random_dominant_batch", "random_dominant_system", "relative_inf_error", "TilePlan",
    "Mesh", "Axis", "solve_lines", "read_mesh", "write_mesh",
    "AdiConfig", "adi_run", "effective_bandwidth",
    "TridaxError", "ZeroPivot", "InvalidTilePlan",
    "LineSolveError", "BatchSolveError", "NonFiniteSolution",
    "ZeroDuration", "NoFeasibleDesign", "__version__",
]
