"""Batched multi-dimensional tridiagonal solvers with ADI application
drivers and an analytic accelerator performance model.

There is one solve entry point per input form: :func:`solve_system` for
one system, :func:`batch_solve` for a batch, :func:`solve_lines` for the
lines along one axis of a mesh batch and :func:`adi_run` for the ADI
application. Each makes one kernel call per solve, ``kernel(a, b, c, d)``
on ``(n, lines)`` arrays, for every algorithm.

The package splits into:

- :mod:`tridax.core` — scalar/batched direct solvers (elimination and
  cyclic reduction), each one kernel over ``(n, lines)`` arrays, plus a
  dense reference oracle;
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

from .core import (TridiagonalBatch, TridiagonalSystem, batch_solve, dense_oracle_solve,
                   random_dominant_system, relative_inf_error, residual_max_norm,
                   solve_system)
from .errors import (BatchSolveError, InfeasibleDesign, InvalidTilePlan,
                     LineSolveError, MismatchedTiles, NoFeasibleDesign,
                     NonFiniteSolution, SingularMatrix, TridaxError, ZeroDuration,
                     ZeroPivot)
from .mesh import (Axis, Mesh, axis_lines, gather_lines, read_mesh, scatter_lines, solve_lines,
                   write_mesh)
from .adi import AdiConfig, RunReport, adi_rhs, adi_run, effective_bandwidth
from .precision import Precision
from .tiled import (ModifiedTileResult, TilePlan, assemble_reduced, back_substitute,
                    modified_thomas_phase)

__version__ = "0.1.0"

__all__ = [
    "Precision", "TridiagonalSystem", "TridiagonalBatch",
    "solve_system", "batch_solve", "dense_oracle_solve", "residual_max_norm",
    "random_dominant_system", "relative_inf_error", "TilePlan",
    "ModifiedTileResult", "modified_thomas_phase", "assemble_reduced",
    "back_substitute", "Mesh", "Axis", "axis_lines", "gather_lines", "scatter_lines",
    "solve_lines",
    "read_mesh", "write_mesh", "AdiConfig", "RunReport", "adi_rhs", "adi_run",
    "effective_bandwidth", "TridaxError", "ZeroPivot", "SingularMatrix",
    "InvalidTilePlan", "MismatchedTiles", "LineSolveError", "BatchSolveError",
    "NonFiniteSolution",
    "ZeroDuration", "InfeasibleDesign", "NoFeasibleDesign", "__version__",
]
