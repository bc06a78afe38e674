"""Batched multi-dimensional tridiagonal solvers with ADI application
drivers and an analytic accelerator performance model.

The package splits into:

- :mod:`tridax.core` — scalar/batched direct solvers (elimination and
  cyclic reduction) on one interleaved ``(n, lines)`` kernel layout, plus a
  dense reference oracle;
- :mod:`tridax.tiled` — tiled hybrid solvers for systems larger than one
  sweep's working set, a kernel on the same ``(n, lines)`` layout;
- :mod:`tridax.mesh` — batched 2-D/3-D mesh container, whole-axis line
  sweeps on an interleaved ``(n, lines)`` view, binary mesh format;
- :mod:`tridax.adi` — ADI heat-diffusion drivers with traffic accounting;
- :mod:`tridax.perfmodel` — latency/memory models per design point and a
  design-space enumerator;
- :mod:`tridax.cli` — the ``tridax`` command.
"""

from .core import (BatchLayout, TridiagonalBatch, TridiagonalSystem, batch_solve,
                   dense_oracle_solve, pcr_solve, random_dominant_system,
                   relative_inf_error, residual_max_norm, solve_system,
                   thomas_solve)
from .errors import (BatchSolveError, InfeasibleDesign, InvalidTilePlan,
                     LineSolveError, MismatchedTiles, NoFeasibleDesign,
                     NonFiniteSolution, SingularMatrix, TridaxError, ZeroDuration,
                     ZeroPivot)
from .mesh import (Axis, LineBatchView, Mesh, axis_lines, line_batch_view, read_mesh,
                   solve_lines, write_mesh)
from .adi import AdiConfig, RunReport, adi_rhs, adi_run, adi_step, effective_bandwidth
from .precision import Precision
from .tiled import (ModifiedTileResult, TilePlan, assemble_reduced, back_substitute,
                    modified_thomas_phase, thomas_pcr_solve, thomas_thomas_solve)

__version__ = "0.1.0"

__all__ = [
    "Precision", "TridiagonalSystem", "TridiagonalBatch", "BatchLayout",
    "thomas_solve", "pcr_solve", "dense_oracle_solve", "batch_solve",
    "solve_system", "residual_max_norm", "random_dominant_system",
    "relative_inf_error", "TilePlan", "ModifiedTileResult",
    "modified_thomas_phase", "assemble_reduced", "back_substitute",
    "thomas_thomas_solve", "thomas_pcr_solve", "Mesh", "Axis",
    "LineBatchView", "line_batch_view", "axis_lines", "solve_lines",
    "read_mesh", "write_mesh",
    "AdiConfig", "RunReport", "adi_rhs", "adi_step", "adi_run",
    "effective_bandwidth", "TridaxError", "ZeroPivot", "SingularMatrix",
    "InvalidTilePlan", "MismatchedTiles", "LineSolveError", "BatchSolveError",
    "NonFiniteSolution",
    "ZeroDuration", "InfeasibleDesign", "NoFeasibleDesign", "__version__",
]
