"""Exception types raised across the library."""

from __future__ import annotations


class TridaxError(Exception):
    """Base class for all library errors."""


class ZeroPivot(TridaxError):
    """A solver pivot denominator fell below the precision's pivot floor,
    or is NaN or infinite.

    ``index`` is the row within the system where elimination broke down;
    the tiled hybrids report it in the whole system, and a failing reduced
    solve at the boundary row it stands for. ``line`` identifies the failing
    line of a kernel call when several systems are solved together, and the
    system's index in a :class:`BatchSolveError`. Raised by a kernel call,
    it is the call's first failure and also carries ``lines`` (every failing
    line, ascending), ``rows`` (each one's first failing pivot row, -1 when
    only its solution is not finite) and ``solution``, the call's output.
    """

    def __init__(self, index: int, line: int | None = None):
        self.index = index
        self.line = line
        message = f"pivot underflow at row {index}"
        if line is not None:
            message += f" (line {line})"
        super().__init__(message)


class NonFiniteSolution(TridaxError):
    """A solve produced NaN or infinite values, from non-finite input or overflow.

    ``line`` identifies the first failing line when several systems are
    solved together, and the system's index in a :class:`BatchSolveError`.
    Raised by a kernel call, it carries what :class:`ZeroPivot` does.
    """

    def __init__(self, line: int | None = None):
        self.line = line
        message = "solution is not finite"
        if line is not None:
            message += f" (line {line})"
        super().__init__(message)


class InvalidTilePlan(TridaxError, ValueError):
    """Requested tiling leaves a tile without interior unknowns (a bad argument)."""


class LineSolveError(TridaxError):
    """Line solves failed inside a mesh sweep. ``batch`` and ``line`` name
    the mesh and line of the cause's first failure; ``failures`` lists every
    failing ``(mesh, line)`` pair in ascending order."""

    def __init__(self, batch: int, line: int, axis: str, failures=None):
        self.batch = batch
        self.line = line
        self.axis = axis
        self.failures = [(batch, line)] if failures is None else list(failures)
        message = f"solve failed on axis {axis}, mesh {batch}, line {line}"
        if len(self.failures) > 1:
            message += f" ({len(self.failures)} lines failed)"
        super().__init__(message)


class BatchSolveError(TridaxError):
    """One or more systems of a batch failed.

    ``failures`` lists ``(system_index, exception)`` pairs in index order,
    one :class:`ZeroPivot` or :class:`NonFiniteSolution` per failing system;
    ``solutions`` is the ``(count, n)`` array of every system's result, NaN
    in each failed system's row. The kernel call's own output stays on
    ``__cause__.solution``.
    """

    def __init__(self, failures, solutions=None):
        self.failures = list(failures)
        self.solutions = solutions
        idx = ", ".join(str(i) for i, _ in self.failures)
        super().__init__(f"{len(self.failures)} system(s) failed: [{idx}]")


class ZeroDuration(TridaxError):
    """Bandwidth requested over a non-positive time interval."""


class NoFeasibleDesign(TridaxError):
    """Design-space enumeration filtered out every candidate."""
