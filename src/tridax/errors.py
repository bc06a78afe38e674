"""Exception types raised across the library."""

from __future__ import annotations


class TridaxError(Exception):
    """Base class for all library errors."""


class ZeroPivot(TridaxError):
    """A solver pivot denominator fell below the precision's pivot floor
    or is NaN; the Thomas and PCR kernels also reject infinite pivots.

    ``index`` is the row within the system (or tile) where elimination broke
    down; ``line`` identifies the failing line of a kernel call when
    several systems are solved together.
    """

    def __init__(self, index: int, line: int | None = None, message: str | None = None):
        self.index = index
        self.line = line
        if message is None:
            message = f"pivot underflow at row {index}"
            if line is not None:
                message += f" (line {line})"
        super().__init__(message)


class NonFiniteSolution(TridaxError):
    """A solve produced NaN or infinite values, from non-finite input or overflow.

    ``line`` identifies the first failing line when several systems are
    solved together.
    """

    def __init__(self, line: int | None = None):
        self.line = line
        message = "solution is not finite"
        if line is not None:
            message += f" (line {line})"
        super().__init__(message)


class SingularMatrix(TridaxError):
    """Dense elimination found no usable pivot."""


class InvalidTilePlan(TridaxError):
    """Requested tiling leaves a tile without interior unknowns."""


class MismatchedTiles(TridaxError):
    """Tile results are inconsistent in size or ordering."""


class LineSolveError(TridaxError):
    """A per-line solve failed inside a mesh sweep; identifies the line."""

    def __init__(self, batch: int, line: int, axis: str):
        self.batch = batch
        self.line = line
        self.axis = axis
        super().__init__(f"solve failed on axis {axis}, mesh {batch}, line {line}")


class BatchSolveError(TridaxError):
    """One or more systems of a batch failed.

    ``failures`` is a list of ``(system_index, exception)`` pairs;
    ``solutions`` holds per-system results with ``None`` at failed slots.
    """

    def __init__(self, failures, solutions=None):
        self.failures = list(failures)
        self.solutions = solutions
        idx = ", ".join(str(i) for i, _ in self.failures)
        super().__init__(f"{len(self.failures)} system(s) failed: [{idx}]")


class ZeroDuration(TridaxError):
    """Bandwidth requested over a non-positive time interval."""


class InfeasibleDesign(TridaxError):
    """A design point exceeds the device budget.

    ``violations`` lists human-readable descriptions of each exceeded budget.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class NoFeasibleDesign(TridaxError):
    """Design-space enumeration filtered out every candidate."""
