"""Direct solvers for single and batched tridiagonal systems.

A system is ``a[i]*u[i-1] + b[i]*u[i] + c[i]*u[i+1] = d[i]`` for
``i = 0..n-1`` with the boundary convention ``a[0] == c[n-1] == 0``.
Solvers assume strict diagonal dominance (``|b[i]| > |a[i]| + |c[i]|``);
this is a documented precondition, enforced only when ``check_dominance``
is requested, since the elimination is unstable without it.

There is one entry point per input form: ``solve_system`` for one system,
``batch_solve`` for a batch, and, in the other modules,
:func:`tridax.mesh.solve_lines` for a mesh axis and
:func:`tridax.adi.adi_run` for the ADI application. Each makes one kernel
call. A kernel is called as ``kernel(a, b, c, d)`` on ``(n, lines)``
arrays, row i of every system side by side, and checks its pivots and
output once, its error naming every failing line; ``_kernel`` maps an
algorithm name and tile count to the Thomas or PCR kernel at the bottom of
this module or to the tiled hybrids' kernel in :mod:`tridax.tiled`. A
batch stores ``(count, n)`` arrays and is solved through their transposed
views; a single system is a one-line call. Every line runs the same
operation sequence, so scalar, batched and sweep results are bitwise
identical. The Thomas kernel is ``_thomas_factor`` then
``_thomas_substitute``, which repeated sweeps also call apart.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import BatchSolveError, NonFiniteSolution, SingularMatrix, ZeroPivot
from .precision import Precision

DENSE_ORACLE_MAX_N = 4096


def _float_dtype(*arrays) -> np.dtype:
    """Common dtype of the arrays; FP64 unless that is FP32 or FP64."""
    common = np.result_type(*arrays)
    return common if common in (np.float32, np.float64) else np.dtype(np.float64)


def _as_coeff_array(name: str, values, dtype=None) -> np.ndarray:
    arr = np.asarray(values, dtype=dtype)
    if arr.dtype not in (np.float32, np.float64):
        arr = arr.astype(np.float64)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class TridiagonalSystem:
    """One tridiagonal system of ``n`` unknowns.

    The four coefficient vectors share a length and a float dtype. Arrays
    are held by reference; solvers never modify them.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        arrays = {name: np.asarray(getattr(self, name)) for name in "abcd"}
        common = _float_dtype(*arrays.values())
        for name, arr in arrays.items():
            object.__setattr__(self, name, _as_coeff_array(name, arr, common))
        n = self.b.shape[0]
        if n < 1:
            raise ValueError("system must have at least one unknown")
        for name in ("a", "c", "d"):
            if getattr(self, name).shape[0] != n:
                raise ValueError(f"{name} has length {getattr(self, name).shape[0]}, expected {n}")
        if self.a[0] != 0.0:
            raise ValueError("a[0] must be 0 (no sub-diagonal entry on the first row)")
        if self.c[-1] != 0.0:
            raise ValueError("c[n-1] must be 0 (no super-diagonal entry on the last row)")

    @property
    def n(self) -> int:
        return self.b.shape[0]

    @property
    def precision(self) -> Precision:
        return Precision.from_dtype(self.b.dtype)

    def is_diagonally_dominant(self) -> bool:
        return bool(np.all(np.abs(self.b) > np.abs(self.a) + np.abs(self.c)))

    def astype(self, precision: Precision) -> "TridiagonalSystem":
        dt = precision.dtype
        return TridiagonalSystem(self.a.astype(dt), self.b.astype(dt),
                                 self.c.astype(dt), self.d.astype(dt))

    def dense_matrix(self) -> np.ndarray:
        """Dense FP64 matrix form, for oracles and diagnostics."""
        n = self.n
        mat = np.zeros((n, n), dtype=np.float64)
        idx = np.arange(n)
        mat[idx, idx] = self.b
        if n > 1:
            mat[idx[1:], idx[:-1]] = self.a[1:]
            mat[idx[:-1], idx[1:]] = self.c[:-1]
        return mat


@dataclass
class TridiagonalBatch:
    """``count`` independent systems of shared size ``n``.

    The four coefficient arrays are shaped ``(count, n)``: row i holds
    system i. They share one float dtype, as a system's vectors do; arrays
    already in it are held by reference. ``batch_solve`` hands the kernels
    their ``(n, count)`` transposed views.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        arrays = [np.asarray(x) for x in (self.a, self.b, self.c, self.d)]
        dtype = _float_dtype(*arrays)
        self.a, self.b, self.c, self.d = (x.astype(dtype, copy=False) for x in arrays)
        shapes = {arr.shape for arr in (self.a, self.b, self.c, self.d)}
        if len(shapes) != 1 or self.a.ndim != 2:
            raise ValueError("batch arrays must share one 2-D shape")
        if self.count < 1:
            raise ValueError("batch must contain at least one system")
        if self.n < 1:
            raise ValueError("every system must have at least one unknown")
        if np.any(self.a[:, 0] != 0.0) or np.any(self.c[:, -1] != 0.0):
            raise ValueError("every system needs a[0] == 0 and c[n-1] == 0")

    @property
    def count(self) -> int:
        return self.a.shape[0]

    @property
    def n(self) -> int:
        return self.a.shape[1]

    @property
    def precision(self) -> Precision:
        return Precision.from_dtype(self.b.dtype)

    def system(self, i: int) -> TridiagonalSystem:
        return TridiagonalSystem(self.a[i], self.b[i], self.c[i], self.d[i])

    @classmethod
    def from_systems(cls, systems) -> "TridiagonalBatch":
        systems = list(systems)
        return cls(*(np.stack([getattr(s, k) for s in systems]) for k in "abcd"))


def dense_oracle_solve(system: TridiagonalSystem) -> np.ndarray:
    """Reference solution via dense FP64 Gaussian elimination.

    Builds the full matrix and solves it with LAPACK's partially pivoted
    LU (``numpy.linalg.solve``); O(n^3), capped at n <= 4096. Always
    computes in FP64 regardless of the system's precision.
    """
    if system.n > DENSE_ORACLE_MAX_N:
        raise ValueError(f"dense oracle capped at n <= {DENSE_ORACLE_MAX_N}")
    mat = system.dense_matrix()
    try:
        return np.linalg.solve(mat, system.d.astype(np.float64))
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix(str(exc)) from exc


def residual_max_norm(system: TridiagonalSystem | TridiagonalBatch, u) -> float:
    """Max-norm of ``A u - d`` with out-of-range neighbor terms zero.

    ``system`` is one system with a length-n solution ``u``, or a batch
    with ``(count, n)`` solutions; for a batch the result is the largest
    residual of any of its systems, exactly the maximum of the per-system
    values.
    """
    u = np.asarray(u, dtype=system.b.dtype)
    if u.shape != system.b.shape:
        raise ValueError(f"solution has shape {u.shape}, expected {system.b.shape}")
    r = system.b * u - system.d
    r[..., 1:] += system.a[..., 1:] * u[..., :-1]
    r[..., :-1] += system.c[..., :-1] * u[..., 1:]
    return float(np.max(np.abs(r)))


def solve_system(system: TridiagonalSystem, algo: str = "thomas", tiles: int | None = None,
                 *, check_dominance: bool = False) -> np.ndarray:
    """Solve one system by algorithm name; the input is left untouched.

    The entry point for one system, as ``batch_solve`` is for a batch,
    :func:`tridax.mesh.solve_lines` for a mesh axis and
    :func:`tridax.adi.adi_run` for the ADI application: one
    ``kernel(a, b, c, d)`` call on ``(n, 1)`` columns.

    ``algo`` is one of ``thomas``, ``pcr``, ``thomas-thomas``,
    ``thomas-pcr``; the tiled hybrids require ``tiles >= 2``. With
    ``check_dominance`` a system that is not strictly diagonally dominant
    raises ``ValueError``. Raises :class:`ZeroPivot` when an elimination
    denominator falls below the precision's pivot floor (or is not
    finite), :class:`NonFiniteSolution` when the solution is not finite.
    """
    kernel = _kernel(algo, tiles)
    if check_dominance and not system.is_diagonally_dominant():
        raise ValueError("system is not strictly diagonally dominant")
    return kernel(system.a[:, None], system.b[:, None], system.c[:, None],
                  system.d[:, None])[:, 0]


SOLVER_NAMES = ("thomas", "pcr", "thomas-thomas", "thomas-pcr")


def _kernel(algo: str, tiles: int | None):
    """The ``(n, lines)`` kernel that solves ``algo``, called as
    ``kernel(a, b, c, d)``; the tiled hybrids need ``tiles``."""
    if algo in _KERNELS:
        return _KERNELS[algo]
    if algo not in _REDUCED_KERNELS:
        raise ValueError(f"unknown algorithm {algo!r}")
    if tiles is None:
        raise ValueError(f"{algo} requires a tile count")
    from . import tiled  # local import; tiled builds on this module

    return _checked(partial(tiled._tiled_kernel, _REDUCED_KERNELS[algo], tiles))


def batch_solve(batch: TridiagonalBatch, algo: str = "thomas",
                tiles: int | None = None) -> np.ndarray:
    """Solve every system of a batch independently.

    Returns a C-contiguous ``(count, n)`` array, row i solving system i,
    that matches the scalar solver bitwise. Every algorithm solves the
    whole batch in one kernel call on the ``(n, count)`` transposed views
    of the batch arrays. Failing systems do not abort the rest: they are
    raised together as :class:`BatchSolveError`, one :class:`ZeroPivot` or
    :class:`NonFiniteSolution` per system with ``line`` set to its index,
    and the ``(count, n)`` solutions from the same call attached, NaN in
    every failed system's row.
    """
    kernel = _kernel(algo, tiles)
    try:
        return np.ascontiguousarray(kernel(batch.a.T, batch.b.T, batch.c.T, batch.d.T).T)
    except (ZeroPivot, NonFiniteSolution) as exc:
        solutions = exc.solution.T.copy()  # exc.solution keeps the kernel's raw output
        solutions[exc.lines] = np.nan
        failures = [(i, ZeroPivot(row, line=i) if row >= 0 else NonFiniteSolution(i))
                    for i, row in zip(exc.lines.tolist(), exc.rows.tolist())]
        raise BatchSolveError(failures, solutions) from exc


def random_dominant_system(n: int, rng: np.random.Generator,
                           precision: Precision = Precision.FP64,
                           margin: float = 1.0) -> TridiagonalSystem:
    """Seeded strictly diagonally dominant test system.

    Off-diagonals are uniform in [-1, 1]; the diagonal exceeds their
    absolute sum by at least ``margin``.
    """
    if margin <= 0:
        raise ValueError("dominance margin must be positive")
    a = rng.uniform(-1.0, 1.0, n)
    c = rng.uniform(-1.0, 1.0, n)
    a[0] = 0.0
    c[-1] = 0.0
    b = np.abs(a) + np.abs(c) + rng.uniform(margin, margin + 1.0, n)
    d = rng.uniform(-1.0, 1.0, n)
    dt = precision.dtype
    return TridiagonalSystem(a.astype(dt), b.astype(dt), c.astype(dt), d.astype(dt))


def relative_inf_error(u, ref) -> float:
    """Max-norm error of ``u`` against ``ref``, relative to ``ref``'s scale."""
    u = np.asarray(u, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    scale = max(1.0, float(np.max(np.abs(ref))) if ref.size else 0.0)
    return float(np.max(np.abs(u - ref))) / scale if u.size else 0.0


# ---------------------------------------------------------------------------
# Kernels: d and the solution are (n, lines); a, b, c are (n, lines) or
# (n, 1), shared by every line. Each line runs the same operation sequence
# whatever the line count or coefficient sharing, so results do not depend
# on how lines are batched. Raw kernels return (u, failed pivots), checked once per call.
# ---------------------------------------------------------------------------


def _failed_pivots(den: np.ndarray) -> np.ndarray:
    """Mask of pivots below their dtype's pivot floor, NaN or infinite."""
    lo, hi = Precision.from_dtype(den.dtype).pivot_floor, np.finfo(den.dtype).max
    return ~((den >= lo) & (den <= hi) | (den <= -lo) & (den >= -hi))  # no |den| temporary


def _checked(raw):
    """``kernel(a, b, c, d) -> u`` from a raw kernel returning ``(u, failed)``."""
    return lambda a, b, c, d: _check(*raw(a, b, c, d))


def _check(u: np.ndarray, failed) -> np.ndarray:
    """Return ``u`` if every line passes, else raise the call's first failure
    with every line's record attached.

    ``failed`` lists ``(bad, rows)`` blocks in elimination order: ``bad``
    is a ``(k, lines)`` or shared ``(k, 1)`` mask of failed pivots, and its
    row j is row ``rows[j]``. A line fails at its first failed pivot, else
    if its solution is not finite. The first failed pivot in elimination
    order (lowest row, then line) is raised, else the lowest non-finite line.
    """
    count = u.shape[1]
    row = np.full(count, -1)  # each line's first failed pivot row
    first = None
    for bad, rows in failed:
        if not bad.any():
            continue
        if first is None:
            at = int(np.argmax(bad.any(axis=1)))
            first = ZeroPivot(rows[at], line=int(np.argmax(bad[at])))
        hit = np.broadcast_to(bad.any(axis=0), (count,)) & (row < 0)
        row[hit] = np.asarray(rows)[np.broadcast_to(np.argmax(bad, axis=0), (count,))[hit]]
    lines = (row >= 0) | ~np.isfinite(u).all(axis=0)
    if not lines.any():
        return u
    first = first or NonFiniteSolution(int(np.argmax(lines)))
    first.lines = np.flatnonzero(lines)
    first.rows = row[first.lines]
    first.solution = u
    raise first


def _thomas_factor(a: np.ndarray, b: np.ndarray, c: np.ndarray):
    """Forward elimination of ``(n, lines)``, ``(n, 1)`` or ``(n,)``
    coefficients alone (``(n,)`` rows are scalars, the cheapest operand).

    Returns ``(a, cs, den)`` and the failed-pivot mask; ``den[0]`` stays
    ``b[0]``, row 0's divisor, and rows ``1..n-1`` then hold ``1/den``.
    """
    n = b.shape[0]
    one = b.dtype.type(1)
    shape = np.broadcast_shapes(a.shape, b.shape, c.shape)
    cs = np.empty(shape, dtype=b.dtype)
    den = np.empty(shape, dtype=b.dtype)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        den[0] = b[0]
        cs[0] = c[0] / b[0]
        for i in range(1, n):
            den[i] = b[i] - a[i] * cs[i - 1]
            cs[i] = (one / den[i]) * c[i]
        failed = _failed_pivots(den)
        np.divide(one, den[1:], out=den[1:])
    return (a, cs, den), failed


def _thomas_substitute(factor, d: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Solve ``(n, lines)`` right-hand sides ``d`` with a ``_thomas_factor``
    factor into ``out``, which may be ``d``; one row temporary."""
    a, cs, den = factor
    n = d.shape[0]
    row = np.empty(out.shape[1:], dtype=out.dtype)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        np.divide(d[0], den[0], out=out[0])
        for i in range(1, n):
            np.multiply(a[i], out[i - 1], out=row)
            np.subtract(d[i], row, out=row)
            np.multiply(den[i], row, out=out[i])
        for i in range(n - 2, -1, -1):
            np.multiply(cs[i], out[i + 1], out=row)
            np.subtract(out[i], row, out=out[i])
    return out


def _thomas_kernel(a: np.ndarray, b: np.ndarray, c: np.ndarray, d: np.ndarray):
    """Forward elimination and back substitution, O(n) per line: the factor,
    then the substitution."""
    factor, failed = _thomas_factor(a, b, c)
    u = np.empty(np.broadcast_shapes(failed.shape, d.shape), dtype=b.dtype)
    return _thomas_substitute(factor, d, u), [(failed, range(d.shape[0]))]


def _pcr_kernel(a: np.ndarray, b: np.ndarray, c: np.ndarray, d: np.ndarray):
    """Parallel cyclic reduction.

    The system is normalized to a unit diagonal, then reduced in
    ``ceil(log2(n))`` steps; at step p each row subtracts multiples of the
    rows ``s = 2**(p-1)`` away. Neighbors outside ``[0, n)`` act as identity
    rows with zero right-hand side: ``a/b``, ``c/b`` and ``d/b`` are held
    with ``2**(steps-1)`` zero rows at both ends, so a step reads its
    neighbors as slices and writes the reduced rows back between the pads.
    """
    n = d.shape[0]
    one = b.dtype.type(1)
    failed = [_failed_pivots(b)]
    steps = 0 if n <= 1 else int(np.ceil(np.log2(n)))
    pad = (1 << steps) // 2
    # after one step, a per-line coefficient of any kind makes both ra and rc per-line
    shape = np.broadcast_shapes(a.shape, b.shape, c.shape)
    ra, rc = (np.zeros((n + 2 * pad,) + shape[1:], b.dtype) for _ in range(2))
    rd = np.zeros((n + 2 * pad,) + np.broadcast_shapes(shape, d.shape)[1:], b.dtype)
    mid = slice(pad, pad + n)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for x, buf in ((a, ra), (c, rc), (d, rd)):
            np.divide(x, b, out=buf[mid])
        for p in range(steps):
            s = 1 << p
            lo, hi = slice(pad - s, pad - s + n), slice(pad + s, pad + s + n)
            denom = one - ra[mid] * rc[lo] - rc[mid] * ra[hi]
            failed.append(_failed_pivots(denom))
            r = one / denom
            na = -r * (ra[mid] * ra[lo])
            nc = -r * (rc[mid] * rc[hi])
            nd = r * (rd[mid] - ra[mid] * rd[lo] - rc[mid] * rd[hi])
            ra[mid], rc[mid], rd[mid] = na, nc, nd
    return rd[mid], [(bad, range(n)) for bad in failed]


_KERNELS = {"thomas": _checked(_thomas_kernel), "pcr": _checked(_pcr_kernel)}
_REDUCED_KERNELS = {"thomas-thomas": _thomas_kernel, "thomas-pcr": _pcr_kernel}
