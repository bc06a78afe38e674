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
identical.
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
    system i. ``batch_solve`` hands the kernels their ``(n, count)``
    transposed views.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        shapes = {arr.shape for arr in (self.a, self.b, self.c, self.d)}
        if len(shapes) != 1 or self.a.ndim != 2:
            raise ValueError("batch arrays must share one 2-D shape")
        if self.count < 1:
            raise ValueError("batch must contain at least one system")
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
    dtype = _float_dtype(system.a, system.b, system.c, system.d)
    u = np.asarray(u, dtype=dtype)
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
                tiles: int | None = None) -> list[np.ndarray]:
    """Solve every system of a batch independently.

    Results keep the input order and match the scalar solver bitwise.
    Every algorithm solves the whole batch in one kernel call on the
    ``(n, count)`` transposed views of the batch arrays. Failing systems
    do not abort the rest: they are raised together as
    :class:`BatchSolveError`, one :class:`ZeroPivot` or
    :class:`NonFiniteSolution` per system with ``line`` set to its index,
    and the other systems' solutions from the same call attached.
    """
    kernel = _kernel(algo, tiles)
    dtype = _float_dtype(batch.a, batch.b, batch.c, batch.d)
    arrays = [np.asarray(getattr(batch, k).T, dtype=dtype) for k in "abcd"]
    try:
        return list(np.ascontiguousarray(kernel(*arrays).T))
    except (ZeroPivot, NonFiniteSolution) as exc:
        solutions = list(np.ascontiguousarray(exc.solution.T))
        failures = []
        for i, row in zip(exc.lines.tolist(), exc.rows.tolist()):
            failures.append((i, ZeroPivot(row, line=i) if row >= 0 else NonFiniteSolution(i)))
            solutions[i] = None
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
    mag = np.abs(den)
    return ~((mag >= Precision.from_dtype(den.dtype).pivot_floor)
             & (mag <= np.finfo(den.dtype).max))


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


def _thomas_kernel(a: np.ndarray, b: np.ndarray, c: np.ndarray, d: np.ndarray):
    """Forward elimination and back substitution, O(n) per line."""
    n = d.shape[0]
    one = b.dtype.type(1)
    shape = np.broadcast_shapes(a.shape, b.shape, c.shape)
    cs = np.empty(shape, dtype=b.dtype)
    den = np.empty(shape, dtype=b.dtype)
    u = np.empty(np.broadcast_shapes(shape, d.shape), dtype=b.dtype)  # ds, then u
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        den[0] = b[0]
        u[0] = d[0] / b[0]
        cs[0] = c[0] / b[0]
        for i in range(1, n):
            den[i] = b[i] - a[i] * cs[i - 1]
            r = one / den[i]
            u[i] = r * (d[i] - a[i] * u[i - 1])
            cs[i] = r * c[i]
        for i in range(n - 2, -1, -1):
            u[i] -= cs[i] * u[i + 1]
    return u, [(_failed_pivots(den), range(n))]


def _shift(arr: np.ndarray, offset: int) -> np.ndarray:
    """Values at row ``i + offset``; zero outside the system."""
    out = np.zeros_like(arr)
    n = arr.shape[0]
    if offset >= n:
        return out
    if offset >= 0:
        out[: n - offset] = arr[offset:]
    else:
        out[-offset:] = arr[:offset]
    return out


def _pcr_kernel(a: np.ndarray, b: np.ndarray, c: np.ndarray, d: np.ndarray):
    """Parallel cyclic reduction.

    The system is normalized to a unit diagonal, then reduced in
    ``ceil(log2(n))`` steps; at step p each row subtracts multiples of the
    rows ``2**(p-1)`` away. Neighbors outside ``[0, n)`` act as identity
    rows with zero right-hand side, so non-power-of-two sizes need no
    padding.
    """
    n = d.shape[0]
    one = b.dtype.type(1)
    failed = [_failed_pivots(b)]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ra = a / b
        rc = c / b
        rd = d / b
        steps = 0 if n <= 1 else int(np.ceil(np.log2(n)))
        for p in range(steps):
            s = 1 << p
            a_lo = _shift(ra, -s)
            d_lo = _shift(rd, -s)
            c_lo = _shift(rc, -s)
            a_hi = _shift(ra, s)
            c_hi = _shift(rc, s)
            d_hi = _shift(rd, s)
            denom = one - ra * c_lo - rc * a_hi
            failed.append(_failed_pivots(denom))
            r = one / denom
            na = -r * (ra * a_lo)
            nc = -r * (rc * c_hi)
            nd = r * (rd - ra * d_lo - rc * d_hi)
            ra, rc, rd = na, nc, nd
    return rd, [(bad, range(n)) for bad in failed]


_KERNELS = {"thomas": _checked(_thomas_kernel), "pcr": _checked(_pcr_kernel)}
_REDUCED_KERNELS = {"thomas-thomas": _thomas_kernel, "thomas-pcr": _pcr_kernel}
