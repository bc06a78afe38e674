"""Direct solvers for single and batched tridiagonal systems.

A system is ``a[i]*u[i-1] + b[i]*u[i] + c[i]*u[i+1] = d[i]`` for
``i = 0..n-1`` with the boundary convention ``a[0] == c[n-1] == 0``.
Solvers assume strict diagonal dominance (``|b[i]| > |a[i]| + |c[i]|``);
this is a documented precondition, enforced only when ``check_dominance``
is requested, since the elimination is unstable without it.

The kernels at the bottom, and the tiled hybrids' kernel in
:mod:`tridax.tiled`, operate on ``(n, lines)`` arrays, row i of every
system side by side (the INTERLEAVED batch layout). ``_kernel`` maps an
algorithm name and tile count to its kernel; the scalar solvers,
``solve_system``, ``batch_solve`` and the mesh sweeps each make one kernel
call. A scalar solve is a one-line call, and every line runs the same
operation sequence, so scalar, batched and sweep results are bitwise
identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
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


class BatchLayout(Enum):
    """Storage order of a batch: systems contiguous, or row-interleaved.

    ``INTERLEAVED`` stores row i of every system adjacently, mirroring how
    an interleaving group of solves is fed on hardware; ``SYSTEM_MAJOR``
    keeps each system contiguous.
    """

    SYSTEM_MAJOR = "system-major"
    INTERLEAVED = "interleaved"


@dataclass
class TridiagonalBatch:
    """``count`` independent systems of shared size ``n``.

    Coefficient arrays are shaped ``(count, n)`` for SYSTEM_MAJOR storage
    and ``(n, count)`` for INTERLEAVED storage.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray
    layout: BatchLayout = BatchLayout.SYSTEM_MAJOR

    def __post_init__(self):
        shapes = {arr.shape for arr in (self.a, self.b, self.c, self.d)}
        if len(shapes) != 1 or self.a.ndim != 2:
            raise ValueError("batch arrays must share one 2-D shape")
        if self.count < 1:
            raise ValueError("batch must contain at least one system")
        a = self._rows(self.a)
        c = self._rows(self.c)
        if np.any(a[:, 0] != 0.0) or np.any(c[:, -1] != 0.0):
            raise ValueError("every system needs a[0] == 0 and c[n-1] == 0")

    def _rows(self, arr: np.ndarray) -> np.ndarray:
        # (count, n) view regardless of storage layout
        return arr if self.layout is BatchLayout.SYSTEM_MAJOR else arr.T

    @property
    def count(self) -> int:
        return self.a.shape[0] if self.layout is BatchLayout.SYSTEM_MAJOR else self.a.shape[1]

    @property
    def n(self) -> int:
        return self.a.shape[1] if self.layout is BatchLayout.SYSTEM_MAJOR else self.a.shape[0]

    @property
    def precision(self) -> Precision:
        return Precision.from_dtype(self.b.dtype)

    def system(self, i: int) -> TridiagonalSystem:
        return TridiagonalSystem(self._rows(self.a)[i], self._rows(self.b)[i],
                                 self._rows(self.c)[i], self._rows(self.d)[i])

    def with_layout(self, layout: BatchLayout) -> "TridiagonalBatch":
        if layout is self.layout:
            return self
        return TridiagonalBatch(np.ascontiguousarray(self.a.T), np.ascontiguousarray(self.b.T),
                                np.ascontiguousarray(self.c.T), np.ascontiguousarray(self.d.T),
                                layout)

    @classmethod
    def from_systems(cls, systems, layout: BatchLayout = BatchLayout.SYSTEM_MAJOR) -> "TridiagonalBatch":
        systems = list(systems)
        arrs = [np.stack([getattr(s, k) for s in systems]) for k in "abcd"]
        batch = cls(*arrs, layout=BatchLayout.SYSTEM_MAJOR)
        return batch.with_layout(layout)


def thomas_solve(system: TridiagonalSystem, *, check_dominance: bool = False) -> np.ndarray:
    """Solve one system by forward elimination and back substitution.

    O(n); the input is left untouched. Raises :class:`ZeroPivot` when a
    forward-sweep denominator falls below the precision's pivot floor (or
    is not finite), :class:`NonFiniteSolution` when the solution is not
    finite.
    """
    return _solve_one(_thomas_kernel, system, check_dominance)


def pcr_solve(system: TridiagonalSystem, *, check_dominance: bool = False) -> np.ndarray:
    """Solve one system by parallel cyclic reduction.

    The system is normalized to a unit diagonal, then reduced in
    ``ceil(log2(n))`` steps; at step p each row subtracts multiples of the
    rows ``2**(p-1)`` away. Neighbors outside ``[0, n)`` act as identity
    rows with zero right-hand side, so non-power-of-two sizes need no
    padding.
    """
    return _solve_one(_pcr_kernel, system, check_dominance)


def _require_dominance(system: TridiagonalSystem) -> None:
    """Raise ``ValueError`` unless the system is strictly diagonally dominant."""
    if not system.is_diagonally_dominant():
        raise ValueError("system is not strictly diagonally dominant")


def _solve_one(kernel, system: TridiagonalSystem, check_dominance: bool = False) -> np.ndarray:
    if check_dominance:
        _require_dominance(system)
    u = kernel(system.a[:, None], system.b[:, None], system.c[:, None],
               system.d[:, None], system.precision.pivot_floor)
    return u[:, 0]


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


def residual_max_norm(system: TridiagonalSystem, u) -> float:
    """Max-norm of ``A u - d`` with out-of-range neighbor terms zero."""
    u = np.asarray(u, dtype=system.b.dtype)
    if u.shape != (system.n,):
        raise ValueError(f"solution has shape {u.shape}, expected ({system.n},)")
    r = system.b * u - system.d
    if system.n > 1:
        r[1:] += system.a[1:] * u[:-1]
        r[:-1] += system.c[:-1] * u[1:]
    return float(np.max(np.abs(r)))


def solve_system(system: TridiagonalSystem, algo: str, tiles: int | None = None,
                 **kwargs) -> np.ndarray:
    """Dispatch a scalar solve by algorithm name.

    ``algo`` is one of ``thomas``, ``pcr``, ``thomas-thomas``,
    ``thomas-pcr``; the tiled hybrids require ``tiles >= 2``.
    """
    return _solve_one(_kernel(algo, tiles), system, **kwargs)


SOLVER_NAMES = ("thomas", "pcr", "thomas-thomas", "thomas-pcr")


def _kernel(algo: str, tiles: int | None):
    """The ``(n, lines)`` kernel that solves ``algo``, called as
    ``kernel(a, b, c, d, pivot_floor)``; the tiled hybrids need ``tiles``."""
    if algo in _KERNELS:
        return _KERNELS[algo]
    if algo not in _REDUCED_KERNELS:
        raise ValueError(f"unknown algorithm {algo!r}")
    if tiles is None:
        raise ValueError(f"{algo} requires a tile count")
    from . import tiled  # local import; tiled builds on this module

    return partial(tiled._tiled_kernel, _REDUCED_KERNELS[algo], tiles)


def batch_solve(batch: TridiagonalBatch, algo: str = "thomas", tiles: int | None = None,
                *, fail_fast: bool = False) -> list[np.ndarray]:
    """Solve every system of a batch independently.

    Results keep the input order and match the scalar solver bitwise.
    Every algorithm solves the whole batch in one kernel call on ``(n,
    count)`` views of the batch, whatever its storage layout. Only when that
    call fails is the batch solved system by system, so that a failing
    system does not abort the rest unless ``fail_fast`` is set; collected
    failures are raised as :class:`BatchSolveError` with the partial
    solutions attached.
    """
    kernel = _kernel(algo, tiles)
    dtype = _float_dtype(batch.a, batch.b, batch.c, batch.d)
    arrays = [np.asarray(batch._rows(getattr(batch, k)).T, dtype=dtype) for k in "abcd"]
    try:
        u = kernel(*arrays, Precision.from_dtype(dtype).pivot_floor)
    except (ZeroPivot, NonFiniteSolution):
        pass  # solve system by system below to collect every failure
    else:
        return list(np.ascontiguousarray(u.T))
    solutions: list[np.ndarray | None] = []
    failures = []
    for i in range(batch.count):
        try:
            solutions.append(_solve_one(kernel, batch.system(i)))
        except (ZeroPivot, SingularMatrix, NonFiniteSolution) as exc:
            if fail_fast:
                raise BatchSolveError([(i, exc)], solutions) from exc
            failures.append((i, exc))
            solutions.append(None)
    if failures:
        raise BatchSolveError(failures, solutions)
    return solutions


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
# on how lines are batched. Pivots and output are checked once per call.
# ---------------------------------------------------------------------------


def _check_pivots(den: np.ndarray, floor: float) -> None:
    """Raise :class:`ZeroPivot` at the lowest failing row, then lowest line.

    A pivot fails below the floor, and also when it is NaN or infinite.
    """
    mag = np.abs(den)
    bad = ~((mag >= floor) & (mag <= np.finfo(den.dtype).max))
    if bad.any():
        row = int(np.argmax(bad.any(axis=1)))
        raise ZeroPivot(row, line=int(np.argmax(bad[row])))


def _check_finite(u: np.ndarray) -> None:
    if not np.isfinite(u).all():
        raise NonFiniteSolution(int(np.argmin(np.isfinite(u).all(axis=0))))


def _thomas_kernel(a: np.ndarray, b: np.ndarray, c: np.ndarray, d: np.ndarray,
                   floor: float) -> np.ndarray:
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
        _check_pivots(den, floor)
    _check_finite(u)
    return u


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


def _pcr_kernel(a: np.ndarray, b: np.ndarray, c: np.ndarray, d: np.ndarray,
                floor: float) -> np.ndarray:
    n = d.shape[0]
    one = b.dtype.type(1)
    dens = [b]
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
            dens.append(denom)
            r = one / denom
            na = -r * (ra * a_lo)
            nc = -r * (rc * c_hi)
            nd = r * (rd - ra * d_lo - rc * d_hi)
            ra, rc, rd = na, nc, nd
        for den in dens:  # in elimination order: the first breakdown is reported
            _check_pivots(den, floor)
    _check_finite(rd)
    return rd


_KERNELS = {"thomas": _thomas_kernel, "pcr": _pcr_kernel}
_REDUCED_KERNELS = {"thomas-thomas": _thomas_kernel, "thomas-pcr": _pcr_kernel}
