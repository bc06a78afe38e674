"""Direct solvers for single and batched tridiagonal systems.

A system is ``a[i]*u[i-1] + b[i]*u[i] + c[i]*u[i+1] = d[i]`` for
``i = 0..n-1`` with the boundary convention ``a[0] == c[n-1] == 0``.
Solvers assume strict diagonal dominance (``|b[i]| > |a[i]| + |c[i]|``),
since the elimination is unstable without it; ``error_bound`` certifies a
solution's accuracy under it in O(n), and reads ``inf`` without it.

There is one entry point per input form: ``solve_system`` for one system,
``batch_solve`` for a batch, and, in the other modules,
:func:`tridax.mesh.solve_lines` for a mesh axis and
:func:`tridax.adi.adi_run` for the ADI application. The first three make
one kernel call; ``adi_run`` factors each axis once, then substitutes. A
kernel is called as ``kernel(a, b, c, d)`` on ``(n, lines)`` arrays, row i
of every system side by side, and checks its pivots and output once, its
error naming every failing line; ``_kernel`` maps an algorithm name and
tile count to the Thomas or PCR kernel at the bottom of this module or to
the tiled hybrids' kernel in :mod:`tridax.tiled`. A batch stores
``(count, n)`` arrays and is solved through their transposed views; a
single system is a one-line call. Both containers share one coefficient
rule, ``_coefficients``; every solve entry point and mesh sweep checks its
``_check_corners`` again at the call, as a container's arrays stay
writable. Every line runs the same operation sequence, so scalar, batched
and sweep results are bitwise identical. The Thomas kernel is
``_thomas_factor`` then ``_thomas_substitute``, which repeated sweeps also
call apart.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import BatchSolveError, NonFiniteSolution, ZeroPivot
from .precision import Precision

_CORNER_RULE = "every system needs a[0] == 0 and c[n-1] == 0"


def _coefficients(values, ndim: int) -> list[np.ndarray]:
    """``(a, b, c, d)`` as ``ndim``-D arrays of one shape and their common
    dtype (FP64 unless that is FP32 or FP64), row ``[..., i]`` of every
    system; arrays already in it are held by reference. Every system needs
    an unknown, ``a[0] == 0`` and ``c[n-1] == 0``."""
    arrays = [np.asarray(x) for x in values]
    dtype = np.result_type(*arrays)
    if dtype not in (np.float32, np.float64):
        dtype = np.float64
    a, b, c, d = coeffs = [x.astype(dtype, copy=False) for x in arrays]
    if a.ndim != ndim or not a.shape == b.shape == c.shape == d.shape:
        raise ValueError(f"a, b, c, d must share one {ndim}-D shape, "
                         f"got {[x.shape for x in coeffs]}")
    if a.size == 0:
        raise ValueError(f"coefficients need at least one unknown, got shape {a.shape}")
    _check_corners(a[..., 0], c[..., -1])
    return coeffs


def _check_corners(a_first, c_last) -> None:
    """The corner rule of every form: each system's ``a[0]`` and ``c[n-1]`` is 0."""
    # count_nonzero, not np.any: faster on a batch's or mesh axis's corner arrays
    if np.count_nonzero(a_first) or np.count_nonzero(c_last):
        raise ValueError(_CORNER_RULE)


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
        for name, arr in zip("abcd", _coefficients((self.a, self.b, self.c, self.d), 1)):
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return self.b.shape[0]

    @property
    def precision(self) -> Precision:
        return Precision.from_dtype(self.b.dtype)


@dataclass(frozen=True)
class TridiagonalBatch:
    """``count`` independent systems of shared size ``n``, frozen as a system is.

    The four coefficient arrays are shaped ``(count, n)``: row i holds
    system i. They share one float dtype, as a system's vectors do; arrays
    already in it are held by reference. ``batch_solve`` hands the kernels
    their ``(n, count)`` transposed views. ``system(i)`` views row i, which
    the batch validated, and checks only its corners again.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        for name, arr in zip("abcd", _coefficients((self.a, self.b, self.c, self.d), 2)):
            object.__setattr__(self, name, arr)

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
        i = operator.index(i)  # a slice or float is no system
        a, c = self.a[i], self.c[i]
        if a[0] or c[-1]:  # in-place writes can break only the corner rule; NaN is nonzero
            raise ValueError(_CORNER_RULE)
        system = object.__new__(TridiagonalSystem)  # validated rows: no __post_init__
        vars(system).update(a=a, b=self.b[i], c=c, d=self.d[i])
        return system


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
    r = np.multiply(system.b, u)  # one buffer, in bit-fixing order: b*u, -d, +a*u, +c*u
    np.subtract(r, system.d, out=r)
    lo, hi = r[..., 1:], r[..., :-1]
    np.add(lo, system.a[..., 1:] * u[..., :-1], out=lo)
    np.add(hi, system.c[..., :-1] * u[..., 1:], out=hi)
    return float(np.abs(r, out=r).max())


def error_bound(system: TridiagonalSystem | TridiagonalBatch, u) -> float:
    """Certified bound on the max-norm error of ``u`` (Varah, 1975): the
    residual max-norm over the smallest dominance margin ``|b| - |a| - |c|``.

    Never below ``max|u - u*|`` for the exact solution ``u*`` of the stored
    coefficients, barring underflow: both parts are taken in FP64, the
    margin stepped down after each rounding and the residual raised by
    ``gamma * s``, where ``s = max(|a u| + |b u| + |c u| + |d|)`` covers its
    own rounding. A batch gets one bound, covering every system. ``inf``
    when a row is not strictly dominant or a value is not finite; O(n).
    """
    a, b, c, d = (np.asarray(x, np.float64) for x in (system.a, system.b, system.c, system.d))
    u = np.asarray(u, np.float64)
    gamma = 5 * 2.0**-53 / (1 - 5 * 2.0**-53)  # a residual row rounds 4 times, s once more
    with np.errstate(all="ignore"):
        margin = np.nextafter(np.nextafter(abs(b) - abs(a), -np.inf) - abs(c), -np.inf).min()
        res = residual_max_norm(type(system)(a, b, c, d), u)
        s = residual_max_norm(type(system)(abs(a), abs(b), abs(c), -abs(d)), abs(u))
        bound = (res + gamma * s) / margin * (1 + 2.0**-51)  # and three roundings here
    return float(bound) if margin > 0 and bound == bound else np.inf


def solve_system(system: TridiagonalSystem, algo: str = "thomas",
                 tiles: int | None = None) -> np.ndarray:
    """Solve one system by algorithm name; the input is left untouched.

    The entry point for one system, as ``batch_solve`` is for a batch,
    :func:`tridax.mesh.solve_lines` for a mesh axis and
    :func:`tridax.adi.adi_run` for the ADI application: one
    ``kernel(a, b, c, d)`` call on ``(n, 1)`` columns.

    ``algo`` is one of ``thomas``, ``pcr``, ``thomas-thomas``,
    ``thomas-pcr``; the tiled hybrids require ``tiles >= 2``. Raises
    :class:`ZeroPivot` when an elimination denominator falls below the
    precision's pivot floor (or is not finite), :class:`NonFiniteSolution`
    when the solution is not finite.
    """
    kernel = _kernel(algo, tiles)
    _check_corners(system.a[0], system.c[-1])  # the arrays may be written after validation
    return kernel(system.a[:, None], system.b[:, None], system.c[:, None],
                  system.d[:, None])[:, 0]


def _kernel(algo: str, tiles: int | None):
    """The ``(n, lines)`` kernel that solves ``algo``, called as
    ``kernel(a, b, c, d)``; only the tiled hybrids take ``tiles``, and need it."""
    if algo in _KERNELS:
        if tiles is not None:
            raise ValueError(f"tiles applies to {', '.join(TILED_SOLVERS)}, not {algo}")
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
    _check_corners(batch.a[:, 0], batch.c[:, -1])  # the arrays may be written after validation
    try:
        return np.ascontiguousarray(kernel(batch.a.T, batch.b.T, batch.c.T, batch.d.T).T)
    except (ZeroPivot, NonFiniteSolution) as exc:
        solutions = exc.solution.T.copy()  # exc.solution keeps the kernel's raw output
        solutions[exc.lines] = np.nan
        failures = [(i, ZeroPivot(row, line=i) if row >= 0 else NonFiniteSolution(i))
                    for i, row in zip(exc.lines.tolist(), exc.rows.tolist())]
        raise BatchSolveError(failures, solutions) from exc


def random_dominant_batch(count: int, n: int, rng: np.random.Generator,
                          precision: Precision = Precision.FP64,
                          margin: float = 1.0) -> TridiagonalBatch:
    """Seeded batch of ``count`` strictly diagonally dominant test systems
    of ``n`` rows; ``tridax solve`` generates its batch with one call.

    One ``(count, n)`` draw per coefficient array, in the order a, c, b, d:
    off-diagonals are uniform in [-1, 1]; the diagonal exceeds their
    absolute sum by at least ``margin``.
    """
    if count < 1 or n < 1:
        raise ValueError(f"a generated batch needs count and n >= 1, not {count} and {n}")
    if not 0 < margin < np.inf:
        raise ValueError(f"dominance margin must be finite and positive, not {margin}")
    a, c = rng.uniform(-1.0, 1.0, (count, n)), rng.uniform(-1.0, 1.0, (count, n))
    a[:, 0] = c[:, -1] = 0.0
    b = np.abs(a) + np.abs(c) + rng.uniform(margin, margin + 1.0, (count, n))
    d = rng.uniform(-1.0, 1.0, (count, n))
    return TridiagonalBatch(*(x.astype(precision.dtype) for x in (a, b, c, d)))


def random_dominant_system(n: int, rng: np.random.Generator,
                           precision: Precision = Precision.FP64,
                           margin: float = 1.0) -> TridiagonalSystem:
    """Seeded strictly diagonally dominant test system: the one system of
    ``random_dominant_batch(1, n, ...)``, whose ``(1, n)`` draws take the
    same stream values as ``(n,)`` draws."""
    return random_dominant_batch(1, n, rng, precision, margin).system(0)


def relative_inf_error(u, ref) -> float:
    """Max-norm error of ``u`` against ``ref``, relative to ``ref``'s scale."""
    u = np.asarray(u, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    scale = max(1.0, float(np.max(np.abs(ref))) if ref.size else 0.0)
    return float(np.max(np.abs(u - ref))) / scale if u.size else 0.0


# ---------------------------------------------------------------------------
# Kernels: d and the solution are (n, lines); a, b, c share one shape, (n, lines)
# or (n, 1) shared by every line, so b.shape sizes the coefficient buffers.
# Each line runs the same operation sequence whatever the line count or
# coefficient sharing, so results do not depend on how lines are batched.
# Raw kernels return (u, failed pivots), checked once per call.
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
    cs = np.empty(b.shape, dtype=b.dtype)
    den = np.empty(b.shape, dtype=b.dtype)
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
    factor into ``out``, which may be ``d``; one row temporary. Each
    operand's rows are taken once, so the row loops only dispatch ufuncs."""
    a, cs, den = (list(x) for x in factor)
    dr, ur = list(d), list(out)
    row = np.empty(out.shape[1:], dtype=out.dtype)
    multiply, subtract = np.multiply, np.subtract
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        np.divide(dr[0], den[0], ur[0])
        for i in range(1, len(ur)):
            multiply(a[i], ur[i - 1], row)
            subtract(dr[i], row, row)
            multiply(den[i], row, ur[i])
        for i in range(len(ur) - 2, -1, -1):
            multiply(cs[i], ur[i + 1], row)
            subtract(ur[i], row, ur[i])
    return out


def _thomas_kernel(a: np.ndarray, b: np.ndarray, c: np.ndarray, d: np.ndarray):
    """Forward elimination and back substitution, O(n) per line: the factor,
    then the substitution."""
    factor, failed = _thomas_factor(a, b, c)
    u = np.empty(d.shape, dtype=b.dtype)
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
    ra, rc = (np.zeros((n + 2 * pad,) + b.shape[1:], b.dtype) for _ in range(2))
    rd = np.zeros((n + 2 * pad,) + d.shape[1:], b.dtype)
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
TILED_SOLVERS = tuple(_REDUCED_KERNELS)  # the solvers that take a tile count
SOLVER_NAMES = (*_KERNELS, *TILED_SOLVERS)
