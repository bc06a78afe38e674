"""Tiled hybrid solvers for systems too large to hold in one sweep.

Each system is split into ``t`` tiles. A modified elimination pass rewrites
every interior row of a tile in terms of the tile's first and last unknowns,

    u[i] + a*[i]*u[0] + c*[i]*u[m-1] = d*[i],    i = 1..m-2,

and the tiles' boundary rows form a reduced ``2*t``-row system, solved by
Thomas or PCR and substituted back. A tile is one more line: the pass copies
the ``(m, tiles, lines)`` tile views of a kernel's ``(n, lines)`` arrays
into tile-major buffers, where each row is one contiguous run, and
eliminates in place there. The steps below check nothing: every entry
point checks the tiling and the corner rule before they run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import _failed_pivots
from .errors import InvalidTilePlan
from .mesh import _blocked_copy

MIN_TILE_ROWS = 3  # a tile needs at least one interior unknown
BLOCK_ROWS = 8  # rows per back-substitution step: temporaries stay small and cached


@dataclass(frozen=True)
class TilePlan:
    """Partition of ``n`` rows into ``t`` tiles of ``ceil(n/t)``; the last takes the rest."""

    n: int
    t: int

    def __post_init__(self):
        if self.t < 2:
            raise InvalidTilePlan(f"need at least 2 tiles, got {self.t}")
        smallest = min(self.m, self.n - (self.t - 1) * self.m)  # < 0: tiles past the rows
        if smallest < MIN_TILE_ROWS:
            raise InvalidTilePlan(f"n={self.n} over t={self.t} tiles leaves a tile of "
                                  f"{max(smallest, 0)} rows; every tile needs >= {MIN_TILE_ROWS}")

    @property
    def m(self) -> int:
        return -(-self.n // self.t)

    @property
    def sizes(self) -> tuple[int, ...]:
        return (self.m,) * (self.t - 1) + (self.n - (self.t - 1) * self.m,)

    @property
    def runs(self) -> tuple[tuple[int, int, int], ...]:
        """``(offset, size, count)`` of the full tiles, then of a short last one."""
        full, short = divmod(self.n, self.m)
        return ((0, self.m, full),) + (((self.n - short, short, 1),) if short else ())

    def boundary_indices(self) -> list[int]:
        """Global row indices of every tile's first and last unknowns."""
        return [row for k, size in enumerate(self.sizes)
                for row in (k * self.m, k * self.m + size - 1)]


def _tile_view(x: np.ndarray, off: int, size: int, count: int) -> np.ndarray:
    """``count`` tiles of ``size`` rows from row ``off`` as a ``(size, count, cols)`` view."""
    return x[off:off + size * count].reshape(count, size, -1).swapaxes(0, 1)


def modified_thomas_phase(a, b, c, d):
    """Eliminate every tile of every line at once; returns ``(at, ct, dt, failed)``.

    ``d`` is an ``(m, tiles, lines)`` block of tiles, ``m >= 3``; ``a``, ``b``,
    ``c`` are too, or ``(m, tiles, 1)`` if shared. ``a[0]`` and ``c[m-1]``
    couple each tile to its neighbors. The inputs, left unmodified, are
    copied once in blocks of ``mesh.LINE_BLOCK`` lines into C-contiguous
    buffers, which the pass rewrites in place, row by row with ``out=``, and
    returns. Rows ``1..m-2`` then hold the interior form, rows 0 and ``m-1``
    each tile's reduced rows, with the outward couplings in ``at[0]`` and
    ``ct[m-1]``. A failed pivot raises nothing; it leaves NaN or infinity in
    its line, and ``failed`` marks it.
    """
    m = d.shape[0]
    one = b.dtype.type(1)
    at, ct, den = (np.empty(b.shape, dtype=b.dtype) for _ in range(3))
    dt = np.empty(d.shape, dtype=b.dtype)
    for src, buf in ((a, at), (b, den), (c, ct), (d, dt)):
        _blocked_copy(buf, src)
    r, row, drow = (np.empty(x.shape[1:], dtype=b.dtype) for x in (at, at, dt))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # forward: row i becomes at[i]*u0 + u[i] + ct[i]*u[i+1] = dt[i]; at[i] is a[i] until last
        for x in (at, ct, dt):
            np.divide(x[1], den[1], out=x[1])
        for i in range(2, m):
            np.subtract(den[i], np.multiply(at[i], ct[i - 1], out=row), out=den[i])
            np.divide(one, den[i], out=r)
            np.subtract(dt[i], np.multiply(at[i], dt[i - 1], out=drow), out=dt[i])
            np.multiply(r, dt[i], out=dt[i])
            np.multiply(r, ct[i], out=ct[i])
            np.multiply(np.negative(r, out=r), np.multiply(at[i], at[i - 1], out=row), out=at[i])
        # backward: interior row i becomes at[i]*u0 + u[i] + ct[i]*u[m-1] = dt[i];
        # rows m-2 and m-1 already have it, row m-1 keeps its outward ct[m-1]
        for i in range(m - 3, 0, -1):
            np.subtract(at[i], np.multiply(ct[i], at[i + 1], out=row), out=at[i])
            np.subtract(dt[i], np.multiply(ct[i], dt[i + 1], out=drow), out=dt[i])
            np.multiply(np.negative(ct[i], out=row), ct[i + 1], out=ct[i])
        # row 0, as given so far: eliminate u[1], writing ct[0] last; at[0] keeps its coupling
        np.subtract(den[0], np.multiply(ct[0], at[1], out=row), out=den[0])
        np.divide(one, den[0], out=r)
        np.subtract(dt[0], np.multiply(ct[0], dt[1], out=drow), out=dt[0])
        np.multiply(r, dt[0], out=dt[0])
        np.multiply(r, at[0], out=at[0])
        np.multiply(np.negative(r, out=r), np.multiply(ct[0], ct[1], out=row), out=ct[0])
    return at, ct, dt, _failed_pivots(den)


def assemble_reduced(parts):
    """Couple the tiles' boundary rows into one 2t-row tridiagonal system per line.

    ``parts`` are ``modified_thomas_phase`` results in tile order, each for
    a run of tiles. Returns ``(a, b, c, d)``: ``(2t, lines)`` arrays,
    ``(2t, 1)`` for shared coefficients, with a unit diagonal. Boundary
    unknowns are ordered (first, last) per tile, which makes the coupling
    pattern exactly tridiagonal with zero corners, as the system's are.
    """
    ends = [[np.stack((x[0], x[-1]), 1).reshape(-1, x.shape[-1])  # (first, last) per tile
             for x in part[:3]] for part in parts]
    ra, rc, rd = (np.concatenate(rows) for rows in zip(*ends))
    return ra, np.ones_like(ra), rc, rd


def back_substitute(parts, boundary) -> np.ndarray:
    """Recover the full ``(n, lines)`` solution from the ``parts`` and the
    ``(2t, lines)`` reduced-system solution, every tile of a run at once."""
    u = np.empty((sum(dt[..., 0].size for _, _, dt, _ in parts), boundary.shape[1]),
                 dtype=boundary.dtype)
    ends = boundary.reshape(-1, 2, boundary.shape[1])  # (first, last) unknown of every tile
    off = 0
    for at, ct, dt, _ in parts:
        size, count = dt.shape[:2]
        (u0, um), ends = ends[:count].swapaxes(0, 1), ends[count:]
        view = _tile_view(u, off, size, count)
        for lo in range(0, size, BLOCK_ROWS):
            rows = slice(lo, lo + BLOCK_ROWS)
            np.subtract(dt[rows], at[rows] * u0, out=view[rows])
            view[rows] -= ct[rows] * um
        view[0], view[-1] = u0, um
        off += size * count
    return u


def _tiled_kernel(reduced_kernel, tiles: int, a: np.ndarray, b: np.ndarray, c: np.ndarray,
                  d: np.ndarray):
    """Tiled solve of ``(n, lines)`` systems, returning ``(u, failed)`` as raw
    core kernels do; ``reduced_kernel`` (raw Thomas or PCR) solves the
    reduced systems. One ``modified_thomas_phase`` call per run of equal
    tiles. Failed pivots name their row in the whole system: a tile's rows
    in elimination order (``1..m-1``, then 0), a reduced row its
    ``boundary_indices()`` entry.
    """
    plan = TilePlan(d.shape[0], tiles)
    parts, failed = [], []
    for off, size, count in plan.runs:
        parts.append(modified_thomas_phase(*(_tile_view(v, off, size, count)
                                             for v in (a, b, c, d))))
        order = np.r_[1:size, 0]
        bad = parts[-1][3][order].swapaxes(0, 1)
        rows = off + size * np.arange(count)[:, None] + order
        failed.append((bad.reshape(-1, bad.shape[-1]), rows.ravel().tolist()))
    boundary, reduced = reduced_kernel(*assemble_reduced(parts))
    failed += [(bad, plan.boundary_indices()) for bad, _ in reduced]
    with np.errstate(invalid="ignore", over="ignore"):  # failed lines carry NaN this far
        return back_substitute(parts, boundary), failed
