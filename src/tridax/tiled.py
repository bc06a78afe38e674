"""Tiled hybrid solvers for systems too large to hold in one sweep.

Each system is split into ``t`` tiles. A modified elimination pass rewrites
every interior row of a tile in terms of the tile's first and last unknowns,

    u[i] + a*[i]*u[0] + c*[i]*u[m-1] = d*[i],    i = 1..m-2,

and the tiles' boundary rows form a reduced ``2*t``-row system, solved by
Thomas or PCR and substituted back. A tile is one more line: the pass copies
the ``(m, tiles, lines)`` tile views of a kernel's ``(n, lines)`` arrays
into tile-major buffers, where each row is one contiguous run, and
eliminates in place there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import _failed_pivots
from .errors import InvalidTilePlan, MismatchedTiles
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
        if min(self.sizes) < MIN_TILE_ROWS:
            raise InvalidTilePlan(f"n={self.n} over t={self.t} tiles leaves a tile of "
                                  f"{min(self.sizes)} rows; every tile needs >= {MIN_TILE_ROWS}")

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


@dataclass(frozen=True)
class ModifiedTileResult:
    """A run of equal tiles after the modified elimination pass.

    The phase's own C-contiguous ``(m, tiles, lines)`` buffers, ``a_star``
    and ``c_star`` ``(m, tiles, 1)`` for shared coefficients. Rows ``1..m-2``
    hold the interior form; rows ``0`` and ``m-1`` each tile's reduced rows,
    with the outward couplings in ``a_star[0]`` and ``c_star[m-1]``.
    ``failed_pivots`` marks failed pivots; row 0 is eliminated last.
    """

    a_star: np.ndarray
    c_star: np.ndarray
    d_star: np.ndarray
    failed_pivots: np.ndarray


def modified_thomas_phase(a, b, c, d) -> ModifiedTileResult:
    """Eliminate every tile of every line at once.

    ``d`` is an ``(m, tiles, lines)`` block of tiles; ``a``, ``b``, ``c`` are
    too, or ``(m, tiles, 1)`` if shared. ``a[0]`` and ``c[m-1]`` couple each
    tile to its neighbors. The inputs, left unmodified, are copied once in
    blocks of ``mesh.LINE_BLOCK`` lines; the pass then rewrites the copies in
    place, row by row with ``out=``. A failed pivot raises nothing; it leaves
    NaN or infinity in its line, and ``failed_pivots`` marks it.
    """
    a, b, c, d = (np.asarray(v) for v in (a, b, c, d))
    m = d.shape[0]
    if m < MIN_TILE_ROWS:
        raise InvalidTilePlan(f"tile has {m} rows, need >= {MIN_TILE_ROWS}")
    one = b.dtype.type(1)
    shape = np.broadcast_shapes(a.shape, b.shape, c.shape)
    at, ct, den = (np.empty(shape, dtype=b.dtype) for _ in range(3))
    dt = np.empty(np.broadcast_shapes(shape, d.shape), dtype=b.dtype)
    for src, buf in ((a, at), (b, den), (c, ct), (d, dt)):
        _blocked_copy(buf, np.broadcast_to(src, buf.shape))
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
    return ModifiedTileResult(at, ct, dt, _failed_pivots(den))


def assemble_reduced(parts: list[ModifiedTileResult]):
    """Couple the tiles' boundary rows into one 2t-row tridiagonal system per line.

    ``parts`` are elimination results in tile order, each for a run of
    tiles. Returns ``(a, b, c, d)``: ``(2t, lines)`` arrays, ``(2t, 1)``
    for shared coefficients, with a unit diagonal. Boundary unknowns are
    ordered (first, last) per tile, which makes the coupling pattern exactly
    tridiagonal with zero corners.
    """
    t = sum(part.a_star.shape[1] for part in parts)
    if t < 2:
        raise MismatchedTiles(f"need at least 2 tiles, got {t}")
    if any(part.a_star.shape[0] < MIN_TILE_ROWS for part in parts):
        raise MismatchedTiles("tile results have inconsistent sizes")
    ends = [[np.stack((x[0], x[-1]), 1).reshape(-1, x.shape[-1])  # (first, last) per tile
             for x in (part.a_star, part.c_star, part.d_star)] for part in parts]
    ra, rc, rd = (np.concatenate(rows) for rows in zip(*ends))
    # NaN, left by a failed pivot that is reported anyway, is no evidence of misordering
    if np.any(np.abs(ra[0]) > 0) or np.any(np.abs(rc[-1]) > 0):
        raise MismatchedTiles("outermost tiles carry external couplings; "
                              "tiles are out of order or from different systems")
    return ra, np.ones_like(ra), rc, rd


def back_substitute(parts: list[ModifiedTileResult], boundary) -> np.ndarray:
    """Recover the full ``(n, lines)`` solution from the ``(2t, lines)``
    reduced-system solution, every tile of a run at once."""
    boundary = np.asarray(boundary)
    t = sum(part.a_star.shape[1] for part in parts)
    if boundary.shape[0] != 2 * t:
        raise MismatchedTiles(f"boundary has {boundary.shape[0]} values for {t} tiles")
    u = np.empty((sum(part.d_star[..., 0].size for part in parts), boundary.shape[1]),
                 dtype=boundary.dtype)
    ends = boundary.reshape(t, 2, -1)  # (first, last) unknown of every tile
    off = 0
    for part in parts:
        size, count = part.d_star.shape[:2]
        (u0, um), ends = ends[:count].swapaxes(0, 1), ends[count:]
        view = _tile_view(u, off, size, count)
        for lo in range(0, size, BLOCK_ROWS):
            rows = slice(lo, lo + BLOCK_ROWS)
            np.subtract(part.d_star[rows], part.a_star[rows] * u0, out=view[rows])
            view[rows] -= part.c_star[rows] * um
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
        bad = parts[-1].failed_pivots[order].swapaxes(0, 1)
        rows = off + size * np.arange(count)[:, None] + order
        failed.append((bad.reshape(-1, bad.shape[-1]), rows.ravel().tolist()))
    boundary, reduced = reduced_kernel(*assemble_reduced(parts))
    failed += [(bad, plan.boundary_indices()) for bad, _ in reduced]
    with np.errstate(invalid="ignore", over="ignore"):  # failed lines carry NaN this far
        return back_substitute(parts, boundary), failed
