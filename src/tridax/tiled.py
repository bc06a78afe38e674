"""Tiled hybrid solvers for systems too large to hold in one sweep.

Each system is split into ``t`` tiles. A modified elimination pass over a
tile rewrites every interior row in terms of the tile's first and last
unknowns,

    u[i] + a*[i]*u[0] + c*[i]*u[m-1] = d*[i],    i = 1..m-2,

leaving the two boundary rows coupled only to neighboring tiles. Those
boundary rows form a reduced tridiagonal system of size ``2*t``, solved
directly (Thomas) or by cyclic reduction (PCR); its solution is then
substituted back into the interior rows.

Every step works on ``(rows, lines)`` blocks, as the kernels in
:mod:`tridax.core` do: each tile of every line is eliminated in one pass,
the ``2t``-row reduced systems of every line go to the Thomas or PCR kernel
in one call, and ``_tiled_kernel`` joins the steps under the core kernels'
contract. Pivots are checked in elimination order (tile by tile, then the
reduced system) and reported at their row in the whole system.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .core import _check_finite, _check_pivots
from .errors import InvalidTilePlan, MismatchedTiles, ZeroPivot

MIN_TILE_ROWS = 3  # a tile needs at least one interior unknown


@dataclass(frozen=True)
class TilePlan:
    """Partition of an ``n``-row system into ``t`` tiles of size ``ceil(n/t)``.

    The last tile takes the remainder and is never padded.
    """

    n: int
    t: int

    def __post_init__(self):
        if self.t < 2:
            raise InvalidTilePlan(f"need at least 2 tiles, got {self.t}")
        if min(self.sizes) < MIN_TILE_ROWS:
            raise InvalidTilePlan(
                f"n={self.n} over t={self.t} tiles leaves a tile of "
                f"{min(self.sizes)} rows; every tile needs >= {MIN_TILE_ROWS}")

    @property
    def m(self) -> int:
        return -(-self.n // self.t)

    @property
    def sizes(self) -> tuple[int, ...]:
        return (self.m,) * (self.t - 1) + (self.n - (self.t - 1) * self.m,)

    @property
    def offsets(self) -> tuple[int, ...]:
        return tuple(k * self.m for k in range(self.t))

    @property
    def reduced_size(self) -> int:
        return 2 * self.t

    def boundary_indices(self) -> list[int]:
        """Global row indices of every tile's first and last unknowns."""
        out = []
        for off, size in zip(self.offsets, self.sizes):
            out.extend((off, off + size - 1))
        return out


@dataclass(frozen=True)
class ModifiedTileResult:
    """Per-tile coefficients after the modified elimination pass.

    Arrays are ``(m, lines)``; ``a_star`` and ``c_star`` are ``(m, 1)`` when
    the tile's coefficients are shared by every line. Rows ``1..m-2`` hold
    the interior two-unknown form; rows ``0`` and ``m-1`` hold the tile's
    contributions to the reduced system, with the outward couplings
    (previous tile's last / next tile's first unknown) stored in
    ``a_star[0]`` and ``c_star[m-1]``.
    """

    a_star: np.ndarray
    c_star: np.ndarray
    d_star: np.ndarray

    @property
    def size(self) -> int:
        return self.a_star.shape[0]


@contextmanager
def _rows_at(rows):
    """Re-raise a :class:`ZeroPivot` from the block at row ``rows[index]``."""
    try:
        yield
    except ZeroPivot as exc:
        raise ZeroPivot(rows[exc.index], exc.line) from None


def modified_thomas_phase(a, b, c, d) -> ModifiedTileResult:
    """Run the forward/backward elimination over one tile of every line.

    ``d`` is an ``(m, lines)`` block; ``a``, ``b``, ``c`` are ``(m, lines)``
    or ``(m, 1)``, shared by every line. ``a[0]`` and ``c[m-1]`` are the
    tile's couplings to its neighbors (zero on the outermost tiles). Inputs
    are not modified. Pivots are checked in elimination order (rows
    ``1..m-1``, then row 0); :class:`ZeroPivot` gives the row within the
    tile.
    """
    a, b, c, d = (np.asarray(v) for v in (a, b, c, d))
    m = d.shape[0]
    if m < MIN_TILE_ROWS:
        raise InvalidTilePlan(f"tile has {m} rows, need >= {MIN_TILE_ROWS}")
    one = b.dtype.type(1)
    shape = np.broadcast_shapes(a.shape, b.shape, c.shape)
    at = np.empty(shape, dtype=b.dtype)
    ct = np.empty(shape, dtype=b.dtype)
    den = np.empty(shape, dtype=b.dtype)
    dt = np.empty(np.broadcast_shapes(shape, d.shape), dtype=b.dtype)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # forward: row i becomes  at[i]*u0 + u[i] + ct[i]*u[i+1] = dt[i]
        den[1] = b[1]
        at[1] = a[1] / b[1]
        ct[1] = c[1] / b[1]
        dt[1] = d[1] / b[1]
        for i in range(2, m):
            den[i] = b[i] - a[i] * ct[i - 1]
            r = one / den[i]
            at[i] = -r * (a[i] * at[i - 1])
            ct[i] = r * c[i]
            dt[i] = r * (d[i] - a[i] * dt[i - 1])
        # backward, in place: interior row i becomes
        # at[i]*u0 + u[i] + ct[i]*u[m-1] = dt[i]; rows m-2 and m-1 already
        # have that form, and row m-1 keeps its outward coupling in ct[m-1]
        for i in range(m - 3, 0, -1):
            at[i] -= ct[i] * at[i + 1]
            dt[i] -= ct[i] * dt[i + 1]
            ct[i] = -ct[i] * ct[i + 1]
        # row 0: eliminate u[1]; coupling to the previous tile stays in at[0]
        den[0] = b[0] - c[0] * at[1]
        r = one / den[0]
        at[0] = r * a[0]
        ct[0] = -r * (c[0] * ct[1])
        dt[0] = r * (d[0] - c[0] * dt[1])
        order = [*range(1, m), 0]
        with _rows_at(order):
            _check_pivots(den[order])
    return ModifiedTileResult(at, ct, dt)


def assemble_reduced(tiles: list[ModifiedTileResult]):
    """Couple the tiles' boundary rows into one 2t-row tridiagonal system per line.

    Returns ``(a, b, c, d)``: ``(2t, lines)`` arrays, ``(2t, 1)`` for
    shared coefficients, with a unit diagonal. Boundary unknowns are
    ordered (first, last) per tile, which makes the coupling pattern exactly
    tridiagonal with zero corners.
    """
    t = len(tiles)
    if t < 2:
        raise MismatchedTiles(f"need at least 2 tiles, got {t}")
    if any(tile.size < MIN_TILE_ROWS for tile in tiles):
        raise MismatchedTiles("tile results have inconsistent sizes")
    ends = [0, -1]
    ra = np.concatenate([tile.a_star[ends] for tile in tiles])
    rc = np.concatenate([tile.c_star[ends] for tile in tiles])
    rd = np.concatenate([tile.d_star[ends] for tile in tiles])
    if np.any(ra[0] != 0.0) or np.any(rc[-1] != 0.0):
        raise MismatchedTiles("outermost tiles carry external couplings; "
                              "tiles are out of order or from different systems")
    return ra, np.ones_like(ra), rc, rd


def back_substitute(tiles: list[ModifiedTileResult], boundary) -> np.ndarray:
    """Recover the full ``(n, lines)`` solution from the reduced-system solution."""
    boundary = np.asarray(boundary)
    if boundary.shape[0] != 2 * len(tiles):
        raise MismatchedTiles(
            f"boundary has {boundary.shape[0]} values for {len(tiles)} tiles")
    u = np.empty((sum(tile.size for tile in tiles),) + boundary.shape[1:], dtype=boundary.dtype)
    off = 0
    for k, tile in enumerate(tiles):
        u0 = boundary[2 * k]
        um = boundary[2 * k + 1]
        part = u[off:off + tile.size]
        part[...] = tile.d_star - tile.a_star * u0 - tile.c_star * um
        part[0] = u0
        part[-1] = um
        off += tile.size
    return u


def _tiled_kernel(reduced_kernel, tiles: int, a: np.ndarray, b: np.ndarray, c: np.ndarray,
                  d: np.ndarray) -> np.ndarray:
    """Tiled solve of ``(n, lines)`` systems under the core kernels' contract.

    ``reduced_kernel`` (Thomas or PCR) solves the reduced systems. A
    :class:`ZeroPivot` names the row in the whole system: a tile's row plus
    its offset, or the reduced row's ``boundary_indices()`` entry.
    """
    plan = TilePlan(d.shape[0], tiles)
    parts = []
    for off, size in zip(plan.offsets, plan.sizes):
        rows = slice(off, off + size)
        with _rows_at(range(off, off + size)):
            parts.append(modified_thomas_phase(a[rows], b[rows], c[rows], d[rows]))
    with _rows_at(plan.boundary_indices()):
        boundary = reduced_kernel(*assemble_reduced(parts))
    u = back_substitute(parts, boundary)
    _check_finite(u)
    return u
