"""Tiled hybrid solvers for systems too large to hold in one sweep.

Each system is split into ``t`` tiles. A modified elimination pass over a
tile rewrites every interior row in terms of the tile's first and last
unknowns,

    u[i] + a*[i]*u[0] + c*[i]*u[m-1] = d*[i],    i = 1..m-2,

leaving the two boundary rows coupled only to neighboring tiles. Those
boundary rows form a reduced tridiagonal system of size ``2*t``, solved
directly (Thomas) or by cyclic reduction (PCR); its solution is then
substituted back into the interior rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import TridiagonalSystem, _check_finite, _require_dominance, pcr_solve, thomas_solve
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

    Rows ``1..m-2`` hold the interior two-unknown form; rows ``0`` and
    ``m-1`` hold the tile's contributions to the reduced system, with the
    outward couplings (previous tile's last / next tile's first unknown)
    stored in ``a_star[0]`` and ``c_star[m-1]``.
    """

    a_star: np.ndarray
    c_star: np.ndarray
    d_star: np.ndarray

    @property
    def size(self) -> int:
        return self.a_star.shape[0]


def modified_thomas_phase(a, b, c, d, *, pivot_floor: float | None = None) -> ModifiedTileResult:
    """Run the forward/backward elimination over one tile.

    ``a[0]`` and ``c[m-1]`` are the tile's couplings to its neighbors (zero
    on the outermost tiles). Inputs are not modified.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    c = np.asarray(c)
    d = np.asarray(d)
    m = b.shape[0]
    if m < MIN_TILE_ROWS:
        raise InvalidTilePlan(f"tile has {m} rows, need >= {MIN_TILE_ROWS}")
    if pivot_floor is None:
        from .precision import Precision

        pivot_floor = Precision.from_dtype(b.dtype).pivot_floor
    one = b.dtype.type(1)

    at = np.empty_like(b)
    ct = np.empty_like(b)
    dt = np.empty_like(b)
    # forward: row i becomes  at[i]*u0 + u[i] + ct[i]*u[i+1] = dt[i]
    if not abs(b[1]) >= pivot_floor:  # NaN pivots fail too
        raise ZeroPivot(1)
    at[1] = a[1] / b[1]
    ct[1] = c[1] / b[1]
    dt[1] = d[1] / b[1]
    for i in range(2, m):
        denom = b[i] - a[i] * ct[i - 1]
        if not abs(denom) >= pivot_floor:
            raise ZeroPivot(i)
        r = one / denom
        at[i] = -r * (a[i] * at[i - 1])
        ct[i] = r * c[i]
        dt[i] = r * (d[i] - a[i] * dt[i - 1])

    a_s = np.empty_like(b)
    c_s = np.empty_like(b)
    d_s = np.empty_like(b)
    # backward: interior row i becomes  a_s[i]*u0 + u[i] + c_s[i]*u[m-1] = d_s[i];
    # row m-1 keeps its outward coupling in c_s[m-1]
    for i in (m - 1, m - 2):
        a_s[i] = at[i]
        c_s[i] = ct[i]
        d_s[i] = dt[i]
    for i in range(m - 3, 0, -1):
        a_s[i] = at[i] - ct[i] * a_s[i + 1]
        c_s[i] = -ct[i] * c_s[i + 1]
        d_s[i] = dt[i] - ct[i] * d_s[i + 1]
    # row 0: eliminate u[1]; coupling to the previous tile stays in a_s[0]
    denom = b[0] - c[0] * a_s[1]
    if not abs(denom) >= pivot_floor:
        raise ZeroPivot(0)
    r = one / denom
    a_s[0] = r * a[0]
    c_s[0] = -r * (c[0] * c_s[1])
    d_s[0] = r * (d[0] - c[0] * d_s[1])
    return ModifiedTileResult(a_s, c_s, d_s)


def tile_system(system: TridiagonalSystem, plan: TilePlan) -> list[ModifiedTileResult]:
    if plan.n != system.n:
        raise InvalidTilePlan(f"plan covers {plan.n} rows, system has {system.n}")
    floor = system.precision.pivot_floor
    tiles = []
    for off, size in zip(plan.offsets, plan.sizes):
        sl = slice(off, off + size)
        tiles.append(modified_thomas_phase(system.a[sl], system.b[sl],
                                           system.c[sl], system.d[sl],
                                           pivot_floor=floor))
    return tiles


def assemble_reduced(tiles: list[ModifiedTileResult]) -> TridiagonalSystem:
    """Couple the tiles' boundary rows into one 2t-row tridiagonal system.

    Boundary unknowns are ordered (first, last) per tile, which makes the
    coupling pattern exactly tridiagonal with zero corners.
    """
    t = len(tiles)
    if t < 2:
        raise MismatchedTiles(f"need at least 2 tiles, got {t}")
    if any(tile.size < MIN_TILE_ROWS for tile in tiles):
        raise MismatchedTiles("tile results have inconsistent sizes")
    dtype = tiles[0].d_star.dtype
    ra = np.empty(2 * t, dtype=dtype)
    rb = np.ones(2 * t, dtype=dtype)
    rc = np.empty(2 * t, dtype=dtype)
    rd = np.empty(2 * t, dtype=dtype)
    for k, tile in enumerate(tiles):
        last = tile.size - 1
        ra[2 * k] = tile.a_star[0]
        rc[2 * k] = tile.c_star[0]
        rd[2 * k] = tile.d_star[0]
        ra[2 * k + 1] = tile.a_star[last]
        rc[2 * k + 1] = tile.c_star[last]
        rd[2 * k + 1] = tile.d_star[last]
    if ra[0] != 0.0 or rc[-1] != 0.0:
        raise MismatchedTiles("outermost tiles carry external couplings; "
                              "tiles are out of order or from different systems")
    return TridiagonalSystem(ra, rb, rc, rd)


def back_substitute(tiles: list[ModifiedTileResult], boundary) -> np.ndarray:
    """Recover the full solution from the reduced-system solution."""
    boundary = np.asarray(boundary)
    if boundary.shape[0] != 2 * len(tiles):
        raise MismatchedTiles(
            f"boundary has {boundary.shape[0]} values for {len(tiles)} tiles")
    parts = []
    for k, tile in enumerate(tiles):
        u0 = boundary[2 * k]
        um = boundary[2 * k + 1]
        u = tile.d_star - tile.a_star * u0 - tile.c_star * um
        u[0] = u0
        u[-1] = um
        parts.append(u)
    return np.concatenate(parts)


def thomas_thomas_solve(system: TridiagonalSystem, tiles: int, *,
                        check_dominance: bool = False) -> np.ndarray:
    """Tiled solve with a direct (Thomas) reduced-system solve."""
    return _tiled_solve(system, tiles, thomas_solve, check_dominance)


def thomas_pcr_solve(system: TridiagonalSystem, tiles: int, *,
                     check_dominance: bool = False) -> np.ndarray:
    """Tiled solve with a cyclic-reduction (PCR) reduced-system solve."""
    return _tiled_solve(system, tiles, pcr_solve, check_dominance)


def _tiled_solve(system, tiles, reduced_solver, check_dominance):
    if check_dominance:
        _require_dominance(system)
    plan = TilePlan(system.n, tiles)
    parts = tile_system(system, plan)
    reduced = assemble_reduced(parts)
    boundary = reduced_solver(reduced)
    u = back_substitute(parts, boundary)
    _check_finite(u[:, None])
    return u
