"""Batched structured meshes and axis-oriented line solves.

Storage is x-contiguous row-major per mesh: element ``(b, i, j, k)`` lives
at flat offset ``b*x*y*z + k*x*y + j*x + i``, i.e. the data array is shaped
``(batch, z, y, x)`` in C order. Lines along one axis form a batch of
independent tridiagonal systems, numbered per mesh in sweep order:
x lines by (z, y), y lines by (z, x), z lines by (y, x).

A sweep gathers the whole axis into one contiguous ``(n, lines)`` array
(row i of every line side by side, the kernels' input form), solves it in
one kernel call and scatters the result back. X lines lie along the
storage rows, so their gather and scatter are transposes in cache-sized
blocks of ``LINE_BLOCK`` lines. For repeated sweeps with one shared
profile, :func:`factor_lines` factors it once and :func:`sweep_lines`
substitutes each right-hand side.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import core
from .errors import LineSolveError, NonFiniteSolution, ZeroPivot
from .precision import Precision

MESH_MAGIC = b"TRIDAX01"
_HEADER = struct.Struct("<8s5I4x")  # magic, precision bits, B, x, y, z; padded to 32 bytes
assert _HEADER.size == 32


class Axis(Enum):
    X = "x"
    Y = "y"
    Z = "z"

    @classmethod
    def parse(cls, name) -> "Axis":
        if isinstance(name, Axis):
            return name
        try:
            return cls(str(name).lower())
        except ValueError:
            raise ValueError(f"unknown axis {name!r}") from None


@dataclass
class Mesh:
    """A batch of scalar fields over one rectangular 2-D or 3-D domain."""

    data: np.ndarray  # (batch, z, y, x)
    spatial_ndim: int

    def __post_init__(self):
        if self.data.ndim != 4:
            raise ValueError(f"mesh storage must be (batch, z, y, x), got {self.data.shape}")
        if self.spatial_ndim not in (2, 3):
            raise ValueError("mesh must be 2-D or 3-D")
        if self.spatial_ndim == 2 and self.data.shape[1] != 1:
            raise ValueError("2-D mesh must have z extent 1")
        if min(self.data.shape) < 1:
            raise ValueError("mesh extents must be positive")
        Precision.from_dtype(self.data.dtype)

    @classmethod
    def zeros(cls, dims, batch: int = 1, precision: Precision = Precision.FP64) -> "Mesh":
        dims = tuple(int(e) for e in dims)
        if len(dims) == 2:
            dims = dims + (1,)
            ndim = 2
        elif len(dims) == 3:
            ndim = 3
        else:
            raise ValueError("dims must be (x, y) or (x, y, z)")
        x, y, z = dims
        return cls(np.zeros((batch, z, y, x), dtype=precision.dtype), ndim)

    @property
    def batch(self) -> int:
        return self.data.shape[0]

    @property
    def dims(self) -> tuple[int, ...]:
        b, z, y, x = self.data.shape
        return (x, y) if self.spatial_ndim == 2 else (x, y, z)

    @property
    def precision(self) -> Precision:
        return Precision.from_dtype(self.data.dtype)

    @property
    def points(self) -> int:
        return int(self.data.size)

    @property
    def nbytes(self) -> int:
        return int(self.data.nbytes)

    def extent(self, axis: Axis) -> int:
        b, z, y, x = self.data.shape
        return {Axis.X: x, Axis.Y: y, Axis.Z: z}[axis]

    def solved_axes(self) -> tuple[Axis, ...]:
        return (Axis.X, Axis.Y) if self.spatial_ndim == 2 else (Axis.X, Axis.Y, Axis.Z)

    def copy(self) -> "Mesh":
        return Mesh(self.data.copy(), self.spatial_ndim)

    def astype(self, precision: Precision) -> "Mesh":
        return Mesh(self.data.astype(precision.dtype), self.spatial_ndim)

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.data)))


_STORAGE_DIM = {Axis.X: 3, Axis.Y: 2, Axis.Z: 1}  # axis position in (batch, z, y, x)
LINE_BLOCK = 64  # lines per block of a transposing copy: x-line gather and scatter, tiles


def _blocked_copy(dst: np.ndarray, src: np.ndarray) -> None:
    """``dst[...] = src`` in blocks of ``LINE_BLOCK`` along the last axis, so
    a transposing copy keeps each block's rows in cache."""
    for lo in range(0, dst.shape[-1], LINE_BLOCK):
        dst[..., lo:lo + LINE_BLOCK] = src[..., lo:lo + LINE_BLOCK]


def axis_lines(data: np.ndarray, axis: Axis) -> np.ndarray:
    """``(n, lines)`` array of every line along ``axis``, in sweep order.

    A view where the storage allows it: x lines, read with a stride of
    ``x`` elements. Sweeps solve on :func:`gather_lines`'s contiguous copy.
    """
    dim = _STORAGE_DIM[axis]
    return np.moveaxis(data, dim, 0).reshape(data.shape[dim], -1)


def gather_lines(data: np.ndarray, axis: Axis, out: np.ndarray | None = None) -> np.ndarray:
    """Contiguous ``(n, lines)`` copy of :func:`axis_lines`, into ``out``
    (C-contiguous) if given; x lines by blocked transposes."""
    view = np.moveaxis(data, _STORAGE_DIM[axis], 0)
    if out is None:
        out = np.empty((view.shape[0], data.size // view.shape[0]), dtype=data.dtype)
    if axis is Axis.X and data.flags.c_contiguous:
        _blocked_copy(out, data.reshape(-1, view.shape[0]).T)
    else:
        out.reshape(view.shape)[...] = view
    return out


def scatter_lines(lines: np.ndarray, data: np.ndarray, axis: Axis) -> None:
    """Write ``(n, lines)`` line values back into ``data``: the inverse of
    :func:`gather_lines`, blocked the same way."""
    view = np.moveaxis(data, _STORAGE_DIM[axis], 0)
    if axis is Axis.X and data.flags.c_contiguous:
        _blocked_copy(data.reshape(-1, view.shape[0]).T, lines)
    else:
        view[...] = lines.reshape(view.shape)


def _line_coefficient(entry, mesh: Mesh, axis: Axis) -> np.ndarray:
    """The kernel form of one ``solve_lines`` coefficient entry.

    Every entry is taken in the swept mesh's dtype. A mesh shaped like
    ``mesh`` gives its gathered ``(n, lines)`` lines; a vector of the axis
    length gives the ``(n, 1)`` profile every line shares. Any other shape
    raises ``ValueError``.
    """
    if isinstance(entry, Mesh):
        if entry.data.shape != mesh.data.shape:
            raise ValueError(f"coefficient mesh has shape {entry.data.shape}, "
                             f"expected the swept mesh's {mesh.data.shape}")
        return np.asarray(gather_lines(entry.data, axis), dtype=mesh.data.dtype)
    return _profile(entry, mesh, axis)[:, None]


def _profile(entry, mesh: Mesh, axis: Axis) -> np.ndarray:
    """A coefficient vector of ``axis``'s length in ``mesh``'s dtype; any
    other shape raises ``ValueError``."""
    profile = np.asarray(entry, dtype=mesh.data.dtype)
    n = mesh.extent(axis)
    if profile.shape != (n,):
        raise ValueError(f"coefficient profile has shape {profile.shape}, "
                         f"expected ({n},) for axis {axis.value}")
    return profile


def _line_error(exc: ZeroPivot | NonFiniteSolution, batch: int, lines: int,
                axis: Axis) -> LineSolveError:
    """The :class:`LineSolveError` for a failed kernel call over ``lines``
    lines of ``batch`` meshes, naming every failing (mesh, line)."""
    per_mesh = lines // batch
    return LineSolveError(exc.line // per_mesh, exc.line % per_mesh, axis.value,
                          [divmod(k, per_mesh) for k in exc.lines.tolist()])


def solve_lines(mesh: Mesh, coefficients: tuple, axis, algo: str = "thomas",
                *, tiles: int | None = None, out: Mesh | None = None) -> Mesh:
    """Solve every line system along ``axis``, writing solutions over ``d``.

    The entry point for a mesh axis, as :func:`tridax.core.solve_system`
    is for one system, :func:`tridax.core.batch_solve` for a batch and
    :func:`tridax.adi.adi_run` for the ADI application. The mesh holds the
    right-hand sides. ``coefficients`` is the tuple
    ``(a, b, c)``; each entry is either a mesh shaped like ``mesh``, giving
    every line its own coefficients, or a vector of the axis length, shared
    by every line. Entries are taken in the mesh's dtype, so the arithmetic
    and the pivot floor follow the swept mesh. Every algorithm, the tiled
    hybrids included, solves the whole axis in one ``kernel(a, b, c, d)``
    call on the gathered lines. A failure raises :class:`LineSolveError`
    naming every failing mesh and line. ``out`` may alias ``mesh`` for an
    in-place update; by default a new mesh is returned.
    """
    axis = Axis.parse(axis)
    if axis is Axis.Z and mesh.spatial_ndim == 2:
        raise ValueError("2-D mesh has no z axis")
    if out is None:
        out = Mesh(np.empty_like(mesh.data), mesh.spatial_ndim)
    elif out.data.shape != mesh.data.shape:
        raise ValueError("destination mesh shape differs from source")

    a, b, c = (_line_coefficient(entry, mesh, axis) for entry in coefficients)
    d = gather_lines(mesh.data, axis)
    kernel = core._kernel(algo, tiles)
    try:
        u = kernel(a, b, c, d)
    except (ZeroPivot, NonFiniteSolution) as exc:
        raise _line_error(exc, mesh.batch, d.shape[1], axis) from exc
    scatter_lines(u, out.data, axis)
    return out


def factor_lines(mesh: Mesh, profile: tuple, axis: Axis):
    """Thomas factor of the ``(a, b, c)`` vectors shared by every line of
    ``mesh`` along ``axis``, for :func:`sweep_lines`; a failed pivot raises
    :class:`LineSolveError` naming every line."""
    a, b, c = (_profile(entry, mesh, axis) for entry in profile)
    factor, failed = core._thomas_factor(a, b, c)
    lines = mesh.points // mesh.extent(axis)
    no_rows = np.empty((0, lines), dtype=mesh.data.dtype)  # so the check covers pivots alone
    try:
        core._check(no_rows, [(failed[:, None], range(len(failed)))])
    except ZeroPivot as exc:
        raise _line_error(exc, mesh.batch, lines, axis) from exc
    return factor


def sweep_lines(data: np.ndarray, factor, axis: Axis, work: np.ndarray) -> None:
    """Solve every line of ``data`` along ``axis`` in place with a
    :func:`factor_lines` factor, gathered into ``work``, a C-contiguous
    ``(n, lines)`` buffer. Non-finite solutions raise
    :class:`LineSolveError`, naming every such line, and leave ``data``."""
    lines = gather_lines(data, axis, out=work)
    core._thomas_substitute(factor, lines, lines)
    try:
        core._check(lines, [])
    except NonFiniteSolution as exc:
        raise _line_error(exc, data.shape[0], lines.shape[1], axis) from exc
    scatter_lines(lines, data, axis)


# ---------------------------------------------------------------------------
# Binary mesh format: 32-byte header (magic "TRIDAX01"; precision bits,
# batch, x, y, z as little-endian uint32; z == 0 marks a 2-D mesh) followed
# by raw little-endian scalars in storage order.
# ---------------------------------------------------------------------------


def write_mesh(path, mesh: Mesh) -> None:
    x, y = mesh.dims[0], mesh.dims[1]
    z = mesh.dims[2] if mesh.spatial_ndim == 3 else 0
    bits = 32 if mesh.precision is Precision.FP32 else 64
    header = _HEADER.pack(MESH_MAGIC, bits, mesh.batch, x, y, z)
    le = mesh.data.astype("<f4" if bits == 32 else "<f8", copy=False)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(le.tobytes())


def read_mesh(path) -> Mesh:
    with open(path, "rb") as fh:
        raw = fh.read(_HEADER.size)
        if len(raw) != _HEADER.size:
            raise ValueError("truncated mesh header")
        magic, bits, batch, x, y, z = _HEADER.unpack(raw)
        if magic != MESH_MAGIC:
            raise ValueError(f"bad mesh magic {magic!r}")
        if bits not in (32, 64):
            raise ValueError(f"bad precision code {bits}")
        ndim = 2 if z == 0 else 3
        z = max(z, 1)
        dtype = np.dtype("<f4" if bits == 32 else "<f8")
        expected = batch * x * y * z * dtype.itemsize
        payload = os.fstat(fh.fileno()).st_size - _HEADER.size
        if payload != expected:  # checked before anything is allocated or read
            raise ValueError(f"mesh payload has {payload} bytes, expected {expected} "
                             f"for {batch}x{x}x{y}x{z} scalars")
        data = np.empty((batch, z, y, x), dtype=dtype)
        got = fh.readinto(data)
        if got != expected:
            raise ValueError(f"read {got} mesh payload bytes, expected {expected}")
    return Mesh(data.astype(np.float32 if bits == 32 else np.float64, copy=False), ndim)
