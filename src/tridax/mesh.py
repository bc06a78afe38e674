"""Batched structured meshes and axis-oriented line solves.

Storage is x-contiguous row-major per mesh: element ``(b, i, j, k)`` lives
at flat offset ``b*x*y*z + k*x*y + j*x + i``, i.e. the data array is shaped
``(batch, z, y, x)`` in C order. Lines along one axis form a batch of
independent tridiagonal systems. A sweep views the whole axis as one
``(n, lines)`` array (row i of every line side by side, the kernels' input
form), solves it in one kernel call and writes the result back through the
same view. Lines are numbered per mesh in sweep order:
x lines by (z, y), y lines by (z, x), z lines by (y, x).
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


def axis_lines(data: np.ndarray, axis: Axis) -> np.ndarray:
    """``(n, lines)`` array of every line along ``axis``, in sweep order.

    A view where the storage allows it (x lines), otherwise a copy.
    """
    dim = _STORAGE_DIM[axis]
    return np.moveaxis(data, dim, 0).reshape(data.shape[dim], -1)


def _line_coefficient(entry, mesh: Mesh, axis: Axis) -> np.ndarray:
    """The kernel form of one ``solve_lines`` coefficient entry.

    Every entry is taken in the swept mesh's dtype. A mesh shaped like
    ``mesh`` gives its ``(n, lines)`` axis view; a vector of the axis
    length gives the ``(n, 1)`` profile every line shares. Any other shape
    raises ``ValueError``.
    """
    if isinstance(entry, Mesh):
        if entry.data.shape != mesh.data.shape:
            raise ValueError(f"coefficient mesh has shape {entry.data.shape}, "
                             f"expected the swept mesh's {mesh.data.shape}")
        return np.asarray(axis_lines(entry.data, axis), dtype=mesh.data.dtype)
    profile = np.asarray(entry, dtype=mesh.data.dtype)
    n = mesh.extent(axis)
    if profile.shape != (n,):
        raise ValueError(f"coefficient profile has shape {profile.shape}, "
                         f"expected ({n},) for axis {axis.value}")
    return profile[:, None]


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
    call. A failure raises :class:`LineSolveError` naming the mesh and
    line. ``out`` may alias ``mesh`` for an in-place update; by default a
    new mesh is returned.
    """
    axis = Axis.parse(axis)
    if axis is Axis.Z and mesh.spatial_ndim == 2:
        raise ValueError("2-D mesh has no z axis")
    if out is None:
        out = Mesh(np.empty_like(mesh.data), mesh.spatial_ndim)
    elif out.data.shape != mesh.data.shape:
        raise ValueError("destination mesh shape differs from source")

    d = axis_lines(mesh.data, axis)
    a, b, c = (_line_coefficient(entry, mesh, axis) for entry in coefficients)
    kernel = core._kernel(algo, tiles)
    try:
        u = kernel(a, b, c, d)
    except (ZeroPivot, NonFiniteSolution) as exc:
        lines_per_mesh = d.shape[1] // mesh.batch
        raise LineSolveError(exc.line // lines_per_mesh, exc.line % lines_per_mesh,
                             axis.value) from exc
    dest = np.moveaxis(out.data, _STORAGE_DIM[axis], 0)  # the view axis_lines reshapes
    dest[...] = u.reshape(dest.shape)
    return out


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
