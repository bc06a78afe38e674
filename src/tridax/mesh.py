"""Batched structured meshes and axis-oriented line solves.

Storage is x-contiguous row-major per mesh: element ``(b, i, j, k)`` lives
at flat offset ``b*x*y*z + k*x*y + j*x + i``, i.e. the data array is shaped
``(batch, z, y, x)`` in C order. Lines along one axis form a batch of
independent tridiagonal systems, numbered per mesh in sweep order:
x lines by (z, y), y lines by (z, x), z lines by (y, x).

A sweep gathers the whole axis into one contiguous ``(n, lines)`` array
(row i of every line side by side, the kernels' input form), solves it in
one kernel call and scatters the result back; one gather and one scatter,
on the axis-first view ``np.moveaxis(data, dim, 0)``, serve every sweep.
Every line along an axis shares one ``(a, b, c)`` profile, the form ADI
passes, as the paper's data flow generates each sweep's coefficients on
chip. X lines lie along the storage rows, so their gather and scatter are
transposes in cache-sized blocks of ``LINE_BLOCK`` lines. For repeated
sweeps, :func:`factor_lines` factors the profile once and
:func:`sweep_lines` substitutes each right-hand side.
:func:`sweep_lines` takes the ``(batch, z, y, x)`` view of a block in any
memory order, as ADI's batch-innermost ``(z, y, x, batch)`` workspace:
lines along the outermost non-unit axis of memory are already
``(n, lines)`` rows and are solved in place, lines along the innermost
axis are gathered by blocked transposes, and lines along any other axis by
a plain copy of whole inner runs.
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
        if len(dims) not in (2, 3):
            raise ValueError("dims must be (x, y) or (x, y, z)")
        if min(dims) < 1 or batch < 1:  # before np.zeros, which rejects negatives its own way
            raise ValueError("mesh extents must be positive")
        x, y, z = (*dims, 1)[:3]
        return cls(np.zeros((batch, z, y, x), dtype=precision.dtype), len(dims))

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


_STORAGE_DIM = {Axis.X: 3, Axis.Y: 2, Axis.Z: 1}  # axis position in (batch, z, y, x)
LINE_BLOCK = 64  # lines per block of a transposing copy: line gathers and scatters, tiles


def _blocked_copy(dst: np.ndarray, src: np.ndarray) -> None:
    """``dst[...] = src`` in blocks of ``LINE_BLOCK`` along the last axis, so
    a transposing copy keeps each block's rows in cache."""
    for lo in range(0, dst.shape[-1], LINE_BLOCK):
        dst[..., lo:lo + LINE_BLOCK] = src[..., lo:lo + LINE_BLOCK]


def _gather(view: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Contiguous ``(n, lines)`` copy of an ``(n, ...)`` line view, into
    ``out`` (C-contiguous) if given; lines along the contiguous memory axis
    by blocked transposes."""
    n = view.shape[0]
    if out is None:
        out = np.empty((n, view.size // n), dtype=view.dtype)
    rows = np.moveaxis(view, 0, -1)
    if rows.flags.c_contiguous:
        _blocked_copy(out, rows.reshape(-1, n).T)
    else:
        out.reshape(view.shape)[...] = view
    return out


def _scatter(lines: np.ndarray, view: np.ndarray) -> None:
    """Write ``(n, lines)`` values back into a line view: the inverse of
    :func:`_gather`, blocked the same way."""
    rows = np.moveaxis(view, 0, -1)
    if rows.flags.c_contiguous:
        _blocked_copy(rows.reshape(-1, view.shape[0]).T, lines)
    else:
        view[...] = lines.reshape(view.shape)


def _profile(profile: tuple, mesh: Mesh, axis: Axis) -> tuple[np.ndarray, ...]:
    """The ``(a, b, c)`` vectors every line of ``mesh`` along ``axis``
    shares, in ``mesh``'s dtype. An entry that is not a vector of the axis
    length, or a nonzero ``a[0]`` or ``c[n-1]``, raises ``ValueError``."""
    n = mesh.extent(axis)
    vectors = []
    for entry in profile:
        if np.shape(entry) != (n,):
            raise ValueError(f"coefficient profile entry has shape {np.shape(entry)}, "
                             f"expected ({n},) for axis {axis.value}")
        vectors.append(np.asarray(entry, dtype=mesh.data.dtype))
    a, b, c = vectors
    core._check_corners(a[0], c[-1])
    return a, b, c


def _line_error(exc: ZeroPivot | NonFiniteSolution, batch: int, lines: int,
                axis: Axis) -> LineSolveError:
    """The :class:`LineSolveError` for a failed kernel call over ``lines``
    lines of ``batch`` meshes, naming every failing (mesh, line)."""
    per_mesh = lines // batch
    return LineSolveError(exc.line // per_mesh, exc.line % per_mesh, axis.value,
                          [divmod(k, per_mesh) for k in exc.lines.tolist()])


def solve_lines(mesh: Mesh, profile: tuple, axis, algo: str = "thomas",
                *, tiles: int | None = None) -> Mesh:
    """Solve every line system along ``axis`` and return the solutions as
    a new mesh.

    The entry point for a mesh axis, as :func:`tridax.core.solve_system`
    is for one system, :func:`tridax.core.batch_solve` for a batch and
    :func:`tridax.adi.adi_run` for the ADI application. The mesh holds the
    right-hand sides. ``profile`` is the tuple ``(a, b, c)`` of vectors of
    the axis length that every line shares, as each ADI sweep's are. They
    are taken in the mesh's dtype, so the arithmetic and the pivot floor
    follow the swept mesh; an entry of any other shape, or a nonzero
    ``a[0]`` or ``c[n-1]``, raises ``ValueError``. Every algorithm, the
    tiled hybrids included, solves the whole axis in one
    ``kernel(a, b, c, d)`` call on the gathered lines, the profile as
    ``(n, 1)`` columns. A failure raises :class:`LineSolveError` naming
    every failing mesh and line; a failed pivot fails every line.
    """
    axis = Axis.parse(axis)
    if axis is Axis.Z and mesh.spatial_ndim == 2:
        raise ValueError("2-D mesh has no z axis")
    a, b, c = (v[:, None] for v in _profile(profile, mesh, axis))
    d = _gather(np.moveaxis(mesh.data, _STORAGE_DIM[axis], 0))
    kernel = core._kernel(algo, tiles)
    try:
        u = kernel(a, b, c, d)
    except (ZeroPivot, NonFiniteSolution) as exc:
        raise _line_error(exc, mesh.batch, d.shape[1], axis) from exc
    out = Mesh(np.empty_like(mesh.data), mesh.spatial_ndim)
    _scatter(u, np.moveaxis(out.data, _STORAGE_DIM[axis], 0))
    return out


def factor_lines(mesh: Mesh, profile: tuple, axis: Axis):
    """Thomas factor of the ``(a, b, c)`` vectors shared by every line of
    ``mesh`` along ``axis``, for :func:`sweep_lines`; a misshapen entry or
    a nonzero ``a[0]`` or ``c[n-1]`` raises ``ValueError``, a failed pivot
    :class:`LineSolveError` naming every line."""
    factor, failed = core._thomas_factor(*_profile(profile, mesh, axis))
    lines = mesh.points // mesh.extent(axis)
    no_rows = np.empty((0, lines), dtype=mesh.data.dtype)  # so the check covers pivots alone
    try:
        core._check(no_rows, [(failed[:, None], range(len(failed)))])
    except ZeroPivot as exc:
        raise _line_error(exc, mesh.batch, lines, axis) from exc
    return factor


def sweep_lines(data: np.ndarray, factor, axis: Axis, work: np.ndarray) -> None:
    """Solve every line of ``data`` along ``axis`` in place with a
    :func:`factor_lines` factor.

    ``data`` is ``(batch, z, y, x)`` over one contiguous block of memory in
    any axis order, and the swept axis's place in that order picks the line
    view. Along the outermost non-unit axis the lines are one contiguous
    ``(n, lines)`` view, substituted in place. Along any other axis they
    are gathered into ``work``, a C-contiguous ``(n, lines)`` buffer, and
    scattered back: by blocked transposes along the innermost axis, else by
    a plain copy. Non-finite solutions raise :class:`LineSolveError`, naming
    every such line by its sweep-order number whatever the memory order: a
    gathered sweep then leaves ``data`` as it was, while an in-place sweep
    leaves every line substituted, each failed one partly non-finite.
    """
    view = np.moveaxis(data, _STORAGE_DIM[axis], 0)
    order = [0, *sorted(range(1, 4), key=lambda k: -view.strides[k])]  # outermost first
    view = view.transpose(order)
    in_place = view.flags.c_contiguous
    lines = view.reshape(view.shape[0], -1) if in_place else _gather(view, work)
    core._thomas_substitute(factor, lines, lines)
    if not np.isfinite(lines[0]).all():  # a non-finite row reaches row 0 of its line
        in_sweep_order = lines.reshape(view.shape).transpose(np.argsort(order))
        try:
            core._check(in_sweep_order.reshape(lines.shape), [])
        except NonFiniteSolution as exc:
            raise _line_error(exc, data.shape[0], lines.shape[1], axis) from exc
    if not in_place:
        _scatter(lines, view)


# ---------------------------------------------------------------------------
# Binary mesh format: 32-byte header (magic "TRIDAX01"; precision bits,
# batch, x, y, z as little-endian uint32; z == 0 marks a 2-D mesh) followed
# by raw little-endian scalars in storage order.
# ---------------------------------------------------------------------------


def write_mesh(path, mesh: Mesh) -> None:
    """Write ``mesh`` to ``path``; a file this call opened but could not
    finish is removed, so there are no partial outputs."""
    x, y = mesh.dims[0], mesh.dims[1]
    z = mesh.dims[2] if mesh.spatial_ndim == 3 else 0
    bits = 32 if mesh.precision is Precision.FP32 else 64
    header = _HEADER.pack(MESH_MAGIC, bits, mesh.batch, x, y, z)
    le = mesh.data.astype("<f4" if bits == 32 else "<f8", copy=False)
    fh = open(path, "wb")
    try:
        with fh:
            fh.write(header)
            fh.write(le.tobytes())
    except BaseException:
        os.unlink(path)
        raise


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
