"""ADI heat-diffusion drivers over batched 2-D/3-D meshes.

Each step forms an explicit right-hand side from the 5-point (2-D) or
7-point (3-D) second-difference stencil scaled by the diffusion
coefficient, runs one implicit tridiagonal sweep per dimension over it
(each a single whole-axis kernel call whose constant coefficients are
shared by every line), and accumulates the result into the field:

    d      <- gamma * sum_axes (u[-1] - 2*u[0] + u[+1])     (interior, 0 on boundary)
    d      <- sweep(x), sweep(y)[, sweep(z)]                 each updating d
    u      <- u + d

Interior sweep rows are (-gamma/2, 1 + gamma, -gamma/2); boundary rows are
pinned identity rows with zero right-hand side, so the field's boundary
values never change (Dirichlet, taken from the initial field).

``adi_run`` computes the bits of the stencil above, the sweeps and
``u + d`` on a workspace that lasts the run, as the paper's data flow
generates coefficients once and stores no intermediate mesh. It factors
each axis's profile once with :func:`tridax.mesh.factor_lines`, before the
first iteration; the stencil writes into one right-hand side ``d``; each
sweep is one :func:`tridax.mesh.sweep_lines` call, which substitutes the
axis's lines in place or in one mesh-sized buffer (also the explicit
passes' scratch). The explicit passes walk the flat
field in chunks of ``STENCIL_CHUNK`` points, as the paper streams them
through on-chip buffers: the stencil runs all its operations on a chunk
while it stays in cache, and the update adds ``d`` into the run's own
field, takes ``max |d|`` and checks the result finite chunk by chunk.

The field and ``d`` are ``(batch, z, y, x)`` views of blocks whose memory
order is chosen once per run. A batch run, one value from each mesh side
by side, of at least ``BATCH_RUN_BYTES`` (one 64-byte cache line) puts the
batch innermost, in ``(z, y, x, batch)`` order; shorter runs keep storage
order. Either way the outermost non-unit axis (y of batched 2-D meshes, z
of 3-D ones, or of one 2-D mesh) is swept in place. Batch innermost, the
other sweeps copy whole batch runs instead of transposing single values;
that pays from one cache line on (runs were 9-24% faster than in storage
order at 64 bytes, 7-18% slower at 16). ``u0`` is copied in once, and the
result copied back to storage order once, into the scratch buffer.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .errors import LineSolveError, ZeroDuration
from .mesh import Mesh, _blocked_copy, factor_lines, sweep_lines
from .precision import Precision

REPORT_SCHEMA = "tridax.report.v1"
STENCIL_CHUNK = 32768  # points per chunk of the explicit passes, sized to stay in L2
BATCH_RUN_BYTES = 64  # one cache line: a batch run this long puts the batch innermost
# mesh transfers per iteration of each phase: the stencil reads one mesh and
# writes one, each sweep likewise, the update reads two and writes one
MESH_TRANSFERS = {"rhs": 2, "sweep": 2, "update": 3}


@dataclass
class AdiConfig:
    """Parameters of one ADI run."""

    gamma: float
    n_iter: int
    precision: Precision = Precision.FP64

    def __post_init__(self):
        if not 0 < self.gamma < np.inf:
            raise ValueError(f"gamma must be finite and positive, not {self.gamma}")
        with np.errstate(over="ignore"):
            if np.isinf(self.precision.dtype.type(self.gamma)):
                raise ValueError(f"gamma must be finite in {self.precision.value}, "
                                 f"not {self.gamma}")
        if self.n_iter < 1:
            raise ValueError("n_iter must be >= 1")

    def line_coefficients(self, n: int, dtype) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The ``(a, b, c)`` sweep profile of an axis of ``n`` points,
        shared by every line along it."""
        dtype = np.dtype(dtype)
        gm = dtype.type(self.gamma)
        one = dtype.type(1)
        off = -(dtype.type(0.5) * gm)
        a = np.full(n, off, dtype=dtype)
        b = np.full(n, one + gm, dtype=dtype)
        c = np.full(n, off, dtype=dtype)
        # pinned identity rows on the boundary
        a[0] = a[-1] = 0
        c[0] = c[-1] = 0
        b[0] = b[-1] = one
        return a, b, c


def effective_bandwidth(nbytes: float, seconds: float) -> float:
    """Logical traffic over wall time, in GB/s (1 GB = 1e9 bytes)."""
    if seconds <= 0:
        raise ZeroDuration(f"non-positive duration {seconds}")
    return nbytes / seconds / 1e9


def _gb_per_s(nbytes: int, seconds: float) -> float:
    """``effective_bandwidth``, or 0.0 for a zero time."""
    return effective_bandwidth(nbytes, seconds) if seconds > 0 else 0.0


def _workspace_axes(batch: int, dtype) -> tuple[int, ...]:
    """The storage axes ``(batch, z, y, x)`` in ``adi_run``'s memory order:
    batch innermost once a batch run, one value from each mesh, fills
    ``BATCH_RUN_BYTES``, else storage order."""
    return (1, 2, 3, 0) if batch * np.dtype(dtype).itemsize >= BATCH_RUN_BYTES else (0, 1, 2, 3)


def _stencil(arr: np.ndarray, ndim: int, gamma, d: np.ndarray, tmp: np.ndarray) -> None:
    """Write the right-hand side of field ``arr`` into ``d``, both
    ``(batch, z, y, x)`` views of one contiguous block laid out alike in
    memory; the flat ``tmp`` holds at least ``min(STENCIL_CHUNK, arr.size)``
    elements.

    Neighbors are the flat offsets of the x, y and z strides, so each
    operation runs on one contiguous range, in chunks of ``STENCIL_CHUNK``
    points that stay in cache through all of their operations. Its boundary
    points, where offsets cross a row or a mesh, and the points outside it
    are then zeroed face by face.
    """
    dtype = arr.dtype
    two = dtype.type(2)
    steps = [arr.strides[dim] // arr.itemsize for dim in (3, 2, 1)[:ndim]]
    flat, rhs = arr.ravel("K"), d.ravel("K")
    # the largest offset bounds the range; a unit axis may carry any
    # stride, but then every point is on its boundary
    first = max(steps)
    last = max(first, arr.size - first)
    with np.errstate(over="ignore", invalid="ignore"):  # boundary values are discarded
        for lo in range(first, last, STENCIL_CHUNK):
            hi = min(lo + STENCIL_CHUNK, last)
            ctr, acc, term = flat[lo:hi], rhs[lo:hi], tmp[:hi - lo]
            for k, step in enumerate(steps):
                dest = acc if k == 0 else term
                np.multiply(two, ctr, out=dest)
                np.subtract(flat[lo - step:hi - step], dest, out=dest)
                np.add(dest, flat[lo + step:hi + step], out=dest)
                if k:
                    np.add(acc, term, out=acc)
            np.multiply(dtype.type(gamma), acc, out=acc)
    for dim in range(4 - ndim, 4):
        face = [slice(None)] * 4
        for end in (0, -1):
            face[dim] = end
            d[tuple(face)] = 0


def _check_finite(arr: np.ndarray, iteration: int | None = None,
                  what: str = "field") -> None:
    """Raise ``ValueError`` naming ``what``, the first mesh of ``arr`` with a
    non-finite value, and the iteration if given; the clean path is one
    whole-field test."""
    if not np.all(np.isfinite(arr)):
        mesh = int(np.argmin(np.isfinite(arr).all(axis=(1, 2, 3))))
        at = "" if iteration is None else f" at iteration {iteration}"
        raise ValueError(f"{what} contains non-finite values in mesh {mesh}{at}")


def adi_run(u0: Mesh, cfg: AdiConfig) -> tuple[Mesh, dict]:
    """Run ``n_iter`` steps, accounting wall time and logical traffic.

    Returns ``(Mesh, payload)``: the final field and the ``tridax.report.v1``
    payload of plain JSON values. Its wall-clock values are each phase's and
    each step's ``seconds``, ``total_seconds`` and the GB/s figures (0.0 for a
    zero time); every other value follows from ``u0`` and ``cfg``. The
    ``update`` phase also times the finiteness check and ``delta_inf``, each
    iteration's ``max |d|``, made in its one pass over the field.

    ``u0`` is left untouched. A sweep profile with a failing pivot raises
    :class:`tridax.errors.LineSolveError`, naming the axis and every line,
    before the first iteration. A non-finite field raises ``ValueError``
    naming its first such mesh and the (0-based) iteration it entered:
    ``u0`` is checked before the loop and each update's result, the last
    included, in the update's chunked pass. A failing first sweep whose
    right-hand side is non-finite (the stencil overflowed, as a huge gamma
    makes it) raises ``ValueError`` naming gamma, the mesh and the iteration:
    that sweep is gathered, so ``d`` still holds the stencil's values.

    Each phase's logical traffic per iteration is ``MESH_TRANSFERS`` meshes;
    a sweep's coefficients are one profile per axis, generated once per run.
    """
    order = _workspace_axes(u0.batch, cfg.precision.dtype)
    arr = np.empty([u0.data.shape[k] for k in order], cfg.precision.dtype).transpose(
        np.argsort(order))  # the run's own copy: a (batch, z, y, x) view
    arr[...] = u0.data
    u = Mesh(arr, u0.spatial_ndim)
    axes = u.solved_axes()
    factors = {axis: factor_lines(u, cfg.line_coefficients(u.extent(axis), arr.dtype), axis)
               for axis in axes}
    _check_finite(arr, 0)
    d = np.empty_like(arr)  # laid out as arr
    work = np.empty(arr.size, dtype=arr.dtype)
    flat_u, flat_d = arr.ravel("K"), d.ravel("K")
    seconds = dict.fromkeys(["rhs", *(f"sweep_{axis.value}" for axis in axes), "update"], 0.0)
    delta_inf, steps = [], []
    step_start = time.perf_counter()
    for it in range(cfg.n_iter):
        t0 = time.perf_counter()
        _stencil(arr, u.spatial_ndim, cfg.gamma, d, work)
        seconds["rhs"] += time.perf_counter() - t0
        for axis in axes:
            t0 = time.perf_counter()
            try:
                sweep_lines(d, factors[axis], axis, work.reshape(u.extent(axis), -1))
            except LineSolveError:
                if axis is axes[0]:
                    _check_finite(d, it, f"the stencil right-hand side (gamma {cfg.gamma})")
                raise
            seconds[f"sweep_{axis.value}"] += time.perf_counter() - t0
        t0 = time.perf_counter()
        delta = 0.0
        for lo in range(0, arr.size, STENCIL_CHUNK):
            u_c, d_c = flat_u[lo:lo + STENCIL_CHUNK], flat_d[lo:lo + STENCIL_CHUNK]
            np.add(u_c, d_c, out=u_c)
            delta = max(delta, np.abs(d_c, out=work[:d_c.size]).max())
            if not np.isfinite(u_c).all():
                _check_finite(arr, it + 1)  # raises, naming the mesh
        seconds["update"] += time.perf_counter() - t0
        delta_inf.append(float(delta))
        now = time.perf_counter()
        steps.append({"iterations": it + 1, "seconds": now - step_start})
        step_start = now
    out = arr
    if not out.flags.c_contiguous:  # batch innermost: back to storage order in work
        out = work.reshape(arr.shape)
        _blocked_copy(out.reshape(u.batch, -1), arr.reshape(u.batch, -1))
    phases = {}
    for name, secs in seconds.items():
        nbytes = cfg.n_iter * MESH_TRANSFERS[name.partition("_")[0]] * u.nbytes
        phases[name] = {"seconds": secs, "bytes": nbytes, "gb_per_s": _gb_per_s(nbytes, secs)}
    total_seconds = sum(seconds.values())
    total_bytes = cfg.n_iter * logical_bytes_per_iteration(u.points, arr.itemsize, u.spatial_ndim)
    config = {"gamma": cfg.gamma, "n_iter": cfg.n_iter, "precision": cfg.precision.value,
              "dims": list(u0.dims), "batch": u0.batch}
    return Mesh(out, u0.spatial_ndim), {
        "schema_version": REPORT_SCHEMA, "config": config, "phases": phases,
        "total_seconds": total_seconds, "total_bytes": total_bytes,
        "effective_gb_per_s": _gb_per_s(total_bytes, total_seconds),
        "delta_inf": delta_inf, "steps": steps}


def logical_bytes_per_iteration(points: int, word_bytes: int, ndim: int) -> int:
    """Mesh traffic one ADI iteration touches: ``MESH_TRANSFERS`` of the
    stencil, each of the ``ndim`` sweeps and the update."""
    t = MESH_TRANSFERS
    return (t["rhs"] + ndim * t["sweep"] + t["update"]) * points * word_bytes
