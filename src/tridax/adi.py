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
values never change (Dirichlet, taken from the initial field). The
``literal_coefficients`` flag switches the sweep diagonal to the bare
``gamma`` form for model-comparison runs; that variant is not a consistent
time step and is off by default.

``adi_run`` computes the bits of ``adi_rhs``, :func:`tridax.mesh.solve_lines`
per axis and ``u + d`` on a workspace that lasts the run, as the paper's
data flow generates coefficients once and stores no intermediate mesh. It
factors each axis's profile once, before the first iteration; the stencil
writes into one right-hand side ``d``; each sweep gathers its lines into
one mesh-sized buffer (also the explicit passes' scratch), substitutes
them there and scatters them back. The explicit passes walk the flat
field in chunks of ``STENCIL_CHUNK`` points, as the paper streams them
through on-chip buffers: the stencil runs all its operations on a chunk
while it stays in cache, and the update adds ``d`` into the run's own
field, takes ``max |d|`` and checks the result finite chunk by chunk.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ZeroDuration
from .mesh import Mesh, factor_lines, sweep_lines
from .precision import Precision

REPORT_SCHEMA = "tridax.report.v1"
STENCIL_CHUNK = 32768  # points per chunk of the explicit passes, sized to stay in L2


@dataclass
class AdiConfig:
    """Parameters of one ADI run.

    ``unroll`` groups that many iterations into one reporting step; it
    never changes the arithmetic (loop unrolling is a pipeline
    optimization with no numerical effect).
    """

    gamma: float
    n_iter: int
    unroll: int = 1
    precision: Precision = Precision.FP64
    literal_coefficients: bool = False

    def __post_init__(self):
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if self.n_iter < 1:
            raise ValueError("n_iter must be >= 1")
        if self.unroll < 1:
            raise ValueError("unroll must be >= 1")

    def line_coefficients(self, n: int, dtype) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The ``(a, b, c)`` sweep profile of an axis of ``n`` points,
        shared by every line along it."""
        dtype = np.dtype(dtype)
        gm = dtype.type(self.gamma)
        one = dtype.type(1)
        off = -(dtype.type(0.5) * gm)
        a = np.full(n, off, dtype=dtype)
        b = np.full(n, gm if self.literal_coefficients else one + gm, dtype=dtype)
        c = np.full(n, off, dtype=dtype)
        # pinned identity rows on the boundary
        a[0] = a[-1] = 0
        c[0] = c[-1] = 0
        b[0] = b[-1] = one
        return a, b, c


@dataclass
class PhaseStats:
    seconds: float = 0.0
    bytes: int = 0

    @property
    def gb_per_s(self) -> float:
        return effective_bandwidth(self.bytes, self.seconds) if self.seconds > 0 else 0.0


@dataclass
class RunReport:
    """Per-phase timing/traffic and per-iteration update norms.

    In ``adi_run`` the ``update`` phase also times the finiteness check and
    ``delta_inf``, made in its one pass over the field.
    """

    phases: dict[str, PhaseStats] = field(default_factory=dict)
    delta_inf: list[float] = field(default_factory=list)
    steps: list[dict] = field(default_factory=list)
    config: dict = field(default_factory=dict)

    def phase(self, name: str) -> PhaseStats:
        return self.phases.setdefault(name, PhaseStats())

    @property
    def total_seconds(self) -> float:
        return sum(p.seconds for p in self.phases.values())

    @property
    def total_bytes(self) -> int:
        return sum(p.bytes for p in self.phases.values())

    def to_dict(self) -> dict:
        return {
            "schema_version": REPORT_SCHEMA,
            "config": self.config,
            "phases": {
                name: {"seconds": p.seconds, "bytes": p.bytes, "gb_per_s": p.gb_per_s}
                for name, p in self.phases.items()
            },
            "total_seconds": self.total_seconds,
            "total_bytes": self.total_bytes,
            "effective_gb_per_s": (effective_bandwidth(self.total_bytes, self.total_seconds)
                                   if self.total_seconds > 0 else 0.0),
            "delta_inf": self.delta_inf,
            "steps": self.steps,
        }

    def csv_rows(self) -> list[list]:
        rows = [["schema_version", REPORT_SCHEMA],
                ["phase", "seconds", "bytes", "gb_per_s"]]
        for name, p in self.phases.items():
            rows.append([name, f"{p.seconds:.9f}", p.bytes, f"{p.gb_per_s:.6f}"])
        return rows


def effective_bandwidth(nbytes: float, seconds: float) -> float:
    """Logical traffic over wall time, in GB/s (1 GB = 1e9 bytes)."""
    if seconds <= 0:
        raise ZeroDuration(f"non-positive duration {seconds}")
    return nbytes / seconds / 1e9


def _stencil(arr: np.ndarray, ndim: int, gamma, d: np.ndarray, tmp: np.ndarray) -> None:
    """Write the right-hand side of field ``arr`` into ``d``, both C-contiguous
    ``(batch, z, y, x)``; the flat ``tmp`` holds at least
    ``min(STENCIL_CHUNK, arr.size)`` elements.

    Neighbors are flat offsets (1, ``x``, ``x*y``), so each operation runs
    on one contiguous range, in chunks of ``STENCIL_CHUNK`` points that stay
    in cache through all of their operations. Its boundary points, where
    offsets cross a row or a mesh, and the points outside it are then
    zeroed face by face.
    """
    dtype = arr.dtype
    two = dtype.type(2)
    _, _, y, x = arr.shape
    steps = (1, x) if ndim == 2 else (1, x, x * y)
    flat, rhs = arr.reshape(-1), d.reshape(-1)
    first, last = steps[-1], max(steps[-1], arr.size - steps[-1])
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


def _check_finite(arr: np.ndarray, iteration: int | None = None) -> None:
    """Raise ``ValueError`` naming the first mesh of ``arr`` with a non-finite
    value, and the iteration if given; the clean path is one whole-field test."""
    if not np.all(np.isfinite(arr)):
        mesh = next(k for k, field in enumerate(arr) if not np.all(np.isfinite(field)))
        at = "" if iteration is None else f" at iteration {iteration}"
        raise ValueError(f"field contains non-finite values in mesh {mesh}{at}")


def adi_rhs(u: Mesh, cfg: AdiConfig) -> Mesh:
    """Explicit stencil phase: returns the right-hand side mesh ``d``.

    ``d`` is the scaled sum of per-axis second differences at interior
    points and zero on every boundary point. A non-finite field raises
    ``ValueError`` naming its first such mesh.
    """
    _check_finite(u.data)
    arr = np.ascontiguousarray(u.data)
    d = Mesh(np.empty_like(arr), u.spatial_ndim)
    _stencil(arr, u.spatial_ndim, cfg.gamma, d.data,
             np.empty(min(STENCIL_CHUNK, arr.size), arr.dtype))
    return d


def adi_run(u0: Mesh, cfg: AdiConfig) -> tuple[Mesh, RunReport]:
    """Run ``n_iter`` steps, accounting wall time and logical traffic.

    ``u0`` is left untouched. A sweep profile with a failing pivot raises
    :class:`tridax.errors.LineSolveError`, naming the axis and every line,
    before the first iteration. A non-finite field raises ``ValueError``
    naming its first such mesh and the (0-based) iteration it entered:
    ``u0`` is checked before the loop and each update's result, the last
    included, in the update's chunked pass.

    Per iteration the stencil phase reads one mesh and writes one; each
    sweep reads and writes one mesh (its coefficients are one profile per
    axis, generated once per run); the accumulate phase reads two meshes
    and writes one.
    """
    report = RunReport(config={
        "gamma": cfg.gamma, "n_iter": cfg.n_iter, "unroll": cfg.unroll,
        "precision": cfg.precision.value, "dims": list(u0.dims),
        "batch": u0.batch, "literal_coefficients": cfg.literal_coefficients,
    })
    u = Mesh(u0.data.astype(cfg.precision.dtype, order="C"), u0.spatial_ndim)  # the run's own copy
    arr = u.data
    mesh_bytes = u.nbytes
    axes = u.solved_axes()
    factors = {axis: factor_lines(u, cfg.line_coefficients(u.extent(axis), arr.dtype), axis)
               for axis in axes}
    _check_finite(arr, 0)
    d = np.empty_like(arr)
    work = np.empty(arr.size, dtype=arr.dtype)
    flat_u, flat_d = arr.reshape(-1), d.reshape(-1)
    step_start = time.perf_counter()
    for it in range(cfg.n_iter):
        t0 = time.perf_counter()
        _stencil(arr, u.spatial_ndim, cfg.gamma, d, work)
        t1 = time.perf_counter()
        rhs = report.phase("rhs")
        rhs.seconds += t1 - t0
        rhs.bytes += 2 * mesh_bytes
        for axis in axes:
            t0 = time.perf_counter()
            sweep_lines(d, factors[axis], axis, work.reshape(u.extent(axis), -1))
            t1 = time.perf_counter()
            sweep = report.phase(f"sweep_{axis.value}")
            sweep.seconds += t1 - t0
            sweep.bytes += 2 * mesh_bytes
        t0 = time.perf_counter()
        delta = 0.0
        for lo in range(0, arr.size, STENCIL_CHUNK):
            u_c, d_c = flat_u[lo:lo + STENCIL_CHUNK], flat_d[lo:lo + STENCIL_CHUNK]
            np.add(u_c, d_c, out=u_c)
            delta = max(delta, np.abs(d_c, out=work[:d_c.size]).max())
            if not np.isfinite(u_c).all():
                _check_finite(arr, it + 1)  # raises, naming the mesh
        t1 = time.perf_counter()
        upd = report.phase("update")
        upd.seconds += t1 - t0
        upd.bytes += 3 * mesh_bytes
        report.delta_inf.append(float(delta))
        if (it + 1) % cfg.unroll == 0 or it + 1 == cfg.n_iter:
            now = time.perf_counter()
            report.steps.append({"iterations": it + 1, "seconds": now - step_start})
            step_start = now
    return u, report


def logical_bytes_per_iteration(points: int, word_bytes: int, ndim: int) -> int:
    """Mesh traffic one ADI iteration touches, per the phase accounting.

    Stencil: 2 mesh transfers; each of the ``ndim`` sweeps: 2; accumulate: 3.
    """
    return (2 + 2 * ndim + 3) * points * word_bytes
