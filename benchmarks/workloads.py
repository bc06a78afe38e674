"""The benchmark's workloads: seeded inputs, one timed operation, an FP64
reference and the checks every operation's output must pass.

Each workload calls only public ``tridax`` entry points, looked up on their
module at call time so the traced run's wrappers see every call, and
passes no tuning knob (group, width, threads, unroll, literal
coefficients): the program's defaults are what is measured.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from tridax import adi, cli, core, mesh, reference
from tridax.perfmodel import Algorithm, DesignPoint
from tridax.precision import Precision

MESH_HEADER_BYTES = 32  # binary mesh/batch file header


def dominant_batch(count: int, n: int, precision: Precision, margin: float,
                   rng: np.random.Generator) -> core.TridiagonalBatch:
    """Strictly diagonally dominant systems, drawn as the CLI's generator does."""
    a = rng.uniform(-1.0, 1.0, (count, n))
    c = rng.uniform(-1.0, 1.0, (count, n))
    a[:, 0] = 0.0
    c[:, -1] = 0.0
    b = np.abs(a) + np.abs(c) + rng.uniform(margin, margin + 1.0, (count, n))
    d = rng.uniform(-1.0, 1.0, (count, n))
    dt = precision.dtype
    return core.TridiagonalBatch(a.astype(dt), b.astype(dt), c.astype(dt), d.astype(dt))


class BatchWorkload:
    """``count`` systems of ``n`` rows through ``core.batch_solve``.

    With ``via_file`` the operation is the ``tridax solve --input`` path:
    read the batch file, solve, write the solution file, check residuals.
    Without it the batch is held in memory and the file steps are skipped.
    """

    def __init__(self, name, precision, count, n, algo, model_algo, tiles=None,
                 via_file=False, margin=1.0, calibration=None):
        self.name = name
        self.precision = precision
        self.count = count
        self.n = n
        self.algo = algo
        self.tiles = tiles
        self.via_file = via_file
        self.margin = margin
        self.design = DesignPoint(model_algo, precision=precision, tiles=tiles)
        self.problem = {"batch": count, "n": n}
        self.calibration = calibration  # problem of a published FPGA measurement
        self.sizes = {"count": count, "n": n, "precision": precision.value,
                      "algo": algo, "tiles": tiles, "via_file": via_file,
                      "margin": margin}

    def setup(self, seed: int, workdir: Path) -> dict:
        batch = dominant_batch(self.count, self.n, self.precision, self.margin,
                               np.random.default_rng(seed))
        inputs = {"batch": batch}
        if self.via_file:
            inputs["in_path"] = workdir / "batch.bin"
            inputs["out_path"] = workdir / "solutions.bin"
            cli.write_batch(inputs["in_path"], batch)
        return inputs

    def reference(self, inputs: dict) -> np.ndarray:
        b = inputs["batch"]
        return np.array([reference.thomas_scalar(b.a[i].tolist(), b.b[i].tolist(),
                                                 b.c[i].tolist(), b.d[i].tolist())
                         for i in range(b.count)])

    def op(self, inputs: dict):
        batch = cli.read_batch(inputs["in_path"]) if self.via_file else inputs["batch"]
        solutions = core.batch_solve(batch, self.algo, self.tiles)
        sol = np.stack(solutions)
        if self.via_file:
            mesh.write_mesh(inputs["out_path"],
                            mesh.Mesh(sol.reshape(batch.count, 1, 1, batch.n), 2))
        max_res = max(core.residual_max_norm(batch.system(i), solutions[i])
                      for i in range(batch.count))
        return sol, max_res

    @staticmethod
    def output(out) -> np.ndarray:
        return out[0]

    def check(self, inputs: dict, ref: np.ndarray, out) -> tuple[float, list[str]]:
        sol, max_res = out
        problems = []
        if not (np.all(np.isfinite(sol)) and np.isfinite(max_res)):
            problems.append("non-finite solution or residual")
        err = core.relative_inf_error(sol, ref)
        if not err <= self.precision.tolerance:
            problems.append(f"max_rel_error {err:.3e} > {self.precision.tolerance:.0e}")
        if self.via_file:
            back = mesh.read_mesh(inputs["out_path"]).data
            if back.shape != (self.count, 1, 1, self.n) or back.tobytes() != sol.tobytes():
                problems.append("solution file read back differs from the in-memory solutions")
        return err, problems

    @property
    def unknowns(self) -> int:
        return self.count * self.n

    def span_bytes(self) -> dict[str, int]:
        """Computed logical bytes per operation: a, b, c, d in and u out."""
        values = self.count * self.n * self.precision.word_bytes
        out = {"core.batch_solve": 5 * values}
        if self.via_file:
            out["cli.read_batch"] = MESH_HEADER_BYTES + 4 * values
            out["mesh.write_mesh"] = MESH_HEADER_BYTES + values
        return out

    @property
    def logical_bytes(self) -> int:
        return self.span_bytes()["core.batch_solve"]


class AdiWorkload:
    """``adi.adi_run`` over ``batch`` meshes of ``dims`` with the default config.

    The plain-loop reference is slow, so it covers the meshes in
    ``ref_meshes`` only, computed once per run outside the timed region.
    """

    gamma = 0.5
    n_iter = 5

    def __init__(self, name, precision, dims, batch, ref_meshes):
        self.name = name
        self.precision = precision
        self.dims = tuple(dims)
        self.batch = batch
        self.ref_meshes = list(ref_meshes)
        self.ndim = len(self.dims)
        self.design = DesignPoint(Algorithm.ADI2D if self.ndim == 2 else Algorithm.ADI3D,
                                  precision=precision)
        self.problem = {"batch": batch, "dims": self.dims, "n_iter": self.n_iter}
        self.calibration = None
        self.sizes = {"dims": list(self.dims), "batch": batch,
                      "precision": precision.value, "gamma": self.gamma,
                      "n_iter": self.n_iter, "reference_meshes": self.ref_meshes}

    def setup(self, seed: int, workdir: Path) -> mesh.Mesh:
        x, y = self.dims[:2]
        z = self.dims[2] if self.ndim == 3 else 1
        data = np.zeros((self.batch, z, y, x), dtype=self.precision.dtype)
        interior = (slice(None), slice(1, -1) if self.ndim == 3 else slice(None),
                    slice(1, -1), slice(1, -1))
        rng = np.random.default_rng(seed)
        data[interior] = rng.uniform(-1.0, 1.0, data[interior].shape)
        return mesh.Mesh(data, self.ndim)

    def reference(self, u0: mesh.Mesh) -> np.ndarray:
        return reference.naive_adi_run(u0.data[self.ref_meshes], self.gamma, self.n_iter)

    def op(self, u0: mesh.Mesh) -> np.ndarray:
        cfg = adi.AdiConfig(gamma=self.gamma, n_iter=self.n_iter, precision=self.precision)
        u, _report = adi.adi_run(u0, cfg)
        return u.data

    @staticmethod
    def output(out) -> np.ndarray:
        return out

    def check(self, u0, ref: np.ndarray, out: np.ndarray) -> tuple[float, list[str]]:
        problems = []
        if out.shape != u0.data.shape or out.dtype != u0.data.dtype:
            problems.append(f"output {out.shape} {out.dtype} differs from input layout")
            return float("nan"), problems
        if not np.all(np.isfinite(out)):
            problems.append("non-finite field")
        err = core.relative_inf_error(out[self.ref_meshes], ref)
        if not err <= self.precision.tolerance:
            problems.append(f"max_rel_error {err:.3e} > {self.precision.tolerance:.0e}")
        return err, problems

    @property
    def points(self) -> int:
        return self.batch * int(np.prod(self.dims))

    @property
    def unknowns(self) -> int:
        return self.points * self.ndim * self.n_iter

    def span_bytes(self) -> dict[str, int]:
        """Computed bytes per operation, by the paper's per-iteration accounting:
        the stencil reads and writes one mesh, each sweep reads and writes
        one, and the update reads two and writes one."""
        mesh_bytes = self.points * self.precision.word_bytes
        out = {"adi.adi_rhs": 2 * mesh_bytes * self.n_iter}
        for ax in "xyz"[:self.ndim]:
            out[f"mesh.solve_lines.{ax}"] = 2 * mesh_bytes * self.n_iter
        return out

    @property
    def logical_bytes(self) -> int:
        mesh_bytes = self.points * self.precision.word_bytes
        return (2 + 2 * self.ndim + 3) * mesh_bytes * self.n_iter


def make(name: str, smoke: bool = False):
    """The named workload at full size, or at a tiny size for the smoke run."""
    fp32, fp64 = Precision.FP32, Precision.FP64
    # Sizes keep one operation under about a second on a 2-vCPU host, so a
    # run holds enough operations, and reference-loop timings close enough
    # to each of them, for a steady median.
    if name == "batch-thomas-fp32":
        # The paper's calibration shape (128-row FP32 systems) at 500 systems
        # instead of 8000, where one operation takes 13-19 s.
        count, n = (16, 16) if smoke else (500, 128)
        return BatchWorkload(name, fp32, count, n, "thomas", Algorithm.BATCHED_THOMAS,
                             via_file=True, calibration={"batch": 8000, "n": 128})
    if name == "batch-tiled-fp64":
        # Long systems, the only workload that enters the tiled solvers.
        count, n = (4, 64) if smoke else (250, 1024)
        return BatchWorkload(name, fp64, count, n, "thomas-pcr", Algorithm.THOMAS_PCR,
                             tiles=8)
    if name == "adi2d-fp32":
        # The paper's application shape: many small meshes.
        dims, batch = ((12, 12), 3) if smoke else ((128, 128), 32)
        return AdiWorkload(name, fp32, dims, batch, [0, batch - 1] if smoke
                           else [0, 10, 21, 31])
    if name == "adi3d-fp64":
        # One large mesh; the only workload with z sweeps.
        dims = (8, 8, 8) if smoke else (64, 64, 64)
        return AdiWorkload(name, fp64, dims, 1, [0])
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("batch-thomas-fp32", "batch-tiled-fp64", "adi2d-fp32", "adi3d-fp64")
