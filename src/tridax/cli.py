"""Command-line front end.

Subcommands:

- ``solve``    solve a generated or file-based batch of tridiagonal systems
- ``adi``      run the ADI heat-diffusion application on a batched mesh
- ``model``    evaluate the analytic latency/resource model for one design
- ``dse``      enumerate and rank a design grid for a problem
- ``selftest`` quick built-in correctness and model checks

Input-generation flags apply only to generated inputs: an ``--input`` file
keeps its own shape and precision, and ``adi --dims``, if given, must match
it. Every report is JSON, written to ``--report``, or stdout if omitted;
``dse``'s report is its ranked table, written after its ``--top`` lines.

Design knobs start unset and pass as given into ``DesignPoint`` or
``GridSpec``: a knob given to a design that does not read it, even at its
resolved value, exits 2, and the library raises the same ``ValueError``, as
the solvers do for ``solve --tiles`` on an untiled solver. ``model`` and
``dse --iters`` follow the same rule through ``ProblemSpec``: a mesh problem
runs one iteration unless given more, and a batch problem rejects any count.

Exit codes: 0 success, 2 usage error, 3 infeasible design or verification
failure, 1 internal error. Given the same flags, seed and input bytes,
binary outputs are byte-identical across runs.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, core
from .adi import REPORT_SCHEMA, AdiConfig, adi_run, effective_bandwidth
from .errors import NoFeasibleDesign, TridaxError
from .mesh import Mesh, read_mesh, write_mesh
from .perfmodel import (MEASURED_REFERENCES, Algorithm, DesignPoint, GridSpec,
                        ProblemSpec, dse_enumerate, find_reference, latency_for_problem,
                        load_device_profile, memory_words, relative_error, rows_to_json)
from .perfmodel.design import readers_of
from .precision import Precision
from .reference import naive_adi_run

USAGE_ERROR = 2
CHECK_FAILED = 3


def _parse_dims(text: str) -> tuple[int, ...]:
    return tuple(int(p) for p in text.split(","))  # Mesh and ProblemSpec check the extents


def _parse_int_list(text: str) -> list[int]:
    return [int(p) for p in text.split(",")]


def _add_common(p: argparse.ArgumentParser, precision_help: str = "fp32 or fp64") -> None:
    p.add_argument("--precision", default="fp64", help=precision_help)
    p.add_argument("--report", type=Path, help="JSON report file (stdout if omitted)")


def _add_problem_and_hardware(p: argparse.ArgumentParser, knob=int, each: str = ""):
    """The flags ``model`` and ``dse`` share: the problem, then the design knobs,
    each of type ``knob`` and help ``each``, then the hardware."""
    p.add_argument("--batch", type=int, required=True)
    p.add_argument("--size", type=int, help="system size (1-D batch problem)")
    p.add_argument("--dims", type=_parse_dims, help="mesh dims (application problem)")
    p.add_argument("--iters", type=int, help="iterations (mesh problems only; default 1)")
    for flag, name, what in (("--tiles", "tiles", "tile count"),
                             ("--unroll", "unroll", "unroll factor"),
                             ("--group", "interleave_group", "interleave group"),
                             ("--vector", "vector_width", "vector lanes"),
                             ("--cus", "compute_units", "compute units")):
        p.add_argument(flag, type=knob, help=f"{what}{each}; read by {readers_of(name)}")
    p.add_argument("--freq-mhz", type=float, default=300.0)
    p.add_argument("--device", default="u280", help="u280 or a JSON device profile file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tridax",
                                     description="batched tridiagonal solvers, "
                                                 "ADI drivers, and design models")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve a batch of tridiagonal systems")
    p.add_argument("--input", type=Path, help="batch file (omit to generate)")
    p.add_argument("--algo", default="thomas", choices=core.SOLVER_NAMES)
    p.add_argument("--tiles", type=int, help="tile count for hybrid solvers")
    p.add_argument("--batch", type=int, default=1, help="generated system count")
    p.add_argument("--size", type=int, default=128, help="generated system size")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--margin", type=float, default=1.0,
                   help="diagonal dominance margin of generated systems")
    p.add_argument("--out", type=Path, help="solution file (default solutions.bin)")
    _add_common(p, "fp32 or fp64 of generated systems; an --input batch keeps its own")

    p = sub.add_parser("adi", help="run the ADI heat-diffusion application")
    p.add_argument("--dims", type=_parse_dims,
                   help="X,Y or X,Y,Z of a generated mesh; must match an --input mesh")
    p.add_argument("--batch", type=int, default=1)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--iters", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--input", type=Path, help="initial mesh (omit to generate)")
    p.add_argument("--verify", action="store_true",
                   help="compare against the plain-loop reference")
    p.add_argument("--out", type=Path, help="final mesh file (not written if omitted)")
    _add_common(p, "fp32 or fp64 of a generated mesh; an --input mesh keeps its own")

    p = sub.add_parser("model", help="evaluate the analytic model for one design")
    p.add_argument("--algo", required=True,
                   help="|".join(a.value for a in Algorithm))
    _add_problem_and_hardware(p)
    _add_common(p)

    p = sub.add_parser("dse", help="rank a design grid for a problem")
    p.add_argument("--algo", help="restrict to one algorithm")
    _add_problem_and_hardware(p, _parse_int_list, " (comma list)")
    p.add_argument("--top", type=int, default=10, help="rows printed to stdout")
    _add_common(p)

    sub.add_parser("selftest", help="run quick built-in checks")
    return parser


# ---------------------------------------------------------------------------
# batch wire format: the mesh container with one system per batch entry,
# four coefficient rows (a, b, c, d) along y; solutions use one row.
# ---------------------------------------------------------------------------


def write_batch(path, batch: core.TridiagonalBatch) -> None:
    stacked = np.stack([batch.a, batch.b, batch.c, batch.d], axis=1)  # (B, 4, n)
    write_mesh(path, Mesh(stacked.reshape(batch.count, 1, 4, batch.n), 2))


def read_batch(path) -> core.TridiagonalBatch:
    mesh = read_mesh(path)
    if mesh.spatial_ndim != 2 or mesh.dims[1] != 4:
        raise ValueError("batch files are 2-D meshes with 4 coefficient rows")
    rows = mesh.data[:, 0]  # (B, 4, n)
    return core.TridiagonalBatch(rows[:, 0], rows[:, 1], rows[:, 2], rows[:, 3])


def _emit_report(args, report: dict | str) -> None:
    """Write ``report``, a payload or its JSON text, to ``--report``, or stdout if omitted."""
    text = report if isinstance(report, str) else json.dumps(report, indent=2, sort_keys=True)
    if args.report:
        args.report.write_text(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def cmd_solve(args) -> int:
    precision = Precision.parse(args.precision)
    if args.input:
        batch = read_batch(args.input)
    else:
        rng = np.random.default_rng(args.seed)
        batch = core.random_dominant_batch(args.batch, args.size, rng, precision, args.margin)

    t0 = time.perf_counter()
    solutions = core.batch_solve(batch, args.algo, args.tiles)
    elapsed = time.perf_counter() - t0
    out_path = args.out or Path("solutions.bin")
    write_mesh(out_path, Mesh(solutions.reshape(batch.count, 1, 1, batch.n), 2))
    max_res = core.residual_max_norm(batch, solutions)
    moved = 5 * batch.count * batch.n * batch.precision.word_bytes  # a,b,c,d in, u out
    payload = {
        "schema_version": REPORT_SCHEMA,
        "command": "solve",
        "algorithm": args.algo,
        "tiles": args.tiles,
        "precision": batch.precision.value,
        "batch": batch.count,
        "size": batch.n,
        "wall_seconds": elapsed,
        "bytes_moved": moved,
        "effective_gb_per_s": effective_bandwidth(moved, elapsed),
        "max_residual": max_res,
        "solutions": str(out_path),
    }
    _emit_report(args, payload)
    return 0


def _generated_mesh(dims, batch, precision, seed) -> Mesh:
    mesh = Mesh.zeros(dims, batch=batch, precision=precision)
    rng = np.random.default_rng(seed)
    interior = tuple([slice(None)]
                     + [slice(1, -1) if e > 1 else slice(None)
                        for e in mesh.data.shape[1:]])
    inner = mesh.data[interior]
    mesh.data[interior] = rng.uniform(-1.0, 1.0, inner.shape).astype(mesh.data.dtype)
    return mesh


def cmd_adi(args) -> int:
    precision = Precision.parse(args.precision)
    if args.input:
        u0 = read_mesh(args.input)
        if args.dims is not None and args.dims != u0.dims:
            raise ValueError(f"--dims {','.join(map(str, args.dims))} does not match the "
                             f"input mesh's dims {','.join(map(str, u0.dims))}")
        precision = u0.precision
    elif args.dims is None:
        raise ValueError("adi needs --dims to generate a mesh, or an --input mesh")
    else:
        u0 = _generated_mesh(args.dims, args.batch, precision, args.seed)
    cfg = AdiConfig(gamma=args.gamma, n_iter=args.iters, precision=precision)
    u_final, report = adi_run(u0, cfg)
    status = 0
    payload = {**report, "command": "adi"}
    if args.verify:
        ref = naive_adi_run(u0.data, args.gamma, args.iters, u0.spatial_ndim)
        dev = float(np.max(np.abs(u_final.data.astype(np.float64) - ref)))
        tol = precision.tolerance * max(1.0, float(np.max(np.abs(ref))))
        ok = dev <= tol
        payload["verify"] = {"max_deviation": dev, "tolerance": tol,
                             "result": "PASS" if ok else "FAIL"}
        print(f"verify: {'PASS' if ok else 'FAIL'} (max deviation {dev:.3e})")
        if not ok:
            status = CHECK_FAILED
    if args.out:
        write_mesh(args.out, u_final)
        payload["mesh"] = str(args.out)
    _emit_report(args, payload)
    return status


def _problem_from_args(args, precision: Precision) -> ProblemSpec:
    return ProblemSpec(batch=args.batch, size=args.size, dims=args.dims,
                       precision=precision, n_iter=args.iters)


def cmd_model(args) -> int:
    precision = Precision.parse(args.precision)
    dp = DesignPoint(algorithm=Algorithm.parse(args.algo), precision=precision,
                     interleave_group=args.group, vector_width=args.vector,
                     unroll=args.unroll, tiles=args.tiles, compute_units=args.cus,
                     frequency_hz=args.freq_mhz * 1e6)
    problem = _problem_from_args(args, precision)
    device = load_device_profile(args.device)
    where = dict(batch=problem.batch, n=problem.size, dims=problem.dims,
                 n_iter=problem.n_iter)
    latency = latency_for_problem(dp, **where)
    resources = memory_words(dp, problem.largest_extent, device)
    payload = {
        "schema_version": REPORT_SCHEMA,
        "command": "model",
        "design": dp.describe(),
        "device": device.name,
        "problem": {"batch": problem.batch, "size": problem.size,
                    "dims": list(problem.dims) if problem.dims else None,
                    "n_iter": problem.n_iter},
        "cycles": float(latency.cycles),
        "seconds": latency.seconds,
        "milliseconds": latency.milliseconds,
        "dominant_term": latency.dominant_term(),
        "stalled": latency.stalled,
        "words": resources.words,
        "on_chip_bytes": resources.total_bytes,
        "hbm_ports": resources.hbm_ports,
        "feasible": resources.feasible,
        "violations": list(resources.violations),
    }
    reference = find_reference(dp, **where)
    if reference is not None:
        err = relative_error(latency.seconds, reference.measured_seconds)
        payload["measured_reference"] = {
            "name": reference.name,
            "measured_seconds": reference.measured_seconds,
            "relative_error": err,
            "reconstructed": reference.reconstructed,
        }
        print(f"model: {latency.milliseconds:.4f} ms predicted; measured "
              f"{reference.measured_seconds * 1e3:.4f} ms, err {err * 100:.1f}%"
              + (" (reconstructed)" if reference.reconstructed else ""))
    else:
        print(f"model: {latency.milliseconds:.4f} ms predicted, "
              f"feasible={resources.feasible}")
    _emit_report(args, payload)
    return 0


def cmd_dse(args) -> int:
    if args.top < 0:
        raise ValueError(f"--top must be >= 0, not {args.top}")
    problem = _problem_from_args(args, Precision.parse(args.precision))
    device = load_device_profile(args.device)
    grid = GridSpec(algorithms=[Algorithm.parse(args.algo)] if args.algo else None,
                    tiles=args.tiles, unrolls=args.unroll, groups=args.group,
                    vector_widths=args.vector, compute_units=args.cus,
                    frequencies_hz=[args.freq_mhz * 1e6])
    try:
        rows = dse_enumerate(problem, device, grid)
    except NoFeasibleDesign as exc:
        _emit_report(args, {"schema_version": REPORT_SCHEMA, "command": "dse",
                            "error": "no-feasible-design", "detail": str(exc)})
        raise
    for row in rows[:args.top]:
        rec = row.record()
        print(f"#{rec['rank']:<3} {rec['algorithm']:<15} tiles={rec['tiles'] or '-':<4} "
              f"unroll={rec['unroll'] or '-'} {rec['seconds'] * 1e3:10.4f} ms  "
              f"{rec['on_chip_bytes'] / 1e6:8.2f} MB on-chip")
    _emit_report(args, rows_to_json(rows))
    return 0


def cmd_selftest(args) -> int:
    checks: list[tuple[str, bool]] = []
    rng = np.random.default_rng(7)

    sys_small = core.TridiagonalSystem([0, 0, 0], [2, 2, 2], [0, 0, 0], [2, 4, 6])
    checks.append(("diagonal system", np.allclose(core.solve_system(sys_small), [1, 2, 3])))
    s = core.random_dominant_system(64, rng)
    for name, algo, tiles in (("elimination", "thomas", None),
                              ("cyclic reduction", "pcr", None),
                              ("tiled hybrid", "thomas-pcr", 4)):
        bound = core.error_bound(s, core.solve_system(s, algo, tiles))
        checks.append((f"{name} within Varah's error bound", bound < 1e-12))
    dp = DesignPoint(Algorithm.BATCHED_THOMAS, interleave_group=32, vector_width=8)
    est = latency_for_problem(dp, batch=8000, n=128)
    checks.append(("latency model calibration point", est.cycles == 143360))
    for ref in MEASURED_REFERENCES:  # the paper's "over 85% predictive model accuracy"
        p = ref.problem
        est = latency_for_problem(ref.design, batch=p.batch, n=p.size, dims=p.dims,
                                  n_iter=p.n_iter)
        checks.append((f"model within 15% of {ref.name}",
                       relative_error(est.seconds, ref.measured_seconds) <= 0.15))
    u0 = _generated_mesh((12, 12, 12), 1, Precision.FP64, 3)
    u1, _ = adi_run(u0, AdiConfig(gamma=0.5, n_iter=2))
    ref = naive_adi_run(u0.data, 0.5, 2, u0.spatial_ndim)
    checks.append(("ADI driver vs plain-loop reference",
                   float(np.max(np.abs(u1.data - ref))) < 1e-12))
    failed = [name for name, ok in checks if not ok]
    for name, ok in checks:
        print(f"{'PASS' if ok else 'FAIL'}: {name}")
    return CHECK_FAILED if failed else 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"solve": cmd_solve, "adi": cmd_adi, "model": cmd_model,
                "dse": cmd_dse, "selftest": cmd_selftest}
    try:
        return handlers[args.command](args)
    except NoFeasibleDesign as exc:
        print(f"no feasible design: {exc}", file=sys.stderr)
        return CHECK_FAILED
    except (TridaxError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR if isinstance(exc, ValueError) else 1
    except Exception as exc:  # noqa: BLE001 - last-resort diagnostic
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
