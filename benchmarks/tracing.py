"""Timing wrappers installed on public ``tridax`` names for the traced run.

Each wrapper replaces a name at the module binding its caller looks it up
in, so the program itself is unchanged. Spans nest: a span's self time is
its duration minus the time its child spans cover. Names that a later
version of the program no longer has are recorded as absent, with 0 calls.
"""

from __future__ import annotations

import functools
import importlib
from contextlib import contextmanager
from time import perf_counter

AXES = ("x", "y", "z")

# (module, attribute, span name); mesh.solve_lines is split by swept axis.
SPANS = (
    ("tridax.core", "batch_solve", "core.batch_solve"),
    ("tridax.core", "solve_system", "core.solve_system"),
    ("tridax.core", "thomas_solve", "core.thomas_solve"),
    ("tridax.core", "residual_max_norm", "core.residual_max_norm"),
    ("tridax.cli", "read_batch", "cli.read_batch"),
    ("tridax.mesh", "write_mesh", "mesh.write_mesh"),
    ("tridax.tiled", "thomas_pcr_solve", "tiled.thomas_pcr_solve"),
    ("tridax.tiled", "modified_thomas_phase", "tiled.modified_thomas_phase"),
    ("tridax.tiled", "assemble_reduced", "tiled.assemble_reduced"),
    ("tridax.tiled", "back_substitute", "tiled.back_substitute"),
    ("tridax.tiled", "pcr_solve", "core.pcr_solve"),
    ("tridax.adi", "adi_run", "adi.adi_run"),
    ("tridax.adi", "adi_rhs", "adi.adi_rhs"),
    ("tridax.adi", "solve_lines", "mesh.solve_lines"),
    ("tridax.perfmodel", "latency_for_problem", "perfmodel.latency_for_problem"),
)


def _names(span: str) -> list[str]:
    return [f"{span}.{ax}" for ax in AXES] if span == "mesh.solve_lines" else [span]


SPAN_NAMES = [name for _, _, span in SPANS for name in _names(span)]


def _solve_lines_name(args, kwargs) -> str:
    axis = kwargs.get("axis", args[2] if len(args) > 2 else "unknown")
    return f"mesh.solve_lines.{str(getattr(axis, 'value', axis)).lower()}"


class Tracer:
    """Accumulates per-span self time, inclusive time and call counts."""

    def __init__(self):
        self._stack: list[float] = []  # child time covered, per open span
        self.reset()

    def reset(self) -> None:
        self.self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        self.total_s = dict.fromkeys(SPAN_NAMES, 0.0)
        self.calls = dict.fromkeys(SPAN_NAMES, 0)
        self.top_s = 0.0  # time covered by spans with no parent span

    def snapshot(self) -> dict:
        return {"self_s": dict(self.self_s), "total_s": dict(self.total_s),
                "calls": dict(self.calls), "top_s": self.top_s}

    def wrap(self, fn, span: str):
        name_of = _solve_lines_name if span == "mesh.solve_lines" else (lambda a, k: span)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = name_of(args, kwargs)
            self._stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                child = self._stack.pop()
                self.self_s[name] = self.self_s.get(name, 0.0) + dur - child
                self.total_s[name] = self.total_s.get(name, 0.0) + dur
                self.calls[name] = self.calls.get(name, 0) + 1
                if self._stack:
                    self._stack[-1] += dur
                else:
                    self.top_s += dur

        return wrapper


@contextmanager
def installed(tracer: Tracer):
    """Install the wrappers for the duration of the block; yields absent names."""
    patched = []
    absent = []
    try:
        for modname, attr, span in SPANS:
            try:
                module = importlib.import_module(modname)
            except ImportError:
                module = None
            fn = getattr(module, attr, None)
            if fn is None:
                absent.extend(_names(span))
                continue
            setattr(module, attr, tracer.wrap(fn, span))
            patched.append((module, attr, fn))
        yield absent
    finally:
        for module, attr, fn in reversed(patched):
            setattr(module, attr, fn)
