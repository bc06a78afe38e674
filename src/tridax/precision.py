"""Floating-point precision selection and the tolerances tied to it."""

from __future__ import annotations

from enum import Enum

import numpy as np


class Precision(Enum):
    """Supported scalar precisions.

    Each precision carries the comparison tolerance used when checking
    solver output against a reference, and the pivot floor below which an
    elimination denominator is treated as zero.
    """

    FP32 = "fp32"
    FP64 = "fp64"

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(np.float32) if self is Precision.FP32 else np.dtype(np.float64)

    @property
    def tolerance(self) -> float:
        """Relative comparison tolerance for solver-vs-reference checks."""
        return 1e-5 if self is Precision.FP32 else 1e-12

    @property
    def pivot_floor(self) -> float:
        return 1e-20 if self is Precision.FP32 else 1e-30

    @property
    def word_bytes(self) -> int:
        return 4 if self is Precision.FP32 else 8

    @classmethod
    def from_dtype(cls, dtype) -> "Precision":
        dt = np.dtype(dtype)
        if dt == np.float32:
            return cls.FP32
        if dt == np.float64:
            return cls.FP64
        raise ValueError(f"unsupported dtype {dt}; expected float32 or float64")

    @classmethod
    def parse(cls, name: str) -> "Precision":
        """``fp32`` or ``fp64``, in any case and with surrounding spaces."""
        try:
            return cls(name.strip().lower())
        except ValueError:
            raise ValueError(f"unknown precision {name!r}") from None
