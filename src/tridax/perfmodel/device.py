"""FPGA device profiles: the on-chip RAM and HBM port budgets that
:func:`tridax.perfmodel.memory.memory_words` checks a design against."""

from __future__ import annotations

import json
import math
import os
from contextlib import suppress
from dataclasses import dataclass, fields
from numbers import Real
from pathlib import Path

DEVICE_DIR_ENV = "TRIDAX_DEVICE_DIR"


@dataclass(frozen=True)
class DeviceProfile:
    """On-chip RAM and HBM port budget of one accelerator card.

    Each budget is a finite positive number, and ``hbm_ports`` a whole one,
    stored as an ``int``; any other value raises ``ValueError`` naming it.
    """

    name: str
    bram_bytes: float
    uram_bytes: float
    hbm_ports: int

    def __post_init__(self):
        for f in fields(self)[1:]:  # every budget after the name
            val = getattr(self, f.name)
            if isinstance(val, bool) or not isinstance(val, Real) or not 0 < val < math.inf:
                raise ValueError(f"{f.name} must be a finite positive number, not {val!r}")
        if self.hbm_ports != int(self.hbm_ports):
            raise ValueError(f"hbm_ports must be a whole number, not {self.hbm_ports!r}")
        object.__setattr__(self, "hbm_ports", int(self.hbm_ports))

    @property
    def on_chip_bytes(self) -> float:
        """Combined addressable on-chip RAM (block + ultra RAM)."""
        return self.bram_bytes + self.uram_bytes


U280 = DeviceProfile(name="u280", bram_bytes=6.6e6, uram_bytes=34.5e6, hbm_ports=32)

BUILTIN_PROFILES = {"u280": U280}


def _parse_profile_text(text: str, name: str) -> DeviceProfile:
    stripped = text.lstrip()
    if stripped.startswith("{"):
        values = json.loads(text)
    else:
        values = {}
        for line in text.splitlines():
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, eq, val = (part.strip() for part in line.partition("="))
            if not eq:
                raise ValueError(f"device profile line is not 'key = value': {line!r}")
            with suppress(ValueError):  # a non-number stays text, for DeviceProfile to name
                val = float(val)
            values[key] = val
    values.setdefault("name", name)
    known = {f.name for f in fields(DeviceProfile)}
    unknown = set(values) - known
    if unknown:
        raise ValueError(f"unknown device profile keys: {sorted(unknown)}")
    missing = known - set(values)
    if missing:
        raise ValueError(f"device profile {name!r} is missing keys: {sorted(missing)}")
    return DeviceProfile(**{**values, "name": str(values["name"])})


def load_device_profile(name_or_path: str) -> DeviceProfile:
    """Resolve a device by built-in name, search-dir name, or file path.

    The search directory comes from the ``TRIDAX_DEVICE_DIR`` environment
    variable; files may be JSON or ``key = value`` text.
    """
    key = name_or_path.lower()
    if key in BUILTIN_PROFILES:
        return BUILTIN_PROFILES[key]
    candidates = [Path(name_or_path)]
    search = os.environ.get(DEVICE_DIR_ENV)
    if search:
        base = Path(search) / name_or_path
        candidates += [base, base.with_suffix(".json"), base.with_suffix(".txt")]
    for path in candidates:
        if path.is_file():
            return _parse_profile_text(path.read_text(), path.stem)
    raise ValueError(f"unknown device profile {name_or_path!r}")
