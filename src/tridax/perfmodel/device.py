"""FPGA device profiles: the on-chip RAM and HBM port budgets that
:func:`tridax.perfmodel.memory.memory_words` checks a design against."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from numbers import Real
from pathlib import Path


@dataclass(frozen=True)
class DeviceProfile:
    """On-chip RAM and HBM port budget of one accelerator card.

    ``name`` is a string, each budget a finite positive number, ``hbm_ports``
    a whole one stored as an ``int``; any other value raises ``ValueError`` naming it.
    """

    name: str
    bram_bytes: float
    uram_bytes: float
    hbm_ports: int

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise ValueError(f"name must be a string, not {self.name!r}")
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


def load_device_profile(name_or_path: str) -> DeviceProfile:
    """Resolve a device by built-in name, else read the JSON file at that path.

    The file holds one object with every ``DeviceProfile`` field; ``name``
    defaults to the file's stem.
    """
    key = name_or_path.lower()
    if key in BUILTIN_PROFILES:
        return BUILTIN_PROFILES[key]
    path = Path(name_or_path)
    if not path.is_file():
        raise ValueError(f"unknown device profile {name_or_path!r}")
    try:
        values = json.loads(path.read_text())
    except ValueError as exc:  # malformed JSON or text that is not UTF-8
        raise ValueError(f"device profile {name_or_path!r} is not JSON: {exc}") from None
    if not isinstance(values, dict):
        raise ValueError(f"device profile {name_or_path!r} must be a JSON object, "
                         f"not {type(values).__name__}")
    values.setdefault("name", path.stem)
    known = {f.name for f in fields(DeviceProfile)}
    unknown = set(values) - known
    if unknown:
        raise ValueError(f"unknown device profile keys: {sorted(unknown)}")
    missing = known - set(values)
    if missing:
        raise ValueError(f"device profile {path.stem!r} is missing keys: {sorted(missing)}")
    return DeviceProfile(**values)
