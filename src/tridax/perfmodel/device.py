"""FPGA device resource/bandwidth profiles."""

from __future__ import annotations

import json
import os
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

DEVICE_DIR_ENV = "TRIDAX_DEVICE_DIR"


@dataclass(frozen=True)
class DeviceProfile:
    """Resource, port and frequency budget of one accelerator card."""

    name: str
    dsp_count: int
    bram_bytes: float
    bram_blocks: int
    uram_bytes: float
    uram_blocks: int
    hbm_bytes: float
    hbm_bandwidth_gbps: float
    hbm_ports: int
    ddr_bytes: float
    ddr_bandwidth_gbps: float
    default_frequency_hz: float = 300e6

    def __post_init__(self):
        for f in fields(self):
            if f.name == "name":
                continue
            if getattr(self, f.name) <= 0:
                raise ValueError(f"{f.name} must be positive")

    @property
    def on_chip_bytes(self) -> float:
        """Combined addressable on-chip RAM (block + ultra RAM)."""
        return self.bram_bytes + self.uram_bytes


U280 = DeviceProfile(
    name="u280",
    dsp_count=8490,
    bram_bytes=6.6e6,
    bram_blocks=1487,
    uram_bytes=34.5e6,
    uram_blocks=960,
    hbm_bytes=8e9,
    hbm_bandwidth_gbps=460.0,
    hbm_ports=32,
    ddr_bytes=32e9,
    ddr_bandwidth_gbps=38.4,
)

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
            key, _, val = line.partition("=")
            values[key.strip()] = float(val.strip())
    values.setdefault("name", name)
    known = {f.name for f in fields(DeviceProfile)}
    unknown = set(values) - known
    if unknown:
        raise ValueError(f"unknown device profile keys: {sorted(unknown)}")
    missing = {f.name for f in fields(DeviceProfile) if f.default is MISSING} - set(values)
    if missing:
        raise ValueError(f"device profile {name!r} is missing keys: {sorted(missing)}")
    ints = {"dsp_count", "bram_blocks", "uram_blocks", "hbm_ports"}
    coerced = {k: (int(v) if k in ints else v) for k, v in values.items() if k != "name"}
    return DeviceProfile(name=str(values["name"]), **coerced)


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
