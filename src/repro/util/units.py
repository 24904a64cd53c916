"""Unit parsing and formatting for sizes, times, and rates.

The simulator's public configuration accepts human-readable strings such as
``"256 kB"``, ``"1us"``, or ``"32 GB/s"`` — the values the paper quotes for
the simulated machine — while all internal arithmetic is done in plain SI
base units (bytes, seconds, bytes/second) as ``float``/``int``.

Decimal (kB, MB, ...) and binary (KiB, MiB, ...) prefixes are both
supported.  The paper's "256 kB" eager threshold is interpreted as decimal
kilobytes (256,000 bytes) exactly as written; callers wanting 2**18 can say
``"256 KiB"``.
"""

from __future__ import annotations

import math
import re

from repro.util.errors import ConfigurationError

_DECIMAL = {"": 1, "k": 10**3, "m": 10**6, "g": 10**9, "t": 10**12, "p": 10**15}
_BINARY = {"ki": 2**10, "mi": 2**20, "gi": 2**30, "ti": 2**40, "pi": 2**50}

_TIME_UNITS = {
    "ns": 1e-9,
    "us": 1e-6,
    "µs": 1e-6,
    "ms": 1e-3,
    "s": 1.0,
    "min": 60.0,
    "h": 3600.0,
    "d": 86400.0,
}

_SIZE_RE = re.compile(r"^\s*([0-9]*\.?[0-9]+(?:[eE][-+]?[0-9]+)?)\s*([A-Za-zµ]*)\s*$")


def _finite(number: float, what: str, value: object) -> float:
    # ``float("1e400")`` is inf: a spelling the pattern admits can still
    # overflow, and round() of it raises OverflowError.
    if not math.isfinite(number):
        raise ConfigurationError(f"{what} {value!r} is not finite")
    return number


def parse_size(value: int | float | str) -> int:
    """Parse a byte size such as ``"256 kB"`` or ``"64 MiB"`` into bytes.

    Numeric inputs are passed through (rounded to an integer byte count).
    The unit is case-insensitive except that a bare ``b`` suffix always
    means bytes (bits are not supported).
    """
    if isinstance(value, (int, float)):
        if _finite(value, "size", value) < 0:
            raise ConfigurationError(f"size must be non-negative, got {value!r}")
        return int(round(value))
    m = _SIZE_RE.match(value)
    if not m:
        raise ConfigurationError(f"cannot parse size {value!r}")
    number = float(m.group(1))
    unit = m.group(2).lower()
    if unit.endswith("b"):
        unit = unit[:-1]
    if unit in _DECIMAL:
        scale = _DECIMAL[unit]
    elif unit in _BINARY:
        scale = _BINARY[unit]
    else:
        raise ConfigurationError(f"unknown size unit in {value!r}")
    return int(round(_finite(number * scale, "size", value)))


def parse_time(value: int | float | str) -> float:
    """Parse a duration such as ``"1us"`` or ``"3,000 s"`` into seconds."""
    if isinstance(value, (int, float)):
        return _finite(float(value), "time", value)
    text = value.replace(",", "").strip()
    m = _SIZE_RE.match(text)
    if not m:
        raise ConfigurationError(f"cannot parse time {value!r}")
    number = float(m.group(1))
    unit = m.group(2)
    if unit == "":
        unit = "s"
    key = unit if unit in _TIME_UNITS else unit.lower()
    if key not in _TIME_UNITS:
        raise ConfigurationError(f"unknown time unit in {value!r}")
    return _finite(number * _TIME_UNITS[key], "time", value)


def parse_rate(value: int | float | str) -> float:
    """Parse a bandwidth such as ``"32 GB/s"`` into bytes/second."""
    if isinstance(value, (int, float)):
        return _finite(float(value), "rate", value)
    text = value.strip()
    if text.lower().endswith("/s"):
        text = text[:-2]
    return float(parse_size(text))


def format_size(nbytes: float) -> str:
    """Format a byte count with a decimal prefix, e.g. ``262144 -> '262.1 kB'``."""
    n = float(nbytes)
    for prefix, scale in (("P", 10**15), ("T", 10**12), ("G", 10**9), ("M", 10**6), ("k", 10**3)):
        if abs(n) >= scale:
            return f"{n / scale:.1f} {prefix}B"
    return f"{n:.0f} B"


def format_time(seconds: float) -> str:
    """Format a duration compactly, choosing ns/us/ms/s as appropriate."""
    s = float(seconds)
    a = abs(s)
    if a == 0.0:
        return "0 s"
    if a < 1e-6:
        return f"{s * 1e9:.1f} ns"
    if a < 1e-3:
        return f"{s * 1e6:.1f} us"
    if a < 1.0:
        return f"{s * 1e3:.1f} ms"
    if a < 120.0:
        return f"{s:.3f} s"
    return f"{s:,.0f} s"
