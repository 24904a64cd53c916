"""Terminal-friendly ASCII charts for the example scripts.

``heat3d_resilience.py`` and ``trace_analysis.py`` render small series
(E2 vs. checkpoint interval, message rate over time) directly in the
terminal, without a plotting dependency.  Two forms:

* :func:`bar_chart` — labelled horizontal bars, scaled to a width;
* :func:`sparkline` — a one-line eight-level profile of a series.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.util.errors import ConfigurationError

_SPARK_LEVELS = "▁▂▃▄▅▆▇█"


def bar_chart(
    items: Sequence[tuple[str, float]],
    width: int = 50,
    unit: str = "",
    zero_based: bool = True,
) -> str:
    """Render ``(label, value)`` pairs as horizontal bars.

    ``zero_based=False`` scales bars between the min and max instead of
    [0, max], which makes small relative differences visible.

    >>> print(bar_chart([("a", 2.0), ("b", 4.0)], width=4))
    a | ██   2
    b | ████ 4
    """
    if not items:
        raise ConfigurationError("bar_chart needs at least one item")
    if width < 1:
        raise ConfigurationError(f"width must be >= 1, got {width}")
    values = [float(v) for _, v in items]
    if any(not math.isfinite(v) for v in values):
        raise ConfigurationError("bar_chart values must be finite")
    lo = 0.0 if zero_based else min(values)
    hi = max(values)
    span = hi - lo
    label_w = max(len(label) for label, _ in items)
    val_w = max(len(_fmt(v)) for v in values)
    lines = []
    for (label, _), v in zip(items, values):
        frac = 1.0 if span == 0 else max(0.0, (v - lo) / span)
        n = int(round(frac * width))
        if v > lo and n == 0:
            n = 1  # nonzero values always get a visible bar
        bar = "█" * n
        lines.append(f"{label.ljust(label_w)} | {bar.ljust(width)} {_fmt(v).rjust(val_w)}{unit}")
    return "\n".join(lines)


def sparkline(values: Sequence[float]) -> str:
    """One-line profile of a series.

    >>> sparkline([0, 1, 2, 3])
    '▁▃▆█'
    """
    vals = [float(v) for v in values]
    if not vals:
        raise ConfigurationError("sparkline needs at least one value")
    if any(not math.isfinite(v) for v in vals):
        raise ConfigurationError("sparkline values must be finite")
    lo, hi = min(vals), max(vals)
    span = hi - lo
    if span == 0:
        return _SPARK_LEVELS[0] * len(vals)
    out = []
    for v in vals:
        idx = int((v - lo) / span * (len(_SPARK_LEVELS) - 1) + 0.5)
        out.append(_SPARK_LEVELS[idx])
    return "".join(out)


def _fmt(v: float) -> str:
    if v == int(v) and abs(v) < 1e15:
        return f"{int(v):,}"
    return f"{v:,.2f}"
