"""Plain-text table rendering.

:func:`format_table` prints every CLI table, warm cache answers
included, so this module imports nothing (``docs/INTERNALS.md``,
"Import layers").
"""

from __future__ import annotations

from typing import Sequence


def format_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """Fixed-width ASCII table."""
    cols = len(headers)
    widths = [len(h) for h in headers]
    for row in rows:
        if len(row) != cols:
            raise ValueError(f"row {row!r} has {len(row)} cells, expected {cols}")
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    sep = "-+-".join("-" * w for w in widths)
    out = [" | ".join(h.ljust(w) for h, w in zip(headers, widths)), sep]
    for row in rows:
        out.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(out)
