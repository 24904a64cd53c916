"""Plain-text table rendering with paper-value comparison columns.

:func:`format_table` prints every CLI table, warm cache answers
included, so this module imports the Table II driver only inside
:func:`render_table2` (``docs/INTERNALS.md``, "Import layers").
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.core.harness.experiment import Table2Cell


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


def render_table2(cells: "Sequence[Table2Cell]", compare_paper: bool = True) -> str:
    """Table II in the paper's layout, optionally with the paper's values
    interleaved for side-by-side comparison."""
    from repro.core.harness.experiment import PAPER_TABLE2

    headers = ["MTTF_s", "C", "E1", "E2", "F", "MTTF_a"]
    if compare_paper:
        headers += ["paper E1", "paper E2", "paper F", "paper MTTF_a"]
    rows = []
    for cell in cells:
        row = list(cell.as_row())
        if compare_paper:
            paper = PAPER_TABLE2.get((cell.mttf, cell.interval))
            if paper is None:
                row += ["?"] * 4
            else:
                p_e1, p_e2, p_f, p_mttfa = paper
                fmt = lambda v: "-" if v is None else f"{v:,.0f} s"  # noqa: E731
                row += [fmt(p_e1), fmt(p_e2), str(p_f), fmt(p_mttfa)]
        rows.append(row)
    return format_table(headers, rows)
