"""Report rendering details."""

import pytest

from repro.core.harness.report import format_table
from repro.run.table2 import PAPER_TABLE2, Table2Cell, render_table2


def cells_from_paper():
    """Cells carrying exactly the paper's values (identity reproduction)."""
    out = []
    for (mttf, interval), (e1, e2, f, mttf_a) in sorted(
        PAPER_TABLE2.items(), key=lambda kv: (kv[0][0] is not None, kv[0])
    ):
        out.append(Table2Cell(mttf, interval, e1, e2, f, mttf_a))
    return out


class TestRenderTable2:
    def test_all_paper_rows_render(self):
        out = render_table2(cells_from_paper())
        assert out.count("\n") == 8  # header + separator + 7 rows
        assert "10,584 s" in out
        assert "paper MTTF_a" in out

    def test_identity_cells_match_their_paper_columns(self):
        out = render_table2(cells_from_paper())
        for line in out.splitlines()[2:]:
            cols = [c.strip() for c in line.split("|")]
            # measured E1/E2 equal the paper columns for identity cells
            assert cols[2] == cols[6]
            assert cols[3] == cols[7]

    def test_unknown_row_marked(self):
        out = render_table2([Table2Cell(1234.0, 77, 1.0, 2.0, 1, 1.0)])
        assert "?" in out


class TestFormatTableEdges:
    def test_single_column(self):
        out = format_table(["only"], [["a"], ["bb"]])
        assert out.splitlines()[0].strip() == "only"

    def test_empty_rows(self):
        out = format_table(["a", "b"], [])
        assert len(out.splitlines()) == 2  # header + separator

    def test_wide_cells_stretch_columns(self):
        out = format_table(["x"], [["extremely-wide-cell-content"]])
        assert "extremely-wide-cell-content" in out
