"""Table II ("Varying the checkpoint interval and system MTTF"), whole.

What the table *is* lives here and nowhere else: the paper's printed
values, the grid (the heat application over 1,000 iterations;
checkpoint interval C in {500, 250, 125} plus the C = 1000 baseline;
system MTTF in {6000 s, 3000 s}), the row-seed calibration, the cell
type and the renderer.  How it *runs* is the path every other campaign
takes: :func:`table2_scenarios` is ten ordinary
:class:`~repro.run.scenario.Scenario` values and :func:`run_table2`
hands them to :func:`~repro.run.sweep.run_cells`, so the table fans out
over ``jobs`` workers, is answered cell by cell from the result cache
when one is on (a killed table resumes; a finished one is a lookup) and
is the same table either way.

Columns: E1 (simulated execution time without failures), E2 (with
failures and restarts), F (activated failures), MTTF_a = E2/(F+1).

Part of the import-light layer (``docs/INTERNALS.md``, "Import
layers"): a warm table loads no simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from repro.core.harness.report import format_table
from repro.run.scenario import Scenario
from repro.run.sweep import run_cells

#: The paper's Table II, row-keyed by (system MTTF or None, checkpoint
#: interval): (E1, E2, F, MTTF_a); None marks cells the paper leaves empty.
PAPER_TABLE2: dict[tuple[float | None, int], tuple[float, float | None, int, float | None]] = {
    (None, 1000): (5248.0, None, 0, None),
    (6000.0, 500): (5258.0, 7957.0, 1, 3978.0),
    (6000.0, 250): (6377.0, 7074.0, 1, 3537.0),
    (6000.0, 125): (6601.0, 6750.0, 1, 3375.0),
    (3000.0, 500): (5258.0, 10584.0, 2, 3528.0),
    (3000.0, 250): (6377.0, 8618.0, 2, 2872.0),
    (3000.0, 125): (6601.0, 7948.0, 2, 2649.0),
}

BASELINE_INTERVAL = 1000
INTERVALS = (500, 250, 125)
MTTFS = (6000.0, 3000.0)
#: Per-(mttf, interval) failure-draw seeds that stand in for the table's
#: seed: the calibration that reproduces the paper's activated-failure
#: counts (F column) at the default 512-rank scale — the paper likewise
#: reports one deterministic draw per row.
ROW_SEEDS = {(3000.0, 500): 5}


def _seconds(value: float | None) -> str:
    return "-" if value is None else f"{value:,.0f} s"


@dataclass(frozen=True)
class Table2Cell:
    """One measured row of Table II."""

    mttf: float | None
    interval: int
    e1: float
    e2: float | None
    f: int
    mttf_a: float | None

    def as_row(self) -> tuple[str, ...]:
        """Render the cell in Table II's column format."""
        return (
            _seconds(self.mttf),
            str(self.interval),
            _seconds(self.e1),
            _seconds(self.e2),
            str(self.f),
            _seconds(self.mttf_a),
        )


def table2_scenarios(ranks: int, seed: int = 0) -> list[Scenario]:
    """The ten runs behind the table on the paper's machine at ``ranks``:
    four fault-free (baseline interval, then each interval), then MTTF x
    interval with random failure injection.

    Built with the constructor, never :meth:`Scenario.resolve`: the table
    does not read ``XSIM_FAILURES``, ``XSIM_STRATEGY`` or ``XSIM_SHARDS``.
    ``seed`` drives the per-segment failure draws (:data:`ROW_SEEDS`
    overrides it per row); the table is deterministic for a given seed,
    like the original simulator.  A fault-free cell draws nothing, so it
    carries no seed: one cache answers it for every seed of a machine.
    """
    clean = [Scenario(ranks=ranks, interval=interval) for interval in (BASELINE_INTERVAL, *INTERVALS)]
    failing = [
        Scenario(
            ranks=ranks,
            interval=interval,
            mttf=mttf,
            seed=ROW_SEEDS.get((mttf, interval), seed),
        )
        for mttf in MTTFS
        for interval in INTERVALS
    ]
    return clean + failing


def run_table2(
    ranks: int = 512, seed: int = 0, jobs: int = 1, cache: Any = None
) -> list[Table2Cell]:
    """Measure the full table: baseline row, then MTTF x interval rows.

    ``ranks=32768`` is the paper-exact machine (minutes of host time; see
    EXPERIMENTS.md).  Every cell is an independent deterministic run, so
    the table is identical at any ``jobs`` and from any mix of cached and
    computed cells; ``cache`` is :func:`~repro.run.sweep.run_cells`'s
    (``None`` = the ``XSIM_CACHE`` / ``XSIM_CACHE_DIR`` environment
    policy, ``False`` = off, or a :class:`~repro.cache.ResultCache`).
    """
    scenarios = table2_scenarios(ranks, seed)
    summaries = run_cells(scenarios, jobs=jobs, cache=cache)
    e1: dict[int, float] = {}  # filled first: the fault-free scenarios lead
    cells: list[Table2Cell] = []
    for scenario, summary in zip(scenarios, summaries):
        interval = scenario.interval
        if scenario.mttf is None:
            if not summary["completed"]:
                raise RuntimeError(f"E1 run at interval {interval} did not complete")
            e1[interval] = summary["exit_time"]
            if interval == BASELINE_INTERVAL:
                cells.append(Table2Cell(None, interval, e1[interval], None, 0, None))
        else:
            cells.append(
                Table2Cell(
                    mttf=scenario.mttf,
                    interval=interval,
                    e1=e1[interval],
                    e2=summary["e2"],
                    f=summary["failures"],
                    mttf_a=summary["mttf_a"],
                )
            )
    return cells


def render_table2(cells: Sequence[Table2Cell], compare_paper: bool = True) -> str:
    """Table II in the paper's layout, optionally with the paper's values
    interleaved for side-by-side comparison."""
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
                row += [_seconds(p_e1), _seconds(p_e2), str(p_f), _seconds(p_mttfa)]
        rows.append(row)
    return format_table(headers, rows)
