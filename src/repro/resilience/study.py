"""The head-to-head table: every strategy's overhead and recovery cost.

A sweep whose grid includes ``strategy`` answers the co-design question
this package exists for — *which resilience mechanism is cheapest for
this machine and this failure rate?* — but the raw sweep table only
shows E2 (makespan under failures).  The study adds the two reference
runs that make the numbers comparable:

* a **fault-free twin** of each cell (same scenario, empty failure
  schedule) gives E1, the strategy's cost with no faults at all;
* the fault-free **``none`` baseline** gives the zero-protection
  makespan, so ``overhead`` isolates what the mechanism itself costs.

The twins run through :func:`~repro.run.sweep.run_cells`, so with a
cache active they are content-addressed like any other cell (a repeated
study is pure lookups), and they deduplicate: ten strategies over one
app share a single ``none`` baseline.  The rendered text contains only
simulation results — no cache or backend facts — so reruns, ``-j N``
pools, and serial-vs-sharded backends all emit byte-identical tables.
"""

from __future__ import annotations

from typing import Any

from repro.core.harness.report import format_table
from repro.run.scenario import Scenario


def _time_of(summary: dict[str, Any]) -> float:
    return float(summary.get("e2", summary["exit_time"]))


def strategy_study_rows(
    pairs: list[tuple[Scenario, dict[str, Any]]],
    axes: tuple[str, ...] = (),
    jobs: int = 1,
    cache: Any = None,
) -> tuple[list[str], list[tuple[str, ...]]]:
    """Header and rows of the head-to-head table for ``(scenario,
    summary)`` sweep pairs.  ``axes`` are the sweep's grid fields; those
    other than ``strategy`` become leading columns so every grid cell
    keeps its identity."""
    from repro.run.sweep import run_cells

    # Reference cells, deduplicated by content digest: the fault-free
    # twin of every cell plus its fault-free `none` baseline.
    twins: dict[str, Scenario] = {}
    wanted: list[tuple[str, str]] = []  # (e1 digest, baseline digest) per pair
    for scenario, _ in pairs:
        fault_free = scenario.with_(failures="", mttf=None)
        baseline = fault_free.with_(strategy="none", strategy_params=())
        digests = (fault_free.scenario_digest(), baseline.scenario_digest())
        twins.setdefault(digests[0], fault_free)
        twins.setdefault(digests[1], baseline)
        wanted.append(digests)

    order = sorted(twins)
    summaries = run_cells([twins[d] for d in order], jobs=jobs, cache=cache)
    e1_of = {d: _time_of(s) for d, s in zip(order, summaries)}

    extra = [a for a in axes if a != "strategy"]
    header = (
        ["strategy", "app"]
        + extra
        + ["E1", "overhead", "E2", "E2/E1", "restarts", "failures", "MTTF_a"]
    )
    rows: list[tuple[str, ...]] = []
    for (scenario, summary), (e1_digest, base_digest) in zip(pairs, wanted):
        e1, base_e1 = e1_of[e1_digest], e1_of[base_digest]
        e2 = _time_of(summary)
        mttf_a = summary.get("mttf_a")
        rows.append(
            (scenario.strategy, scenario.app)
            + tuple(str(getattr(scenario, a)) for a in extra)
            + (
                f"{e1:,.1f}s",
                f"{e1 / base_e1 - 1.0:+.1%}",
                f"{e2:,.1f}s",
                f"{e2 / e1:.2f}x",
                str(summary.get("restarts", 0)),
                str(summary["failures"]),
                "-" if mttf_a is None else f"{float(mttf_a):,.1f}s",
            )
        )
    return header, rows


def render_strategy_study(
    pairs: list[tuple[Scenario, dict[str, Any]]],
    axes: tuple[str, ...] = (),
    jobs: int = 1,
    cache: Any = None,
) -> str:
    """The formatted head-to-head table (byte-stable across reruns,
    worker pools, and backends)."""
    header, rows = strategy_study_rows(pairs, axes=axes, jobs=jobs, cache=cache)
    return format_table(header, rows)
