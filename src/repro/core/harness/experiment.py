"""Experiment drivers regenerating the paper's evaluation.

* :func:`run_table2` / :func:`run_table2_row` — Table II ("Varying the
  checkpoint interval and system MTTF"): the heat application at a given
  scale, checkpoint interval C in {500, 250, 125} (plus the C=1000
  baseline), system MTTF in {6000 s, 3000 s}; columns E1 (simulated
  execution time without failures), E2 (with failures and restarts), F
  (activated failures), MTTF_a = E2/(F+1).
* :func:`observe_failure_mode` — the §V-D "First Impressions"
  observations: where a failure injected into a given phase is *detected*
  (halo exchange vs. barrier) and what it leaves behind in the checkpoint
  store (corrupted file, incomplete set, partially deleted old set).
* :func:`result_digest` / :func:`campaign_digest` — the canonical
  fingerprints, defined in :mod:`repro.core.harness.digest` (a run that
  only needs a digest does not import this module's drivers) and
  re-exported here.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.core.checkpoint.store import CheckpointStore
from repro.core.faults.schedule import FailureSchedule
from repro.core.harness.config import SystemConfig
from repro.core.harness.digest import campaign_digest, result_digest  # noqa: F401 - re-exported
from repro.core.restart import FailureRunResult, RestartDriver
from repro.core.simulator import XSim
from repro.pdes.engine import SimulationResult

if TYPE_CHECKING:  # pragma: no cover - the app package imports this module
    from repro.apps.heat3d import HeatConfig

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
        fmt = lambda v: "-" if v is None else f"{v:,.0f} s"  # noqa: E731
        return (
            "-" if self.mttf is None else f"{self.mttf:,.0f} s",
            str(self.interval),
            fmt(self.e1),
            fmt(self.e2),
            str(self.f),
            fmt(self.mttf_a),
        )


@dataclass(frozen=True)
class Table2Config:
    """Scale and sweep parameters of the Table II reproduction.

    ``nranks=32768`` is the paper-exact configuration (slow: tens of
    minutes of host time); the default benchmarks use a scaled machine.
    ``seed`` drives the per-segment random failure draws; the experiment
    is fully deterministic for a given seed, like the original simulator.
    ``row_seeds`` defaults to the calibration that reproduces the paper's
    activated-failure counts (F column) at the default 512-rank scale —
    the paper likewise reports one deterministic draw per row.
    """

    nranks: int = 512
    intervals: tuple[int, ...] = (500, 250, 125)
    mttfs: tuple[float, ...] = (6000.0, 3000.0)
    baseline_interval: int = 1000
    iterations: int = 1000
    seed: int = 0
    #: Per-(mttf, interval) seed overrides (see class docstring).
    row_seeds: dict[tuple[float, int], int] = field(
        default_factory=lambda: {(3000.0, 500): 5}
    )
    #: Worker processes for the sweep (1 = in-process serial; every cell
    #: is an independent deterministic run, so results are identical).
    jobs: int = 1

    def cell_seed(self, mttf: float, interval: int) -> int:
        """Effective failure-draw seed of one (mttf, interval) cell."""
        return self.row_seeds.get((mttf, interval), self.seed)

    def system(self, **overrides: Any) -> SystemConfig:
        """The paper's machine at this configuration's scale."""
        return SystemConfig.paper_system(nranks=self.nranks, **overrides)

    def workload(self, interval: int) -> "HeatConfig":
        """The heat workload at this scale and checkpoint interval."""
        from repro.apps.heat3d import HeatConfig

        return HeatConfig.paper_workload(
            checkpoint_interval=interval, nranks=self.nranks, iterations=self.iterations
        )


def measure_e1(system: SystemConfig, workload: "HeatConfig", seed: int = 0) -> float:
    """Simulated execution time without failures (one clean run)."""
    from repro.apps.heat3d import heat3d

    sim = XSim(system, seed=seed)
    result = sim.run(heat3d, args=(workload, CheckpointStore()))
    if not result.completed:
        raise RuntimeError("E1 run did not complete")
    return result.exit_time


def run_table2_row(
    cfg: Table2Config,
    interval: int,
    mttf: float | None,
    e1: float | None = None,
    system: SystemConfig | None = None,
) -> tuple[Table2Cell, FailureRunResult | None]:
    """Measure one row; ``e1`` may be passed in to avoid re-measuring."""
    system = system if system is not None else cfg.system()
    workload = cfg.workload(interval)
    if e1 is None:
        e1 = measure_e1(system, workload, seed=cfg.seed)
    if mttf is None:
        return Table2Cell(None, interval, e1, None, 0, None), None
    from repro.apps.heat3d import heat3d

    seed = cfg.cell_seed(mttf, interval)
    driver = RestartDriver(
        system,
        heat3d,
        make_args=lambda store: (workload, store),
        mttf=mttf,
        seed=seed,
    )
    run = driver.run()
    cell = Table2Cell(
        mttf=mttf, interval=interval, e1=e1, e2=run.e2, f=run.f, mttf_a=run.mttf_a
    )
    return cell, run


def run_table2(cfg: Table2Config) -> list[Table2Cell]:
    """Measure the full table: baseline row, then MTTF x interval rows.

    The baseline/per-interval E1 runs and every (mttf, interval) cell are
    mutually independent deterministic runs, so the sweep routes through
    :class:`~repro.core.harness.parallel.CampaignExecutor`: with
    ``cfg.jobs > 1`` the cells fan out over worker processes and the
    measured table is identical to the serial sweep.
    """
    from repro.core.harness.parallel import CampaignExecutor, RunSpec

    e1_intervals: list[int] = [cfg.baseline_interval]
    for interval in cfg.intervals:
        if interval not in e1_intervals:
            e1_intervals.append(interval)
    specs = [
        RunSpec(
            "table2-e1",
            key=("e1", interval),
            params={
                "nranks": cfg.nranks,
                "interval": interval,
                "iterations": cfg.iterations,
                "seed": cfg.seed,
            },
        )
        for interval in e1_intervals
    ]
    cell_keys = [(mttf, interval) for mttf in cfg.mttfs for interval in cfg.intervals]
    specs.extend(
        RunSpec(
            "table2-cell",
            key=("cell", mttf, interval),
            params={
                "nranks": cfg.nranks,
                "interval": interval,
                "iterations": cfg.iterations,
                "mttf": mttf,
                "seed": cfg.cell_seed(mttf, interval),
            },
        )
        for mttf, interval in cell_keys
    )
    results = CampaignExecutor(max_workers=cfg.jobs).run(specs)
    e1 = dict(zip(e1_intervals, results[: len(e1_intervals)]))
    cells: list[Table2Cell] = [
        Table2Cell(None, cfg.baseline_interval, e1[cfg.baseline_interval], None, 0, None)
    ]
    for (mttf, interval), outcome in zip(cell_keys, results[len(e1_intervals):]):
        cells.append(
            Table2Cell(
                mttf=mttf,
                interval=interval,
                e1=e1[interval],
                e2=outcome["e2"],
                f=outcome["f"],
                mttf_a=outcome["mttf_a"],
            )
        )
    return cells


# ----------------------------------------------------------------------
# First Impressions (paper §V-D)
# ----------------------------------------------------------------------
_CTX_RE = re.compile(r"ctx=(\d+)")


def classify_detection_phase(result: SimulationResult) -> str | None:
    """Where the failure was detected, from the detection log entries.

    Point-to-point contexts are even (``2 * context_id``), collective
    contexts odd — so halo-exchange detections report ``pt2pt`` and
    checkpoint-barrier detections report ``collective``.  Returns
    ``None`` when nothing was detected (e.g. no failure activated).
    """
    kinds = set()
    for entry in result.log.category("detect"):
        m = _CTX_RE.search(entry.message)
        if m:
            kinds.add("pt2pt" if int(m.group(1)) % 2 == 0 else "collective")
    if not kinds:
        return None
    # The abort is triggered by the first detection; log order preserves it.
    first = result.log.category("detect")[0]
    m = _CTX_RE.search(first.message)
    return "pt2pt" if m and int(m.group(1)) % 2 == 0 else "collective"


@dataclass(frozen=True)
class FailureModeObservation:
    """One §V-D style observation of a single injected failure."""

    injected: tuple[int, float]
    activated: tuple[int, float] | None
    detected_phase: str | None
    """``"pt2pt"`` (halo exchange) or ``"collective"`` (barrier)."""
    corrupted_checkpoint: bool
    """A checkpoint file exists but misses information (failure mid-write)."""
    incomplete_checkpoint: bool
    """A checkpoint set is missing whole rank files."""
    partially_deleted_old: bool
    """An older checkpoint set lost only some of its files (failure during
    the post-checkpoint barrier/delete phase)."""
    aborted: bool


def observe_failure_mode(
    system: SystemConfig, workload: "HeatConfig", rank: int, time: float, seed: int = 0
) -> FailureModeObservation:
    """Run one segment with a single scheduled failure and report what the
    paper's First Impressions section looks for: the detection site and
    the checkpoint-store damage, inspected *before* any cleanup."""
    from repro.apps.heat3d import heat3d

    store = CheckpointStore()
    sim = XSim(system, seed=seed)
    sim.inject_schedule(FailureSchedule.of((rank, time)))
    result = sim.run(heat3d, args=(workload, store))
    nranks = system.nranks
    corrupted = False
    incomplete = False
    partially_deleted = False
    ids = store.checkpoint_ids()
    for cid in ids:
        present = store.ranks_present(cid)
        if store.corrupted_files(cid):
            corrupted = True
        if len(present) < nranks:
            if cid == max(ids):
                incomplete = True
            else:
                partially_deleted = True
    return FailureModeObservation(
        injected=(rank, time),
        activated=result.failures[0] if result.failures else None,
        detected_phase=classify_detection_phase(result),
        corrupted_checkpoint=corrupted,
        incomplete_checkpoint=incomplete,
        partially_deleted_old=partially_deleted,
        aborted=result.aborted,
    )
