"""The paper's section V-D "First Impressions" observations.

* :func:`observe_failure_mode` — where a failure injected into a given
  phase is *detected* (halo exchange vs. barrier) and what it leaves
  behind in the checkpoint store (corrupted file, incomplete set,
  partially deleted old set).
* :func:`result_digest` / :func:`campaign_digest` — the canonical
  fingerprints, defined in :mod:`repro.core.harness.digest` (a run that
  only needs a digest does not import this module's driver) and
  re-exported here.

Table II lives in :mod:`repro.run.table2`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.checkpoint.store import CheckpointStore
from repro.core.faults.schedule import FailureSchedule
from repro.core.harness.config import SystemConfig
from repro.core.harness.digest import campaign_digest, result_digest  # noqa: F401 - re-exported
from repro.core.simulator import XSim
from repro.pdes.engine import SimulationResult

if TYPE_CHECKING:  # pragma: no cover - the app package imports this module
    from repro.apps.heat3d import HeatConfig

_CTX_RE = re.compile(r"ctx=(\d+)")


def classify_detection_phase(result: SimulationResult) -> str | None:
    """Where the failure was detected, from the detection log entries.

    Point-to-point contexts are even (``2 * context_id``), collective
    contexts odd — so halo-exchange detections report ``pt2pt`` and
    checkpoint-barrier detections report ``collective``.  Returns
    ``None`` when nothing was detected (e.g. no failure activated).

    The abort is triggered by the earliest detection, which is not
    always the first one logged: a timeout detection is logged when it
    is scheduled, stamped up to one detection timeout ahead, and one
    stamped after the abort never happened.
    """
    detections = [
        (entry.time, int(m.group(1)))
        for entry in result.log.category("detect")
        if (m := _CTX_RE.search(entry.message))
    ]
    if result.abort_time is not None:
        detections = [d for d in detections if d[0] <= result.abort_time]
    if not detections:
        return None
    _, ctx = min(detections, key=lambda d: d[0])
    return "pt2pt" if ctx % 2 == 0 else "collective"


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
