"""Rank replication with warm failover and SDC hash compare.

Runs the logical job on ``factor`` replicas per rank through the redMPI
facade (:mod:`repro.core.redundancy`): every point-to-point message is
mirrored between same-index replicas with a crc32 hash side channel, so
silent data corruption is *detected* by comparison, and fail-stop faults
are *masked* as long as one replica of each logical rank survives
(TeaMPI-style warm failover, arXiv:2005.12091).

Failover model: a fail-stop drawn against a replica that still has a live
sibling is **absorbed** — the replica set continues at full width (the
spare is warm) and the surviving replicas of that logical rank pay a
synchronization window, modelled as a :class:`~repro.core.faults.schedule.
StragglerFault` (``slowdown`` x for ``pause`` seconds).  Only when the
*last* replica of a logical rank is hit does the failure go through for
real, aborting the job — and with no checkpoints, the restart begins from
scratch.  Absorbed failures therefore cost zero restart segments.

The per-run :class:`~repro.core.redundancy.RedundancyMonitor` is created
once in :meth:`begin_run` and carried across restart segments, so SDC
detections are never lost to a restart.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.faults.schedule import StragglerFault
from repro.core.redundancy import RedundancyMonitor, redundant
from repro.resilience.strategy import ResilienceStrategy, register

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.core.simulator import XSim
    from repro.obs import Observer


@register
class Replication(ResilienceStrategy):
    """redMPI-style modular redundancy with warm failover."""

    name = "replication"

    def _configure(self) -> None:
        self.factor: int = self.values["factor"]
        self.pause: float = self.values["pause"]
        self.slowdown: float = self.values["slowdown"]
        self.failovers = 0
        self.fatal = 0
        #: One monitor for the whole experiment, created at construction
        #: (the app wrapper closes over it) and carried across restart
        #: segments so SDC detections are never lost (regression-tested).
        self.monitor = RedundancyMonitor(factor=self.factor)
        self._dead: set[int] = set()

    def begin_run(self) -> None:
        # Reset in place — the app wrapper holds a reference.
        self.monitor.detections.clear()
        self.monitor.messages_compared = 0
        self.failovers = 0
        self.fatal = 0
        self._dead = set()

    def wrap_app(self, app):
        return redundant(app, self.factor, self.monitor)

    def transform_failures(
        self,
        sim: "XSim",
        failstops,
        observer: "Observer | None" = None,
    ):
        # A restart relaunches every physical rank, so replica liveness
        # resets at each segment boundary.
        self._dead = set()
        n_logical = sim.system.nranks // self.factor
        out = []
        for rank, time in sorted(failstops, key=lambda f: (f[1], f[0])):
            if rank in self._dead:
                continue  # that replica is already down in the model
            logical = rank % n_logical
            replicas = {j * n_logical + logical for j in range(self.factor)}
            if len((self._dead & replicas) | {rank}) >= self.factor:
                # Last replica of this logical rank: the failure is
                # unmasked and aborts the job for real.
                self.fatal += 1
                out.append((rank, time))
                continue
            # Warm failover: absorb the failure, survivors of this
            # logical rank pay the synchronization window.
            self._dead.add(rank)
            self.failovers += 1
            survivors = sorted(replicas - self._dead)
            if self.pause > 0.0 and self.slowdown > 1.0:
                for survivor in survivors:
                    sim.inject_perturbation(
                        StragglerFault(
                            rank=survivor,
                            time=time,
                            factor=self.slowdown,
                            duration=self.pause,
                        )
                    )
            if observer is not None:
                observer.instant(
                    time, "replica-failover", rank=rank, track="resilience",
                    args={"logical": logical, "survivors": len(survivors)},
                )
        return out

    def facts(self):
        # Parent-side counters only: RedundancyMonitor tallies accrue in
        # the shard workers under the shm transport and are not
        # merged back, so they stay off the (transport-independent) run
        # summary; tests read ``self.monitor`` directly on serial runs.
        return {
            "strategy": self.name,
            "factor": self.factor,
            "failovers": self.failovers,
            "fatal": self.fatal,
        }
