"""Proactive fault tolerance via predicted-failure migration.

The authors' proactive-FT line (paper refs [9], [17], [19]: preemptive and
live process migration) moves a process off a node *before* a predicted
failure: health monitoring raises a warning ``lead_time`` ahead; if a spare
node is available and the warning came early enough, the victim rank
live-migrates (paying a stop-and-copy pause proportional to its state
size), and the subsequent node failure hits an empty node instead of the
application.

Simulation model:

* :class:`FailurePredictor` — an oracle with ``recall`` (fraction of
  failures predicted) and ``lead_time``; optionally raises false alarms
  that cost a migration without any failure behind them.
* :class:`ProactiveMigration` — single-level checkpoint/restart whose
  :meth:`~repro.resilience.strategy.ResilienceStrategy.transform_failures`
  decides each fail-stop's fate: either pass the real process failure
  through (unpredicted / no spare / warning too late) or replace it with
  the stop-and-copy pause at the warning time.  The pause is a 2x
  straggler window twice the downtime long, so a rank that computes
  through it is charged exactly the downtime.

The trade-off this exposes is exactly the proactive-FT literature's:
perfect prediction turns failures into ~seconds of migration downtime;
imperfect recall leaves residual failures for checkpoint/restart to absorb
(the combined approach of ref [17]).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.faults.schedule import StragglerFault
from repro.resilience.ckpt import SingleLevelCheckpoint
from repro.util.errors import ConfigurationError
from repro.util.rng import RngStreams, Stream

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.core.simulator import XSim
    from repro.obs import Observer


@dataclass(frozen=True)
class FailurePredictor:
    """Health-monitoring prediction model."""

    lead_time: float = 60.0
    recall: float = 1.0
    false_alarms_per_segment: float = 0.0

    def __post_init__(self) -> None:
        if self.lead_time < 0:
            raise ConfigurationError(f"lead_time must be >= 0, got {self.lead_time}")
        if not 0.0 <= self.recall <= 1.0:
            raise ConfigurationError(f"recall must be in [0, 1], got {self.recall}")
        if self.false_alarms_per_segment < 0:
            raise ConfigurationError("false_alarms_per_segment must be >= 0")

    def predicts(self, rng: Stream) -> bool:
        """Bernoulli draw: is this failure predicted in time?"""
        return bool(rng.random() < self.recall)


@dataclass
class MigrationStats:
    """Book-keeping of one experiment's proactive actions."""

    migrations: int = 0
    avoided_failures: int = 0
    unpredicted: int = 0
    too_late: int = 0
    out_of_spares: int = 0
    false_alarm_migrations: int = 0
    downtime: float = 0.0
    events: list[tuple[str, int, float]] = field(default_factory=list)


class ProactiveMigration(SingleLevelCheckpoint):
    """Single-level checkpoint/restart with predict-and-migrate.

    Use as ``RestartDriver(..., strategy=ProactiveMigration(...))``; every
    fail-stop, scheduled or drawn, is inspected before it is armed.

    Parameters
    ----------
    predictor:
        The prediction model.
    spares:
        Healthy spare nodes available to absorb migrations (each
        migration consumes one; the pool spans the whole experiment).
    state_bytes:
        Per-rank state to move during stop-and-copy.
    migration_bandwidth:
        Transfer rate of the migration channel (bytes/second).
    migration_latency:
        Fixed per-migration coordination cost (seconds).
    seed:
        Seeds the prediction draws (deterministic experiments).
    """

    def __init__(
        self,
        predictor: FailurePredictor,
        spares: int = 1,
        state_bytes: int = 32 * 1024,
        migration_bandwidth: float = 1e9,
        migration_latency: float = 1.0,
        seed: int = 0,
    ):
        if spares < 0 or state_bytes < 0:
            raise ConfigurationError("spares and state_bytes must be >= 0")
        if migration_bandwidth <= 0 or migration_latency < 0:
            raise ConfigurationError("invalid migration channel parameters")
        super().__init__(None)
        self.predictor = predictor
        self.spares = spares
        self.state_bytes = state_bytes
        self.migration_bandwidth = migration_bandwidth
        self.migration_latency = migration_latency
        self.rng = RngStreams(seed).get("migration-predictions")
        self.stats = MigrationStats()

    @property
    def migration_downtime(self) -> float:
        """Stop-and-copy pause of one migration."""
        return self.migration_latency + self.state_bytes / self.migration_bandwidth

    # ------------------------------------------------------------------
    def transform_failures(
        self,
        sim: "XSim",
        failstops: list[tuple[int, float]],
        observer: "Observer | None" = None,
    ) -> list[tuple[int, float]]:
        """Decide each fail-stop's fate; returns those to really arm.

        Migrations are armed directly on ``sim`` as pauses at the warning
        time.
        """
        inject: list[tuple[int, float]] = []
        for rank, t_fail in failstops:
            t_warn = t_fail - self.predictor.lead_time
            if not self.predictor.predicts(self.rng):
                self.stats.unpredicted += 1
                self.stats.events.append(("unpredicted", rank, t_fail))
                inject.append((rank, t_fail))
                continue
            if t_warn < sim.engine.start_time:
                self.stats.too_late += 1
                self.stats.events.append(("too-late", rank, t_fail))
                inject.append((rank, t_fail))
                continue
            if self.spares <= 0:
                self.stats.out_of_spares += 1
                self.stats.events.append(("out-of-spares", rank, t_fail))
                inject.append((rank, t_fail))
                continue
            # migrate: the node still dies, but nobody lives there anymore
            self.stats.avoided_failures += 1
            self._migrate(sim, rank, t_warn, "migrated")
        # false alarms: spurious warnings also cost migrations
        n_false = int(self.rng.poisson(self.predictor.false_alarms_per_segment))
        for _ in range(n_false):
            if self.spares <= 0:
                break
            rank = int(self.rng.integers(0, sim.system.nranks))
            t_warn = sim.engine.start_time + float(
                self.rng.uniform(0.0, max(self.predictor.lead_time, 1.0) * 100.0)
            )
            self.stats.false_alarm_migrations += 1
            self._migrate(sim, rank, t_warn, "false-alarm")
        return inject

    def _migrate(self, sim: "XSim", rank: int, t_warn: float, kind: str) -> None:
        """Spend a spare and pause ``rank`` for the stop-and-copy from
        ``t_warn``: computing at half speed for twice the downtime costs
        a computing rank exactly the downtime."""
        downtime = self.migration_downtime
        self.spares -= 1
        self.stats.migrations += 1
        self.stats.downtime += downtime
        self.stats.events.append((kind, rank, t_warn))
        if downtime > 0.0:
            sim.inject_perturbation(
                StragglerFault(rank, t_warn, factor=2.0, duration=2 * downtime)
            )
