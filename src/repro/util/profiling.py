"""Lightweight simulator performance instrumentation.

The hot-path optimization work (stale-event skipping, advance coalescing,
matching fast paths) needs observability that does not itself slow the
event loop down.  This module reads counters the engine and MPI layer
already maintain and adds exactly one optional hook: an application (or
harness) may call :meth:`~repro.pdes.engine.Engine.mark_phase` to record
named phase boundaries, which is a no-op costing one attribute read unless
an :class:`EngineProfiler` is attached.

Usage::

    sim = XSim(system)
    with EngineProfiler(sim.engine, world=sim.world) as prof:
        result = sim.run(heat3d, args=(workload, store))
    report = prof.report()
    print(report.render())

The report's ``events_per_sec`` is the end-to-end simulator throughput
(dispatched plus coalesced events over wall-clock time).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.mpi.world import MpiWorld
    from repro.pdes.engine import Engine


@dataclass(frozen=True)
class PhaseStats:
    """One named span between two phase marks (or a mark and the end)."""

    label: str
    virtual_seconds: float
    events: int


@dataclass(frozen=True)
class ProfileReport:
    """Snapshot of one profiled simulation run."""

    wall_seconds: float
    event_count: int
    events_per_sec: float
    stale_skipped: int
    """Dead-VP events lazily deleted at dispatch instead of executed."""
    coalesced_advances: int
    """Advance resumes taken inline without a heap round-trip."""
    match_scan_calls: int
    """Wildcard matching scans performed by the MPI layer (the indexed
    exact-match fast paths never scan; 0 when no world was attached)."""
    match_scan_length: int
    """Total queue length walked across all wildcard matching scans."""
    phases: tuple[PhaseStats, ...]
    # -- sharded-run fields (all zero for a serial run) ----------------
    shards: int = 0
    """Worker count of the sharded engine (0: the run was serial)."""
    shard_windows: int = 0
    """Conservative safe windows executed (one coordinator round each)."""
    shard_lockstep_rounds: int = 0
    """Per-timestamp lockstep rounds (failure/abort instants)."""
    shard_barrier_seconds: float = 0.0
    """Coordinator wall time beyond the slowest worker per round — the
    window/barrier protocol overhead on top of useful work."""
    shard_critical_path_seconds: float = 0.0
    """Sum over rounds of the slowest participating worker's wall time
    (lower bound on multi-core wall clock for this partition)."""
    shard_worker_busy_seconds: float = 0.0
    """Total worker wall time across rounds (the parallelizable work)."""
    shard_imbalance: float = 0.0
    """Events-per-shard imbalance, max/mean (1.0 = perfectly balanced)."""
    shard_cross_messages: int = 0
    """Messages that crossed a shard boundary."""

    @property
    def mean_match_scan(self) -> float:
        """Mean queue length per wildcard matching scan."""
        if self.match_scan_calls == 0:
            return 0.0
        return self.match_scan_length / self.match_scan_calls

    def as_record(self) -> dict[str, Any]:
        """JSON-ready form."""
        return {
            "wall_seconds": self.wall_seconds,
            "event_count": self.event_count,
            "events_per_sec": self.events_per_sec,
            "stale_skipped": self.stale_skipped,
            "coalesced_advances": self.coalesced_advances,
            "match_scan_calls": self.match_scan_calls,
            "match_scan_length": self.match_scan_length,
            "mean_match_scan": self.mean_match_scan,
            "shards": self.shards,
            "shard_windows": self.shard_windows,
            "shard_lockstep_rounds": self.shard_lockstep_rounds,
            "shard_barrier_seconds": self.shard_barrier_seconds,
            "shard_critical_path_seconds": self.shard_critical_path_seconds,
            "shard_worker_busy_seconds": self.shard_worker_busy_seconds,
            "shard_imbalance": self.shard_imbalance,
            "shard_cross_messages": self.shard_cross_messages,
            "phases": [
                {
                    "label": p.label,
                    "virtual_seconds": p.virtual_seconds,
                    "events": p.events,
                }
                for p in self.phases
            ],
        }

    def render(self) -> str:
        """Human-readable multi-line summary."""
        lines = [
            f"events          {self.event_count:>12,}",
            f"wall time       {self.wall_seconds:>12.3f} s",
            f"throughput      {self.events_per_sec:>12,.0f} events/s",
            f"stale skipped   {self.stale_skipped:>12,}",
            f"coalesced adv.  {self.coalesced_advances:>12,}",
            f"matching scans  {self.match_scan_calls:>12,} (mean length {self.mean_match_scan:.1f})",
        ]
        if self.shards:
            lines.extend(
                [
                    f"shards          {self.shards:>12,}",
                    f"safe windows    {self.shard_windows:>12,}"
                    f" (+{self.shard_lockstep_rounds:,} lockstep rounds)",
                    f"barrier overhead{self.shard_barrier_seconds:>12.3f} s",
                    f"critical path   {self.shard_critical_path_seconds:>12.3f} s"
                    f" (of {self.shard_worker_busy_seconds:.3f} s worker time)",
                    f"shard imbalance {self.shard_imbalance:>12.2f} (max/mean events)",
                    f"cross-shard msgs{self.shard_cross_messages:>12,}",
                ]
            )
        for p in self.phases:
            lines.append(
                f"  phase {p.label:<16} {p.virtual_seconds:>12.3f} vs  {p.events:>10,} events"
            )
        return "\n".join(lines)


class EngineProfiler:
    """Attach profiling to one engine run (context manager).

    Attaching installs the phase-mark list the engine's
    :meth:`~repro.pdes.engine.Engine.mark_phase` appends to; everything
    else is read from counters the simulator maintains anyway, so the
    instrumented run's hot path is unchanged.  Pass the
    :class:`~repro.mpi.world.MpiWorld` to include matching-scan
    statistics.
    """

    def __init__(self, engine: "Engine", world: "MpiWorld | None" = None):
        self.engine = engine
        self.world = world
        self._marks: list[tuple[str, float, int]] = []
        engine._phase_marks = self._marks
        self._t0 = time.perf_counter()
        self._wall: float | None = None

    def __enter__(self) -> "EngineProfiler":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.stop()

    def stop(self) -> None:
        """Freeze the wall-clock measurement (idempotent)."""
        if self._wall is None:
            self._wall = time.perf_counter() - self._t0

    def report(self) -> ProfileReport:
        """Build the report from the engine's current counters."""
        self.stop()
        engine = self.engine
        wall = self._wall or 0.0
        phases: list[PhaseStats] = []
        marks = self._marks + [("<end>", engine.now, engine.event_count)]
        for (label, t0, e0), (_, t1, e1) in zip(marks, marks[1:]):
            phases.append(PhaseStats(label=label, virtual_seconds=t1 - t0, events=e1 - e0))
        # A sharded run (repro.pdes.sharded) leaves its coordination
        # statistics on the engine at merge time; serial runs have none.
        stats = getattr(engine, "shard_stats", None)
        return ProfileReport(
            wall_seconds=wall,
            event_count=engine.event_count,
            events_per_sec=engine.event_count / wall if wall > 0 else 0.0,
            stale_skipped=engine.stale_skipped,
            coalesced_advances=engine.coalesced_advances,
            match_scan_calls=self.world.match_scan_calls if self.world is not None else 0,
            match_scan_length=self.world.match_scan_length if self.world is not None else 0,
            phases=tuple(phases),
            shards=stats.nshards if stats is not None else 0,
            shard_windows=stats.windows if stats is not None else 0,
            shard_lockstep_rounds=stats.lockstep_rounds if stats is not None else 0,
            shard_barrier_seconds=stats.barrier_seconds if stats is not None else 0.0,
            shard_critical_path_seconds=(
                stats.critical_path_seconds if stats is not None else 0.0
            ),
            shard_worker_busy_seconds=(
                stats.worker_busy_seconds if stats is not None else 0.0
            ),
            shard_imbalance=stats.imbalance if stats is not None else 0.0,
            shard_cross_messages=stats.cross_shard_messages if stats is not None else 0,
        )
