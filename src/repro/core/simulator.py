"""The :class:`XSim` facade: one configured simulation run.

Ties together the engine, the hardware models, the simulated MPI layer, and
the resilience injection surface.  One ``XSim`` instance is one simulated
job execution (the engine is single-shot); the
:class:`~repro.core.restart.RestartDriver` creates a fresh instance per
failure/restart segment, carrying the simulated exit time forward.

A :class:`~repro.run.scenario.Scenario` becomes constructor arguments in
:meth:`XSim.from_scenario` (one standalone simulation) and in the restart
driver (each segment of a scenario's run); the constructor wires the
instrumentation (sanitizer, event trace, observer) itself, and
:meth:`XSim.run` dispatches itself — the serial engine for one shard,
:func:`repro.pdes.sharded.run_sharded` otherwise.

Usage::

    sim = XSim(SystemConfig.paper_system(nranks=4096))
    sim.inject_failure(rank=17, time=1000.0)          # rank/time pair
    sim.inject_schedule(FailureSchedule.parse("3@5s"))  # CLI/env format
    result = sim.run(my_app, args=(cfg,))

    sim = XSim.from_scenario(Scenario(ranks=4096, app="heat3d"))
"""

from __future__ import annotations

import gc
from time import perf_counter
from typing import TYPE_CHECKING, Any, Iterable

from repro.check import checking_enabled
from repro.core.faults.schedule import (
    CorrelatedFailure,
    FailureSchedule,
    LinkDegradeFault,
    ScheduledFailure,
    StragglerFault,
    expand_correlated,
)
from repro.core.harness.config import SystemConfig
from repro.mpi.world import MpiWorld
from repro.models.memory import MemoryTracker
from repro.pdes.engine import Engine, SimulationResult
from repro.run.scenario import BACKEND_TRANSPORTS, backend_name_for
from repro.util.errors import SimulationError
from repro.util.rng import RngStreams

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.check.sanitizer import Sanitizer
    from repro.check.trace import EventTrace
    from repro.core.faults.softerror import SoftErrorInjector
    from repro.obs import Observer
    from repro.resilience.strategy import ResilienceStrategy
    from repro.run.scenario import Scenario


class XSim:
    """One configured, single-shot simulation of an MPI job."""

    def __init__(
        self,
        system: SystemConfig,
        seed: int = 0,
        start_time: float = 0.0,
        check: bool | None = None,
        record_events: bool = False,
        shards: int = 1,
        shard_transport: str | None = None,
        shard_lookahead: float | None = None,
        observe: "bool | Observer | None" = None,
        trace_detail: bool = False,
    ):
        self.system = system
        self.seed = seed
        self.rng = RngStreams(seed)
        #: Worker-process count for the sharded conservative-parallel
        #: engine (``repro.pdes.sharded``); 1 = serial.  Taken literally:
        #: only a campaign's worker pool caps it, per cell
        #: (:func:`repro.run.sweep.run_cells`).
        self.shards = shards
        self.shard_transport = shard_transport
        self.shard_lookahead = shard_lookahead
        if self.shards > 1:
            from repro.pdes.sharded import ShardedMpiWorld, WindowedEngine

            engine_cls, world_cls = WindowedEngine, ShardedMpiWorld
        else:
            engine_cls, world_cls = Engine, MpiWorld
        self.engine = engine_cls(start_time=start_time)
        self.memory = MemoryTracker()
        self.world = world_cls(
            self.engine,
            system.make_network(),
            processor=system.make_processor(),
            filesystem=system.filesystem,
            memory=self.memory,
            strict_finalize=system.strict_finalize,
            collective_algorithm=system.collective_algorithm,
        )
        #: Runtime invariant sanitizer, or ``None``;
        #: ``check=None`` defers to the ``XSIM_CHECK`` environment variable.
        self.checker: Sanitizer | None = None
        if check if check is not None else checking_enabled():
            from repro.check.sanitizer import Sanitizer

            self.checker = Sanitizer(self.engine, self.world)
            self.engine.check = self.world.check = self.checker
        #: Event-trace recorder (the dispatch trace replay diffing reads),
        #: or ``None``.
        self.event_trace: EventTrace | None = None
        if record_events:
            from repro.check.trace import EventTrace

            self.event_trace = self.engine.event_trace = EventTrace()
        #: Observability bus, or ``None``: a fresh one for ``True``, the
        #: caller's (e.g. one shared across restart segments) for an
        #: :class:`~repro.obs.Observer`.  See :mod:`repro.obs`.
        self.observer: Observer | None = None
        if observe is not None and observe is not False:
            from repro.obs import observer_for

            self.observer = observer_for(observe, detail=trace_detail)
            self.engine.obs = self.world.obs = self.observer
        self._soft_errors: SoftErrorInjector | None = None
        self._pending_failures: list[tuple[int, float]] = []
        #: Snapshot of the failures armed before :meth:`run`; the sharded
        #: coordinator derives its lockstep horizon from it.
        self._armed_failures: list[tuple[int, float]] = []
        #: Degraded-performance faults (stragglers, link degradation)
        #: armed on the world's fault overlay; shard replicas re-arm them
        #: (see :func:`repro.pdes.sharded._build_replica`).
        self._armed_perturbations: list[StragglerFault | LinkDegradeFault] = []
        self._ran = False
        #: Filled by a sharded run (``repro.pdes.sharded.ShardStats``).
        self.shard_stats = None

    # ------------------------------------------------------------------
    # injection surface
    # ------------------------------------------------------------------
    def inject_failure(self, rank: int, time: float) -> None:
        """Arm an MPI process failure (earliest ``time``, paper §IV-B).

        May be called before or after :meth:`run` launched the job;
        pre-launch injections are applied at launch.
        """
        self._check_rank(rank)
        if rank < len(self.engine.vps):
            self.engine.schedule_failure(rank, time)
        else:
            self._pending_failures.append((rank, time))

    def inject_schedule(
        self,
        schedule: FailureSchedule | None,
        strategy: "ResilienceStrategy | None" = None,
        drawn: Iterable[tuple[int, float]] = (),
    ) -> None:
        """Arm one run segment's faults: the one way a fault reaches a run.

        ``schedule`` is validated and its degraded-performance faults arm
        the world's fault overlay.  Its fail-stops (correlated failures
        expanded over the topology neighborhood), then the ``drawn`` ones,
        go through ``strategy.transform_failures`` once — which may absorb
        some (replication's warm failover) — and what it returns is armed.
        ``strategy=None`` arms every fail-stop as given.
        """
        failstops: list[tuple[int, float]] = []
        if schedule is not None:
            schedule.validate(self.system.nranks)
            for entry in schedule:
                if isinstance(entry, ScheduledFailure):
                    failstops.append((entry.rank, entry.time))
                elif isinstance(entry, CorrelatedFailure):
                    failstops.extend(
                        expand_correlated(entry, self.world.network, self.system.nranks)
                    )
                else:
                    self.inject_perturbation(entry)
        failstops.extend(drawn)
        if strategy is not None:
            failstops = strategy.transform_failures(
                self, failstops, observer=self.observer
            )
        for rank, time in failstops:
            self.inject_failure(rank, time)

    def inject_perturbation(self, fault: "StragglerFault | LinkDegradeFault") -> None:
        """Arm a degraded-performance fault (straggler or link degrade) on
        the world's cost overlay."""
        if isinstance(fault, StragglerFault):
            self._check_rank(fault.rank)
        elif isinstance(fault, LinkDegradeFault):
            self._check_rank(fault.rank_a)
            self._check_rank(fault.rank_b)
        else:
            raise SimulationError(
                f"not a degraded-performance fault: {type(fault).__name__}"
            )
        self._armed_perturbations.append(fault)
        self.world.faults.arm(fault)

    @property
    def soft_errors(self) -> SoftErrorInjector:
        """The lazily created soft-error injector bound to this run."""
        if self._soft_errors is None:
            from repro.core.faults.softerror import SoftErrorInjector

            self._soft_errors = SoftErrorInjector(
                engine=self.engine, memory=self.memory, rng=self.rng.get("soft-errors")
            )
        return self._soft_errors

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.system.nranks:
            raise SimulationError(f"rank {rank} outside job of {self.system.nranks} ranks")

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    @classmethod
    def from_scenario(cls, scenario: "Scenario") -> "XSim":
        """Build the simulation a scenario describes, on the shard count
        and the transport of the backend it names."""
        return cls(
            scenario.system_config(),
            seed=scenario.seed,
            check=scenario.check,
            record_events=scenario.record_events,
            shards=scenario.shards,
            shard_transport=BACKEND_TRANSPORTS[scenario.backend_name()],
            observe=scenario.observe,
            trace_detail=scenario.trace_detail,
        )

    def run(self, app, args: tuple = (), nranks: int | None = None) -> SimulationResult:
        """Launch ``app(mpi, *args)`` on ``nranks`` (default: the system's
        full rank count) and simulate to completion or abort: on the
        serial engine for one shard, across shards otherwise."""
        if self._ran:
            raise SimulationError("XSim instances are single-shot; create a new one")
        self._ran = True
        nranks = nranks if nranks is not None else self.system.nranks
        # One collector pause from launch to the last event: launch builds
        # ~14 tracked objects a rank that the run keeps, and collections
        # over a heap that only grows get longer as it does (the engine's
        # own pause, see :meth:`Engine.run`, starts one call too late).
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            self.world.launch(app, nranks, args)
            self._armed_failures = list(self._pending_failures)
            for rank, time in self._pending_failures:
                self.engine.schedule_failure(rank, time)
            self._pending_failures.clear()
            if self.shards > 1:
                from repro.pdes.sharded import run_sharded

                return run_sharded(self, app, args, nranks)
            t0 = perf_counter()
            result = self.engine.run()
            if self.observer is not None:
                self.observer.host_span(
                    t0, perf_counter(), "engine-run", track="engine",
                    args={"events": self.engine.event_count},
                )
            return result
        finally:
            if gc_was_enabled:
                gc.enable()

    # ------------------------------------------------------------------
    # architecture self-description (Figure 1 reproduction)
    # ------------------------------------------------------------------
    def describe_architecture(self) -> dict[str, Any]:
        """Structured description of the layered architecture, mirroring
        the paper's Figure 1 (a) architecture / (b) design diagrams."""
        net = self.world.network
        backend = backend_name_for(self.shards, self.shard_transport)
        return {
            "backend": {
                "name": backend,
                "shards": self.shards,
                "shard_transport": BACKEND_TRANSPORTS[backend],
            },
            "layers": [
                "application (simulated MPI processes / virtual processes)",
                "simulated MPI layer (pt2pt matching, collectives, error handlers, ULFM)",
                "resilience extensions (failure injection, detection/notification, abort, C/R)",
                "PDES engine (virtual clocks, event queue, conservative synchronization)",
                "hardware models (processor, network, file system, memory)",
            ],
            "virtual_processes": self.system.nranks,
            "topology": type(net.topology).__name__,
            "nodes": net.topology.nnodes,
            "ranks_per_node": net.ranks_per_node,
            "link_latency_s": net.system.latency,
            "link_bandwidth_Bps": net.system.bandwidth,
            "eager_threshold_B": net.eager_threshold,
            "detection_timeout_s": net.system.detection_timeout,
            "collective_algorithm": self.world.collective_algorithm,
            "processor_slowdown": self.system.slowdown,
            "components": {
                "engine": type(self.engine).__name__,
                "world": type(self.world).__name__,
                "network_model": type(net).__name__,
                "processor_model": type(self.world.processor).__name__,
                "filesystem_model": type(self.world.filesystem).__name__,
                "memory_tracker": type(self.memory).__name__,
            },
        }

    def render_architecture(self) -> str:
        """ASCII rendering of :meth:`describe_architecture`."""
        d = self.describe_architecture()
        width = 74
        lines = ["+" + "-" * width + "+"]
        for layer in d["layers"]:
            lines.append("| " + layer.ljust(width - 2) + " |")
            lines.append("+" + "-" * width + "+")
        lines.append(
            f"simulated machine: {d['virtual_processes']} VPs on {d['nodes']} nodes "
            f"({d['topology']}), {d['collective_algorithm']} collectives, "
            f"{d['processor_slowdown']:g}x slowdown"
        )
        b = d["backend"]
        transport = f", {b['shard_transport']} transport" if b["shard_transport"] else ""
        shard_word = "shard" if b["shards"] == 1 else "shards"
        lines.append(
            f"execution backend: {b['name']} ({b['shards']} {shard_word}{transport})"
        )
        return "\n".join(lines)
