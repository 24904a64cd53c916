"""The failure/restart driver: continuous virtual time across aborts.

Paper §IV-E: "To support continuous virtual timing after an abort and a
following restart, xSim optionally writes out the simulated time of the
application exit (maximum simulated MPI process time) to a file.  This file
can be read in upon restart to initialize the clock of all simulated MPI
processes with this time.  With this simple addition, xSim fully supports
the simulation of application-level checkpoint/restart triggered by
injected simulated MPI process failures."

:class:`RestartDriver` reproduces the full experimental loop behind
Table II:

1. run the application under a fresh :class:`~repro.core.simulator.XSim`
   whose engine clock starts at the previous segment's exit time;
2. per segment, optionally draw one random failure — uniform rank, uniform
   time within ``2 x MTTF_s`` *relative to the segment start* ("this ...
   system MTTF applies to each application run separately, i.e., from
   start to finish/failure and from restart to finish/failure");
3. on abort, run the "shell script" step
   (:meth:`CheckpointStore.cleanup_incomplete`) and restart;
4. on completion, report E2 (total simulated time), F (failures that
   actually activated), and MTTF_a = E2 / (F + 1).
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field
from typing import IO, TYPE_CHECKING, Any, Callable

from repro.check import checking_enabled
from repro.core.checkpoint.store import CheckpointStore
from repro.core.faults.policies import InjectionPolicy, SingleUniformFailurePolicy
from repro.core.faults.schedule import (
    CorrelatedFailure,
    FailureSchedule,
    ScheduledFailure,
    expand_correlated,
)
from repro.core.harness.config import SystemConfig
from repro.core.simulator import XSim
from repro.obs import Observer, observer_for
from repro.pdes.engine import SimulationResult
from repro.util.errors import SimulationError
from repro.util.rng import RngStreams

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.run.scenario import Scenario


@dataclass(frozen=True)
class SegmentRecord:
    """One run segment (start to finish or abort)."""

    index: int
    start_time: float
    result: SimulationResult
    drawn_failures: tuple[tuple[int, float], ...]
    """(rank, absolute time) pairs drawn for this segment (may be empty;
    component-model policies can draw several)."""

    @property
    def drawn_failure(self) -> tuple[int, float] | None:
        """The first drawn failure (the Table II policy draws exactly one)."""
        return self.drawn_failures[0] if self.drawn_failures else None

    @property
    def activated_failures(self) -> list[tuple[int, float]]:
        return self.result.failures


@dataclass
class FailureRunResult:
    """Outcome of a complete run-with-restarts experiment."""

    segments: list[SegmentRecord]
    store: CheckpointStore | None
    exit_values: dict[int, Any] = field(default_factory=dict)
    #: Deterministic strategy-side counters (replica failovers, dropped
    #: tier files, ...) — see :meth:`ResilienceStrategy.facts`.
    strategy_facts: dict[str, Any] = field(default_factory=dict)

    @property
    def completed(self) -> bool:
        return bool(self.segments) and self.segments[-1].result.completed

    @property
    def e2(self) -> float:
        """Total simulated execution time including failure/restart cycles
        (Table II's E2; equals E1 when no failure activated)."""
        return self.segments[-1].result.exit_time - self.segments[0].start_time

    @property
    def failures(self) -> list[tuple[int, float]]:
        """Every activated failure across all segments."""
        out: list[tuple[int, float]] = []
        for seg in self.segments:
            out.extend(seg.result.failures)
        return out

    @property
    def f(self) -> int:
        """Table II's F: the number of failures that actually activated."""
        return len(self.failures)

    @property
    def restarts(self) -> int:
        return len(self.segments) - 1

    @property
    def mttf_a(self) -> float | None:
        """Experienced application MTTF: E2 / (F + 1) — the relation the
        paper's Table II rows satisfy exactly.  None when no failure."""
        if self.f == 0:
            return None
        return self.e2 / (self.f + 1)


class RestartDriver:
    """Run an application to completion through failure/restart cycles.

    Parameters
    ----------
    system:
        The simulated machine.
    app:
        Application generator function ``app(mpi, *args)``.
    make_args:
        Builds the app argument tuple for each segment, given the shared
        checkpoint store (persisted across segments like a real PFS).
    mttf:
        Optional system MTTF: draw one random failure per segment per the
        paper's policy (shorthand for
        ``policy=SingleUniformFailurePolicy(mttf)``).  ``policy`` accepts
        any :class:`~repro.core.faults.policies.InjectionPolicy`, e.g. the
        component-reliability-driven one.  ``schedule`` may be given
        instead of (or in addition to) either; schedule times are absolute
        virtual times and apply to the first segment.
    seed:
        Seeds the failure-draw stream ("the experiments are repeatable as
        the simulator and the application are deterministic").
    """

    def __init__(
        self,
        system: SystemConfig,
        app,
        make_args: Callable[[CheckpointStore], tuple],
        mttf: float | None = None,
        policy: InjectionPolicy | None = None,
        schedule: FailureSchedule | None = None,
        seed: int = 0,
        max_restarts: int = 1000,
        draw_horizon: float | None = None,
        log_stream: IO[str] | None = None,
        check: bool | None = None,
        shards: int = 1,
        shard_transport: str | None = None,
        observe: "bool | Observer | None" = None,
        scenario: "Scenario | None" = None,
        strategy=None,
    ):
        if mttf is not None and policy is not None:
            raise SimulationError("pass either mttf or policy, not both")
        if strategy is None:
            if scenario is not None:
                strategy = scenario.make_strategy()
            else:
                from repro.resilience.ckpt import SingleLevelCheckpoint

                strategy = SingleLevelCheckpoint(None)
        #: The resilience strategy driving recovery: supplies the
        #: per-segment store, absorbs or passes through fail-stops
        #: (replication's warm failover), and owns the pre-restart
        #: cleanup.  Defaults to single-level checkpoint/restart.
        self.strategy = strategy
        #: The one declarative spec every segment of this experiment runs
        #: under, when the driver was built via :meth:`from_scenario`.
        self.scenario = scenario
        self.system = system
        self.app = app
        self.make_args = make_args
        self.policy: InjectionPolicy | None
        self.policy = SingleUniformFailurePolicy(mttf) if mttf is not None else policy
        self.schedule = schedule
        self.seed = seed
        self.max_restarts = max_restarts
        #: How far past each segment start the policy should bother drawing
        #: (unbounded by default; activations beyond the segment's end are
        #: naturally inert).
        self.draw_horizon = draw_horizon if draw_horizon is not None else float("inf")
        self.log_stream = log_stream
        #: Run every segment under the invariant sanitizer and audit the
        #: checkpoint namespace after each pre-restart cleanup.  ``None``
        #: defers to the ``XSIM_CHECK`` environment variable (per segment).
        self.check = check
        #: Worker-process count for each segment's simulation (see
        #: :mod:`repro.pdes.sharded`); results are bit-identical to serial.
        self.shards = shards
        self.shard_transport = shard_transport
        #: One :class:`~repro.obs.Observer` shared by every segment, so
        #: the exported timeline covers the whole failure/restart
        #: experiment on its continuous virtual clock — at the scenario's
        #: ``trace_detail`` when the driver builds it.
        self.observer: Observer | None = observer_for(
            observe, detail=scenario is not None and scenario.trace_detail
        )

    @classmethod
    def from_scenario(
        cls,
        scenario: "Scenario",
        log_stream: IO[str] | None = None,
        observe: "bool | Observer | None" = None,
        **overrides: Any,
    ) -> "RestartDriver":
        """A driver that carries one :class:`~repro.run.scenario.Scenario`
        across every failure/restart segment.

        The scenario supplies the machine, the application, the explicit
        failure schedule and/or MTTF draw policy, the C/R budget, the
        seed, the shard count and transport every segment's simulation is
        built with (:func:`~repro.run.backends.shard_plan`, once, here),
        and the instrumentation switches;
        ``overrides`` passes any extra constructor argument through (e.g.
        a component-model ``policy``).
        """
        from repro.run.backends import shard_plan

        shards, shard_transport = shard_plan(scenario)
        # One strategy instance serves the whole experiment: it wraps the
        # app here and rides through every segment of run() (so e.g. the
        # replication SDC monitor survives restarts).
        strategy = scenario.make_strategy()
        app, make_args = scenario.make_app(strategy=strategy)
        schedule = scenario.schedule()
        kwargs: dict[str, Any] = dict(
            strategy=strategy,
            mttf=scenario.mttf,
            schedule=schedule if schedule else None,
            seed=scenario.seed,
            max_restarts=scenario.max_restarts,
            log_stream=log_stream,
            check=scenario.check,
            shards=shards,
            shard_transport=shard_transport,
            observe=observe if observe is not None else scenario.observe,
            scenario=scenario,
        )
        kwargs.update(overrides)
        return cls(scenario.system_config(), app, make_args, **kwargs)

    def run(self) -> FailureRunResult:
        """Execute segments until the application completes (or the restart
        budget is exhausted); see the module docstring for the loop.

        One cyclic-collector pause covers the whole experiment (each
        segment's :meth:`XSim.run` would otherwise re-enable it between
        segments).  A segment's engine, world, VPs and rank states form
        reference cycles, so reference counting alone never frees them:
        at each boundary the finished segment is dropped and generation 0
        collected *before* the next one is built.  Nothing was collected
        since that segment was built, so its whole graph is still in
        generation 0; any later and its world has been promoted and pins
        the rest of the cycle.
        """
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            return self._run_segments()
        finally:
            if gc_was_enabled:
                gc.enable()

    def _run_segments(self) -> FailureRunResult:
        strategy = self.strategy
        strategy.begin_run()
        # Only a draw policy consumes the stream; a run under an explicit
        # schedule alone never builds the generator.
        rng = (
            RngStreams(self.seed).get("restart-failures")
            if self.policy is not None
            else None
        )
        segments: list[SegmentRecord] = []
        start = 0.0
        for index in range(self.max_restarts + 1):
            if self.observer is not None and index > 0:
                # The restart instant completes the resilience sequence:
                # inject -> detect -> notify -> abort -> restart.
                self.observer.instant(
                    start, "restart", track="resilience", args={"segment": index}
                )
            sim = XSim(
                self.system,
                seed=self.seed,
                start_time=start,
                log_stream=self.log_stream,
                check=self.check,
                shards=self.shards,
                shard_transport=self.shard_transport,
                observe=self.observer,
                scenario=self.scenario,
            )
            # Classify the explicit schedule (first segment only) so every
            # fail-stop — scheduled or drawn — routes through the strategy,
            # which may absorb it (replication's warm failover); degraded-
            # performance faults arm the world overlay directly.
            sched_failstops: list[tuple[int, float]] = []
            if self.schedule is not None and index == 0:
                self.schedule.validate(self.system.nranks)
                for entry in self.schedule:
                    if isinstance(entry, ScheduledFailure):
                        sched_failstops.append((entry.rank, entry.time))
                    elif isinstance(entry, CorrelatedFailure):
                        sched_failstops.extend(
                            expand_correlated(entry, sim.world.network, self.system.nranks)
                        )
                    else:
                        sim.inject_perturbation(entry)
            drawn: list[tuple[int, float]] = []
            if self.policy is not None:
                drawn = [
                    (rank, start + t_rel)
                    for rank, t_rel in self.policy.draw_segment(
                        rng, self.system.nranks, self.draw_horizon
                    )
                ]
            failstops = strategy.transform_failures(
                sim, sched_failstops + drawn, observer=self.observer
            )
            for rank, t_abs in failstops:
                sim.inject_failure(rank, t_abs)
            result = sim.run(self.app, args=self.make_args(strategy.segment_store()))
            # Execution facts of the most recent segment (actual shard
            # transport, fallback flag) for ScenarioOutcome.metadata.
            self.shard_stats = getattr(sim, "shard_stats", None)
            if self.observer is not None:
                self.observer.span(
                    start, result.exit_time, "segment", track="simulator",
                    args={"index": index, "completed": result.completed},
                )
            segments.append(
                SegmentRecord(
                    index=index,
                    start_time=start,
                    result=result,
                    drawn_failures=tuple(drawn),
                )
            )
            if result.completed:
                return FailureRunResult(
                    segments=segments,
                    store=strategy.result_store(),
                    exit_values=result.exit_values,
                    strategy_facts=strategy.facts(),
                )
            if not result.aborted:
                raise SimulationError(
                    f"segment {index} ended without completing or aborting "
                    f"(states: {set(s.value for s in result.states.values())})"
                )
            # Pre-restart recovery step — for single-level ckpt this is the
            # paper's shell-script cleanup of incomplete checkpoint sets;
            # multi-level additionally drops the tiers the failure destroyed.
            strategy.on_abort(
                result,
                self.system.nranks,
                check=self.check if self.check is not None else checking_enabled(),
                observer=self.observer,
            )
            start = result.exit_time
            del sim
            gc.collect(0)
        raise SimulationError(
            f"application did not complete within {self.max_restarts} restarts"
        )
