"""Executing a scenario: the full run, one segment or more.

:func:`run_scenario` takes a :class:`~repro.run.scenario.Scenario` to a
:class:`ScenarioOutcome` — through the result cache when one is in
force, else :meth:`RestartDriver.from_scenario
<repro.core.restart.RestartDriver.from_scenario>`, the one place a run
is built: a fault-free scenario is its one-segment case.  Which backends
exist and which shard transport each drives is the
:data:`~repro.run.scenario.BACKEND_TRANSPORTS` table; the simulation
dispatches itself (:meth:`XSim.run <repro.core.simulator.XSim.run>`:
the serial engine for one shard, :func:`~repro.pdes.sharded.run_sharded`
otherwise).

The jobs x shards CPU-capping guard (:func:`capped_shards`) lives here;
:func:`~repro.run.sweep.run_cells` applies it to the cells it hands a
worker pool, where processes multiply.  A single run is never capped.
"""

from __future__ import annotations

import os
import sys
from time import perf_counter
from typing import TYPE_CHECKING, Any, Callable

from repro.util.stats import format_timing

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.check.trace import EventTrace
    from repro.core.restart import FailureRunResult
    from repro.core.simulator import XSim
    from repro.pdes.engine import SimulationResult
    from repro.run.scenario import Scenario


def capped_shards(shards: int, jobs: int = 1, transport: str | None = None) -> int:
    """Cap ``jobs * shards`` at the host's CPU count (the shm transport).

    Every shm shard worker is a full process; running ``jobs`` pool
    workers that each fork ``shards`` engine workers silently oversubscribes
    the host and makes *everything* slower.  The inline transport (also
    what ``None`` runs) stays in one process and is never capped.
    """
    if shards <= 1 or transport != "shm":
        return shards
    # os.cpu_count() may return None (undeterminable); treat that as one
    # core — capping hard beats silently oversubscribing an unknown host.
    ncpu = os.cpu_count() or 1
    jobs = max(1, jobs)
    if jobs * shards > ncpu:
        capped = max(1, ncpu // jobs)
        print(
            f"warning: --jobs {jobs} x --shards {shards} would oversubscribe "
            f"{ncpu} CPUs; capping shards to {capped} "
            "(use --shard-transport inline to shard without extra processes)",
            file=sys.stderr,
        )
        return capped
    return shards


# ----------------------------------------------------------------------
# scenario execution: every run is the restart driver's, one segment or more
# ----------------------------------------------------------------------
def run_mode(scenario: "Scenario") -> str:
    """The label an outcome of ``scenario`` carries: ``"restart"`` when it
    injects failures (an MTTF or an explicit schedule), else
    ``"single"``.  It picks the digest and fact set an outcome reports
    and is printed by summaries, sweep tables and the cache index; every
    scenario runs on the same path whatever it reads."""
    return "restart" if scenario.mttf is not None or scenario.schedule() else "single"


def outcome_digest(run: "FailureRunResult", mode: str) -> str:
    """Canonical result fingerprint: :func:`result_digest` of a
    ``"single"`` run's one segment, or the campaign digest over
    per-segment result digests of a ``"restart"`` run."""
    from repro.core.harness.digest import campaign_digest, result_digest

    if mode == "restart":
        return campaign_digest([result_digest(s.result) for s in run.segments])
    return result_digest(run.segments[-1].result)


#: The keys of :func:`outcome_facts` by outcome mode — what a cache
#: entry's head must carry before ``summary()`` may be answered from it.
FACT_KEYS = {
    "single": {"completed", "exit_time", "events", "failures", "restarts", "timing"},
    "restart": {
        "completed", "exit_time", "events", "failures", "restarts", "timing",
        "e2", "mttf_a", "strategy_facts",
    },
}


def outcome_facts(run: "FailureRunResult", mode: str) -> dict[str, Any]:
    """Every result-derived value an outcome's summary and the CLI's run
    report print, plus the event count — JSON-exact primitives only
    (keys: :data:`FACT_KEYS`).  ``timing`` is the final segment's per-VP
    ``[min, max, avg, count]`` (:meth:`ScenarioOutcome.timing_report`)."""
    last = run.segments[-1].result
    t = last.timing
    facts: dict[str, Any] = {
        "completed": run.completed,
        "exit_time": last.exit_time,
        "timing": [t.minimum, t.maximum, t.average, t.count],
        "events": sum(seg.result.event_count for seg in run.segments),
        "failures": run.f,
        "restarts": run.restarts,
    }
    if mode == "restart":
        facts.update(
            e2=run.e2, mttf_a=run.mttf_a, strategy_facts=dict(run.strategy_facts)
        )
    return facts


class ScenarioOutcome:
    """What one scenario run produced: the driver's
    :class:`~repro.core.restart.FailureRunResult` (:attr:`run`; a
    fault-free run is its one-segment case), its final segment's result
    (:attr:`result`) and simulation (:attr:`sim`), the observer and, for
    a ``record_events`` run, the event trace of every segment in order
    (:attr:`event_trace`).  :attr:`mode` is :func:`run_mode`'s label.

    A computed outcome is built from its objects.  A cache hit
    (:meth:`from_cache`) is built from its entry's verified head — its
    :meth:`digest`, :meth:`facts`, :meth:`summary`, :attr:`completed` and
    :attr:`metadata` never touch the per-rank tables — and builds
    :attr:`run` / :attr:`observer` on first access, once, by computing
    its scenario again, held to the head (:mod:`repro.cache.store`).
    An unobserved hit's :attr:`observer` is ``None`` and computes
    nothing.
    """

    def __init__(
        self,
        scenario: Scenario,
        run: "FailureRunResult | None" = None,
        sim: "XSim | None" = None,
        observer: Any = None,
        event_trace: "EventTrace | None" = None,
        metadata: dict | None = None,
    ) -> None:
        self.scenario = scenario
        self.mode = run_mode(scenario)
        self.sim = sim
        self.event_trace = event_trace
        #: Execution facts that are *not* part of the result (and therefore
        #: never of the digest): the transport the run used and its shard
        #: count.
        self.metadata: dict = {} if metadata is None else metadata
        self._objects = (run, observer)
        #: Cache hits only, until first use: ``() -> computed outcome``.
        self._recompute: Callable[[], ScenarioOutcome] | None = None
        self._digest: str | None = None
        self._facts: dict[str, Any] | None = None

    @classmethod
    def from_cache(
        cls,
        scenario: Scenario,
        digest: str,
        facts: dict[str, Any],
        metadata: dict,
        recompute: Callable[[], ScenarioOutcome],
    ) -> "ScenarioOutcome":
        """A cache hit: ``digest``/``facts``/``metadata`` from its entry's
        verified head, objects from ``recompute()`` when first asked for
        (whose digest and facts then stand, should they differ)."""
        outcome = cls(scenario, metadata=metadata)
        outcome._digest, outcome._facts, outcome._recompute = digest, facts, recompute
        return outcome

    def _object(self, index: int) -> Any:
        if self._recompute is not None:
            if index == 1 and not self.scenario.observe:
                return None  # an unobserved run has no observer to compute
            fresh, self._recompute = self._recompute(), None
            self._objects = (fresh.run, fresh.observer)
            self._digest, self._facts = fresh.digest(), fresh.facts()
        return self._objects[index]

    @property
    def run(self) -> "FailureRunResult":
        return self._object(0)

    @property
    def observer(self) -> Any:
        return self._object(1)

    @property
    def result(self) -> "SimulationResult":
        """The final segment's simulation result."""
        return self.run.segments[-1].result

    @property
    def completed(self) -> bool:
        return self.facts()["completed"]

    def digest(self) -> str:
        """Canonical result fingerprint (:func:`outcome_digest`), derived
        once per outcome.  Equal across backends for equal scenarios."""
        if self._digest is None:
            self._digest = outcome_digest(self.run, self.mode)
        return self._digest

    def facts(self) -> dict[str, Any]:
        """The result-derived values :meth:`summary` reports
        (:func:`outcome_facts`) — a cache entry's head stores exactly this."""
        if self._facts is None:
            self._facts = outcome_facts(self.run, self.mode)
        return self._facts

    def timing_report(self) -> str:
        """The min/max/avg VP timing line of the (final-segment) result,
        byte for byte :meth:`SimulationResult.timing_report
        <repro.pdes.engine.SimulationResult.timing_report>` — from
        :meth:`facts`, so a cache hit prints it without computing its run."""
        return format_timing(*self.facts()["timing"])

    def summary(self) -> dict[str, Any]:
        """Primitive-only record of the outcome (campaign transport)."""
        facts = self.facts()
        out: dict[str, Any] = {
            "mode": self.mode,
            "backend": self.scenario.backend_name(),
            "scenario_digest": self.scenario.scenario_digest(),
            "result_digest": self.digest(),
            "completed": facts["completed"],
            "exit_time": facts["exit_time"],
            "strategy": self.scenario.strategy,
        }
        if self.mode == "restart":
            out.update(
                e2=facts["e2"],
                failures=facts["failures"],
                restarts=facts["restarts"],
                mttf_a=facts["mttf_a"],
            )
            if facts["strategy_facts"]:
                out["strategy_facts"] = dict(facts["strategy_facts"])
        else:
            out.update(failures=facts["failures"], restarts=facts["restarts"])
        return out


def _execution_metadata(stats) -> dict:
    """:attr:`ScenarioOutcome.metadata` from a run's
    :class:`~repro.pdes.sharded.ShardStats` (``{}`` for serial runs).
    Pure execution facts — deliberately excluded from the digest."""
    if stats is None:
        return {}
    return {
        "shard_transport": stats.transport,
        "nshards": stats.nshards,
    }


def run_scenario(
    scenario: Scenario,
    *,
    cache: Any = None,
    known_miss: bool = False,
) -> ScenarioOutcome:
    """Execute a scenario end to end: one
    :class:`~repro.core.restart.RestartDriver` carrying it across every
    failure/restart segment (one segment for a fault-free run).

    ``cache`` selects the content-addressed result store consulted
    *before* any simulation is built (and written through after a
    computed run): ``None`` defers to the ``XSIM_CACHE`` /
    ``XSIM_CACHE_DIR`` environment policy, ``False`` disables caching
    for this call, and a :class:`~repro.cache.ResultCache` is used
    directly.  A hit is its recomputation field for field (result
    digest, summary, sim-domain exporter bytes — ``tests/test_cache.py``)
    and is marked in :attr:`ScenarioOutcome.metadata` as ``cache_hit``.
    Trace-recording runs (``record_events``) bypass the cache, because a
    hit cannot repopulate a live event trace.
    ``known_miss=True`` says the caller has just looked this scenario up
    in ``cache`` and missed (a campaign partitioning its cells): the run
    is computed and stored without a second lookup.
    """
    from repro.cache import resolve_cache

    # Caching off (the default) loads nothing of the store.
    store = resolve_cache(cache)
    use_cache = False
    if store is not None:
        from repro.cache.store import cacheable

        use_cache = cacheable(scenario)
    if use_cache and not known_miss:
        hit = store.lookup(scenario)
        if hit is not None:
            return hit
    t0 = perf_counter()
    from repro.core.restart import RestartDriver

    driver = RestartDriver.from_scenario(scenario)
    run = driver.run()
    outcome = ScenarioOutcome(
        scenario, run, sim=driver.sim, observer=driver.observer,
        event_trace=driver.event_trace,
        metadata=_execution_metadata(driver.sim.shard_stats),
    )
    if use_cache:
        if outcome.observer is not None:
            outcome.observer.host_instant(
                perf_counter(), "cache-miss", track="cache",
                args={"stored": True},
            )
        store.store(scenario, outcome, wall_s=perf_counter() - t0)
        note = store.pop_warning()
        if note is not None:
            # Surface the corruption/disable fallback in the run's own
            # SimLog (the recomputation the warning promised happened).
            outcome.result.log.log(0.0, "cache", note, level="warning")
    return outcome
