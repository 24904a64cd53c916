"""Executing a scenario: one run or the full restart experiment.

:func:`run_scenario` takes a :class:`~repro.run.scenario.Scenario` to a
:class:`ScenarioOutcome` — through the result cache when one is in
force, else :meth:`XSim.from_scenario
<repro.core.simulator.XSim.from_scenario>` (one engine run) or
:meth:`RestartDriver.from_scenario
<repro.core.restart.RestartDriver.from_scenario>` (a scenario with
failure injection).  Which backends exist and which shard transport each
drives is the :data:`~repro.run.scenario.BACKEND_TRANSPORTS` table; the
simulation dispatches itself (:meth:`XSim.run
<repro.core.simulator.XSim.run>`: the serial engine for one shard,
:func:`~repro.pdes.sharded.run_sharded` otherwise).

The jobs x shards CPU-capping guard (:func:`capped_shards`) lives here,
so campaigns and direct API calls get the same oversubscription
protection the CLI applies; :func:`shard_plan` applies it to a scenario,
once, for both construction paths.
"""

from __future__ import annotations

import os
import sys
from time import perf_counter
from typing import TYPE_CHECKING, Any, Callable

from repro.run.scenario import BACKEND_TRANSPORTS
from repro.util.stats import format_timing

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.core.restart import FailureRunResult
    from repro.core.simulator import XSim
    from repro.pdes.engine import SimulationResult
    from repro.run.scenario import Scenario


def capped_shards(
    shards: int, jobs: int = 1, transport: str | None = None, quiet: bool = False
) -> int:
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
        if not quiet:
            print(
                f"warning: --jobs {jobs} x --shards {shards} would oversubscribe "
                f"{ncpu} CPUs; capping shards to {capped} "
                "(use --shard-transport inline to shard without extra processes)",
                file=sys.stderr,
            )
        return capped
    return shards


def shard_plan(scenario: "Scenario") -> tuple[int, str | None]:
    """``(shards, shard_transport)`` the scenario's simulations are built
    with: the transport of its :data:`BACKEND_TRANSPORTS` row and the
    shard count after the jobs x shards CPU cap."""
    transport = BACKEND_TRANSPORTS[scenario.backend_name()]
    return capped_shards(scenario.shards, jobs=scenario.jobs, transport=transport), transport


# ----------------------------------------------------------------------
# scenario execution (single run or full restart experiment)
# ----------------------------------------------------------------------
def outcome_digest(
    result: "SimulationResult | None", run: "FailureRunResult | None"
) -> str:
    """Canonical result fingerprint: :func:`result_digest` of a single
    run, or the campaign digest over per-segment result digests of a
    restart experiment."""
    from repro.core.harness.digest import campaign_digest, result_digest

    if run is not None:
        return campaign_digest([result_digest(s.result) for s in run.segments])
    return result_digest(result)


#: The keys of :func:`outcome_facts` by outcome mode — what a cache
#: blob's head must carry before ``summary()`` may be answered from it.
FACT_KEYS = {
    "single": {"completed", "exit_time", "events", "failures", "restarts", "timing"},
    "restart": {
        "completed", "exit_time", "events", "failures", "restarts", "timing",
        "e2", "mttf_a", "strategy_facts",
    },
}


def outcome_facts(
    result: "SimulationResult | None", run: "FailureRunResult | None"
) -> dict[str, Any]:
    """Every result-derived value an outcome's summary and the CLI's run
    report print, plus the event count — JSON-exact primitives only
    (keys: :data:`FACT_KEYS`).  ``timing`` is the final segment's per-VP
    ``[min, max, avg, count]`` (:meth:`ScenarioOutcome.timing_report`)."""
    last = result if run is None else run.segments[-1].result
    t = last.timing
    timing = [t.minimum, t.maximum, t.average, t.count]
    if run is None:
        return {
            "completed": result.completed,
            "exit_time": result.exit_time,
            "events": result.event_count,
            "failures": len(result.failures),
            "restarts": 0,
            "timing": timing,
        }
    return {
        "completed": run.completed,
        "exit_time": last.exit_time,
        "timing": timing,
        "events": sum(seg.result.event_count for seg in run.segments),
        "e2": run.e2,
        "failures": run.f,
        "restarts": run.restarts,
        "mttf_a": run.mttf_a,
        "strategy_facts": dict(run.strategy_facts),
    }


class ScenarioOutcome:
    """What one scenario run produced.

    ``mode`` is ``"single"`` (one engine run; ``sim``/``result`` set) or
    ``"restart"`` (a full failure/restart experiment under
    :class:`~repro.core.restart.RestartDriver`; ``run`` set).

    A computed outcome is built from its objects.  A cache hit
    (:meth:`from_cache`) is built from a blob's verified head — its
    :meth:`digest`, :meth:`facts`, :meth:`summary`, :attr:`completed` and
    :attr:`metadata` never touch the per-rank tables — and reads its
    entry again to decode :attr:`result` / :attr:`run` / :attr:`observer`
    from the verified body on first access, once (:mod:`repro.cache.store`).
    """

    def __init__(
        self,
        scenario: Scenario,
        mode: str,
        result: "SimulationResult | None" = None,
        run: "FailureRunResult | None" = None,
        sim: "XSim | None" = None,
        observer: Any = None,
        metadata: dict | None = None,
    ) -> None:
        self.scenario = scenario
        self.mode = mode
        self.sim = sim
        #: Execution facts that are *not* part of the result (and therefore
        #: never of the digest): the transport the run used and its shard
        #: count.
        self.metadata: dict = {} if metadata is None else metadata
        self._objects = (result, run, observer)
        #: Cache hits only, until first use: ``() -> (result, run, observer)``.
        self._load_body: Callable[[], tuple] | None = None
        self._digest: str | None = None
        self._facts: dict[str, Any] | None = None

    @classmethod
    def from_cache(
        cls,
        scenario: Scenario,
        mode: str,
        digest: str,
        facts: dict[str, Any],
        metadata: dict,
        load_body: Callable[[], tuple],
    ) -> "ScenarioOutcome":
        """A cache hit: ``digest``/``facts``/``metadata`` from the blob's
        verified head, objects from ``load_body()`` when first asked for."""
        outcome = cls(scenario, mode, metadata=metadata)
        outcome._digest, outcome._facts, outcome._load_body = digest, facts, load_body
        return outcome

    def _object(self, index: int) -> Any:
        if self._load_body is not None:
            load, self._load_body = self._load_body, None
            self._objects = load()
        return self._objects[index]

    @property
    def result(self) -> "SimulationResult | None":
        return self._object(0)

    @property
    def run(self) -> "FailureRunResult | None":
        return self._object(1)

    @property
    def observer(self) -> Any:
        return self._object(2)

    @property
    def completed(self) -> bool:
        return self.facts()["completed"]

    @property
    def last_result(self) -> "SimulationResult":
        """The (final-segment) simulation result."""
        return self.run.segments[-1].result if self.run is not None else self.result

    def digest(self) -> str:
        """Canonical result fingerprint (:func:`outcome_digest`), derived
        once per outcome.  Equal across backends for equal scenarios."""
        if self._digest is None:
            self._digest = outcome_digest(self.result, self.run)
        return self._digest

    def facts(self) -> dict[str, Any]:
        """The result-derived values :meth:`summary` reports
        (:func:`outcome_facts`) — a cache blob's head stores exactly this."""
        if self._facts is None:
            self._facts = outcome_facts(self.result, self.run)
        return self._facts

    def timing_report(self) -> str:
        """The min/max/avg VP timing line of the (final-segment) result,
        byte for byte :meth:`SimulationResult.timing_report
        <repro.pdes.engine.SimulationResult.timing_report>` — from
        :meth:`facts`, so a cache hit prints it without decoding its body."""
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
            out.update(failures=facts["failures"], restarts=0)
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
    log_stream=None,
    observe: Any = None,
    force_single: bool = False,
    cache: Any = None,
    known_miss: bool = False,
) -> ScenarioOutcome:
    """Execute a scenario end to end on its resolved backend.

    A scenario with failure injection (an ``mttf`` or an explicit
    schedule) runs the full restart loop — one
    :class:`~repro.core.restart.RestartDriver` carrying this scenario
    across segments; otherwise (or with ``force_single=True``, the
    trace-record/replay path) it is one run of
    :meth:`XSim.from_scenario <repro.core.simulator.XSim.from_scenario>`.

    ``cache`` selects the content-addressed result store consulted
    *before* any simulation is built (and written through after a
    computed run): ``None`` defers to the ``XSIM_CACHE`` /
    ``XSIM_CACHE_DIR`` environment policy, ``False`` disables caching
    for this call, and a :class:`~repro.cache.ResultCache` is used
    directly.  A hit is bit-identical to recomputation (result digest,
    summary, sim-domain exporter bytes — the ``cache-parity`` simcheck)
    and is marked in :attr:`ScenarioOutcome.metadata` as ``cache_hit``.
    Trace-recording runs (``record_events`` / ``force_single``) and
    calls with a caller-supplied observer bypass the cache, because a
    hit cannot repopulate live instrumentation objects.
    ``known_miss=True`` says the caller has just looked this scenario up
    in ``cache`` and missed (a campaign partitioning its cells): the run
    is computed and stored without a second lookup.
    """
    from repro.cache import cacheable, resolve_cache

    store = resolve_cache(cache)
    use_cache = (
        store is not None
        and not force_single
        and observe is None
        and cacheable(scenario)
    )
    if use_cache and not known_miss:
        hit = store.lookup(scenario)
        if hit is not None:
            return hit
    t0 = perf_counter()
    wants_driver = scenario.mttf is not None or bool(scenario.schedule())
    if wants_driver and not force_single:
        from repro.core.restart import RestartDriver

        driver = RestartDriver.from_scenario(
            scenario, log_stream=log_stream, observe=observe
        )
        run = driver.run()
        outcome = ScenarioOutcome(
            scenario=scenario, mode="restart", run=run, observer=driver.observer,
            metadata=_execution_metadata(getattr(driver, "shard_stats", None)),
        )
    else:
        from repro.core.simulator import XSim

        sim = XSim.from_scenario(scenario, log_stream=log_stream, observe=observe)
        strategy = scenario.make_strategy()
        strategy.begin_run()
        sim.inject_schedule(scenario.schedule(), strategy)
        app, make_args = scenario.make_app(strategy=strategy)
        result = sim.run(app, args=make_args(strategy.segment_store()))
        outcome = ScenarioOutcome(
            scenario=scenario, mode="single", result=result, sim=sim,
            observer=sim.observer,
            metadata=_execution_metadata(getattr(sim, "shard_stats", None)),
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
            outcome.last_result.log.log(0.0, "cache", note, level="warning")
    return outcome
