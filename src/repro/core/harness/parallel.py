"""Parallel campaign executor: fan independent runs across worker processes.

The paper's evaluation is a *campaign* of mutually independent simulator
runs — scenario cells (Table II's checkpoint interval x system MTTF grid,
sweeps, explorer batches) and Finject victim instances.  Each run is
deterministic given its configuration and seed ("the experiments are
repeatable as the simulator and the application are deterministic"), so a
campaign parallelizes trivially: results are bit-identical whether the
runs execute serially in-process or fan out over a process pool.

Design:

* A run is described by a picklable :class:`RunSpec` naming a registered
  *task kind* plus keyword parameters.  Specs bound for a pool carry only
  primitive configuration (rank counts, seeds, intervals) — a worker
  builds the workload and the simulator itself and borrows the machine's
  models from the process-wide table it inherited at fork
  (:meth:`SystemConfig.make_network
  <repro.core.harness.config.SystemConfig.make_network>`), so nothing
  that is awkward to pickle crosses the process boundary.  A campaign
  that runs in its own process hands each task its objects directly.
* Task implementations are registered in a module-level table at import
  time (:func:`task`), which makes the dispatch function
  :func:`run_spec` picklable by qualified name: worker processes import
  this module and find the same registry.
* :class:`CampaignExecutor` runs a list of specs and returns their
  results *in spec order*.  ``max_workers=1`` (the default, also taken
  from the ``XSIM_JOBS`` environment variable) executes in-process with
  no pool at all; pool failures (unpicklable payloads, broken workers)
  degrade gracefully to an in-process rerun rather than failing the
  campaign.

Every task seeds its own RNG streams from the spec parameters (e.g. one
:class:`~repro.util.rng.RngStreams` sub-stream per Finject victim), never
from shared mutable state — this is what makes parallel execution
bit-identical to serial.
"""

from __future__ import annotations

import pickle
from time import perf_counter
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.run.envvars import default_jobs
from repro.util.errors import CampaignTaskError, ConfigurationError


@dataclass(frozen=True)
class RunSpec:
    """One independent run of a campaign.

    ``kind`` selects a task registered with :func:`task`; ``params`` are
    its keyword arguments and must be picklable.  ``key`` identifies the
    run within its campaign (e.g. ``("table2", 4)``) so callers
    can reassemble results; the executor itself only uses it in error
    messages.
    """

    kind: str
    key: tuple = ()
    params: dict[str, Any] = field(default_factory=dict)

    @classmethod
    def from_scenario(
        cls,
        scenario,
        key: tuple = (),
        cache_dir: str | None = None,
        known_miss: bool = False,
        store: Any = None,
        in_process: bool = False,
    ) -> "RunSpec":
        """A spec executing one :class:`~repro.run.scenario.Scenario` via
        the ``scenario`` task, which runs it on its resolved backend and
        returns :meth:`~repro.run.backends.ScenarioOutcome.summary`.  A
        spec bound for a pool carries the scenario's primitive dict form
        and the worker rebuilds it; ``in_process=True`` (the campaign
        will run the spec in its own process) hands the task the
        scenario itself — already validated, schedule parsed, digests
        memoised.

        ``cache_dir`` (optional) names a shared content-addressed result
        store: the worker consults it before running and memoizes what it
        computes (see :mod:`repro.cache`).  ``known_miss`` marks a cell
        the campaign's partition has just looked up there and missed, so
        the worker skips its own lookup; ``store`` hands an in-process
        campaign the already-open :class:`~repro.cache.ResultCache`
        (never set on a spec bound for a pool: a store does not pickle).
        All three are omitted from ``params`` when unset so pre-cache
        specs pickle and digest identically.
        """
        params: dict[str, Any] = {
            "scenario": scenario if in_process else scenario.to_dict()
        }
        if cache_dir is not None:
            params["cache_dir"] = cache_dir
        if known_miss:
            params["known_miss"] = True
        if store is not None:
            params["store"] = store
        return cls(
            "scenario",
            key=key if key else ("scenario", scenario.scenario_digest()[:12]),
            params=params,
        )


_TASKS: dict[str, Callable[..., Any]] = {}


def task(kind: str) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Register a campaign task implementation under ``kind``.

    The decorated function receives a spec's ``params`` as keyword
    arguments.  Registration happens at module import, so worker
    processes (which re-import this module) see the same table.
    """

    def register(fn: Callable[..., Any]) -> Callable[..., Any]:
        if kind in _TASKS:
            raise ConfigurationError(f"duplicate task kind {kind!r}")
        _TASKS[kind] = fn
        return fn

    return register


def run_spec(spec: RunSpec) -> Any:
    """Execute one spec (module-level so a process pool can pickle it)."""
    fn = _TASKS.get(spec.kind)
    if fn is None:
        raise ConfigurationError(
            f"unknown task kind {spec.kind!r} for run {spec.key!r} "
            f"(registered: {sorted(_TASKS)})"
        )
    return fn(**spec.params)


def _pool_run_spec(spec: RunSpec) -> tuple[str, Any]:
    """Worker-side wrapper: tag task outcomes so a task's own exception is
    never mistaken for pool breakage.

    A raising task returns ``("err", exc)`` instead of raising out of the
    worker — ``pool.map`` would re-raise it in the parent, where the
    executor's fallback logic could misread e.g. a task ``TypeError`` as
    an unpicklable-payload problem and silently rerun the whole campaign.
    Exceptions that cannot cross the process boundary are substituted
    with a :class:`~repro.util.errors.CampaignTaskError` carrying the
    original type and message.
    """
    try:
        return ("ok", run_spec(spec))
    except Exception as exc:  # noqa: BLE001 - transported to the parent
        try:
            pickle.loads(pickle.dumps(exc))
        except Exception:  # unpicklable exception object
            exc = CampaignTaskError(spec.kind, spec.key, type(exc).__name__, str(exc))
        return ("err", exc)


class CampaignExecutor:
    """Execute independent :class:`RunSpec` s, serially or on a pool.

    ``run`` returns results in spec order regardless of completion order.
    With ``max_workers=1`` (or a single spec) everything runs in the
    calling process — no pool, no pickling, no subprocess startup cost.
    When a pool cannot be used (spec parameters or results that fail to
    pickle, workers killed by the OS), the campaign falls back to an
    in-process rerun: tasks are pure functions of their spec, so the
    fallback produces the same results, only slower.
    """

    def __init__(
        self,
        max_workers: int | None = None,
        *,
        force_fallback: bool = False,
        observe=None,
    ):
        jobs = default_jobs() if max_workers is None else max_workers
        if jobs < 1:
            raise ConfigurationError(f"max_workers must be >= 1, got {jobs}")
        self.max_workers = jobs
        #: Skip the pool and run the degraded in-process path directly —
        #: a knob for the differential harness and tests, which assert the
        #: fallback produces the same results as the pool.
        self.force_fallback = force_fallback
        #: Filled by :meth:`run`: "serial", "pool", or "fallback-serial".
        self.last_mode: str | None = None
        #: Optional :class:`~repro.obs.Observer` receiving one host-domain
        #: ``task`` span per spec on the ``campaign`` track (wall-clock
        #: task lifecycle; parent-side — pool spans include queueing).
        self.observe = observe

    def runs_in_process(self, nspecs: int) -> bool:
        """Whether :meth:`run` executes ``nspecs`` specs in the calling
        process without trying a pool."""
        return self.max_workers <= 1 or nspecs <= 1 or self.force_fallback

    def _run_serial(self, specs: "list[RunSpec]") -> list[Any]:
        if self.observe is None:
            return [run_spec(s) for s in specs]
        out = []
        for s in specs:
            t0 = perf_counter()
            out.append(run_spec(s))
            self.observe.host_span(
                t0, perf_counter(), "task", track="campaign",
                args={"kind": s.kind, "key": s.key, "mode": self.last_mode},
            )
        return out

    def run(self, specs: list[RunSpec] | tuple[RunSpec, ...]) -> list[Any]:
        """Execute every spec; returns their results in spec order."""
        specs = list(specs)
        for spec in specs:
            if spec.kind not in _TASKS:  # fail fast, before forking workers
                raise ConfigurationError(
                    f"unknown task kind {spec.kind!r} for run {spec.key!r} "
                    f"(registered: {sorted(_TASKS)})"
                )
        if self.runs_in_process(len(specs)):
            serial = self.max_workers <= 1 or len(specs) <= 1
            self.last_mode = "serial" if serial else "fallback-serial"
            return self._run_serial(specs)
        # Imported here: an in-process campaign (every cell of a ``-j 1``
        # sweep) never pays for the pool machinery.
        from concurrent.futures import BrokenExecutor, ProcessPoolExecutor

        t0 = perf_counter()
        try:
            with ProcessPoolExecutor(max_workers=min(self.max_workers, len(specs))) as pool:
                tagged = list(pool.map(_pool_run_spec, specs))
        except (pickle.PicklingError, AttributeError, TypeError, BrokenExecutor, OSError):
            # Pool unusable (unpicklable payloads — CPython reports those
            # as PicklingError, AttributeError, or TypeError depending on
            # the object — dead workers, fork limits): degrade to
            # in-process execution.  Tasks are pure, so results are
            # identical.  Task exceptions never land here: workers return
            # them tagged (see _pool_run_spec), so only genuine transport/
            # pool failures trigger the rerun.
            self.last_mode = "fallback-serial"
            return self._run_serial(specs)
        self.last_mode = "pool"
        if self.observe is not None:
            t1 = perf_counter()
            for s in specs:
                # Per-task walls are not observable from the parent with
                # pool.map; one span per task over the pool phase keeps
                # the campaign track complete without changing transport.
                self.observe.host_span(
                    t0, t1, "task", track="campaign",
                    args={"kind": s.kind, "key": s.key, "mode": "pool"},
                )
        results: list[Any] = []
        for tag, payload in tagged:
            if tag == "err":
                # Re-raise the first failing task's exception (spec order),
                # after the pool shut down cleanly and with no spec rerun.
                raise payload
            results.append(payload)
        return results


# ----------------------------------------------------------------------
# campaign tasks
#
# Imports happen inside the task bodies: registration at import time must
# not pull in the simulator stack (and must stay cycle-free — domain
# modules may import this module to fan themselves out).
# ----------------------------------------------------------------------
@task("selftest")
def _task_selftest(
    *, value: Any = None, raise_message: str | None = None, unpicklable: bool = False
) -> Any:
    """Echo/raise task for the executor's own tests and the simcheck
    differential harness: unlike test-module tasks, it is registered in a
    module worker processes import, so it can exercise the *pool* error
    transport (tagged results, unpicklable-exception substitution)."""
    if raise_message is not None:
        if unpicklable:
            class LocalError(Exception):  # local class: cannot be pickled
                pass

            raise LocalError(raise_message)
        raise RuntimeError(raise_message)
    return value


@task("scenario")
def _task_scenario(
    *,
    scenario: Any,
    cache_dir: str | None = None,
    known_miss: bool = False,
    store: Any = None,
) -> dict[str, Any]:
    """One declarative :class:`~repro.run.scenario.Scenario` — itself, or
    its dict form when it crossed a process boundary — executed on its
    resolved backend; sweeps (``xsim-run sweep``) fan these out.

    ``cache_dir`` routes the run through the shared content-addressed
    result store at that path (lookup before compute, write-through
    after) — through ``store``, the campaign's own open handle, when the
    task runs in the campaign's process; without either the worker falls
    back to the ``XSIM_CACHE`` environment policy.  ``known_miss`` skips
    the lookup (see :meth:`RunSpec.from_scenario`).
    """
    from repro.run.backends import run_scenario
    from repro.run.scenario import Scenario

    cache = store
    if cache is None and cache_dir is not None:
        from repro.cache import open_cache

        cache = open_cache(cache_dir)
    if isinstance(scenario, dict):
        scenario = Scenario.from_dict(scenario)
    return run_scenario(scenario, cache=cache, known_miss=known_miss).summary()


@task("finject-victim")
def _task_finject_victim(
    *,
    victim: Any,
    victim_id: int,
    max_injections: int,
    seed: int,
) -> tuple[int, int, int]:
    """One Finject victim on its own RNG sub-stream; returns
    ``(injections_to_failure or -1, sdc_hits, benign_hits)``."""
    from repro.core.faults.finject import run_victim
    from repro.util.rng import RngStreams

    rng = RngStreams(seed).spawn_child("finject", victim_id)
    return run_victim(victim, victim_id, max_injections, rng)
