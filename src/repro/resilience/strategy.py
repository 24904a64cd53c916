"""Pluggable resilience strategies: one protocol, a registry, four plans.

The paper's co-design loop compares *resilience plans* — how a job
prepares for and recovers from fail-stop faults — under one performance
model.  A :class:`ResilienceStrategy` packages everything one plan needs
to thread through the stack:

* **geometry** — how many physical ranks a logical job needs
  (:meth:`physical_ranks`) and the checkpoint cadence the application
  should run at (:meth:`app_interval`);
* **arming** — wrapping the application (:meth:`wrap_app`, e.g. the
  redMPI replication facade) and supplying the per-run store object that
  rides through the app args (:meth:`segment_store`);
* **failure handling** — :meth:`transform_failures` sees every fail-stop
  before it is armed on the engine and may absorb it (replication's warm
  failover), and :meth:`on_abort` is the pre-restart recovery step
  (cleanup of unsurvivable checkpoint tiers);
* **accounting** — :meth:`facts` reports deterministic, parent-side
  counters (failovers, dropped tier files) for run summaries.

The strategies are listed in the static :data:`STRATEGIES` table — name,
``"module:attr"`` of the implementing class, parameter schema — so that
naming one (CLI ``choices``), validating a scenario's ``strategy`` /
``strategy_params`` fields (:func:`strategy_values`) and sizing its
machine (:func:`physical_ranks`) import no implementation:
:func:`make_strategy` imports the one a
:class:`~repro.run.scenario.Scenario` names when a run first needs it.
This module is part of the import-light layer (``docs/INTERNALS.md``,
"Import layers") and imports nothing but the standard library.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.util.errors import ConfigurationError
from repro.util.lazy import load

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.core.checkpoint.store import CheckpointStore
    from repro.core.restart import FailureRunResult
    from repro.core.simulator import XSim
    from repro.obs import Observer
    from repro.run.scenario import Scenario


# ----------------------------------------------------------------------
# the table
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Param:
    """One ``strategy_params`` entry: spelling, type (``int`` or
    ``float``), default and lower bound."""

    key: str
    kind: type
    default: Any
    minimum: Any


@dataclass(frozen=True)
class StrategyEntry:
    """One resilience strategy, as far as it can be known without
    importing it."""

    #: ``"module:attr"`` of the :class:`ResilienceStrategy` subclass.
    target: str
    params: tuple[Param, ...] = ()
    #: The parameter that multiplies logical into physical ranks
    #: (``None``: the job runs on as many ranks as it asks for).
    ranks_factor: str | None = None


#: Every strategy a scenario can name.  Adding one is an entry here plus
#: the class it points at, decorated with :func:`register` (a test walks
#: the package and fails if either is missing).
STRATEGIES: dict[str, StrategyEntry] = {
    "ckpt": StrategyEntry("repro.resilience.ckpt:SingleLevelCheckpoint"),
    "ckpt-multilevel": StrategyEntry(
        "repro.resilience.multilevel:MultilevelCheckpoint",
        params=(
            # Local checkpoints per global (PFS) checkpoint.
            Param("k", int, 4, minimum=1),
            # Partner-copy cadence in local checkpoints (0 disables the tier).
            Param("partner_every", int, 1, minimum=0),
        ),
    ),
    "replication": StrategyEntry(
        "repro.resilience.replication:Replication",
        params=(
            # Replicas per logical rank.
            Param("factor", int, 2, minimum=2),
            # Failover synchronization window: survivors of the hit logical
            # rank compute ``slowdown`` x slower for ``pause`` seconds.
            Param("pause", float, 30.0, minimum=0.0),
            Param("slowdown", float, 2.0, minimum=1.0),
        ),
        ranks_factor="factor",
    ),
    "none": StrategyEntry("repro.resilience.ckpt:NoResilience"),
}


def strategy_names() -> tuple[str, ...]:
    """Strategy names, sorted (CLI choices, error messages)."""
    return tuple(sorted(STRATEGIES))


def _entry(name: str) -> StrategyEntry:
    entry = STRATEGIES.get(name)
    if entry is None:
        raise ConfigurationError(
            f"unknown resilience strategy {name!r} "
            f"(expected one of {', '.join(strategy_names())})"
        )
    return entry


def strategy_values(name: str, params: dict[str, Any]) -> dict[str, Any]:
    """The full parameter set of strategy ``name`` given the
    ``strategy_params`` a scenario spells out: defaults filled in,
    spellings, types and bounds checked (``ConfigurationError``)."""
    entry = _entry(name)
    keys = tuple(p.key for p in entry.params)
    unknown = sorted(set(params) - set(keys))
    if unknown:
        raise ConfigurationError(
            f"unknown parameter(s) for resilience strategy {name!r}: "
            f"{', '.join(unknown)} (expected: {', '.join(keys) or 'none'})"
        )
    values: dict[str, Any] = {}
    for p in entry.params:
        value = params.get(p.key, p.default)
        accepted = (int,) if p.kind is int else (int, float)
        if isinstance(value, bool) or not isinstance(value, accepted) or value < p.minimum:
            what = "an integer" if p.kind is int else "a number"
            raise ConfigurationError(
                f"strategy {name!r} parameter {p.key!r} must be {what} "
                f">= {p.minimum}, got {value!r}"
            )
        values[p.key] = p.kind(value)
    return values


def physical_ranks(name: str, params: dict[str, Any], logical_ranks: int) -> int:
    """Simulated ranks needed to host ``logical_ranks`` application ranks
    under strategy ``name`` (replication runs factor-R replicas)."""
    factor = _entry(name).ranks_factor
    if factor is None:
        return logical_ranks
    return logical_ranks * strategy_values(name, params)[factor]


def make_strategy(scenario: "Scenario") -> "ResilienceStrategy":
    """Instantiate the strategy a scenario names (imports it on first use)."""
    return load(_entry(scenario.strategy).target)(scenario)


def register(cls: "type[ResilienceStrategy]") -> "type[ResilienceStrategy]":
    """Class decorator: check that ``cls`` is the class :data:`STRATEGIES`
    names under ``cls.name``, so a strategy cannot exist in one place only."""
    entry = STRATEGIES.get(cls.name)
    here = f"{cls.__module__}:{cls.__qualname__}"
    if entry is None or entry.target != here:
        raise ConfigurationError(
            f"resilience strategy {cls.name!r} ({here}) is not what the "
            "STRATEGIES table in repro.resilience.strategy names"
        )
    return cls


# ----------------------------------------------------------------------
# the protocol
# ----------------------------------------------------------------------
class ResilienceStrategy:
    """One resilience plan, instantiated per run from a scenario.

    Subclasses override the hooks they need; the defaults describe the
    plain restart-from-scratch behaviour (no store, nothing to clean,
    failures pass through untouched).
    """

    #: Registry name (``Scenario.strategy`` value).
    name: str = "?"

    def __init__(self, scenario: "Scenario | None" = None):
        self.scenario = scenario
        self.params: dict[str, Any] = (
            dict(scenario.strategy_params) if scenario is not None else {}
        )
        #: Every parameter of the :data:`STRATEGIES` schema, validated,
        #: defaults filled in.
        self.values = strategy_values(self.name, self.params)
        self._configure()

    def _configure(self) -> None:
        """Per-instance state hook, run once ``self.values`` is set."""

    # ------------------------------------------------------------------
    # geometry (pure; safe to call on a throwaway instance)
    # ------------------------------------------------------------------
    def physical_ranks(self, logical_ranks: int) -> int:
        """Simulated ranks needed to host ``logical_ranks`` app ranks."""
        return physical_ranks(self.name, self.params, logical_ranks)

    def app_interval(self, interval: int) -> int:
        """Checkpoint cadence the application should run at, given the
        scenario's nominal interval (multi-level checkpointing inserts
        cheap local checkpoints between the nominal global ones)."""
        return interval

    # ------------------------------------------------------------------
    # arming
    # ------------------------------------------------------------------
    def begin_run(self) -> None:
        """Reset per-run state (stores, monitors) before segment 0."""

    def wrap_app(self, app):
        """Wrap the application coroutine (identity by default)."""
        return app

    def segment_store(self) -> Any:
        """The store object handed to ``make_args`` for each segment
        (``None`` when the strategy keeps no checkpoints)."""
        return None

    # ------------------------------------------------------------------
    # failure handling
    # ------------------------------------------------------------------
    def transform_failures(
        self,
        sim: "XSim",
        failstops: list[tuple[int, float]],
        observer: "Observer | None" = None,
    ) -> list[tuple[int, float]]:
        """Inspect one segment's fail-stop injections ``(rank, time)``
        before they are armed; return the subset to actually inject.
        Called exactly once per segment (replication resets its failover
        bookkeeping here — a restart relaunches every replica)."""
        return failstops

    def on_abort(
        self,
        result,
        nranks: int,
        check: bool = False,
        observer: "Observer | None" = None,
    ) -> None:
        """Pre-restart recovery step after an aborted segment (``result``
        is the segment's :class:`~repro.pdes.engine.SimulationResult`)."""

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def result_store(self) -> "CheckpointStore | None":
        """The persistent-namespace view reported on the final result."""
        return None

    def facts(self) -> dict[str, Any]:
        """Deterministic parent-side counters for the run summary."""
        return {}
