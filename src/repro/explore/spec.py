"""Declarative exploration specs: what fault space to explore, how hard.

An :class:`ExploreSpec` is a base :class:`~repro.run.scenario.Scenario`
(the machine/app/execution axes) plus an ``[explore]`` table describing
the fault axes — which fault kinds to sample, the (rank x time x
magnitude) ranges, the stratification, and the stopping rule.  It rides
in an ordinary scenario TOML file::

    [machine]
    ranks = 8

    [app]
    name = "heat3d"
    iterations = 60

    [explore]
    kinds = ["failstop", "straggler", "link_degrade", "correlated"]
    rank_bins = 2
    time_bins = 2
    ci_width = 0.15
    batch = 16

The ``[explore]`` values come from the file, then explicit flags
(``--ci-width``, ``--batch``, ``--max-cells``, ``--explore-seed``); the
base scenario resolves through the scenario layering.  The base
scenario must not pin ``failures`` or ``mttf`` — the explorer owns the
fault axis.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Any

from repro.run.scenario import Scenario, _parse_toml, load_scenario_file
from repro.util.errors import ConfigurationError

#: Fault kinds the explorer can sample.
KINDS = ("failstop", "straggler", "link_degrade", "correlated")

#: The count fields, each >= 1.
_COUNT_KEYS = ("rank_bins", "time_bins", "magnitude_bins", "batch", "min_samples", "max_cells")


@dataclass(frozen=True)
class ExploreSpec:
    """One adaptive exploration campaign over a scenario's fault space."""

    #: Base scenario: machine, application, execution.  ``failures`` and
    #: ``mttf`` must be unset (the explorer varies the fault axis).
    scenario: Scenario = field(default_factory=Scenario)
    #: Fault kinds to stratify over (subset of :data:`KINDS`).
    kinds: tuple[str, ...] = KINDS
    #: Rank-range strata count (ranks split into equal contiguous bins).
    rank_bins: int = 2
    #: Injection-time strata count over [time_lo, time_hi).
    time_bins: int = 2
    #: Magnitude strata count for straggler/link factors.
    magnitude_bins: int = 1
    #: Injection-time range; ``time_hi`` None = the measured fault-free
    #: completion time E1 (so samples land during the run).
    time_lo: float = 0.0
    time_hi: float | None = None
    #: Straggler slowdown-factor range (>= 1) and window length as a
    #: fraction of E1.
    straggler_factor: tuple[float, float] = (1.5, 4.0)
    straggler_duration_frac: float = 0.25
    #: Link-degrade factor range (>= 1); windows use the same E1 fraction.
    link_factor: tuple[float, float] = (2.0, 8.0)
    #: Correlated-failure radii (each radius is its own magnitude stratum)
    #: and per-hop failure-time spread in seconds.
    radii: tuple[int, ...] = (1,)
    spread: float = 0.0
    #: A cell counts as *impacted* when the job dies or its completion
    #: time exceeds E1 by more than this relative threshold.
    impact_threshold: float = 0.01
    #: Stopping rule: sample until every stratum's Wilson half-width on
    #: the impact proportion is <= ci_width (at ``confidence``), or
    #: ``max_cells`` simulations were spent.
    ci_width: float = 0.15
    confidence: float = 0.95
    #: Cells per refinement batch after the seeding round, and the
    #: per-stratum seeding sample count.
    batch: int = 16
    min_samples: int = 4
    max_cells: int = 1024
    #: Root seed of the sampler's ``SeedSequence.spawn`` chain (separate
    #: from the scenario's simulation seed).
    seed: int = 0
    #: Resilience strategies to explore head-to-head: empty = just the
    #: base scenario's strategy; otherwise one full campaign per name
    #: (identical fault draws — same seed chain — so the scorecards are
    #: directly comparable).
    strategies: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.strategies:
            from repro.resilience import strategy_names

            for name in self.strategies:
                if name not in strategy_names():
                    raise ConfigurationError(
                        f"explore.strategies: unknown explore strategy {name!r} "
                        f"(expected one of {', '.join(strategy_names())})"
                    )
        for kind in self.kinds:
            if kind not in KINDS:
                raise ConfigurationError(
                    f"explore.kinds: unknown explore kind {kind!r} "
                    f"(expected one of {', '.join(KINDS)})"
                )
        if not self.kinds:
            raise ConfigurationError("explore.kinds needs at least one fault kind")
        if self.scenario.failures:
            raise ConfigurationError(
                "the explore base scenario must not set failures "
                "(the explorer owns the fault axis)"
            )
        if self.scenario.mttf is not None:
            raise ConfigurationError(
                "the explore base scenario must not set mttf "
                "(the explorer owns the fault axis)"
            )
        if self.scenario.max_restarts < 1:
            raise ConfigurationError(
                "explore needs scenario max_restarts >= 1 (a sampled "
                "fail-stop cell must be able to restart and finish)"
            )
        for name in _COUNT_KEYS:
            if getattr(self, name) < 1:
                raise ConfigurationError(
                    f"explore.{name} must be >= 1, got {getattr(self, name)}"
                )
        if self.seed < 0:
            raise ConfigurationError(f"explore.seed must be >= 0, got {self.seed}")
        if self.rank_bins > self.scenario.ranks:
            raise ConfigurationError(
                f"explore.rank_bins ({self.rank_bins}) cannot exceed the job's "
                f"{self.scenario.ranks} ranks"
            )
        if not 0.0 < self.ci_width < 0.5:
            raise ConfigurationError(
                f"explore.ci_width must be in (0, 0.5), got {self.ci_width}"
            )
        if not 0.5 < self.confidence < 1.0:
            raise ConfigurationError(
                f"explore.confidence must be in (0.5, 1), got {self.confidence}"
            )
        # Written so that nan fails too.
        if not 0.0 <= self.time_lo < math.inf:
            raise ConfigurationError(
                f"explore.time_lo must be finite and >= 0, got {self.time_lo}"
            )
        if self.time_hi is not None and not self.time_lo < self.time_hi < math.inf:
            raise ConfigurationError(
                f"explore.time_hi must be finite and > time_lo ({self.time_lo}), "
                f"got {self.time_hi}"
            )
        for lo, hi, name in (
            (*self.straggler_factor, "straggler_factor"),
            (*self.link_factor, "link_factor"),
        ):
            if not 1.0 <= lo <= hi < math.inf:
                raise ConfigurationError(
                    f"explore.{name} must satisfy 1 <= lo <= hi, got ({lo}, {hi})"
                )
        if any(r < 0 for r in self.radii) or not self.radii:
            raise ConfigurationError("explore.radii must be non-empty, each >= 0")
        if not 0.0 <= self.spread < math.inf:
            raise ConfigurationError(f"explore.spread must be >= 0, got {self.spread}")
        if not 0.0 < self.straggler_duration_frac <= 1.0:
            raise ConfigurationError(
                "explore.straggler_duration_frac must be in (0, 1], "
                f"got {self.straggler_duration_frac}"
            )
        if not 0.0 <= self.impact_threshold < math.inf:
            raise ConfigurationError(
                f"explore.impact_threshold must be >= 0, got {self.impact_threshold}"
            )

    def with_(self, **overrides: Any) -> "ExploreSpec":
        return replace(self, **overrides)

    def describe(self) -> dict[str, Any]:
        """Primitive-only record of the spec (scorecard header)."""
        out: dict[str, Any] = {
            f.name: list(v) if isinstance(v := getattr(self, f.name), tuple) else v
            for f in fields(self)
            if f.name != "scenario"
        }
        out["scenario_digest"] = self.scenario.scenario_digest()
        return out


_EXPLORE_KEYS = {f.name for f in fields(ExploreSpec)} - {"scenario"}

#: What an ``[explore]`` value (or each item of a list key) must be.  A
#: number is a float or an integer a float can hold.
_IS = {
    "an integer": lambda v: type(v) is int,
    "a number": lambda v: type(v) is float or (type(v) is int and abs(v) <= sys.float_info.max),
    "a string": lambda v: type(v) is str,
}
_LIST_ITEM = {"kinds": "a string", "radii": "an integer", "strategies": "a string"}
_PAIRS = ("straggler_factor", "link_factor")
_INTEGER_KEYS = (*_COUNT_KEYS, "seed")


def _coerce_explore(key: str, value: Any) -> Any:
    """TOML value -> ExploreSpec field value (lists become tuples); a
    value of the wrong type is refused naming ``explore.<key>``."""
    if key in _LIST_ITEM:
        item = _LIST_ITEM[key]
        if type(value) is not list or not all(map(_IS[item], value)):
            raise ConfigurationError(
                f"explore.{key} must be a list, each item {item}, got {value!r}"
            )
        return tuple(value)
    if key in _PAIRS:
        if type(value) is not list or len(value) != 2 or not all(map(_IS["a number"], value)):
            raise ConfigurationError(
                f"explore.{key} must be a [lo, hi] pair of numbers, got {value!r}"
            )
        return (float(value[0]), float(value[1]))
    what = "an integer" if key in _INTEGER_KEYS else "a number"
    if not _IS[what](value):
        raise ConfigurationError(f"explore.{key} must be {what}, got {value!r}")
    return value


def load_explore_file(
    path: "str | Path",
    environ: dict[str, str] | None = None,
    use_environment: bool = True,
    scenario_overrides: dict[str, Any] | None = None,
    **overrides: Any,
) -> ExploreSpec:
    """Load an exploration spec: scenario tables + ``[explore]`` table,
    with explicit ``overrides`` of ``[explore]`` values layered on top.
    ``environ`` / ``use_environment`` / ``scenario_overrides`` are the
    base scenario's environment and flag layers
    (:func:`~repro.run.scenario.load_scenario_file`)."""
    scenario, grid = load_scenario_file(
        path,
        environ=environ,
        use_environment=use_environment,
        ignore_tables=("explore",),
        **(scenario_overrides or {}),
    )
    if grid:
        raise ConfigurationError(
            "an explore spec cannot also carry a [sweep] table"
        )
    doc = _parse_toml(Path(path).read_text())
    body = doc.get("explore", {})
    if not isinstance(body, dict):
        raise ConfigurationError("[explore] must be a table")
    layers: dict[str, Any] = {}
    for key, value in body.items():
        if key not in _EXPLORE_KEYS:
            raise ConfigurationError(
                f"unknown explore key {key!r} (expected "
                f"{', '.join(sorted(_EXPLORE_KEYS))})"
            )
        layers[key] = _coerce_explore(key, value)
    layers.update({k: v for k, v in overrides.items() if v is not None})
    unknown = set(layers) - _EXPLORE_KEYS
    if unknown:
        raise ConfigurationError(
            f"unknown explore field(s): {', '.join(sorted(unknown))}"
        )
    return ExploreSpec(scenario=scenario, **layers)
