"""Scenario-matrix expansion: one base scenario, a cartesian grid, a campaign.

The unit of a real resilience experiment is a *matrix* of scenarios —
checkpoint interval x system MTTF in the paper's Table II, fault schedule
x machine parameters in FINJ-style campaigns.  This module expands a base
:class:`~repro.run.scenario.Scenario` and a ``{field: [values]}`` grid
into the full cartesian list of scenarios and executes them as one
campaign (:func:`run_cells`: serial, or fanned out over a worker pool by
:func:`~repro.core.harness.parallel.fan_out` — results identical either
way).

Grids come from a ``[sweep]`` table in the scenario TOML or from repeated
``--set field=v1,v2`` flags on ``xsim-run sweep``.
"""

from __future__ import annotations

from itertools import product
from typing import Any

from repro.run.scenario import FIELDS, Scenario, parse_text
from repro.util.errors import ConfigurationError


def expand_matrix(base: Scenario, grid: dict[str, list]) -> list[Scenario]:
    """Every combination of the grid applied to ``base``, in deterministic
    order: the first grid field varies slowest (dict insertion order)."""
    if not grid:
        return [base]
    names = list(grid)
    for name, values in grid.items():
        if not isinstance(values, (list, tuple)) or not values:
            raise ConfigurationError(
                f"sweep field {name!r} must map to a non-empty list"
            )
    return [
        base.with_(**dict(zip(names, combo)))
        for combo in product(*(grid[n] for n in names))
    ]


def parse_set(text: str) -> tuple[str, list]:
    """Parse one ``--set field=v1,v2,...`` grid axis: each value is the
    field's text form, parsed and checked as an ``XSIM_*`` value is
    (:func:`~repro.run.scenario.parse_text`; ``--set mttf=6000,3000``
    yields floats, ``--set iterations=1e3`` the integer 1000)."""
    if "=" not in text:
        raise ConfigurationError(
            f"bad --set {text!r}; expected field=value[,value...]"
        )
    name, _, raw = text.partition("=")
    name = name.strip()
    if name not in FIELDS:
        raise ConfigurationError(
            f"unknown sweep field {name!r} (scenario fields: "
            f"{', '.join(sorted(FIELDS))})"
        )
    if FIELDS[name].kind is None:
        raise ConfigurationError(
            f"{name} cannot be a sweep axis; sweep 'strategy' and "
            "set per-strategy parameters in the scenario file's "
            "[resilience] strategy table"
        )
    items = [v.strip() for v in raw.split(",")]
    if "" in items:
        raise ConfigurationError(f"--set {name} has an empty value in {text!r}")
    return name, [parse_text(name, v, f"--set {name}") for v in items]


def run_sweep(
    base: Scenario,
    grid: dict[str, list],
    jobs: int = 1,
    cache: Any = None,
) -> list[tuple[Scenario, dict[str, Any]]]:
    """Expand and execute the matrix over ``jobs`` workers; returns
    ``(scenario, summary)`` pairs in grid order.  Every cell is an
    independent deterministic run, so pool results are identical to
    serial ones.

    ``cache`` (``None`` = environment policy, ``False`` = off, or a
    :class:`~repro.cache.ResultCache`) partitions the matrix up front:
    cells already in the content-addressed store are answered by lookup
    — their summaries are identical to recomputation — and only the
    misses are computed, into the same store (so a rerun of the sweep
    is pure lookups).  With a cache active every summary gains
    presentation keys ``cached`` (served from the store?) and
    ``saved_s`` (the original compute wall time a hit avoided); the
    result values themselves are unchanged.
    """
    scenarios = expand_matrix(base, grid)
    summaries = run_cells(scenarios, jobs=jobs, cache=cache)
    return list(zip(scenarios, summaries))


def run_cells(
    scenarios: list[Scenario],
    jobs: int = 1,
    cache: Any = None,
) -> list[dict[str, Any]]:
    """Execute an arbitrary list of scenarios as one cache-partitioned
    campaign; returns summaries in input order.

    This is the shared execution core of :func:`run_sweep` and the
    adaptive explorer (:mod:`repro.explore`): cells already in the
    content-addressed store are answered by one batched lookup
    (:meth:`~repro.cache.ResultCache.lookup_many`), the misses run
    in-process (``jobs=1`` or one miss) or are fanned out over ``jobs``
    workers (:func:`~repro.core.harness.parallel.fan_out` of
    :func:`_run_cell`) that write the same store.  A pool cell on the shm
    transport runs on at most as many shards as fit the host beside the
    pool's other workers (:func:`~repro.run.backends.capped_shards`); an
    in-process cell is never capped.  With a cache active every summary
    gains presentation keys ``cached``/``saved_s``; result values are
    identical either way.
    """
    from repro.cache import resolve_cache
    from repro.core.harness.parallel import check_jobs

    # fan_out's own check, made before the lookups: a warm campaign
    # refuses what a cold one refuses.
    check_jobs(jobs)
    store = resolve_cache(cache)
    summaries: list[dict[str, Any] | None] = [None] * len(scenarios)
    if store is not None:
        # One batch: its read and write transactions are both closed
        # before any miss below is computed or any worker forks.
        for i, outcome in enumerate(store.lookup_many(scenarios)):
            if outcome is not None:
                summary = outcome.summary()
                summary["cached"] = True
                summary["saved_s"] = float(outcome.metadata.get("cache_wall_s") or 0.0)
                summaries[i] = summary
    todo = [i for i, s in enumerate(summaries) if s is None]
    if todo:
        # Every cell below has just missed in ``store``: it is computed
        # and stored without a second lookup.  In-process that is this
        # handle and the scenario object itself; a pool worker rebuilds
        # the scenario from its dict form and reopens the directory.
        if jobs <= 1 or len(todo) <= 1:
            # Imported here: a fully warm campaign runs nothing.
            from repro.run.backends import run_scenario

            computed = [
                run_scenario(scenarios[i], cache=store, known_miss=store is not None).summary()
                for i in todo
            ]
        else:
            from repro.core.harness.parallel import fan_out
            from repro.run.backends import capped_shards

            cache_dir = str(store.root) if store is not None else None
            workers = min(jobs, len(todo))
            cells = [
                (s.to_dict(), cache_dir,
                 capped_shards(s.shards, jobs=workers, transport=s.shard_transport))
                for s in (scenarios[i] for i in todo)
            ]
            computed = fan_out(_run_cell, cells, jobs)
        for i, summary in zip(todo, computed):
            if store is not None:
                summary = dict(summary)
                summary["cached"] = False
                summary["saved_s"] = 0.0
            summaries[i] = summary
    return summaries  # type: ignore[return-value]


def _run_cell(cell: tuple[dict[str, Any], str | None, int]) -> dict[str, Any]:
    """One pool cell of :func:`run_cells`: a scenario's dict form, the
    campaign's cache directory (``None``: the ``XSIM_CACHE`` policy),
    where the cell has just missed, and the shard count it runs on.  Its
    summary names the scenario as given, whatever that count."""
    from repro.run.backends import run_scenario

    data, cache_dir, shards = cell
    cache = None
    if cache_dir is not None:
        from repro.cache import open_cache

        cache = open_cache(cache_dir)
    scenario = Scenario.from_dict(data)
    run = scenario if shards == scenario.shards else scenario.with_(shards=shards)
    outcome = run_scenario(run, cache=cache, known_miss=cache is not None)
    outcome.scenario = scenario
    return outcome.summary()
