"""Registry of every ``XSIM_*`` environment variable the toolkit reads.

One table, consumed three ways:

* :meth:`Scenario.resolve <repro.run.scenario.Scenario.resolve>` applies
  the environment layer of the precedence chain (library defaults <
  scenario file < environment < flags/kwargs) from it;
* the "Environment variables" table in ``docs/INTERNALS.md`` documents it
  (a test asserts the documented set matches this registry, and that this
  registry matches the variables the source actually reads);
* ``xsim-run`` help text references the per-flag equivalents.

Adding a variable here without documenting it (or vice versa) fails the
``test_env_var_docs_match_code`` test.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.util.errors import ConfigurationError


@dataclass(frozen=True)
class EnvVar:
    """One environment knob: where it reads and what it overrides."""

    name: str
    #: The Scenario field the variable sets (the precedence chain slots
    #: every variable between the scenario file and explicit flags).
    field: str
    #: Equivalent ``xsim-run`` flag.
    cli_flag: str
    description: str


#: Every environment variable the code reads, keyed by name.
XSIM_ENV_VARS: dict[str, EnvVar] = {
    v.name: v
    for v in (
        EnvVar(
            "XSIM_FAILURES",
            field="failures",
            cli_flag="--xsim-failures",
            description='failure schedule as "rank@time,rank@time" '
            "(times accept unit suffixes, e.g. 3@100s)",
        ),
        EnvVar(
            "XSIM_CHECK",
            field="check",
            cli_flag="--check",
            description="any value other than empty/0 enables the runtime "
            "invariant sanitizer on every run",
        ),
        EnvVar(
            "XSIM_SHARDS",
            field="shards",
            cli_flag="--shards",
            description="shard count for the conservative-parallel engine "
            "(1 = serial)",
        ),
        EnvVar(
            "XSIM_SHARD_TRANSPORT",
            field="shard_transport",
            cli_flag="--shard-transport",
            description='shard worker transport: "fork" (pickled pipes), '
            '"shm" (shared-memory envelope rings), or "inline" '
            "(single-process); digests are transport-independent",
        ),
        EnvVar(
            "XSIM_JOBS",
            field="jobs",
            cli_flag="--jobs",
            description="worker-process count for campaigns of independent "
            "runs (1 = serial in-process)",
        ),
        EnvVar(
            "XSIM_STRATEGY",
            field="strategy",
            cli_flag="--strategy",
            description="resilience strategy for every run: one of the "
            "registered names (``ckpt``, ``ckpt-multilevel``, "
            "``replication``, ``none``); parameters come from the "
            "scenario file's ``[resilience] strategy`` table",
        ),
    )
}


#: Environment switches that are *not* scenario fields (they gate tooling
#: behavior, not the simulated run) — documented in the same INTERNALS
#: table and covered by the same docs-vs-code sync test.
XSIM_ENV_SWITCHES: dict[str, str] = {
    "XSIM_FULL_SCALE": (
        "any value other than empty/0 runs the ``benchmarks/`` suite at "
        "the paper-exact 32,768 ranks instead of 512 (tens of minutes "
        "for the full Table II)"
    ),
    "XSIM_CACHE": (
        "any value other than empty/0 enables the content-addressed "
        "result cache on every run and sweep (``--cache``/``--no-cache`` "
        "override per invocation); hits are bit-identical to recomputation"
    ),
    "XSIM_CACHE_DIR": (
        "directory of the result cache (``--cache-dir``; default "
        "``~/.cache/xsim``) — safe to share between parallel workers and "
        "concurrent invocations"
    ),
    "XSIM_EXPLORE_CI": (
        "``xsim-run explore`` stopping target: sample until every "
        "stratum's Wilson half-width is within this (``--ci-width``; "
        "default 0.15)"
    ),
    "XSIM_EXPLORE_BATCH": (
        "cells per ``xsim-run explore`` refinement batch "
        "(``--batch``; default 16)"
    ),
    "XSIM_EXPLORE_MAX_CELLS": (
        "``xsim-run explore`` simulation budget: hard cap on cells "
        "sampled per campaign (``--max-cells``; default 1024)"
    ),
}


def _positive_int(env, name: str) -> int | None:
    """``env[name]`` as an integer >= 1, or ``None`` when unset/empty."""
    raw = env.get(name, "").strip()
    if not raw:
        return None
    try:
        value = int(raw)
    except ValueError as exc:
        raise ConfigurationError(f"{name} must be an integer, got {raw!r}") from exc
    if value < 1:
        raise ConfigurationError(f"{name} must be >= 1, got {value}")
    return value


def default_jobs() -> int:
    """Worker count when none is given: the ``XSIM_JOBS`` environment
    variable, else 1 (serial in-process execution)."""
    return _positive_int(os.environ, "XSIM_JOBS") or 1


def read_environment(environ=None) -> dict[str, object]:
    """The environment layer of the scenario precedence chain: a partial
    ``{field: value}`` mapping containing only the variables that are set
    (and non-empty) in ``environ`` (default ``os.environ``)."""
    env = os.environ if environ is None else environ
    out: dict[str, object] = {}
    raw = env.get("XSIM_FAILURES", "").strip()
    if raw:
        out["failures"] = raw
    raw = env.get("XSIM_CHECK", "").strip()
    if raw:
        out["check"] = raw != "0"
    for name, field in (("XSIM_SHARDS", "shards"), ("XSIM_JOBS", "jobs")):
        value = _positive_int(env, name)
        if value is not None:
            out[field] = value
    raw = env.get("XSIM_SHARD_TRANSPORT", "").strip()
    if raw:
        from repro.run.scenario import SHARD_TRANSPORTS  # it imports this module

        if raw not in SHARD_TRANSPORTS:
            raise ConfigurationError(
                f"XSIM_SHARD_TRANSPORT must be one of {', '.join(SHARD_TRANSPORTS)}, "
                f"got {raw!r}"
            )
        out["shard_transport"] = raw
    raw = env.get("XSIM_STRATEGY", "").strip()
    if raw:
        from repro.resilience import strategy_names

        if raw not in strategy_names():
            raise ConfigurationError(
                f"XSIM_STRATEGY must be one of {', '.join(strategy_names())}, "
                f"got {raw!r}"
            )
        out["strategy"] = raw
    return out
