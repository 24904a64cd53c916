"""The ``XSIM_*`` environment: the layer it is in the scenario precedence
chain, and the registry of every variable the toolkit reads.

A variable that sets a Scenario field is that field's ``env`` in
:data:`repro.run.scenario.FIELDS`; its text is parsed and checked by
:func:`~repro.run.scenario.parse_text` — the function ``--set`` axes go
through — so a bad value names the variable.  Read that way by:

* :func:`read_environment`, the environment layer of
  :meth:`Scenario.resolve <repro.run.scenario.Scenario.resolve>`
  (library defaults < scenario file < environment < flags/kwargs);
* :func:`environment_value`, one variable alone (the sanitizer switch
  of a run built without a scenario).

:data:`XSIM_ENV_VARS` is the table's view by variable;
:data:`XSIM_ENV_SWITCHES` lists the variables that are not Scenario
fields — among them ``XSIM_JOBS``, the worker count a campaign's ``-j``
defaults to (:func:`default_jobs`); :data:`XSIM_ENV_RETIRED` the ones no
longer read, which a command refuses rather than ignores.
``test_env_var_docs_match_code`` holds all three to the variables the
source reads and to ``docs/INTERNALS.md``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any

from repro.run.scenario import FIELDS, _integer, parse_text
from repro.util.errors import ConfigurationError


@dataclass(frozen=True)
class EnvVar:
    """One variable that sets a Scenario field, and the flag that does."""

    name: str
    field: str
    cli_flag: str


#: Every variable that sets a Scenario field, keyed by name.
XSIM_ENV_VARS: dict[str, EnvVar] = {
    spec.env: EnvVar(spec.env, spec.name, spec.flag[-1])
    for spec in FIELDS.values()
    if spec.env
}


#: Variables that are not Scenario fields: they gate tooling (the
#: benchmark scale, the result cache, a campaign's worker count), not
#: the simulated run.  The INTERNALS table says what each one does.
XSIM_ENV_SWITCHES = ("XSIM_FULL_SCALE", "XSIM_CACHE", "XSIM_CACHE_DIR", "XSIM_JOBS")

#: Variables no longer read -> what sets the value instead.  The
#: explorer's stopping rule has one home, its flags and ``[explore]``
#: table; a value left set is refused (:func:`refuse_retired`), not
#: silently ignored.
XSIM_ENV_RETIRED = {
    "XSIM_EXPLORE_CI": "--ci-width or [explore] ci_width",
    "XSIM_EXPLORE_BATCH": "--batch or [explore] batch",
    "XSIM_EXPLORE_MAX_CELLS": "--max-cells or [explore] max_cells",
}


def environment_value(name: str, environ=None) -> Any:
    """Variable ``name``'s value as its Scenario field's, or ``None``
    when it is unset or empty in ``environ`` (default ``os.environ``)."""
    env = os.environ if environ is None else environ
    raw = env.get(name, "").strip()
    return parse_text(XSIM_ENV_VARS[name].field, raw, name) if raw else None


def default_jobs(environ=None) -> int:
    """Worker count when ``-j`` is not given: ``XSIM_JOBS`` in
    ``environ`` (default ``os.environ``), else 1 (serial in-process
    execution)."""
    from repro.core.harness.parallel import check_jobs

    env = os.environ if environ is None else environ
    raw = env.get("XSIM_JOBS", "").strip()
    if not raw:
        return 1
    try:
        jobs = _integer(raw)
    except ValueError:
        raise ConfigurationError(f"XSIM_JOBS must be an integer, got {raw!r}") from None
    check_jobs(jobs, "XSIM_JOBS")
    return jobs


def refuse_retired() -> None:
    """Refuse a :data:`XSIM_ENV_RETIRED` variable that is set (non-empty),
    naming it."""
    for name, instead in XSIM_ENV_RETIRED.items():
        if os.environ.get(name, "").strip():
            raise ConfigurationError(f"{name} is no longer read; use {instead}")


def read_environment(environ=None) -> dict[str, object]:
    """The environment layer of the scenario precedence chain: a partial
    ``{field: value}`` mapping containing only the variables that are set
    (and non-empty) in ``environ`` (default ``os.environ``)."""
    out: dict[str, object] = {}
    for var in XSIM_ENV_VARS.values():
        value = environment_value(var.name, environ)
        if value is not None:
            out[var.field] = value
    return out
