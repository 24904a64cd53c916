"""The ``XSIM_*`` environment: the layer it is in the scenario precedence
chain, and the registry of every variable the toolkit reads.

A variable that sets a Scenario field is that field's ``env`` in
:data:`repro.run.scenario.FIELDS`; its text is parsed and checked by
:func:`~repro.run.scenario.parse_text` — the function ``--set`` axes go
through — so a bad value names the variable.  Read that way by:

* :func:`read_environment`, the environment layer of
  :meth:`Scenario.resolve <repro.run.scenario.Scenario.resolve>`
  (library defaults < scenario file < environment < flags/kwargs);
* :func:`environment_value`, one variable alone (the worker count a
  ``-j`` defaults to, the sanitizer switch of a run built without a
  scenario).

:data:`XSIM_ENV_VARS` is the table's view by variable;
:data:`XSIM_ENV_SWITCHES` lists the variables that are not Scenario
fields.  ``test_env_var_docs_match_code`` holds both to the variables
the source reads and to the table in ``docs/INTERNALS.md``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any

from repro.run.scenario import FIELDS, parse_text


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
#: benchmark scale, the result cache, the explorer's stopping rule), not
#: the simulated run.  The INTERNALS table says what each one does.
XSIM_ENV_SWITCHES = (
    "XSIM_FULL_SCALE", "XSIM_CACHE", "XSIM_CACHE_DIR",
    "XSIM_EXPLORE_CI", "XSIM_EXPLORE_BATCH", "XSIM_EXPLORE_MAX_CELLS",
)


def environment_value(name: str, environ=None) -> Any:
    """Variable ``name``'s value as its Scenario field's, or ``None``
    when it is unset or empty in ``environ`` (default ``os.environ``)."""
    env = os.environ if environ is None else environ
    raw = env.get(name, "").strip()
    return parse_text(XSIM_ENV_VARS[name].field, raw, name) if raw else None


def default_jobs() -> int:
    """Worker count when none is given: the ``XSIM_JOBS`` environment
    variable, else 1 (serial in-process execution)."""
    return environment_value("XSIM_JOBS") or 1


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
