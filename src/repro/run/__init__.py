"""Unified scenario & runtime-backend layer.

The paper's subject is co-design *exploration*: sweeping machine
parameters, fault schedules, and checkpoint/restart policies across many
simulated runs.  This package is the one place where a run is described
and launched:

* :class:`Scenario` — a frozen, serializable spec capturing one full run
  (machine, application, failure schedule, C/R policy, seed, execution
  backend, instrumentation switches) with layered resolution::

      library defaults < scenario file (TOML) < XSIM_* environment < flags

  round-trippable through TOML and fingerprinted by
  :meth:`Scenario.scenario_digest`.
* :mod:`repro.run.backends` — :func:`run_scenario`: a scenario goes to
  the result cache, else to
  :meth:`~repro.core.simulator.XSim.from_scenario` (one run) or
  :meth:`~repro.core.restart.RestartDriver.from_scenario` (failure
  injection), and comes back a :class:`ScenarioOutcome`.  Which backends
  exist (serial engine; sharded conservative-parallel engine over the
  inline, fork or shm transport) is the ``BACKEND_TRANSPORTS`` table of
  :mod:`repro.run.scenario`; the jobs x shards CPU-capping guard lives
  here, so the API and the CLI share it.
* :mod:`repro.run.sweep` — cartesian scenario-matrix expansion behind
  ``xsim-run sweep``, executed by :func:`~repro.run.sweep.run_cells`:
  cache lookups, then the misses in-process or through
  :func:`~repro.core.harness.parallel.fan_out`.
* :mod:`repro.run.table2` — the paper's Table II as ten scenarios through
  that same campaign path (``xsim-run table2``).

The classic entry points take the same arguments directly:
:class:`~repro.core.simulator.XSim` is one simulation and dispatches its
own ``run``; :class:`~repro.core.restart.RestartDriver` is the
failure/restart loop over fresh ``XSim`` segments.
"""

from repro.util.lazy import lazy_exports

#: Public name -> defining module (imported on first use).
_EXPORTS = {
    "EnvVar": "repro.run.envvars",
    "Scenario": "repro.run.scenario",
    "ScenarioOutcome": "repro.run.backends",
    "XSIM_ENV_VARS": "repro.run.envvars",
    "capped_shards": "repro.run.backends",
    "expand_matrix": "repro.run.sweep",
    "load_scenario_file": "repro.run.scenario",
    "parse_dims": "repro.run.scenario",
    "parse_set": "repro.run.sweep",
    "run_scenario": "repro.run.backends",
    "run_sweep": "repro.run.sweep",
    "run_table2": "repro.run.table2",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
