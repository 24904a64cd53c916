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
* :mod:`repro.run.backends` — the runtime-backend registry.  Every way of
  executing a scenario (serial engine, sharded conservative-parallel
  engine over the inline or fork transport) is a named
  :class:`~repro.run.backends.Backend` behind one
  ``execute(scenario) -> SimulationResult`` interface; the jobs x shards
  CPU-capping guard lives here, so the API and the CLI share it.
* :mod:`repro.run.instruments` — the instrumentation attach point: one
  hook table that wires the Sanitizer, the EventTrace recorder, and the
  Observer bus onto any backend's engine/world pair, replacing per-call
  wiring at every launcher.
* :mod:`repro.run.sweep` — cartesian scenario-matrix expansion behind
  ``xsim-run sweep``, executed as scenario-backed
  :class:`~repro.core.harness.parallel.RunSpec` campaigns.
* :mod:`repro.run.table2` — the paper's Table II as ten scenarios through
  that same campaign path (``xsim-run table2``).

The classic entry points remain as thin facades:
:class:`~repro.core.simulator.XSim` and
:class:`~repro.core.restart.RestartDriver` accept the same arguments as
before but resolve a scenario internally and dispatch through the
registry, so a new backend or instrument is one registry entry rather
than an edit at every launcher.
"""

from repro.util.lazy import lazy_exports

#: Public name -> defining module (imported on first use).
_EXPORTS = {
    "BACKENDS": "repro.run.backends",
    "AttachedInstruments": "repro.run.instruments",
    "Backend": "repro.run.backends",
    "EnvVar": "repro.run.envvars",
    "INSTRUMENTS": "repro.run.instruments",
    "Scenario": "repro.run.scenario",
    "ScenarioOutcome": "repro.run.backends",
    "XSIM_ENV_VARS": "repro.run.envvars",
    "attach_instruments": "repro.run.instruments",
    "backend_names": "repro.run.backends",
    "capped_shards": "repro.run.backends",
    "coerce_observer": "repro.run.instruments",
    "expand_matrix": "repro.run.sweep",
    "get_backend": "repro.run.backends",
    "instrument": "repro.run.instruments",
    "load_scenario_file": "repro.run.scenario",
    "make_shard_observer": "repro.run.instruments",
    "parse_dims": "repro.run.scenario",
    "parse_set": "repro.run.sweep",
    "register_backend": "repro.run.backends",
    "run_scenario": "repro.run.backends",
    "run_sweep": "repro.run.sweep",
    "run_table2": "repro.run.table2",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
