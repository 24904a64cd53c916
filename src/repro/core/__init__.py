"""The resilience co-design toolkit (the paper's primary contribution).

This package layers the paper's new capabilities over the simulation
substrates:

* :mod:`repro.core.faults` — MPI process failure schedules (rank/time
  pairs via API, environment variable, or command line), MTTF-driven
  random injection, the soft-error (bit flip) injector, and the
  Finject-style campaign behind Table I;
* :mod:`repro.core.checkpoint` — the simulated parallel-file-system
  checkpoint store with *complete/corrupted/missing* file states and the
  application-level checkpoint protocol helpers;
* :mod:`repro.core.simulator` — :class:`XSim`, the single-run facade
  combining engine, models, MPI layer, and injection;
* :mod:`repro.core.restart` — the failure/restart driver that persists
  the simulated exit time across aborts so virtual time is continuous
  (paper §IV-E) and measures E2/F/MTTF_a;
* :mod:`repro.core.harness` — system/workload configuration and the
  experiment drivers that regenerate the paper's tables.
"""

from repro.util.lazy import lazy_exports

#: Public name -> defining module (imported on first use).
_EXPORTS = {
    "FailureRunResult": "repro.core.restart",
    "FailureSchedule": "repro.core.faults.schedule",
    "RestartDriver": "repro.core.restart",
    "SystemConfig": "repro.core.harness.config",
    "XSim": "repro.core.simulator",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
