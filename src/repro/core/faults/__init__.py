"""Fault, error, and failure injection.

* :mod:`repro.core.faults.schedule` — explicit MPI process failure
  schedules ("xSim additionally offers to pass a simulated MPI process
  failure schedule in the form of rank/time pairs on the command line or
  via an environment variable on startup").
* :mod:`repro.core.faults.reliability` — the paper's Table II placement
  policy: a uniformly random rank at a uniformly random time within 2x
  the system MTTF, drawn independently for every run segment.
* :mod:`repro.core.faults.softerror` — bit-flip injection into tracked
  process memory (paper future work 1 / the redMPI-style studies).
* :mod:`repro.core.faults.finject` — the Finject robustness-testing
  campaign reproduced for Table I.
"""

from repro.util.lazy import lazy_exports

#: Public name -> defining module (imported on first use).
_EXPORTS = {
    "CorrelatedFailure": "repro.core.faults.schedule",
    "FailureSchedule": "repro.core.faults.schedule",
    "FaultOverlay": "repro.core.faults.overlay",
    "FinjectCampaign": "repro.core.faults.finject",
    "LinkDegradeFault": "repro.core.faults.schedule",
    "ScheduledFailure": "repro.core.faults.schedule",
    "StragglerFault": "repro.core.faults.schedule",
    "expand_correlated": "repro.core.faults.schedule",
    "MttfInjectionPolicy": "repro.core.faults.reliability",
    "SoftErrorInjector": "repro.core.faults.softerror",
    "SoftErrorOutcome": "repro.core.faults.softerror",
    "VictimModel": "repro.core.faults.finject",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
