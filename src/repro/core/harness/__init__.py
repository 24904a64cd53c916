"""Experiment harness: system configuration, runners, and reports.

* :mod:`repro.core.harness.config` — :class:`SystemConfig`, the single
  declarative description of the simulated machine (the paper's 32,768-node
  3-D torus with its link, protocol, and processor parameters), plus the
  scaled variants the default benchmarks use.
* :mod:`repro.core.harness.experiment` — the First Impressions
  failure-mode observations (paper section V-D).
* :mod:`repro.core.harness.report` — fixed-width table formatting.
* :mod:`repro.core.harness.metrics` — the resilience cost/benefit metrics
  (efficiency, waste breakdown, availability, application MTTF).

Table II is :mod:`repro.run.table2`.
"""

from repro.util.lazy import lazy_exports

#: Public name -> defining module (imported on first use).
_EXPORTS = {
    "ResilienceMetrics": "repro.core.harness.metrics",
    "SystemConfig": "repro.core.harness.config",
    "compute_metrics": "repro.core.harness.metrics",
    "format_table": "repro.core.harness.report",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
