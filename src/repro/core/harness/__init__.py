"""Experiment harness: system configuration, runners, and reports.

* :mod:`repro.core.harness.config` — :class:`SystemConfig`, the single
  declarative description of the simulated machine (the paper's 32,768-node
  3-D torus with its link, protocol, and processor parameters), plus the
  scaled variants the default benchmarks use.
* :mod:`repro.core.harness.experiment` — drivers regenerating the paper's
  Table II (checkpoint interval x system MTTF) and the First Impressions
  failure-mode observations.
* :mod:`repro.core.harness.report` — table formatting with side-by-side
  paper-reported values.
* :mod:`repro.core.harness.metrics` — the resilience cost/benefit metrics
  (efficiency, waste breakdown, availability, application MTTF).
* :mod:`repro.core.harness.serialize` — JSON/CSV export of results.
"""

from repro.util.lazy import lazy_exports

#: Public name -> defining module (imported on first use).
_EXPORTS = {
    "ResilienceMetrics": "repro.core.harness.metrics",
    "SystemConfig": "repro.core.harness.config",
    "compute_metrics": "repro.core.harness.metrics",
    "Table2Cell": "repro.core.harness.experiment",
    "Table2Config": "repro.core.harness.experiment",
    "format_table": "repro.core.harness.report",
    "render_table2": "repro.core.harness.report",
    "run_table2": "repro.core.harness.experiment",
    "run_table2_row": "repro.core.harness.experiment",
    "failure_run_record": "repro.core.harness.serialize",
    "simulation_result_record": "repro.core.harness.serialize",
    "table2_records": "repro.core.harness.serialize",
    "to_csv": "repro.core.harness.serialize",
    "to_json": "repro.core.harness.serialize",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
