"""Determinism and invariant tooling for the PDES/MPI core.

The toolkit's value proposition is *trustworthy* failure-injection results,
which requires runs to be provably deterministic and internally consistent.
This package provides two cooperating facilities:

* :class:`~repro.check.trace.EventTrace` — a compact recorder of every
  event the engine dispatches (virtual time, sequence number, VP, kind,
  origin), with save/load and a first-divergence diff for replay checking.
* :class:`~repro.check.sanitizer.Sanitizer` — an opt-in runtime invariant
  checker (``XSIM_CHECK=1`` in the environment, or ``--check`` on the CLI)
  enforced at engine dispatch and MPI-layer boundaries; violations raise
  :class:`~repro.util.errors.InvariantViolation` carrying a structured
  diagnostic dump.

The paths that must agree (rerun, advance coalescing on vs off, trace
record vs replay, serial vs pooled campaigns, serial vs sharded, cache
hit vs recomputation) are held to each other by tests, one per path;
``docs/INTERNALS.md`` section 10 names them.

Checking is off by default and costs one attribute test per event when
disabled; the sanitizer's per-event work is O(1) with full-state sweeps
reserved for rare boundaries (failure propagation, sync completion, end of
run).
"""

from __future__ import annotations

from repro.run.envvars import environment_value
from repro.util.lazy import lazy_exports

#: Public name -> defining module (imported on first use, not by every run).
_EXPORTS = {
    "EventTrace": "repro.check.trace",
    "InvariantViolation": "repro.util.errors",
    "Sanitizer": "repro.check.sanitizer",
    "TraceDivergence": "repro.check.trace",
    "verify_store": "repro.check.sanitizer",
    "verify_store_cleaned": "repro.check.sanitizer",
}

__all__ = [*_EXPORTS, "checking_enabled"]
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)


def checking_enabled() -> bool:
    """Is invariant checking requested via the environment?

    ``XSIM_CHECK=1`` (``true``/``yes``/``on``; the scenario field
    ``check``'s spellings) turns the runtime sanitizer on for every
    simulation that does not explicitly override the setting.
    """
    return bool(environment_value("XSIM_CHECK"))
