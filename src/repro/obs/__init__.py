"""Unified observability layer (the run-telemetry analogue of DUMPI/OTF).

One timeline for a run, with one export format:

* :class:`Observer` — a low-overhead event bus (no-op when detached)
  collecting :class:`ObsEvent` spans and instants from the PDES engine,
  the MPI layer, the resilience path, the sharded coordinator, and an
  exploration campaign; :func:`observer_for` is where a run decides
  which bus it records into.  At ``detail`` it also carries every blocking
  wait and every message (``msg:post`` / ``msg:deliver`` /
  ``msg:drop`` instants on the ranks' tracks).
* :mod:`repro.obs.export` — deterministic Chrome trace-event JSON
  (Perfetto-loadable) and JSONL exporters plus a loader.
* :class:`TimelineReport` — per-rank resilience latency distributions and
  every track's events in one time-sorted list.

Attach via ``XSim(observe=...)`` or ``xsim-run app --trace-out``; the
sim-domain event set of a sharded run is byte-identical to the serial
run's export (enforced by ``tests/test_obs.py::TestShardedExportParity``).
"""

from repro.obs.events import HOST, SIM, ObsEvent, Observer, observer_for
from repro.obs.export import load_events, to_chrome, to_jsonl, write_export
from repro.obs.timeline import LatencyStats, TimelineReport

__all__ = [
    "HOST",
    "SIM",
    "LatencyStats",
    "ObsEvent",
    "Observer",
    "TimelineReport",
    "load_events",
    "observer_for",
    "to_chrome",
    "to_jsonl",
    "write_export",
]
