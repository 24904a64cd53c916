"""Hardware models of the simulated extreme-scale system.

xSim extracts application performance "based on a processor and a network
model with the appropriate simulation scalability/accuracy trade-off".
This package provides those models plus the ones the paper lists as ongoing
work (file system, power) and the dynamic-memory tracking that enables the
soft-error injector:

* :mod:`repro.models.processor` — node compute speed (the paper slows the
  simulated node 1000x relative to a 1.7 GHz Opteron core);
* :mod:`repro.models.network` — topology (3-D torus et al.), link
  latency/bandwidth, eager/rendezvous protocol selection, per-tier failure
  detection timeouts;
* :mod:`repro.models.filesystem` — parallel file system cost model
  ("xSim's file system model is a work in progress");
* :mod:`repro.models.power` — node power/energy accounting (future work 5);
* :mod:`repro.models.memory` — per-VP dynamic memory tracking (the last
  piece needed for the soft-error injector).
"""

from repro.util.lazy import lazy_exports

#: Public name -> defining module (imported on first use).
_EXPORTS = {
    "FileSystemModel": "repro.models.filesystem",
    "FlipRecord": "repro.models.memory",
    "MemoryRegion": "repro.models.memory",
    "MemoryTracker": "repro.models.memory",
    "PowerModel": "repro.models.power",
    "ProcessorModel": "repro.models.processor",
    "RegionKind": "repro.models.memory",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
