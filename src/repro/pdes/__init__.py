"""Lightweight discrete event simulation engine (the xSim substrate).

xSim executes every simulated MPI rank as a *virtual process* (VP) with its
own execution context and virtual clock, scheduled cooperatively by a
conservative parallel discrete event simulation: a VP runs until it yields
control back to the simulator by receiving a message, calling a
simulator-internal function, or terminating.  This package reproduces that
engine in pure Python: each VP is a generator coroutine that yields
:mod:`engine primitives <repro.pdes.requests>` (:class:`~repro.pdes.requests.Advance`,
:class:`~repro.pdes.requests.Block`), and :class:`~repro.pdes.engine.Engine`
drives all VPs from a single binary-heap event queue in virtual-time order.

Failure and abort *activation* semantics follow the paper exactly: a
scheduled time is the earliest time of failure/abort; the actual time is the
VP's clock at the next point the simulator regains control at-or-after the
scheduled time (see :meth:`Engine.schedule_failure` and
:meth:`Engine.request_abort`).
"""

from repro.util.lazy import lazy_exports

#: Public name -> defining module (imported on first use).
_EXPORTS = {
    "Advance": "repro.pdes.requests",
    "Block": "repro.pdes.requests",
    "Engine": "repro.pdes.engine",
    "SimulationResult": "repro.pdes.engine",
    "VirtualProcess": "repro.pdes.context",
    "VpState": "repro.pdes.context",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
