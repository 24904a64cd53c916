"""Virtual-process execution contexts.

Each simulated MPI rank is a :class:`VirtualProcess`: a generator coroutine
plus the per-rank simulator state xSim keeps for its user-space thread
contexts — the virtual clock, the scheduled time of failure ("initialized
to 0, i.e. fail never, on startup"; we represent *never* as ``math.inf``),
the per-process list of failed peers with their failure times, and the
lifecycle state.
"""

from __future__ import annotations

import enum
import math
from types import MappingProxyType
from typing import Any, Generator, Mapping

#: The one empty mapping every rank starts from where it has nothing to
#: record yet (failed peers, buffered messages).  Read-only: a reader sees
#: an empty dict (``.get``, iteration, truthiness), a writer that forgets
#: to create its own on the first entry fails loudly instead of writing
#: into every rank's state.
EMPTY_MAP: Mapping[Any, Any] = MappingProxyType({})


class VpState(enum.Enum):
    """Lifecycle of a virtual process."""

    READY = "ready"
    """Spawned, resume event pending."""
    RUNNING = "running"
    """Currently being stepped by the engine."""
    ADVANCING = "advancing"
    """Mid clock-advance; a resume event is queued."""
    BLOCKED = "blocked"
    """Parked on a :class:`~repro.pdes.requests.Block` until woken."""
    DONE = "done"
    """Terminated normally (returned from its main function)."""
    FAILED = "failed"
    """Killed by an injected process failure."""
    ABORTED = "aborted"
    """Terminated by a simulated ``MPI_Abort``."""


#: States in which the VP still has a live coroutine.
LIVE_STATES = frozenset({VpState.READY, VpState.RUNNING, VpState.ADVANCING, VpState.BLOCKED})


class VirtualProcess:
    """One simulated MPI rank: coroutine + virtual clock + failure state."""

    __slots__ = (
        "rank",
        "gen",
        "clock",
        "state",
        "time_of_failure",
        "time_of_abort",
        "busy_time",
        "failed_peers",
        "wait_token",
        "wait_tag",
        "epoch",
        "end_time",
        "exit_value",
        "userdata",
    )

    def __init__(self, rank: int, gen: Generator[Any, Any, Any], start_time: float = 0.0):
        self.rank = rank
        self.gen = gen
        self.clock = start_time
        self.state = VpState.READY
        self.time_of_failure = math.inf
        self.time_of_abort = math.inf
        #: Accumulated CPU-busy virtual time (``Advance(..., busy=True)``),
        #: the power model's energy-accounting input.
        self.busy_time = 0.0
        #: rank -> virtual time of that peer's failure, as known to this VP
        #: (populated by the simulator-internal failure notification
        #: broadcast, which creates the rank's own dict on the first one).
        self.failed_peers: Mapping[int, float] = EMPTY_MAP
        #: Monotonic token guarding against stale wake events.
        self.wait_token = 0
        self.wait_tag = ""
        #: Incremented when the VP dies so queued events for it become no-ops.
        self.epoch = 0
        self.end_time: float | None = None
        self.exit_value: Any = None
        #: Free slot for the layers above (the MPI layer hangs per-rank
        #: matching queues here without another dict lookup per message).
        self.userdata: Any = None

    @property
    def alive(self) -> bool:
        return self.state in LIVE_STATES

    def snapshot(self) -> dict[str, Any]:
        """Compact state dump for diagnostics (simcheck violation reports)."""
        return {
            "rank": self.rank,
            "state": self.state.value,
            "clock": self.clock,
            "busy_time": self.busy_time,
            "end_time": self.end_time,
            "epoch": self.epoch,
            "wait_tag": str(self.wait_tag),
            "time_of_failure": self.time_of_failure,
            "failed_peers": dict(self.failed_peers),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<VP rank={self.rank} t={self.clock:.6f} {self.state.value}>"
