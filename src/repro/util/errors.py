"""Exception hierarchy for the xsim-resilience toolkit.

All toolkit-raised exceptions derive from :class:`XsimError` so callers can
catch simulator problems without masking ordinary Python errors.  Exceptions
that model *simulated* conditions (an MPI error delivered to an application,
a virtual process being killed by fault injection) live next to the
subsystems that raise them (:mod:`repro.mpi.errhandler`,
:mod:`repro.pdes.context`); this module only defines host-level errors.
"""

from __future__ import annotations


class XsimError(Exception):
    """Base class for all toolkit errors."""


class ConfigurationError(XsimError):
    """A simulation, model, or experiment was configured inconsistently."""


class SimulationError(XsimError):
    """The simulation engine reached an internal inconsistency."""


class RestartsExhausted(SimulationError, ConfigurationError):
    """A failure run its restart budget cannot finish; entry points refuse it."""


class DeadlockError(SimulationError):
    """Conservative-PDES deadlock: blocked processes with an empty event queue.

    Mirrors xSim's deadlock detection inside its simulator-internal
    synchronization mechanism.  The message lists the blocked virtual
    processes with the wait tag *and* the VP state reported separately, so
    a legitimately empty wait tag is shown as such rather than being
    silently replaced by the state name.
    """

    def __init__(self, blocked: list[tuple[int, str, str]]):
        self.blocked = list(blocked)
        head = ", ".join(
            f"rank {r} waiting on {tag!r} [{state}]" for r, tag, state in self.blocked[:8]
        )
        more = "" if len(self.blocked) <= 8 else f", ... ({len(self.blocked)} total)"
        super().__init__(f"simulation deadlock: {head}{more}")


class ShardedParityError(SimulationError):
    """A sharded run reached a state it cannot reproduce bit-identically.

    Raised by :mod:`repro.pdes.sharded` when a simulation does something the
    conservative-window protocol cannot mirror against the serial engine —
    e.g. an unscheduled failure inside a safe window, a simulator-internal
    sync point spanning shard boundaries, or a communicator handle crossing
    shards.  The run must fall back to ``--shards 1``; silently diverging
    from the serial oracle is never an option.
    """


class ShardWorkerDied(SimulationError):
    """An shm shard worker process died mid-protocol.

    Raised by the coordinator's liveness polling instead of blocking on
    ``Conn.recv`` forever; names the shard and how many protocol rounds
    (setup/window/lockstep/apply replies) it had completed.
    """

    def __init__(self, shard_id: int, last_round: int):
        self.shard_id = shard_id
        self.last_round = last_round
        super().__init__(
            f"shard {shard_id} worker process died; last completed "
            f"protocol round: {last_round}"
        )


class CheckpointError(XsimError):
    """A checkpoint store operation failed (e.g. loading a corrupted set)."""


class InvariantViolation(SimulationError):
    """A runtime invariant check (``XSIM_CHECK=1``, ``--check``) failed.

    Carries the invariant name and a structured diagnostic ``dump`` (SimLog
    tail, VP states, heap snapshot — see
    :meth:`repro.check.sanitizer.Sanitizer.dump`) so violations can be
    written out as artifacts by CI and inspected after the fact.
    """

    def __init__(self, invariant: str, detail: str, dump: dict | None = None):
        self.invariant = invariant
        self.detail = detail
        self.dump = dump if dump is not None else {}
        super().__init__(f"invariant {invariant!r} violated: {detail}")


class CampaignTaskError(XsimError):
    """A campaign's function raised inside a worker process.

    Substituted for the original exception only when that exception itself
    cannot cross the process boundary (fails to pickle); otherwise the
    original is re-raised in the parent.  Keeping a dedicated type ensures
    a function's own ``TypeError``/``AttributeError`` is never mistaken
    for pool breakage by the fan-out's rerun logic.
    """

    def __init__(self, item: object, exc_type: str, detail: str):
        self.item = item
        self.exc_type = exc_type
        self.detail = detail
        super().__init__(f"campaign item {item!r} raised {exc_type}: {detail}")

    def __reduce__(self):
        return (CampaignTaskError, (self.item, self.exc_type, self.detail))
