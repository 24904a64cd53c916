"""Messages and communication requests of the simulated MPI layer.

A :class:`Msg` is what travels through the simulated network: either an
eager payload or a rendezvous request-to-send (RTS) control message.  A
:class:`Request` is the per-rank handle of one communication operation
(MPI's ``MPI_Request``); blocking calls are nonblocking posts followed by a
wait.  Matching (tag/source, wildcards, non-overtaking order) is performed
by :class:`~repro.mpi.world.MpiWorld` over the per-rank posted/unexpected
queues.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any

from repro.mpi.constants import ANY_SOURCE, ANY_TAG, SUCCESS

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.mpi.communicator import Communicator
    from repro.pdes.context import VirtualProcess

#: Protocols a message can use on the wire.
EAGER = "eager"
RTS = "rts"

#: Preset in :attr:`Request.result` by a poster that reads nothing of the
#: message but its payload (:meth:`MpiApi.neighbor_exchange`): the receive
#: then completes into the payload alone and the :class:`Msg` is released
#: at the match, not when the owner gets round to the request.
PAYLOAD_ONLY: Any = object()


class Msg:
    """One simulated network message (eager payload or rendezvous RTS)."""

    __slots__ = ("ctx", "src", "dst", "tag", "nbytes", "payload", "seq", "protocol", "arrival", "send_req")

    def __init__(
        self,
        ctx: int,
        src: int,
        dst: int,
        tag: int,
        nbytes: int,
        payload: Any,
        seq: int,
        protocol: str,
        send_req: "Request | None" = None,
    ):
        self.ctx = ctx
        self.src = src
        self.dst = dst
        self.tag = tag
        self.nbytes = nbytes
        self.payload = payload
        self.seq = seq
        self.protocol = protocol
        #: Virtual time the message reached the destination NIC (set on delivery).
        self.arrival = math.nan
        #: The sender's pending request, for rendezvous hand-shake completion.
        self.send_req = send_req

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Msg {self.protocol} {self.src}->{self.dst} ctx={self.ctx} "
            f"tag={self.tag} {self.nbytes}B seq={self.seq}>"
        )


class Request:
    """Handle of one nonblocking send or receive operation."""

    __slots__ = (
        "kind",
        "vp",
        "comm",
        "ctx",
        "src",
        "dst",
        "tag",
        "nbytes",
        "post_time",
        "done",
        "waiting",
        "error",
        "failed_rank",
        "completion_time",
        "result",
        "post_seq",
    )

    SEND = "send"
    RECV = "recv"

    def __init__(
        self,
        kind: str,
        vp: "VirtualProcess",
        comm: "Communicator",
        ctx: int,
        src: int,
        dst: int,
        tag: int,
        nbytes: int,
        post_time: float,
    ):
        self.kind = kind
        self.vp = vp
        self.comm = comm
        self.ctx = ctx
        self.src = src
        self.dst = dst
        self.tag = tag
        self.nbytes = nbytes
        self.post_time = post_time
        self.done = False
        #: True while the owning VP is blocked inside wait() on this request.
        self.waiting = False
        self.error = SUCCESS
        #: World rank whose failure caused ``error`` (for MPI_ERR_PROC_FAILED).
        self.failed_rank: int | None = None
        #: Virtual time the operation completed (may be in the owner's
        #: future; wait() advances the owner's clock to it).
        self.completion_time = math.nan
        #: What a receive completed into: the matched :class:`Msg`, or its
        #: payload alone where the poster preset :data:`PAYLOAD_ONLY`.
        self.result: Any = None
        #: Monotonic post order among this rank's receives (matching tie-break).
        self.post_seq = 0

    # -- lifecycle -------------------------------------------------------
    def complete(self, time: float, result: Any = None) -> None:
        """Mark successful completion at virtual ``time``."""
        self.done = True
        self.completion_time = time
        self.result = result

    def deliver(self, time: float, msg: Msg) -> None:
        """Complete this receive at ``time`` against the message it
        matched (:meth:`MpiWorld._arrive` carries these lines inline)."""
        self.done = True
        self.completion_time = time
        self.result = msg if self.result is None else msg.payload

    def fail(self, time: float, error: int, failed_rank: int | None = None) -> None:
        """Mark completion-with-error at virtual ``time``."""
        self.done = True
        self.completion_time = time
        self.error = error
        self.failed_rank = failed_rank
        self.result = None  # a failed receive holds nothing, PAYLOAD_ONLY included

    # -- matching keys -----------------------------------------------------
    def matches_msg(self, msg: Msg) -> bool:
        """Does this *posted receive* accept ``msg``? (context must equal,
        source/tag may be wildcards)."""
        return (
            msg.ctx == self.ctx
            and (self.src == ANY_SOURCE or self.src == msg.src)
            and (self.tag == ANY_TAG or self.tag == msg.tag)
        )

    def describe(self) -> str:
        """Short human-readable description (deadlock reports, traces)."""
        if self.kind == Request.RECV:
            src = "ANY" if self.src == ANY_SOURCE else str(self.src)
            tag = "ANY" if self.tag == ANY_TAG else str(self.tag)
            return f"recv src={src} tag={tag} ctx={self.ctx}"
        return f"send dst={self.dst} tag={self.tag} ctx={self.ctx} ({self.nbytes}B)"

    # A Request used as a Block tag stringifies to its description, so the
    # f-string is only built when a deadlock report or trace needs it.
    __str__ = describe

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.done else ("waiting" if self.waiting else "pending")
        return f"<Request {self.describe()} {state} err={self.error}>"
