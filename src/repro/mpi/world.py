"""The simulated MPI world: delivery, matching, and failure propagation.

:class:`MpiWorld` owns the global state of one simulated MPI job — the
per-rank matching queues, the communicator table, the network/processor/
file-system models — and implements the mechanics behind every MPI call:

* **Point-to-point** — eager messages are buffered at the sender and
  delivered after the modeled transfer time; payloads above the eager
  threshold use the rendezvous protocol (an RTS control message, a CTS
  after the receive is matched, then the payload transfer).  Matching
  honours MPI semantics: contexts isolate communicators, ``MPI_ANY_SOURCE``
  and ``MPI_ANY_TAG`` wildcards, and non-overtaking order per sender.
  Exact receives are matched through per-``(context, source, tag)`` indexes
  so linear-algorithm collectives stay O(N) at 32,768 ranks.
* **Failure propagation** (paper §IV-B/C) — when a virtual process fails,
  all messages directed to it are deleted and a simulator-internal
  broadcast records the failure (with its time) in every surviving rank's
  failed-process list.  One function, :meth:`MpiWorld.detection_time`,
  decides when any request against a failed peer fails: at its post time
  if the failure is already visible on the rank's list (§IV-B: requests
  "fail based on the per-process list of failed simulated MPI
  processes"), else — pre-posted, or posted while the notification was in
  flight — at ``max(failure time, post time) + detection timeout`` (§IV-C:
  detection "is purely based on simulated network communication
  timeouts").  The rank records the ``detect`` when it learns of it, in
  :meth:`MpiWorld.wait`'s tail.
* **Error delivery** (paper §IV-D) — a failed request consults the
  communicator's error handler: ``MPI_ERRORS_ARE_FATAL`` (the default)
  invokes the simulated ``MPI_Abort``; ``MPI_ERRORS_RETURN`` and user
  handlers surface an :class:`~repro.mpi.errhandler.MpiError` to the
  application (the ULFM path).
* **Synchronization points** — a simulator-internal rendezvous facility
  (:meth:`MpiWorld.sync_arrive`) that completes when every *currently
  alive* expected member has arrived.  It backs the failure-tolerant ULFM
  ``MPI_Comm_shrink``/``MPI_Comm_agree``.
"""

from __future__ import annotations

import math
from heapq import heappush
from typing import TYPE_CHECKING, Any, Generator, Mapping, Sequence

from repro.core.harness.config import COLLECTIVES
from repro.models.filesystem import FileSystemModel
from repro.models.memory import MemoryTracker
from repro.models.network.model import NetworkModel
from repro.models.processor import ProcessorModel
from repro.mpi.communicator import Communicator
from repro.mpi.constants import ANY_SOURCE, ANY_TAG, ERR_PROC_FAILED, ERR_REVOKED, SUCCESS
from repro.mpi.errhandler import ERRORS_ARE_FATAL, ERRORS_RETURN, MpiError
from repro.mpi.group import Group
from repro.mpi.messages import EAGER, RTS, Msg, Request
from repro.pdes.context import EMPTY_MAP, VirtualProcess, VpState
from repro.pdes.engine import Engine
from repro.pdes.requests import Advance, Block
from repro.util.errors import ConfigurationError, SimulationError
from repro.util.lazy import is_array

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.mpi.api import MpiApi

MatchKey = tuple[int, int, int]  # (context, source, tag)

_BLOCKED, _ADVANCING = VpState.BLOCKED, VpState.ADVANCING
_RUNNING, _READY = VpState.RUNNING, VpState.READY


class RankState:
    """Per-rank MPI-layer state (hangs off the VP's userdata slot).

    A rank owns a queue from its first entry: until then ``posted_wild``
    and ``rdv_sends`` are the empty tuple and ``unexpected`` the shared
    read-only :data:`~repro.pdes.context.EMPTY_MAP` — readers test
    truthiness, iterate or ``.get``; writers create on the first write.
    """

    __slots__ = (
        "rank",
        "vp",
        "posted_exact",
        "posted_wild",
        "unexpected",
        "rdv_sends",
        "initialized",
        "finalized",
    )

    def __init__(self, rank: int, vp: VirtualProcess):
        self.rank = rank
        self.vp = vp
        #: Posted receives with fully specified (ctx, src, tag): the
        #: ``Request`` itself under its key, and a FIFO list of them only
        #: from a second post to the same key on.
        self.posted_exact: dict[MatchKey, Request | list[Request]] = {}
        #: Posted receives using ANY_SOURCE/ANY_TAG, in post order.
        self.posted_wild: Sequence[Request] = ()
        #: Arrived-but-unmatched messages per (ctx, src, tag), sorted by seq.
        self.unexpected: Mapping[MatchKey, list[Msg]] = EMPTY_MAP
        #: This rank's pending rendezvous sends (awaiting their CTS).
        self.rdv_sends: Sequence[Request] = ()
        self.initialized = False
        self.finalized = False

    def posted_at(self, key: MatchKey) -> Sequence[Request]:
        """The exact receives posted under ``key``, in post order."""
        entry = self.posted_exact.get(key)
        if entry is None:
            return ()
        return entry if type(entry) is list else (entry,)

    def iter_posted(self) -> list[Request]:
        """All posted receives (exact and wildcard), unordered."""
        out: list[Request] = []
        for entry in self.posted_exact.values():
            if type(entry) is list:
                out.extend(entry)
            else:
                out.append(entry)
        out.extend(self.posted_wild)
        return out

    def remove_posted(self, req: Request) -> None:
        """Drop a posted receive from whichever index holds it."""
        if req.src != ANY_SOURCE and req.tag != ANY_TAG:
            key = (req.ctx, req.src, req.tag)
            entry = self.posted_exact.get(key)
            if entry is req:
                del self.posted_exact[key]
            elif type(entry) is list and req in entry:
                entry.remove(req)
                if not entry:
                    del self.posted_exact[key]
        elif req in self.posted_wild:
            self.posted_wild.remove(req)

    def add_rdv_send(self, req: Request) -> None:
        """File a rendezvous send that now awaits its clear-to-send."""
        if self.rdv_sends:
            self.rdv_sends.append(req)
        else:
            self.rdv_sends = [req]

    def clear(self) -> None:
        """Drop every queue (the rank died)."""
        self.posted_exact.clear()
        self.posted_wild = ()
        self.unexpected = EMPTY_MAP
        self.rdv_sends = ()


class SyncPoint:
    """One open simulator-internal synchronization point."""

    __slots__ = ("key", "comm", "arrived", "values", "completing")

    def __init__(self, key: tuple, comm: Communicator):
        self.key = key
        self.comm = comm
        #: world rank -> arrival virtual time
        self.arrived: dict[int, float] = {}
        #: world rank -> contributed value
        self.values: dict[int, Any] = {}
        self.completing = False


class SyncResult:
    """Outcome of a synchronization point, delivered to every participant."""

    __slots__ = ("alive", "values", "time")

    def __init__(self, alive: tuple[int, ...], values: dict[int, Any], time: float):
        #: World ranks alive at completion, in ascending order.
        self.alive = alive
        #: Contributed values of the alive participants.
        self.values = values
        #: Virtual completion time.
        self.time = time


class MpiWorld:
    """Global state and mechanics of one simulated MPI job."""

    def __init__(
        self,
        engine: Engine,
        network: NetworkModel,
        processor: ProcessorModel | None = None,
        filesystem: FileSystemModel | None = None,
        memory: MemoryTracker | None = None,
        strict_finalize: bool = True,
        collective_algorithm: str = "linear",
    ):
        if collective_algorithm not in COLLECTIVES:
            raise ConfigurationError(
                f"collective_algorithm must be {'/'.join(COLLECTIVES)}, "
                f"got {collective_algorithm!r}"
            )
        #: Algorithm family used by the collectives (paper: "MPI collectives
        #: utilize linear algorithms").
        self.collective_algorithm = collective_algorithm
        self.engine = engine
        self.network = network
        self.processor = processor if processor is not None else ProcessorModel()
        self.filesystem = filesystem if filesystem is not None else FileSystemModel.disabled()
        self.memory = memory if memory is not None else MemoryTracker()
        #: When True (the xSim semantic), a VP returning from its main
        #: function without having called ``MPI_Finalize`` counts as an
        #: injected process failure.
        self.strict_finalize = strict_finalize
        self.states: list[RankState] = []
        self.world_comm: Communicator | None = None
        self._ctx_counter = 0
        self._msg_seq = 0
        self._post_seq = 0
        self._launched = False
        self._sync_points: dict[tuple, SyncPoint] = {}
        #: Shared communicators produced by simulator-internal operations
        #: (e.g. shrink): first participant creates, the rest reuse.
        self.comm_cache: dict[tuple, Communicator] = {}
        # traffic statistics
        self.messages_sent = 0
        self.bytes_sent = 0
        #: Optional :class:`repro.check.sanitizer.Sanitizer` consulted at
        #: the MPI-layer boundaries (post/match/buffer/failure/sync); off
        #: by default at the cost of one attribute test per boundary.
        self.check = None
        #: Degraded-performance fault windows (stragglers, link degrade);
        #: consulted on the compute and message-cost paths.  Empty by
        #: default at the cost of one attribute test per site.  Failure
        #: *notification* propagation (:meth:`detection_time`, ``revoke``)
        #: deliberately stays undegraded: notifications model an
        #: out-of-band resilience channel, and keeping them a pure function
        #: of the undegraded wire latency preserves serial/sharded parity.
        # Imported here, not at module top: ``repro.core.faults`` sits
        # under ``repro.core``, whose package init imports the simulator
        # and hence this module — a top-level import would make
        # ``import repro.mpi`` order-dependent.
        from repro.core.faults.overlay import FaultOverlay

        self.faults = FaultOverlay()
        #: Optional :class:`repro.obs.Observer` collecting collective
        #: spans, resilience instants (detect/notify/revoke) and, at
        #: ``detail``, blocking-wait spans and one ``msg:post`` /
        #: ``msg:deliver`` / ``msg:drop`` instant per message event.  Off
        #: by default at the cost of one attribute test per emission site.
        self.obs = None
        # Shared Advance instances for the fixed per-message software
        # overheads.  The engine only reads ``dt``/``busy`` from a yielded
        # Advance and the overheads are fixed after construction, so one
        # instance per world avoids an allocation on every send/receive.
        self.send_overhead_advance = Advance(network.send_overhead)
        self.recv_overhead_advance = Advance(network.recv_overhead)
        # The delivery callback every message's queue entry carries, bound
        # once: ``self._arrive`` would build a bound method per message.
        self._deliver = self._arrive
        #: The ``shape`` and ``wires`` tuples of this run's neighbour plans,
        #: by value (:meth:`MpiApi.neighbor_plan`): every rank at the same
        #: position of a decomposition borrows the same two tuples.
        self.plan_parts: dict[tuple, tuple] = {}

    # ------------------------------------------------------------------
    # job launch
    # ------------------------------------------------------------------
    def alloc_context(self) -> int:
        """Allocate a fresh communicator context id."""
        self._ctx_counter += 1
        return self._ctx_counter

    def launch(self, app, nranks: int, args: tuple = ()) -> "list[MpiApi]":
        """Create ``nranks`` virtual processes running ``app(mpi, *args)``.

        ``app`` is a generator function taking the per-rank
        :class:`~repro.mpi.api.MpiApi` facade as its first argument.
        Call :meth:`Engine.run` afterwards to execute the job.
        """
        from repro.mpi.api import MpiApi  # local import: api builds on world

        if self._launched:
            raise SimulationError("MpiWorld.launch() may only be called once")
        if nranks < 1:
            raise ConfigurationError(f"nranks must be >= 1, got {nranks}")
        if nranks > self.network.max_ranks():
            raise ConfigurationError(
                f"{nranks} ranks exceed the simulated machine's capacity of "
                f"{self.network.max_ranks()} ({self.network.topology.nnodes} nodes x "
                f"{self.network.ranks_per_node} ranks/node)"
            )
        self._launched = True
        self.world_comm = Communicator(Group(range(nranks)), self.alloc_context(), "MPI_COMM_WORLD")
        apis: list[MpiApi] = []
        for rank in range(nranks):
            api = MpiApi(self, rank)
            # The app generator is spawned directly (no wrapper frame): every
            # yield traverses the whole `yield from` chain, so one less frame
            # is paid on every single event of every VP.
            vp = self.engine.spawn(app(api, *args))
            if vp.rank != rank:
                raise SimulationError("engine assigned unexpected rank")
            api.vp = vp
            state = RankState(rank, vp)
            vp.userdata = state
            self.states.append(state)
            apis.append(api)
        self.engine.exit_policy = self._exit_policy
        self.engine.failure_listeners.append(self._on_failure)
        return apis

    def _exit_policy(self, vp: VirtualProcess) -> str:
        """Paper §IV-B: "returning from main() or calling exit() without
        having called MPI_Finalize()" is a process failure."""
        if self.strict_finalize and not self.states[vp.rank].finalized:
            return "failure"
        return "done"

    # ------------------------------------------------------------------
    # point-to-point: posting
    # ------------------------------------------------------------------
    def post_send(
        self,
        vp: VirtualProcess,
        comm: Communicator,
        ctx: int,
        dst: int,
        tag: int,
        payload: Any,
        nbytes: int,
        wire: float | None = None,
    ) -> Request | None:
        """Post a send whose software overhead has already been paid (plain
        call, no generator frame — the point-to-point hot path).

        Either buffers an eager message (the send completes locally, at
        this post) or emits a rendezvous RTS (the send completes when the
        clear-to-send round-trip and payload serialization finish).

        Returns the send's :class:`Request` wherever somebody can look at
        one — it failed at the post (revoked communicator, peer on the
        failed list), it is still pending (rendezvous, or a peer whose
        failure notification is in flight), or a sanitizer is attached
        (its ``on_wait_complete`` takes the object) — and ``None`` for an
        eager send that completed here and left nothing behind: there is
        nothing to wait for, so nothing is built.  :meth:`MpiApi.isend`,
        which owes the application a handle, materialises the completed
        one.

        ``wire`` is the undegraded eager wire time
        ``network.transfer_time(nbytes, vp.rank, dst)`` when the caller
        already holds it (a pre-bound neighbour channel, see
        :meth:`MpiApi.neighbor_plan`); it is ignored for rendezvous sends.
        """
        clock = vp.clock
        src = vp.rank
        network = self.network
        eager = nbytes <= network.eager_threshold
        failed_at = vp.failed_peers.get(dst) if vp.failed_peers else None
        req = None
        if not eager or failed_at is not None or comm.revoked or self.check is not None:
            req = Request(Request.SEND, vp, comm, ctx, src, dst, tag, nbytes, clock)
            if comm.revoked:
                req.fail(clock, ERR_REVOKED)
                return req
            if failed_at is not None:
                failed_by = self.detection_time(vp, dst, failed_at, clock)
                if failed_by == clock:
                    req.fail(clock, ERR_PROC_FAILED, failed_rank=dst)
                    return req
        seq = self._msg_seq = self._msg_seq + 1
        self.messages_sent += 1
        self.bytes_sent += nbytes
        if self.obs is not None and self.obs.detail:
            self._record_post(clock, src, dst, ctx, tag, nbytes, eager)
        if payload is not None and is_array(payload):
            payload = payload.copy()  # eager/rendezvous buffering semantics
        if eager:
            msg = Msg(ctx, src, dst, tag, nbytes, payload, seq, EAGER)
            if wire is None:
                wire = network.transfer_time(nbytes, src, dst)
            if req is not None:
                req.complete(clock)
        else:
            msg = Msg(ctx, src, dst, tag, nbytes, payload, seq, RTS, send_req=req)
            wire = network.wire_latency(src, dst)
            if failed_at is not None:  # notification in flight: the timeout
                req.fail(failed_by, ERR_PROC_FAILED, failed_rank=dst)
            else:
                self.states[src].add_rdv_send(req)
        faults = self.faults
        if faults.active_links:
            wire = faults.link_factor(src, dst, clock) * wire
        arrival = clock + wire
        engine = self.engine
        if arrival < engine.now:
            raise SimulationError(f"cannot schedule into the past ({arrival} < {engine.now})")
        # Engine.post_event, inline: the one queue entry every message
        # costs is pushed from the one function every message passes
        # through, onto its arrival instant's list (opened if new).
        engine._seq = eseq = engine._seq + 1
        batch = engine._slots.get(arrival)
        if batch is None:
            engine._slots[arrival] = [(eseq, None, 0, self._deliver, (msg,))]
            heappush(engine._times, arrival)
        else:
            batch.append((eseq, None, 0, self._deliver, (msg,)))
        return req

    def _record_post(
        self, clock: float, src: int, dst: int, ctx: int, tag: int, nbytes: int, eager: bool
    ) -> None:
        """A ``msg:post`` instant on the sender's track (``detail`` only).
        No sequence number: a sharded run's are tuples, the serial run's
        integers, and the two exports must be the same bytes."""
        self.obs.instant(
            clock, "msg:post", rank=src,
            args={"dst": dst, "ctx": ctx, "tag": tag, "nbytes": nbytes,
                  "protocol": "eager" if eager else "rendezvous"},
        )

    def _record_arrival(self, name: str, msg: Msg) -> None:
        """A ``msg:deliver`` / ``msg:drop`` instant on the receiver's track
        at the arrival time (``detail`` only)."""
        self.obs.instant(
            self.engine.now, name, rank=msg.dst,
            args={"src": msg.src, "ctx": msg.ctx, "tag": msg.tag, "nbytes": msg.nbytes},
        )

    def post_recv(
        self, vp: VirtualProcess, comm: Communicator, key: MatchKey, result: Any = None
    ) -> Request:
        """Post a receive for a fully specified ``(ctx, src, tag)`` match
        key (world-rank source, no wildcards); local call.

        The per-message path of collectives and pre-bound neighbour
        exchanges; :meth:`irecv` routes every exact receive here.
        ``result`` presets :attr:`Request.result` —
        :data:`~repro.mpi.messages.PAYLOAD_ONLY` where the poster reads
        the payload and nothing else of the message.
        """
        ctx, src, tag = key
        clock = vp.clock
        state = vp.userdata
        req = Request(Request.RECV, vp, comm, ctx, src, vp.rank, tag, 0, clock)
        req.result = result
        self._post_seq += 1
        req.post_seq = self._post_seq
        if comm.revoked:
            req.fail(clock, ERR_REVOKED)
            return req
        msgs = state.unexpected.get(key)
        if msgs:
            msg = msgs.pop(0)  # per-key lists are kept sorted by seq
            if not msgs:
                del state.unexpected[key]
            self._accept_buffered(state, req, msg)
            return req
        # No buffered match: a failed peer decides the receive's fate
        # (:meth:`detection_time`) — at the post, or posted and then
        # released at the timeout.
        failed_at = vp.failed_peers.get(src) if vp.failed_peers else None
        if failed_at is not None:
            failed_by = self.detection_time(vp, src, failed_at, clock)
            if failed_by == clock:
                req.fail(clock, ERR_PROC_FAILED, failed_rank=src)
                return req
        posted = state.posted_exact
        earlier = posted.setdefault(key, req)
        if earlier is not req:  # a second post to one key: FIFO from here on
            if type(earlier) is list:
                earlier.append(req)
            else:
                posted[key] = [earlier, req]
        if self.check is not None:
            self.check.on_post(state, req)
        if failed_at is not None:
            state.remove_posted(req)
            req.fail(failed_by, ERR_PROC_FAILED, failed_rank=src)
        return req

    def irecv(
        self, vp: VirtualProcess, comm: Communicator, ctx: int, src: int, tag: int
    ) -> Request:
        """Post a receive (world-rank or ``ANY_SOURCE`` ``src``); local call."""
        if src != ANY_SOURCE and tag != ANY_TAG:
            return self.post_recv(vp, comm, (ctx, src, tag))
        state = self.states[vp.rank]
        req = Request(Request.RECV, vp, comm, ctx, src, vp.rank, tag, 0, vp.clock)
        self._post_seq += 1
        req.post_seq = self._post_seq
        if comm.revoked:
            req.fail(vp.clock, ERR_REVOKED)
            return req
        msg = self._match_unexpected(state, req)
        if msg is not None:
            self._accept_buffered(state, req, msg)
            return req
        # The rule of :meth:`post_recv`, over every failed peer the source
        # could stand for: the lowest one visible fails it at the post,
        # else the lowest one in flight at its timeout.
        failed_by: float | None = None
        if vp.failed_peers:
            clock = vp.clock
            if src == ANY_SOURCE:
                acked = comm.acked_failures(vp.rank)
                peers = [r for r in vp.failed_peers if comm.contains(r) and r not in acked]
            else:
                peers = [src] if src in vp.failed_peers else []
            fates = {r: self.detection_time(vp, r, vp.failed_peers[r], clock) for r in peers}
            if fates:
                peer = min([r for r, t in fates.items() if t == clock] or fates)
                failed_by = fates[peer]
                if failed_by == clock:
                    req.fail(clock, ERR_PROC_FAILED, failed_rank=peer)
                    return req
        if state.posted_wild:
            state.posted_wild.append(req)
        else:
            state.posted_wild = [req]
        if self.check is not None:
            self.check.on_post(state, req)
        if failed_by is not None:
            state.remove_posted(req)
            req.fail(failed_by, ERR_PROC_FAILED, failed_rank=peer)
        return req

    def _accept_buffered(self, state: RankState, req: Request, msg: Msg) -> None:
        """Complete a fresh receive against the buffered message it matched."""
        if self.check is not None:
            self.check.on_match_unexpected(state, req, msg)
        if msg.protocol == EAGER:
            req.deliver(req.post_time, msg)  # fresh post: nobody waits yet
        else:
            self._rendezvous(req, msg, req.post_time)

    def detection_time(
        self,
        vp: VirtualProcess,
        peer: int,
        failed_at: float,
        post_time: float,
        pending: bool = False,
    ) -> float:
        """When a request of ``vp``'s against ``peer``, which failed at
        ``failed_at``, fails — the one detection rule (paper §IV-B/C).

        The failure notification reaches ``vp`` one wire latency after the
        failure (the undegraded delay :meth:`revoke` uses): a pure function
        of time, so whether a death or a same-instant post dispatches first
        — a queue artifact — decides nothing, and sharded runs agree.

        * Posted once the notification is in: the request fails at
          ``post_time``, from the per-process list of failed processes.
        * ``pending`` when the peer failed, or posted while the notification
          was in flight: it fails at ``max(failed_at, post_time)`` plus the
          network model's detection timeout.

        Callers read a result equal to ``post_time`` as "fails at the
        post" (a zero timeout makes every failure so) and a later one as
        "stays pending until then".  Charging every request post time +
        timeout instead is a change to the first ``return`` alone.
        """
        if not pending and post_time >= failed_at + self.network.wire_latency(peer, vp.rank):
            return post_time
        return max(failed_at, post_time) + self.network.detection_timeout(vp.rank, peer)

    def _match_unexpected(self, state: RankState, req: Request) -> Msg | None:
        """Pop the lowest-seq buffered message matching a fresh wildcard
        receive: scan the per-key heads for the lowest sequence number."""
        unexpected = state.unexpected
        best_key: MatchKey | None = None
        best: Msg | None = None
        for key, msgs in unexpected.items():
            head = msgs[0]
            if req.matches_msg(head) and (best is None or head.seq < best.seq):
                best, best_key = head, key
        if best is None:
            return None
        msgs = unexpected[best_key]
        msgs.pop(0)
        if not msgs:
            del unexpected[best_key]
        return best

    # ------------------------------------------------------------------
    # point-to-point: completion
    # ------------------------------------------------------------------
    def wait(self, vp: VirtualProcess, req: Request) -> Generator[Any, Any, Msg | None]:
        """Block until ``req`` completes; deliver its error (if any) through
        the communicator's error handler; return the received message.

        The one slow path of every completion.  Callers on the
        per-message path (:meth:`MpiApi.neighbor_exchange`, ``_coll_recv``,
        :meth:`MpiApi.wait`/``waitall``) test "done at or before the
        owner's clock, no error" themselves and come here for the rest.
        """
        if not req.done:
            obs = self.obs
            t0 = vp.clock if obs is not None and obs.detail else None
            req.waiting = True
            yield Block(req)  # stringified lazily, only for reports
            req.waiting = False
            if t0 is not None:
                # Every waker resumes the VP at the completion time, so the
                # span ends where the data is there, before the overhead.
                obs.span(t0, vp.clock, "wait", rank=vp.rank)
        return (yield from self._finalize_request(vp, req))

    def test(
        self, vp: VirtualProcess, req: Request
    ) -> Generator[Any, Any, tuple[bool, Msg | None]]:
        """Nonblocking completion check; finalizes the request when done."""
        if not req.done or req.completion_time > vp.clock:
            return False, None
        msg = yield from self._finalize_request(vp, req)
        return True, msg

    def _finalize_request(
        self, vp: VirtualProcess, req: Request
    ) -> Generator[Any, Any, Msg | None]:
        """What a completed request still owes its owner — the tail
        :meth:`wait` and :meth:`test` share."""
        if req.completion_time > vp.clock:
            # waiting for completion (in-flight data, detection timeout)
            yield Advance(req.completion_time - vp.clock, busy=False)
        if self.check is not None:
            self.check.on_wait_complete(vp, req)
        if req.error != SUCCESS:
            if req.error == ERR_PROC_FAILED:
                # The rank learns of the failure here, and only here: the
                # one place a detection is recorded, so one that never
                # takes effect (its owner aborted first) never is.
                failed = req.failed_rank
                latency = vp.clock - vp.failed_peers.get(failed, vp.clock)
                self.engine.record(
                    vp.clock, "detect", f"detected failure of rank {failed} ({req.describe()})",
                    vp.rank, args={"failed_rank": failed, "latency": latency},
                )
            yield from self.handle_error(
                vp, req.comm, MpiError(req.error, req.describe(), req.failed_rank)
            )
        elif req.kind == Request.RECV and self.network.recv_overhead > 0.0:
            yield self.recv_overhead_advance
        return req.result

    def _rendezvous(self, req: Request, rts: Msg, t_match: float) -> None:
        """Complete the RTS/CTS/payload hand-shake matched at ``t_match``.

        The clear-to-send travels back to the sender; the sender then
        serializes the payload onto the wire (completing its request) and
        the receiver gets it one wire-latency later.
        """
        send_req = rts.send_req
        if send_req is None:
            raise SimulationError("rendezvous RTS without a send request")
        src, dst = rts.src, rts.dst
        # Link degradation scales the whole hand-shake, evaluated once at
        # the match instant so serial and sharded engines agree exactly.
        link_f = (
            self.faults.link_factor(src, dst, t_match)
            if self.faults.active_links
            else 1.0
        )
        t_cts = t_match + link_f * self.network.wire_latency(dst, src)
        t_send_done = t_cts + link_f * self.network.serialization_time(rts.nbytes, src, dst)
        t_recv_done = t_cts + link_f * self.network.transfer_time(rts.nbytes, src, dst)
        sender_state = self.states[src]
        if send_req in sender_state.rdv_sends:
            sender_state.rdv_sends.remove(send_req)
        send_req.complete(t_send_done)
        if send_req.waiting:
            self.engine.wake(send_req.vp, t_send_done)
        req.deliver(t_recv_done, rts)
        if req.waiting:
            self.engine.wake(req.vp, t_recv_done)

    def _arrive(self, msg: Msg) -> None:
        """Delivery event: the message reached the destination NIC.

        One function for the common arrival: with no wildcard receive
        posted it matches, completes and wakes here — the indexed exact
        match is the only candidate, so nothing is scanned and nothing
        else is called.
        """
        state = self.states[msg.dst]
        vp = state.vp
        vstate = vp.state
        # Identity tests, likeliest first: ``not in LIVE_STATES`` would hash
        # the enum member (a Python-level call) on every message.
        if (
            vstate is not _BLOCKED
            and vstate is not _ADVANCING
            and vstate is not _RUNNING
            and vstate is not _READY
        ):
            # "all messages directed to this simulated MPI process are deleted"
            if self.obs is not None and self.obs.detail:
                self._record_arrival("msg:drop", msg)
            return
        eager = msg.protocol == EAGER
        if not eager and not self.states[msg.src].vp.alive:
            if self.obs is not None and self.obs.detail:
                self._record_arrival("msg:drop", msg)
            return  # sender died in flight; the hand-shake can never complete
        now = msg.arrival = self.engine.now
        if self.obs is not None and self.obs.detail:
            self._record_arrival("msg:deliver", msg)
        key = (msg.ctx, msg.src, msg.tag)
        if state.posted_wild:
            req = self._match_posted(state, msg, key)
        else:
            posted = state.posted_exact
            req = posted.get(key)
            if type(req) is list:
                # Several posts to this key: the earliest, and the key
                # keeps its place in the dict while any remain (the order
                # ``_on_failure`` releases in).
                reqs = req
                req = reqs.pop(0)
                if not reqs:
                    del posted[key]
            elif req is not None:
                del posted[key]
        if req is not None:
            if self.check is not None:
                self.check.on_match_posted(state, msg, req)
            if eager:
                # Request.deliver and the wake, inline (req.vp is vp; a call
                # here is one more frame a message, which the call budget of
                # tests/test_message_cost.py counts): the last reference to
                # a payload-only receive's Msg goes with this event's queue
                # entry.
                req.done = True
                req.completion_time = now
                req.result = msg if req.result is None else msg.payload
                if req.waiting:
                    self.engine.wake(vp, now)
            else:
                self._rendezvous(req, msg, now)
            return
        # Buffer, keeping each per-key list sorted by send sequence so
        # matching preserves non-overtaking order even when a larger,
        # earlier message arrives after a smaller, later one.
        if state.unexpected is EMPTY_MAP:
            state.unexpected = {}
        msgs = state.unexpected.setdefault(key, [])
        if msgs and msgs[-1].seq > msg.seq:
            i = len(msgs) - 1
            while i > 0 and msgs[i - 1].seq > msg.seq:
                i -= 1
            msgs.insert(i, msg)
        else:
            msgs.append(msg)
        if self.check is not None:
            self.check.on_buffer(state, msg)

    def _match_posted(self, state: RankState, msg: Msg, key: MatchKey) -> Request | None:
        """Pop the earliest-posted receive accepting ``msg`` when wildcard
        receives are posted: the head of the exact index for ``key``
        against the first matching wildcard, by post order."""
        exact = state.posted_at(key)
        candidate: Request | None = exact[0] if exact else None
        wild_i = -1
        for i, req in enumerate(state.posted_wild):
            if req.matches_msg(msg):
                if candidate is None or req.post_time < candidate.post_time or (
                    req.post_time == candidate.post_time and req.post_seq < candidate.post_seq
                ):
                    candidate = req
                    wild_i = i
                break
        if candidate is None:
            return None
        if wild_i >= 0 and candidate is state.posted_wild[wild_i]:
            del state.posted_wild[wild_i]
        else:
            state.remove_posted(candidate)
        return candidate

    # ------------------------------------------------------------------
    # failure propagation (paper §IV-B/C)
    # ------------------------------------------------------------------
    def _obs_owns(self, rank: int) -> bool:
        """Whether this world emits observer events on behalf of ``rank``.

        Broadcast handlers (like :meth:`_on_failure`) run in *every* shard
        of a sharded run; the sharded world overrides this so each rank's
        events are emitted exactly once, by its owning shard.
        """
        return True

    def _on_failure(self, fvp: VirtualProcess, t_fail: float) -> None:
        f = fvp.rank
        fstate = self.states[f]
        # Delete messages directed to (and state of) the failed process.
        fstate.clear()
        self.memory.free_all(f)
        # Simulator-internal notification broadcast: every VP maintains its
        # own list of failed processes and their failure times.
        obs = self.obs
        for state in self.states:
            if state.vp.alive:
                if state.vp.failed_peers is EMPTY_MAP:
                    state.vp.failed_peers = {}
                state.vp.failed_peers[f] = t_fail
                if obs is not None and self._obs_owns(state.rank):
                    # Visible one wire latency after the failure, matching
                    # detection_time; owner-filtered so sharded runs
                    # emit each rank's notification exactly once.
                    obs.instant(
                        t_fail + self.network.wire_latency(f, state.rank),
                        "notify", rank=state.rank, track="resilience",
                        args={"failed_rank": f},
                    )
        # Release (and fail) requests involving the failed process.
        for state in self.states:
            if not state.vp.alive:
                continue
            # Unmatched RTS messages from the dead sender can never complete.
            dead_keys = [
                key
                for key, msgs in state.unexpected.items()
                if key[1] == f and any(m.protocol == RTS for m in msgs)
            ]
            for key in dead_keys:
                kept = [m for m in state.unexpected[key] if m.protocol != RTS]
                if kept:
                    state.unexpected[key] = kept
                else:
                    del state.unexpected[key]
            released: list[Request] = []
            if state.posted_exact:
                dead_exact = [key for key in state.posted_exact if key[1] == f]
                for key in dead_exact:
                    released.extend(state.posted_at(key))
                    del state.posted_exact[key]
            if state.posted_wild:
                # Single pass, preserving the release order (ANY_SOURCE
                # receives on communicators containing f first, then
                # specific-source receives from f) — the order determines
                # engine event sequence numbers and hence tie-breaking.
                kept: list[Request] = []
                rel_any: list[Request] = []
                rel_src: list[Request] = []
                for req in state.posted_wild:
                    if req.src == ANY_SOURCE and req.comm.contains(f):
                        rel_any.append(req)
                    elif req.src == f:
                        rel_src.append(req)
                    else:
                        kept.append(req)
                if rel_any or rel_src:
                    state.posted_wild[:] = kept
                    released.extend(rel_any)
                    released.extend(rel_src)
            if state.rdv_sends:
                kept_sends: list[Request] = []
                for req in state.rdv_sends:
                    (released if req.dst == f else kept_sends).append(req)
                state.rdv_sends[:] = kept_sends
            # "The simulated network communication time of the waiting
            # simulated MPI process is adjusted for the time of failure,
            # simulating a configurable network communication timeout."
            for req in released:
                detect = self.detection_time(state.vp, f, t_fail, req.post_time, pending=True)
                req.fail(detect, ERR_PROC_FAILED, failed_rank=f)
                if req.waiting:
                    self.engine.wake(state.vp, detect)
        # Re-check open synchronization points that were waiting on it.
        for key in list(self._sync_points):
            sp = self._sync_points.get(key)
            if sp is not None and sp.comm.contains(f):
                self._check_sync(sp)
        if self.check is not None:
            self.check.on_failure(f, t_fail)

    # ------------------------------------------------------------------
    # revocation (ULFM)
    # ------------------------------------------------------------------
    def revoke(self, comm: Communicator, t: float, initiator: int) -> None:
        """Mark ``comm`` revoked and interrupt its pending operations.

        Members learn of the revocation one wire latency after ``t``
        (xSim-style simulator-internal propagation with a modeled delay).
        """
        if comm.revoked:
            return
        comm.revoked = True
        self.engine.record(t, "revoke", f"{comm.name} revoked", initiator, args={"comm": comm.name})
        ctxs = (comm.context_id * 2, comm.context_id * 2 + 1)
        for state in self.states:
            if not state.vp.alive or not comm.contains(state.rank):
                continue
            notify = (
                t
                if state.rank == initiator
                else t + self.network.wire_latency(initiator, state.rank)
            )
            for req in [r for r in state.iter_posted() if r.ctx in ctxs]:
                state.remove_posted(req)
                req.fail(max(notify, req.post_time), ERR_REVOKED)
                if req.waiting:
                    self.engine.wake(req.vp, req.completion_time)
            for req in [r for r in state.rdv_sends if r.ctx in ctxs]:
                state.rdv_sends.remove(req)
                req.fail(max(notify, req.post_time), ERR_REVOKED)
                if req.waiting:
                    self.engine.wake(req.vp, req.completion_time)

    # ------------------------------------------------------------------
    # error delivery (paper §IV-D)
    # ------------------------------------------------------------------
    def handle_error(
        self, vp: VirtualProcess, comm: Communicator, err: MpiError
    ) -> Generator[Any, Any, None]:
        """Run the communicator's error handler for ``err`` at ``vp``.

        Under ``MPI_ERRORS_ARE_FATAL`` this invokes the simulated
        ``MPI_Abort`` and never returns (the VP is terminated at its
        current clock).  Otherwise :class:`MpiError` is raised into the
        application.
        """
        handler = comm.get_errhandler(vp.rank)
        if handler is ERRORS_ARE_FATAL:
            self.engine.request_abort(vp.clock, vp.rank)
            yield Block("aborting")
            raise SimulationError("aborted VP resumed")  # pragma: no cover
        if handler is ERRORS_RETURN:
            raise err
        handler(comm, err)  # user handler; returning falls through to raise
        raise err

    # ------------------------------------------------------------------
    # simulator-internal synchronization points
    # ------------------------------------------------------------------
    def sync_arrive(
        self,
        vp: VirtualProcess,
        comm: Communicator,
        kind: str,
        seq: int,
        value: Any = None,
    ) -> Generator[Any, Any, SyncResult]:
        """Join synchronization point ``(comm, kind, seq)`` and block until
        every *currently alive* member of ``comm`` has joined.

        Members that fail while the point is open are dropped from the
        expectation, so the point still completes — the property ULFM
        shrink/agree need.  All participants are woken at
        ``max(arrival times) + default_sync_cost(n_alive)`` with the same
        :class:`SyncResult`.
        """
        key = (comm.context_id, kind, seq)
        sp = self._sync_points.get(key)
        if sp is None:
            sp = SyncPoint(key, comm)
            self._sync_points[key] = sp
        sp.arrived[vp.rank] = vp.clock
        sp.values[vp.rank] = value
        if not sp.completing:
            # Defer: the arriving VP must yield Block before any wake.
            sp.completing = True
            self.engine.schedule(vp.clock, self._check_sync_deferred, key)
        result = yield Block(f"sync {kind}#{seq} on {comm.name}")
        if not isinstance(result, SyncResult):
            raise SimulationError(f"sync point delivered {result!r}")
        return result

    def _check_sync_deferred(self, key: tuple) -> None:
        sp = self._sync_points.get(key)
        if sp is not None:
            sp.completing = False
            self._check_sync(sp)

    def _check_sync(self, sp: SyncPoint) -> None:
        alive = [r for r in sp.comm.group if self.states[r].vp.alive]
        if not alive:
            del self._sync_points[sp.key]
            return
        if any(r not in sp.arrived for r in alive):
            return  # still waiting for members
        # Completion waits for the last arrival — or, when a failure is what
        # unblocked the point, for the failure to become known (now).
        t_done = max(max(sp.arrived[r] for r in alive), self.engine.now)
        t_done += self.default_sync_cost(len(alive))
        result = SyncResult(
            alive=tuple(alive),
            values={r: sp.values[r] for r in alive},
            time=t_done,
        )
        if self.check is not None:
            self.check.on_sync_complete(sp, result)
        del self._sync_points[sp.key]
        for r in alive:
            self.engine.wake(self.states[r].vp, t_done, value=result)

    def default_sync_cost(self, n: int) -> float:
        """Modeled cost of a simulator-internal agreement among ``n`` ranks:
        a binomial-tree reduce-broadcast over the system network."""
        rounds = 2 * max(1, math.ceil(math.log2(max(2, n))))
        per_round = self.network.system.latency + self.network.send_overhead + self.network.recv_overhead
        return rounds * per_round

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def alive_ranks(self) -> list[int]:
        """Ranks whose virtual process is still alive."""
        return [s.rank for s in self.states if s.vp.alive]

    def pending_requests(self, rank: int) -> list[Request]:
        """This rank's posted receives and pending rendezvous sends."""
        state = self.states[rank]
        return state.iter_posted() + list(state.rdv_sends)

    def traffic_summary(self) -> dict[str, int]:
        """Cumulative message/byte counters."""
        return {"messages_sent": self.messages_sent, "bytes_sent": self.bytes_sent}
