"""Per-rank MPI facade handed to simulated applications.

An application is a generator function ``def app(mpi, *args)`` whose first
argument is an :class:`MpiApi`.  Every MPI call is itself a generator and
must be driven with ``yield from`` — each call is a point where the
simulator regains control (and may activate an injected failure, exactly
like xSim's interposition layer).

The facade exposes:

* lifecycle — :meth:`init`, :meth:`finalize`, :meth:`abort`;
* modeled computation and timing — :meth:`compute`,
  :meth:`compute_native`, :meth:`compute_ops`, :meth:`wtime`;
* point-to-point — :meth:`send`/:meth:`recv`/:meth:`sendrecv` and the
  nonblocking :meth:`isend`/:meth:`irecv`/:meth:`wait`/:meth:`waitall`/
  :meth:`test`, and the pre-bound :meth:`neighbor_plan`/
  :meth:`neighbor_exchange` pair (persistent-request semantics);
* collectives — :meth:`barrier`, :meth:`bcast`, :meth:`reduce`,
  :meth:`allreduce`, :meth:`gather`, :meth:`scatter`, :meth:`allgather`,
  :meth:`alltoall`, :meth:`scan`;
* communicator management — :meth:`comm_dup`, :meth:`comm_split`,
  :meth:`comm_free`, :meth:`set_errhandler`;
* resilience — the ULFM calls (:meth:`comm_revoke`, :meth:`comm_shrink`,
  :meth:`comm_agree`, :meth:`comm_failure_ack`,
  :meth:`comm_failure_get_acked`), :meth:`failed_ranks`, and
  condition-based self-injection via :meth:`fail_here`;
* simulated file I/O (:meth:`file_write` et al.) and tracked dynamic
  memory (:meth:`malloc`/:meth:`free`) feeding the soft-error injector.

Ranks in all calls are *communicator* ranks of the ``comm`` argument
(default ``MPI_COMM_WORLD``); the facade translates to world ranks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Generator, Iterable, Sequence

from repro.models.memory import MemoryRegion, RegionKind
from repro.mpi import collectives as coll
from repro.mpi import ops
from repro.mpi.communicator import Communicator
from repro.mpi.constants import ANY_SOURCE, ANY_TAG, PROC_NULL, SUCCESS, TAG_UB
from repro.mpi.datatypes import payload_nbytes
from repro.mpi.errhandler import Errhandler
from repro.mpi.group import Group
from repro.mpi.messages import PAYLOAD_ONLY, Msg, Request
from repro.pdes.requests import Advance, Block
from repro.util.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.mpi.world import MpiWorld
    from repro.pdes.context import VirtualProcess

Gen = Generator[Any, Any, Any]


@dataclass(frozen=True)
class Status:
    """Receive status (``MPI_Status``): source/tag/size of the message."""

    source: int
    tag: int
    nbytes: int


class NeighborPlan:
    """Channels bound by :meth:`MpiApi.neighbor_plan`, as a flyweight.

    ``shape`` holds per row ``(delta, send_tag, recv_tag, nbytes)`` —
    ``delta`` the peer's world rank minus ``me`` (``None`` for
    ``PROC_NULL``), ``nbytes`` the fixed wire size — and ``wires`` the
    row's eager wire time (``None`` for rendezvous and ``PROC_NULL``
    rows).  Both tuples are interned per run (:attr:`MpiWorld.plan_parts`):
    every rank at the same position of a decomposition borrows the same
    two, and a rank owns this one small object.
    """

    __slots__ = ("comm", "ctx", "me", "shape", "wires")

    def __init__(self, comm: Communicator, ctx: int, me: int, shape: tuple, wires: tuple):
        self.comm = comm
        self.ctx = ctx
        self.me = me
        self.shape = shape
        self.wires = wires


class MpiApi:
    """The simulated MPI interface of one rank."""

    __slots__ = ("world", "rank", "vp", "_rs", "_wc")

    def __init__(self, world: "MpiWorld", rank: int):
        self.world = world
        self.rank = rank
        #: Set by :meth:`MpiWorld.launch` once the VP exists.
        self.vp: "VirtualProcess" = None  # type: ignore[assignment]
        #: Lazily cached RankState (stable after launch).
        self._rs = None
        self._wc = None  # validated world communicator (see _comm)

    # ------------------------------------------------------------------
    # identity and timing
    # ------------------------------------------------------------------
    @property
    def comm_world(self) -> Communicator:
        return self.world.world_comm  # type: ignore[return-value]

    @property
    def size(self) -> int:
        return self.comm_world.size

    def wtime(self) -> float:
        """Current virtual time of this rank (``MPI_Wtime``)."""
        return self.vp.clock

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def initialized(self) -> bool:
        return self._state().initialized

    @property
    def finalized(self) -> bool:
        return self._state().finalized

    def init(self) -> Gen:
        """``MPI_Init``."""
        state = self._state()
        if state.initialized:
            raise ConfigurationError(f"rank {self.rank}: MPI already initialized")
        state.initialized = True
        yield Advance(0.0)  # simulator control point

    def finalize(self) -> Gen:
        """``MPI_Finalize`` (synchronizes like a barrier, then marks the
        rank finalized — a VP exiting without this counts as a failure)."""
        self._check_active()
        yield from coll.barrier(self, self.comm_world)
        self._state().finalized = True

    def abort(self, code: int = 1) -> Gen:
        """``MPI_Abort``: terminate the whole simulated job (paper §IV-D)."""
        self.world.engine.request_abort(self.vp.clock, self.rank)
        yield Block("aborting")

    def fail_here(self, reason: str = "application-triggered failure") -> Gen:
        """Condition-based failure self-injection: the application asks the
        simulator to fail this rank *now* (paper §IV-B)."""
        self.world.engine.schedule_failure(self.rank, self.vp.clock)
        yield Advance(0.0)  # control point at which the failure activates

    # ------------------------------------------------------------------
    # modeled computation, I/O, memory
    # ------------------------------------------------------------------
    def _stretch(self, seconds: float) -> float:
        """Wall-clock cost of ``seconds`` of work starting now: any
        straggler windows this advance overlaps stretch the overlapping
        portions (see :meth:`FaultOverlay.stretch_compute`).  ``seconds``
        unchanged when the overlay is empty."""
        faults = self.world.faults
        if not faults.active_compute:
            return seconds
        return faults.stretch_compute(self.rank, self.vp.clock, seconds)

    def compute(self, seconds: float) -> Gen:
        """Advance this rank's clock by ``seconds`` of simulated work."""
        if seconds < 0:
            raise ConfigurationError(f"compute() needs seconds >= 0, got {seconds}")
        yield Advance(self._stretch(seconds))

    def compute_native(self, native_seconds: float) -> Gen:
        """Work that would take ``native_seconds`` on the reference core,
        scaled by the simulated node's slowdown."""
        yield Advance(
            self._stretch(self.world.processor.time_for_native_seconds(native_seconds))
        )

    def compute_ops(self, nops: float, native_seconds_per_op: float) -> Gen:
        """``nops`` operations at a calibrated native per-op cost."""
        yield Advance(
            self._stretch(self.world.processor.time_for_ops(nops, native_seconds_per_op))
        )

    def file_write(self, nbytes: int, concurrent_clients: int = 1) -> Gen:
        """Write ``nbytes`` to the simulated parallel file system."""
        yield Advance(self.world.filesystem.write_time(nbytes, concurrent_clients), busy=False)

    def file_read(self, nbytes: int, concurrent_clients: int = 1) -> Gen:
        """Read ``nbytes`` from the simulated parallel file system."""
        yield Advance(self.world.filesystem.read_time(nbytes, concurrent_clients), busy=False)

    def file_delete(self) -> Gen:
        """Remove one simulated file (metadata cost only)."""
        yield Advance(self.world.filesystem.delete_time(), busy=False)

    def malloc(
        self,
        name: str,
        nbytes: int = 0,
        kind: RegionKind = RegionKind.DATA,
        array: Any = None,
    ) -> MemoryRegion:
        """Register a tracked dynamic allocation (soft-error target)."""
        return self.world.memory.allocate(self.rank, name, nbytes, kind, array)

    def free(self, name: str) -> None:
        """Release a tracked allocation."""
        self.world.memory.free(self.rank, name)

    # ------------------------------------------------------------------
    # point-to-point
    # ------------------------------------------------------------------
    def isend(
        self,
        dest: int,
        payload: Any = None,
        nbytes: int | None = None,
        tag: int = 0,
        comm: Communicator | None = None,
    ) -> Generator[Any, Any, Request]:
        """Nonblocking send to communicator rank ``dest``."""
        self._check_active()
        comm = self._comm(comm)
        self._check_tag(tag)
        size = payload_nbytes(payload, nbytes)
        if dest == PROC_NULL:
            return self._null_request(Request.SEND, comm, tag)
        dst = comm.world_rank(dest)
        world = self.world
        if world.network.send_overhead > 0.0:
            yield world.send_overhead_advance
        vp = self.vp
        ctx = comm.context_id * 2
        req = world.post_send(vp, comm, ctx, dst, tag, payload, size)
        if req is None:
            # An eager send completed at the post and left nothing behind
            # (MpiWorld.post_send); the application is still owed a handle.
            req = Request(Request.SEND, vp, comm, ctx, self.rank, dst, tag, size, vp.clock)
            req.complete(vp.clock)
        return req

    def irecv(
        self,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        comm: Communicator | None = None,
    ) -> Request:
        """Nonblocking receive from communicator rank ``source`` (local call)."""
        self._check_active()
        comm = self._comm(comm)
        self._check_tag(tag, allow_any=True)
        if source == PROC_NULL:
            return self._null_request(Request.RECV, comm, tag)
        if source == ANY_SOURCE or tag == ANY_TAG:
            src = ANY_SOURCE if source == ANY_SOURCE else comm.world_rank(source)
            return self.world.irecv(self.vp, comm, comm.context_id * 2, src, tag)
        return self.world.post_recv(
            self.vp, comm, (comm.context_id * 2, comm.world_rank(source), tag)
        )

    def wait(self, request: Request) -> Gen:
        """Complete one request; returns the received payload for receives."""
        self._check_active()
        world = self.world
        vp = self.vp
        if request.done and request.completion_time <= vp.clock and request.error == SUCCESS:
            # Fast path: nothing to wait for, only the overhead to pay.
            if world.check is not None:
                world.check.on_wait_complete(vp, request)
            if request.kind == Request.RECV and world.network.recv_overhead > 0.0:
                yield world.recv_overhead_advance
            msg = request.result
        else:
            msg = yield from world.wait(vp, request)
        return msg.payload if isinstance(msg, Msg) else None

    def waitall(self, requests: Iterable[Request]) -> Gen:
        """Complete all requests; returns their payloads in order."""
        self._check_active()
        world = self.world
        vp = self.vp
        recv_adv = world.recv_overhead_advance if world.network.recv_overhead > 0.0 else None
        out = []
        for req in requests:
            if req.done and req.completion_time <= vp.clock and req.error == SUCCESS:
                # Fast path: nothing to wait for, only the overhead to pay.
                if world.check is not None:
                    world.check.on_wait_complete(vp, req)
                if recv_adv is not None and req.kind == Request.RECV:
                    yield recv_adv
                msg = req.result
            else:
                msg = yield from world.wait(vp, req)
            out.append(msg.payload if isinstance(msg, Msg) else None)
        return out

    def test(self, request: Request) -> Generator[Any, Any, tuple[bool, Any]]:
        """``MPI_Test``: (completed?, payload)."""
        done, msg = yield from self.world.test(self.vp, request)
        return done, (msg.payload if isinstance(msg, Msg) else None)

    def send(
        self,
        dest: int,
        payload: Any = None,
        nbytes: int | None = None,
        tag: int = 0,
        comm: Communicator | None = None,
    ) -> Gen:
        """Blocking send."""
        self._check_active()
        req = yield from self.isend(dest, payload, nbytes, tag, comm)
        yield from self.wait(req)

    def recv(
        self,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        comm: Communicator | None = None,
        status: bool = False,
    ) -> Gen:
        """Blocking receive; returns the payload (or ``(payload, Status)``)."""
        self._check_active()
        comm = self._comm(comm)
        req = self.irecv(source, tag, comm)
        msg = yield from self.world.wait(self.vp, req)
        if not status:
            return msg.payload if isinstance(msg, Msg) else None
        if isinstance(msg, Msg):
            st = Status(source=comm.rank_of(msg.src), tag=msg.tag, nbytes=msg.nbytes)
            return msg.payload, st
        return None, Status(source=PROC_NULL, tag=tag, nbytes=0)

    def sendrecv(
        self,
        dest: int,
        source: int,
        send_payload: Any = None,
        nbytes: int | None = None,
        send_tag: int = 0,
        recv_tag: int | None = None,
        comm: Communicator | None = None,
    ) -> Gen:
        """``MPI_Sendrecv``: concurrent send and receive; returns the
        received payload."""
        self._check_active()
        comm = self._comm(comm)
        rtag = send_tag if recv_tag is None else recv_tag
        rreq = self.irecv(source, rtag, comm)
        sreq = yield from self.isend(dest, send_payload, nbytes, send_tag, comm)
        yield from self.wait(sreq)
        return (yield from self.wait(rreq))

    def iprobe(
        self,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        comm: Communicator | None = None,
    ) -> Status | None:
        """``MPI_Iprobe``: status of a matching buffered message already
        delivered to this rank, or ``None`` (local, nonblocking)."""
        self._check_active()
        comm = self._comm(comm)
        self._check_tag(tag, allow_any=True)
        src = ANY_SOURCE if source == ANY_SOURCE else comm.world_rank(source)
        state = self._state()
        best = None
        for (ctx, msrc, mtag), msgs in state.unexpected.items():
            if ctx != comm.context_id * 2:
                continue
            if (src == ANY_SOURCE or src == msrc) and (tag == ANY_TAG or tag == mtag):
                head = msgs[0]
                if head.arrival <= self.vp.clock and (best is None or head.seq < best.seq):
                    best = head
        if best is None:
            return None
        return Status(source=comm.rank_of(best.src), tag=best.tag, nbytes=best.nbytes)

    def probe(
        self,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        comm: Communicator | None = None,
        poll_interval: float = 1e-6,
    ) -> Gen:
        """``MPI_Probe``: wait (by polling the simulated clock) until a
        matching message is available; returns its :class:`Status`."""
        while True:
            status = self.iprobe(source, tag, comm)
            if status is not None:
                return status
            yield Advance(poll_interval)

    # ------------------------------------------------------------------
    # pre-bound neighbour exchange (persistent-request semantics)
    # ------------------------------------------------------------------
    def neighbor_plan(
        self,
        rows: Iterable[tuple[int, int, int, int]],
        comm: Communicator | None = None,
    ) -> "NeighborPlan":
        """Bind a fixed set of neighbour channels once, like
        ``MPI_Send_init``/``MPI_Recv_init`` for every row.

        Each row is ``(peer, send_tag, recv_tag, nbytes)``: this rank sends
        to communicator rank ``peer`` with ``send_tag`` and receives from
        it with ``recv_tag``; ``PROC_NULL`` peers are allowed (domain
        boundaries).  ``nbytes`` is the fixed wire size of the row's send
        (heat3d and cg bind a face's size).  Tags are validated, ranks
        translated and — for eager sizes — the wire time looked up here,
        so :meth:`neighbor_exchange` repeats none of it per message; what
        it still forms at the post is the peer's rank from its offset and
        the receive's match key.
        """
        self._check_active()
        comm = self._comm(comm)
        world = self.world
        network = world.network
        eager_threshold = network.eager_threshold
        transfer_time = network.transfer_time
        world_rank = comm.world_rank
        me = self.rank
        shape = []
        wires = []
        for peer, send_tag, recv_tag, nbytes in rows:
            if not (0 <= send_tag <= TAG_UB and 0 <= recv_tag <= TAG_UB):
                self._check_tag(send_tag)
                self._check_tag(recv_tag)
            if nbytes is None:
                raise ConfigurationError("a neighbor_plan row needs its fixed nbytes")
            nbytes = payload_nbytes(None, nbytes)
            if peer == PROC_NULL:
                shape.append((None, send_tag, recv_tag, nbytes))
                wires.append(None)
                continue
            dst = world_rank(peer)
            wire = None
            if nbytes <= eager_threshold:
                # A hit from the machine's second segment on: the model
                # and its route caches outlive the run.
                wire = transfer_time(nbytes, me, dst)
            shape.append((dst - me, send_tag, recv_tag, nbytes))
            wires.append(wire)
        intern = world.plan_parts.setdefault
        shape = tuple(shape)
        wires = tuple(wires)
        return NeighborPlan(
            comm, comm.context_id * 2, me, intern(shape, shape), intern(wires, wires)
        )

    def neighbor_exchange(
        self,
        plan: "NeighborPlan",
        payloads: Sequence[Any] | None = None,
    ) -> Gen:
        """Start and complete every channel of ``plan`` (``MPI_Startall``
        + ``MPI_Waitall``): post all receives, then pay each send's
        software overhead and post it, then complete the sends and the
        receives in row order.  Returns the received payloads, one per row
        (``None`` for ``PROC_NULL`` rows and size-only messages).

        ``payloads`` supplies one send payload per row (``None``: size-only
        sends); each goes on the wire at its row's bound size.

        Event for event this is ``irecv`` per row, ``isend`` per row,
        ``waitall(sends)``, ``wait`` per receive — run inside this one
        generator frame, minus what nobody looks at: an eager send leaves
        no ``Request`` (:meth:`MpiWorld.post_send`), and a receive whose
        face is already here pays its overhead inline; whatever is left
        to wait for goes to :meth:`MpiWorld.wait`.  That includes a quirk
        of those calls: a receive from ``PROC_NULL`` pays the receive
        software overhead, a send to ``PROC_NULL`` pays nothing.
        """
        self._check_active()
        comm = plan.comm
        if comm.freed:
            raise ConfigurationError(f"operation on freed communicator {comm.name}")
        world = self.world
        vp = self.vp
        ctx = plan.ctx
        me = plan.me
        shape = plan.shape
        wires = plan.wires
        # A receive posted here completes into its payload and lets the
        # Msg go at the match: nothing else of it is read below.  (A loop,
        # not a comprehension: a closure would turn this generator's
        # locals into cells, one allocation each per rank per exchange.)
        recvs: list[Request | None] = []
        for delta, _stag, rtag, _size in shape:
            recvs.append(
                None
                if delta is None
                else world.post_recv(vp, comm, (ctx, me + delta, rtag), PAYLOAD_ONLY)
            )
        network = world.network
        send_adv = world.send_overhead_advance if network.send_overhead > 0.0 else None
        # Rows are walked by index (no enumerate iterator and tuple held
        # across every send overhead), and the send list exists only once
        # a post left a Request to complete: an eager send completed at its
        # post and left nothing (None), like a PROC_NULL row.
        rows = len(shape)
        sends: list[Request | None] | None = None
        for i in range(rows):
            recv = recvs[i]
            if recv is not None:
                if send_adv is not None:
                    yield send_adv
                _delta, stag, _rtag, size = shape[i]
                payload = None if payloads is None else payloads[i]
                # recv.src is this row's peer, formed once at the post
                req = world.post_send(vp, comm, ctx, recv.src, stag, payload, size, wires[i])
                if req is not None:
                    if sends is None:
                        sends = [None] * rows
                    sends[i] = req
        # Completion: the sends, then the receives.  With a sanitizer
        # attached every real send has its request and every PROC_NULL row
        # is shown a completed one, in row order.
        check = world.check
        if sends is not None or check is not None:
            for i in range(rows):
                req = None if sends is None else sends[i]
                if req is not None:
                    yield from world.wait(vp, req)
                elif check is not None:
                    check.on_wait_complete(vp, self._null_request(Request.SEND, comm, shape[i][1]))
        recv_adv = world.recv_overhead_advance if network.recv_overhead > 0.0 else None
        received = []
        for i in range(rows):
            req = recvs[i]
            if req is None:  # PROC_NULL: complete at the post, nothing on the wire
                if check is not None:
                    check.on_wait_complete(
                        vp, self._null_request(Request.RECV, comm, shape[i][2])
                    )
                if recv_adv is not None:
                    yield recv_adv
                received.append(None)
            elif req.done and req.completion_time <= vp.clock and req.error == SUCCESS:
                # Fast path: the face is already here, only the overhead to pay.
                if check is not None:
                    check.on_wait_complete(vp, req)
                if recv_adv is not None:
                    yield recv_adv
                received.append(req.result)
            else:
                received.append((yield from world.wait(vp, req)))
        return received

    def _null_request(self, kind: str, comm: Communicator, tag: int) -> Request:
        req = Request(kind, self.vp, comm, comm.context_id * 2, PROC_NULL, PROC_NULL, tag, 0, self.vp.clock)
        req.complete(self.vp.clock)
        return req

    # ------------------------------------------------------------------
    # collectives (communicator rank order everywhere)
    # ------------------------------------------------------------------
    # Plain functions: each validates its arguments at the call and hands
    # back the collective's own generator for the caller's ``yield from``,
    # so no pass-through frame sits on every message of the collective.
    def barrier(self, comm: Communicator | None = None) -> Gen:
        """``MPI_Barrier`` on ``comm`` (default ``MPI_COMM_WORLD``)."""
        self._check_active()
        return coll.barrier(self, self._comm(comm))

    def bcast(
        self,
        value: Any = None,
        nbytes: int | None = None,
        root: int = 0,
        comm: Communicator | None = None,
    ) -> Gen:
        """``MPI_Bcast``: every member returns the root's ``value``."""
        self._check_active()
        comm = self._comm(comm)
        size = payload_nbytes(value, nbytes) if comm.rank_of(self.rank) == root else (nbytes or 0)
        return coll.bcast(self, comm, value, size, root)

    def reduce(
        self,
        value: Any = None,
        nbytes: int | None = None,
        op: ops.Op = ops.SUM,
        root: int = 0,
        comm: Communicator | None = None,
    ) -> Gen:
        """``MPI_Reduce``: the folded value at ``root``, ``None`` elsewhere."""
        self._check_active()
        return coll.reduce(self, self._comm(comm), value, payload_nbytes(value, nbytes), op, root)

    def allreduce(
        self,
        value: Any = None,
        nbytes: int | None = None,
        op: ops.Op = ops.SUM,
        comm: Communicator | None = None,
    ) -> Gen:
        """``MPI_Allreduce``: every member returns the folded value."""
        self._check_active()
        return coll.allreduce(self, self._comm(comm), value, payload_nbytes(value, nbytes), op)

    def gather(
        self,
        value: Any = None,
        nbytes: int | None = None,
        root: int = 0,
        comm: Communicator | None = None,
    ) -> Gen:
        """``MPI_Gather``: rank-ordered value list at ``root``."""
        self._check_active()
        return coll.gather(self, self._comm(comm), value, payload_nbytes(value, nbytes), root)

    def allgather(
        self, value: Any = None, nbytes: int | None = None, comm: Communicator | None = None
    ) -> Gen:
        """``MPI_Allgather``: every member gets the rank-ordered list."""
        self._check_active()
        return coll.allgather(self, self._comm(comm), value, payload_nbytes(value, nbytes))

    def scatter(
        self,
        values: Sequence[Any] | None = None,
        nbytes: int | None = None,
        root: int = 0,
        comm: Communicator | None = None,
    ) -> Gen:
        """``MPI_Scatter``: ``values[i]`` (supplied at ``root``) to rank i."""
        self._check_active()
        comm = self._comm(comm)
        size = nbytes
        if size is None:
            size = payload_nbytes(values[0], None) if values else 0
        return coll.scatter(self, comm, list(values) if values is not None else None, size, root)

    def alltoall(
        self,
        values: Sequence[Any],
        nbytes: int | Sequence[int] | None = None,
        comm: Communicator | None = None,
    ) -> Gen:
        """``MPI_Alltoall``; with per-destination payloads of differing
        sizes (``nbytes=None`` infers each, or pass a size list) this is
        ``MPI_Alltoallv``."""
        self._check_active()
        comm = self._comm(comm)
        vals = list(values)
        if nbytes is None:
            sizes: int | list[int] = [payload_nbytes(v, None) for v in vals]
        elif isinstance(nbytes, (list, tuple)):
            sizes = [int(n) for n in nbytes]
        else:
            sizes = int(nbytes)
        return coll.alltoall(self, comm, vals, sizes)

    def scan(
        self,
        value: Any = None,
        nbytes: int | None = None,
        op: ops.Op = ops.SUM,
        comm: Communicator | None = None,
    ) -> Gen:
        """``MPI_Scan`` (inclusive prefix reduction)."""
        self._check_active()
        return coll.scan(self, self._comm(comm), value, payload_nbytes(value, nbytes), op)

    # internal collective-context point-to-point helpers
    def _coll_send(self, comm: Communicator, dst: int, tag: int, payload: Any, nbytes: int) -> Gen:
        world = self.world
        if world.network.send_overhead > 0.0:
            yield world.send_overhead_advance
        req = world.post_send(
            self.vp, comm, comm.context_id * 2 + 1, comm.world_rank(dst), tag, payload, nbytes
        )
        if req is not None:  # an eager send left nothing to complete
            yield from world.wait(self.vp, req)

    def _coll_recv(self, comm: Communicator, src: int, tag: int) -> Gen:
        # A plain function: it posts the receive at the call and hands back
        # the generator that completes it — the tail ``wait`` ends in alone
        # when the post matched a buffered message, ``wait`` otherwise — so
        # a rank blocked in a collective keeps no frame of its own here.
        world = self.world
        vp = self.vp
        req = world.post_recv(vp, comm, (comm.context_id * 2 + 1, comm.world_rank(src), tag))
        return world._finalize_request(vp, req) if req.done else world.wait(vp, req)

    def _coll_irecv(self, comm: Communicator, src: int, tag: int) -> Request:
        return self.world.post_recv(
            self.vp, comm, (comm.context_id * 2 + 1, comm.world_rank(src), tag)
        )

    # ------------------------------------------------------------------
    # communicator management
    # ------------------------------------------------------------------
    def comm_rank(self, comm: Communicator | None = None) -> int:
        """This process's rank within ``comm``."""
        return self._comm(comm).rank_of(self.rank)

    def comm_size(self, comm: Communicator | None = None) -> int:
        """Member count of ``comm``."""
        return self._comm(comm).size

    def comm_dup(self, comm: Communicator | None = None) -> Gen:
        """Collectively duplicate ``comm`` into a fresh context."""
        self._check_active()
        comm = self._comm(comm)
        me = comm.rank_of(self.rank)
        new = None
        if me == 0:
            new = Communicator(comm.group, self.world.alloc_context(), f"{comm.name}.dup")
        return (yield from coll.bcast(self, comm, new, 16, root=0))

    def comm_split(
        self, color: int | None, key: int | None = None, comm: Communicator | None = None
    ) -> Gen:
        """Collectively split ``comm`` by color, ordering members by key.

        Returns the new communicator, or ``None`` for ``color=None``
        (``MPI_UNDEFINED``) callers.
        """
        self._check_active()
        comm = self._comm(comm)
        me = comm.rank_of(self.rank)
        entry = (color, me if key is None else key, me)
        entries = yield from coll.gather(self, comm, entry, 24, root=0)
        table: dict[int, Communicator] | None = None
        if me == 0:
            table = {}
            by_color: dict[int, list[tuple[int, int]]] = {}
            for c, k, m in entries:  # type: ignore[union-attr]
                if c is not None:
                    by_color.setdefault(c, []).append((k, m))
            for c in sorted(by_color):
                members = [comm.world_rank(m) for _, m in sorted(by_color[c])]
                table[c] = Communicator(
                    Group(members), self.world.alloc_context(), f"{comm.name}.split({c})"
                )
        table = yield from coll.bcast(self, comm, table, 16, root=0)
        return None if color is None else table[color]

    def comm_free(self, comm: Communicator) -> Gen:
        """Mark ``comm`` freed (local bookkeeping + a control point)."""
        comm.freed = True
        yield Advance(0.0)

    def set_errhandler(self, handler: Errhandler, comm: Communicator | None = None) -> None:
        """``MPI_Comm_set_errhandler`` for this rank on ``comm``."""
        self._comm(comm).set_errhandler(self.rank, handler)

    # ------------------------------------------------------------------
    # resilience / ULFM
    # ------------------------------------------------------------------
    def _known_failed(self, comm: Communicator) -> list[int]:
        """World ranks of ``comm`` this process knows to have failed: a
        request posted now against one would fail at once
        (``MpiWorld.detection_time``)."""
        vp, clock = self.vp, self.vp.clock
        return [
            w for w, t in vp.failed_peers.items()
            if comm.contains(w) and self.world.detection_time(vp, w, t, clock) == clock
        ]

    def failed_ranks(self, comm: Communicator | None = None) -> list[int]:
        """Communicator ranks this process knows to have failed."""
        comm = self._comm(comm)
        return sorted(comm.rank_of(w) for w in self._known_failed(comm))

    def comm_failure_ack(self, comm: Communicator | None = None) -> Gen:
        """``MPI_Comm_failure_ack``: acknowledge currently known failures,
        re-enabling ``MPI_ANY_SOURCE`` receives on ``comm``."""
        comm = self._comm(comm)
        comm.ack_failures(self.rank, frozenset(self._known_failed(comm)))
        yield Advance(0.0)

    def comm_failure_get_acked(self, comm: Communicator | None = None) -> list[int]:
        """``MPI_Comm_failure_get_acked``: acknowledged failed comm ranks."""
        comm = self._comm(comm)
        return sorted(comm.rank_of(w) for w in comm.acked_failures(self.rank))

    def comm_revoke(self, comm: Communicator | None = None) -> Gen:
        """``MPI_Comm_revoke``: interrupt all pending/future operations on
        ``comm`` at every member (they observe ``MPI_ERR_REVOKED``)."""
        comm = self._comm(comm)
        self.world.revoke(comm, self.vp.clock, self.rank)
        yield Advance(0.0)

    def comm_shrink(self, comm: Communicator | None = None) -> Gen:
        """``MPI_Comm_shrink``: collectively build a new communicator from
        the surviving members of ``comm`` (works on revoked communicators
        and tolerates failures during the operation)."""
        self._check_active()
        comm = self._comm(comm)
        seq = comm.next_collective_seq(self.rank)
        result = yield from self.world.sync_arrive(self.vp, comm, "shrink", seq)
        cache_key = ("shrink", comm.context_id, seq)
        newcomm = self.world.comm_cache.get(cache_key)
        if newcomm is None:
            newcomm = Communicator(
                Group(result.alive), self.world.alloc_context(), f"{comm.name}.shrink"
            )
            self.world.comm_cache[cache_key] = newcomm
        return newcomm

    def comm_agree(self, flag: bool, comm: Communicator | None = None) -> Gen:
        """``MPI_Comm_agree``: fault-tolerant agreement on the logical AND
        of ``flag`` over the surviving members; returns the agreed value."""
        self._check_active()
        comm = self._comm(comm)
        seq = comm.next_collective_seq(self.rank)
        result = yield from self.world.sync_arrive(self.vp, comm, "agree", seq, value=bool(flag))
        return all(result.values.values())

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _comm(self, comm: Communicator | None) -> Communicator:
        if comm is None:
            # Fast path: the world communicator always contains this rank,
            # so only the freed check applies (validated once, then cached).
            c = self._wc
            if c is not None:
                if c.freed:
                    raise ConfigurationError(f"operation on freed communicator {c.name}")
                return c
            c = self.world.world_comm
            if c is not None and not c.freed and c.contains(self.rank):
                self._wc = c
                return c
        c = comm if comm is not None else self.world.world_comm
        if c is None:
            raise ConfigurationError("MPI world not launched")
        if c.freed:
            raise ConfigurationError(f"operation on freed communicator {c.name}")
        if not c.contains(self.rank):
            raise ConfigurationError(f"rank {self.rank} is not a member of {c.name}")
        return c

    def _state(self):
        rs = self._rs
        if rs is None:
            rs = self._rs = self.world.states[self.rank]
        return rs

    def _check_active(self) -> None:
        state = self._rs
        if state is None:
            state = self._state()
        if not state.initialized:
            raise ConfigurationError(f"rank {self.rank}: MPI_Init has not been called")
        if state.finalized:
            raise ConfigurationError(f"rank {self.rank}: MPI already finalized")

    def _check_tag(self, tag: int, allow_any: bool = False) -> None:
        if allow_any and tag == ANY_TAG:
            return
        if not 0 <= tag <= TAG_UB:
            raise ConfigurationError(f"tag {tag} outside [0, {TAG_UB}]")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<MpiApi rank={self.rank}/{self.size}>"
