"""Process-level redundancy with online SDC detection (redMPI-style).

Paper §II-C describes the authors' redMPI prototype: "RedMPI is capable of
online detection and correction of soft errors (bit flips) without
requiring any modifications to the application using double or triple
redundancy. ... Depending on the application properties, a single bit flip
can corrupt all MPI processes of an application within a short period of
time, or may be corrected by the application's computational structure."

This module reproduces the *MsgPlusHash* scheme at simulation level: an
application written against the ordinary :class:`~repro.mpi.api.MpiApi`
runs unmodified on ``factor`` replicas per logical rank.  Each replica
communicates with its corresponding replica of the peer; alongside every
payload, the sender ships a small hash of the message to the *next* replica
of the receiver, which compares it against the hash of the copy it received
itself.  A mismatch is an online silent-data-corruption detection, recorded
(with its virtual time and location) in the shared
:class:`RedundancyMonitor`.

Replica placement follows redMPI's mirrored layout: replica ``j`` of
logical rank ``i`` is world rank ``j * n + i`` for an ``n``-logical-rank
job, so ``factor * n`` simulated ranks are required.

Scope: the supported API surface is the one simulated applications here
use (init/finalize, blocking and nonblocking point-to-point with explicit
sources, the pre-bound neighbour exchange, barrier, modeled compute and
file I/O, tracked memory).  Wildcard
receives and communicator management raise — redMPI itself restricts
wildcard usage.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Any, Generator

from repro.mpi import ops
from repro.mpi.api import MpiApi
from repro.mpi.constants import ANY_SOURCE, PROC_NULL
from repro.mpi.messages import Request
from repro.util.errors import ConfigurationError
from repro.util.lazy import is_array, np

Gen = Generator[Any, Any, Any]

#: Application tags must stay below this; the replica-hash side channel
#: uses ``tag + HASH_TAG_OFFSET``.
HASH_TAG_OFFSET = 2**19
#: Internal tag base of the replicated collective implementation (beyond
#: application tags, below the hash side channel).
_COLL_TAG = 2**18
#: Wire size of one hash message (redMPI ships a small digest).
HASH_NBYTES = 16


def payload_hash(payload: Any) -> int:
    """Deterministic digest of a message payload.

    Real numpy payloads hash their bytes (so a flipped bit is caught);
    modeled (``None``) payloads hash to a constant — redundancy still
    models the traffic overhead, but there is nothing to corrupt.
    """
    if payload is None:
        return 0
    if is_array(payload):
        return zlib.crc32(np.ascontiguousarray(payload).tobytes())
    return zlib.crc32(repr(payload).encode("utf-8"))


@dataclass(frozen=True)
class SdcDetection:
    """One online hash-mismatch detection."""

    time: float
    logical_src: int
    logical_dst: int
    replica: int
    tag: int


@dataclass
class RedundancyMonitor:
    """Shared record of a redundant execution's comparisons."""

    factor: int
    detections: list[SdcDetection] = field(default_factory=list)
    messages_compared: int = 0

    @property
    def clean(self) -> bool:
        return not self.detections


class _RedundantRequest:
    """Composite of the payload request and its hash side-channel."""

    __slots__ = ("main", "hash_send", "hash_recv", "kind")

    def __init__(self, kind: str, main: Request, hash_send: Request | None, hash_recv: Request | None):
        self.kind = kind
        self.main = main
        self.hash_send = hash_send
        self.hash_recv = hash_recv


class RedundantApi:
    """Drop-in MPI facade presenting the *logical* job to the application.

    ``mpi`` is the per-replica physical facade; ``rank``/``size`` are the
    logical coordinates.  All point-to-point traffic is replicated per
    redMPI's same-replica scheme with the hash side channel.
    """

    def __init__(self, mpi: MpiApi, factor: int, monitor: RedundancyMonitor):
        if factor < 1:
            raise ConfigurationError(f"redundancy factor must be >= 1, got {factor}")
        if mpi.size % factor != 0:
            raise ConfigurationError(
                f"world size {mpi.size} is not a multiple of the redundancy factor {factor}"
            )
        self.base = mpi
        self.factor = factor
        self.monitor = monitor
        self.logical_size = mpi.size // factor
        self.rank = mpi.rank % self.logical_size
        self.replica = mpi.rank // self.logical_size

    # -- identity ---------------------------------------------------------
    @property
    def size(self) -> int:
        return self.logical_size

    @property
    def vp(self):
        return self.base.vp

    def wtime(self) -> float:
        """Current virtual time of this replica."""
        return self.base.wtime()

    def _world(self, logical: int, replica: int | None = None) -> int:
        if logical == PROC_NULL:
            return PROC_NULL
        if logical == ANY_SOURCE:
            raise ConfigurationError("ANY_SOURCE is not supported under redundancy")
        r = self.replica if replica is None else replica
        return r * self.logical_size + logical

    # -- lifecycle / local operations (plain delegation) ------------------
    def init(self) -> Gen:
        """``MPI_Init`` (physical, per replica)."""
        return self.base.init()

    def finalize(self) -> Gen:
        """``MPI_Finalize`` (physical, per replica)."""
        return self.base.finalize()

    def compute(self, seconds: float) -> Gen:
        """Modeled work (each replica computes it independently)."""
        return self.base.compute(seconds)

    def compute_native(self, native_seconds: float) -> Gen:
        """Reference-core work, scaled by the node slowdown."""
        return self.base.compute_native(native_seconds)

    def compute_ops(self, nops: float, native_seconds_per_op: float) -> Gen:
        """Calibrated per-operation work."""
        return self.base.compute_ops(nops, native_seconds_per_op)

    def file_write(self, nbytes: int, concurrent_clients: int = 1) -> Gen:
        """Simulated file write (each replica pays it)."""
        return self.base.file_write(nbytes, concurrent_clients)

    def file_read(self, nbytes: int, concurrent_clients: int = 1) -> Gen:
        """Simulated file read."""
        return self.base.file_read(nbytes, concurrent_clients)

    def file_delete(self) -> Gen:
        """Simulated file removal."""
        return self.base.file_delete()

    def malloc(self, name: str, nbytes: int = 0, kind=None, array: Any = None):
        """Register a tracked allocation on this replica."""
        from repro.models.memory import RegionKind

        return self.base.malloc(name, nbytes, kind or RegionKind.DATA, array)

    def free(self, name: str) -> None:
        """Release a tracked allocation."""
        self.base.free(name)

    def barrier(self, comm=None) -> Gen:
        """Synchronizes the whole redundant job (all replicas), modeling
        redMPI's replica-consistent collective behaviour."""
        if comm is not None:
            raise ConfigurationError("custom communicators are not supported under redundancy")
        return self.base.barrier()

    # -- replicated point-to-point ----------------------------------------
    def isend(
        self, dest: int, payload: Any = None, nbytes: int | None = None, tag: int = 0, comm=None
    ) -> Generator[Any, Any, _RedundantRequest]:
        """Nonblocking send to logical ``dest`` plus the hash side channel."""
        self._check(tag, comm)
        main = yield from self.base.isend(self._world(dest), payload, nbytes, tag)
        hash_send = None
        if self.factor > 1 and dest != PROC_NULL:
            digest = payload_hash(payload)
            watcher = (self.replica + 1) % self.factor
            hash_send = yield from self.base.isend(
                self._world(dest, watcher),
                payload=digest,
                nbytes=HASH_NBYTES,
                tag=tag + HASH_TAG_OFFSET,
            )
        return _RedundantRequest("send", main, hash_send, None)

    def irecv(self, source: int, tag: int = 0, comm=None) -> _RedundantRequest:
        """Nonblocking receive from logical ``source`` plus its hash."""
        self._check(tag, comm)
        main = self.base.irecv(self._world(source), tag)
        hash_recv = None
        if self.factor > 1 and source != PROC_NULL:
            # the hash for *my* copy comes from the previous replica of the
            # sender (who addressed it to me as their watcher)
            prev = (self.replica - 1) % self.factor
            hash_recv = self.base.irecv(self._world(source, prev), tag + HASH_TAG_OFFSET)
        return _RedundantRequest("recv", main, None, hash_recv)

    def wait(self, request: _RedundantRequest) -> Gen:
        """Complete a request; on receives, compare payload vs watcher hash
        and record any mismatch as an online SDC detection."""
        payload = yield from self.base.wait(request.main)
        if request.hash_send is not None:
            yield from self.base.wait(request.hash_send)
        if request.hash_recv is not None:
            expected = yield from self.base.wait(request.hash_recv)
            self.monitor.messages_compared += 1
            if expected is not None and payload_hash(payload) != expected:
                src = request.main.src % self.logical_size
                self.monitor.detections.append(
                    SdcDetection(
                        time=self.base.wtime(),
                        logical_src=src,
                        logical_dst=self.rank,
                        replica=self.replica,
                        tag=request.main.tag,
                    )
                )
        return payload

    def waitall(self, requests) -> Gen:
        """Complete all requests in order; returns received payloads."""
        out = []
        for req in requests:
            out.append((yield from self.wait(req)))
        return out

    def neighbor_plan(self, rows, comm=None) -> tuple:
        """Logical-rank counterpart of :meth:`MpiApi.neighbor_plan`: rows
        of ``(peer, send_tag, recv_tag, nbytes)`` with the tags validated
        once.  Every exchange still routes through the replicated
        :meth:`isend`/:meth:`irecv`, so nothing else can be bound ahead."""
        plan = tuple(rows)
        for _peer, send_tag, recv_tag, _nbytes in plan:
            self._check(send_tag, comm)
            self._check(recv_tag, comm)
        return plan

    def neighbor_exchange(self, plan: tuple, payloads=None) -> Gen:
        """Counterpart of :meth:`MpiApi.neighbor_exchange` over the
        replicated channels: every face crosses per replica pair and is
        compared against its watcher hash."""
        recvs = [self.irecv(peer, recv_tag) for peer, _stag, recv_tag, _size in plan]
        sends = []
        for i, (peer, send_tag, _rtag, size) in enumerate(plan):
            payload = None if payloads is None else payloads[i]
            req = yield from self.isend(peer, payload, size, send_tag)
            sends.append(req)
        yield from self.waitall(sends)
        return (yield from self.waitall(recvs))

    def send(
        self, dest: int, payload: Any = None, nbytes: int | None = None, tag: int = 0, comm=None
    ) -> Gen:
        """Blocking send (replicated)."""
        req = yield from self.isend(dest, payload, nbytes, tag)
        yield from self.wait(req)

    def recv(self, source: int, tag: int = 0, comm=None) -> Gen:
        """Blocking receive (replicated, hash-checked)."""
        req = self.irecv(source, tag)
        return (yield from self.wait(req))

    def allreduce(
        self, value: Any = None, nbytes: int | None = None, op: ops.Op = ops.SUM, comm=None
    ) -> Gen:
        """``MPI_Allreduce`` over the *logical* job.

        redMPI replicates collectives as point-to-point exchanges, so the
        reduction runs as a gather-fold-broadcast over the replicated
        (hash-checked) channels: every contribution and the fanned-out
        result cross the wire per replica pair, and each hop is compared
        against its watcher hash like any other message.
        """
        if comm is not None:
            raise ConfigurationError("custom communicators are not supported under redundancy")
        n = self.logical_size
        size = 8 if nbytes is None else nbytes
        if n == 1:
            return ops.fold(op, [value])
        if self.rank == 0:
            contributions = [value]
            for src in range(1, n):
                contributions.append((yield from self.recv(src, tag=_COLL_TAG)))
            result = ops.fold(op, contributions)
            for dst in range(1, n):
                yield from self.send(dst, payload=result, nbytes=size, tag=_COLL_TAG + 1)
            return result
        yield from self.send(0, payload=value, nbytes=size, tag=_COLL_TAG)
        return (yield from self.recv(0, tag=_COLL_TAG + 1))

    def _check(self, tag: int, comm) -> None:
        if comm is not None:
            raise ConfigurationError("custom communicators are not supported under redundancy")
        if not 0 <= tag < HASH_TAG_OFFSET:
            raise ConfigurationError(f"tags under redundancy must be < {HASH_TAG_OFFSET}")


def redundant(app, factor: int, monitor: RedundancyMonitor):
    """Wrap ``app`` for redundant execution.

    Returns a world-level application to be launched on
    ``factor * logical_ranks`` simulated ranks; every replica runs ``app``
    against a :class:`RedundantApi` view.
    """

    def wrapper(mpi: MpiApi, *args: Any) -> Gen:
        red = RedundantApi(mpi, factor, monitor)
        result = yield from app(red, *args)
        return result

    return wrapper
