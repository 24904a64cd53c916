"""Sharded conservative-parallel PDES execution.

The real xSim is itself a parallel discrete event simulator: it scales by
distributing virtual processes over MPI and synchronizing conservatively.
This module gives :class:`~repro.core.simulator.XSim` the same property on
one multicore host.  Ranks are partitioned into *contiguous* shards, each
owned by one worker process that runs a full replica of the simulation with
the non-owned VPs deactivated.  Workers advance in *safe windows* — bounded
dispatch intervals whose width is the minimum cross-shard message latency
(the lookahead), so no in-flight remote message can ever land inside the
window that produced it.

Protocol
--------
A coordinator (the parent process) drives every worker through one of two
modes:

* **NORMAL** windows, used while the simulation is failure-free.  Let
  ``m_k`` be shard *k*'s next local event time, adjusted for envelopes
  queued toward it, and ``L[j][k]`` the per-shard-pair lookahead matrix
  (:func:`derive_lookahead_matrix`: the minimum wire latency between the
  two shards' rank blocks, closed under min-plus so relayed reactions are
  covered).  Shard *k* dispatches every event strictly before
  ``min(h_min, min_{j != k}(m_j + L[j][k]))`` where ``h_min`` is the
  earliest armed failure time: a message shard *j* might still send is
  posted at ``t >= m_j`` and reaches *k* no earlier than ``t + L[j][k]``,
  i.e. at or after *k*'s window end, so exchanging envelopes only at
  window barriers is safe.  (The pre-matrix scheme bounded every shard by
  the single *global* minimum latency, which collapses window widths to
  the machine-wide worst case even between shards that are many hops
  apart.)
* **LOCKSTEP**, entered permanently once ``m`` reaches ``h_min``.  Shards
  with the minimum timestamp run exactly that timestamp one shard at a
  time; failure kills and aborts they produce are relayed to every other
  shard as *directives* before any other shard executes the same
  timestamp.  This reproduces the serial engine's behavior around
  failures — detection wakes, failed-peer lists, ``MPI_Abort`` shutdown —
  because those effects are applied in the same virtual-time order.

Envelopes
---------
Cross-shard traffic uses two picklable tuple forms:

* ``("a", arrival, ctx, src, dst, tag, nbytes, payload, seq, protocol,
  req_id)`` — a message delivery, pushed onto the destination shard's queue
  exactly like a local ``_arrive`` event.  ``seq`` is a
  ``(post_time, src, per-source counter)`` tuple: unlike the serial global
  integer sequence it can be generated shard-locally, while preserving
  per-source ordering (non-overtaking) and deterministic buffer order.
* ``("r", src, req_id, t_send_done)`` — rendezvous completion flowing back
  to the sender's shard: the receiver matched the RTS and computed the
  clear-to-send + serialization finish time.

Failure injections, abort broadcasts, and the detection timeouts they
trigger ride the same coordinator path (as directives): resilience is
simulator-internal state that every shard must observe in the same
virtual-time order as the envelopes, or failed-lists and ``MPI_ANY_SOURCE``
release semantics would diverge from the serial oracle.

Parity contract
---------------
A sharded run must be observably identical to the serial run:
``result_digest`` equal, and the per-rank event trace projection
(:meth:`repro.check.trace.EventTrace.rank_projection`) equal.  Anything the
protocol cannot mirror raises :class:`~repro.util.errors.ShardedParityError`
instead of diverging: unscheduled failures inside a NORMAL window (e.g.
``fail_now`` or exit-without-finalize), simulator-internal sync points
spanning shards (ULFM shrink/agree), communicator handles crossing
shards, and cross-shard revocation.

Transports
----------
``inline`` (the default): every shard is an independently constructed
replica driven in one process — no parallelism, but bit-exact and
debuggable, and the mechanism the property tests use.
``shm``: workers forked from the launched parent simulation (construction
is paid once, copy-on-write shares the launch state) exchanging envelopes
through shared-memory ring buffers with a fixed packed encoding
(:mod:`repro.pdes.shmring`); the pipe carries only small control headers.
It needs the fork start method and is refused where that is missing.

Both transports produce bit-identical digests; a worker process that
dies mid-protocol raises :class:`~repro.util.errors.ShardWorkerDied`
(liveness polling) instead of blocking the coordinator forever.
"""

from __future__ import annotations

import math
import multiprocessing as mp
import os
from dataclasses import dataclass, field
from time import perf_counter
from typing import TYPE_CHECKING, Any

from repro.core.checkpoint.store import CheckpointStore
from repro.mpi.communicator import Communicator


def _extract_stores(args: tuple) -> tuple[CheckpointStore, ...]:
    """Every checkpoint namespace riding in the app args: plain
    :class:`CheckpointStore` instances, plus the component namespaces of
    composite stores (e.g. the multi-level tier store) advertised via a
    ``component_stores()`` method.  Each shard's file-state deltas are
    merged back per namespace after a windowed run."""
    stores: list[CheckpointStore] = []
    for a in args:
        if isinstance(a, CheckpointStore):
            stores.append(a)
        else:
            components = getattr(a, "component_stores", None)
            if callable(components):
                stores.extend(s for s in components() if isinstance(s, CheckpointStore))
    return tuple(stores)
from repro.mpi.constants import ERR_PROC_FAILED, ERR_REVOKED
from repro.mpi.messages import EAGER, RTS, Msg, Request
from repro.models.network.model import NetworkModel, NetworkTier
from repro.models.network.topology import (
    CrossbarTopology,
    FatTreeTopology,
    _GridTopology,
)
from repro.mpi.world import MpiWorld
from repro.obs import observer_for
from repro.pdes.context import VirtualProcess, VpState
from repro.pdes.engine import Engine, SimulationResult
from repro.pdes.shmring import RingPeerDead, ShmRing, pack_envelope, unpack_envelope
from repro.run.scenario import SHARD_TRANSPORTS
from repro.util.errors import (
    ConfigurationError,
    DeadlockError,
    ShardWorkerDied,
    ShardedParityError,
    SimulationError,
)
from repro.util.lazy import is_array

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.core.simulator import XSim

__all__ = [
    "ShardStats",
    "ShardedMpiWorld",
    "WindowedEngine",
    "derive_lookahead_matrix",
    "partition_ranks",
    "run_sharded",
]


# ----------------------------------------------------------------------
# partitioning and lookahead
# ----------------------------------------------------------------------
def partition_ranks(nranks: int, nshards: int) -> list[range]:
    """Split ``range(nranks)`` into at most ``nshards`` contiguous,
    balanced shards (sizes differ by at most one).

    Contiguity is load-bearing: the lookahead derivation below relies on
    every cross-shard rank pair straddling a shard boundary, so the
    boundary pair's network tier bounds the pair's tier from below.
    """
    if nshards < 1:
        raise ConfigurationError(f"shard count must be >= 1, got {nshards}")
    if nranks < 1:
        raise ConfigurationError(f"cannot shard a job of {nranks} ranks")
    nshards = min(nshards, nranks)
    base, extra = divmod(nranks, nshards)
    parts: list[range] = []
    start = 0
    for k in range(nshards):
        size = base + (1 if k < extra else 0)
        parts.append(range(start, start + size))
        start += size
    return parts


def _arc_of(lo: int, hi: int, stride: int, dim: int) -> tuple[int, int] | None:
    """The wrapped coordinate arc one axis of a contiguous node range spans.

    For row-major ids, ``(i // stride) % dim`` increases weakly (mod wrap)
    over ``[lo, hi]``, so the touched coordinates form a wrapped inclusive
    arc ``(c0, c1)`` — or the full axis (``None``) once the unwrapped
    interval covers ``dim`` steps.
    """
    if hi // stride - lo // stride + 1 >= dim:
        return None
    return ((lo // stride) % dim, (hi // stride) % dim)


def _arc_distance(
    a: tuple[int, int] | None, b: tuple[int, int] | None, dim: int, wrap: bool
) -> int:
    """Minimum per-axis distance between two wrapped coordinate arcs."""
    if a is None or b is None:
        return 0
    a0, a1 = a
    b0, b1 = b
    # Arcs on a circle intersect iff an endpoint of one lies in the other.
    if (b0 - a0) % dim <= (a1 - a0) % dim or (a0 - b0) % dim <= (b1 - b0) % dim:
        return 0
    # Disjoint arcs: the closest points are endpoints.
    best = dim
    for u in (a0, a1):
        for v in (b0, b1):
            d = abs(u - v)
            if wrap:
                d = min(d, dim - d)
            best = min(best, d)
    return best


def _min_cross_hops(topology, nodes_a: tuple[int, int], nodes_b: tuple[int, int]) -> int:
    """A safe lower bound on hops between two contiguous node-id ranges.

    ``nodes_a``/``nodes_b`` are inclusive ``(lo, hi)`` ranges from the
    block rank placement.  Grids get the per-axis arc distance sum (exact
    for dimension-order routing between arcs), fat trees the boundary pair
    (contiguous leaf blocks minimize the common-ancestor climb at their
    facing edge), a crossbar any pair (all pairs are equidistant).
    Unknown topologies fall back to 1 hop — any lower bound is safe, a
    loose one merely costs window width.
    """
    if isinstance(topology, _GridTopology):
        total = 0
        for stride, dim in zip(topology._strides, topology.dims):
            total += _arc_distance(
                _arc_of(nodes_a[0], nodes_a[1], stride, dim),
                _arc_of(nodes_b[0], nodes_b[1], stride, dim),
                dim,
                topology.wrap,
            )
        return max(1, total)
    if isinstance(topology, FatTreeTopology):
        if nodes_a[0] > nodes_b[0]:
            nodes_a, nodes_b = nodes_b, nodes_a
        return max(1, topology.hops(nodes_a[1], nodes_b[0]))
    if isinstance(topology, CrossbarTopology):
        return max(1, topology.hops(nodes_a[1], nodes_b[0]))
    return 1


def derive_lookahead_matrix(
    network: NetworkModel, parts: list[range]
) -> list[list[float]]:
    """Per-shard-pair safe lookahead: ``L[j][k]`` lower-bounds the wire
    latency of every message from shard ``j`` to shard ``k``.

    Built in two steps:

    1. *Pairwise bound.*  Block placement is monotone in the rank index,
       so the tier of the closest pair between blocks ``j < k`` is the
       tier of ``(parts[j][-1], parts[k][0])``: a crossing pair that
       shared a node (or chip) would force that boundary pair to share
       it too.  For pairs
       whose closest tier is the system network, the bound is
       ``system latency x min-hops`` between the two shards' node ranges
       (:func:`_min_cross_hops`), not just one hop: distant shards get
       proportionally wider windows.
    2. *Min-plus closure* (Floyd-Warshall).  A shard can react to an
       envelope *indirectly* — ``j`` wakes ``i``, ``i`` sends to ``k`` —
       so the matrix must satisfy the triangle inequality
       ``L[j][k] <= L[j][i] + L[i][k]``; closing it only ever lowers
       entries, and every closed entry still dominates the smallest
       tier latency any boundary admits (each summand does).

    The diagonal is ``inf`` (a shard never bounds itself).
    """
    n = len(parts)
    if n < 2:
        raise ConfigurationError("lookahead is only defined for >= 2 shards")
    sys_lat = network.system.latency
    node_lat = network.on_node.latency
    chip_lat = network.on_chip.latency
    topology = network.topology
    la = [[math.inf] * n for _ in range(n)]
    for j in range(n):
        for k in range(j + 1, n):
            a_hi, b_lo = parts[j][-1], parts[k][0]
            tier = network.tier(a_hi, b_lo)
            if tier is NetworkTier.SYSTEM:
                hops = _min_cross_hops(
                    topology,
                    (network.node_of(parts[j][0]), network.node_of(a_hi)),
                    (network.node_of(b_lo), network.node_of(parts[k][-1])),
                )
                bound = sys_lat * max(1, hops)
            elif tier is NetworkTier.ON_NODE:
                bound = min(node_lat, sys_lat)
            else:
                bound = min(chip_lat, node_lat, sys_lat)
            la[j][k] = la[k][j] = bound
    for mid in range(n):
        row_m = la[mid]
        for i in range(n):
            if i == mid:
                continue
            via = la[i][mid]
            if math.isinf(via):
                continue
            row_i = la[i]
            for j in range(n):
                if j == i or j == mid:
                    continue
                alt = via + row_m[j]
                if alt < row_i[j]:
                    row_i[j] = alt
    floor = min(la[j][k] for j in range(n) for k in range(n) if j != k)
    if floor <= 0.0:
        raise ConfigurationError(
            "sharded execution requires a positive minimum cross-shard wire "
            f"latency; this network derives a lookahead of {floor!r}"
        )
    return la


class _RemoteSendRef:
    """Stand-in for a rendezvous send request living in another shard.

    Stored in ``Msg.send_req`` of a cross-shard RTS; ``_rendezvous``
    recognizes it and answers with an ``("r", ...)`` envelope instead of
    completing the sender's request directly.
    """

    __slots__ = ("req_id",)

    def __init__(self, req_id: int):
        self.req_id = req_id


# ----------------------------------------------------------------------
# run statistics
# ----------------------------------------------------------------------
@dataclass
class ShardStats:
    """Coordination statistics of one sharded run."""

    nshards: int
    lookahead: float
    transport: str
    #: NORMAL safe windows executed (one barrier each).
    windows: int = 0
    #: LOCKSTEP rounds (per-timestamp exact steps + directive deliveries).
    lockstep_rounds: int = 0
    #: Wall time the coordinator spent per round beyond its workers' own —
    #: the slowest one's where they run side by side, their sum on the
    #: inline transport: the protocol/IPC overhead the windows add on top
    #: of useful work.
    barrier_seconds: float = 0.0
    #: Sum over rounds of the *slowest participating worker's* wall time —
    #: the inherent serial fraction of the run.  With ``nshards`` real cores
    #: the whole run cannot finish faster than this plus barrier overhead,
    #: so ``worker_busy_seconds / critical_path_seconds`` is the measured
    #: parallelism of the partition independent of how many host cores the
    #: benchmark machine happens to have.
    critical_path_seconds: float = 0.0
    #: Sum of every worker's wall time across all rounds (the total useful
    #: work; on a single-core host this approximates the serial run time).
    worker_busy_seconds: float = 0.0
    #: The critical path in events instead of seconds: per window round
    #: the largest per-shard dispatch count, plus every lockstep exact
    #: step's.  It repeats exactly, whatever else the host runs, so
    #: ``sum(shard_events) / critical_path_events`` is the partition's
    #: parallelism in a unit host load cannot inflate.
    critical_path_events: int = 0
    #: Events dispatched per shard (filled at merge).
    shard_events: list[int] = field(default_factory=list)
    #: Messages that crossed a shard boundary, summed over shards.
    cross_shard_messages: int = 0
    #: Largest entry of the per-pair lookahead matrix (``lookahead`` holds
    #: the smallest — the old global bound every pair dominates).
    lookahead_max: float = 0.0
    #: Shard sizes of the partition.
    partition: list[int] = field(default_factory=list)

    @property
    def imbalance(self) -> float:
        """Events-per-shard imbalance, ``max/mean`` (1.0 = perfect)."""
        if not self.shard_events or sum(self.shard_events) == 0:
            return 0.0
        mean = sum(self.shard_events) / len(self.shard_events)
        return max(self.shard_events) / mean

    @property
    def parallelism(self) -> float:
        """Measured parallelism: total worker work / critical path.

        This is the wall-clock speedup the partition would achieve with one
        real core per shard and zero coordination cost; it is meaningful
        even when the benchmark host timeshares all workers on fewer cores
        (each round's per-worker wall times are still measured).
        """
        if self.critical_path_seconds <= 0.0:
            return 1.0
        return self.worker_busy_seconds / self.critical_path_seconds


@dataclass
class ShardReport:
    """Everything one worker ships back after quiescence."""

    shard_id: int
    #: rank -> (state value, clock, end_time, busy_time, exit_value, wait_tag)
    ranks: dict[int, tuple]
    failures: list[tuple[int, float]]
    aborted: bool
    abort_time: float | None
    abort_rank: int | None
    event_count: int
    stale_skipped: int
    coalesced_advances: int
    messages_sent: int
    bytes_sent: int
    cross_shard_msgs: int
    log_entries: list
    trace_entries: list | None
    #: Observer events collected by this worker's shard-local
    #: :class:`~repro.obs.Observer` (``None`` when observability is off).
    obs_entries: list | None
    #: (owned checkpoint files, writes delta, deletes delta) — shm only.
    store_delta: tuple | None


# ----------------------------------------------------------------------
# worker-side engine / world
# ----------------------------------------------------------------------
class WindowedEngine(Engine):
    """Engine variant driven through bounded windows by a shard worker.

    Unconfigured instances (``shard_id is None``) behave exactly like the
    serial :class:`Engine`; the coordinator-side template never dispatches
    events, and replicas act serial until :meth:`configure_shard`.
    """

    def __init__(self, *args: Any, **kwargs: Any):
        super().__init__(*args, **kwargs)
        self.shard_id: int | None = None
        self.owned: frozenset[int] = frozenset()
        #: True once the coordinator switched this run to per-timestamp
        #: lockstep (the only mode in which failures/aborts may occur).
        self.lockstep = False

    def configure_shard(self, shard_id: int, owned: frozenset[int]) -> None:
        self.shard_id = shard_id
        self.owned = frozenset(owned)
        self.deactivate_remote(self.owned)

    # -- resilience surface overrides ---------------------------------
    def request_abort(self, time: float, initiator: int) -> None:
        if self.shard_id is not None and not self.lockstep:
            raise ShardedParityError(
                f"MPI_Abort from rank {initiator} at {time} inside a "
                "conservative window; aborts can only follow armed failures "
                "under --shards > 1"
            )
        # Recorded only in the initiating shard (other shards arm the sweep
        # through apply_remote_abort), so the merged log carries the line
        # exactly once, like the serial run.
        super().request_abort(time, initiator)

    def apply_remote_abort(self, time: float, initiator: int) -> None:
        """Abort broadcast relayed from another shard (directive path).

        Arms the same deferred end-of-instant sweep a local
        ``request_abort`` does.  The directive arrives before this shard
        executes the abort instant, and the sweep only applies once its
        dispatch leaves that instant — so every shard's ranks observe the
        broadcast at the same point in virtual time as the serial run,
        regardless of which shard initiated it.
        """
        if self.aborting:
            return
        self.aborting = True
        self.abort_time = time
        self.abort_rank = initiator
        self._pending_abort = time

    def _apply_abort_sweep(self) -> None:
        # Serial sweep iterates every VP; here remote placeholders are
        # skipped — their owning shard applies the same broadcast.
        time = self._pending_abort
        self._pending_abort = None
        for rank in sorted(self.owned):
            vp = self.vps[rank]
            if not vp.alive:
                continue
            vp.time_of_abort = min(vp.time_of_abort, time)
            if vp.state is VpState.BLOCKED or vp.state is VpState.READY:
                self._kill_abort(vp, max(vp.clock, time))

    def fail_now(self, rank: int, reason: str = "application-triggered failure") -> None:
        if self.shard_id is not None:
            if rank not in self.owned:
                raise ShardedParityError(
                    f"fail_now({rank}) targets a rank owned by another shard"
                )
            if not self.lockstep:
                raise ShardedParityError(
                    f"fail_now({rank}) inside a conservative window; only "
                    "failures armed before the run are supported with "
                    "--shards > 1"
                )
        super().fail_now(rank, reason)


class ShardedMpiWorld(MpiWorld):
    """MPI layer that diverts cross-shard traffic into envelopes.

    Unconfigured instances behave exactly like :class:`MpiWorld`.
    """

    def __init__(self, *args: Any, **kwargs: Any):
        super().__init__(*args, **kwargs)
        self.shard_id: int | None = None
        self.owned: frozenset[int] = frozenset()
        #: Per-destination-shard lookahead (this shard's row of the closed
        #: matrix) and the rank -> shard map backing it: how soon another
        #: shard can react to an emitted envelope.
        self._la_row: tuple[float, ...] = ()
        self._owner: tuple[int, ...] = ()
        #: Envelopes produced since the last barrier (drained per round).
        self.outbox: list[tuple] = []
        #: Per-source message counters backing the tuple sequence numbers.
        self._src_counters: dict[int, int] = {}
        #: Outstanding cross-shard rendezvous sends by local request id.
        self._rdv_out: dict[int, Request] = {}
        self._rdv_id = 0
        self.cross_shard_msgs = 0

    def configure_shard(
        self,
        shard_id: int,
        owned: frozenset[int],
        la_row: tuple[float, ...],
        owner: tuple[int, ...],
    ) -> None:
        self.shard_id = shard_id
        self.owned = frozenset(owned)
        self._la_row = la_row
        self._owner = owner

    def _tighten_window(self, t_effective: float, dst: int) -> None:
        """Cap the running window after revealing ``t_effective`` to a peer.

        Once an envelope leaves this shard, its destination's shard can
        react at the envelope's effective time (arrival for a delivery,
        completion time for a rendezvous ack) and send something back that
        reaches us that shard's lookahead-row entry later (closure covers
        reactions relayed through third shards) — so events at or beyond
        that are only safe to dispatch in a *later* window, after the
        coordinator has routed the reply.  Tightening only ever lowers the
        bound; lockstep exact steps are unaffected (their inclusive bound
        is the step time itself).
        """
        engine = self.engine
        cap = t_effective + self._la_row[self._owner[dst]]
        if cap < engine._window_end:
            engine._window_end = cap

    # -- sending -------------------------------------------------------
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
        if self.shard_id is None:
            return super().post_send(vp, comm, ctx, dst, tag, payload, nbytes, wire)
        clock = vp.clock
        network = self.network
        eager = nbytes <= network.eager_threshold
        failed_at = vp.failed_peers.get(dst)
        # Same contract as the serial post: a request only where somebody
        # can look at one, None for an eager send that completed here.
        req = None
        if not eager or failed_at is not None or comm.revoked or self.check is not None:
            req = Request(Request.SEND, vp, comm, ctx, vp.rank, dst, tag, nbytes, clock)
            if comm.revoked:
                req.fail(clock, ERR_REVOKED)
                return req
            if failed_at is not None:
                failed_by = self.detection_time(vp, dst, failed_at, clock)
                if failed_by == clock:
                    req.fail(clock, ERR_PROC_FAILED, failed_rank=dst)
                    return req
        self._msg_seq += 1
        self.messages_sent += 1
        self.bytes_sent += nbytes
        if self.obs is not None and self.obs.detail:
            self._record_post(clock, vp.rank, dst, ctx, tag, nbytes, eager)
        if payload is not None and is_array(payload):
            payload = payload.copy()  # eager/rendezvous buffering semantics
        # Shard-local sequence: (post time, source, per-source counter)
        # orders identically to the serial global counter wherever ordering
        # is observable (per-source non-overtaking; buffer insertion).
        counter = self._src_counters.get(vp.rank, 0) + 1
        self._src_counters[vp.rank] = counter
        seq = (clock, vp.rank, counter)
        engine = self.engine
        # Link degradation mirrors the serial cost computation exactly
        # (factors >= 1, so the undegraded lookahead stays a lower bound).
        link_f = (
            self.faults.link_factor(vp.rank, dst, clock)
            if self.faults.active_links
            else 1.0
        )
        if eager:
            if wire is None:
                wire = network.transfer_time(nbytes, vp.rank, dst)
            arrival = clock + link_f * wire
            if req is not None:
                req.complete(clock)
        else:
            arrival = clock + link_f * network.wire_latency(vp.rank, dst)
            if failed_at is not None:  # notification in flight: the timeout
                req.fail(failed_by, ERR_PROC_FAILED, failed_rank=dst)
            else:
                self.states[vp.rank].add_rdv_send(req)
        if dst in self.owned:
            msg = Msg(
                ctx, vp.rank, dst, tag, nbytes, payload, seq,
                EAGER if eager else RTS, send_req=None if eager else req,
            )
            if arrival < engine.now:
                raise SimulationError(
                    f"cannot schedule into the past ({arrival} < {engine.now})"
                )
            engine.post_event(arrival, self._deliver, msg)
        else:
            if isinstance(payload, Communicator):
                raise ShardedParityError(
                    "a communicator handle cannot cross shard boundaries "
                    "(MPI_Comm_dup/split build shared per-rank tables); run "
                    "communicator-creating applications with --shards 1"
                )
            self.cross_shard_msgs += 1
            req_id = None
            if not eager:
                self._rdv_id += 1
                req_id = self._rdv_id
                self._rdv_out[req_id] = req
            self.outbox.append(
                (
                    "a", arrival, ctx, vp.rank, dst, tag, nbytes, payload, seq,
                    EAGER if eager else RTS, req_id,
                )
            )
            self._tighten_window(arrival, dst)
        return req

    # -- rendezvous across the boundary --------------------------------
    def _rendezvous(self, req: Request, rts: Msg, t_match: float) -> None:
        ref = rts.send_req
        if self.shard_id is not None and isinstance(ref, _RemoteSendRef):
            src, dst = rts.src, rts.dst
            link_f = (
                self.faults.link_factor(src, dst, t_match)
                if self.faults.active_links
                else 1.0
            )
            t_cts = t_match + link_f * self.network.wire_latency(dst, src)
            t_send_done = t_cts + link_f * self.network.serialization_time(
                rts.nbytes, src, dst
            )
            t_recv_done = t_cts + link_f * self.network.transfer_time(
                rts.nbytes, src, dst
            )
            # The sender's completion travels back as an envelope; it is
            # window-safe because t_send_done >= t_match + lookahead.
            self.outbox.append(("r", src, ref.req_id, t_send_done))
            self._tighten_window(t_send_done, src)
            req.deliver(t_recv_done, rts)
            if req.waiting:
                self.engine.wake(req.vp, t_recv_done)
            return
        super()._rendezvous(req, rts, t_match)

    # -- envelope application (barrier side) ----------------------------
    def apply_arrival(self, env: tuple) -> None:
        """Queue a cross-shard message delivery on the local queue."""
        _, arrival, ctx, src, dst, tag, nbytes, payload, seq, protocol, req_id = env
        send_ref = _RemoteSendRef(req_id) if protocol == RTS else None
        msg = Msg(ctx, src, dst, tag, nbytes, payload, seq, protocol, send_req=send_ref)
        engine = self.engine
        if arrival < engine.now:
            raise ShardedParityError(
                f"causality violation: envelope arriving at {arrival} behind "
                f"shard clock {engine.now}"
            )
        engine.post_event(arrival, self._deliver, msg)

    def apply_rdv_done(self, req_id: int, t_send_done: float) -> None:
        """Complete a cross-shard rendezvous send (receiver matched it)."""
        req = self._rdv_out.pop(req_id, None)
        if req is None or req.done:
            return  # released by a failure notification in the meantime
        state = self.states[req.src]
        if req in state.rdv_sends:
            state.rdv_sends.remove(req)
        req.complete(t_send_done)
        if req.waiting:
            self.engine.wake(req.vp, t_send_done)

    def apply_remote_failure(self, rank: int, t_kill: float) -> None:
        """Failure of a rank owned by another shard (directive path).

        Flips the local placeholder to FAILED (no log line, no entry in
        ``engine.failures`` — the owner reports both) and runs the same
        ``_on_failure`` notification the serial engine triggers: clears the
        dead rank's queues, extends every local failed-peers list, prunes
        in-flight rendezvous, and schedules detection-timeout releases.
        """
        if rank in self.owned:
            raise SimulationError(f"remote-failure directive for owned rank {rank}")
        vp = self.engine.vps[rank]
        if not vp.alive:
            return
        vp.epoch += 1
        vp.state = VpState.FAILED
        vp.clock = max(vp.clock, t_kill)
        vp.end_time = vp.clock
        vp.time_of_failure = min(vp.time_of_failure, t_kill)
        self._on_failure(vp, t_kill)

    # -- unsupported-across-shards guards -------------------------------
    def sync_arrive(self, vp, comm, kind, seq, value=None):
        if self.shard_id is not None and any(r not in self.owned for r in comm.group):
            raise ShardedParityError(
                f"simulator-internal sync point ({kind}) on {comm.name} spans "
                "shard boundaries; MPI_Comm_shrink/MPI_Comm_agree require --shards 1"
            )
        return super().sync_arrive(vp, comm, kind, seq, value=value)

    def revoke(self, comm: Communicator, t: float, initiator: int) -> None:
        if self.shard_id is not None and any(r not in self.owned for r in comm.group):
            raise ShardedParityError(
                f"revocation of {comm.name} spans shard boundaries; ULFM "
                "revoke/shrink workloads require --shards 1"
            )
        super().revoke(comm, t, initiator)

    def _obs_owns(self, rank: int) -> bool:
        # Failure broadcasts replay in every shard; only the owner of a
        # rank emits its observer events, so the merged stream matches
        # the serial run's exactly.
        return self.shard_id is None or rank in self.owned


# ----------------------------------------------------------------------
# worker
# ----------------------------------------------------------------------
class ShardWorker:
    """Drives one shard's engine under the coordinator protocol."""

    def __init__(
        self,
        sim: "XSim",
        shard_id: int,
        owned: range,
        la_row: tuple[float, ...],
        owner: tuple[int, ...],
    ):
        self.sim = sim
        self.engine: WindowedEngine = sim.engine  # type: ignore[assignment]
        self.world: ShardedMpiWorld = sim.world  # type: ignore[assignment]
        self.shard_id = shard_id
        self.la_row = la_row
        self.owner = owner
        self.owned = frozenset(owned)
        self.owned_sorted = sorted(owned)
        self._fail_base = 0
        self._abort_reported = False
        self._stores: tuple[CheckpointStore, ...] = ()
        self._store_bases: tuple[tuple[int, int], ...] = ()
        self._obs = None

    def setup(self, stores: tuple[CheckpointStore, ...] = ()) -> float:
        engine = self.engine
        # A shard-local bus at the parent's detail (None when
        # observability is off); its events ship back via ShardReport.
        self._obs = observer_for(self.sim.observer, shard_local=True)
        if self._obs is not None:
            engine.obs = self.world.obs = self._obs
        self.world.configure_shard(self.shard_id, self.owned, self.la_row, self.owner)
        engine.configure_shard(self.shard_id, self.owned)
        engine.begin_windowed_run()
        self._stores = tuple(stores)
        self._store_bases = tuple((s.writes, s.deletes) for s in self._stores)
        return engine.next_event_time()

    def apply(self, envelopes: list[tuple], directives: tuple | list) -> None:
        # Deterministic application order: rendezvous completions first
        # (their matches happened before any same-round failure), then
        # directives (failures/aborts precede later arrivals in serial
        # dispatch order), then deliveries sorted by (arrival, seq).
        rdv = sorted((e for e in envelopes if e[0] == "r"), key=lambda e: (e[3], e[2]))
        arrivals = sorted((e for e in envelopes if e[0] == "a"), key=lambda e: (e[1], e[8]))
        for env in rdv:
            self.world.apply_rdv_done(env[2], env[3])
        for directive in directives:
            self._apply_directive(directive)
        for env in arrivals:
            self.world.apply_arrival(env)

    def _apply_directive(self, directive: tuple) -> None:
        kind = directive[0]
        if kind == "lockstep":
            self.engine.lockstep = True
        elif kind == "fail":
            self.world.apply_remote_failure(directive[1], directive[2])
        elif kind == "abort":
            self._abort_reported = True
            self.engine.apply_remote_abort(directive[1], directive[2])
        else:
            raise SimulationError(f"unknown shard directive {directive!r}")

    def run_window(self, end: float) -> tuple:
        t0 = perf_counter()
        self.engine.run_window(end)
        if self._obs is not None:
            self._obs.host_span(
                t0, perf_counter(), "window", track=f"shard {self.shard_id}",
                args={"end": end},
            )
        return self._reply(t0)

    def run_exact(self, time: float) -> tuple:
        t0 = perf_counter()
        self.engine.run_exact(time)
        if self._obs is not None:
            self._obs.host_span(
                t0, perf_counter(), "lockstep", track=f"shard {self.shard_id}",
                args={"time": time},
            )
        return self._reply(t0)

    def _reply(self, t0: float) -> tuple:
        engine = self.engine
        out, self.world.outbox = self.world.outbox, []
        fails = list(engine.failures[self._fail_base :])
        self._fail_base = len(engine.failures)
        abort = None
        if engine.aborting and not self._abort_reported:
            self._abort_reported = True
            abort = (engine.abort_time, engine.abort_rank)
        return (
            engine.next_event_time(), out, fails, abort, perf_counter() - t0,
            engine.event_count,
        )

    def finish(self) -> ShardReport:
        engine = self.engine
        if engine._pending_abort is not None:
            # No event past the abort instant ever ran in this shard; the
            # deferred sweep still owes the blocked-rank kills.
            engine._apply_abort_sweep()
        engine.finish_windowed_run()
        ranks: dict[int, tuple] = {}
        for rank in self.owned_sorted:
            vp = engine.vps[rank]
            ranks[rank] = (
                vp.state.value,
                vp.clock,
                vp.end_time,
                vp.busy_time,
                vp.exit_value,
                str(vp.wait_tag),
            )
        store_delta = None
        if self._stores:
            store_delta = tuple(
                (
                    {key: f for key, f in s.files() if key[1] in self.owned},
                    s.writes - base[0],
                    s.deletes - base[1],
                )
                for s, base in zip(self._stores, self._store_bases)
            )
        world = self.world
        trace = engine.event_trace
        return ShardReport(
            shard_id=self.shard_id,
            ranks=ranks,
            failures=list(engine.failures),
            aborted=engine.aborting,
            abort_time=engine.abort_time,
            abort_rank=engine.abort_rank,
            event_count=engine.event_count,
            stale_skipped=engine.stale_skipped,
            coalesced_advances=engine.coalesced_advances,
            messages_sent=world.messages_sent,
            bytes_sent=world.bytes_sent,
            cross_shard_msgs=world.cross_shard_msgs,
            log_entries=list(engine.log.entries),
            trace_entries=list(trace.entries) if trace is not None else None,
            obs_entries=list(self._obs.events) if self._obs is not None else None,
            store_delta=store_delta,
        )


def _handle_op(worker: ShardWorker, msg: tuple) -> Any:
    op = msg[0]
    if op == "window":
        worker.apply(msg[2], ())
        return worker.run_window(msg[1])
    if op == "exact":
        return worker.run_exact(msg[1])
    if op == "apply":
        worker.apply(msg[1], msg[2])
        return worker.engine.next_event_time()
    if op == "finish":
        return worker.finish()
    raise SimulationError(f"unknown shard op {op!r}")


def _shm_worker_main(
    conn,
    worker: ShardWorker,
    stores: tuple[CheckpointStore, ...],
    ring_in: ShmRing,
    ring_out: ShmRing,
) -> None:
    """Child-process loop of the shm transport.

    The pipe carries only control headers (op, window end, record counts,
    fail/abort summaries); envelopes stream through the rings in the packed
    encoding.  Headers always precede ring traffic in both directions, so
    neither side ever blocks on a ring the other has not started draining.
    """
    status = 0
    parent = mp.parent_process()
    alive = parent.is_alive if parent is not None else None
    try:
        try:
            conn.send(("ok", worker.setup(stores=stores)))
            while True:
                msg = conn.recv()
                op = msg[0]
                if op == "close":
                    break
                if op == "window":
                    envs = [
                        unpack_envelope(ring_in.read(alive=alive))
                        for _ in range(msg[2])
                    ]
                    worker.apply(envs, ())
                    m_next, out, fails, abort, wall, events = worker.run_window(msg[1])
                elif op == "exact":
                    m_next, out, fails, abort, wall, events = worker.run_exact(msg[1])
                elif op == "apply":
                    envs = [
                        unpack_envelope(ring_in.read(alive=alive))
                        for _ in range(msg[1])
                    ]
                    worker.apply(envs, msg[2])
                    conn.send(("ok", worker.engine.next_event_time()))
                    continue
                elif op == "finish":
                    conn.send(("ok", worker.finish()))
                    continue
                else:
                    raise SimulationError(f"unknown shard op {op!r}")
                conn.send(("ok", (m_next, len(out), fails, abort, wall, events)))
                for env in out:
                    ring_out.write(pack_envelope(env), alive=alive)
        except EOFError:
            pass
        except BaseException as err:
            status = 1
            try:
                conn.send(("error", f"{type(err).__name__}: {err}"))
            except Exception:
                pass
    finally:
        try:
            conn.close()
        except Exception:
            pass
        os._exit(status)


# ----------------------------------------------------------------------
# transports
# ----------------------------------------------------------------------
class _InlineConn:
    """Worker driven directly in the coordinator process."""

    def __init__(self, worker: ShardWorker, stores: tuple[CheckpointStore, ...]):
        self.worker = worker
        self.initial_min = worker.setup(stores=stores)
        self._pending: tuple | None = None

    def send(self, msg: tuple) -> None:
        self._pending = msg

    def recv_payload(self) -> Any:
        msg, self._pending = self._pending, None
        if msg is None:
            raise SimulationError("inline shard recv without a pending op")
        return _handle_op(self.worker, msg)


class _ShmConn:
    """Pipe for control + shared-memory rings for envelope payloads.

    Both directions announce the record count on the pipe first, then
    stream packed envelopes through the ring — the announced side is
    already draining by the time the ring could fill, so streaming cannot
    deadlock even for batches larger than the ring.

    Replies are awaited with bounded ``conn.poll`` + ``proc.is_alive``
    checks: a worker that dies mid-window raises
    :class:`~repro.util.errors.ShardWorkerDied` (naming the shard and its
    last completed protocol round) instead of blocking the coordinator on
    ``Conn.recv`` forever.
    """

    #: Seconds between liveness checks while waiting on the pipe.
    poll_interval = 0.05

    def __init__(self, conn, proc, shard_id: int, ring_out: ShmRing, ring_in: ShmRing):
        self.conn = conn
        self.proc = proc
        self.shard_id = shard_id
        self.initial_min = math.inf
        #: Protocol rounds (setup/window/lockstep/apply replies) completed.
        self.completed_rounds = 0
        self.ring_out = ring_out
        self.ring_in = ring_in
        self._last_op: str | None = None

    def _alive(self) -> bool:
        return self.proc.is_alive()

    def _worker_died(self):
        raise ShardWorkerDied(self.shard_id, self.completed_rounds)

    def _send(self, msg: tuple) -> None:
        try:
            self.conn.send(msg)
        except (BrokenPipeError, OSError):
            self._worker_died()

    def _recv(self) -> tuple:
        conn = self.conn
        while True:
            try:
                if conn.poll(self.poll_interval):
                    return conn.recv()
            except (EOFError, OSError):
                self._worker_died()
            if not self.proc.is_alive():
                # Drain a reply the worker may have written just before
                # exiting (e.g. its final error report).
                try:
                    if conn.poll(0):
                        return conn.recv()
                except (EOFError, OSError):
                    pass
                self._worker_died()

    def _stream(self, envelopes: list[tuple]) -> None:
        try:
            for env in envelopes:
                self.ring_out.write(pack_envelope(env), alive=self._alive)
        except RingPeerDead:
            self._worker_died()

    def send(self, msg: tuple) -> None:
        op = msg[0]
        self._last_op = op
        if op == "window":
            self._send(("window", msg[1], len(msg[2])))
            self._stream(msg[2])
        elif op == "apply":
            self._send(("apply", len(msg[1]), msg[2]))
            self._stream(msg[1])
        else:
            self._send(msg)

    def recv_payload(self) -> Any:
        reply = self._recv()
        if reply[0] == "error":
            raise SimulationError(f"shard {self.shard_id} worker failed: {reply[1]}")
        payload = reply[1]
        if self._last_op in ("window", "exact"):
            m_next, n_out, fails, abort, wall, events = payload
            try:
                out = [
                    unpack_envelope(self.ring_in.read(alive=self._alive))
                    for _ in range(n_out)
                ]
            except RingPeerDead:
                self._worker_died()
            payload = (m_next, out, fails, abort, wall, events)
        self.completed_rounds += 1
        return payload


def _build_replica(sim: "XSim", app, args: tuple, nranks: int) -> "XSim":
    """Construct and launch an identical simulation for one inline shard.

    Determinism of construction + launch means the replica's event heap,
    sequence numbers, and armed failures match the parent's exactly.
    """
    from repro.core.simulator import XSim

    replica = XSim(
        sim.system,
        seed=sim.seed,
        start_time=sim.engine.start_time,
        check=sim.checker is not None,
        record_events=sim.event_trace is not None,
        shards=sim.shards,
        shard_transport="inline",
        observe=sim.observer,
    )
    replica.world.launch(app, nranks, args)
    for rank, time in sim._armed_failures:
        replica.engine.schedule_failure(rank, time)
    for fault in sim._armed_perturbations:
        replica.world.faults.arm(fault)
    return replica


#: Per-direction shared-memory ring capacity of the shm transport.  Rings
#: stream, so this bounds memory, not batch or envelope size.
_SHM_RING_BYTES = 1 << 20


def _make_transport(
    transport: str,
    sim: "XSim",
    app,
    args: tuple,
    nranks: int,
    parts: list[range],
    stores: tuple[CheckpointStore, ...],
    matrix: list[list[float]],
    owner: list[int],
):
    """Returns ``(conns, cleanup)``; every conn has ``initial_min`` set."""
    owner_t = tuple(owner)

    def make_worker(shard_sim: "XSim", k: int, part: range) -> ShardWorker:
        return ShardWorker(shard_sim, k, part, tuple(matrix[k]), owner_t)

    if transport == "inline":
        conns: list = []
        for k, part in enumerate(parts):
            shard_sim = sim if k == 0 else _build_replica(sim, app, args, nranks)
            # Inline replicas share the parent's store objects via the
            # app args, so file state needs no merging (no stores).
            conns.append(_InlineConn(make_worker(shard_sim, k, part), ()))
        return conns, lambda: None

    ctx = mp.get_context("fork")
    conns = []
    procs = []
    rings: list[ShmRing] = []
    for k, part in enumerate(parts):
        parent_conn, child_conn = ctx.Pipe()
        # Created before the fork so the child inherits the mappings.
        c2w, w2c = ShmRing(_SHM_RING_BYTES), ShmRing(_SHM_RING_BYTES)
        rings += [c2w, w2c]
        proc = ctx.Process(
            target=_shm_worker_main,
            args=(child_conn, make_worker(sim, k, part), stores, c2w, w2c),
            daemon=True,
        )
        proc.start()  # forks the fully launched, not-yet-run simulation
        child_conn.close()
        conns.append(_ShmConn(parent_conn, proc, k, ring_out=c2w, ring_in=w2c))
        procs.append(proc)
    # The parent engine is consumed by the forked workers; mark it run so a
    # stray Engine.run() cannot double-execute the launch state.  (Set only
    # after forking — children must still pass begin_windowed_run's guard.)
    sim.engine._ran = True
    for conn in conns:
        conn.initial_min = conn.recv_payload()

    def cleanup() -> None:
        for conn in conns:
            try:
                conn.conn.send(("close",))
            except Exception:
                pass
            try:
                conn.conn.close()
            except Exception:
                pass
        for proc in procs:
            proc.join(timeout=10)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=10)
        for ring in rings:  # after the children are gone: unlink the segments
            ring.destroy()

    return conns, cleanup


# ----------------------------------------------------------------------
# coordinator
# ----------------------------------------------------------------------
class _Coordinator:
    """Runs the safe-window / lockstep protocol over a set of workers."""

    def __init__(
        self,
        conns: list,
        owner: list[int],
        la: list[list[float]],
        h_min: float,
        armed: list[tuple[int, float]],
        stats: ShardStats,
        obs=None,
    ):
        self.conns = conns
        self.n = len(conns)
        self.owner = owner
        #: Closed per-shard-pair lookahead matrix (inf diagonal).
        self.la = la
        self.h_min = h_min
        self.armed = armed
        self.stats = stats
        #: Parent-side :class:`~repro.obs.Observer` receiving host-domain
        #: per-round events (workers have their own shard-local buses).
        self.obs = obs
        self.mins = [c.initial_min for c in conns]
        #: Each shard's engine event count at its last reply.
        self.events = [0] * len(conns)
        self.pending: list[list[tuple]] = [[] for _ in conns]
        self.directives: list[list[tuple]] = [[] for _ in conns]

    @staticmethod
    def _env_time(env: tuple) -> float:
        return env[1] if env[0] == "a" else env[3]

    def _route(self, out: list[tuple]) -> None:
        for env in out:
            dest_rank = env[4] if env[0] == "a" else env[1]
            self.pending[self.owner[dest_rank]].append(env)

    def drive(self) -> list[ShardReport]:
        lockstep = False
        while True:
            eff = [
                min(
                    self.mins[k],
                    min((self._env_time(e) for e in self.pending[k]), default=math.inf),
                )
                for k in range(self.n)
            ]
            m = min(eff)
            if m == math.inf and not any(self.directives):
                break
            if not lockstep and m < self.h_min:
                self._window_round(eff)
                continue
            if not lockstep:
                lockstep = True
                for k in range(self.n):
                    self.directives[k].append(("lockstep",))
            if any(self.pending) or any(self.directives):
                self._apply_round()
                continue
            self._exact_step(m, eff)
        for conn in self.conns:
            conn.send(("finish",))
        return [conn.recv_payload() for conn in self.conns]

    def _window_round(self, eff: list[float]) -> None:
        # Per-shard conservative bound: shard k can safely dispatch every
        # event strictly before  min over the OTHER shards j of their next
        # possible dispatch time plus the pair lookahead L[j][k] — any
        # message shard j might still send (directly or relayed; the
        # matrix is min-plus closed) arrives no earlier than that.
        # (Bounding everyone by the single global minimum latency instead
        # collapses every window to the machine-wide worst case: each send
        # of a barrier root would need its own round even toward shards
        # many hops away.)  Shards with nothing to do before their bound
        # skip the round entirely; their pending envelopes stay queued
        # here and keep counting toward ``eff`` until they participate.
        targets = []
        for k in range(self.n):
            row = self.la[k]
            end = self.h_min
            for j in range(self.n):
                if j == k:
                    continue
                bound = eff[j] + row[j]
                if bound < end:
                    end = bound
            if eff[k] < end:
                targets.append((k, end))
        t0 = perf_counter()
        for k, end in targets:
            self.conns[k].send(("window", end, self.pending[k]))
            self.pending[k] = []
        walls = []
        dispatched = []
        for k, _end in targets:
            m_next, out, fails, abort, wall, events = self.conns[k].recv_payload()
            if fails or abort:
                raise ShardedParityError(
                    f"shard {k} produced an unscheduled failure/abort inside a "
                    f"conservative window (failures={fails}, abort={abort}); "
                    "only failures armed before the run are supported with "
                    "--shards > 1"
                )
            self.mins[k] = m_next
            walls.append(wall)
            dispatched.append(events - self.events[k])
            self.events[k] = events
            self._route(out)
        self.stats.windows += 1
        self.stats.critical_path_seconds += max(walls)
        self.stats.critical_path_events += max(dispatched)
        self.stats.worker_busy_seconds += sum(walls)
        # Inline workers run one after another inside this loop, so the
        # round's wall holds all of their run times, not the slowest one's.
        worked = sum(walls) if self.stats.transport == "inline" else max(walls)
        self.stats.barrier_seconds += max(0.0, (perf_counter() - t0) - worked)
        if self.obs is not None:
            self.obs.host_span(
                t0, perf_counter(), "window-round", track="coordinator",
                args={
                    "round": self.stats.windows,
                    "workers": len(targets),
                    "max_wall": max(walls),
                },
            )

    def _apply_round(self) -> None:
        t0 = perf_counter()
        for k, conn in enumerate(self.conns):
            conn.send(("apply", self.pending[k], self.directives[k]))
            self.pending[k] = []
            self.directives[k] = []
        for k, conn in enumerate(self.conns):
            self.mins[k] = conn.recv_payload()
        self.stats.lockstep_rounds += 1
        if self.obs is not None:
            self.obs.host_span(
                t0, perf_counter(), "apply-round", track="coordinator",
                args={"round": self.stats.lockstep_rounds},
            )

    def _t1_priority(self, k: int, t1: float) -> int:
        # The serial engine dispatches an armed failure before same-time
        # post-launch events (its event was scheduled earlier, so its
        # sequence number is lower).  Running the failing rank's shard
        # first — relaying the kill before other shards execute the same
        # timestamp — mirrors that order.
        for index, (rank, time) in enumerate(self.armed):
            if time == t1 and self.owner[rank] == k:
                return index
        return len(self.armed)

    def _exact_step(self, t1: float, eff: list[float]) -> None:
        candidates = [k for k in range(self.n) if eff[k] == t1]
        candidates.sort(key=lambda k: (self._t1_priority(k, t1), k))
        k = candidates[0]
        conn = self.conns[k]
        conn.send(("exact", t1))
        m_next, out, fails, abort, wall, events = conn.recv_payload()
        self.stats.critical_path_seconds += wall  # exact steps are serial
        self.stats.worker_busy_seconds += wall
        self.stats.critical_path_events += events - self.events[k]
        self.events[k] = events
        self.mins[k] = m_next
        self._route(out)
        for rank, t_kill in fails:
            for j in range(self.n):
                if j != k:
                    self.directives[j].append(("fail", rank, t_kill))
        if abort is not None:
            for j in range(self.n):
                if j != k:
                    self.directives[j].append(("abort", abort[0], abort[1]))
        self.stats.lockstep_rounds += 1
        if self.obs is not None:
            self.obs.host_span(
                perf_counter() - wall, perf_counter(), "lockstep-round",
                track="coordinator", args={"shard": k, "time": t1},
            )


# ----------------------------------------------------------------------
# entry point + merge
# ----------------------------------------------------------------------
def run_sharded(sim: "XSim", app, args: tuple, nranks: int) -> SimulationResult:
    """Execute an already-launched simulation across shards; returns a
    result observably identical to ``sim.engine.run()``."""
    engine = sim.engine
    world = sim.world
    nshards = min(sim.shards, nranks)
    if nshards < 2:
        return engine.run()
    if sim._soft_errors is not None:
        raise ConfigurationError(
            "soft-error injection is not supported with --shards > 1"
        )
    parts = partition_ranks(nranks, nshards)
    nshards = len(parts)
    owner = [0] * nranks
    for k, part in enumerate(parts):
        for rank in part:
            owner[rank] = k
    matrix = derive_lookahead_matrix(world.network, parts)
    pairs = [matrix[j][k] for j in range(nshards) for k in range(nshards) if j != k]
    lookahead = min(pairs)
    if sim.shard_lookahead is not None:
        if not 0.0 < sim.shard_lookahead <= lookahead:
            raise ConfigurationError(
                f"lookahead override {sim.shard_lookahead!r} outside "
                f"(0, {lookahead!r}] (the derived safe bound)"
            )
        # The override collapses the matrix to a uniform (global) bound —
        # the pre-matrix window scheme, kept for narrowed-window property
        # testing and old-vs-new window-count comparisons.
        lookahead = sim.shard_lookahead
        matrix = [
            [lookahead if j != k else math.inf for j in range(nshards)]
            for k in range(nshards)
        ]
    armed = list(sim._armed_failures)
    h_min = min((t for _, t in armed), default=math.inf)
    stores = _extract_stores(args)

    transport = sim.shard_transport or "inline"
    if transport not in SHARD_TRANSPORTS:
        raise ConfigurationError(f"unknown shard transport {transport!r}")
    if transport == "shm" and "fork" not in mp.get_all_start_methods():
        raise ConfigurationError(
            "the shm shard transport needs the fork start method, which this "
            "host lacks; use the inline transport"
        )

    stats = ShardStats(
        nshards=nshards,
        lookahead=lookahead,
        transport=transport,
        lookahead_max=max(pairs) if sim.shard_lookahead is None else lookahead,
        partition=[len(part) for part in parts],
    )
    if sim.observer is not None:
        sim.observer.host_instant(
            perf_counter(), "shard-plan", track="coordinator",
            args={
                "nshards": nshards,
                "transport": transport,
                "lookahead_min": stats.lookahead,
                "lookahead_max": stats.lookahead_max,
            },
        )
    conns, cleanup = _make_transport(
        transport, sim, app, args, nranks, parts, stores, matrix, owner
    )
    try:
        coordinator = _Coordinator(
            conns, owner, matrix, h_min, armed, stats, obs=sim.observer
        )
        reports = coordinator.drive()
    finally:
        cleanup()

    _merge_reports(sim, reports, parts, stores, transport, stats)
    blocked = [
        (vp.rank, str(vp.wait_tag), vp.state.value) for vp in engine.vps if vp.alive
    ]
    if blocked:
        raise DeadlockError(blocked)
    engine.shard_stats = stats
    sim.shard_stats = stats
    return engine._result()


def _merge_reports(
    sim: "XSim",
    reports: list[ShardReport],
    parts: list[range],
    stores: tuple[CheckpointStore, ...],
    transport: str,
    stats: ShardStats,
) -> None:
    """Fold the shard reports back into the parent engine/world so the
    standard ``Engine._result()`` (and any profiler attached to the parent)
    observes exactly what a serial run would have left behind."""
    engine = sim.engine
    world = sim.world
    for report in reports:
        for rank, (state_value, clock, end, busy, exit_value, tag) in report.ranks.items():
            vp = engine.vps[rank]
            vp.state = VpState(state_value)
            vp.clock = clock
            vp.end_time = end
            vp.busy_time = busy
            vp.exit_value = exit_value
            vp.wait_tag = tag
    # Each failure is recorded only by its owner, so concatenation has no
    # duplicates; (time, rank) order matches serial chronological order.
    engine.failures = sorted(
        (f for report in reports for f in report.failures), key=lambda f: (f[1], f[0])
    )
    aborts = {
        (report.abort_time, report.abort_rank) for report in reports if report.aborted
    }
    if len(aborts) > 1:
        raise ShardedParityError(f"shards disagree on the abort outcome: {sorted(aborts)}")
    if aborts:
        engine.aborting = True
        engine.abort_time, engine.abort_rank = aborts.pop()
    engine.event_count = sum(r.event_count for r in reports)
    engine.stale_skipped = sum(r.stale_skipped for r in reports)
    engine.coalesced_advances = sum(r.coalesced_advances for r in reports)
    world.messages_sent = sum(r.messages_sent for r in reports)
    world.bytes_sent = sum(r.bytes_sent for r in reports)
    stats.shard_events = [r.event_count for r in reports]
    stats.cross_shard_messages = sum(r.cross_shard_msgs for r in reports)
    if engine.vps:
        engine.now = max(
            vp.end_time if vp.end_time is not None else vp.clock for vp in engine.vps
        )
    # Merged log: stable time sort of the per-shard logs (shard order
    # breaks exact ties, matching the serial rank-order dispatch at equal
    # timestamps).
    engine.log.entries = sorted(
        (entry for report in reports for entry in report.log_entries),
        key=lambda entry: entry.time,
    )
    if sim.observer is not None:
        # Shard-local buses ship their events in the reports; export-time
        # canonical sorting makes the merge order irrelevant.  The inline
        # shard-0 worker swapped the parent's obs hooks for its own bus,
        # so point them back at the parent observer.
        sim.observer.extend(
            entry for report in reports for entry in (report.obs_entries or ())
        )
        engine.obs = sim.observer
        world.obs = sim.observer
    if sim.event_trace is not None:
        merged_trace = sorted(
            (
                entry
                for report in reports
                for entry in (report.trace_entries or ())
            ),
            key=lambda entry: entry[0],
        )
        sim.event_trace.entries = merged_trace
    if stores and transport != "inline":
        # Owned-rank checkpoint files replace the parent's pre-fork view;
        # counters advance by the per-shard deltas — per component
        # namespace (a multi-level store ships one delta per tier).
        for report, part in zip(reports, parts):
            owned = set(part)
            for store, (files, writes_delta, deletes_delta) in zip(
                stores, report.store_delta
            ):
                store.replace_ranks(owned, files)
                store.writes += writes_delta
                store.deletes += deletes_delta
