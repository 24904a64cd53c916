"""Runtime invariant sanitizer for the engine and the simulated MPI layer.

The :class:`Sanitizer` hangs off ``Engine.check`` and ``MpiWorld.check``
(both ``None`` when checking is off — the disabled cost is one attribute
test per event).  The engine calls :meth:`Sanitizer.on_dispatch` for every
dispatched event; the MPI world calls the ``on_*`` boundary hooks as it
posts, matches, buffers, fails, and synchronizes.  Each hook enforces the
invariants the conservative-PDES / MPI-matching design promises:

* **heap-pop ordering** — dispatched ``(time, seq)`` pairs never go
  backwards (the event queue dispatches in exactly that order);
* **per-VP clock monotonicity** — a virtual process clock never decreases
  across control points;
* **non-overtaking delivery** — matching a buffered message never skips an
  earlier (lower-seq) buffered message the receive also accepts;
* **matching-queue consistency** — a receive lives in exactly one of
  ``posted_exact``/``posted_wild``; posted receives and buffered
  unexpected messages are disjoint (a coexisting pair is a missed match);
  per-key buffers stay seq-sorted; completed requests leave the queues;
* **failed-list agreement** — the per-process failed lists of all
  surviving ranks agree with the global (monotone, append-only) failure
  history;
* **sync-point membership** — a completing synchronization point wakes a
  subset of the currently-alive members of its communicator;
* **checkpoint-store namespace** — see :func:`verify_store` and
  :func:`verify_store_cleaned` (the post-cleanup exact-rank-set check).

Violations raise :class:`~repro.util.errors.InvariantViolation` carrying a
structured diagnostic dump (SimLog tail, VP states, heap snapshot) built by
:meth:`Sanitizer.dump`; :func:`write_dump` serializes one to JSON for CI
artifacts.
"""

from __future__ import annotations

import json
import math
from typing import TYPE_CHECKING, Any

from repro.mpi.constants import ANY_SOURCE, ANY_TAG
from repro.mpi.messages import RTS, Msg, Request
from repro.util.errors import InvariantViolation

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.core.checkpoint.store import CheckpointStore
    from repro.mpi.world import MpiWorld, RankState, SyncPoint, SyncResult
    from repro.pdes.context import VirtualProcess
    from repro.pdes.engine import Engine


class Sanitizer:
    """Invariant checks wired into one engine/world pair (see module doc)."""

    def __init__(self, engine: "Engine", world: "MpiWorld | None" = None):
        self.engine = engine
        self.world = world
        #: Checks performed (for reporting that checking actually ran).
        self.checks = 0
        # heap-pop ordering state
        self._last_time = -math.inf
        self._last_seq = -1
        # per-VP clock monotonicity state: rank -> last observed clock
        self._vp_clocks: dict[int, float] = {}
        # global (monotone) failure history: rank -> failure time
        self._failed: dict[int, float] = {}

    # ------------------------------------------------------------------
    # violation reporting
    # ------------------------------------------------------------------
    def dump(self) -> dict[str, Any]:
        """Structured diagnostic snapshot of the simulation state."""
        engine = self.engine
        return {
            "now": engine.now,
            "event_count": engine.event_count,
            "checks": self.checks,
            "log_tail": [e.render() for e in list(engine.log)[-20:]],
            "vps": [vp.snapshot() for vp in engine.vps[:256]],
            "heap_size": engine.queue_size(),
            "heap_head": engine.heap_head(20),
            "failed_history": dict(self._failed),
        }

    def _violate(self, invariant: str, detail: str) -> None:
        raise InvariantViolation(invariant, detail, dump=self.dump())

    # ------------------------------------------------------------------
    # engine dispatch boundary
    # ------------------------------------------------------------------
    def on_dispatch(self, time: float, seq: int, gvp: "VirtualProcess | None") -> None:
        """Called before every event executes (``seq=-1``: coalesced)."""
        self.checks += 1
        if time < self._last_time:
            self._violate(
                "heap-pop-ordering",
                f"event at t={time!r} dispatched after t={self._last_time!r}",
            )
        elif time > self._last_time:
            self._last_time = time
            self._last_seq = seq
        elif seq >= 0:
            if seq <= self._last_seq:
                self._violate(
                    "heap-pop-ordering",
                    f"seq {seq} dispatched after seq {self._last_seq} at t={time!r}",
                )
            self._last_seq = seq
        if gvp is not None:
            prev = self._vp_clocks.get(gvp.rank)
            if prev is not None and gvp.clock < prev:
                self._violate(
                    "vp-clock-monotonicity",
                    f"rank {gvp.rank} clock went {prev!r} -> {gvp.clock!r}",
                )
            self._vp_clocks[gvp.rank] = gvp.clock

    def on_run_end(self) -> None:
        """End-of-run sweep: final failure bookkeeping consistency."""
        self.checks += 1
        engine = self.engine
        if self.world is not None:
            # The failure history is accumulated by the world-side
            # on_failure hook; without a world nothing populates it.
            recorded = dict(engine.failures)
            if recorded != self._failed:
                self._violate(
                    "failure-history",
                    f"engine.failures {recorded} != observed history {self._failed}",
                )
            for rank in self._failed:
                self._check_failed_rank_cleared(self.world.states[rank])
        for vp in engine.vps:
            self._check_failed_list(vp, require_complete=False)

    # ------------------------------------------------------------------
    # MPI matching boundaries
    # ------------------------------------------------------------------
    def on_post(self, state: "RankState", req: Request) -> None:
        """A receive was appended to the posted queues."""
        self.checks += 1
        wild = req.src == ANY_SOURCE or req.tag == ANY_TAG
        if wild:
            if req not in state.posted_wild:
                self._violate(
                    "posted-queue-consistency",
                    f"rank {state.rank}: wildcard {req.describe()} not in posted_wild",
                )
        else:
            key = (req.ctx, req.src, req.tag)
            if req not in state.posted_at(key):
                self._violate(
                    "posted-queue-consistency",
                    f"rank {state.rank}: {req.describe()} not under its exact key {key}",
                )
            if req in state.posted_wild:
                self._violate(
                    "posted-queue-consistency",
                    f"rank {state.rank}: {req.describe()} in both posted_exact and posted_wild",
                )
        if req.done:
            self._violate(
                "posted-queue-consistency",
                f"rank {state.rank}: completed request {req.describe()} left in posted queues",
            )
        buffered = self._buffered_match(state, req)
        if buffered is not None:
            self._violate(
                "posted-unexpected-disjoint",
                f"rank {state.rank}: {req.describe()} posted while buffered {buffered!r} matches it",
            )

    def on_match_unexpected(self, state: "RankState", req: Request, msg: Msg) -> None:
        """A fresh receive matched (popped) a buffered message."""
        self.checks += 1
        if not req.matches_msg(msg):
            self._violate(
                "match-correctness",
                f"rank {state.rank}: {req.describe()} matched non-matching {msg!r}",
            )
        overtaken = self._buffered_match(state, req)
        if overtaken is not None and overtaken.seq < msg.seq:
            self._violate(
                "non-overtaking",
                f"rank {state.rank}: {req.describe()} took seq {msg.seq} over buffered seq {overtaken.seq}",
            )

    def on_match_posted(self, state: "RankState", msg: Msg, req: Request) -> None:
        """An arriving message matched (popped) a posted receive."""
        self.checks += 1
        if not req.matches_msg(msg):
            self._violate(
                "match-correctness",
                f"rank {state.rank}: {msg!r} matched non-matching {req.describe()}",
            )
        if req in state.posted_wild or req in state.posted_at(
            (req.ctx, req.src, req.tag)
        ):
            self._violate(
                "posted-queue-consistency",
                f"rank {state.rank}: matched {req.describe()} still in posted queues",
            )
        earlier = self._posted_match(state, msg)
        if earlier is not None and (earlier.post_time, earlier.post_seq) < (
            req.post_time,
            req.post_seq,
        ):
            self._violate(
                "match-order",
                f"rank {state.rank}: {msg!r} matched post_seq {req.post_seq} "
                f"over earlier posted post_seq {earlier.post_seq}",
            )

    def on_buffer(self, state: "RankState", msg: Msg) -> None:
        """An arriving message found no posted receive and was buffered."""
        self.checks += 1
        posted = self._posted_match(state, msg)
        if posted is not None:
            self._violate(
                "posted-unexpected-disjoint",
                f"rank {state.rank}: buffered {msg!r} while posted {posted.describe()} matches it",
            )
        msgs = state.unexpected.get((msg.ctx, msg.src, msg.tag), ())
        if msg not in msgs:
            self._violate(
                "unexpected-queue-consistency",
                f"rank {state.rank}: buffered {msg!r} not under its key",
            )
        if any(a.seq >= b.seq for a, b in zip(msgs, msgs[1:])):
            self._violate(
                "non-overtaking",
                f"rank {state.rank}: unexpected queue for {(msg.ctx, msg.src, msg.tag)} "
                f"not seq-sorted: {[m.seq for m in msgs]}",
            )

    def on_wait_complete(self, vp: "VirtualProcess", req: Request) -> None:
        """A wait/test observed its request complete."""
        self.checks += 1
        if not req.done:
            self._violate(
                "request-lifecycle", f"rank {vp.rank}: wait finished on pending {req.describe()}"
            )
        if req.completion_time > vp.clock:
            self._violate(
                "request-lifecycle",
                f"rank {vp.rank}: {req.describe()} completed at {req.completion_time!r} "
                f"but owner clock is {vp.clock!r}",
            )
        if self.world is not None:
            state = self.world.states[vp.rank]
            if req.kind == Request.RECV:
                in_queues = req in state.posted_wild or req in state.posted_at(
                    (req.ctx, req.src, req.tag)
                )
            else:
                in_queues = req in state.rdv_sends
            if in_queues:
                self._violate(
                    "posted-queue-consistency",
                    f"rank {vp.rank}: completed {req.describe()} still queued",
                )

    # ------------------------------------------------------------------
    # failure propagation boundary
    # ------------------------------------------------------------------
    def on_failure(self, failed_rank: int, t_fail: float) -> None:
        """The failure of ``failed_rank`` finished propagating."""
        self.checks += 1
        if failed_rank in self._failed:
            self._violate(
                "failure-monotone",
                f"rank {failed_rank} failed twice (first at {self._failed[failed_rank]!r})",
            )
        self._failed[failed_rank] = t_fail
        world = self.world
        if world is None:
            return
        self._check_failed_rank_cleared(world.states[failed_rank])
        for state in world.states:
            vp = state.vp
            if not vp.alive:
                continue
            self._check_failed_list(vp, require_complete=True)
            self.sweep_rank(state)
            for req in state.iter_posted():
                if req.src == failed_rank:
                    self._violate(
                        "failure-release",
                        f"rank {state.rank}: posted {req.describe()} from failed rank survived",
                    )
            for req in state.rdv_sends:
                if req.dst == failed_rank:
                    self._violate(
                        "failure-release",
                        f"rank {state.rank}: rendezvous send to failed rank survived",
                    )
            for key, msgs in state.unexpected.items():
                if key[1] == failed_rank and any(m.protocol == RTS for m in msgs):
                    self._violate(
                        "failure-release",
                        f"rank {state.rank}: RTS from failed rank survived in unexpected queue",
                    )

    # ------------------------------------------------------------------
    # synchronization points
    # ------------------------------------------------------------------
    def on_sync_complete(self, sp: "SyncPoint", result: "SyncResult") -> None:
        """A synchronization point computed its result, before any wake."""
        self.checks += 1
        world = self.world
        for r in result.alive:
            if not sp.comm.contains(r):
                self._violate(
                    "sync-membership",
                    f"sync {sp.key}: completing rank {r} not in {sp.comm.name}",
                )
            if world is not None and not world.states[r].vp.alive:
                self._violate(
                    "sync-membership", f"sync {sp.key}: completing rank {r} is not alive"
                )
        for r in sp.arrived:
            if not sp.comm.contains(r):
                self._violate(
                    "sync-membership", f"sync {sp.key}: arrival from non-member rank {r}"
                )
        arrivals = [sp.arrived[r] for r in result.alive]
        if arrivals and result.time < max(arrivals):
            self._violate(
                "sync-membership",
                f"sync {sp.key}: completes at {result.time!r} before last arrival "
                f"{max(arrivals)!r}",
            )
        if set(result.values) != set(result.alive):
            self._violate(
                "sync-membership",
                f"sync {sp.key}: values for {sorted(result.values)} != alive {list(result.alive)}",
            )

    # ------------------------------------------------------------------
    # sweeps and helpers
    # ------------------------------------------------------------------
    def sweep_rank(self, state: "RankState") -> None:
        """Full matching-queue consistency sweep of one rank."""
        wild_ids = {id(r) for r in state.posted_wild}
        for key in state.posted_exact:
            reqs = state.posted_at(key)
            if not reqs:
                self._violate(
                    "posted-queue-consistency", f"rank {state.rank}: empty exact bucket {key}"
                )
            for req in reqs:
                if req.kind != Request.RECV or req.done:
                    self._violate(
                        "posted-queue-consistency",
                        f"rank {state.rank}: bad exact entry {req!r} under {key}",
                    )
                if (req.ctx, req.src, req.tag) != key:
                    self._violate(
                        "posted-queue-consistency",
                        f"rank {state.rank}: {req.describe()} filed under wrong key {key}",
                    )
                if req.src == ANY_SOURCE or req.tag == ANY_TAG:
                    self._violate(
                        "posted-queue-consistency",
                        f"rank {state.rank}: wildcard {req.describe()} in posted_exact",
                    )
                if id(req) in wild_ids:
                    self._violate(
                        "posted-queue-consistency",
                        f"rank {state.rank}: {req.describe()} in both posted queues",
                    )
            if any(
                (a.post_time, a.post_seq) >= (b.post_time, b.post_seq)
                for a, b in zip(reqs, reqs[1:])
            ):
                self._violate(
                    "posted-queue-consistency",
                    f"rank {state.rank}: exact bucket {key} not in post order",
                )
        for req in state.posted_wild:
            if req.kind != Request.RECV or req.done:
                self._violate(
                    "posted-queue-consistency",
                    f"rank {state.rank}: bad wildcard entry {req!r}",
                )
            if req.src != ANY_SOURCE and req.tag != ANY_TAG:
                self._violate(
                    "posted-queue-consistency",
                    f"rank {state.rank}: non-wildcard {req.describe()} in posted_wild",
                )
        for key, msgs in state.unexpected.items():
            if not msgs:
                self._violate(
                    "unexpected-queue-consistency",
                    f"rank {state.rank}: empty unexpected bucket {key}",
                )
            for msg in msgs:
                if (msg.ctx, msg.src, msg.tag) != key:
                    self._violate(
                        "unexpected-queue-consistency",
                        f"rank {state.rank}: {msg!r} filed under wrong key {key}",
                    )
            if any(a.seq >= b.seq for a, b in zip(msgs, msgs[1:])):
                self._violate(
                    "non-overtaking",
                    f"rank {state.rank}: unexpected bucket {key} not seq-sorted",
                )
            head = msgs[0]
            posted = self._posted_match(state, head)
            if posted is not None:
                self._violate(
                    "posted-unexpected-disjoint",
                    f"rank {state.rank}: buffered {head!r} coexists with matching "
                    f"posted {posted.describe()}",
                )
        for req in state.rdv_sends:
            if req.kind != Request.SEND or req.done or req.src != state.rank:
                self._violate(
                    "posted-queue-consistency",
                    f"rank {state.rank}: bad rendezvous-send entry {req!r}",
                )

    def _check_failed_list(self, vp: "VirtualProcess", require_complete: bool) -> None:
        """``vp.failed_peers`` must agree with the global failure history."""
        for rank, t in vp.failed_peers.items():
            known = self._failed.get(rank)
            if known is None or known != t:
                self._violate(
                    "failed-list-agreement",
                    f"rank {vp.rank} records failure of {rank} at {t!r}, history says {known!r}",
                )
        if require_complete and len(vp.failed_peers) != len(self._failed):
            missing = sorted(set(self._failed) - set(vp.failed_peers))
            self._violate(
                "failed-list-agreement",
                f"alive rank {vp.rank} missing failure notifications for ranks {missing}",
            )

    def _check_failed_rank_cleared(self, state: "RankState") -> None:
        if (
            state.posted_exact
            or state.posted_wild
            or state.unexpected
            or state.rdv_sends
        ):
            self._violate(
                "failure-release",
                f"failed rank {state.rank} still holds matching-queue state",
            )

    def _buffered_match(self, state: "RankState", req: Request) -> Msg | None:
        """Lowest-seq buffered message ``req`` accepts, without popping it."""
        if req.src != ANY_SOURCE and req.tag != ANY_TAG:
            msgs = state.unexpected.get((req.ctx, req.src, req.tag))
            return msgs[0] if msgs else None
        best: Msg | None = None
        for msgs in state.unexpected.values():
            head = msgs[0]
            if req.matches_msg(head) and (best is None or head.seq < best.seq):
                best = head
        return best

    def _posted_match(self, state: "RankState", msg: Msg) -> Request | None:
        """Earliest-posted receive accepting ``msg``, without popping it."""
        best: Request | None = None
        exact = state.posted_at((msg.ctx, msg.src, msg.tag))
        if exact:
            best = exact[0]
        for req in state.posted_wild:
            if req.matches_msg(msg) and (
                best is None
                or (req.post_time, req.post_seq) < (best.post_time, best.post_seq)
            ):
                best = req
        return best


# ----------------------------------------------------------------------
# checkpoint-store invariants
# ----------------------------------------------------------------------
def _store_dump(store: "CheckpointStore") -> dict[str, Any]:
    return {
        "checkpoint_ids": store.checkpoint_ids(),
        "ranks_present": {cid: store.ranks_present(cid) for cid in store.checkpoint_ids()},
        "writes": store.writes,
        "deletes": store.deletes,
        "files": len(store),
    }


def verify_store(store: "CheckpointStore") -> None:
    """Namespace consistency of the simulated PFS checkpoint store."""
    # Imported here, not at module top: repro.core imports this package
    # (RestartDriver audits its store), so a top-level import would cycle.
    from repro.core.checkpoint.store import FileState

    for (cid, rank), f in store.files():
        if f.ckpt_id != cid or f.rank != rank:
            raise InvariantViolation(
                "store-namespace",
                f"file keyed ({cid}, {rank}) describes ({f.ckpt_id}, {f.rank})",
                dump=_store_dump(store),
            )
        if f.nbytes < 0:
            raise InvariantViolation(
                "store-namespace",
                f"file ({cid}, {rank}) has negative size {f.nbytes}",
                dump=_store_dump(store),
            )
        if f.state not in (FileState.PARTIAL, FileState.COMPLETE):
            raise InvariantViolation(
                "store-namespace",
                f"file ({cid}, {rank}) in unknown state {f.state!r}",
                dump=_store_dump(store),
            )
    if len(store) > store.writes:
        raise InvariantViolation(
            "store-namespace",
            f"{len(store)} files exist but only {store.writes} writes were recorded",
            dump=_store_dump(store),
        )


def verify_store_cleaned(store: "CheckpointStore", nranks: int) -> None:
    """Post-cleanup check: every surviving set is exactly ranks 0..nranks-1,
    all COMPLETE.

    Deliberately re-derives validity from the raw namespace instead of
    calling :meth:`CheckpointStore.is_valid`, so a regression to subset
    semantics there (treating a wider job's leftover set as valid) is
    caught rather than masked.
    """
    from repro.core.checkpoint.store import FileState

    verify_store(store)
    expected = list(range(nranks))
    for cid in store.checkpoint_ids():
        present = store.ranks_present(cid)
        if present != expected:
            raise InvariantViolation(
                "store-cleanup-exact-set",
                f"checkpoint {cid} survived cleanup with ranks {present}, "
                f"expected exactly {expected}",
                dump=_store_dump(store),
            )
        for rank in present:
            if store.state_of(cid, rank) is not FileState.COMPLETE:
                raise InvariantViolation(
                    "store-cleanup-exact-set",
                    f"checkpoint {cid} survived cleanup with incomplete file for rank {rank}",
                    dump=_store_dump(store),
                )


def write_dump(path: str, violation: InvariantViolation) -> None:
    """Serialize a violation (message + structured dump) to JSON."""
    payload = {
        "invariant": violation.invariant,
        "detail": violation.detail,
        "dump": violation.dump,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, default=str)
