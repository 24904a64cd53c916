"""Multi-level checkpointing: in-memory/local, partner-copy, and PFS tiers.

Models the SCR/FTI-style tiered discipline (Kohl et al.,
arXiv:1708.08286): the application checkpoints at a fine cadence into
cheap *node-local* storage, every ``partner_every``-th local checkpoint is
also shipped to a ring partner (rank ``r``'s copy lives on rank
``(r+1) % n``), and every ``k``-th checkpoint additionally goes to the
parallel file system with the full single-level discipline.  Recovery
scans tiers newest-first and, per rank, loads the *cheapest surviving*
copy — a failed rank's node memory is gone, but its partner copy usually
survives at local-cadence granularity, so the rollback distance shrinks
from the global interval to the local one.

Tier cost model (documented in INTERNALS):

* **local** — memory-speed serialization at :data:`LOCAL_BANDWIDTH`
  bytes/s, paid as compute time (no network, no PFS contention);
* **partner** — a real ring ``isend``/``irecv`` of the checkpoint bytes
  (tag :data:`PARTNER_TAG`), so the interconnect model prices it;
  recovery fetches are modelled at :data:`PARTNER_FETCH_BANDWIDTH` plus
  :data:`PARTNER_FETCH_LATENCY`;
* **global** — ``file_write``/``file_read`` against the PFS model with
  all ranks as concurrent clients, exactly like single-level ``ckpt``.

Survivability on abort (:meth:`MultilevelCheckpoint.on_abort`): the
failed ranks' local files are dropped (node memory), partner copies whose
*holder* failed are dropped, mid-write PARTIAL files in either tier are
dropped, and the global tier gets the standard incomplete-set cleanup.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator

from repro.core.checkpoint.store import CheckpointStore, FileState
from repro.resilience.strategy import ResilienceStrategy, register

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.mpi.api import MpiApi
    from repro.obs import Observer

Gen = Generator[Any, Any, Any]

#: Node-local (in-memory) checkpoint serialization speed, bytes/s.
LOCAL_BANDWIDTH = 5e9
#: Modelled partner-tier recovery fetch: latency (s) + bytes/s.
PARTNER_FETCH_LATENCY = 1e-6
PARTNER_FETCH_BANDWIDTH = 8e9
#: Reserved tag of the partner-copy ring exchange (beyond app tags,
#: below the redundancy hash side channel).
PARTNER_TAG = 2**17

#: Tier names, cheapest recovery first.
TIERS = ("local", "partner", "global")


class MultilevelStore:
    """Three checkpoint namespaces, one per tier, shared across segments.

    Rides through the app args like a plain
    :class:`~repro.core.checkpoint.store.CheckpointStore`;
    :meth:`component_stores` exposes the tier namespaces to the sharded
    engine's file-state merge, and :meth:`make_protocol` tells
    :func:`~repro.core.checkpoint.protocol.resolve_protocol` to drive the
    tiered discipline instead of the single-level one.
    """

    def __init__(self, k: int, partner_every: int):
        self.k = k
        self.partner_every = partner_every
        self.local = CheckpointStore()
        self.partner = CheckpointStore()
        self.global_ = CheckpointStore()
        #: (ckpt_id, nranks) -> (tier revisions, answer): :meth:`recoverable`'s memo.
        self._recoverable: dict[tuple[int, int], tuple[tuple[int, ...], bool]] = {}

    def component_stores(self) -> tuple[CheckpointStore, ...]:
        return (self.local, self.partner, self.global_)

    def recoverable(self, ckpt_id: int, nranks: int) -> bool:
        """Does every rank ``0..nranks-1`` hold a COMPLETE copy of
        ``ckpt_id`` in some tier?  Every restoring rank asks; the tiers are
        scanned once per state of that id's three sets
        (:meth:`CheckpointStore.revision`), so a restart stays linear in
        ranks."""
        tiers = self.component_stores()
        stamp = tuple(tier.revision(ckpt_id) for tier in tiers)
        memo = self._recoverable.get((ckpt_id, nranks))
        if memo is None or memo[0] != stamp:
            ok = all(
                any(tier.state_of(ckpt_id, rank) is FileState.COMPLETE for tier in tiers)
                for rank in range(nranks)
            )
            memo = self._recoverable[(ckpt_id, nranks)] = (stamp, ok)
        return memo[1]

    def make_protocol(self, api: "MpiApi") -> "MultilevelProtocol":
        return MultilevelProtocol(api, self)

    def tier_of(self, name: str) -> CheckpointStore:
        return {"local": self.local, "partner": self.partner, "global": self.global_}[name]


class MultilevelProtocol:
    """Per-rank driver of the tiered checkpoint discipline.

    Duck-types :class:`~repro.core.checkpoint.protocol.CheckpointProtocol`
    for the methods applications use (``checkpoint``, ``restore_latest``,
    ``previous_id``).
    """

    def __init__(self, api: "MpiApi", store: MultilevelStore):
        self.api = api
        self.ml = store
        #: Checkpoint calls this segment (global cadence = every k-th).
        self.calls = 0
        #: Id of the most recent checkpoint this rank completed.
        self.previous_id: int | None = None
        self._prev = {"local": None, "partner": None, "global": None}

    # ------------------------------------------------------------------
    def _emit(self, name: str, args: dict) -> None:
        world = self.api.world
        obs = world.obs
        if obs is not None and world._obs_owns(self.api.rank):
            obs.instant(
                self.api.wtime(), name, rank=self.api.rank,
                track="resilience", args=args,
            )

    def _prune(self, tier: str, ckpt_id: int) -> Gen:
        prev = self._prev[tier]
        if prev is not None and prev != ckpt_id:
            if self.ml.tier_of(tier).delete(prev, self.api.rank) and tier == "global":
                yield from self.api.file_delete()
        self._prev[tier] = ckpt_id

    # ------------------------------------------------------------------
    def checkpoint(self, ckpt_id: int, data: Any, nbytes: int) -> Gen:
        """One tiered checkpoint: local always, partner/global on cadence."""
        api = self.api
        ml = self.ml
        self.calls += 1
        # Tier 1: node-local, memory-speed.  A failure mid-serialization
        # leaves the file PARTIAL, like any other tier.
        ml.local.begin_write(ckpt_id, api.rank, data, nbytes)
        yield from api.compute(nbytes / LOCAL_BANDWIDTH)
        ml.local.commit_write(ckpt_id, api.rank)
        self._emit("tier-write", {"tier": "local", "id": ckpt_id})
        # Tier 2: ship this checkpoint to the ring partner (real traffic —
        # the interconnect model prices it).  The copy of rank r is *held*
        # by rank (r+1) % n, but recorded under r's key so the sharded
        # file-state merge attributes it to the writing rank.
        to_partner = (
            ml.partner_every > 0
            and self.calls % ml.partner_every == 0
            and api.size > 1
        )
        if to_partner:
            right = (api.rank + 1) % api.size
            left = (api.rank - 1) % api.size
            rreq = api.irecv(left, tag=PARTNER_TAG)
            sreq = yield from api.isend(right, payload=None, nbytes=nbytes, tag=PARTNER_TAG)
            yield from api.wait(sreq)
            yield from api.wait(rreq)
            ml.partner.begin_write(ckpt_id, api.rank, data, nbytes)
            ml.partner.commit_write(ckpt_id, api.rank)
            self._emit("partner-copy", {"id": ckpt_id, "holder": right})
            yield from self._prune("partner", ckpt_id)
        # Tier 3: every k-th call goes to the PFS with the single-level
        # discipline (write, then the barrier below covers the prune).
        to_global = self.calls % ml.k == 0
        if to_global:
            ml.global_.begin_write(ckpt_id, api.rank, data, nbytes)
            yield from api.file_write(nbytes, concurrent_clients=api.size)
            ml.global_.commit_write(ckpt_id, api.rank)
            self._emit("tier-write", {"tier": "global", "id": ckpt_id})
        # "After writing out a checkpoint, a global barrier synchronizes
        # all processes, such that the previous checkpoint can be deleted
        # safely" — one barrier covers every tier written this call.
        yield from api.barrier()
        yield from self._prune("local", ckpt_id)
        if to_global:
            yield from self._prune("global", ckpt_id)
        self.previous_id = ckpt_id

    # ------------------------------------------------------------------
    def _tier_for(self, cid: int, rank: int) -> str | None:
        """Cheapest tier holding a COMPLETE copy of ``(cid, rank)``."""
        for tier in TIERS:
            if self.ml.tier_of(tier).state_of(cid, rank) is FileState.COMPLETE:
                return tier
        return None

    def restore_latest(self) -> Gen:
        """Load the newest checkpoint recoverable across *all* ranks,
        each rank from its cheapest surviving tier.

        Returns ``(ckpt_id, data)`` or ``(None, None)`` on a cold start.
        """
        api = self.api
        n = api.size
        ids = sorted(
            {cid for tier in TIERS for cid in self.ml.tier_of(tier).checkpoint_ids()},
            reverse=True,
        )
        for cid in ids:
            if not self.ml.recoverable(cid, n):
                continue
            tier = self._tier_for(cid, api.rank)
            f = self.ml.tier_of(tier).read(cid, api.rank)
            if tier == "local":
                yield from api.compute(f.nbytes / LOCAL_BANDWIDTH)
            elif tier == "partner":
                yield from api.compute(
                    PARTNER_FETCH_LATENCY + f.nbytes / PARTNER_FETCH_BANDWIDTH
                )
            else:
                yield from api.file_read(f.nbytes, concurrent_clients=n)
            self._emit("tier-recovery", {"tier": tier, "id": cid})
            for t in TIERS:
                self._prev[t] = cid if self.ml.tier_of(t).exists(cid, api.rank) else None
            self.previous_id = cid
            return cid, f.data
        return None, None


@register
class MultilevelCheckpoint(ResilienceStrategy):
    """Tiered checkpoint/restart: local + partner-copy + PFS."""

    name = "ckpt-multilevel"

    def _configure(self) -> None:
        self.k: int = self.values["k"]
        self.partner_every: int = self.values["partner_every"]
        self.dropped_files = 0

    def app_interval(self, interval: int) -> int:
        # The nominal scenario interval is the *global* cadence; the app
        # checkpoints k times as often into the local tier.
        return max(1, interval // self.k)

    def begin_run(self) -> None:
        self.store = MultilevelStore(self.k, self.partner_every)

    def segment_store(self) -> MultilevelStore:
        return self.store

    def result_store(self) -> CheckpointStore:
        # The PFS-namespace view, like single-level ckpt reports.
        return self.store.global_

    def on_abort(
        self, result, nranks: int, check: bool = False,
        observer: "Observer | None" = None,
    ) -> None:
        ml = self.store
        failed = sorted({rank for rank, _ in result.failures})
        dropped = 0
        for rank in failed:
            # The failed rank's node memory is gone...
            for cid in ml.local.checkpoint_ids():
                dropped += ml.local.delete(cid, rank)
            # ...and so is every partner copy it *held* (rank r's copy
            # lives on (r+1) % n, so holder f held (f-1) % n's copy).
            held_of = (rank - 1) % nranks
            for cid in ml.partner.checkpoint_ids():
                dropped += ml.partner.delete(cid, held_of)
        # Mid-write PARTIAL files in the memory tiers are worthless.
        for store in (ml.local, ml.partner):
            for cid in store.checkpoint_ids():
                for rank in store.corrupted_files(cid):
                    dropped += store.delete(cid, rank)
        self.dropped_files += dropped
        # PFS tier: the standard pre-restart shell-script cleanup.
        ml.global_.cleanup_incomplete(nranks)
        if check:
            from repro.check.sanitizer import verify_store_cleaned

            verify_store_cleaned(ml.global_, nranks)
        if observer is not None:
            observer.instant(
                result.exit_time, "tier-cleanup", track="resilience",
                args={"failed": len(failed), "dropped": dropped},
            )

    def facts(self):
        return {
            "strategy": self.name,
            "k": self.k,
            "partner_every": self.partner_every,
            "dropped_files": self.dropped_files,
        }
