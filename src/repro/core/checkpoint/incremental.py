"""Incremental/differential checkpointing (paper §II-B related work).

"A number of advanced resilience technologies have been developed ...
including checkpoint/restart-specific file and storage systems,
incremental/differential checkpointing, ..." and "recent work in
incremental checkpointing ... used modeling and simulation to compare
these mitigation techniques with the standard checkpoint/restart to
identify their overhead costs and benefits" [Wang et al., hybrid
checkpointing].

Model: every ``full_interval``-th checkpoint is a *full* dump; the ones in
between are *incremental*, writing only the dirty fraction of the state.
A restart must read the newest full checkpoint plus every incremental
after it, so the restore chain grows between fulls — the classic
write-cheap/restore-expensive trade-off.  Pruning happens only after a
full checkpoint completes (everything older becomes garbage); between
fulls all chain members must be kept.

For simulation fidelity the *content* stored is always the application's
complete payload (so real-data restarts are exact); the *modeled I/O
volume* is what incremental checkpointing would write/read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Generator

from repro.core.checkpoint.store import CheckpointStore, FileState
from repro.util.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.mpi.api import MpiApi

Gen = Generator[Any, Any, Any]


@dataclass(frozen=True)
class IncrementalPlan:
    """Shape of the incremental checkpoint stream."""

    full_interval: int = 4
    """Every k-th checkpoint is full (1 = all full, i.e. the baseline)."""
    dirty_fraction: float = 0.25
    """Fraction of the state an incremental checkpoint writes."""

    def __post_init__(self) -> None:
        if self.full_interval < 1:
            raise ConfigurationError(f"full_interval must be >= 1, got {self.full_interval}")
        if not 0.0 < self.dirty_fraction <= 1.0:
            raise ConfigurationError(
                f"dirty_fraction must be in (0, 1], got {self.dirty_fraction}"
            )

    def is_full(self, index: int) -> bool:
        """Is the ``index``-th checkpoint (0-based) a full dump?"""
        return index % self.full_interval == 0

    def write_nbytes(self, index: int, full_nbytes: int) -> int:
        """Bytes the ``index``-th checkpoint writes."""
        if self.is_full(index):
            return full_nbytes
        return max(1, int(round(full_nbytes * self.dirty_fraction)))

    def chain_length(self, index: int) -> int:
        """Files a restart from the ``index``-th checkpoint must read."""
        return index % self.full_interval + 1

    def restore_nbytes(self, index: int, full_nbytes: int) -> int:
        """Total bytes a restart from the ``index``-th checkpoint reads."""
        total = full_nbytes
        base = index - index % self.full_interval
        for i in range(base + 1, index + 1):
            total += self.write_nbytes(i, full_nbytes)
        return total

    def mean_write_nbytes(self, full_nbytes: int) -> float:
        """Average bytes per checkpoint over one full period."""
        return sum(
            self.write_nbytes(i, full_nbytes) for i in range(self.full_interval)
        ) / self.full_interval


class IncrementalCheckpointProtocol:
    """Per-rank incremental checkpoint discipline.

    Interface mirrors :class:`~repro.core.checkpoint.protocol.
    CheckpointProtocol` (``checkpoint`` / ``restore_latest``) but with
    chain-aware pruning and restore costs.
    """

    def __init__(self, api: "MpiApi", store: CheckpointStore, plan: IncrementalPlan):
        self.api = api
        self.store = store
        self.plan = plan
        #: Index (0-based count) of the next checkpoint this rank writes.
        self.next_index = 0
        #: Checkpoint ids written since (and including) the last full dump.
        self.chain: list[int] = []

    # ------------------------------------------------------------------
    def checkpoint(self, ckpt_id: int, data: Any, full_nbytes: int) -> Gen:
        """Write the next checkpoint (full or incremental per the plan),
        synchronize, and prune superseded files."""
        api = self.api
        index = self.next_index
        full = self.plan.is_full(index)
        nbytes = self.plan.write_nbytes(index, full_nbytes)
        payload = {"data": data, "index": index, "full": full, "chain": None}
        self.store.begin_write(ckpt_id, api.rank, payload, nbytes)
        yield from api.file_write(nbytes, concurrent_clients=api.size)
        # record the chain in the committed payload so restore knows what
        # else it must read
        if full:
            payload["chain"] = [ckpt_id]
        else:
            payload["chain"] = self.chain + [ckpt_id]
        self.store.commit_write(ckpt_id, api.rank)
        yield from api.barrier()
        if full:
            # everything before this full dump is now garbage
            for old in self.chain:
                if self.store.delete(old, api.rank):
                    yield from api.file_delete()
            self.chain = [ckpt_id]
        else:
            self.chain.append(ckpt_id)
        self.next_index = index + 1

    # ------------------------------------------------------------------
    def restore_latest(self) -> Gen:
        """Load the newest checkpoint whose whole chain is valid.

        Returns ``(ckpt_id, data)`` or ``(None, None)``.  The modeled read
        volume is the full dump plus every incremental in the chain.
        """
        api = self.api
        store = self.store
        for cid in reversed(store.checkpoint_ids()):
            if not store.is_valid(cid, api.size):
                if store.state_of(cid, api.rank) is FileState.PARTIAL:
                    store.delete(cid, api.rank)
                    yield from api.file_delete()
                continue
            f = store.read(cid, api.rank)
            chain = f.data.get("chain") or [cid]
            if not all(store.is_valid(c, api.size) for c in chain):
                continue  # broken chain: keep looking at older checkpoints
            # read the whole chain back
            total = sum(store.read(c, api.rank).nbytes for c in chain)
            yield from api.file_read(total, concurrent_clients=api.size)
            self.chain = list(chain)
            self.next_index = f.data["index"] + 1
            return cid, f.data["data"]
        return None, None
