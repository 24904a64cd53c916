"""Application-level checkpoint protocol helpers.

Encapsulates the paper's target-application checkpoint discipline so other
simulated applications can reuse it:

* **checkpoint** — write: create the per-rank file, pay the (modeled)
  file-system write time, commit (a failure mid-write leaves a corrupted
  file); then synchronize and prune: "after writing out a checkpoint, a
  global barrier synchronizes all processes, such that the previous
  checkpoint can be deleted safely";
* **restore** — at (re)start, scan for the newest valid checkpoint set,
  "automatically delete any corrupted checkpoint", and return the restored
  payload (or ``None`` for a cold start).

Both are generators to be driven with ``yield from`` inside the
application coroutine.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator

from repro.core.checkpoint.store import CheckpointStore, FileState

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.mpi.api import MpiApi

Gen = Generator[Any, Any, Any]


def resolve_protocol(api: "MpiApi", store: Any) -> "CheckpointProtocol | Any | None":
    """The checkpoint protocol driving ``store`` for this rank.

    Applications call this with whatever store object rode in through
    their args: ``None`` (checkpointing disabled) returns ``None``; a
    store that knows its own discipline (e.g. the multi-level tier store,
    via a ``make_protocol(api)`` method) returns that protocol; a plain
    :class:`~repro.core.checkpoint.store.CheckpointStore` gets the
    single-level :class:`CheckpointProtocol`.  Every protocol duck-types
    the methods apps use: ``checkpoint``, ``restore_latest``,
    ``previous_id``.
    """
    if store is None:
        return None
    factory = getattr(store, "make_protocol", None)
    if factory is not None:
        return factory(api)
    return CheckpointProtocol(api, store)


class CheckpointProtocol:
    """Per-rank view of the application checkpoint discipline."""

    __slots__ = ("api", "store", "previous_id")

    def __init__(self, api: "MpiApi", store: CheckpointStore):
        self.api = api
        self.store = store
        #: Id of the most recent checkpoint this rank completed (for pruning).
        self.previous_id: int | None = None

    # ------------------------------------------------------------------
    def checkpoint(self, ckpt_id: int, data: Any, nbytes: int) -> Gen:
        """The full per-interval sequence: write, barrier, prune.

        One generator frame, so a rank waiting in the barrier keeps no
        pass-through frame between the application and the collective.
        A failure during the barrier aborts *before* the deletes, leaving
        "only partially deleted old checkpoints" — the third failure mode
        the paper's First Impressions section observes.
        """
        api = self.api
        self.store.begin_write(ckpt_id, api.rank, data, nbytes)
        # The I/O time is where a failure during the checkpoint phase lands,
        # leaving the file in the corrupted (PARTIAL) state.
        yield from api.file_write(nbytes, concurrent_clients=api.size)
        self.store.commit_write(ckpt_id, api.rank)
        yield from api.barrier()
        if self.previous_id is not None and self.previous_id != ckpt_id:
            if self.store.delete(self.previous_id, api.rank):
                yield from api.file_delete()
        self.previous_id = ckpt_id

    # ------------------------------------------------------------------
    def restore_latest(self) -> Gen:
        """Find, clean up around, and load the newest valid checkpoint.

        Returns ``(ckpt_id, data)`` or ``(None, None)`` on a cold start.
        Corrupted files discovered during the scan are deleted, matching
        the application behaviour the paper describes; fully missing sets
        are expected to have been removed by the restart driver's
        shell-script step already, but are skipped (and removed) defensively.
        """
        api = self.api
        store = self.store
        for cid in reversed(store.checkpoint_ids()):
            if store.is_valid(cid, api.size):
                f = store.read(cid, api.rank)
                yield from api.file_read(f.nbytes, concurrent_clients=api.size)
                self.previous_id = cid
                return cid, f.data
            # Invalid set: delete this rank's file if it is corrupted.
            if store.state_of(cid, api.rank) is FileState.PARTIAL:
                store.delete(cid, api.rank)
                yield from api.file_delete()
        return None, None
