"""Simulated parallel-file-system checkpoint store.

The store models the PFS *namespace* (which files exist and whether they
are complete) and persists across simulated job restarts — it lives in the
restart driver, outside any single engine run, exactly like a real parallel
file system outlives an aborted job.

File lifecycle: :meth:`begin_write` creates the file in the ``PARTIAL``
state ("exists, but misses some information"); :meth:`commit_write`
promotes it to ``COMPLETE``.  A virtual process killed between the two —
a failure during the checkpoint phase — leaves a *corrupted* file, which
the application deletes when it finds it at restart.  A rank killed before
it began writing leaves the file *missing*, making the whole checkpoint set
*incomplete*; the paper deletes those "using a shell script" before
restart, which :meth:`cleanup_incomplete` reproduces.

Timing is **not** modeled here — the store is pure namespace/state.  The
application pays I/O time through :meth:`MpiApi.file_write` against the
file-system model (zero-cost in the paper's Table II configuration).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Collection, Iterator

from repro.util.errors import CheckpointError


class FileState(enum.Enum):
    """State of one per-rank checkpoint file."""

    PARTIAL = "partial"
    """Created but not committed — the paper's "corrupted" checkpoint file."""
    COMPLETE = "complete"


@dataclass
class CheckpointFile:
    """One per-rank checkpoint file in the simulated PFS."""

    ckpt_id: int
    rank: int
    state: FileState
    data: Any
    nbytes: int


class CheckpointStore:
    """Namespace of per-rank checkpoint files, indexed by checkpoint id:
    ``ckpt_id -> {rank: file}``.

    Checkpoint ids are application-chosen (the heat application uses the
    iteration number), and must be monotonically meaningful: "latest" means
    the numerically largest id.

    Every rank of a (re)started job asks the same questions of the same
    namespace, so a per-set question touches that set's files only and
    "valid for n ranks" is answered once per state of the set, not once
    per asking rank — a restart is linear in ranks, not quadratic.
    """

    def __init__(self) -> None:
        self._sets: dict[int, dict[int, CheckpointFile]] = {}
        #: ckpt_id -> revision of that set (see :meth:`revision`); kept when
        #: a set is deleted, so a re-created one never repeats a revision.
        self._revs: dict[int, int] = {}
        #: (ckpt_id, nranks) -> (revision, answer): :meth:`is_valid`'s memo.
        self._valid: dict[tuple[int, int], tuple[int, bool]] = {}
        #: Cumulative operation counters (for reports and tests).
        self.writes = 0
        self.deletes = 0

    def _file(self, ckpt_id: int, rank: int) -> CheckpointFile | None:
        files = self._sets.get(ckpt_id)
        return None if files is None else files.get(rank)

    def _touch(self, ckpt_id: int) -> None:
        """Every change to one set passes here."""
        self._revs[ckpt_id] = self._revs.get(ckpt_id, 0) + 1

    def revision(self, ckpt_id: int) -> int:
        """A number that changes with every ``begin_write``, ``commit_write``
        and ``delete`` on ``ckpt_id`` (0: never written) — what a memo of a
        per-set answer is held against."""
        return self._revs.get(ckpt_id, 0)

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------
    def begin_write(self, ckpt_id: int, rank: int, data: Any, nbytes: int) -> None:
        """Create (or overwrite) the file in the PARTIAL state."""
        if nbytes < 0:
            raise CheckpointError(f"nbytes must be >= 0, got {nbytes}")
        self._sets.setdefault(ckpt_id, {})[rank] = CheckpointFile(
            ckpt_id=ckpt_id, rank=rank, state=FileState.PARTIAL, data=data, nbytes=nbytes
        )
        self._touch(ckpt_id)
        self.writes += 1

    def commit_write(self, ckpt_id: int, rank: int) -> None:
        """Promote the file to COMPLETE (the write finished)."""
        f = self._file(ckpt_id, rank)
        if f is None:
            raise CheckpointError(f"commit of unknown checkpoint file ({ckpt_id}, {rank})")
        f.state = FileState.COMPLETE
        self._touch(ckpt_id)

    # ------------------------------------------------------------------
    # read path
    # ------------------------------------------------------------------
    def read(self, ckpt_id: int, rank: int) -> CheckpointFile:
        """Return a COMPLETE file; corrupted or missing files raise."""
        f = self._file(ckpt_id, rank)
        if f is None:
            raise CheckpointError(f"checkpoint file ({ckpt_id}, {rank}) does not exist")
        if f.state is not FileState.COMPLETE:
            raise CheckpointError(f"checkpoint file ({ckpt_id}, {rank}) is corrupted")
        return f

    def exists(self, ckpt_id: int, rank: int) -> bool:
        """Does the file exist (in any state)?"""
        return self._file(ckpt_id, rank) is not None

    def state_of(self, ckpt_id: int, rank: int) -> FileState | None:
        """File state, or ``None`` when the file does not exist."""
        f = self._file(ckpt_id, rank)
        return None if f is None else f.state

    # ------------------------------------------------------------------
    # namespace queries
    # ------------------------------------------------------------------
    def files(self) -> Iterator[tuple[tuple[int, int], CheckpointFile]]:
        """Every file as ``((ckpt_id, rank), file)`` — the flat namespace."""
        for cid, files in self._sets.items():
            for rank, f in files.items():
                yield (cid, rank), f

    def checkpoint_ids(self) -> list[int]:
        """All checkpoint ids with at least one file, ascending."""
        return sorted(self._sets)

    def ranks_present(self, ckpt_id: int) -> list[int]:
        """Ranks with a file (any state) for ``ckpt_id``."""
        return sorted(self._sets.get(ckpt_id, ()))

    def is_valid(self, ckpt_id: int, nranks: int) -> bool:
        """Complete file present for *exactly* ranks ``0..nranks-1``?

        The rank set must match exactly: files from ranks ``>= nranks``
        (a set written by a wider job, before e.g. an ``MPI_Comm_shrink``
        restart) invalidate the set — restoring only its low-rank files
        would silently drop the part of the domain the lost ranks held.

        One scan of the set per :meth:`revision` of it; every further ask
        (each rank of a restarting job asks) is a memo hit.
        """
        rev = self._revs.get(ckpt_id, 0)
        memo = self._valid.get((ckpt_id, nranks))
        if memo is None or memo[0] != rev:
            files = self._sets.get(ckpt_id, {})
            ok = len(files) == nranks and all(
                rank < nranks and f.state is FileState.COMPLETE for rank, f in files.items()
            )
            memo = self._valid[(ckpt_id, nranks)] = (rev, ok)
        return memo[1]

    def latest_valid(self, nranks: int) -> int | None:
        """Largest checkpoint id valid for an ``nranks``-wide restart
        (exact rank-set match, see :meth:`is_valid`)."""
        for cid in reversed(self.checkpoint_ids()):
            if self.is_valid(cid, nranks):
                return cid
        return None

    def corrupted_files(self, ckpt_id: int) -> list[int]:
        """Ranks whose file for ``ckpt_id`` exists but is PARTIAL."""
        return sorted(
            r for r, f in self._sets.get(ckpt_id, {}).items() if f.state is FileState.PARTIAL
        )

    def total_bytes(self) -> int:
        """Sum of all stored file sizes."""
        return sum(f.nbytes for _, f in self.files())

    # ------------------------------------------------------------------
    # deletion
    # ------------------------------------------------------------------
    def delete(self, ckpt_id: int, rank: int | None = None) -> int:
        """Delete one file (or, with ``rank=None``, the whole set).
        Returns the number of files removed (deleting nothing is fine —
        another rank may have cleaned up already)."""
        files = self._sets.get(ckpt_id)
        if files is None:
            return 0
        if rank is None:
            removed = len(self._sets.pop(ckpt_id))
        else:
            removed = 0 if files.pop(rank, None) is None else 1
            if not files:
                del self._sets[ckpt_id]
        if removed:
            self._touch(ckpt_id)
            self.deletes += removed
        return removed

    def cleanup_incomplete(self, nranks: int) -> list[int]:
        """Delete every checkpoint set that is not valid for ``nranks``
        ranks — the paper's pre-restart shell script.  Returns the ids
        removed.  Validity requires an exact rank-set match (see
        :meth:`is_valid`), so leftover wide sets — including their
        high-rank files — are deleted too, not just narrow/corrupt ones."""
        removed = []
        for cid in self.checkpoint_ids():
            if not self.is_valid(cid, nranks):
                self.delete(cid)
                removed.append(cid)
        return removed

    def replace_ranks(
        self, ranks: Collection[int], files: dict[tuple[int, int], CheckpointFile]
    ) -> None:
        """Drop every file of ``ranks`` and install ``files`` (flat, as
        :meth:`files` yields them): how a shard's view of its owned ranks
        replaces the pre-fork one.  Counters are the caller's to adjust."""
        for cid, held in list(self._sets.items()):
            stale = [rank for rank in held if rank in ranks]
            for rank in stale:
                del held[rank]
            if stale:
                self._touch(cid)
                if not held:
                    del self._sets[cid]
        for (cid, rank), f in files.items():
            self._sets.setdefault(cid, {})[rank] = f
            self._touch(cid)

    def __len__(self) -> int:
        return sum(len(files) for files in self._sets.values())
