"""Compact event-trace recording and replay diffing.

An :class:`EventTrace` records every event the engine dispatches as one
tuple ``(time, seq, rank, kind, origin)``:

* ``time`` — virtual time of the dispatch (exact; serialized as
  ``float.hex`` so a saved trace round-trips bit-identically);
* ``seq`` — the engine's global event sequence number (``-1`` for
  coalesced advances, which never visit the heap);
* ``rank`` — the guarded VP's rank, or the destination rank for message
  deliveries, or ``-1`` for rankless events (e.g. sync-point checks);
* ``kind`` — the dispatched callback's name (``arrive``, ``do_wake``,
  ``resume_advance``, ...);
* ``origin`` — the source rank for message deliveries, else ``-1``.

Because the simulator is deterministic, re-executing a run with the same
configuration must reproduce the exact trace; :meth:`EventTrace.diff`
reports the first divergence when it does not.  Traces also provide a
:meth:`digest` so campaigns can assert bit-identity without holding two
full traces in memory.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.pdes.context import VirtualProcess

#: One recorded dispatch.
TraceEntry = tuple[float, int, int, str, int]

_HEADER = "# xsim-event-trace v1"


@dataclass(frozen=True)
class TraceDivergence:
    """First point where two traces disagree."""

    index: int
    expected: TraceEntry | None
    """Entry of the reference trace (None: the reference is shorter)."""
    actual: TraceEntry | None
    """Entry of the compared trace (None: the compared trace is shorter)."""
    context: tuple[TraceEntry, ...]
    """Up to the last 5 entries both traces agree on, for orientation."""

    def report(self) -> str:
        """Human-readable divergence description."""
        lines = [f"traces diverge at event #{self.index}:"]
        lines.append(f"  expected: {_render(self.expected)}")
        lines.append(f"  actual:   {_render(self.actual)}")
        if self.context:
            lines.append("  last agreeing events:")
            for entry in self.context:
                lines.append(f"    {_render(entry)}")
        return "\n".join(lines)


def _render(entry: TraceEntry | None) -> str:
    if entry is None:
        return "<end of trace>"
    time, seq, rank, kind, origin = entry
    frm = "" if origin < 0 else f" from {origin}"
    return f"t={time:.9f} seq={seq} rank={rank} {kind}{frm}"


class EventTrace:
    """Recorder of every dispatched engine event (see module docstring)."""

    __slots__ = ("entries",)

    def __init__(self, entries: list[TraceEntry] | None = None):
        self.entries: list[TraceEntry] = entries if entries is not None else []

    # ------------------------------------------------------------------
    # recording (called from the engine's dispatch loop)
    # ------------------------------------------------------------------
    def record_dispatch(
        self,
        time: float,
        seq: int,
        gvp: "VirtualProcess | None",
        fn: Callable[..., None],
        args: tuple,
    ) -> None:
        """Record one heap dispatch, deriving rank/origin from the event."""
        rank = origin = -1
        if gvp is not None:
            rank = gvp.rank
        elif args:
            a0: Any = args[0]
            dst = getattr(a0, "dst", None)
            if dst is not None:  # message delivery
                rank, origin = dst, a0.src
            elif isinstance(a0, int):  # e.g. a soft-error bit flip
                rank = a0
        self.entries.append((time, seq, rank, fn.__name__.lstrip("_"), origin))

    def record_coalesced(self, time: float, rank: int) -> None:
        """Record an inline (coalesced) advance resume; no heap seq exists."""
        self.entries.append((time, -1, rank, "coalesced_advance", -1))

    # ------------------------------------------------------------------
    # comparison
    # ------------------------------------------------------------------
    def diff(self, other: "EventTrace") -> TraceDivergence | None:
        """First divergence treating ``self`` as the reference, or None."""
        mine, theirs = self.entries, other.entries
        n = min(len(mine), len(theirs))
        for i in range(n):
            if mine[i] != theirs[i]:
                return TraceDivergence(
                    index=i,
                    expected=mine[i],
                    actual=theirs[i],
                    context=tuple(mine[max(0, i - 5):i]),
                )
        if len(mine) != len(theirs):
            return TraceDivergence(
                index=n,
                expected=mine[n] if n < len(mine) else None,
                actual=theirs[n] if n < len(theirs) else None,
                context=tuple(mine[max(0, n - 5):n]),
            )
        return None

    def digest(self) -> str:
        """SHA-256 over the exact serialized form (bit-identity check)."""
        h = hashlib.sha256()
        for entry in self.entries:
            h.update(_line(entry).encode("ascii"))
        return h.hexdigest()

    # ------------------------------------------------------------------
    # per-rank projection (serial vs sharded parity oracle)
    # ------------------------------------------------------------------
    def rank_projection(self) -> dict[int, list[tuple[float, str, int]]]:
        """Canonical per-rank event sequence, for serial-vs-sharded diffs.

        A sharded run (:mod:`repro.pdes.sharded`) dispatches the same
        per-rank events at the same virtual times as the serial engine, but
        the *global* interleaving differs (shards run concurrently), the
        global ``seq`` numbers differ (each shard counts its own), and an
        advance that the serial run coalesced inline may cross a window
        barrier and go through the heap (or vice versa).  The projection
        removes exactly those representational differences and nothing
        else:

        * events are grouped by rank, keeping ``(time, kind, origin)``;
        * ``coalesced_advance`` is renamed ``resume_advance`` (the same
          logical control point, heap round-trip or not);
        * within each run of *consecutive equal-time* entries of one rank,
          entries are sorted by ``(kind, origin)`` — same-time dispatch
          order on one rank follows global sequence numbers, which the
          shards do not share.

        Per-rank times are monotone non-decreasing, so consecutive
        grouping is total.
        """
        by_rank: dict[int, list[tuple[float, str, int]]] = {}
        for time, _seq, rank, kind, origin in self.entries:
            if kind == "coalesced_advance":
                kind = "resume_advance"
            by_rank.setdefault(rank, []).append((time, kind, origin))
        for events in by_rank.values():
            i, n = 0, len(events)
            while i < n:
                j = i + 1
                while j < n and events[j][0] == events[i][0]:
                    j += 1
                if j - i > 1:
                    events[i:j] = sorted(events[i:j], key=lambda e: (e[1], e[2]))
                i = j
        return by_rank

    def diff_ranks(self, other: "EventTrace") -> str | None:
        """First per-rank divergence of the canonical projections, or None.

        Treats ``self`` as the reference (typically the serial run) and
        reports the earliest-diverging rank as a human-readable string.
        """
        mine, theirs = self.rank_projection(), other.rank_projection()
        for rank in sorted(set(mine) | set(theirs)):
            a = mine.get(rank, [])
            b = theirs.get(rank, [])
            n = min(len(a), len(b))
            for i in range(n):
                if a[i] != b[i]:
                    return (
                        f"rank {rank} diverges at event #{i}: "
                        f"expected {_render_projected(a[i])}, "
                        f"actual {_render_projected(b[i])}"
                    )
            if len(a) != len(b):
                extra = a[n] if n < len(a) else b[n]
                side = "reference" if n < len(a) else "compared"
                return (
                    f"rank {rank}: {side} trace has {max(len(a), len(b)) - n} "
                    f"extra event(s) from #{n} ({_render_projected(extra)})"
                )
        return None

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def save(self, path: str) -> None:
        """Write the trace to ``path`` (text; floats as ``float.hex``)."""
        with open(path, "w", encoding="ascii") as fh:
            fh.write(f"{_HEADER} {len(self.entries)}\n")
            for entry in self.entries:
                fh.write(_line(entry))

    @classmethod
    def load(cls, path: str) -> "EventTrace":
        """Read a trace written by :meth:`save`."""
        entries: list[TraceEntry] = []
        with open(path, "r", encoding="ascii") as fh:
            header = fh.readline()
            if not header.startswith(_HEADER):
                raise ValueError(f"{path} is not an xsim event trace")
            for line in fh:
                t, seq, rank, kind, origin = line.split()
                entries.append(
                    (float.fromhex(t), int(seq), int(rank), kind, int(origin))
                )
        return cls(entries)

    def __len__(self) -> int:
        return len(self.entries)


def _render_projected(entry: tuple[float, str, int]) -> str:
    time, kind, origin = entry
    frm = "" if origin < 0 else f" from {origin}"
    return f"t={time:.9f} {kind}{frm}"


def _line(entry: TraceEntry) -> str:
    time, seq, rank, kind, origin = entry
    return f"{time.hex()} {seq} {rank} {kind} {origin}\n"
