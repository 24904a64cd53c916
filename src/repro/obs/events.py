"""Observability event model and bus.

The :class:`Observer` follows the detached-instrumentation pattern used
everywhere else in the simulator (``engine.check``, ``engine.event_trace``):
producers hold an ``obs``
attribute that defaults to ``None`` and pay exactly one attribute test per
potential event when detached.  When attached, events are appended to a
plain list — no locking, no I/O, no formatting until export time.

Events live in one of two *domains*:

``sim``
    Stamped in **virtual time**.  These are fully deterministic: a serial
    run and a sharded run of the same configuration produce the same
    multiset of sim events, which the exporters turn into byte-identical
    output (see :mod:`repro.obs.export`).
``host``
    Stamped in **wall-clock time** (``perf_counter``): shard round walls,
    campaign task lifecycle, engine run walls.  Useful for performance
    work, inherently nondeterministic, and therefore excluded from the
    default export.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

#: Domain constants (see module docstring).
SIM = "sim"
HOST = "host"

#: Event kinds: a ``span`` has a duration, an ``instant`` is a point.
SPAN = "span"
INSTANT = "instant"


def _canon_args(args: Mapping[str, object] | Iterable[tuple[str, object]] | None) -> tuple:
    """Canonicalize event args to a sorted, hashable tuple of pairs."""
    if not args:
        return ()
    items = args.items() if isinstance(args, Mapping) else args
    return tuple(sorted((str(k), v) for k, v in items))


@dataclass(frozen=True, slots=True)
class ObsEvent:
    """One observed span or instant.

    Frozen and slotted so events are cheap, hashable, and safe to ship
    across process boundaries from shard workers.
    """

    domain: str
    """``"sim"`` (virtual time) or ``"host"`` (wall clock)."""
    kind: str
    """``"span"`` or ``"instant"``."""
    track: str
    """Display lane: ``"rank 3"``, ``"resilience"``, ``"simulator"``, ...."""
    name: str
    start: float
    duration: float = 0.0
    """Zero for instants."""
    rank: int | None = None
    args: tuple = ()
    """Sorted ``(key, value)`` pairs of JSON-scalar extras."""

    @property
    def end(self) -> float:
        return self.start + self.duration

    def sort_key(self) -> tuple:
        """Total order over full event content.

        Sorting by this key makes export order a pure function of the
        event *multiset*, so any producer interleaving (serial dispatch
        vs shard merge order) yields identical output.
        """
        return (
            self.start,
            self.duration,
            -1 if self.rank is None else self.rank,
            self.track,
            self.name,
            self.kind,
            self.args,
        )


class Observer:
    """Event bus collecting :class:`ObsEvent` records.

    Parameters
    ----------
    detail:
        Enables high-volume instrumentation: per-request blocking-wait
        spans and per-message ``msg:post`` (sender's track: dst, ctx,
        tag, nbytes, protocol) and ``msg:deliver`` / ``msg:drop``
        (receiver's track: src, ctx, tag, nbytes) instants.  Off by
        default: a default heat3d run generates hundreds of thousands of
        waits and messages, versus tens of thousands of collective spans
        and a handful of resilience instants.
    """

    def __init__(self, detail: bool = False) -> None:
        self.detail = detail
        self.events: list[ObsEvent] = []

    # -- recording -------------------------------------------------------
    def instant(
        self,
        time: float,
        name: str,
        rank: int | None = None,
        track: str | None = None,
        args: Mapping[str, object] | None = None,
    ) -> None:
        """Record a sim-domain point event at virtual ``time``."""
        self.events.append(
            ObsEvent(
                domain=SIM,
                kind=INSTANT,
                track=track if track is not None else _default_track(rank),
                name=name,
                start=time,
                rank=rank,
                args=_canon_args(args),
            )
        )

    def span(
        self,
        start: float,
        end: float,
        name: str,
        rank: int | None = None,
        track: str | None = None,
        args: Mapping[str, object] | None = None,
    ) -> None:
        """Record a sim-domain span over virtual ``[start, end]``."""
        self.events.append(
            ObsEvent(
                domain=SIM,
                kind=SPAN,
                track=track if track is not None else _default_track(rank),
                name=name,
                start=start,
                duration=end - start,
                rank=rank,
                args=_canon_args(args),
            )
        )

    def host_instant(
        self,
        time: float,
        name: str,
        track: str = "host",
        args: Mapping[str, object] | None = None,
    ) -> None:
        """Record a host-domain (wall clock) point event."""
        self.events.append(
            ObsEvent(
                domain=HOST,
                kind=INSTANT,
                track=track,
                name=name,
                start=time,
                args=_canon_args(args),
            )
        )

    def host_span(
        self,
        start: float,
        end: float,
        name: str,
        track: str = "host",
        args: Mapping[str, object] | None = None,
    ) -> None:
        """Record a host-domain (wall clock) span."""
        self.events.append(
            ObsEvent(
                domain=HOST,
                kind=SPAN,
                track=track,
                name=name,
                start=start,
                duration=end - start,
                args=_canon_args(args),
            )
        )

    # -- queries ---------------------------------------------------------
    def extend(self, events: Iterable[ObsEvent]) -> None:
        """Merge events collected elsewhere (e.g. by a shard worker)."""
        self.events.extend(events)

    def sim_events(self) -> list[ObsEvent]:
        return [e for e in self.events if e.domain == SIM]

    def host_events(self) -> list[ObsEvent]:
        return [e for e in self.events if e.domain == HOST]


def observer_for(
    observe: "bool | Observer | None", detail: bool = False, shard_local: bool = False
) -> Observer | None:
    """The bus a run records into, and at which detail — asked by every
    site that builds one (:class:`~repro.core.simulator.XSim`, the
    restart driver, the shard worker).

    ``None``/``False``: no observer.  ``True``: a fresh one at ``detail``.
    An :class:`Observer` (one shared across restart segments, say):
    itself — or, with ``shard_local``, a fresh bus at *its* detail: a
    shard worker records locally and ships its events back in the shard
    report, because the inline shard-0 worker shares the parent's sim and
    recording into the parent bus would duplicate events at merge time.
    """
    if observe is None or observe is False:
        return None
    if isinstance(observe, Observer):
        return Observer(detail=observe.detail) if shard_local else observe
    return Observer(detail=detail)


def _default_track(rank: int | None) -> str:
    return "simulator" if rank is None else f"rank {rank}"
