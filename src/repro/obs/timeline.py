"""Post-mortem timeline analysis over observer events.

:class:`TimelineReport` answers the questions the paper's tool answers at
``MPI_Abort`` shutdown — how did the failure unfold, per rank? — from the
unified event stream: per-rank failure-detection latency distributions,
the resilience instant sequence (inject -> detect -> notify -> revoke ->
abort -> restart), and every track's sim events (collectives, waits and
``msg:*`` instants at ``trace_detail``) as one list on the virtual clock.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.obs.events import SIM, ObsEvent

#: Resilience instant names, in causal order (used for display sorting).
RESILIENCE_ORDER = ("inject", "detect", "notify", "revoke", "abort", "restart")


@dataclass(frozen=True)
class LatencyStats:
    """Summary of one latency sample set (seconds of virtual time)."""

    count: int
    min: float
    mean: float
    max: float

    @classmethod
    def of(cls, samples: "list[float]") -> "LatencyStats":
        return cls(
            count=len(samples),
            min=min(samples),
            mean=sum(samples) / len(samples),
            max=max(samples),
        )


class TimelineReport:
    """One run's observer events, read on the virtual clock.

    ``events`` is an :class:`~repro.obs.events.Observer` or any iterable
    of :class:`~repro.obs.events.ObsEvent`.
    """

    def __init__(self, events: "Iterable[ObsEvent] | object") -> None:
        inner = getattr(events, "events", events)
        self.events: list[ObsEvent] = sorted(inner, key=ObsEvent.sort_key)

    # -- resilience ------------------------------------------------------
    def resilience_events(self) -> list[ObsEvent]:
        """All resilience-track instants, in causal then time order."""
        order = {name: i for i, name in enumerate(RESILIENCE_ORDER)}
        return sorted(
            (e for e in self.events if e.track == "resilience"),
            key=lambda e: (e.start, order.get(e.name, len(order)), e.sort_key()),
        )

    def detection_latencies(self) -> dict[int, list[float]]:
        """Per-rank failure-detection latency samples (seconds)."""
        out: dict[int, list[float]] = {}
        for e in self.resilience_events():
            if e.name != "detect" or e.rank is None:
                continue
            latency = dict(e.args).get("latency")
            if latency is not None:
                out.setdefault(e.rank, []).append(latency)
        return out

    def detection_stats(self) -> dict[int, LatencyStats]:
        """Per-rank detection latency distributions."""
        return {
            rank: LatencyStats.of(samples)
            for rank, samples in sorted(self.detection_latencies().items())
        }

    # -- joined timeline -------------------------------------------------
    def joined_rows(self) -> list[tuple[float, str]]:
        """(time, description) rows of every sim event on every track,
        sorted by time then content, so the list is deterministic.
        Spans contribute their start and duration."""
        rows: list[tuple[float, str]] = []
        for e in self.events:
            if e.domain != SIM:
                continue
            where = f"rank {e.rank}" if e.rank is not None else e.track
            if e.kind == "span":
                rows.append((e.start, f"{e.name} [{where}] dur={e.duration:.6f}s"))
            else:
                extras = " ".join(f"{k}={v}" for k, v in e.args)
                rows.append((e.start, f"{e.name} [{where}]{' ' + extras if extras else ''}"))
        rows.sort()
        return rows

    # -- rendering -------------------------------------------------------
    def render(self, max_rows: int = 0) -> str:
        """Human-readable report (resilience table + latency stats)."""
        lines = ["== timeline report =="]
        sim = [e for e in self.events if e.domain == SIM]
        host = [e for e in self.events if e.domain == "host"]
        lines.append(f"events: {len(sim)} sim, {len(host)} host")
        tracks: dict[str, int] = {}
        for e in sim:
            tracks[e.track] = tracks.get(e.track, 0) + 1
        for track in sorted(tracks):
            lines.append(f"  track {track}: {tracks[track]} events")

        resilience = self.resilience_events()
        if resilience:
            lines.append("-- resilience timeline --")
            for e in resilience:
                where = f"rank {e.rank}" if e.rank is not None else "simulator"
                extras = " ".join(f"{k}={v}" for k, v in e.args)
                lines.append(
                    f"  {e.start:14.6f}s {e.name:>8} {where}"
                    + (f"  {extras}" if extras else "")
                )
            stats = self.detection_stats()
            if stats:
                lines.append("-- per-rank detection latency --")
                for rank, s in stats.items():
                    lines.append(
                        f"  rank {rank}: n={s.count} min={s.min:.6f}s "
                        f"mean={s.mean:.6f}s max={s.max:.6f}s"
                    )
        else:
            lines.append("-- no resilience events --")

        if max_rows:
            lines.append("-- joined timeline (head) --")
            for time, desc in self.joined_rows()[:max_rows]:
                lines.append(f"  {time:14.6f}s {desc}")
        return "\n".join(lines) + "\n"
