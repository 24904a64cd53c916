"""Explicit fault schedules: fail-stop, straggler, link degrade, correlated.

Paper §IV-B: "xSim additionally offers to pass a simulated MPI process
failure schedule in the form of rank/time pairs on the command line or via
an environment variable on startup.  This is the typical method for
injecting failures at this point."

The textual format is a comma-separated list of entries; times accept the
unit suffixes of :func:`repro.util.units.parse_time`::

    3@100s                      fail-stop: rank 3 fails at t=100s
    straggler:3@100s+50s*2.5    rank 3 computes 2.5x slower for 50s
    straggler:3@100s*2.5        ... for the rest of the run
    link:0-1@10s+5s*4           link 0<->1 is 4x slower for 5s
    corr:5@200s~2               fail-stop rank 5 plus every rank within
                                2 topology hops of its node
    corr:5@200s~2+1s            ... with 1s of extra delay per hop

Fail-stop times are *earliest* failure times, exactly as the
simulator-internal trigger function interprets them.  Straggler and link
factors must be >= 1: slowdowns only, so the sharded engine's conservative
lookahead (derived from the *undegraded* network) stays a valid lower
bound.

Schedules are canonical: entries are deduplicated and kept sorted by
(time, kind, rank), so ``parse(render(s))`` is the identity and merging
two schedules via :meth:`FailureSchedule.extend` cannot double-inject a
repeated entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Union

from repro.util.errors import ConfigurationError
from repro.util.units import parse_time


def _fmt(value: float) -> str:
    """Canonical textual form of a time/factor (``inf`` never rendered)."""
    return repr(float(value))


@dataclass(frozen=True)
class ScheduledFailure:
    """One fail-stop rank/time pair."""

    rank: int
    time: float

    kind = "failstop"

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise ConfigurationError(f"failure rank must be >= 0, got {self.rank}")
        if self.time < 0:
            raise ConfigurationError(f"failure time must be >= 0, got {self.time}")

    def render(self) -> str:
        return f"{self.rank}@{_fmt(self.time)}"


@dataclass(frozen=True)
class StragglerFault:
    """Rank ``rank`` computes ``factor``x slower during [time, time+duration).

    An infinite ``duration`` (the default) degrades the rank for the rest
    of the run.  Only compute advances are scaled; communication costs and
    failure-notification propagation are unaffected.
    """

    rank: int
    time: float
    factor: float
    duration: float = math.inf

    kind = "straggler"

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise ConfigurationError(f"straggler rank must be >= 0, got {self.rank}")
        if self.time < 0:
            raise ConfigurationError(f"straggler time must be >= 0, got {self.time}")
        if not self.factor >= 1.0:
            raise ConfigurationError(
                f"straggler factor must be >= 1 (slowdowns only), got {self.factor}"
            )
        if not self.duration > 0:
            raise ConfigurationError(
                f"straggler duration must be > 0, got {self.duration}"
            )

    @property
    def end(self) -> float:
        return self.time + self.duration

    def render(self) -> str:
        window = "" if math.isinf(self.duration) else f"+{_fmt(self.duration)}"
        return f"straggler:{self.rank}@{_fmt(self.time)}{window}*{_fmt(self.factor)}"


@dataclass(frozen=True)
class LinkDegradeFault:
    """The undirected link ``rank_a <-> rank_b`` degrades by ``factor``
    during [time, time+duration): wire latency is multiplied and effective
    bandwidth divided by the factor (the whole per-message transfer cost
    scales by ``factor``)."""

    rank_a: int
    rank_b: int
    time: float
    factor: float
    duration: float = math.inf

    kind = "link_degrade"

    def __post_init__(self) -> None:
        if self.rank_a < 0 or self.rank_b < 0:
            raise ConfigurationError(
                f"link ranks must be >= 0, got {self.rank_a}-{self.rank_b}"
            )
        if self.rank_a == self.rank_b:
            raise ConfigurationError(
                f"link endpoints must differ, got {self.rank_a}-{self.rank_b}"
            )
        if self.time < 0:
            raise ConfigurationError(f"link-degrade time must be >= 0, got {self.time}")
        if not self.factor >= 1.0:
            raise ConfigurationError(
                f"link-degrade factor must be >= 1 (slowdowns only), got {self.factor}"
            )
        if not self.duration > 0:
            raise ConfigurationError(
                f"link-degrade duration must be > 0, got {self.duration}"
            )
        # Canonical endpoint order: lower rank first.
        if self.rank_a > self.rank_b:
            a, b = self.rank_b, self.rank_a
            object.__setattr__(self, "rank_a", a)
            object.__setattr__(self, "rank_b", b)

    @property
    def end(self) -> float:
        return self.time + self.duration

    def render(self) -> str:
        window = "" if math.isinf(self.duration) else f"+{_fmt(self.duration)}"
        return (
            f"link:{self.rank_a}-{self.rank_b}@{_fmt(self.time)}"
            f"{window}*{_fmt(self.factor)}"
        )


@dataclass(frozen=True)
class CorrelatedFailure:
    """Spatially clustered fail-stop (Cielo-style): the seed ``rank`` fails
    at ``time``, and every rank whose node is within ``radius`` topology
    hops of the seed's node fails ``spread`` seconds later per hop."""

    rank: int
    time: float
    radius: int
    spread: float = 0.0

    kind = "correlated"

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise ConfigurationError(f"correlated seed rank must be >= 0, got {self.rank}")
        if self.time < 0:
            raise ConfigurationError(f"correlated time must be >= 0, got {self.time}")
        if self.radius < 0:
            raise ConfigurationError(
                f"correlated radius must be >= 0, got {self.radius}"
            )
        if self.spread < 0:
            raise ConfigurationError(
                f"correlated spread must be >= 0, got {self.spread}"
            )

    def render(self) -> str:
        spread = "" if self.spread == 0.0 else f"+{_fmt(self.spread)}"
        return f"corr:{self.rank}@{_fmt(self.time)}~{self.radius}{spread}"


#: Any entry a :class:`FailureSchedule` can hold.
FaultEntry = Union[ScheduledFailure, StragglerFault, LinkDegradeFault, CorrelatedFailure]

_KIND_ORDER = {"failstop": 0, "correlated": 1, "straggler": 2, "link_degrade": 3}


def _sort_key(entry: FaultEntry):
    if isinstance(entry, LinkDegradeFault):
        ranks: tuple[int, ...] = (entry.rank_a, entry.rank_b)
    else:
        ranks = (entry.rank,)
    duration = getattr(entry, "duration", 0.0)
    magnitude = getattr(entry, "factor", float(getattr(entry, "radius", 0)))
    spread = getattr(entry, "spread", 0.0)
    return (entry.time, _KIND_ORDER[entry.kind], ranks, duration, magnitude, spread)


def _canonical(entries: Iterable[FaultEntry]) -> list[FaultEntry]:
    """Dedupe (first occurrence wins) and sort into canonical order."""
    seen: set[FaultEntry] = set()
    unique: list[FaultEntry] = []
    for e in entries:
        if e not in seen:
            seen.add(e)
            unique.append(e)
    unique.sort(key=_sort_key)
    return unique


def _parse_window(text: str, what: str) -> tuple[float, float, float]:
    """Parse ``T[+DUR]*FACTOR`` into (time, duration, factor)."""
    if "*" not in text:
        raise ConfigurationError(
            f"bad {what} entry {text!r}; expected time[+duration]*factor"
        )
    timepart, factor_s = text.rsplit("*", 1)
    try:
        factor = float(factor_s)
    except ValueError as err:
        raise ConfigurationError(f"bad factor in {what} entry {text!r}") from err
    if "+" in timepart:
        time_s, dur_s = timepart.split("+", 1)
        duration = parse_time(dur_s)
    else:
        time_s, duration = timepart, math.inf
    return parse_time(time_s), duration, factor


def _parse_rank(text: str, item: str) -> int:
    try:
        return int(text)
    except ValueError as err:
        raise ConfigurationError(f"bad rank in {item!r}") from err


@dataclass
class FailureSchedule:
    """A canonically ordered, duplicate-free collection of fault entries."""

    entries: list[FaultEntry] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.entries = _canonical(self.entries)

    # -- construction ----------------------------------------------------
    @classmethod
    def of(cls, *pairs: tuple[int, float]) -> "FailureSchedule":
        """Build a fail-stop schedule from ``(rank, time)`` tuples."""
        return cls([ScheduledFailure(r, float(t)) for r, t in pairs])

    @classmethod
    def parse(cls, text: str) -> "FailureSchedule":
        """Parse the comma-separated command-line format (module docstring
        shows the per-kind grammar)."""
        entries: list[FaultEntry] = []
        text = text.strip()
        if not text:
            return cls(entries)
        for item in text.split(","):
            item = item.strip()
            entries.append(cls._parse_entry(item))
        return cls(entries)

    @staticmethod
    def _parse_entry(item: str) -> FaultEntry:
        if item.startswith("straggler:"):
            body = item[len("straggler:"):]
            if "@" not in body:
                raise ConfigurationError(
                    f"bad straggler entry {item!r}; expected "
                    "straggler:rank@time[+duration]*factor"
                )
            rank_s, rest = body.split("@", 1)
            time, duration, factor = _parse_window(rest, "straggler")
            return StragglerFault(_parse_rank(rank_s, item), time, factor, duration)
        if item.startswith("link:"):
            body = item[len("link:"):]
            if "@" not in body or "-" not in body.split("@", 1)[0]:
                raise ConfigurationError(
                    f"bad link entry {item!r}; expected "
                    "link:rankA-rankB@time[+duration]*factor"
                )
            pair_s, rest = body.split("@", 1)
            a_s, b_s = pair_s.split("-", 1)
            time, duration, factor = _parse_window(rest, "link")
            return LinkDegradeFault(
                _parse_rank(a_s, item), _parse_rank(b_s, item), time, factor, duration
            )
        if item.startswith("corr:"):
            body = item[len("corr:"):]
            if "@" not in body or "~" not in body:
                raise ConfigurationError(
                    f"bad correlated entry {item!r}; expected "
                    "corr:rank@time~radius[+spread]"
                )
            rank_s, rest = body.split("@", 1)
            time_s, radspec = rest.split("~", 1)
            if "+" in radspec:
                radius_s, spread_s = radspec.split("+", 1)
                spread = parse_time(spread_s)
            else:
                radius_s, spread = radspec, 0.0
            try:
                radius = int(radius_s)
            except ValueError as err:
                raise ConfigurationError(f"bad radius in {item!r}") from err
            return CorrelatedFailure(
                _parse_rank(rank_s, item), parse_time(time_s), radius, spread
            )
        if "@" not in item:
            raise ConfigurationError(
                f"bad failure schedule entry {item!r}; expected rank@time"
            )
        rank_s, time_s = item.split("@", 1)
        return ScheduledFailure(_parse_rank(rank_s, item), parse_time(time_s))

    # -- use -------------------------------------------------------------
    def add(self, rank: int, time: float) -> None:
        """Add one fail-stop rank/time pair (idempotent: a duplicate of an
        existing entry is dropped)."""
        self.entries = _canonical(self.entries + [ScheduledFailure(rank, float(time))])

    def extend(self, other: "FailureSchedule") -> None:
        """Merge another schedule in (duplicates collapse instead of
        double-injecting)."""
        self.entries = _canonical(self.entries + other.entries)

    def validate(self, nranks: int) -> None:
        """Reject entries targeting ranks outside an ``nranks`` job, and
        any rank scheduled to fail more than once."""
        failing: dict[int, FaultEntry] = {}
        for e in self.entries:
            ranks = (
                (e.rank_a, e.rank_b) if isinstance(e, LinkDegradeFault) else (e.rank,)
            )
            for rank in ranks:
                if rank >= nranks:
                    raise ConfigurationError(
                        f"failure schedule targets rank {rank} but the job "
                        f"has {nranks} ranks"
                    )
            if isinstance(e, (ScheduledFailure, CorrelatedFailure)):
                prior = failing.get(e.rank)
                if prior is not None:
                    raise ConfigurationError(
                        f"rank {e.rank} is scheduled to fail twice "
                        f"({prior.render()!r} and {e.render()!r}); a rank "
                        "can fail at most once per run segment"
                    )
                failing[e.rank] = e

    def shifted(self, offset: float) -> "FailureSchedule":
        """Schedule with all times shifted by ``offset`` (restart segments
        interpret per-segment times relative to segment start)."""
        import dataclasses

        return FailureSchedule(
            [dataclasses.replace(e, time=e.time + offset) for e in self.entries]
        )

    def render(self) -> str:
        """The canonical textual form (``parse`` round-trips it)."""
        return ",".join(e.render() for e in self.entries)

    def __iter__(self) -> Iterator[FaultEntry]:
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __bool__(self) -> bool:
        return bool(self.entries)


def expand_correlated(
    fault: CorrelatedFailure, network, nranks: int
) -> list[tuple[int, float]]:
    """Expand a correlated failure into concrete (rank, time) fail-stops:
    every rank whose node is within ``fault.radius`` hops of the seed's
    node, delayed by ``spread`` per hop.  Sorted by rank; overlaps with
    other schedule entries resolve to the earliest failure time in the
    engine."""
    out: list[tuple[int, float]] = []
    for rank in range(nranks):
        hops = network.hops(fault.rank, rank)
        if hops <= fault.radius:
            out.append((rank, fault.time + hops * fault.spread))
    return out
