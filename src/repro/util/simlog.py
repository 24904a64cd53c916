"""Structured simulator log.

xSim prints informational messages on the command line when notable
simulated events occur — e.g. the time and rank of an injected process
failure, or of an ``MPI_Abort``.  :class:`SimLog` records those messages as
structured entries (so tests and the experiment harness can assert on them)
and optionally echoes them to a stream like the original tool.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import IO, Iterator


@dataclass(frozen=True)
class LogEntry:
    """One informational simulator message."""

    time: float
    """Virtual time (seconds) the event occurred at."""
    category: str
    """Machine-matchable kind, e.g. ``"failure"``, ``"abort"``, ``"detect"``."""
    rank: int | None
    """Simulated MPI rank concerned, or ``None`` for whole-simulation events."""
    message: str
    level: str = "info"
    """Severity (``"info"``, ``"warning"``, ...); informational by default."""

    def render(self) -> str:
        """The command-line form of the message."""
        where = f"rank {self.rank}" if self.rank is not None else "simulator"
        return f"[xsim {self.time:14.6f}s {where}] {self.category}: {self.message}"


@dataclass
class SimLog:
    """Event log with category filtering.

    Parameters
    ----------
    stream:
        If given, every recorded entry is also written there as it is
        logged, mirroring xSim's command-line output.
    """

    stream: IO[str] | None = None
    entries: list[LogEntry] = field(default_factory=list)

    def log(
        self,
        time: float,
        category: str,
        message: str,
        rank: int | None = None,
        level: str = "info",
    ) -> None:
        """Record (and optionally echo) one entry."""
        entry = LogEntry(time=time, category=category, rank=rank, message=message, level=level)
        self.entries.append(entry)
        if self.stream is not None:
            print(entry.render(), file=self.stream)

    def category(self, category: str) -> list[LogEntry]:
        """All entries of one category, in log order."""
        return [e for e in self.entries if e.category == category]

    def __iter__(self) -> Iterator[LogEntry]:
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)
