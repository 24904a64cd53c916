"""Structured simulator log.

xSim prints informational messages on the command line when notable
simulated events occur — e.g. the time and rank of an injected process
failure, or of an ``MPI_Abort``.  :class:`SimLog` records those messages as
structured entries (so tests and the experiment harness can assert on them);
:meth:`LogEntry.render` gives each its command-line form, which the CLI
prints once a run is over.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator


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
    """Event log with category filtering."""

    entries: list[LogEntry] = field(default_factory=list)

    def log(
        self,
        time: float,
        category: str,
        message: str,
        rank: int | None = None,
        level: str = "info",
    ) -> None:
        """Record one entry."""
        self.entries.append(
            LogEntry(time=time, category=category, rank=rank, message=message, level=level)
        )

    def category(self, category: str) -> list[LogEntry]:
        """All entries of one category, in log order."""
        return [e for e in self.entries if e.category == category]

    def __iter__(self) -> Iterator[LogEntry]:
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)
