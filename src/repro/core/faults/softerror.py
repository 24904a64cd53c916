"""Soft-error (bit flip) injection into simulated process memory.

The paper's future work (1): "injecting soft errors", enabled by "the
tracking of dynamic memory allocation of simulated MPI processes, which was
the last piece needed to develop a soft error injector."

A flip targets one uniformly random bit of the victim rank's tracked live
footprint (:class:`repro.models.memory.MemoryTracker`).  Its effect follows
the hit region's kind:

* ``CRITICAL`` (pointers, code, runtime state) — the process crashes: a
  process failure is armed at the flip time and activates at the rank's
  next simulator control point, feeding the ordinary failure
  detection/notification/abort machinery;
* ``DATA`` — silent data corruption: if the region is backed by a real
  numpy array the bit is *really* flipped, so applications running in
  real-data mode propagate the corruption through their computation (the
  redMPI-style experiments);
* ``UNUSED`` — benign.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.models.memory import FlipRecord, MemoryTracker, RegionKind
from repro.pdes.engine import Engine
from repro.util.errors import ConfigurationError
from repro.util.rng import Stream


class Effect(enum.Enum):
    """Observable consequence of one injected bit flip."""

    CRASH = "crash"
    SDC = "sdc"
    BENIGN = "benign"
    NO_TARGET = "no-target"
    """The victim was already dead or had no tracked memory."""


@dataclass(frozen=True)
class SoftErrorOutcome:
    """One injected flip and its consequence."""

    time: float
    rank: int
    effect: Effect
    record: FlipRecord | None


@dataclass
class SoftErrorInjector:
    """Schedules bit flips into a running simulation.

    Attach one injector per :class:`~repro.pdes.engine.Engine`; outcomes
    accumulate in :attr:`outcomes` for post-run analysis.
    """

    engine: Engine
    memory: MemoryTracker
    rng: Stream
    #: When False, CRITICAL hits are recorded but do not kill the process
    #: (Finject-style counting experiments).
    crash_on_critical: bool = True
    outcomes: list[SoftErrorOutcome] = field(default_factory=list)

    def schedule_flip(self, rank: int, time: float) -> None:
        """Inject one flip into ``rank`` at virtual ``time``."""
        if time < self.engine.start_time:
            raise ConfigurationError(
                f"flip time {time} precedes simulation start {self.engine.start_time}"
            )
        self.engine.schedule(time, self._do_flip, rank, time)

    def schedule_poisson(
        self, rate_per_rank: float, horizon: float, ranks: list[int] | None = None
    ) -> int:
        """Inject flips as independent Poisson processes (``rate_per_rank``
        flips/second per rank) over ``[start, start + horizon)``.

        Returns the number of scheduled flips.
        """
        if rate_per_rank < 0 or horizon <= 0:
            raise ConfigurationError("need rate >= 0 and horizon > 0")
        targets = ranks if ranks is not None else list(range(len(self.engine.vps)))
        if not targets:
            raise ConfigurationError(
                "no target ranks: pass ranks= explicitly when scheduling "
                "before the job is launched"
            )
        count = 0
        start = self.engine.start_time
        for rank in targets:
            t = start
            while True:
                t += float(self.rng.exponential(1.0 / rate_per_rank)) if rate_per_rank > 0 else horizon
                if t >= start + horizon:
                    break
                self.schedule_flip(rank, t)
                count += 1
        return count

    # ------------------------------------------------------------------
    def _do_flip(self, rank: int, time: float) -> None:
        vp = self.engine.vps[rank] if rank < len(self.engine.vps) else None
        if vp is None or not vp.alive or self.memory.footprint(rank) == 0:
            self.outcomes.append(SoftErrorOutcome(time, rank, Effect.NO_TARGET, None))
            return
        record = self.memory.flip_random_bit(rank, self.rng)
        if record.kind is RegionKind.CRITICAL:
            effect = Effect.CRASH
            if self.crash_on_critical:
                self.engine.log.log(
                    time, "soft-error", f"bit flip in critical region {record.region!r}", rank=rank
                )
                self.engine.schedule_failure(rank, time)
        elif record.kind is RegionKind.DATA:
            effect = Effect.SDC
        else:
            effect = Effect.BENIGN
        self.outcomes.append(SoftErrorOutcome(time, rank, effect, record))

    # ------------------------------------------------------------------
    def counts(self) -> dict[Effect, int]:
        """Outcome histogram of the campaign so far."""
        out: dict[Effect, int] = {e: 0 for e in Effect}
        for o in self.outcomes:
            out[o.effect] += 1
        return out
