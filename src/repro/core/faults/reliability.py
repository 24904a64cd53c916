"""The paper's Table II failure placement, :class:`MttfInjectionPolicy`.

"The MPI process failure location is chosen randomly, i.e., a random MPI
rank within the total number of simulated MPI ranks and a random time
within 2 * MTTF_s.  This evenly distributed simulated system MTTF applies
to each application run separately, i.e., from start to finish/failure
and from restart to finish/failure."  Note the drawn time may exceed the
run's duration, in which case no failure activates — that is how rows
with F smaller than the restart count arise.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from repro.util.errors import ConfigurationError
from repro.util.rng import Stream


@dataclass(frozen=True)
class MttfInjectionPolicy:
    """The paper's Table II placement: uniform rank, uniform time in
    ``[0, 2 * system_mttf)`` per run segment."""

    system_mttf: float

    def __post_init__(self) -> None:
        # A failure time is drawn in [0, 2 * system_mttf): a finite bound.
        most = sys.float_info.max / 2
        if not 0 < self.system_mttf <= most:
            raise ConfigurationError(f"system_mttf must be in (0, {most!r}], got {self.system_mttf}")

    def draw(self, rng: Stream, nranks: int) -> tuple[int, float]:
        """(rank, time-relative-to-segment-start).  The expectation of the
        drawn time equals the system MTTF, hence "evenly distributed
        simulated system MTTF"."""
        if nranks < 1:
            raise ConfigurationError(f"nranks must be >= 1, got {nranks}")
        rank = int(rng.integers(0, nranks))
        time = float(rng.uniform(0.0, 2.0 * self.system_mttf))
        return rank, time
