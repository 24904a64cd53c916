"""Component/system reliability models and MTTF-driven failure placement.

Two layers:

* **Distributions** — :class:`ExponentialReliability` (constant hazard, the
  standard FIT-rate model HPC vendors quote) and
  :class:`WeibullReliability` (aging/infant-mortality shapes), the
  "component-based system reliability models" the paper's future work (2)
  targets.  A :class:`SystemReliability` composes per-node models into
  time-to-first-system-failure draws.
* **Placement policy** — :class:`MttfInjectionPolicy`, the paper's Table II
  configuration: "The MPI process failure location is chosen randomly,
  i.e., a random MPI rank within the total number of simulated MPI ranks
  and a random time within 2 * MTTF_s.  This evenly distributed simulated
  system MTTF applies to each application run separately, i.e., from start
  to finish/failure and from restart to finish/failure."  Note the drawn
  time may exceed the run's duration, in which case no failure activates —
  that is how rows with F smaller than the restart count arise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.util.errors import ConfigurationError
from repro.util.lazy import np


@dataclass(frozen=True)
class ExponentialReliability:
    """Constant-hazard component: time-to-failure ~ Exp(1/mttf).

    ``fit`` converts to/from the failures-in-time rate the paper mentions
    (failures expected in 1e9 hours of operation).
    """

    mttf: float

    def __post_init__(self) -> None:
        if self.mttf <= 0:
            raise ConfigurationError(f"mttf must be > 0, got {self.mttf}")

    @classmethod
    def from_fit(cls, fit: float) -> "ExponentialReliability":
        """Build from a FIT rate (failures per 1e9 hours)."""
        if fit <= 0:
            raise ConfigurationError(f"FIT rate must be > 0, got {fit}")
        return cls(mttf=1e9 * 3600.0 / fit)

    @property
    def fit(self) -> float:
        """Failures in 1e9 hours."""
        return 1e9 * 3600.0 / self.mttf

    def survival(self, t: float) -> float:
        """P(no failure before ``t``)."""
        return math.exp(-t / self.mttf)

    def hazard(self, t: float) -> float:  # noqa: ARG002 - constant by design
        """Instantaneous failure rate (constant for the exponential)."""
        return 1.0 / self.mttf

    def draw_ttf(self, rng: np.random.Generator) -> float:
        """Sample a time-to-failure."""
        return float(rng.exponential(self.mttf))


@dataclass(frozen=True)
class WeibullReliability:
    """Weibull time-to-failure: shape < 1 models infant mortality,
    shape > 1 models aging (both observed in HPC component studies)."""

    scale: float
    shape: float = 1.0

    def __post_init__(self) -> None:
        if self.scale <= 0 or self.shape <= 0:
            raise ConfigurationError(f"scale and shape must be > 0, got {self!r}")

    @property
    def mttf(self) -> float:
        return self.scale * math.gamma(1.0 + 1.0 / self.shape)

    def survival(self, t: float) -> float:
        """P(no failure before ``t``)."""
        if t < 0:
            return 1.0
        return math.exp(-((t / self.scale) ** self.shape))

    def hazard(self, t: float) -> float:
        """Instantaneous failure rate (shape-dependent)."""
        if t <= 0:
            return 0.0 if self.shape > 1 else math.inf if self.shape < 1 else 1.0 / self.scale
        return (self.shape / self.scale) * (t / self.scale) ** (self.shape - 1.0)

    def draw_ttf(self, rng: np.random.Generator) -> float:
        """Sample a time-to-failure."""
        return float(self.scale * rng.weibull(self.shape))


@dataclass(frozen=True)
class SystemReliability:
    """N identical independent components; system fails at the first
    component failure.  For exponential components the system MTTF is
    ``component_mttf / n`` — the scaling argument behind the paper's
    exascale resilience concern."""

    component: ExponentialReliability | WeibullReliability
    ncomponents: int

    def __post_init__(self) -> None:
        if self.ncomponents < 1:
            raise ConfigurationError(f"ncomponents must be >= 1, got {self.ncomponents}")

    @property
    def system_mttf(self) -> float:
        if isinstance(self.component, ExponentialReliability):
            return self.component.mttf / self.ncomponents
        # First-order-statistics mean of n iid Weibulls has closed form:
        # min of Weibull(scale, shape) over n ~ Weibull(scale * n^(-1/shape), shape).
        scaled = WeibullReliability(
            scale=self.component.scale * self.ncomponents ** (-1.0 / self.component.shape),
            shape=self.component.shape,
        )
        return scaled.mttf

    def draw_first_failure(self, rng: np.random.Generator) -> tuple[int, float]:
        """(failing component index, failure time) of the earliest failure.

        Ties on the minimum TTF break to the *lowest* component index —
        explicitly, so the winner does not depend on any numpy version's
        ``argmin`` scan order.
        """
        ttfs = [self.component.draw_ttf(rng) for _ in range(self.ncomponents)]
        idx = min(range(self.ncomponents), key=lambda i: (ttfs[i], i))
        return idx, float(ttfs[idx])


@dataclass(frozen=True)
class MttfInjectionPolicy:
    """The paper's Table II placement: uniform rank, uniform time in
    ``[0, 2 * system_mttf)`` per run segment."""

    system_mttf: float

    def __post_init__(self) -> None:
        if self.system_mttf <= 0:
            raise ConfigurationError(f"system_mttf must be > 0, got {self.system_mttf}")

    def draw(self, rng: np.random.Generator, nranks: int) -> tuple[int, float]:
        """(rank, time-relative-to-segment-start).  The expectation of the
        drawn time equals the system MTTF, hence "evenly distributed
        simulated system MTTF"."""
        if nranks < 1:
            raise ConfigurationError(f"nranks must be >= 1, got {nranks}")
        rank = int(rng.integers(0, nranks))
        time = float(rng.uniform(0.0, 2.0 * self.system_mttf))
        return rank, time
