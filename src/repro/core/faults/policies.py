"""Failure-injection policies for run segments.

The Table II experiments draw **one** failure per run segment, uniformly
over rank and over ``[0, 2 x MTTF_s)``
(:class:`~repro.core.faults.reliability.MttfInjectionPolicy`).  The paper's
future work (2) targets "developing component-based system reliability
models"; :class:`ReliabilityInjectionPolicy` is that generalisation: every
simulated node draws an independent time-to-failure from a component
reliability model (exponential or Weibull), and *every* draw that lands
within the horizon is injected — so a segment can suffer zero, one, or
several failures, with system-level failure statistics emerging from the
component model instead of being imposed.

Both policies implement the :class:`InjectionPolicy` protocol consumed by
:class:`~repro.core.restart.RestartDriver`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

from repro.core.faults.reliability import (
    ExponentialReliability,
    MttfInjectionPolicy,
    WeibullReliability,
)
from repro.util.errors import ConfigurationError
from repro.util.lazy import np


class InjectionPolicy(Protocol):
    """Draws the failures to inject into one run segment."""

    def draw_segment(
        self, rng: np.random.Generator, nranks: int, horizon: float
    ) -> list[tuple[int, float]]:
        """(rank, time-relative-to-segment-start) pairs to arm.

        ``horizon`` bounds how far ahead draws are useful (times beyond it
        can never activate); policies may ignore it when their draw is
        naturally bounded.
        """
        ...


@dataclass(frozen=True)
class SingleUniformFailurePolicy:
    """The paper's Table II policy as an :class:`InjectionPolicy`:
    one uniform-rank failure at a uniform time within ``2 x MTTF_s``."""

    system_mttf: float

    def __post_init__(self) -> None:
        if self.system_mttf <= 0:
            raise ConfigurationError(f"system_mttf must be > 0, got {self.system_mttf}")

    def draw_segment(
        self, rng: np.random.Generator, nranks: int, horizon: float
    ) -> list[tuple[int, float]]:
        """One uniform (rank, time) pair; the horizon is ignored (the draw
        is bounded by 2 x MTTF by construction)."""
        rank, time = MttfInjectionPolicy(self.system_mttf).draw(rng, nranks)
        return [(rank, time)]


@dataclass(frozen=True)
class ReliabilityInjectionPolicy:
    """Component-model-driven injection (paper future work 2).

    Each rank's node draws an independent time-to-first-failure from
    ``component``; draws within the horizon are injected.  With
    exponential components of MTTF ``m``, the system MTTF is ``m / n`` —
    configure via :meth:`for_system_mttf` to target a system-level rate.
    """

    component: ExponentialReliability | WeibullReliability

    @classmethod
    def for_system_mttf(
        cls, system_mttf: float, nranks: int, shape: float | None = None
    ) -> "ReliabilityInjectionPolicy":
        """Exponential (or Weibull with ``shape``) components sized so the
        *system* mean-time-to-first-failure is ``system_mttf`` for an
        ``nranks``-node machine."""
        if system_mttf <= 0 or nranks < 1:
            raise ConfigurationError("need system_mttf > 0 and nranks >= 1")
        component_mttf = system_mttf * nranks
        if shape is None or shape == 1.0:
            return cls(ExponentialReliability(mttf=component_mttf))
        # Min of n iid Weibull(scale, k) ~ Weibull(scale * n^(-1/k), k);
        # invert for the component scale giving the target system MTTF.
        import math

        system_scale = system_mttf / math.gamma(1.0 + 1.0 / shape)
        scale = system_scale * nranks ** (1.0 / shape)
        return cls(WeibullReliability(scale=scale, shape=shape))

    def draw_segment(
        self, rng: np.random.Generator, nranks: int, horizon: float
    ) -> list[tuple[int, float]]:
        """Independent per-node time-to-failure draws within the horizon,
        sorted by time (zero, one, or many failures per segment)."""
        if nranks < 1 or horizon <= 0:
            raise ConfigurationError("need nranks >= 1 and horizon > 0")
        out: list[tuple[int, float]] = []
        for rank in range(nranks):
            ttf = self.component.draw_ttf(rng)
            if ttf < horizon:
                out.append((rank, float(ttf)))
        out.sort(key=lambda pair: pair[1])
        return out
