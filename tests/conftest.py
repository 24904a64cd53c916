"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import pytest
from hypothesis import HealthCheck, settings

# Property tests share the box with long simulation benchmarks; wall-clock
# deadlines would make them flaky under CPU contention.
settings.register_profile(
    "repro", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("repro")

from repro.core.harness.config import SystemConfig
from repro.core.simulator import XSim
from repro.pdes.engine import SimulationResult


@dataclass
class AppRun:
    """An executed simulation plus its plumbing, for assertions."""

    sim: XSim
    result: SimulationResult

    @property
    def world(self):
        return self.sim.world

    @property
    def engine(self):
        return self.sim.engine


def run_app(
    app,
    nranks: int = 2,
    args: tuple = (),
    system: SystemConfig | None = None,
    failures: list[tuple[int, float]] | None = None,
    seed: int = 0,
    start_time: float = 0.0,
    **system_overrides: Any,
) -> AppRun:
    """Run ``app`` on a small fast test machine and return the outcome."""
    if system is None:
        system = SystemConfig.small_test_system(nranks=nranks, **system_overrides)
    sim = XSim(system, seed=seed, start_time=start_time)
    for rank, time in failures or []:
        sim.inject_failure(rank, time)
    result = sim.run(app, args=args)
    return AppRun(sim=sim, result=result)


def messages(sim: XSim, name: str = "msg:post", **match: Any) -> list[dict]:
    """The ``name`` instants (``msg:post`` / ``msg:deliver`` /
    ``msg:drop``) of a ``trace_detail`` run, each as a dict of its args
    plus ``time``, ``src`` and ``dst``, in time order and keeping those
    whose fields equal ``match`` (``ctx=2``, ``dst=1``, ...)."""
    out = []
    for e in sorted(sim.observer.sim_events(), key=lambda e: e.sort_key()):
        if e.name == name:
            m = dict(e.args, time=e.start)
            m.setdefault("src", e.rank)  # a post is on its sender's track,
            m.setdefault("dst", e.rank)  # an arrival on its receiver's
            if all(m[k] == v for k, v in match.items()):
                out.append(m)
    return out


@pytest.fixture
def small_system() -> SystemConfig:
    """An 8-rank zero-overhead machine with a 1 s detection timeout."""
    return SystemConfig.small_test_system(nranks=8)
