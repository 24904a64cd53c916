"""Minimal compute/checkpoint loop with analytically known behaviour.

``naive_cr`` does nothing but compute for ``work`` virtual seconds, cut
into checkpoint segments of ``tau`` seconds, each followed by a checkpoint
of cost ``delta`` (modeled directly as virtual time, plus the barrier).
Because every quantity is a configuration parameter, Daly's expected
completion-time model applies exactly — this is the workload behind
:mod:`benchmarks.test_daly_validation`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Generator

from repro.core.checkpoint.protocol import CheckpointProtocol
from repro.core.checkpoint.store import CheckpointStore
from repro.mpi.api import MpiApi
from repro.util.errors import ConfigurationError

Gen = Generator[Any, Any, Any]


@dataclass(frozen=True)
class NaiveCrConfig:
    """``work`` seconds of useful computation, checkpoint every ``tau``
    seconds of work at ``delta`` seconds checkpoint cost."""

    work: float = 1000.0
    tau: float = 100.0
    delta: float = 5.0
    checkpoint_nbytes: int = 1024

    def __post_init__(self) -> None:
        if min(self.work, self.tau) <= 0 or self.delta < 0:
            raise ConfigurationError(f"invalid NaiveCrConfig {self!r}")

    @property
    def segments(self) -> int:
        return math.ceil(self.work / self.tau)


def naive_cr(mpi: MpiApi, cfg: NaiveCrConfig, store: CheckpointStore | None = None) -> Gen:
    """Compute/checkpoint loop; checkpoint ids count completed segments."""
    yield from mpi.init()
    proto = CheckpointProtocol(mpi, store) if store is not None else None
    segments_done = 0
    if proto is not None:
        cid, payload = yield from proto.restore_latest()
        if cid is not None:
            segments_done = cid
    while segments_done < cfg.segments:
        remaining = cfg.work - segments_done * cfg.tau
        yield from mpi.compute(min(cfg.tau, remaining))
        segments_done += 1
        if proto is not None:
            if cfg.delta > 0:
                yield from mpi.compute(cfg.delta)  # modeled checkpoint cost
            yield from proto.checkpoint(
                segments_done, {"segment": segments_done}, cfg.checkpoint_nbytes
            )
    yield from mpi.finalize()
    return segments_done
