"""Token-ring microbenchmark application.

A token circulates rank 0 -> 1 -> ... -> N-1 -> 0, ``rounds`` times.  The
per-hop virtual latency exercises the point-to-point path (eager or
rendezvous depending on ``token_bytes``), and the app doubles as a failure
demonstration: killing any rank breaks the ring and the blocked successor
detects it via the network timeout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator

from repro.mpi.api import MpiApi


@dataclass(frozen=True)
class RingConfig:
    rounds: int = 1
    token_bytes: int = 8
    #: Optional modeled work between hops (simulated seconds).
    compute_per_hop: float = 0.0


def ring(mpi: MpiApi, cfg: RingConfig) -> Generator[Any, Any, float]:
    """Returns the virtual time this rank finished its part."""
    yield from mpi.init()
    size = mpi.size
    left = (mpi.rank - 1) % size
    right = (mpi.rank + 1) % size
    for round_no in range(cfg.rounds):
        if mpi.rank == 0:
            yield from mpi.send(right, nbytes=cfg.token_bytes, tag=round_no)
            yield from mpi.recv(left, tag=round_no)
        else:
            yield from mpi.recv(left, tag=round_no)
            if cfg.compute_per_hop > 0.0:
                yield from mpi.compute(cfg.compute_per_hop)
            yield from mpi.send(right, nbytes=cfg.token_bytes, tag=round_no)
    done = mpi.wtime()
    yield from mpi.finalize()
    return done


def scenario_workload(scenario: Any, interval: int) -> tuple[Any, Any]:
    """``(app, make_args)`` for a :class:`~repro.run.scenario.Scenario`
    that names this application (the ``APPS`` table entry): the generator
    and the per-segment argument builder, given the strategy's store.
    ``interval`` is unused: the ring keeps no checkpoints."""
    cfg = RingConfig(rounds=scenario.iterations)
    return ring, (lambda store: (cfg,))
