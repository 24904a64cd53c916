"""AMR-like load-imbalanced application: a moving refinement front.

The other workloads decompose uniformly, so every rank advances in
lockstep and the shard balancer / resilience strategies never face skew.
This app models an adaptive-mesh-refinement pattern on a 1-D domain: each
rank owns ``base_cells`` coarse cells, and a refinement front — a window
of ranks around a centre that moves every ``regrid_interval`` iterations —
multiplies the cell count of nearby ranks by up to ``refine_factor``.
Per-iteration compute is proportional to the *current* cell count, so the
load profile is deliberately non-uniform and time-varying; neighbour flux
exchanges every iteration make the imbalance visible as wait time, and a
global cell census (``allreduce``) at every regrid models the
load-balancer bookkeeping.

Checkpoint sizes also track the live cell count, so resilience-strategy
comparisons see size-varying checkpoints.  Everything is a deterministic
function of (rank, iteration) — no RNG — so digests are stable across
backends and the restart discipline is exactly the heat3d one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Generator

from repro.core.checkpoint.protocol import resolve_protocol
from repro.mpi.api import MpiApi
from repro.mpi.constants import PROC_NULL
from repro.util.errors import ConfigurationError

Gen = Generator[Any, Any, Any]

#: Flux-exchange tags (left-going, right-going).
_TAG_LEFT = 31
_TAG_RIGHT = 32
#: Census allreduce payload (one double).
_CENSUS_NBYTES = 8


@dataclass(frozen=True)
class AmrConfig:
    """One AMR-like run: domain width, refinement shape, cadences."""

    nranks: int = 64
    #: Coarse cells per rank (the unrefined load).
    base_cells: int = 512
    iterations: int = 100
    checkpoint_interval: int = 25
    #: Iterations between regrids (the front moves one step per regrid).
    regrid_interval: int = 10
    #: Peak cell multiplier at the centre of the refinement front.
    refine_factor: int = 4
    #: Ranks the front spans on each side of its centre (None = nranks/4,
    #: at least 1).
    front_halfwidth: int | None = None
    native_seconds_per_cell: float = 2.0e-6
    item_bytes: int = 8
    #: Wire bytes exchanged per neighbour flux per 16 cells.
    flux_bytes_per_16_cells: int = 8
    checkpoint_header_bytes: int = 256

    def __post_init__(self) -> None:
        if self.nranks < 1:
            raise ConfigurationError(f"nranks must be >= 1, got {self.nranks}")
        if self.base_cells < 1:
            raise ConfigurationError(f"base_cells must be >= 1, got {self.base_cells}")
        if self.regrid_interval < 1:
            raise ConfigurationError(
                f"regrid_interval must be >= 1, got {self.regrid_interval}"
            )
        if self.refine_factor < 1:
            raise ConfigurationError(
                f"refine_factor must be >= 1, got {self.refine_factor}"
            )
        if self.front_halfwidth is not None and self.front_halfwidth < 1:
            raise ConfigurationError(
                f"front_halfwidth must be >= 1, got {self.front_halfwidth}"
            )

    @classmethod
    def for_ranks(cls, nranks: int, **overrides: Any) -> "AmrConfig":
        return cls(nranks=nranks, **overrides)

    @cached_property
    def halfwidth(self) -> int:
        if self.front_halfwidth is not None:
            return self.front_halfwidth
        return max(1, self.nranks // 4)

    def cells_at(self, rank: int, iteration: int) -> int:
        """Live cell count of ``rank`` during ``iteration`` (deterministic:
        the front centre advances one rank per regrid epoch, wrapping)."""
        epoch = iteration // self.regrid_interval
        centre = epoch % self.nranks
        distance = min((rank - centre) % self.nranks, (centre - rank) % self.nranks)
        w = self.halfwidth
        if distance >= w:
            return self.base_cells
        boost = (self.refine_factor - 1) * (w - distance) // w
        return self.base_cells * (1 + boost)

    def flux_nbytes(self, cells: int) -> int:
        return max(self.item_bytes, cells // 16 * self.flux_bytes_per_16_cells)

    def checkpoint_nbytes(self, cells: int) -> int:
        return self.checkpoint_header_bytes + cells * self.item_bytes


def amr(mpi: MpiApi, cfg: AmrConfig, store: Any = None) -> Gen:
    """The AMR-like app: compute-per-cell, neighbour flux, regrid census,
    heat3d-style checkpoint/restart."""
    yield from mpi.init()
    if cfg.nranks != mpi.size:
        raise ConfigurationError(f"config is for {cfg.nranks} ranks, job has {mpi.size}")
    rank, size = mpi.rank, mpi.size
    left = rank - 1 if rank > 0 else PROC_NULL
    right = rank + 1 if rank < size - 1 else PROC_NULL
    # Flux channels: the size follows the live cell count, so it is given
    # per exchange.
    flux = mpi.neighbor_plan(
        ((left, _TAG_LEFT, _TAG_RIGHT, None), (right, _TAG_RIGHT, _TAG_LEFT, None))
    )
    # Tracked allocation sized for the worst-case refined load.
    mpi.malloc("amr-cells", nbytes=cfg.base_cells * cfg.refine_factor * cfg.item_bytes)

    proto = resolve_protocol(mpi, store)
    start_iter = 0
    if proto is not None:
        cid, payload = yield from proto.restore_latest()
        if cid is not None:
            start_iter = cid

    it = start_iter
    ck = cfg.checkpoint_interval
    max_cells = 0
    while it < cfg.iterations:
        cells = cfg.cells_at(rank, it)
        max_cells = max(max_cells, cells)
        yield from mpi.compute_ops(cells, cfg.native_seconds_per_cell)
        # Neighbour flux exchange: refined ranks ship (and wait on)
        # proportionally more, so the imbalance surfaces as wait time.
        yield from mpi.neighbor_exchange(flux, nbytes=cfg.flux_nbytes(cells))
        it += 1
        # Regrid: global cell census (the load-balancer bookkeeping).
        if it % cfg.regrid_interval == 0 and it < cfg.iterations:
            yield from mpi.allreduce(None, nbytes=_CENSUS_NBYTES)
        if proto is not None and (it % ck == 0 or it == cfg.iterations):
            payload = {"iteration": it}
            yield from proto.checkpoint(it, payload, cfg.checkpoint_nbytes(cells))
    yield from mpi.finalize()
    return max_cells


def scenario_workload(scenario: Any, interval: int) -> tuple[Any, Any]:
    """``(app, make_args)`` for a :class:`~repro.run.scenario.Scenario`
    that names this application (the ``APPS`` table entry): the generator
    and the per-segment argument builder, given the strategy's store.
    ``interval`` is the checkpoint cadence the strategy asks for."""
    cfg = AmrConfig.for_ranks(
        scenario.ranks, iterations=scenario.iterations, checkpoint_interval=interval
    )
    return amr, (lambda store: (cfg, store))
