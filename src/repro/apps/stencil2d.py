"""2-D five-point stencil application with the heat3d checkpoint discipline.

A second workload for the harness: the same
computation/halo/checkpoint/barrier cycle as the paper's target
application, but on a 2-D decomposition with four neighbours — different
surface-to-volume ratio, hence a different communication/computation
balance for ablation studies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Any, Generator

from repro.apps.heat3d import BlockDecomposed, halo_rows
from repro.core.checkpoint.protocol import resolve_protocol
from repro.mpi.api import MpiApi
from repro.util.errors import ConfigurationError
from repro.util.lazy import np

Gen = Generator[Any, Any, Any]

_TAGS = {(0, -1): 11, (0, +1): 12, (1, -1): 13, (1, +1): 14}


def factor2(n: int) -> tuple[int, int]:
    """Two near-equal factors of ``n``."""
    for a in range(int(math.isqrt(n)), 0, -1):
        if n % a == 0:
            return (n // a, a)
    raise ConfigurationError(f"cannot factor {n}")  # pragma: no cover


@dataclass(frozen=True)
class Stencil2dConfig(BlockDecomposed):
    grid: tuple[int, int] = (1024, 1024)
    ranks: tuple[int, int] = (4, 4)
    iterations: int = 100
    checkpoint_interval: int = 25
    native_seconds_per_point: float = 1.28e-6
    data_mode: str = "modeled"
    alpha: float = 0.2
    item_bytes: int = 8
    checkpoint_header_bytes: int = 256

    def __post_init__(self) -> None:
        if self.data_mode not in ("modeled", "real"):
            raise ConfigurationError(f"data_mode must be modeled/real, got {self.data_mode!r}")
        for g, p in zip(self.grid, self.ranks):
            if p < 1 or g < p or g % p:
                raise ConfigurationError(f"grid {self.grid} not divisible by ranks {self.ranks}")

    @classmethod
    def for_ranks(cls, nranks: int, points_per_rank_side: int = 64, **overrides: Any) -> "Stencil2dConfig":
        px, py = factor2(nranks)
        base = cls(grid=(px * points_per_rank_side, py * points_per_rank_side), ranks=(px, py))
        return replace(base, **overrides) if overrides else base

    @cached_property
    def checkpoint_nbytes(self) -> int:
        return self.checkpoint_header_bytes + self.points_per_rank * self.item_bytes


#: Edge of each halo-plan row, ``(axis, step)``.
_EDGES = tuple(_TAGS)

_EDGE_SEND = {
    (0, -1): lambda u: u[1, 1:-1],
    (0, +1): lambda u: u[-2, 1:-1],
    (1, -1): lambda u: u[1:-1, 1],
    (1, +1): lambda u: u[1:-1, -2],
}

_EDGE_RECV = {
    (0, -1): lambda u, v: u.__setitem__((0, slice(1, -1)), v),
    (0, +1): lambda u, v: u.__setitem__((-1, slice(1, -1)), v),
    (1, -1): lambda u, v: u.__setitem__((slice(1, -1), 0), v),
    (1, +1): lambda u, v: u.__setitem__((slice(1, -1), -1), v),
}


def _halo_plan(mpi: MpiApi, cfg: Stencil2dConfig) -> Any:
    """Bind this rank's four halo channels once (rows in ``_EDGES`` order)."""
    return mpi.neighbor_plan(halo_rows(mpi.rank, cfg.halo_axes, _TAGS))


def _halo(mpi: MpiApi, plan: Any, u: np.ndarray | None) -> Gen:
    if u is None:
        yield from mpi.neighbor_exchange(plan)
        return
    edges = yield from mpi.neighbor_exchange(
        plan, [np.ascontiguousarray(_EDGE_SEND[edge](u)) for edge in _EDGES]
    )
    for edge, values in zip(_EDGES, edges):
        if values is not None:
            _EDGE_RECV[edge](u, values)


def stencil2d(mpi: MpiApi, cfg: Stencil2dConfig, store: Any = None) -> Gen:
    """Five-point 2-D stencil with checkpoint/restart (same discipline as
    :func:`repro.apps.heat3d.heat3d`)."""
    yield from mpi.init()
    if cfg.nranks != mpi.size:
        raise ConfigurationError(f"config is for {cfg.nranks} ranks, job has {mpi.size}")
    real = cfg.data_mode == "real"
    u = None
    if real:
        lx, ly = cfg.local_shape
        rng = np.random.default_rng(1000 + mpi.rank)
        u = np.zeros((lx + 2, ly + 2))
        u[1:-1, 1:-1] = rng.random((lx, ly))
        mpi.malloc("grid", array=u)
    else:
        mpi.malloc("grid", nbytes=cfg.points_per_rank * cfg.item_bytes)

    proto = resolve_protocol(mpi, store)
    start_iter = 0
    if proto is not None:
        cid, payload = yield from proto.restore_latest()
        if cid is not None:
            start_iter = cid
            if real:
                u = payload["data"].copy()
                mpi.malloc("grid", array=u)
    plan = _halo_plan(mpi, cfg)
    yield from _halo(mpi, plan, u)

    it = start_iter
    ck = cfg.checkpoint_interval
    while it < cfg.iterations:
        target = min(cfg.iterations, ((it // ck) + 1) * ck)
        steps = target - it
        if real:
            for _ in range(steps):
                core = u[1:-1, 1:-1]
                core += cfg.alpha * (
                    u[:-2, 1:-1] + u[2:, 1:-1] + u[1:-1, :-2] + u[1:-1, 2:] - 4.0 * core
                )
        yield from mpi.compute_ops(steps * cfg.points_per_rank, cfg.native_seconds_per_point)
        it = target
        yield from _halo(mpi, plan, u)
        if proto is not None:
            payload = {"iteration": it, "data": u.copy() if real else None}
            yield from proto.checkpoint(it, payload, cfg.checkpoint_nbytes)
    yield from mpi.finalize()
    return float(u[1:-1, 1:-1].sum()) if real else None


def scenario_workload(scenario: Any, interval: int) -> tuple[Any, Any]:
    """``(app, make_args)`` for a :class:`~repro.run.scenario.Scenario`
    that names this application (the ``APPS`` table entry): the generator
    and the per-segment argument builder, given the strategy's store.
    ``interval`` is the checkpoint cadence the strategy asks for."""
    cfg = Stencil2dConfig.for_ranks(scenario.ranks, checkpoint_interval=interval)
    return stencil2d, (lambda store: (cfg, store))
