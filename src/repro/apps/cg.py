"""Conjugate-gradient proxy application (Mantevo-style mini-app).

The co-design ecosystem the paper situates itself in runs "proxy/mini
applications" (SST + the Mantevo project) whose communication patterns
differ from stencil codes: a CG solve is dominated by *global* allreduce
dot products every iteration, interleaved with a halo-exchange sparse
matrix-vector product.  That makes it latency/collective-bound where
heat3d is compute-bound — the complementary workload a resilience study
needs (checkpoint-phase barriers are marginal for heat3d but CG already
synchronizes globally every iteration).

The solver is distributed CG on the standard 7-point 3-D Laplacian with
Dirichlet boundaries, decomposed into cubes like heat3d:

* ``modeled`` mode: per-iteration flops and message sizes only;
* ``real`` mode: the actual distributed CG iteration on numpy arrays —
  halo exchanges carry face data, dot products go through the simulated
  ``allreduce`` — validated against a serial reference solve.

Checkpointing stores (iteration, x, r, p) per rank with the same
write/barrier/prune discipline as the paper's target application.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Any, Generator

from repro.apps.heat3d import BlockDecomposed, factor3, halo_exchange, halo_plan, rank_coords
from repro.core.checkpoint.protocol import resolve_protocol
from repro.mpi import ops
from repro.mpi.api import MpiApi
from repro.util.errors import ConfigurationError
from repro.util.lazy import np

Gen = Generator[Any, Any, Any]

#: Calibrated native per-point cost of one CG iteration (SpMV + 3 axpys +
#: 2 local dot products) on the reference core.
NATIVE_SECONDS_PER_POINT_ITER = 2.6e-6

_HALO_TAGS = {(0, -1): 21, (0, +1): 22, (1, -1): 23, (1, +1): 24, (2, -1): 25, (2, +1): 26}


@dataclass(frozen=True)
class CgConfig(BlockDecomposed):
    """Distributed CG solve parameters."""

    grid: tuple[int, int, int] = (64, 64, 64)
    ranks: tuple[int, int, int] = (4, 4, 4)
    max_iterations: int = 100
    tolerance: float = 1e-8
    checkpoint_interval: int = 25
    native_seconds_per_point_iter: float = NATIVE_SECONDS_PER_POINT_ITER
    data_mode: str = "modeled"
    item_bytes: int = 8
    checkpoint_header_bytes: int = 256

    def __post_init__(self) -> None:
        if self.data_mode not in ("modeled", "real"):
            raise ConfigurationError(f"data_mode must be modeled/real, got {self.data_mode!r}")
        if self.max_iterations < 1 or self.checkpoint_interval < 1:
            raise ConfigurationError("max_iterations and checkpoint_interval must be >= 1")
        for g, p in zip(self.grid, self.ranks):
            if p < 1 or g < p or g % p:
                raise ConfigurationError(f"grid {self.grid} not divisible by ranks {self.ranks}")

    @classmethod
    def for_ranks(cls, nranks: int, points_per_side: int = 8, **overrides: Any) -> "CgConfig":
        px, py, pz = factor3(nranks)
        base = cls(
            grid=(points_per_side * px, points_per_side * py, points_per_side * pz),
            ranks=(px, py, pz),
        )
        return replace(base, **overrides) if overrides else base

    @cached_property
    def checkpoint_nbytes(self) -> int:
        """x, r, and p vectors plus the header."""
        return self.checkpoint_header_bytes + 3 * self.points_per_rank * self.item_bytes


@dataclass(frozen=True)
class CgResult:
    """Per-rank outcome of a CG solve."""

    rank: int
    iterations: int
    converged: bool
    residual_norm: float | None
    solution_norm_sq: float | None
    restarted_from: int


# ----------------------------------------------------------------------
# real-data linear algebra
# ----------------------------------------------------------------------
def rhs_block(cfg: CgConfig, rank: int) -> np.ndarray:
    """This rank's block of the deterministic right-hand side."""
    lx, ly, lz = cfg.local_shape
    cx, cy, cz = rank_coords(rank, cfg.ranks)
    nx, ny, nz = cfg.grid
    gx = np.arange(cx * lx, (cx + 1) * lx)
    gy = np.arange(cy * ly, (cy + 1) * ly)
    gz = np.arange(cz * lz, (cz + 1) * lz)
    fx = np.sin(2 * np.pi * (gx + 0.5) / nx) + 0.1
    fy = np.cos(2 * np.pi * (gy + 0.5) / ny) + 0.1
    fz = np.sin(4 * np.pi * (gz + 0.5) / nz) + 0.1
    return (fx[:, None, None] * fy[None, :, None] * fz[None, None, :]).astype(np.float64)


def apply_laplacian(p_ghost: np.ndarray) -> np.ndarray:
    """7-point operator ``A p`` on the interior of a ghosted block
    (Dirichlet zero outside the global domain)."""
    core = p_ghost[1:-1, 1:-1, 1:-1]
    return (
        6.0 * core
        - p_ghost[:-2, 1:-1, 1:-1]
        - p_ghost[2:, 1:-1, 1:-1]
        - p_ghost[1:-1, :-2, 1:-1]
        - p_ghost[1:-1, 2:, 1:-1]
        - p_ghost[1:-1, 1:-1, :-2]
        - p_ghost[1:-1, 1:-1, 2:]
    )


def cg_serial_reference(cfg: CgConfig) -> tuple[np.ndarray, int, float]:
    """Serial CG on the global grid: (solution, iterations, residual)."""
    nx, ny, nz = cfg.grid
    b = np.zeros((nx, ny, nz))
    for rank in range(cfg.nranks):
        lx, ly, lz = cfg.local_shape
        cx, cy, cz = rank_coords(rank, cfg.ranks)
        b[cx * lx:(cx + 1) * lx, cy * ly:(cy + 1) * ly, cz * lz:(cz + 1) * lz] = rhs_block(
            cfg, rank
        )
    x = np.zeros_like(b)
    r = b.copy()
    p = r.copy()
    rs = float((r * r).sum())
    tol2 = cfg.tolerance**2 * rs
    it = 0
    while it < cfg.max_iterations and rs > tol2:
        pg = np.zeros((nx + 2, ny + 2, nz + 2))
        pg[1:-1, 1:-1, 1:-1] = p
        ap = apply_laplacian(pg)
        alpha = rs / float((p * ap).sum())
        x += alpha * p
        r -= alpha * ap
        rs_new = float((r * r).sum())
        p = r + (rs_new / rs) * p
        rs = rs_new
        it += 1
    return x, it, float(np.sqrt(rs))


# ----------------------------------------------------------------------
# the application
# ----------------------------------------------------------------------
def cg(mpi: MpiApi, cfg: CgConfig, store: Any = None) -> Gen:
    """Distributed conjugate-gradient solve (generator coroutine)."""
    yield from mpi.init()
    if cfg.nranks != mpi.size:
        raise ConfigurationError(f"config is for {cfg.nranks} ranks, job has {mpi.size}")
    plan = halo_plan(mpi, cfg, _HALO_TAGS)
    real = cfg.data_mode == "real"
    lx, ly, lz = cfg.local_shape

    x = r = p = None
    if real:
        b = rhs_block(cfg, mpi.rank)
        x = np.zeros_like(b)
        r = b.copy()
        p = r.copy()
        mpi.malloc("x", array=x)
        mpi.malloc("r", array=r)

    proto = resolve_protocol(mpi, store)
    start_iter = 0
    if proto is not None:
        cid, payload = yield from proto.restore_latest()
        if cid is not None:
            start_iter = cid
            if real:
                x = payload["x"].copy()
                r = payload["r"].copy()
                p = payload["p"].copy()
                mpi.malloc("x", array=x)
                mpi.malloc("r", array=r)

    # global residual norm (one allreduce, like the real solver's setup)
    local_rs = float((r * r).sum()) if real else None
    rs = yield from mpi.allreduce(local_rs, nbytes=8, op=ops.SUM)
    tol2 = cfg.tolerance**2 * rs if real else None

    it = start_iter
    converged = False
    while it < cfg.max_iterations:
        # SpMV: exchange the search direction's halo, apply the operator
        pg = None
        if real:
            pg = np.zeros((lx + 2, ly + 2, lz + 2))
            pg[1:-1, 1:-1, 1:-1] = p
        yield from halo_exchange(mpi, plan, pg)
        yield from mpi.compute_ops(cfg.points_per_rank, cfg.native_seconds_per_point_iter)
        if real:
            ap = apply_laplacian(pg)
            local_pap = float((p * ap).sum())
        else:
            local_pap = None
        pap = yield from mpi.allreduce(local_pap, nbytes=8, op=ops.SUM)
        if real:
            alpha = rs / pap
            x += alpha * p
            r -= alpha * ap
            local_rs = float((r * r).sum())
        rs_new = yield from mpi.allreduce(local_rs, nbytes=8, op=ops.SUM)
        if real:
            p = r + (rs_new / rs) * p
            rs = rs_new
        it += 1
        if real and rs <= tol2:
            converged = True
        if proto is not None and (
            it % cfg.checkpoint_interval == 0 or it == cfg.max_iterations or converged
        ):
            payload = {
                "iteration": it,
                "x": x.copy() if real else None,
                "r": r.copy() if real else None,
                "p": p.copy() if real else None,
            }
            yield from proto.checkpoint(it, payload, cfg.checkpoint_nbytes)
        if converged:
            break

    yield from mpi.finalize()
    return CgResult(
        rank=mpi.rank,
        iterations=it,
        converged=converged,
        residual_norm=float(np.sqrt(rs)) if real else None,
        solution_norm_sq=float((x * x).sum()) if real else None,
        restarted_from=start_iter,
    )


def scenario_workload(scenario: Any, interval: int) -> tuple[Any, Any]:
    """``(app, make_args)`` for a :class:`~repro.run.scenario.Scenario`
    that names this application (the ``APPS`` table entry): the generator
    and the per-segment argument builder, given the strategy's store.
    ``interval`` is the checkpoint cadence the strategy asks for."""
    cfg = CgConfig.for_ranks(
        scenario.ranks, max_iterations=scenario.iterations, checkpoint_interval=interval
    )
    return cg, (lambda store: (cfg, store))
