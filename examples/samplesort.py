"""Distributed sample sort — an alltoall(v)-dominated proxy application.

A third communication profile next to the stencil (heat3d, nearest
neighbour) and the CG solver (global allreduces): sample sort's data
redistribution is a single *all-to-all with highly variable per-pair
volumes*, the pattern that stresses bisection bandwidth rather than
latency or collectives.

The algorithm (classic p-splitter sample sort):

1. each rank sorts its local block;
2. each rank samples ``oversample`` local splitter candidates; a gather
   collects them at rank 0, which picks the p-1 global splitters and
   broadcasts them;
3. each rank partitions its sorted block by the splitters and exchanges
   partitions with every peer in one alltoallv;
4. each rank merges what it received: the concatenation over ranks is the
   globally sorted sequence.

``real`` mode carries actual numpy data end to end (validated against
``np.sort`` of the concatenated inputs); ``modeled`` mode ships the same
expected volumes as size-only messages.

It sits beside ``trace_analysis.py``, which imports it; tests and the
workload-sensitivity benchmark load it by path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator

from repro.mpi.api import MpiApi
from repro.util.errors import ConfigurationError
from repro.util.lazy import np

Gen = Generator[Any, Any, Any]

#: Calibrated native cost of sorting one element (n log n amortized).
NATIVE_SECONDS_PER_KEY = 1.0e-7


@dataclass(frozen=True)
class SampleSortConfig:
    """Workload parameters."""

    keys_per_rank: int = 4096
    oversample: int = 8
    data_mode: str = "real"
    native_seconds_per_key: float = NATIVE_SECONDS_PER_KEY
    item_bytes: int = 8
    seed: int = 2013

    def __post_init__(self) -> None:
        if self.keys_per_rank < 1 or self.oversample < 1:
            raise ConfigurationError("keys_per_rank and oversample must be >= 1")
        if self.data_mode not in ("modeled", "real"):
            raise ConfigurationError(f"data_mode must be modeled/real, got {self.data_mode!r}")


@dataclass(frozen=True)
class SampleSortResult:
    """Per-rank outcome: this rank's slice of the global order."""

    rank: int
    count: int
    local_min: float | None
    local_max: float | None
    checksum: float | None


def local_block(cfg: SampleSortConfig, rank: int) -> np.ndarray:
    """Deterministic unsorted input block of this rank."""
    rng = np.random.Generator(np.random.PCG64(cfg.seed * 100_003 + rank))
    return rng.random(cfg.keys_per_rank)


def samplesort(mpi: MpiApi, cfg: SampleSortConfig) -> Gen:
    """The sample-sort application (generator coroutine)."""
    yield from mpi.init()
    size = mpi.size
    real = cfg.data_mode == "real"
    n = cfg.keys_per_rank

    data = local_block(cfg, mpi.rank) if real else None
    if real:
        mpi.malloc("keys", array=data)

    # 1. local sort: n log2 n key operations
    if real:
        data.sort()
    sort_ops = n * max(1.0, np.log2(n))
    yield from mpi.compute_ops(sort_ops, cfg.native_seconds_per_key)

    # 2. splitter selection: sample, gather, choose, broadcast
    sample = None
    if real:
        idx = np.linspace(0, n - 1, cfg.oversample, dtype=np.int64)
        sample = data[idx].copy()
    samples = yield from mpi.gather(sample, nbytes=cfg.oversample * cfg.item_bytes, root=0)
    splitters = None
    if mpi.rank == 0 and real:
        pool = np.sort(np.concatenate(samples))
        picks = np.linspace(0, len(pool) - 1, size + 1, dtype=np.int64)[1:-1]
        splitters = pool[picks].copy()
    splitters = yield from mpi.bcast(
        splitters, nbytes=max(1, (size - 1)) * cfg.item_bytes, root=0
    )

    # 3. partition and exchange (alltoallv: per-pair volumes vary)
    if real:
        bounds = np.searchsorted(data, splitters)
        parts = np.split(data, bounds)
        sizes = [int(p.nbytes) for p in parts]
        payloads: list[Any] = [np.ascontiguousarray(p) for p in parts]
    else:
        # modeled: expect ~uniform redistribution
        sizes = [max(1, n // size) * cfg.item_bytes] * size
        payloads = [None] * size
    received = yield from mpi.alltoall(payloads, nbytes=sizes)

    # 4. merge received runs: k-way merge ~ n' log2 k operations
    merged = None
    if real:
        merged = np.sort(np.concatenate([r for r in received if r is not None and len(r)]))
        merge_ops = max(1, len(merged)) * max(1.0, np.log2(max(2, size)))
    else:
        merge_ops = n * max(1.0, np.log2(max(2, size)))
    yield from mpi.compute_ops(merge_ops, cfg.native_seconds_per_key)

    yield from mpi.barrier()
    yield from mpi.finalize()
    if real:
        return SampleSortResult(
            rank=mpi.rank,
            count=int(len(merged)),
            local_min=float(merged[0]) if len(merged) else None,
            local_max=float(merged[-1]) if len(merged) else None,
            checksum=float(merged.sum()),
        )
    return SampleSortResult(
        rank=mpi.rank, count=n, local_min=None, local_max=None, checksum=None
    )
