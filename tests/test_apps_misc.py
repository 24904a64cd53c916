"""Token-ring MPI facts, and the collective_bench and naive_cr applications."""

from dataclasses import dataclass

import pytest

from repro.apps.collective_bench import (
    CollectiveBenchConfig,
    CollectiveTiming,
    collective_bench,
)
from repro.apps.naive_cr import NaiveCrConfig, naive_cr
from repro.core.checkpoint.store import CheckpointStore
from repro.core.harness.config import SystemConfig
from repro.util.errors import ConfigurationError
from tests.conftest import run_app


@dataclass(frozen=True)
class RingConfig:
    rounds: int = 1
    #: Modeled work between hops (simulated seconds).
    compute_per_hop: float = 0.0


def ring(mpi, cfg):
    """A token goes 0 -> 1 -> ... -> N-1 -> 0 ``rounds`` times; each rank
    returns the virtual time it finished its part."""
    yield from mpi.init()
    left = (mpi.rank - 1) % mpi.size
    right = (mpi.rank + 1) % mpi.size
    for round_no in range(cfg.rounds):
        if mpi.rank == 0:
            yield from mpi.send(right, nbytes=8, tag=round_no)
            yield from mpi.recv(left, tag=round_no)
        else:
            yield from mpi.recv(left, tag=round_no)
            if cfg.compute_per_hop > 0.0:
                yield from mpi.compute(cfg.compute_per_hop)
            yield from mpi.send(right, nbytes=8, tag=round_no)
    done = mpi.wtime()
    yield from mpi.finalize()
    return done


class TestRing:
    def test_token_completes_rounds(self):
        run = run_app(ring, nranks=4, args=(RingConfig(rounds=3),))
        assert run.result.completed

    def test_hop_latency_accumulates(self):
        run = run_app(ring, nranks=4, args=(RingConfig(rounds=1),))
        # 4 hops of at least one 1 us link each
        assert run.result.exit_values[0] >= 4e-6

    def test_compute_per_hop(self):
        run = run_app(ring, nranks=4, args=(RingConfig(rounds=1, compute_per_hop=1.0),))
        assert run.result.exit_values[0] >= 3.0  # ranks 1..3 compute

    def test_failure_breaks_ring_and_aborts(self):
        run = run_app(
            ring, nranks=4, args=(RingConfig(rounds=5, compute_per_hop=1.0),), failures=[(2, 1.0)]
        )
        assert run.result.aborted

    def test_single_rank_ring(self):
        run = run_app(ring, nranks=1, args=(RingConfig(rounds=2),))
        assert run.result.completed


class TestCollectiveBench:
    def test_timings_collected(self):
        cfg = CollectiveBenchConfig(operations=("barrier", "allreduce"), sizes=(8, 64))
        run = run_app(collective_bench, nranks=4, args=(cfg,))
        timing = run.result.exit_values[0]
        assert isinstance(timing, CollectiveTiming)
        assert set(timing.timings) == {
            ("barrier", 8),
            ("barrier", 64),
            ("allreduce", 8),
            ("allreduce", 64),
        }

    def test_larger_payload_not_faster(self):
        cfg = CollectiveBenchConfig(operations=("bcast",), sizes=(8, 10_000_000))
        run = run_app(collective_bench, nranks=4, args=(cfg,))
        t = run.result.exit_values[0].timings
        assert t[("bcast", 10_000_000)] >= t[("bcast", 8)]

    def test_all_supported_operations_run(self):
        cfg = CollectiveBenchConfig(
            operations=(
                "barrier",
                "bcast",
                "reduce",
                "allreduce",
                "gather",
                "allgather",
                "alltoall",
                "scan",
            ),
            sizes=(16,),
        )
        run = run_app(collective_bench, nranks=3, args=(cfg,))
        assert run.result.completed

    def test_unsupported_operation_rejected(self):
        cfg = CollectiveBenchConfig(operations=("teleport",), sizes=(8,))
        run = run_app(collective_bench, nranks=2, args=(cfg,))
        # a raised ValueError inside the app is a virtual process crash
        assert not run.result.completed


class TestNaiveCr:
    def test_segments_and_duration(self):
        cfg = NaiveCrConfig(work=100.0, tau=10.0, delta=2.0)
        store = CheckpointStore()
        run = run_app(naive_cr, nranks=2, args=(cfg, store))
        assert run.result.completed
        assert set(run.result.exit_values.values()) == {10}
        assert run.result.exit_time == pytest.approx(120.0, rel=0.01)

    def test_without_store_no_checkpoint_cost(self):
        cfg = NaiveCrConfig(work=100.0, tau=10.0, delta=2.0)
        run = run_app(naive_cr, nranks=1, args=(cfg, None))
        assert run.result.exit_time == pytest.approx(100.0, rel=0.01)

    def test_partial_last_segment(self):
        cfg = NaiveCrConfig(work=25.0, tau=10.0, delta=0.0)
        run = run_app(naive_cr, nranks=1, args=(cfg, CheckpointStore()))
        assert run.result.completed
        assert run.result.exit_values[0] == 3  # 10 + 10 + 5

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            NaiveCrConfig(work=0.0)
        with pytest.raises(ConfigurationError):
            NaiveCrConfig(work=1.0, tau=-1.0)
