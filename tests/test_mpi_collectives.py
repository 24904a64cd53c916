"""Collective operations: all three algorithm families."""

import numpy as np
import pytest

from repro.core.harness.config import SystemConfig
from repro.mpi import ops
from tests.conftest import run_app

ALGOS = ["linear", "tree"]


def finishing(body):
    def app(mpi, *args):
        yield from mpi.init()
        result = yield from body(mpi, *args)
        yield from mpi.finalize()
        return result

    return app


def run_collective(body, nranks=5, algo="linear", **overrides):
    system = SystemConfig.small_test_system(nranks=nranks, collective_algorithm=algo, **overrides)
    return run_app(finishing(body), nranks=nranks, system=system)


class TestBarrier:
    @pytest.mark.parametrize("algo", ALGOS)
    def test_barrier_synchronizes_clocks(self, algo):
        def body(mpi):
            yield from mpi.compute(float(mpi.rank))  # ranks desynchronize
            yield from mpi.barrier()
            return mpi.wtime()

        run = run_collective(body, nranks=4, algo=algo)
        times = run.result.exit_values
        # everyone leaves the barrier no earlier than the slowest entrant
        assert min(times.values()) >= 3.0

    @pytest.mark.parametrize("algo", ALGOS)
    def test_single_rank_barrier(self, algo):
        def body(mpi):
            yield from mpi.barrier()
            return True

        assert run_collective(body, nranks=1, algo=algo).result.completed


class TestBcast:
    @pytest.mark.parametrize("algo", ALGOS)
    def test_root_value_everywhere(self, algo):
        def body(mpi):
            value = {"data": 42} if mpi.rank == 0 else None
            return (yield from mpi.bcast(value, nbytes=100, root=0))

        run = run_collective(body, nranks=6, algo=algo)
        assert all(v == {"data": 42} for v in run.result.exit_values.values())

    @pytest.mark.parametrize("algo", ["linear", "tree"])
    def test_nonzero_root(self, algo):
        def body(mpi):
            value = "payload" if mpi.rank == 3 else None
            return (yield from mpi.bcast(value, nbytes=10, root=3))

        run = run_collective(body, nranks=5, algo=algo)
        assert set(run.result.exit_values.values()) == {"payload"}


class TestReduce:
    @pytest.mark.parametrize("algo", ALGOS)
    def test_sum_at_root(self, algo):
        def body(mpi):
            return (yield from mpi.reduce(mpi.rank + 1, nbytes=8, op=ops.SUM, root=0))

        run = run_collective(body, nranks=5, algo=algo)
        assert run.result.exit_values[0] == 15
        assert all(v is None for r, v in run.result.exit_values.items() if r != 0)

    @pytest.mark.parametrize("algo", ALGOS)
    def test_max(self, algo):
        def body(mpi):
            return (yield from mpi.reduce(mpi.rank * 7 % 5, nbytes=8, op=ops.MAX, root=0))

        run = run_collective(body, nranks=5, algo=algo)
        assert run.result.exit_values[0] == 4

    def test_numpy_array_reduction(self):
        def body(mpi):
            return (yield from mpi.reduce(np.array([1.0, float(mpi.rank)]), op=ops.SUM, root=0))

        run = run_collective(body, nranks=3)
        assert list(run.result.exit_values[0]) == [3.0, 3.0]


class TestAllreduce:
    @pytest.mark.parametrize("algo", ALGOS)
    def test_sum_everywhere(self, algo):
        def body(mpi):
            return (yield from mpi.allreduce(mpi.rank + 1, nbytes=8, op=ops.SUM))

        run = run_collective(body, nranks=4, algo=algo)
        assert set(run.result.exit_values.values()) == {10}

    @pytest.mark.parametrize("algo", ALGOS)
    def test_min(self, algo):
        def body(mpi):
            return (yield from mpi.allreduce(10 - mpi.rank, nbytes=8, op=ops.MIN))

        run = run_collective(body, nranks=4, algo=algo)
        assert set(run.result.exit_values.values()) == {7}


class TestGatherScatter:
    @pytest.mark.parametrize("algo", ALGOS)
    def test_gather_rank_order(self, algo):
        def body(mpi):
            return (yield from mpi.gather(f"r{mpi.rank}", nbytes=4, root=0))

        run = run_collective(body, nranks=4, algo=algo)
        assert run.result.exit_values[0] == ["r0", "r1", "r2", "r3"]
        assert run.result.exit_values[2] is None

    @pytest.mark.parametrize("algo", ALGOS)
    def test_allgather(self, algo):
        def body(mpi):
            return (yield from mpi.allgather(mpi.rank * 2, nbytes=8))

        run = run_collective(body, nranks=3, algo=algo)
        assert all(v == [0, 2, 4] for v in run.result.exit_values.values())

    def test_scatter(self):
        def body(mpi):
            values = [f"for{r}" for r in range(mpi.size)] if mpi.rank == 0 else None
            return (yield from mpi.scatter(values, nbytes=8, root=0))

        run = run_collective(body, nranks=4)
        assert run.result.exit_values == {r: f"for{r}" for r in range(4)}

    def test_scatter_requires_one_value_per_rank(self):
        def body(mpi):
            values = ["only-one"] if mpi.rank == 0 else None
            return (yield from mpi.scatter(values, nbytes=8, root=0))

        from repro.util.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            run_collective(body, nranks=2)


class TestAlltoallScan:
    def test_alltoall(self):
        def body(mpi):
            values = [f"{mpi.rank}->{r}" for r in range(mpi.size)]
            return (yield from mpi.alltoall(values, nbytes=8))

        run = run_collective(body, nranks=3)
        for r, got in run.result.exit_values.items():
            assert got == [f"{src}->{r}" for src in range(3)]

    def test_inclusive_scan(self):
        def body(mpi):
            return (yield from mpi.scan(mpi.rank + 1, nbytes=8, op=ops.SUM))

        run = run_collective(body, nranks=4)
        assert run.result.exit_values == {0: 1, 1: 3, 2: 6, 3: 10}


class TestAlgorithmCosts:
    def _barrier_time(self, algo, nranks=16):
        def body(mpi):
            yield from mpi.barrier()
            return mpi.wtime()

        system = SystemConfig.small_test_system(
            nranks=nranks,
            collective_algorithm=algo,
            send_overhead_native=1e-4,
            recv_overhead_native=1e-4,
            slowdown=1.0,
        )
        run = run_app(finishing(body), nranks=nranks, system=system)
        return max(run.result.exit_values.values())

    def test_tree_beats_linear_with_overheads(self):
        """The ablation the paper's fixed linear-algorithm choice implies:
        binomial trees parallelize the root's per-message overhead."""
        assert self._barrier_time("tree") < self._barrier_time("linear")


class TestCommManagement:
    def test_comm_split_groups_by_color(self):
        def body(mpi):
            color = mpi.rank % 2
            sub = yield from mpi.comm_split(color)
            total = yield from mpi.allreduce(mpi.rank, nbytes=8, op=ops.SUM, comm=sub)
            return (mpi.comm_rank(sub), mpi.comm_size(sub), total)

        run = run_collective(body, nranks=6)
        # evens: 0+2+4=6; odds: 1+3+5=9
        assert run.result.exit_values[0] == (0, 3, 6)
        assert run.result.exit_values[1] == (0, 3, 9)
        assert run.result.exit_values[4] == (2, 3, 6)

    def test_comm_split_key_orders_members(self):
        def body(mpi):
            sub = yield from mpi.comm_split(color=0, key=-mpi.rank)  # reversed
            return mpi.comm_rank(sub)

        run = run_collective(body, nranks=3)
        assert run.result.exit_values == {0: 2, 1: 1, 2: 0}

    def test_comm_split_undefined_color(self):
        def body(mpi):
            sub = yield from mpi.comm_split(None if mpi.rank == 0 else 1)
            return sub is None

        run = run_collective(body, nranks=3)
        assert run.result.exit_values[0] is True
        assert run.result.exit_values[1] is False

    def test_comm_dup_isolated_but_congruent(self):
        def body(mpi):
            dup = yield from mpi.comm_dup()
            return (mpi.comm_rank(dup), mpi.comm_size(dup))

        run = run_collective(body, nranks=3)
        assert run.result.exit_values[2] == (2, 3)

    def test_comm_free_blocks_use(self):
        from repro.util.errors import ConfigurationError

        def body(mpi):
            dup = yield from mpi.comm_dup()
            yield from mpi.comm_free(dup)
            try:
                yield from mpi.barrier(comm=dup)
            except ConfigurationError:
                return "rejected"
            return "allowed"

        run = run_collective(body, nranks=2)
        assert set(run.result.exit_values.values()) == {"rejected"}
