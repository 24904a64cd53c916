"""Failure semantics inside collectives, across all algorithm families."""

import pytest

from repro.apps.heat3d import HeatConfig, heat3d
from repro.core.checkpoint.store import CheckpointStore
from repro.core.harness.config import SystemConfig
from repro.core.simulator import XSim
from tests.conftest import run_app

ALGOS = ["linear", "tree"]


def barrier_app(mpi):
    yield from mpi.init()
    yield from mpi.compute(2.0 if mpi.rank == 3 else 10.0)  # rank 3 dies at 2
    yield from mpi.barrier()
    yield from mpi.compute(100.0)
    yield from mpi.finalize()


class TestBarrierWithFailure:
    @pytest.mark.parametrize("algo", ALGOS)
    def test_member_failure_aborts_barrier(self, algo):
        system = SystemConfig.small_test_system(nranks=6, collective_algorithm=algo)
        run = run_app(barrier_app, nranks=6, system=system, failures=[(3, 1.0)])
        res = run.result
        assert res.aborted
        assert res.failures == [(3, 2.0)]
        # nobody escaped the barrier into the 100 s compute
        assert res.exit_time < 50.0

    @pytest.mark.parametrize("algo", ALGOS)
    def test_root_failure_aborts_barrier(self, algo):
        def app(mpi):
            yield from mpi.init()
            yield from mpi.compute(2.0 if mpi.rank == 0 else 10.0)
            yield from mpi.barrier()
            yield from mpi.finalize()

        system = SystemConfig.small_test_system(nranks=4, collective_algorithm=algo)
        run = run_app(app, nranks=4, system=system, failures=[(0, 1.0)])
        assert run.result.aborted

    @pytest.mark.parametrize("algo", ALGOS)
    def test_reduce_with_failed_contributor(self, algo):
        def app(mpi):
            yield from mpi.init()
            yield from mpi.compute(2.0 if mpi.rank == 2 else 5.0)
            total = yield from mpi.allreduce(1, nbytes=8)
            yield from mpi.finalize()
            return total

        system = SystemConfig.small_test_system(nranks=4, collective_algorithm=algo)
        run = run_app(app, nranks=4, system=system, failures=[(2, 1.0)])
        assert run.result.aborted  # default handler: any member death aborts


class TestAlgorithmConsistency:
    """Both families must produce identical results on the heat
    workload, the tree's timing no slower than the linear one's."""

    def _e1(self, algo, nranks=64, interval=125):
        system = SystemConfig.paper_system(nranks=nranks, collective_algorithm=algo)
        wl = HeatConfig.paper_workload(checkpoint_interval=interval, nranks=nranks)
        sim = XSim(system)
        res = sim.run(heat3d, args=(wl, CheckpointStore()))
        assert res.completed
        return res.exit_time

    def test_tree_is_fastest_on_heat3d(self):
        assert self._e1("tree") <= self._e1("linear") + 1e-9

    @pytest.mark.parametrize("algo", ALGOS)
    def test_real_data_results_identical_across_algorithms(self, algo):
        cfg = HeatConfig(
            grid=(8, 8, 8),
            ranks=(2, 2, 2),
            iterations=4,
            checkpoint_interval=2,
            exchange_interval=1,
            data_mode="real",
        )
        system = SystemConfig.small_test_system(nranks=8, collective_algorithm=algo)
        run = run_app(heat3d, nranks=8, args=(cfg, CheckpointStore()), system=system)
        checksum = sum(s.checksum for s in run.result.exit_values.values())
        # compare against the linear-algorithm ground truth
        base_sys = SystemConfig.small_test_system(nranks=8, collective_algorithm="linear")
        base = run_app(heat3d, nranks=8, args=(cfg, CheckpointStore()), system=base_sys)
        base_sum = sum(s.checksum for s in base.result.exit_values.values())
        assert checksum == pytest.approx(base_sum, rel=1e-12)
