"""MpiWorld internals: sync points, multi-failure scenarios, placement,
and introspection helpers."""

import pytest

from repro.core.harness.config import SystemConfig
from repro.mpi.errhandler import ERRORS_RETURN, MpiError
from repro.pdes.context import VpState
from repro.util.errors import ConfigurationError, SimulationError
from tests.conftest import run_app


def finishing(body):
    def app(mpi, *args):
        yield from mpi.init()
        result = yield from body(mpi, *args)
        yield from mpi.finalize()
        return result

    return app


class TestSyncPoints:
    def test_all_members_complete_together(self):
        def app(mpi):
            yield from mpi.init()
            yield from mpi.compute(float(mpi.rank))
            result = yield from mpi.world.sync_arrive(mpi.vp, mpi.comm_world, "test", 0)
            yield from mpi.barrier()
            yield from mpi.finalize()
            return (result.alive, result.time)

        run = run_app(app, nranks=3)
        alives = {v[0] for v in run.result.exit_values.values()}
        times = {v[1] for v in run.result.exit_values.values()}
        assert alives == {(0, 1, 2)}
        assert len(times) == 1
        assert times.pop() >= 2.0  # last arrival

    def test_values_collected(self):
        def app(mpi):
            yield from mpi.init()
            result = yield from mpi.world.sync_arrive(
                mpi.vp, mpi.comm_world, "gatherish", 0, value=mpi.rank * 10
            )
            yield from mpi.finalize()
            return result.values

        run = run_app(app, nranks=3)
        assert run.result.exit_values[0] == {0: 0, 1: 10, 2: 20}

    def test_distinct_seq_distinct_points(self):
        def app(mpi):
            yield from mpi.init()
            r1 = yield from mpi.world.sync_arrive(mpi.vp, mpi.comm_world, "k", 0)
            r2 = yield from mpi.world.sync_arrive(mpi.vp, mpi.comm_world, "k", 1)
            yield from mpi.finalize()
            return (r1.time, r2.time)

        run = run_app(app, nranks=2)
        t1, t2 = run.result.exit_values[0]
        assert t2 > t1  # second point completes after the first

    def test_sync_cost_function_applied(self):
        def app(mpi):
            yield from mpi.init()
            yield from mpi.compute(1.0 + mpi.rank)
            result = yield from mpi.world.sync_arrive(mpi.vp, mpi.comm_world, "costly", 0)
            yield from mpi.finalize()
            return result.time, mpi.world.default_sync_cost(2)

        run = run_app(app, nranks=2)
        done, cost = run.result.exit_values[0]
        assert cost > 0.0
        assert done == pytest.approx(2.0 + cost)  # the last arrival, plus the cost


class TestMultiFailure:
    def test_two_failures_both_recorded(self):
        def app(mpi):
            yield from mpi.init()
            yield from mpi.compute(10.0 + mpi.rank)
            yield from mpi.barrier()
            yield from mpi.finalize()

        run = run_app(app, nranks=4, failures=[(1, 1.0), (2, 2.0)])
        res = run.result
        assert res.aborted
        assert sorted(r for r, _ in res.failures) == [1, 2]
        # both activated at the ends of their compute phases
        times = dict(res.failures)
        assert times[1] == pytest.approx(11.0)
        assert times[2] == pytest.approx(12.0)

    def test_every_rank_failing_ends_simulation(self):
        def app(mpi):
            yield from mpi.init()
            yield from mpi.compute(5.0)
            yield from mpi.finalize()

        run = run_app(app, nranks=3, failures=[(0, 1.0), (1, 1.0), (2, 1.0)])
        res = run.result
        assert all(s is VpState.FAILED for s in res.states.values())
        assert not res.aborted  # nobody survived to detect and abort

    def test_failure_during_abort_sequence(self):
        """A failure scheduled after the abort has begun is harmless."""

        def app(mpi):
            yield from mpi.init()
            if mpi.rank == 0:
                yield from mpi.abort()
            yield from mpi.compute(100.0)
            yield from mpi.finalize()

        run = run_app(app, nranks=3, failures=[(1, 50.0)])
        res = run.result
        assert res.aborted
        assert res.abort_time == pytest.approx(0.0)

    def test_failed_list_accumulates(self):
        observed = {}

        def app(mpi):
            yield from mpi.init()
            if mpi.rank == 3:
                for _ in range(10):
                    yield from mpi.compute(1.0)
                observed[3] = dict(mpi.vp.failed_peers)
                yield from mpi.barrier()
            else:
                yield from mpi.compute(4.0 * (mpi.rank + 1))
                yield from mpi.barrier()
            yield from mpi.finalize()

        run = run_app(app, nranks=4, failures=[(0, 1.0), (1, 5.0)])
        assert observed[3] == {0: pytest.approx(4.0), 1: pytest.approx(8.0)}


class TestPlacementEndToEnd:
    def test_intra_node_messages_faster(self):
        """With 2 ranks per node, rank 0<->1 is on-node (cheap) while
        0<->2 crosses the system network."""
        system = SystemConfig.small_test_system(nranks=4, ranks_per_node=2)

        @finishing
        def app(mpi):
            if mpi.rank == 0:
                yield from mpi.send(1, nbytes=1_000_000, tag=1)
                yield from mpi.send(2, nbytes=1_000_000, tag=2)
                return None
            if mpi.rank == 1:
                yield from mpi.recv(0, tag=1)
                return mpi.wtime()
            if mpi.rank == 2:
                yield from mpi.recv(0, tag=2)
                return mpi.wtime()
            return None

        run = run_app(app, nranks=4, system=system)
        assert run.result.exit_values[1] < run.result.exit_values[2]

    def test_capacity_validated(self):
        system = SystemConfig.small_test_system(nranks=4)
        cfg = system.scaled(topology_kind="crossbar", topology_dims=None)
        # machine of ceil(4/1)=4 nodes: asking for 5 ranks must fail
        from repro.core.simulator import XSim

        sim = XSim(cfg)
        with pytest.raises(ConfigurationError):
            sim.run(finishing(lambda mpi: iter(())), nranks=5)


class TestIntrospection:
    def test_alive_ranks_and_pending(self):
        probe = {}

        def app(mpi):
            yield from mpi.init()
            if mpi.rank == 0:
                req = mpi.irecv(1, tag=9)
                yield from mpi.compute(1.0)
                probe["alive"] = mpi.world.alive_ranks()
                probe["pending"] = [r.describe() for r in mpi.world.pending_requests(0)]
                yield from mpi.send(1, nbytes=1, tag=5)
                yield from mpi.wait(req)
            else:
                yield from mpi.recv(0, tag=5)
                yield from mpi.send(0, nbytes=1, tag=9)
            yield from mpi.finalize()

        run = run_app(app, nranks=2)
        assert run.result.completed
        assert probe["alive"] == [0, 1]
        assert any("tag=9" in d for d in probe["pending"])

    def test_traffic_summary(self):
        def app(mpi):
            yield from mpi.init()
            if mpi.rank == 0:
                yield from mpi.send(1, nbytes=123, tag=0)
            else:
                yield from mpi.recv(0, tag=0)
            yield from mpi.finalize()

        run = run_app(app, nranks=2)
        summary = run.world.traffic_summary()
        assert summary["bytes_sent"] >= 123
        assert summary["messages_sent"] >= 3  # payload + finalize barrier

    def test_launch_twice_rejected(self):
        run = run_app(finishing(lambda mpi: iter(())), nranks=1)
        with pytest.raises(SimulationError):
            run.world.launch(lambda mpi: iter(()), 1)


class TestRevokeEdgeCases:
    def test_revoke_releases_pending_rendezvous_send(self):
        system = SystemConfig.small_test_system(
            nranks=2, eager_threshold=10, strict_finalize=False
        )

        def app(mpi):
            yield from mpi.init()
            mpi.set_errhandler(ERRORS_RETURN)
            if mpi.rank == 0:
                try:
                    yield from mpi.send(1, nbytes=1000, tag=0)  # blocks on CTS
                except MpiError as err:
                    return err.code
            else:
                yield from mpi.compute(1.0)
                yield from mpi.comm_revoke()
                return "revoked"
            return None

        run = run_app(app, nranks=2, system=system)
        from repro.mpi.constants import ERR_REVOKED

        assert run.result.exit_values[0] == ERR_REVOKED
