"""MpiApi edge cases: lifecycle guards, timing helpers, memory, misc."""

import pytest

from repro.core.harness.config import SystemConfig
from repro.core.simulator import XSim
from repro.models.memory import RegionKind
from repro.util.errors import ConfigurationError
from tests.conftest import messages, run_app


class TestLifecycleGuards:
    def test_op_before_init_rejected(self):
        def app(mpi):
            yield from mpi.barrier()  # no init

        with pytest.raises(ConfigurationError):
            run_app(app, nranks=1)

    def test_double_init_rejected(self):
        def app(mpi):
            yield from mpi.init()
            yield from mpi.init()

        with pytest.raises(ConfigurationError):
            run_app(app, nranks=1)

    def test_op_after_finalize_rejected(self):
        def app(mpi):
            yield from mpi.init()
            yield from mpi.finalize()
            yield from mpi.barrier()

        with pytest.raises(ConfigurationError):
            run_app(app, nranks=1)

    def test_initialized_finalized_flags(self):
        states = {}

        def app(mpi):
            states["pre"] = (mpi.initialized, mpi.finalized)
            yield from mpi.init()
            states["mid"] = (mpi.initialized, mpi.finalized)
            yield from mpi.finalize()
            states["post"] = (mpi.initialized, mpi.finalized)

        run = run_app(app, nranks=1)
        assert run.result.completed
        assert states == {
            "pre": (False, False),
            "mid": (True, False),
            "post": (True, True),
        }


class TestTimingHelpers:
    def test_wtime_advances_with_compute(self):
        def app(mpi):
            yield from mpi.init()
            t0 = mpi.wtime()
            yield from mpi.compute(2.5)
            t1 = mpi.wtime()
            yield from mpi.finalize()
            return t1 - t0

        run = run_app(app, nranks=1)
        assert run.result.exit_values[0] == pytest.approx(2.5)

    def test_compute_native_uses_slowdown(self):
        system = SystemConfig.small_test_system(nranks=1, slowdown=100.0)

        def app(mpi):
            yield from mpi.init()
            yield from mpi.compute_native(0.01)
            done = mpi.wtime()
            yield from mpi.finalize()
            return done

        run = run_app(app, nranks=1, system=system)
        assert run.result.exit_values[0] == pytest.approx(1.0)

    def test_negative_compute_rejected(self):
        def app(mpi):
            yield from mpi.init()
            yield from mpi.compute(-1.0)

        with pytest.raises(ConfigurationError):
            run_app(app, nranks=1)

    def test_file_operations_cost_time(self):
        from repro.models.filesystem import FileSystemModel

        system = SystemConfig.small_test_system(nranks=1).scaled(
            filesystem=FileSystemModel(
                aggregate_bandwidth=1e6, client_bandwidth=1e6, metadata_latency=0.5
            )
        )

        def app(mpi):
            yield from mpi.init()
            yield from mpi.file_write(1_000_000)  # 1 s + 0.5 s metadata
            t_w = mpi.wtime()
            yield from mpi.file_read(0)
            yield from mpi.file_delete()
            t_all = mpi.wtime()
            yield from mpi.finalize()
            return (t_w, t_all)

        run = run_app(app, nranks=1, system=system)
        t_w, t_all = run.result.exit_values[0]
        assert t_w == pytest.approx(1.5)
        assert t_all == pytest.approx(2.5)  # + read metadata + delete


class TestMemoryViaApi:
    def test_malloc_free(self):
        def app(mpi):
            yield from mpi.init()
            region = mpi.malloc("scratch", 4096, kind=RegionKind.UNUSED)
            footprint = mpi.world.memory.footprint(mpi.rank)
            mpi.free("scratch")
            after = mpi.world.memory.footprint(mpi.rank)
            yield from mpi.finalize()
            return (region.nbytes, footprint, after)

        run = run_app(app, nranks=1)
        assert run.result.exit_values[0] == (4096, 4096, 0)


class TestMiscApi:
    def test_comm_rank_size_helpers(self):
        def app(mpi):
            yield from mpi.init()
            out = (mpi.comm_rank(), mpi.comm_size())
            yield from mpi.finalize()
            return out

        run = run_app(app, nranks=3)
        assert run.result.exit_values[2] == (2, 3)

    def test_test_on_send_request(self):
        def app(mpi):
            yield from mpi.init()
            out = None
            if mpi.rank == 0:
                req = yield from mpi.isend(1, nbytes=8, tag=0)
                done, _ = yield from mpi.test(req)
                out = done
            else:
                yield from mpi.recv(0, tag=0)
            yield from mpi.finalize()
            return out

        run = run_app(app, nranks=2)
        assert run.result.exit_values[0] is True  # eager: locally complete

    def test_repr(self):
        def app(mpi):
            yield from mpi.init()
            assert "rank=0" in repr(mpi)
            yield from mpi.finalize()

        assert run_app(app, nranks=1).result.completed

    def test_non_member_communicator_rejected(self):
        def app(mpi):
            yield from mpi.init()
            out = None
            if mpi.rank == 1:
                # build a comm we are not a member of, then misuse it
                from repro.mpi.communicator import Communicator
                from repro.mpi.group import Group

                foreign = Communicator(Group([0]), 99)
                try:
                    mpi.irecv(0, tag=0, comm=foreign)
                except ConfigurationError:
                    out = "rejected"
            yield from mpi.finalize()
            return out

        run = run_app(app, nranks=2)
        assert run.result.exit_values[1] == "rejected"


class TestXsimTraceIntegration:
    def test_trace_through_facade(self):
        def app(mpi):
            yield from mpi.init()
            if mpi.rank == 0:
                yield from mpi.send(1, nbytes=10, tag=0)
            else:
                yield from mpi.recv(0, tag=0)
            yield from mpi.finalize()

        sim = XSim(SystemConfig.small_test_system(nranks=2), observe=True, trace_detail=True)
        result = sim.run(app)
        assert result.completed
        assert len(messages(sim)) >= 3
