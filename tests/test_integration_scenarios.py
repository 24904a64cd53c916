"""End-to-end integration scenarios across the whole stack."""

import pytest

from repro.apps.heat3d import HeatConfig, heat3d
from repro.apps.naive_cr import NaiveCrConfig, naive_cr
from repro.core.faults.schedule import FailureSchedule
from repro.core.harness.config import SystemConfig
from repro.core.restart import RestartDriver
from repro.core.simulator import XSim
from tests.conftest import messages


class TestHeatRestart:
    """Multi-failure runs of the paper's application, through detection,
    abort, and restart."""

    def test_completes_under_weibull_aging_components(self):
        nranks = 27
        system = SystemConfig.paper_system(nranks=nranks)
        workload = HeatConfig.paper_workload(checkpoint_interval=125, nranks=nranks)
        driver = RestartDriver(
            system,
            heat3d,
            make_args=lambda store: (workload, store),
            mttf=2000.0,
            seed=11,
            max_restarts=200,
        )
        run = driver.run()
        assert run.completed
        assert run.f >= 1
        # E2 accounts for all lost work: strictly beyond the compute floor
        compute_floor = 1000 * 4096 * workload.native_seconds_per_point * 1000.0
        assert run.e2 > compute_floor
        # every aborted segment left a consistent store for the next one
        assert run.store.latest_valid(nranks) == 1000

    def test_multiple_failures_in_one_segment_first_aborts(self):
        """Two failures drawn into the same segment: the first activation
        aborts the job; the second may never activate."""
        nranks = 8
        system = SystemConfig.small_test_system(nranks=nranks)
        cfg = NaiveCrConfig(work=100.0, tau=10.0, delta=0.5)
        schedule = FailureSchedule.of((2, 31.0), (5, 33.0))
        driver = RestartDriver(
            system, naive_cr, make_args=lambda store: (cfg, store), schedule=schedule
        )
        run = driver.run()
        assert run.completed
        first_seg = run.segments[0].result
        assert first_seg.aborted
        # rank 2 failed; whether rank 5 also activated depends on the
        # abort racing its compute - but rank 2 must be first
        assert first_seg.failures[0][0] == 2


class TestRestartClockContinuity:
    def test_e2_equals_last_exit_when_started_at_zero(self):
        nranks = 8
        system = SystemConfig.small_test_system(nranks=nranks)
        cfg = NaiveCrConfig(work=50.0, tau=5.0, delta=0.5)
        driver = RestartDriver(
            system,
            naive_cr,
            make_args=lambda store: (cfg, store),
            schedule=FailureSchedule.of((3, 22.0)),
        )
        run = driver.run()
        assert run.completed
        assert run.e2 == run.segments[-1].result.exit_time
        # each segment's engine really started at the previous exit time
        for prev, nxt in zip(run.segments, run.segments[1:]):
            assert nxt.result.start_time == prev.result.exit_time
            # and no VP clock ever ran backwards
            assert min(nxt.result.end_times.values()) >= prev.result.exit_time


class TestDeterministicEndToEnd:
    def test_identical_experiments_identical_virtual_history(self):
        nranks = 27
        system = SystemConfig.paper_system(nranks=nranks)
        workload = HeatConfig.paper_workload(checkpoint_interval=250, nranks=nranks)

        def go():
            driver = RestartDriver(
                system,
                heat3d,
                make_args=lambda store: (workload, store),
                mttf=2000.0,
                seed=4,
            )
            return driver.run()

        a, b = go(), go()
        assert a.e2 == b.e2
        assert a.f == b.f
        assert a.failures == b.failures
        assert [s.result.event_count for s in a.segments] == [
            s.result.event_count for s in b.segments
        ]


class TestFullStackTrace:
    def test_trace_of_heat_run_matches_decomposition(self):
        """Every traced halo message connects topological neighbours."""
        from repro.apps.heat3d import neighbor_ranks

        nranks = 27
        workload = HeatConfig.paper_workload(checkpoint_interval=500, nranks=nranks)
        sim = XSim(SystemConfig.paper_system(nranks=nranks), observe=True, trace_detail=True)
        result = sim.run(heat3d, args=(workload, None))
        assert result.completed
        halo = [m for m in messages(sim, ctx=2) if 1 <= m["tag"] <= 6]
        assert halo
        for m in halo:
            assert m["dst"] in neighbor_ranks(m["src"], workload.ranks).values()
        delivered = [m for m in messages(sim, "msg:deliver", ctx=2) if 1 <= m["tag"] <= 6]
        assert len(delivered) == len(halo)
        # face sizes match the decomposition (16x16 points x 8 B)
        assert {m["nbytes"] for m in halo} == {16 * 16 * 8}
