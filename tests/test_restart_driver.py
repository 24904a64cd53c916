"""The restart driver: continuous virtual time, E2/F/MTTF_a accounting."""

import pytest

from repro.apps.naive_cr import NaiveCrConfig, naive_cr
from repro.core.faults.schedule import FailureSchedule
from repro.core.harness.config import SystemConfig
from repro.core.restart import RestartDriver
from repro.util.errors import SimulationError


def make_driver(schedule=None, mttf=None, seed=0, nranks=4, cfg=None, max_restarts=1000):
    system = SystemConfig.small_test_system(nranks=nranks)
    cfg = cfg or NaiveCrConfig(work=100.0, tau=10.0, delta=1.0)
    return RestartDriver(
        system,
        naive_cr,
        make_args=lambda store: (cfg, store),
        schedule=schedule,
        mttf=mttf,
        seed=seed,
        max_restarts=max_restarts,
    )


class TestNoFailures:
    def test_completes_in_one_segment(self):
        run = make_driver().run()
        assert run.completed
        assert run.restarts == 0
        assert run.f == 0
        assert run.mttf_a is None
        # 10 segments of 10 s work + 1 s checkpoint each
        assert run.e2 == pytest.approx(110.0, rel=0.01)

    def test_exit_values_from_final_segment(self):
        run = make_driver().run()
        assert set(run.exit_values.values()) == {10}  # all segments done


class TestWithScheduledFailure:
    def test_one_failure_one_restart(self):
        run = make_driver(schedule=FailureSchedule.of((2, 55.0))).run()
        assert run.completed
        assert run.restarts == 1
        assert run.f == 1
        assert len(run.failures) == 1
        assert run.failures[0][0] == 2

    def test_virtual_time_continuous_across_restart(self):
        """Paper §IV-E: the restarted run's clocks start at the previous
        run's simulated exit time."""
        run = make_driver(schedule=FailureSchedule.of((2, 55.0))).run()
        first, second = run.segments
        assert second.start_time == first.result.exit_time
        assert second.result.start_time == second.start_time
        assert run.e2 > 110.0  # lost work was really paid for

    def test_lost_work_bounded_by_checkpoint_interval(self):
        """Restart resumes from the last checkpoint, so E2 exceeds E1 by
        at most (lost segment + detection/abort overhead)."""
        run = make_driver(schedule=FailureSchedule.of((2, 55.0))).run()
        # failed at ~55 (mid segment 6); last checkpoint at 55 -> segment 5.
        # E2 = E1 + rework of <= 1 segment + detection timeout (1 s)
        assert run.e2 == pytest.approx(110.0 + 11.0, abs=5.0)

    def test_mttf_a_relation(self):
        """MTTF_a = E2 / (F + 1): the exact relation Table II satisfies."""
        run = make_driver(schedule=FailureSchedule.of((2, 55.0))).run()
        assert run.mttf_a == pytest.approx(run.e2 / (run.f + 1))


class TestWithMttfPolicy:
    def test_draws_are_deterministic_per_seed(self):
        r1 = make_driver(mttf=100.0, seed=3).run()
        r2 = make_driver(mttf=100.0, seed=3).run()
        assert r1.e2 == r2.e2
        assert r1.f == r2.f
        assert [s.drawn_failure for s in r1.segments] == [
            s.drawn_failure for s in r2.segments
        ]

    def test_different_seeds_differ(self):
        outcomes = {make_driver(mttf=100.0, seed=s).run().f for s in range(6)}
        assert len(outcomes) > 1

    def test_draw_recorded_per_segment(self):
        run = make_driver(mttf=100.0, seed=3).run()
        for seg in run.segments:
            assert seg.drawn_failure is not None
            rank, t = seg.drawn_failure
            assert 0 <= rank < 4
            assert seg.start_time <= t < seg.start_time + 200.0

    def test_f_counts_only_activated_failures(self):
        """A drawn failure beyond the run's end never activates (that is
        how the paper's F column can be smaller than the segment count)."""
        run = make_driver(mttf=1e6, seed=0).run()  # draw far beyond E1
        assert run.f == 0
        assert run.segments[0].drawn_failure is not None

    def test_eventually_completes_under_high_failure_rate(self):
        cfg = NaiveCrConfig(work=50.0, tau=5.0, delta=0.5)
        run = make_driver(mttf=40.0, seed=1, cfg=cfg).run()
        assert run.completed
        assert run.e2 >= 55.0

    def test_reliability_policy_through_driver(self):
        run = make_driver(mttf=80.0, seed=3, nranks=8, max_restarts=500).run()
        assert run.completed
        assert run.f >= 1  # at MTTF 80 over a ~110 s run, failures occur
        for seg in run.segments:
            # drawn failures recorded with absolute times, sorted
            times = [t for _, t in seg.drawn_failures]
            assert times == sorted(times)
            assert all(t >= seg.start_time for t in times)


class TestGuards:
    def test_max_restarts_exceeded(self):
        # work can never finish: failure rate so high a segment never ends
        cfg = NaiveCrConfig(work=100.0, tau=100.0, delta=0.1)  # ckpt only at end
        driver = make_driver(mttf=5.0, seed=2, cfg=cfg, max_restarts=3)
        with pytest.raises(SimulationError):
            driver.run()
