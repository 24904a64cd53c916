"""Proactive migration (``benchmarks/migration.py``): the predictor and
the migrate-or-fail decision a strategy makes for each fail-stop."""

import pytest

from benchmarks.migration import FailurePredictor, ProactiveMigration
from repro.apps.naive_cr import NaiveCrConfig, naive_cr
from repro.core.faults.schedule import FailureSchedule
from repro.core.harness.config import SystemConfig
from repro.core.restart import RestartDriver
from repro.util.errors import ConfigurationError


class TestPredictor:
    def test_recall_bounds(self):
        with pytest.raises(ConfigurationError):
            FailurePredictor(recall=1.5)
        with pytest.raises(ConfigurationError):
            FailurePredictor(lead_time=-1.0)

    def test_perfect_recall_always_predicts(self):
        from repro.util.rng import RngStreams

        p = FailurePredictor(recall=1.0)
        rng = RngStreams(0).get("t")
        assert all(p.predicts(rng) for _ in range(50))

    def test_zero_recall_never_predicts(self):
        from repro.util.rng import RngStreams

        p = FailurePredictor(recall=0.0)
        rng = RngStreams(0).get("t")
        assert not any(p.predicts(rng) for _ in range(50))


class TestProactiveMigration:
    def _driver(self, manager, schedule):
        system = SystemConfig.small_test_system(nranks=4)
        cfg = NaiveCrConfig(work=100.0, tau=10.0, delta=1.0)
        return RestartDriver(
            system,
            naive_cr,
            make_args=lambda store: (cfg, store),
            schedule=None,
            mttf=None,
            policy=_FixedPolicy(schedule),
            strategy=manager,
        )

    def test_perfect_prediction_avoids_failure(self):
        manager = ProactiveMigration(
            FailurePredictor(lead_time=10.0, recall=1.0),
            spares=2,
            state_bytes=10**9,
            migration_bandwidth=1e9,
            migration_latency=1.0,
        )
        run = self._driver(manager, [(2, 50.0)]).run()
        assert run.completed
        assert run.f == 0  # no failure activated
        assert run.restarts == 0
        assert manager.stats.migrations == 1
        assert manager.stats.avoided_failures == 1
        # the victim paid the stop-and-copy downtime (2 s) but nobody else
        assert run.e2 == pytest.approx(110.0 + 2.0, abs=1.0)

    def test_a_scheduled_failstop_is_migrated_too(self):
        """Every fail-stop reaches the strategy, not just policy draws."""
        manager = ProactiveMigration(
            FailurePredictor(lead_time=10.0, recall=1.0), spares=2
        )
        run = RestartDriver(
            SystemConfig.small_test_system(nranks=4),
            naive_cr,
            make_args=lambda store: (NaiveCrConfig(work=100.0, tau=10.0, delta=1.0), store),
            schedule=FailureSchedule.of((2, 50.0)),
            strategy=manager,
        ).run()
        assert run.f == 0
        assert run.restarts == 0
        assert manager.stats.migrations == 1

    def test_unpredicted_failure_still_kills(self):
        manager = ProactiveMigration(
            FailurePredictor(lead_time=10.0, recall=0.0), spares=2
        )
        run = self._driver(manager, [(2, 50.0)]).run()
        assert run.f == 1
        assert run.restarts == 1
        assert manager.stats.unpredicted == 1
        assert manager.stats.migrations == 0

    def test_out_of_spares_fails(self):
        manager = ProactiveMigration(
            FailurePredictor(lead_time=10.0, recall=1.0), spares=0
        )
        run = self._driver(manager, [(2, 50.0)]).run()
        assert run.f == 1
        assert manager.stats.out_of_spares == 1

    def test_warning_too_late_fails(self):
        manager = ProactiveMigration(
            FailurePredictor(lead_time=100.0, recall=1.0), spares=2
        )
        run = self._driver(manager, [(2, 50.0)]).run()  # warn time < 0
        assert run.f == 1
        assert manager.stats.too_late == 1

    def test_spare_pool_depletes_across_failures(self):
        manager = ProactiveMigration(FailurePredictor(lead_time=5.0, recall=1.0), spares=1)
        run = self._driver(manager, [(1, 30.0), (2, 60.0)]).run()
        assert manager.stats.migrations == 1
        assert manager.stats.out_of_spares == 1
        assert run.f == 1  # the second failure went through

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ProactiveMigration(FailurePredictor(), spares=-1)
        with pytest.raises(ConfigurationError):
            ProactiveMigration(FailurePredictor(), migration_bandwidth=0.0)


class _FixedPolicy:
    """Injection policy replaying a fixed relative schedule once."""

    def __init__(self, pairs):
        self.pairs = list(pairs)
        self.done = False

    def draw_segment(self, rng, nranks, horizon):
        if self.done:
            return []
        self.done = True
        return list(self.pairs)
