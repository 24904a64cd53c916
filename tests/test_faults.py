"""Fault injection machinery: schedules, the Table II failure draw, soft
errors, and the Finject campaign."""

import numpy as np
import pytest

from repro.core.faults.finject import FinjectCampaign, VictimModel
from repro.core.faults.reliability import MttfInjectionPolicy
from repro.core.faults.schedule import FailureSchedule
from repro.core.faults.softerror import Effect, SoftErrorInjector
from repro.models.memory import MemoryTracker, RegionKind
from repro.pdes.engine import Engine
from repro.pdes.requests import Advance
from repro.util.errors import ConfigurationError
from repro.util.rng import RngStreams


class TestFailureSchedule:
    def test_parse_rank_at_time(self):
        s = FailureSchedule.parse("3@100s,17@2500")
        assert [(e.rank, e.time) for e in s] == [(3, 100.0), (17, 2500.0)]

    def test_parse_with_units_and_spaces(self):
        s = FailureSchedule.parse(" 0@1ms , 1@2min ")
        assert [(e.rank, e.time) for e in s] == [(0, 0.001), (1, 120.0)]

    def test_parse_empty(self):
        assert len(FailureSchedule.parse("")) == 0
        assert not FailureSchedule.parse("  ")

    def test_parse_rejects_bad_entries(self):
        with pytest.raises(ConfigurationError):
            FailureSchedule.parse("3-100")
        with pytest.raises(ConfigurationError):
            FailureSchedule.parse("x@100")
        with pytest.raises(ConfigurationError):
            FailureSchedule.parse("1@soon")

    def test_of_and_render_roundtrip(self):
        s = FailureSchedule.of((1, 10.0), (2, 20.5))
        assert FailureSchedule.parse(s.render()).entries == s.entries

    def test_validate(self):
        s = FailureSchedule.of((5, 1.0))
        s.validate(6)
        with pytest.raises(ConfigurationError):
            s.validate(5)

    def test_shifted(self):
        s = FailureSchedule.of((0, 10.0)).shifted(100.0)
        assert s.entries[0].time == 110.0

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            FailureSchedule.of((-1, 5.0))
        with pytest.raises(ConfigurationError):
            FailureSchedule.of((0, -5.0))

    def test_add_and_extend(self):
        s = FailureSchedule()
        s.add(1, 2.0)
        s.extend(FailureSchedule.of((3, 4.0)))
        assert len(s) == 2

    def test_duplicates_collapse_and_entries_sort(self):
        # Regression: parse/add/extend used to keep duplicates and input
        # order, so merging two schedules that shared an entry injected
        # the shared failure twice.
        s = FailureSchedule.parse("3@5,1@2,3@5")
        assert [(e.rank, e.time) for e in s] == [(1, 2.0), (3, 5.0)]
        s.add(3, 5.0)  # idempotent
        assert len(s) == 2
        s.extend(FailureSchedule.parse("1@2,0@9"))
        assert [(e.rank, e.time) for e in s] == [(1, 2.0), (3, 5.0), (0, 9.0)]

    def test_validate_rejects_rank_failing_twice(self):
        s = FailureSchedule.parse("3@5,3@9")
        with pytest.raises(ConfigurationError, match="rank 3 is scheduled to fail twice"):
            s.validate(8)


class TestMttfPolicy:
    def test_draw_ranges(self):
        """Paper: uniform rank, uniform time within 2 * MTTF_s."""
        policy = MttfInjectionPolicy(system_mttf=3000.0)
        rng = RngStreams(0).get("t")
        ranks, times = [], []
        for _ in range(500):
            r, t = policy.draw(rng, nranks=64)
            ranks.append(r)
            times.append(t)
        assert 0 <= min(ranks) and max(ranks) < 64
        assert 0 <= min(times) and max(times) < 6000.0
        # "evenly distributed": the mean of the draw is the system MTTF
        assert np.mean(times) == pytest.approx(3000.0, rel=0.1)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            MttfInjectionPolicy(0.0)
        with pytest.raises(ConfigurationError):
            MttfInjectionPolicy(10.0).draw(RngStreams(0).get("t"), 0)


class TestSoftErrorInjector:
    def _engine_with_sleeper(self, duration=10.0):
        eng = Engine()

        def gen():
            yield Advance(duration)

        eng.spawn(gen())
        return eng

    def _injector(self, eng, tracker):
        return SoftErrorInjector(engine=eng, memory=tracker, rng=RngStreams(0).get("se"))

    def test_critical_flip_crashes_process(self):
        eng = self._engine_with_sleeper()
        tracker = MemoryTracker()
        tracker.allocate(0, "text", 1000, RegionKind.CRITICAL)
        inj = self._injector(eng, tracker)
        inj.schedule_flip(0, 3.0)
        result = eng.run()
        assert result.failures == [(0, 10.0)]  # activates at the control point
        assert inj.outcomes[0].effect is Effect.CRASH
        assert result.log.category("soft-error")

    def test_data_flip_is_sdc_and_applies(self):
        eng = self._engine_with_sleeper()
        tracker = MemoryTracker()
        arr = np.zeros(100, dtype=np.uint8)
        tracker.allocate(0, "data", array=arr, kind=RegionKind.DATA)
        inj = self._injector(eng, tracker)
        inj.schedule_flip(0, 1.0)
        result = eng.run()
        assert result.completed
        assert inj.outcomes[0].effect is Effect.SDC
        assert arr.sum() > 0

    def test_unused_flip_benign(self):
        eng = self._engine_with_sleeper()
        tracker = MemoryTracker()
        tracker.allocate(0, "dead", 100, RegionKind.UNUSED)
        inj = self._injector(eng, tracker)
        inj.schedule_flip(0, 1.0)
        eng.run()
        assert inj.outcomes[0].effect is Effect.BENIGN

    def test_flip_into_dead_process_no_target(self):
        eng = self._engine_with_sleeper(duration=1.0)

        def straggler():
            yield Advance(10.0)  # keeps the simulation alive past the flip

        eng.spawn(straggler())
        tracker = MemoryTracker()
        tracker.allocate(0, "x", 10)
        inj = self._injector(eng, tracker)
        inj.schedule_flip(0, 5.0)  # rank 0 finished at t=1
        eng.run()
        assert inj.outcomes[0].effect is Effect.NO_TARGET

    def test_crash_disabled_counts_only(self):
        eng = self._engine_with_sleeper()
        tracker = MemoryTracker()
        tracker.allocate(0, "text", 100, RegionKind.CRITICAL)
        inj = SoftErrorInjector(
            engine=eng, memory=tracker, rng=RngStreams(0).get("se"), crash_on_critical=False
        )
        inj.schedule_flip(0, 1.0)
        result = eng.run()
        assert result.completed
        assert inj.outcomes[0].effect is Effect.CRASH

    def test_poisson_campaign_counts(self):
        eng = self._engine_with_sleeper(duration=100.0)
        tracker = MemoryTracker()
        tracker.allocate(0, "heap", 1000, RegionKind.DATA)
        inj = self._injector(eng, tracker)
        n = inj.schedule_poisson(rate_per_rank=0.1, horizon=100.0, ranks=[0])
        assert n > 0
        eng.run()
        assert len(inj.outcomes) == n
        assert inj.counts()[Effect.SDC] == n

    def test_flip_before_start_rejected(self):
        eng = Engine(start_time=10.0)
        inj = self._injector(eng, MemoryTracker())
        with pytest.raises(ConfigurationError):
            inj.schedule_flip(0, 5.0)


class TestVictimModel:
    def test_failure_probability(self):
        v = VictimModel()
        assert v.failure_probability == pytest.approx(
            v.critical_bytes / v.total_bytes
        )
        assert 0.02 < v.failure_probability < 0.08  # calibrated near 1/22

    def test_expected_injections(self):
        v = VictimModel()
        assert v.expected_injections_to_failure() == pytest.approx(1 / v.failure_probability)

    def test_build_registers_regions(self):
        tracker = MemoryTracker()
        VictimModel().build(tracker, 0)
        names = {r.name for r in tracker.regions(0)}
        assert names == {"registers", "text", "stack", "heap", "unused"}

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            VictimModel(heap_bytes=0)


class TestFinjectCampaign:
    def test_deterministic(self):
        r1 = FinjectCampaign(victims=20).run()
        r2 = FinjectCampaign(victims=20).run()
        assert r1.injections_to_failure == r2.injections_to_failure

    def test_default_campaign_matches_table1_shape(self):
        """Loose tolerances: the reproduction must land in the paper's
        statistical neighbourhood (mean 21.97, median 17, sigma 21.42)."""
        r = FinjectCampaign().run()
        s = r.stats
        assert s.count == 100
        assert s.total == sum(r.injections_to_failure)
        assert 15 <= s.mean <= 30
        assert 10 <= s.median <= 25
        assert s.minimum >= 1
        assert s.maximum <= 100
        assert 14 <= s.stddev <= 30
        assert s.median < s.mean  # geometric-like skew, as in the paper

    def test_table_rows_layout(self):
        r = FinjectCampaign(victims=10).run()
        rows = r.table_rows()
        assert rows[0][0] == "Victims"
        assert rows[0][1] == "10"
        assert rows[1][2] == "# of injected failures for all runs"

    def test_censoring_counted_at_cap(self):
        # a nearly failure-free victim forces censoring
        v = VictimModel(
            registers_bytes=1, text_bytes=1, stack_bytes=1, heap_bytes=10**7, unused_bytes=1
        )
        r = FinjectCampaign(victims=5, max_injections=10, victim=v).run()
        assert r.censored == 5
        assert set(r.injections_to_failure) == {10}

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            FinjectCampaign(victims=0).run()
