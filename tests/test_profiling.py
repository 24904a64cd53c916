"""EngineProfiler / ProfileReport unit tests.

Covers the zero-wall guard symmetry (every derived ratio must read as 0.0
rather than raise when its denominator is zero), the counters a profiled
run reads off the engine and the world, and phase marks.
"""

import pytest

from repro.apps.heat3d import HeatConfig, heat3d
from repro.core.checkpoint.store import CheckpointStore
from repro.core.harness.config import SystemConfig
from repro.core.simulator import XSim
from repro.util.profiling import EngineProfiler, PhaseStats, ProfileReport


def _zero_report(**overrides):
    base = dict(
        wall_seconds=0.0,
        event_count=0,
        events_per_sec=0.0,
        stale_skipped=0,
        coalesced_advances=0,
        match_scan_calls=0,
        match_scan_length=0,
        phases=(),
    )
    base.update(overrides)
    return ProfileReport(**base)


class TestZeroWallGuards:
    def test_zero_wall_report_has_no_division_errors(self):
        """A report built before any wall time elapsed must render, not
        raise — every ratio shares the events_per_sec guard."""
        report = _zero_report()
        assert report.events_per_sec == 0.0
        assert report.mean_match_scan == 0.0
        record = report.as_record()
        assert record["events_per_sec"] == 0.0
        assert record["mean_match_scan"] == 0.0
        assert isinstance(report.render(), str)

    def test_profiler_with_frozen_zero_wall(self):
        """EngineProfiler.report() with a zero wall measurement (coarse
        clock) applies the guard instead of dividing."""
        sim = XSim(SystemConfig.small_test_system(nranks=4))
        prof = EngineProfiler(sim.engine)
        prof._wall = 0.0  # freeze before any time elapses
        report = prof.report()
        assert report.wall_seconds == 0.0
        assert report.events_per_sec == 0.0


class TestProfiledRun:
    def test_report_reads_engine_and_world_counters(self):
        system = SystemConfig.small_test_system(nranks=8)
        wl = HeatConfig.paper_workload(checkpoint_interval=10, nranks=8, iterations=30)
        sim = XSim(system)
        with EngineProfiler(sim.engine, world=sim.world) as prof:
            result = sim.run(heat3d, args=(wl, CheckpointStore()))
        report = prof.report()
        assert result.completed
        assert report.event_count == result.event_count
        assert report.coalesced_advances == sim.engine.coalesced_advances
        assert report.match_scan_calls == sim.world.match_scan_calls
        assert report.wall_seconds > 0.0 and report.events_per_sec > 0.0
        assert set(report.as_record()) >= {"events_per_sec", "mean_match_scan", "phases"}


class TestPhases:
    def test_phase_marks_split_event_counts(self):
        sim = XSim(SystemConfig.small_test_system(nranks=4))
        prof = EngineProfiler(sim.engine)
        wl = HeatConfig.paper_workload(checkpoint_interval=5, nranks=4, iterations=10)
        result = sim.run(heat3d, args=(wl, CheckpointStore()))
        sim.engine.mark_phase("tail")
        report = prof.report()
        assert result.completed
        assert [p.label for p in report.phases] == ["tail"]
        assert isinstance(report.phases[0], PhaseStats)
        assert sum(p.events for p in report.phases) <= report.event_count
