"""simcheck: event tracing, the invariant sanitizer, differential harness.

Covers the determinism/replay tooling in :mod:`repro.check`: the event
trace round-trips and diffs, the sanitizer stays silent on clean runs and
actually fires on corrupted state (including a deliberately re-introduced
checkpoint-cleanup bug), and the differential harness's cross-mode
equivalences hold.
"""

import json
import zlib

import numpy as np
import pytest

from repro.check import InvariantViolation, checking_enabled
from repro.check.sanitizer import Sanitizer, verify_store, verify_store_cleaned, write_dump
from repro.check.trace import EventTrace
from repro.core.checkpoint.store import CheckpointStore, FileState
from repro.core.harness.config import SystemConfig
from repro.core.harness.experiment import result_digest
from repro.core.simulator import XSim
from repro.pdes.engine import Engine
from repro.util.rng import RngStreams


def _heat(nranks, iterations, interval=10, failure=None, **kwargs):
    from repro.apps.heat3d import HeatConfig, heat3d

    system = SystemConfig.small_test_system(nranks=nranks)
    workload = HeatConfig.paper_workload(
        checkpoint_interval=interval, nranks=nranks, iterations=iterations
    )
    sim = XSim(system, **kwargs)
    if failure is not None:
        sim.inject_failure(*failure)
    result = sim.run(heat3d, args=(workload, CheckpointStore()))
    return sim, result


class TestEventTrace:
    def test_identical_traces_have_no_divergence(self):
        a = EventTrace([(1.0, 1, 0, "arrive", 2), (2.0, 2, 1, "do_wake", -1)])
        b = EventTrace(list(a.entries))
        assert a.diff(b) is None
        assert a.digest() == b.digest()

    def test_divergence_reports_first_mismatch(self):
        a = EventTrace([(1.0, 1, 0, "arrive", 2), (2.0, 2, 1, "do_wake", -1)])
        b = EventTrace([(1.0, 1, 0, "arrive", 2), (2.0, 3, 1, "do_wake", -1)])
        d = a.diff(b)
        assert d is not None
        assert d.index == 1
        assert d.expected[1] == 2 and d.actual[1] == 3
        assert "diverge" in d.report()

    def test_length_mismatch_is_a_divergence(self):
        a = EventTrace([(1.0, 1, 0, "arrive", 2)])
        b = EventTrace([(1.0, 1, 0, "arrive", 2), (2.0, 2, 1, "do_wake", -1)])
        d = a.diff(b)
        assert d is not None and d.index == 1
        assert d.expected is None and d.actual == (2.0, 2, 1, "do_wake", -1)

    def test_save_load_round_trip_is_bit_identical(self, tmp_path):
        sim, _ = _heat(8, 20, record_events=True)
        trace = sim.event_trace
        assert len(trace) > 0
        path = str(tmp_path / "trace.txt")
        trace.save(path)
        loaded = EventTrace.load(path)
        assert loaded.entries == trace.entries  # exact floats via float.hex
        assert loaded.digest() == trace.digest()

    def test_load_rejects_non_trace_files(self, tmp_path):
        path = tmp_path / "junk.txt"
        path.write_text("not a trace\n")
        with pytest.raises(ValueError, match="not an xsim event trace"):
            EventTrace.load(str(path))

    def test_record_replay_zero_divergence_with_failure(self):
        """Acceptance scenario: heat3d at 64 ranks with one injected
        failure records and replays with zero divergence."""
        _, clean = _heat(64, 20)
        failure = (21, 0.4 * clean.exit_time)
        sim1, res1 = _heat(64, 20, failure=failure, check=True, record_events=True)
        sim2, res2 = _heat(64, 20, failure=failure, check=True, record_events=True)
        assert res1.failures and res1.failures == res2.failures
        assert sim1.event_trace.diff(sim2.event_trace) is None
        assert result_digest(res1) == result_digest(res2)

    def test_different_runs_do_diverge(self):
        sim1, _ = _heat(8, 20, record_events=True)
        sim2, _ = _heat(8, 20, failure=(3, 10.0), record_events=True)
        assert sim1.event_trace.diff(sim2.event_trace) is not None


class TestSanitizerCleanRuns:
    def test_clean_heat_run_reports_zero_violations(self):
        sim, result = _heat(8, 30, check=True)
        assert result.completed
        assert sim.checker is not None
        assert sim.checker.checks > 0

    def test_failure_run_reports_zero_violations(self):
        _, clean = _heat(27, 30)
        sim, result = _heat(27, 30, failure=(13, 0.5 * clean.exit_time), check=True)
        assert result.aborted
        assert sim.checker.checks > 0

    def test_analytic_collectives_run_clean(self):
        from repro.apps.heat3d import HeatConfig, heat3d

        system = SystemConfig.small_test_system(
            nranks=8, collective_algorithm="analytic"
        )
        workload = HeatConfig.paper_workload(
            checkpoint_interval=10, nranks=8, iterations=20
        )
        sim = XSim(system, check=True)
        result = sim.run(heat3d, args=(workload, CheckpointStore()))
        assert result.completed
        assert sim.checker.checks > 0


class TestSanitizerCatchesBugs:
    def test_heap_pop_ordering_violation(self):
        engine = Engine()
        check = Sanitizer(engine)
        check.on_dispatch(5.0, 1, None)
        with pytest.raises(InvariantViolation, match="heap-pop-ordering"):
            check.on_dispatch(4.0, 2, None)

    def test_equal_time_seq_regression_violation(self):
        engine = Engine()
        check = Sanitizer(engine)
        check.on_dispatch(5.0, 4, None)
        with pytest.raises(InvariantViolation, match="heap-pop-ordering"):
            check.on_dispatch(5.0, 3, None)

    def test_vp_clock_monotonicity_violation(self):
        from repro.pdes.context import VirtualProcess

        engine = Engine()
        vp = VirtualProcess(rank=0, gen=iter(()), start_time=0.0)
        check = Sanitizer(engine)
        vp.clock = 5.0
        check.on_dispatch(5.0, 1, vp)
        vp.clock = 3.0
        with pytest.raises(InvariantViolation, match="vp-clock-monotonicity"):
            check.on_dispatch(6.0, 2, vp)

    def test_violation_carries_structured_dump(self, tmp_path):
        engine = Engine()
        check = Sanitizer(engine)
        check.on_dispatch(5.0, 1, None)
        with pytest.raises(InvariantViolation) as excinfo:
            check.on_dispatch(4.0, 2, None)
        dump = excinfo.value.dump
        for key in ("now", "event_count", "checks", "log_tail", "vps", "heap_head"):
            assert key in dump
        # and it serializes to JSON for CI artifacts
        path = str(tmp_path / "dump.json")
        write_dump(path, excinfo.value)
        with open(path) as fh:
            payload = json.load(fh)
        assert payload["invariant"] == excinfo.value.invariant
        assert payload["dump"]["checks"] == dump["checks"]

    def test_verify_store_rejects_inconsistent_namespace(self):
        s = CheckpointStore()
        s.begin_write(1, 0, None, 8)
        s._sets[1][0].rank = 5  # corrupt the namespace key/field pairing
        with pytest.raises(InvariantViolation, match="store-namespace"):
            verify_store(s)

    def test_reintroduced_subset_cleanup_bug_is_caught(self, monkeypatch):
        """Deliberately re-introduce the pre-fix subset semantics of
        ``is_valid`` (ranks >= nranks ignored): the post-cleanup audit
        must flag the leftover wide set, because it re-derives validity
        from the raw namespace instead of trusting ``is_valid``."""

        def subset_is_valid(self, ckpt_id, nranks):
            return all(
                self.state_of(ckpt_id, r) is FileState.COMPLETE for r in range(nranks)
            )

        monkeypatch.setattr(CheckpointStore, "is_valid", subset_is_valid)
        s = CheckpointStore()
        for r in range(4):  # leftover set from a wider job
            s.begin_write(50, r, None, 8)
            s.commit_write(50, r)
        assert s.cleanup_incomplete(nranks=2) == []  # the bug: set survives
        with pytest.raises(InvariantViolation, match="store-cleanup-exact-set"):
            verify_store_cleaned(s, 2)

    def test_verify_store_cleaned_accepts_exact_sets(self):
        s = CheckpointStore()
        for r in range(2):
            s.begin_write(10, r, None, 8)
            s.commit_write(10, r)
        s.cleanup_incomplete(nranks=2)
        verify_store_cleaned(s, 2)  # must not raise


class TestWiring:
    def test_env_var_enables_checking(self, monkeypatch):
        monkeypatch.delenv("XSIM_CHECK", raising=False)
        assert not checking_enabled()
        assert XSim(SystemConfig.small_test_system(nranks=2)).checker is None
        monkeypatch.setenv("XSIM_CHECK", "1")
        assert checking_enabled()
        sim = XSim(SystemConfig.small_test_system(nranks=2))
        assert sim.checker is not None
        assert sim.engine.check is sim.checker
        assert sim.world.check is sim.checker

    def test_explicit_check_overrides_env(self, monkeypatch):
        monkeypatch.setenv("XSIM_CHECK", "1")
        assert XSim(SystemConfig.small_test_system(nranks=2), check=False).checker is None
        monkeypatch.setenv("XSIM_CHECK", "0")
        assert not checking_enabled()
        assert XSim(SystemConfig.small_test_system(nranks=2), check=True).checker is not None

    def test_restart_driver_audits_store_under_check(self):
        from repro.apps.heat3d import HeatConfig, heat3d
        from repro.core.restart import RestartDriver

        system = SystemConfig.small_test_system(nranks=8)
        workload = HeatConfig.paper_workload(
            checkpoint_interval=10, nranks=8, iterations=30
        )
        driver = RestartDriver(
            system,
            heat3d,
            make_args=lambda store: (workload, store),
            schedule=None,
            mttf=200.0,
            seed=3,
            check=True,
        )
        run = driver.run()
        assert run.completed
        verify_store_cleaned(run.store, 8)


class TestSpawnChild:
    def test_matches_seed_sequence_spawn_semantics(self):
        streams = RngStreams(1234)
        parent = np.random.SeedSequence(
            entropy=1234, spawn_key=(zlib.crc32(b"finject"),)
        )
        children = parent.spawn(10)
        for i in (0, 3, 9):
            expected = np.random.Generator(np.random.PCG64(children[i])).random()
            assert streams.spawn_child("finject", i).random() == expected

    def test_first_draws_pairwise_distinct(self):
        draws = [
            float(RngStreams(0).spawn_child("finject", i).random()) for i in range(100)
        ]
        assert len(set(draws)) == 100

    def test_fresh_generator_each_call(self):
        streams = RngStreams(7)
        assert (
            streams.spawn_child("x", 0).random() == streams.spawn_child("x", 0).random()
        )

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            RngStreams(0).spawn_child("x", -1)


class TestDifferentialHarness:
    def test_run_all_passes_and_writes_no_artifacts(self, tmp_path):
        from repro.check.differential import run_all

        artifacts = tmp_path / "artifacts"
        results = run_all(jobs=2, artifacts_dir=str(artifacts))
        assert [r.name for r in results] == [
            "rerun",
            "coalescing",
            "trace-replay",
            "campaign-parallel",
            "collectives",
            "sharded-parity",
            "obs-parity",
            "scenario-parity",
            "cache-parity",
        ]
        failed = [r for r in results if not r.passed]
        assert not failed, "\n".join(str(r) for r in failed)
        assert not artifacts.exists()  # artifacts only appear on failure

    def test_unknown_check_is_one_error_line(self, capsys):
        from repro.cli import main

        assert main(["simcheck", "--only", "nope"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: unknown check 'nope'; one of rerun, coalescing, trace-replay, "
            "campaign-parallel, collectives, sharded-parity, obs-parity, "
            "scenario-parity, cache-parity\n"
        )

    def test_failing_check_writes_artifacts(self, tmp_path, monkeypatch):
        import repro.check.differential as differential

        def fake_rerun(*args, **kwargs):
            return differential.CheckResult(
                "rerun", False, "forced failure", artifacts={"rerun.txt": "boom\n"}
            )

        monkeypatch.setattr(differential, "check_rerun", fake_rerun)
        results = differential.run_all(jobs=2, artifacts_dir=str(tmp_path / "a"))
        assert not results[0].passed
        assert (tmp_path / "a" / "rerun.txt").read_text() == "boom\n"
        summary = (tmp_path / "a" / "summary.txt").read_text()
        assert "[FAIL] rerun" in summary

    def test_invariant_violation_inside_check_becomes_failure(self, monkeypatch):
        import repro.check.differential as differential

        def raising_check(*args, **kwargs):
            raise InvariantViolation("fake", "synthetic", dump={"checks": 1})

        monkeypatch.setattr(differential, "check_coalescing", raising_check)
        results = differential.run_all(jobs=2)
        by_name = {r.name: r for r in results}
        assert not by_name["coalescing"].passed
        assert "invariant violation" in by_name["coalescing"].detail
        assert "coalescing-violation.json" in by_name["coalescing"].artifacts


class TestCli:
    def test_record_and_replay_round_trip(self, tmp_path, capsys):
        from repro.cli import main

        trace = str(tmp_path / "run.trace")
        base = ["app", "--app", "ring", "--ranks", "4", "--iterations", "5"]
        assert main(base + ["--record-trace", trace]) == 0
        assert "recorded" in capsys.readouterr().out
        assert main(base + ["--replay", trace]) == 0
        assert "replay matches" in capsys.readouterr().out

    def test_replay_divergence_exits_nonzero(self, tmp_path, capsys):
        from repro.cli import main

        trace = str(tmp_path / "run.trace")
        base = ["app", "--app", "ring", "--ranks", "4"]
        assert main(base + ["--iterations", "5", "--record-trace", trace]) == 0
        capsys.readouterr()
        assert main(base + ["--iterations", "6", "--replay", trace]) == 1
        assert "diverge" in capsys.readouterr().out

    def test_trace_flags_reject_mttf(self, tmp_path, capsys):
        from repro.cli import main

        rc = main(
            ["app", "--app", "ring", "--ranks", "4", "--mttf", "100",
             "--record-trace", str(tmp_path / "t")]
        )
        assert rc == 2
        assert "--record-trace" in capsys.readouterr().err

    def test_check_flag_runs_sanitized(self, capsys):
        from repro.cli import main

        assert main(["app", "--app", "ring", "--ranks", "4", "--iterations", "5", "--check"]) == 0

    def test_simcheck_parser_wired(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["simcheck", "-j", "2", "--artifacts", "x"])
        assert args.jobs == 2 and args.artifacts == "x" and callable(args.fn)
