"""Event tracing, record/replay and the invariant sanitizer.

Covers the determinism/replay tooling in :mod:`repro.check`: the event
trace round-trips and diffs, a failure run records and replays with zero
divergence, and the sanitizer stays silent on clean runs and actually
fires on corrupted state (including a deliberately re-introduced
checkpoint-cleanup bug).
"""

import json

import pytest

from repro.check import InvariantViolation, checking_enabled
from repro.check.sanitizer import Sanitizer, verify_store, verify_store_cleaned, write_dump
from repro.check.trace import EventTrace
from repro.core.checkpoint.store import CheckpointStore, FileState
from repro.core.harness.config import SystemConfig
from repro.core.harness.experiment import result_digest
from repro.core.simulator import XSim
from repro.pdes.engine import Engine


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


class TestCli:
    def test_record_and_replay_round_trip(self, tmp_path, capsys):
        from repro.cli import main

        trace = str(tmp_path / "run.trace")
        base = ["app", "--app", "heat3d", "--ranks", "4", "--iterations", "5"]
        assert main(base + ["--record-trace", trace]) == 0
        assert "recorded" in capsys.readouterr().out
        assert main(base + ["--replay", trace]) == 0
        assert "replay matches" in capsys.readouterr().out

    def test_replay_divergence_exits_nonzero(self, tmp_path, capsys):
        from repro.cli import main

        trace = str(tmp_path / "run.trace")
        base = ["app", "--app", "heat3d", "--ranks", "4"]
        assert main(base + ["--iterations", "5", "--record-trace", trace]) == 0
        capsys.readouterr()
        assert main(base + ["--iterations", "6", "--replay", trace]) == 1
        assert "diverge" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flag, content, says",
        [
            ("--replay", None, "Is a directory"),
            ("--replay", "plain text\n", "is not an xsim event trace"),
            ("--replay", "# xsim-event-trace v1 1\n0x0p+0 1 2 arrive\n", ":2: bad trace entry"),
            ("--replay", "# xsim-event-trace v1 1\n0x0p+0 x 2 arrive -1\n", ":2: bad trace entry"),
            ("--record-trace", None, "does not exist"),
        ],
        ids=["directory", "not-a-trace", "short-line", "non-integer", "missing-directory"],
    )
    def test_a_trace_file_is_refused_before_the_run(self, tmp_path, capsys, flag, content, says):
        path = tmp_path / "t"
        if content is not None:
            path.write_text(content)
        elif flag == "--replay":
            path.mkdir()
        else:
            path = path / "missing" / "run.trace"
        from repro.cli import main

        assert main(["app", "--ranks", "4", flag, str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1 and says in err

    def test_check_flag_runs_sanitized(self, capsys):
        from repro.cli import main

        assert main(["app", "--app", "heat3d", "--ranks", "4", "--iterations", "5", "--check"]) == 0
