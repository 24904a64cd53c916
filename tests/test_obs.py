"""The repro.obs observability layer: event bus, exporters, timeline."""

import json

import pytest

from repro.core.harness.config import SystemConfig
from repro.core.simulator import XSim
from repro.obs import (
    HOST,
    SIM,
    LatencyStats,
    ObsEvent,
    Observer,
    TimelineReport,
    load_events,
    to_chrome,
    to_csv,
    to_jsonl,
    write_export,
)
from tests.conftest import run_app


def noop(mpi):
    yield from mpi.init()
    yield from mpi.finalize()


def heat_sim(nranks=8, iterations=6, failure=None, observe=True, **xsim_kwargs):
    """A small heat3d run under the paper timing model, observed."""
    from repro.apps.heat3d import HeatConfig, heat3d
    from repro.core.checkpoint.store import CheckpointStore

    system = SystemConfig.paper_system(nranks=nranks)
    workload = HeatConfig.paper_workload(
        checkpoint_interval=3, nranks=nranks, iterations=iterations
    )
    sim = XSim(system, observe=observe, **xsim_kwargs)
    if failure is not None:
        sim.inject_failure(*failure)
    result = sim.run(heat3d, args=(workload, CheckpointStore()))
    return sim, result


def sample_observer() -> Observer:
    """A tiny synthetic timeline covering both domains and all tracks."""
    obs = Observer()
    obs.span(0.0, 2.0, "coll:barrier", rank=0)
    obs.span(0.0, 2.5, "coll:barrier", rank=1)
    obs.instant(1.5, "inject", rank=1, track="resilience", args={"reason": "test"})
    obs.instant(1.75, "detect", rank=0, track="resilience",
                args={"failed_rank": 1, "latency": 0.25})
    obs.span(0.0, 3.0, "segment", track="simulator", args={"index": 0})
    obs.host_span(10.0, 10.5, "engine-run", track="engine", args={"events": 42})
    return obs


class TestObserver:
    def test_default_tracks_from_rank(self):
        obs = Observer()
        obs.instant(1.0, "tick", rank=3)
        obs.instant(2.0, "tock")
        assert obs.events[0].track == "rank 3"
        assert obs.events[1].track == "simulator"

    def test_span_duration_and_end(self):
        obs = Observer()
        obs.span(1.0, 3.5, "work", rank=0)
        (e,) = obs.events
        assert (e.kind, e.start, e.duration, e.end) == ("span", 1.0, 2.5, 3.5)

    def test_args_canonicalized_sorted(self):
        obs = Observer()
        obs.instant(0.0, "a", args={"z": 1, "a": 2})
        assert obs.events[0].args == (("a", 2), ("z", 1))

    def test_domain_split(self):
        obs = sample_observer()
        assert {e.domain for e in obs.sim_events()} == {SIM}
        assert {e.domain for e in obs.host_events()} == {HOST}
        assert len(obs.sim_events()) + len(obs.host_events()) == len(obs.events)

    def test_extend_merges_foreign_events(self):
        a, b = Observer(), Observer()
        b.instant(5.0, "remote", rank=7)
        a.extend(b.events)
        assert a.events == b.events

    def test_detached_by_default(self):
        run = run_app(noop, nranks=2)
        assert run.sim.observer is None
        assert run.engine.obs is None
        assert run.world.obs is None

    def test_empty_observer_is_not_falsy(self):
        """Regression: Observer once defined __len__, so a fresh (empty)
        instance was falsy and ``XSim(observe=Observer())`` silently
        dropped it."""
        assert bool(Observer())


class TestChromeExport:
    def test_valid_trace_event_schema(self):
        doc = json.loads(to_chrome(sample_observer()))
        assert doc["displayTimeUnit"] == "ms"
        events = doc["traceEvents"]
        assert {e["ph"] for e in events} <= {"M", "X", "i"}
        for e in events:
            if e["ph"] == "i":
                assert e["s"] == "t"
            if e["ph"] == "X":
                assert e["dur"] >= 0
        # sim process metadata present, host excluded by default
        names = [e["args"]["name"] for e in events if e["name"] == "process_name"]
        assert names == ["simulation (virtual time)"]
        assert {e["pid"] for e in events} == {1}

    def test_microsecond_timestamps(self):
        doc = json.loads(to_chrome(sample_observer()))
        inject = next(e for e in doc["traceEvents"] if e["name"] == "inject")
        assert inject["ts"] == pytest.approx(1.5e6)

    def test_rank_stored_in_args(self):
        doc = json.loads(to_chrome(sample_observer()))
        inject = next(e for e in doc["traceEvents"] if e["name"] == "inject")
        assert inject["args"]["rank"] == 1
        assert inject["args"]["reason"] == "test"

    def test_track_display_order(self):
        """Rank tracks numerically first, then resilience, then simulator."""
        obs = Observer()
        obs.instant(0.0, "x", rank=10)
        obs.instant(0.0, "x", rank=2)
        obs.instant(0.0, "y", track="resilience")
        obs.instant(0.0, "z")  # simulator
        doc = json.loads(to_chrome(obs))
        tids = {
            e["args"]["name"]: e["tid"]
            for e in doc["traceEvents"]
            if e["name"] == "thread_name"
        }
        assert tids["rank 2"] < tids["rank 10"] < tids["resilience"] < tids["simulator"]

    def test_include_host_adds_second_process(self):
        doc = json.loads(to_chrome(sample_observer(), include_host=True))
        assert {e["pid"] for e in doc["traceEvents"]} == {1, 2}
        names = [
            e["args"]["name"]
            for e in doc["traceEvents"]
            if e["name"] == "process_name"
        ]
        assert "execution (wall clock)" in names


class TestExportDeterminism:
    def test_output_is_pure_function_of_event_multiset(self):
        """The core byte-identity guarantee: producer interleaving (serial
        dispatch vs shard merge order) must not affect the export."""
        forward = sample_observer()
        reversed_ = Observer()
        reversed_.extend(reversed(forward.events))
        assert to_chrome(forward) == to_chrome(reversed_)
        assert to_jsonl(forward) == to_jsonl(reversed_)
        assert to_csv(forward) == to_csv(reversed_)

    def test_jsonl_golden(self):
        obs = Observer()
        obs.instant(1.5, "inject", rank=3, track="resilience", args={"reason": "x"})
        assert to_jsonl(obs) == (
            '{"args":{"reason":"x"},"domain":"sim","duration":0.0,'
            '"kind":"instant","name":"inject","rank":3,"start":1.5,'
            '"track":"resilience"}\n'
        )

    def test_csv_golden(self):
        obs = Observer()
        obs.span(0.1, 0.30000000000000004, "w", rank=2)
        assert to_csv(obs) == (
            "domain,kind,track,name,start,duration,rank,args\n"
            'sim,span,rank 2,w,0.1,0.20000000000000004,2,{}\n'
        )

    def test_empty_exports(self):
        obs = Observer()
        assert to_jsonl(obs) == ""
        assert to_csv(obs).splitlines() == ["domain,kind,track,name,start,duration,rank,args"]
        assert json.loads(to_chrome(obs))["traceEvents"] == []


class TestRoundTrip:
    def test_jsonl_roundtrip_exact(self, tmp_path):
        obs = sample_observer()
        path = str(tmp_path / "t.jsonl")
        count = write_export(obs, path)
        loaded = load_events(path)
        expected = sorted(obs.sim_events(), key=ObsEvent.sort_key)
        assert loaded == expected
        assert count == len(expected)

    def test_csv_roundtrip_exact(self, tmp_path):
        """repr() floats in the CSV make the round-trip bit-exact."""
        obs = sample_observer()
        path = str(tmp_path / "t.csv")
        write_export(obs, path)
        assert load_events(path) == sorted(obs.sim_events(), key=ObsEvent.sort_key)

    def test_chrome_roundtrip_recovers_tracks_and_ranks(self, tmp_path):
        obs = sample_observer()
        path = str(tmp_path / "t.json")
        write_export(obs, path)
        loaded = load_events(path)
        expected = sorted(obs.sim_events(), key=ObsEvent.sort_key)
        assert [(e.track, e.name, e.rank, e.kind) for e in loaded] == [
            (e.track, e.name, e.rank, e.kind) for e in expected
        ]
        for got, want in zip(loaded, expected):
            assert got.start == pytest.approx(want.start)
            assert got.duration == pytest.approx(want.duration)

    def test_include_host_roundtrips_host_events(self, tmp_path):
        obs = sample_observer()
        path = str(tmp_path / "t.jsonl")
        count = write_export(obs, path, include_host=True)
        assert count == len(obs.events)
        assert any(e.domain == HOST for e in load_events(path))


class TestSimObservation:
    def test_clean_run_has_collectives_no_resilience(self):
        sim, result = heat_sim()
        assert result.completed
        spans = [e for e in sim.observer.sim_events() if e.name.startswith("coll:")]
        assert spans, "collective spans missing"
        assert not any(e.track == "resilience" for e in sim.observer.events)
        # the serial run path records one wall-clock engine-run span
        assert [e.name for e in sim.observer.host_events()] == ["engine-run"]

    def test_failure_run_resilience_sequence(self):
        _, clean = heat_sim(observe=None)
        victim, t_fail = 2, 0.4 * clean.exit_time
        sim, result = heat_sim(failure=(victim, t_fail))
        assert result.aborted and not result.completed
        res = [e for e in sim.observer.events if e.track == "resilience"]
        by_name = {}
        for e in res:
            by_name.setdefault(e.name, []).append(e)
        (inject,) = by_name["inject"]
        assert inject.rank == victim
        assert t_fail <= inject.start < result.exit_time
        assert len(by_name["notify"]) == 7  # every surviving rank hears of it
        assert by_name["detect"], "no rank detected the failure"
        for e in by_name["detect"]:
            assert dict(e.args)["failed_rank"] == victim
            assert dict(e.args)["latency"] >= 0
        assert len(by_name["abort"]) == 1
        assert inject.start <= min(e.start for e in by_name["notify"])

    def test_detail_gates_wait_spans(self):
        plain, _ = heat_sim(nranks=4, iterations=4)
        detailed, _ = heat_sim(nranks=4, iterations=4, observe=Observer(detail=True))
        assert not any(e.name == "wait" for e in plain.observer.events)
        waits = [e for e in detailed.observer.events if e.name == "wait"]
        assert waits
        assert all(e.kind == "span" and e.domain == SIM for e in waits)

    def test_observer_instance_passes_through(self):
        mine = Observer()
        sim, _ = heat_sim(nranks=4, iterations=4, observe=mine)
        assert sim.observer is mine
        assert mine.events


class TestShardedExportParity:
    def test_sharded_export_byte_identical_to_serial(self):
        _, clean = heat_sim(observe=None)
        failure = (2, 0.4 * clean.exit_time)
        serial, r1 = heat_sim(failure=failure)
        sharded, r2 = heat_sim(failure=failure, shards=2, shard_transport="inline")
        assert r1.exit_time == r2.exit_time
        assert to_chrome(serial.observer) == to_chrome(sharded.observer)
        assert to_jsonl(serial.observer) == to_jsonl(sharded.observer)
        # resilience instants survive sharding exactly once each
        res = [e for e in sharded.observer.sim_events() if e.track == "resilience"]
        assert sum(1 for e in res if e.name == "inject") == 1
        assert sum(1 for e in res if e.name == "abort") == 1


    def test_restart_run_keeps_trace_detail_on_every_backend(self):
        """``trace_detail`` used to be dropped whenever a scenario had
        failures: the restart driver built ``Observer(detail=False)``."""
        from repro.run import Scenario, run_scenario

        scenario = Scenario(
            ranks=8, iterations=40, interval=10, failures="3@50s",
            observe=True, trace_detail=True,
        )
        serial = run_scenario(scenario, cache=False)
        sharded = run_scenario(
            scenario.with_(shards=2, shard_transport="inline"), cache=False
        )
        assert serial.mode == "restart" and serial.run.restarts == 1
        assert serial.observer.detail is True
        assert any(e.name == "wait" for e in serial.observer.sim_events())
        assert to_chrome(serial.observer) == to_chrome(sharded.observer)
        assert to_jsonl(serial.observer) == to_jsonl(sharded.observer)


class TestTimelineReport:
    def test_latency_stats(self):
        s = LatencyStats.of([1.0, 3.0, 2.0])
        assert (s.count, s.min, s.mean, s.max) == (3, 1.0, 2.0, 3.0)

    def test_detection_latencies_per_rank(self):
        report = TimelineReport(sample_observer())
        assert report.detection_latencies() == {0: [0.25]}
        assert report.detection_stats()[0].count == 1

    def test_causal_tie_break_at_same_instant(self):
        obs = Observer()
        obs.instant(1.0, "detect", rank=0, track="resilience")
        obs.instant(1.0, "inject", rank=1, track="resilience")
        names = [e.name for e in TimelineReport(obs).resilience_events()]
        assert names == ["inject", "detect"]

    def test_render_sections(self):
        text = TimelineReport(sample_observer()).render(max_rows=3)
        assert "== timeline report ==" in text
        assert "-- resilience timeline --" in text
        assert "-- per-rank detection latency --" in text
        assert "-- joined timeline (head) --" in text

    def test_from_sim_requires_observer(self):
        run = run_app(noop, nranks=2)
        with pytest.raises(ValueError, match="observe"):
            TimelineReport.from_sim(run.sim)

    def test_joined_rows_include_drop_instant(self):
        obs = Observer(detail=True)
        obs.instant(1.0, "msg:post", rank=0, args={"dst": 1, "ctx": 2, "tag": 0,
                                                   "nbytes": 64, "protocol": "eager"})
        obs.instant(2.5, "msg:drop", rank=1, args={"src": 0, "ctx": 2, "tag": 0, "nbytes": 64})
        rows = TimelineReport(obs).joined_rows()
        assert (2.5, "msg:drop [rank 1] ctx=2 nbytes=64 src=0 tag=0") in rows
        assert rows[0][0] == 1.0


class TestRestartObservation:
    def test_driver_records_restart_and_segments(self):
        from repro.apps.naive_cr import NaiveCrConfig, naive_cr
        from repro.core.faults.schedule import FailureSchedule
        from repro.core.restart import RestartDriver

        driver = RestartDriver(
            SystemConfig.small_test_system(nranks=4),
            naive_cr,
            make_args=lambda store: (NaiveCrConfig(work=100.0, tau=10.0, delta=1.0), store),
            schedule=FailureSchedule.of((2, 55.0)),
            observe=True,
        )
        run = driver.run()
        assert run.completed and run.restarts == 1
        obs = driver.observer
        restarts = [e for e in obs.events if e.name == "restart"]
        assert len(restarts) == 1
        assert restarts[0].track == "resilience"
        assert dict(restarts[0].args) == {"segment": 1}
        segments = [e for e in obs.events if e.name == "segment"]
        assert len(segments) == 2
        # segments tile the continuous virtual clock
        assert segments[1].start == segments[0].end
        assert any(e.name == "inject" for e in obs.events)


class TestCli:
    def test_trace_out_and_timeline(self, tmp_path, capsys):
        from repro.cli import main

        path = str(tmp_path / "trace.json")
        assert (
            main(
                [
                    "app",
                    "--app",
                    "heat3d",
                    "--ranks",
                    "8",
                    "--iterations",
                    "6",
                    "--interval",
                    "3",
                    "--xsim-failures",
                    "2@20.0",
                    "--trace-out",
                    path,
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "exported" in out
        doc = json.loads(open(path).read())
        assert any(e.get("ph") == "i" for e in doc["traceEvents"])
        assert main(["timeline", path, "--rows", "5"]) == 0
        report = capsys.readouterr().out
        assert "== timeline report ==" in report
        assert "inject" in report

    def test_trace_out_jsonl_extension(self, tmp_path, capsys):
        from repro.cli import main

        path = str(tmp_path / "trace.jsonl")
        assert (
            main(
                ["app", "--app", "heat3d", "--ranks", "4", "--iterations", "4",
                 "--interval", "2", "--trace-out", path]
            )
            == 0
        )
        capsys.readouterr()
        events = load_events(path)
        assert events and all(e.domain == SIM for e in events)

    @pytest.mark.parametrize(
        "content", [None, "not json at all\n", '{"bad": 1}\n'],
        ids=["missing", "not-json", "no-event-keys"],
    )
    def test_timeline_of_a_bad_file_is_one_error_line(self, tmp_path, capsys, content):
        from repro.cli import main

        path = tmp_path / "trace.json"
        if content is not None:
            path.write_text(content)
        assert main(["timeline", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error: ") and str(path) in line

    @pytest.mark.parametrize("command", [
        ["app", "--ranks", "4", "--iterations", "4", "--interval", "2", "--no-cache"],
        ["explore", "--ranks", "4", "--iterations", "4", "--max-cells", "4", "--no-cache"],
    ], ids=["app", "explore"])
    def test_trace_out_into_a_missing_directory_fails_before_the_run(
        self, tmp_path, capsys, monkeypatch, command
    ):
        import repro.explore
        import repro.run.backends
        from repro.cli import main

        def must_not_run(*args, **kwargs):
            raise AssertionError("the run started")

        monkeypatch.setattr(repro.run.backends, "run_scenario", must_not_run)
        monkeypatch.setattr(repro.explore, "run_explore", must_not_run)
        target = str(tmp_path / "nonexistent" / "dir" / "x.json")
        assert main(command + ["--trace-out", target]) == 2
        captured = capsys.readouterr()
        (line,) = captured.err.splitlines()
        assert line.startswith("error: --trace-out ") and target in line
