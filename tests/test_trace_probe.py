"""Per-message events on the obs bus (the DUMPI-trace analogue) and probe
operations."""

import json

import pytest

from repro.core.harness.config import SystemConfig
from repro.core.simulator import XSim
from repro.mpi.constants import ANY_SOURCE, ANY_TAG
from repro.obs import Observer, to_jsonl
from tests.conftest import messages, run_app


def traced_run(app, nranks=2, failures=None, **overrides):
    system = SystemConfig.small_test_system(nranks=nranks, **overrides)
    sim = XSim(system, observe=True, trace_detail=True)
    for rank, time in failures or []:
        sim.inject_failure(rank, time)
    result = sim.run(app)
    return sim, result


def pingpong(mpi):
    yield from mpi.init()
    if mpi.rank == 0:
        yield from mpi.send(1, nbytes=100, tag=7)
        yield from mpi.recv(1, tag=8)
    else:
        yield from mpi.recv(0, tag=7)
        yield from mpi.send(0, nbytes=200, tag=8)
    yield from mpi.finalize()


def send_to_the_dead(mpi):
    yield from mpi.init()
    if mpi.rank == 0:
        yield from mpi.send(1, nbytes=64, tag=0)
        yield from mpi.compute(10.0)
    yield from mpi.finalize()


class TestMessageEvents:
    def test_records_posts_and_deliveries(self):
        sim, result = traced_run(pingpong)
        assert result.completed
        posts = messages(sim, ctx=2)  # world pt2pt context
        assert len(posts) == 2
        first = posts[0]
        assert (first["src"], first["dst"], first["tag"], first["nbytes"]) == (0, 1, 7, 100)
        (delivered,) = messages(sim, "msg:deliver", ctx=2, tag=7)
        assert (delivered["src"], delivered["dst"], delivered["nbytes"]) == (0, 1, 100)
        assert delivered["time"] > first["time"]

    def test_posts_equal_messages_sent(self):
        sim, _ = traced_run(pingpong)
        assert len(messages(sim)) == sim.world.messages_sent == 4
        assert len(messages(sim, "msg:deliver")) == sim.world.messages_sent

    def test_collective_traffic_traced_separately(self):
        sim, _ = traced_run(pingpong)
        # finalize's barrier runs on the collective context (odd)
        assert len(messages(sim, ctx=3)) == 2  # linear barrier, 2 ranks

    def test_traffic_matrix_and_totals(self):
        sim, _ = traced_run(pingpong)
        matrix = {}
        for m in messages(sim, ctx=2):
            matrix[m["src"], m["dst"]] = matrix.get((m["src"], m["dst"]), 0) + m["nbytes"]
        assert matrix == {(0, 1): 100, (1, 0): 200}

    def test_dropped_messages_marked(self):
        """Messages to a failed process are deleted - and the bus says so,
        at the instant the message reached the dead rank."""
        sim, result = traced_run(send_to_the_dead, failures=[(1, 0.0)])
        assert result.aborted
        (post,) = messages(sim, dst=1)
        (drop,) = messages(sim, "msg:drop")
        assert (drop["src"], drop["dst"], drop["ctx"], drop["nbytes"]) == (0, 1, 2, 64)
        wire = sim.world.network.transfer_time(64, 0, 1)
        assert drop["time"] == post["time"] + wire
        assert not messages(sim, "msg:deliver", dst=1)

    def test_drop_time_exported_in_rows(self):
        sim, _ = traced_run(send_to_the_dead, failures=[(1, 0.0)])
        (drop,) = messages(sim, "msg:drop")
        rows = [json.loads(line) for line in to_jsonl(sim.observer).splitlines()]
        (row,) = [r for r in rows if r["name"] == "msg:drop"]
        assert (row["track"], row["start"], row["rank"]) == ("rank 1", drop["time"], 1)
        assert row["args"] == {"ctx": 2, "nbytes": 64, "src": 0, "tag": 0}

    def test_rendezvous_protocol_labelled(self):
        def app(mpi):
            yield from mpi.init()
            if mpi.rank == 0:
                yield from mpi.send(1, nbytes=10_000, tag=0)
            else:
                yield from mpi.recv(0, tag=0)
            yield from mpi.finalize()

        sim, _ = traced_run(app, eager_threshold=100)
        (big,) = messages(sim, src=0, dst=1, ctx=2)
        assert big["protocol"] == "rendezvous"
        assert {m["protocol"] for m in messages(sim, ctx=3)} == {"eager"}

    def test_tracing_disabled_by_default(self):
        run = run_app(pingpong, nranks=2)
        assert run.world.obs is None
        sim = XSim(SystemConfig.small_test_system(nranks=2), observe=Observer())
        sim.run(pingpong)
        assert not any(e.name.startswith("msg:") for e in sim.observer.events)

    def test_record_trace_is_gone(self):
        with pytest.raises(TypeError):
            XSim(SystemConfig.small_test_system(nranks=2), record_trace=True)

    def test_cache_hit_returns_the_cold_runs_message_events(self, tmp_path):
        from repro.cache import ResultCache
        from repro.run import Scenario, run_scenario

        scenario = Scenario(
            ranks=8, iterations=20, interval=10, failures="3@20s",
            observe=True, trace_detail=True,
        )
        cache = ResultCache(tmp_path / "cache")

        def msg_events(outcome):
            return [e for e in outcome.observer.sim_events() if e.name.startswith("msg:")]

        cold = run_scenario(scenario, cache=cache)
        warm = run_scenario(scenario, cache=cache)
        assert not cold.metadata.get("cache_hit") and warm.metadata.get("cache_hit")
        names = {e.name for e in msg_events(cold)}
        assert names == {"msg:post", "msg:deliver", "msg:drop"}
        assert msg_events(warm) == msg_events(cold)


class TestProbe:
    def test_iprobe_sees_buffered_message(self):
        def app(mpi):
            yield from mpi.init()
            out = None
            if mpi.rank == 0:
                yield from mpi.send(1, nbytes=48, tag=5)
            else:
                yield from mpi.compute(1.0)  # message is buffered by now
                status = mpi.iprobe(0, tag=5)
                yield from mpi.recv(0, tag=5)
                after = mpi.iprobe()
                out = (status, after)
            yield from mpi.finalize()
            return out

        run = run_app(app, nranks=2)
        status, after = run.result.exit_values[1]
        assert status is not None
        assert (status.source, status.tag, status.nbytes) == (0, 5, 48)
        assert after is None  # consumed

    def test_iprobe_none_when_nothing_matches(self):
        def app(mpi):
            yield from mpi.init()
            found = mpi.iprobe(source=ANY_SOURCE, tag=ANY_TAG)
            yield from mpi.barrier()
            return found

        run = run_app(app, nranks=2)
        assert run.result.exit_values[0] is None

    def test_probe_blocks_until_message(self):
        def app(mpi):
            yield from mpi.init()
            if mpi.rank == 0:
                yield from mpi.compute(2.0)
                yield from mpi.send(1, nbytes=8, tag=1)
                return None
            status = yield from mpi.probe(0, tag=1, poll_interval=0.1)
            arrival_clock = mpi.wtime()
            yield from mpi.recv(0, tag=1)
            return (status.nbytes, arrival_clock)

        system = SystemConfig.small_test_system(nranks=2, strict_finalize=False)
        run = run_app(app, nranks=2, system=system)
        nbytes, when = run.result.exit_values[1]
        assert nbytes == 8
        assert when == pytest.approx(2.0, abs=0.2)

    def test_probe_does_not_consume(self):
        def app(mpi):
            yield from mpi.init()
            if mpi.rank == 0:
                yield from mpi.send(1, payload="keep", nbytes=4, tag=2)
                return None
            yield from mpi.probe(0, tag=2, poll_interval=0.01)
            yield from mpi.probe(0, tag=2, poll_interval=0.01)  # still there
            return (yield from mpi.recv(0, tag=2))

        system = SystemConfig.small_test_system(nranks=2, strict_finalize=False)
        run = run_app(app, nranks=2, system=system)
        assert run.result.exit_values[1] == "keep"

    def test_iprobe_respects_communicator(self):
        def app(mpi):
            yield from mpi.init()
            dup = yield from mpi.comm_dup()
            out = None
            if mpi.rank == 0:
                yield from mpi.send(1, nbytes=16, tag=3, comm=dup)
            else:
                yield from mpi.compute(1.0)
                on_world = mpi.iprobe(0, tag=3)
                on_dup = mpi.iprobe(0, tag=3, comm=dup)
                yield from mpi.recv(0, tag=3, comm=dup)
                out = (on_world, on_dup is not None)
            yield from mpi.finalize()
            return out

        run = run_app(app, nranks=2)
        on_world, on_dup = run.result.exit_values[1]
        assert on_world is None
        assert on_dup is True
