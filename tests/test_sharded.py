"""The sharded conservative-parallel engine: parity, guards, plumbing.

The engine's contract (``repro.pdes.sharded``) is *observational
equivalence with the serial engine* under the paper's timing model: for
any shard count and any lookahead within the derived safe bound, a
sharded run produces the same per-rank event sequences, the same result
digest, and the same resilience behavior (failure broadcast, detection,
abort) as ``shards=1``.  ``TestParityProperty`` sweeps the parameter
space with Hypothesis and diffs per-rank traces of a failure run,
``TestRestartCycleParity`` holds a failure -> restart cycle to the serial
one, and the rest exercises the integration seams (tree collectives,
worker pickling, CLI capping, the two transports' refusals).
"""

import math
import multiprocessing as mp
import os
import pickle
import threading
import warnings
from time import perf_counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.heat3d import HeatConfig, heat3d
from repro.core.checkpoint.store import CheckpointStore
from repro.core.faults.schedule import FailureSchedule
from repro.core.harness.config import SystemConfig
from repro.core.harness.experiment import result_digest
from repro.core.restart import RestartDriver
from repro.core.simulator import XSim
from repro.mpi.errhandler import ERRORS_ARE_FATAL, ERRORS_RETURN
from repro.mpi.messages import EAGER, RTS
from repro.models.network.model import NetworkModel, NetworkTier
from repro.obs import to_jsonl
from repro.pdes.sharded import (
    ShardWorker,
    _Coordinator,
    derive_lookahead_matrix,
    partition_ranks,
)
from repro.pdes.shmring import RingPeerDead, ShmRing, pack_envelope, unpack_envelope
from repro.util.errors import ConfigurationError, ShardWorkerDied

NRANKS = 16
ITERATIONS = 12
INTERVAL = 5

fork_required = pytest.mark.skipif(
    "fork" not in mp.get_all_start_methods(),
    reason="fork start method unavailable on this platform",
)


def derive_lookahead(network: NetworkModel, parts: list[range]) -> float:
    """Test oracle: the provably safe *global* lookahead of a contiguous
    partition — the independent lower bound every entry of
    ``derive_lookahead_matrix`` must dominate, and the uniform window the
    ``shard_lookahead`` override is scaled from.

    For a boundary between ranks ``b-1`` and ``b``: any cross-shard pair
    ``(i, j)`` with ``i < b <= j`` that shares a node (or chip) forces
    ``b-1`` and ``b`` to share it too (block rank placement + contiguity).
    Contrapositively, the boundary pair's tier bounds how *close* any pair
    crossing that boundary can be, so the minimum wire latency over the
    admissible tiers is a lower bound on every cross-shard latency:

    * boundary on different nodes  -> every crossing pair is inter-node:
      latency >= system tier latency (>= one hop);
    * boundary on one node, different chips -> crossing pairs are at
      closest on-node;
    * boundary on one chip -> no constraint, take the minimum tier.
    """
    sys_lat = network.system.latency
    node_lat = network.on_node.latency
    chip_lat = network.on_chip.latency
    lookahead = math.inf
    for part in parts[1:]:
        b = part[0]
        tier = network.tier(b - 1, b)
        if tier is NetworkTier.SYSTEM:
            bound = sys_lat
        elif tier is NetworkTier.ON_NODE:
            bound = min(node_lat, sys_lat)
        else:
            bound = min(chip_lat, node_lat, sys_lat)
        lookahead = min(lookahead, bound)
    if math.isinf(lookahead):
        raise ConfigurationError("lookahead is only defined for >= 2 shards")
    if lookahead <= 0.0:
        raise ConfigurationError(
            "sharded execution requires a positive minimum cross-shard wire "
            f"latency; this network derives a lookahead of {lookahead!r}"
        )
    return lookahead


def paper_network(nranks, **overrides):
    """The NetworkModel of a paper system (optionally reconfigured)."""
    return XSim(SystemConfig.paper_system(nranks=nranks, **overrides)).world.network


def build_sim(nranks=NRANKS, collective="linear", **xsim_kwargs):
    system = SystemConfig.paper_system(nranks=nranks, collective_algorithm=collective)
    workload = HeatConfig.paper_workload(
        checkpoint_interval=INTERVAL, nranks=nranks, iterations=ITERATIONS
    )
    return XSim(system, **xsim_kwargs), workload


def run_heat(
    nranks=NRANKS,
    failure=None,
    collective="linear",
    la_frac=None,
    **xsim_kwargs,
):
    """One paper-timing heat3d run; returns ``(sim, result)``.

    ``la_frac`` scales the shard lookahead to a fraction of the derived
    safe bound (requires ``shards`` in ``xsim_kwargs``).
    """
    sim, workload = build_sim(nranks=nranks, collective=collective, **xsim_kwargs)
    if la_frac is not None:
        parts = partition_ranks(nranks, xsim_kwargs["shards"])
        sim.shard_lookahead = la_frac * derive_lookahead(sim.world.network, parts)
    if failure is not None:
        sim.inject_failure(*failure)
    result = sim.run(heat3d, args=(workload, CheckpointStore()))
    return sim, result


@pytest.fixture(scope="module")
def failure_point():
    """A mid-run (rank, time) failure measured off the clean exit time."""
    _, clean = run_heat()
    return (NRANKS // 3, 0.4 * clean.exit_time)


@pytest.fixture(scope="module")
def serial_digests(failure_point):
    """Serial reference digests, computed once: {with_failure: digest}."""
    return {
        False: result_digest(run_heat()[1]),
        True: result_digest(run_heat(failure=failure_point)[1]),
    }


class TestPartition:
    def test_covers_all_ranks_contiguously(self):
        for nshards in (1, 2, 3, 4, 7):
            parts = partition_ranks(64, nshards)
            assert len(parts) == nshards
            flat = [r for part in parts for r in part]
            assert flat == list(range(64))

    def test_balanced_within_one(self):
        for nranks, nshards in ((64, 4), (65, 4), (10, 3)):
            sizes = [len(p) for p in partition_ranks(nranks, nshards)]
            assert sum(sizes) == nranks
            assert max(sizes) - min(sizes) <= 1

    def test_lookahead_bounded_by_cross_shard_latency(self):
        sim, _ = build_sim()
        parts = partition_ranks(NRANKS, 4)
        la = derive_lookahead(sim.world.network, parts)
        assert la > 0.0
        # No cross-shard pair may be reachable faster than the lookahead.
        net = sim.world.network
        for k, part in enumerate(parts):
            for other in parts[k + 1 :]:
                for src in part:
                    for dst in other:
                        assert net.wire_latency(src, dst) >= la

    def test_parity_with_packed_nodes(self):
        """Per-pair lookahead on a machine of four ranks a node reproduces
        the serial digest, where the balanced cuts fall on node edges (4
        shards: ranks 8, 16, 24) and where they split a node (3 shards:
        ranks 11 and 22)."""

        def run(**kw):
            system = SystemConfig.paper_system(nranks=32, ranks_per_node=4)
            workload = HeatConfig.paper_workload(
                checkpoint_interval=INTERVAL, nranks=32, iterations=ITERATIONS
            )
            sim = XSim(system, **kw)
            return sim, sim.run(heat3d, args=(workload, CheckpointStore()))

        serial = result_digest(run()[1])
        transports = ["inline"] + (["shm"] if "fork" in mp.get_all_start_methods() else [])
        for sizes in ([8, 8, 8, 8], [11, 11, 10]):
            for transport in transports:
                sim, sharded = run(shards=len(sizes), shard_transport=transport)
                assert sim.shard_stats.partition == sizes, transport
                assert result_digest(sharded) == serial, (sizes, transport)


class TestLookaheadMatrix:
    """The per-shard-pair lookahead matrix: safety and window economy.

    ``derive_lookahead_matrix`` must dominate the global bound (every
    entry is a *wider* window than ``derive_lookahead`` would grant),
    stay symmetric, satisfy the triangle inequality (a reaction relayed
    through a third shard is still covered), and — run against the same
    workload — never need *more* coordination windows than the uniform
    global scheme while keeping digests bit-identical on every transport.
    """

    @settings(max_examples=10, deadline=None)
    @given(
        nranks=st.integers(min_value=8, max_value=96),
        nshards=st.integers(min_value=2, max_value=6),
        rpn=st.sampled_from([1, 2, 4]),
    )
    def test_dominates_global_bound_symmetric_triangular(self, nranks, nshards, rpn):
        network = paper_network(nranks, ranks_per_node=rpn)
        parts = partition_ranks(nranks, nshards)
        if len(parts) < 2:
            return
        la = derive_lookahead(network, parts)
        matrix = derive_lookahead_matrix(network, parts)
        n = len(parts)
        for j in range(n):
            assert math.isinf(matrix[j][j])
            for k in range(n):
                if j == k:
                    continue
                assert matrix[j][k] >= la
                assert matrix[j][k] == matrix[k][j]
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if len({i, j, k}) == 3:
                        assert matrix[i][k] <= matrix[i][j] + matrix[j][k] + 1e-15

    def test_distant_shards_get_wider_windows(self):
        """On a torus the matrix is genuinely non-uniform: some pair's
        bound exceeds the global minimum (that is the whole point)."""
        network = paper_network(64)
        parts = partition_ranks(64, 4)
        matrix = derive_lookahead_matrix(network, parts)
        la = derive_lookahead(network, parts)
        off = [matrix[j][k] for j in range(4) for k in range(4) if j != k]
        assert min(off) == pytest.approx(la)
        assert max(off) > la

    def test_matrix_never_needs_more_windows_than_global(self):
        """Same run, matrix windows vs the uniform-global override."""
        sim_m, res_m = run_heat(nranks=64, shards=4, shard_transport="inline")
        sim_g, res_g = run_heat(
            nranks=64, shards=4, shard_transport="inline", la_frac=1.0
        )
        assert result_digest(res_m) == result_digest(res_g)
        assert sim_m.shard_stats.windows <= sim_g.shard_stats.windows
        assert sim_m.shard_stats.lookahead_max > sim_m.shard_stats.lookahead
        # The override collapses the matrix to the uniform global bound.
        assert sim_g.shard_stats.lookahead_max == sim_g.shard_stats.lookahead

    @pytest.mark.parametrize(
        "transport",
        [
            "inline",
            pytest.param("shm", marks=fork_required),
        ],
    )
    @pytest.mark.parametrize("scheme", ["matrix", "global"])
    def test_digest_parity_across_schemes_and_transports(
        self, serial_digests, transport, scheme
    ):
        _, res = run_heat(
            shards=3,
            shard_transport=transport,
            la_frac=1.0 if scheme == "global" else None,
        )
        assert result_digest(res) == serial_digests[False]


class TestShmRing:
    """The SPSC shared-memory ring and the packed envelope codec."""

    def test_records_round_trip_through_wraparound(self):
        ring = ShmRing(capacity=64)
        try:
            for i in range(40):  # total bytes written >> capacity
                payload = bytes([i % 251]) * (i % 23)
                ring.write(payload)
                assert ring.read() == payload
        finally:
            ring.destroy()

    def test_record_larger_than_capacity_streams(self):
        ring = ShmRing(capacity=64)
        blob = os.urandom(1500)
        try:
            writer = threading.Thread(target=ring.write, args=(blob,))
            writer.start()
            out = ring.read()
            writer.join()
            assert out == blob
        finally:
            ring.destroy()

    def test_blocked_read_detects_dead_peer(self):
        ring = ShmRing(capacity=64)
        try:
            with pytest.raises(RingPeerDead):
                ring.read(alive=lambda: False)
        finally:
            ring.destroy()

    def test_a_record_landed_before_the_peer_died_is_read(self):
        """The writer lands its last record and exits between the
        reader's empty look and its liveness check: the record is read,
        not reported as a dead peer."""
        ring = ShmRing(capacity=64)
        landed = []

        def write_then_die():
            if not landed:
                ring.write(b"last words")
                landed.append(True)
            return False

        try:
            assert ring.read(alive=write_then_die) == b"last words"
            with pytest.raises(RingPeerDead):  # nothing more will come
                ring.read(alive=write_then_die)
        finally:
            ring.destroy()

    @fork_required
    def test_two_processes_never_read_a_half_written_counter(self):
        """A forked writer streams 100,000 records through a 4 KiB ring
        while this process checks every one.  A counter stored by
        packing into the header reads as 0 for an instant (CPython
        zero-fills the field first): the reader then takes a negative
        count, the writer a slice wider than the ring."""
        records = 100_000
        record = lambda i: bytes([i % 251]) * (1 + i * 7919 % 300)  # noqa: E731
        ring = ShmRing(capacity=4096)

        def writer():
            for i in range(records):
                ring.write(record(i))

        proc = mp.get_context("fork").Process(target=writer)
        proc.start()
        try:
            for i in range(records):
                assert ring.read(alive=proc.is_alive) == record(i), i
            proc.join(timeout=30)
            assert proc.exitcode == 0
        finally:
            proc.kill()
            proc.join()
            ring.destroy()

    @fork_required
    @pytest.mark.parametrize("attempt", range(5))
    def test_ledger_canary_completes_with_the_serial_digest(self, attempt):
        """The scenario the ledger counts ``pdes.shmring.canary_fail_share``
        on: linear collectives at 1,728 ranks push enough envelopes
        through the rings that the packed counters died in 7 runs of 8."""
        from repro.run import Scenario, run_scenario

        before = set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()
        scenario = Scenario(ranks=12**3, iterations=1000, interval=500, collectives="linear",
                            shards=2, shard_transport="shm")
        outcome = run_scenario(scenario, cache=False)
        assert outcome.summary()["result_digest"].startswith("80cfdd5c11853f8c")
        assert outcome.metadata["shard_transport"] == "shm"
        assert not outcome.metadata.get("transport_fallback")
        if os.path.isdir("/dev/shm"):
            assert set(os.listdir("/dev/shm")) <= before

    PAYLOADS = [
        None,
        True,
        False,
        7,
        -(1 << 62),
        1 << 80,  # beyond i64: pickle fallback
        3.141592653589793,
        b"\x00raw bytes\xff",
        "unicodé ☃",
        np.arange(6, dtype=np.float64).reshape(2, 3),
        np.array([1, -2, 3], dtype=np.int32),
        np.array(2.5),  # 0-d array
        {"pickle": ["fallback", 1]},
    ]

    @pytest.mark.parametrize(
        "payload", PAYLOADS, ids=[f"p{i}" for i in range(len(PAYLOADS))]
    )
    def test_eager_envelope_round_trips_exactly(self, payload):
        env = ("a", 1.5, 0, 3, 4, 7, 64, payload, (0.25, 3, 9), EAGER, None)
        out = unpack_envelope(pack_envelope(env))
        assert out[:7] == env[:7]
        assert out[8:] == env[8:]
        got = out[7]
        if isinstance(payload, np.ndarray):
            assert isinstance(got, np.ndarray)
            assert got.dtype == payload.dtype
            assert got.shape == payload.shape
            assert np.array_equal(got, payload)
            assert got.flags.writeable  # serial path hands out a copy
        else:
            assert type(got) is type(payload)
            assert got == payload

    def test_rts_envelope_keeps_protocol_and_req_id(self):
        env = ("a", 2.25, 1, 8, 9, 42, 1 << 20, None, (2.0, 8, 77), RTS, 12)
        assert unpack_envelope(pack_envelope(env)) == env

    def test_rendezvous_completion_round_trips(self):
        env = ("r", 5, 42, 1.25)
        assert unpack_envelope(pack_envelope(env)) == env


@fork_required
class TestWorkerLiveness:
    """A dying worker must raise ShardWorkerDied, not hang the run."""

    @pytest.mark.parametrize("transport", ["shm"])
    def test_dead_worker_is_detected_and_named(self, transport, monkeypatch):
        original = ShardWorker.run_window

        def dying(self, end):
            if self.shard_id == 1:
                os._exit(1)  # simulates an OOM-killed / crashed worker
            return original(self, end)

        monkeypatch.setattr(ShardWorker, "run_window", dying)
        with pytest.raises(ShardWorkerDied, match="shard 1") as excinfo:
            run_heat(shards=3, shard_transport=transport)
        assert excinfo.value.shard_id == 1
        # The setup reply completed (round 1) but no window ever did.
        assert excinfo.value.last_round >= 1
        assert "last completed" in str(excinfo.value)


class TestTransportRefusal:
    """Two transports, inline by default: a run never goes on one it was
    not asked for, and a transport that cannot run is refused."""

    def test_shm_without_fork_is_refused(self, serial_digests, monkeypatch):
        import repro.pdes.sharded as sharded_mod

        monkeypatch.setattr(
            sharded_mod.mp, "get_all_start_methods", lambda: ["spawn"]
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigurationError, match="needs the fork start method"):
                run_heat(shards=2, shard_transport="shm")
            sim, res = run_heat(shards=2, shard_transport="inline")
        assert sim.shard_stats.transport == "inline"
        assert result_digest(res) == serial_digests[False]

    def test_fork_is_refused_at_every_entry(self, tmp_path, capsys):
        from repro.cli import main
        from repro.run import Scenario
        from repro.run.envvars import read_environment
        from repro.run.scenario import load_scenario_file

        path = tmp_path / "s.toml"
        path.write_text('[execution]\nshards = 2\nshard_transport = "fork"\n')
        entries = {
            "constructor": lambda: Scenario(shards=2, shard_transport="fork"),
            "file": lambda: load_scenario_file(path, use_environment=False),
            "variable": lambda: read_environment({"XSIM_SHARD_TRANSPORT": "fork"}),
        }
        for entry, build in entries.items():
            with pytest.raises(ConfigurationError) as refused:
                build()
            assert type(refused.value) is ConfigurationError, entry
            assert "fork" in str(refused.value) and refused.value.__cause__ is None, entry
        with pytest.raises(SystemExit) as exited:
            main(["app", "--ranks", "4", "--shards", "2", "--shard-transport", "fork"])
        assert exited.value.code == 2
        assert "--shard-transport" in capsys.readouterr().err

    def test_shards_run_inline_by_default(self):
        from repro.run import Scenario, run_scenario

        scenario = Scenario(ranks=NRANKS, iterations=ITERATIONS, interval=INTERVAL, shards=2)
        assert scenario.backend_name() == "sharded-inline"
        outcome = run_scenario(scenario, cache=False)
        assert outcome.metadata == {"shard_transport": "inline", "nshards": 2}
        serial = run_scenario(scenario.with_(shards=1), cache=False)
        assert outcome.digest() == serial.digest()


class TestParityProperty:
    """Any shard count x any safe lookahead x clean/failure == serial."""

    @settings(max_examples=8, deadline=None)
    @given(
        shards=st.integers(min_value=2, max_value=5),
        la_frac=st.floats(min_value=0.05, max_value=1.0),
        with_failure=st.booleans(),
    )
    def test_digest_matches_serial(
        self, serial_digests, failure_point, shards, la_frac, with_failure
    ):
        _, res = run_heat(
            failure=failure_point if with_failure else None,
            shards=shards,
            shard_transport="inline",
            la_frac=la_frac,
        )
        assert result_digest(res) == serial_digests[with_failure]

    def test_rank_traces_match_serial_with_failure(self, failure_point):
        serial_sim, serial = run_heat(failure=failure_point, record_events=True)
        sharded_sim, sharded = run_heat(
            failure=failure_point,
            shards=4,
            shard_transport="inline",
            record_events=True,
        )
        assert serial_sim.event_trace.diff_ranks(sharded_sim.event_trace) is None
        assert sharded.event_count == serial.event_count

    def test_tree_collectives_parity(self):
        """The bench scenario (tree collectives) holds parity too."""
        _, serial = run_heat(collective="tree")
        _, sharded = run_heat(
            collective="tree", shards=4, shard_transport="inline"
        )
        assert result_digest(sharded) == result_digest(serial)
        assert sharded.event_count == serial.event_count


def ping_then_compute(mpi, dt):
    """Rank 0 posts across the shard boundary and, *in the same step*,
    advances by ``dt``; rank 1 answers the ping at once."""
    yield from mpi.init()
    if mpi.rank == 0:
        yield from mpi.compute(1.0)
        yield from mpi.send(1, nbytes=8, tag=1)
        yield from mpi.compute(dt)
        yield from mpi.recv(1, tag=2)
    else:
        yield from mpi.recv(0, tag=1)
        yield from mpi.send(0, nbytes=8, tag=2)
    yield from mpi.finalize()


class TestWindowTightenedInsideAStep:
    """``Engine._step`` used to read ``_window_end`` once at entry, so the
    send's ``_tighten_window`` did not cap the coalescing of the compute
    after it: shard 0 ran past the pong's arrival (``ShardedParityError:
    causality violation`` for every ``dt`` above the round trip)."""

    @pytest.mark.parametrize(
        "transport", ["inline", pytest.param("shm", marks=fork_required)]
    )
    @pytest.mark.parametrize("dt", [1e-7, 5e-6, 1e-3])
    def test_a_post_caps_the_advance_coalesced_after_it(self, transport, dt):
        def run(**kw):
            sim = XSim(SystemConfig.small_test_system(nranks=2), **kw)
            return sim.run(ping_then_compute, args=(dt,))

        serial = run()
        sharded = run(shards=2, shard_transport=transport)
        assert result_digest(sharded) == result_digest(serial)
        assert sharded.event_count == serial.event_count
        if dt == 5e-6:
            assert (serial.exit_time, serial.event_count) == (1.000006, 10)


class TestInlineBarrierTime:
    def test_barrier_seconds_exclude_the_other_shards_run_time(self, monkeypatch):
        # Inline workers run one after another inside a round: what the
        # coordinator spent beyond them is the drive's wall less *all* of
        # their walls (it used to subtract the slowest one's only, and
        # report the other shard's run time as barrier).
        drive = _Coordinator.drive
        drive_walls = []

        def timed(self):
            t0 = perf_counter()
            try:
                return drive(self)
            finally:
                drive_walls.append(perf_counter() - t0)

        monkeypatch.setattr(_Coordinator, "drive", timed)
        # tree collectives: most windows have work on more than one shard
        sim, _ = run_heat(nranks=216, collective="tree", shards=3, shard_transport="inline")
        stats = sim.shard_stats
        assert stats.windows > 0
        assert 0.0 <= stats.barrier_seconds <= drive_walls[0] - stats.worker_busy_seconds + 1e-3


class TestCriticalPathEvents:
    @pytest.mark.parametrize(
        "transport", ["inline", pytest.param("shm", marks=fork_required)]
    )
    def test_counted_in_events_it_repeats_and_bounds_the_work(self, transport):
        """The critical path in dispatched events is the same on every
        run and transport (host load cannot move it), at least the
        busiest shard's work and at most all of it."""
        runs = [
            run_heat(nranks=64, collective="tree", shards=3, shard_transport=t)[0].shard_stats
            for t in ("inline", transport)
        ]
        assert runs[0].critical_path_events == runs[1].critical_path_events
        stats = runs[1]
        assert max(stats.shard_events) <= stats.critical_path_events
        assert stats.critical_path_events < sum(stats.shard_events)


class TestRestartCycleParity:
    """Failure -> abort -> restart-from-checkpoint, serial vs sharded."""

    def test_driver_segments_match_serial(self, failure_point):
        def driver(**kw):
            system = SystemConfig.paper_system(nranks=NRANKS)
            workload = HeatConfig.paper_workload(
                checkpoint_interval=INTERVAL, nranks=NRANKS, iterations=ITERATIONS
            )
            return RestartDriver(
                system,
                heat3d,
                make_args=lambda store: (workload, store),
                schedule=FailureSchedule.of(failure_point),
                **kw,
            )

        serial = driver().run()
        sharded = driver(shards=4, shard_transport="inline").run()
        assert serial.restarts == 1  # the failure really forced a cycle
        assert sharded.completed == serial.completed
        assert sharded.restarts == serial.restarts
        assert sharded.f == serial.f
        assert sharded.e2 == serial.e2
        assert [result_digest(s.result) for s in sharded.segments] == [
            result_digest(s.result) for s in serial.segments
        ]


class TestGuards:
    def test_message_events_match_serial(self, failure_point):
        def msg_jsonl(**kw):
            sim, _ = run_heat(failure=failure_point, observe=True, trace_detail=True, **kw)
            return to_jsonl(e for e in sim.observer.events if e.name.startswith("msg:"))

        serial = msg_jsonl()
        assert all(f'"name":"{n}"' in serial for n in ("msg:post", "msg:deliver", "msg:drop"))
        assert msg_jsonl(shards=2, shard_transport="inline") == serial

    def test_soft_errors_rejected(self):
        sim, workload = build_sim(shards=2, shard_transport="inline")
        sim.soft_errors  # instantiating the injector is the opt-in
        with pytest.raises(ConfigurationError, match="soft-error"):
            sim.run(heat3d, args=(workload, CheckpointStore()))

    @pytest.mark.parametrize("bad_frac", [0.0, -1.0, 1.5])
    def test_lookahead_override_bounds(self, bad_frac):
        with pytest.raises(ConfigurationError, match="lookahead override"):
            run_heat(shards=2, shard_transport="inline", la_frac=bad_frac)

    def test_unknown_transport_rejected(self):
        with pytest.raises(ConfigurationError, match="transport"):
            run_heat(shards=2, shard_transport="smoke-signals")


class TestForkPickling:
    def test_errhandler_sentinels_keep_identity(self):
        for sentinel in (ERRORS_ARE_FATAL, ERRORS_RETURN):
            assert pickle.loads(pickle.dumps(sentinel)) is sentinel


class TestCappedShards:
    def test_inline_never_capped(self, monkeypatch):
        from repro import cli

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert cli.capped_shards(8, jobs=4, transport="inline") == 8

    def test_shm_capped_to_cpu_budget(self, monkeypatch, capsys):
        from repro import cli

        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        assert cli.capped_shards(8, jobs=2, transport="shm") == 2
        assert "oversubscribe" in capsys.readouterr().err

    def test_fit_is_untouched(self, monkeypatch, capsys):
        from repro import cli

        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert cli.capped_shards(4, jobs=2, transport="shm") == 4
        assert capsys.readouterr().err == ""
