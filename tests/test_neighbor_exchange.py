"""The pre-bound neighbour exchange against the call sequence it replaces.

``MpiApi.neighbor_plan`` + ``neighbor_exchange`` promise to be, event for
event, ``irecv`` per row -> send overhead -> ``post_send`` per row ->
``waitall(sends)`` -> ``wait`` per receive.  Every test runs one stencil
application twice — once through the fused primitive, once through that
explicit sequence (``explicit_exchange`` below, the reference) — and
requires an empty :class:`EventTrace` diff: same dispatch times, same heap
sequence numbers, same kinds, in the same order.
"""

from collections import defaultdict
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.heat3d import (
    BlockDecomposed,
    HeatConfig,
    factor3,
    halo_rows,
    heat3d,
    heat3d_serial_reference,
    neighbor_ranks,
)
from repro.core.faults.schedule import LinkDegradeFault
from repro.core.harness.config import SystemConfig
from repro.core.harness.experiment import result_digest
from repro.core.redundancy import RedundancyMonitor, redundant
from repro.core.simulator import XSim
from repro.mpi.api import MpiApi
from repro.mpi.constants import ERR_REVOKED, PROC_NULL
from repro.mpi.errhandler import ERRORS_RETURN, MpiError
from repro.run import Scenario, run_scenario
from repro.util.errors import ConfigurationError
from tests.conftest import messages
from tests.golden.repin import pin

#: (axis, step) of each plan row; tags as the stencil apps assign them.
FACES = ((0, -1), (0, +1), (1, -1), (1, +1), (2, -1), (2, +1))
TAGS = {face: 40 + i for i, face in enumerate(FACES)}


def stencil_rows(rank, dims, face_nbytes):
    """``(peer, send_tag, recv_tag, nbytes)`` per face of ``rank``."""
    neighbors = neighbor_ranks(rank, dims)
    return [
        (neighbors[(axis, step)], TAGS[(axis, step)], TAGS[(axis, -step)], face_nbytes)
        for axis, step in FACES
    ]


def explicit_exchange(mpi, rows, payloads=None):
    """The reference: what the apps spelled out before ``neighbor_exchange``.

    Every send goes through the facade's own ``isend`` — on the plain
    facade the overhead ``Advance`` plus ``MpiWorld.post_send`` with no
    pre-bound wire time, and a real ``Request`` back for ``waitall`` even
    where ``post_send`` left none (an eager send that completed at the
    post); wrapping facades (redundancy) add their hash side channel.
    """
    recvs = [mpi.irecv(peer, tag=recv_tag) for peer, _stag, recv_tag, _size in rows]
    sends = []
    for i, (peer, send_tag, _rtag, size) in enumerate(rows):
        payload = None if payloads is None else payloads[i]
        sends.append((yield from mpi.isend(peer, payload=payload, nbytes=size, tag=send_tag)))
    yield from mpi.waitall(sends)
    out = []
    for req in recvs:
        out.append((yield from mpi.wait(req)))
    return out


def stencil_app(mpi, dims, fused, rounds=3, face_nbytes=512, real=False,
                returns_errors=False, revoke_at=None, corrupt_replica=None):
    """``rounds`` of skewed compute + one exchange; returns what arrived."""
    yield from mpi.init()
    if returns_errors:
        mpi.set_errhandler(ERRORS_RETURN)
    rows = stencil_rows(mpi.rank, dims, face_nbytes)
    plan = mpi.neighbor_plan(rows) if fused else None
    seen = []
    try:
        for r in range(rounds):
            # Rank-dependent skew: some faces arrive before their receive
            # is posted (buffered), some after (posted) — both match paths.
            yield from mpi.compute(1e-3 * (1 + (mpi.rank * 7 + r) % 5))
            if revoke_at == (mpi.rank, r):
                yield from mpi.comm_revoke()
            payloads = None
            if real:
                payloads = [np.full(4, 1000.0 * mpi.rank + 10 * i + r) for i in range(len(rows))]
                if corrupt_replica is not None and mpi.replica == corrupt_replica:
                    payloads[1][0] += 0.5  # silent corruption in one replica's copy
            if fused:
                got = yield from mpi.neighbor_exchange(plan, payloads)
            else:
                got = yield from explicit_exchange(mpi, rows, payloads)
            if payloads is not None:
                for buf in payloads:
                    buf[:] = -1.0  # the wire copy was taken at the post
            seen.append([None if g is None else float(g[0]) for g in got])
    except MpiError as err:
        # No finalize on a revoked communicator: its barrier would fail too.
        return seen + [("error", err.code, mpi.wtime())]
    yield from mpi.finalize()
    return seen


def assert_identical(fused, explicit):
    """Empty trace diff, and everything that follows from it."""
    divergence = explicit.event_trace.diff(fused.event_trace)
    assert divergence is None, divergence.report()
    assert result_digest(fused.result) == result_digest(explicit.result)
    assert fused.result.exit_values == explicit.result.exit_values
    assert fused.world._msg_seq == explicit.world._msg_seq
    assert fused.world._post_seq == explicit.world._post_seq
    assert fused.engine._seq == explicit.engine._seq


def run_identical(dims, system=None, failures=(), faults=(), wrap=None, sim_kwargs=None,
                  **app_kwargs):
    """Run the fused and the explicit variant of :func:`stencil_app` on the
    same machine and faults, require identity, return the fused sim."""
    def app(mpi, dims, fused):
        return stencil_app(mpi, dims, fused, **app_kwargs)

    nranks = dims[0] * dims[1] * dims[2] * (2 if wrap else 1)
    sims = []
    for fused in (True, False):
        sim = XSim(system or SystemConfig.paper_system(nranks=nranks), record_events=True,
                   **(sim_kwargs or {}))
        for rank, time in failures:
            sim.inject_failure(rank, time)
        for fault in faults:
            sim.inject_perturbation(fault)
        sim.result = sim.run(app if wrap is None else wrap(app), args=(dims, fused))
        sims.append(sim)
    assert_identical(*sims)
    if sim_kwargs:  # instrumented: every hook fired the same number of times
        fused, explicit = sims
        assert fused.checker.checks == explicit.checker.checks > 0
        assert fused.observer.sim_events() == explicit.observer.sim_events()
    return sims[0]


class TestEventIdentity:
    def test_interior_and_corner_ranks(self):
        # 3x3x3: rank 13 is interior (six real faces), rank 0 a corner
        # (three PROC_NULL faces) — one run covers both and every edge/face
        # rank between them.
        dims = (3, 3, 3)
        assert PROC_NULL not in [row[0] for row in stencil_rows(13, dims, 8)]
        assert [row[0] for row in stencil_rows(0, dims, 8)].count(PROC_NULL) == 3
        sim = run_identical(dims)
        assert sim.result.completed
        for rank in (0, 13):
            assert any(e[2] == rank and e[3] == "arrive" for e in sim.event_trace.entries)

    def test_real_data_copied_at_post_and_delivered_to_the_right_row(self):
        dims = (2, 2, 2)
        sim = run_identical(dims, real=True)
        for rank, seen in sim.result.exit_values.items():
            rows = stencil_rows(rank, dims, 0)
            for r, faces in enumerate(seen):
                for i, (peer, *_rest) in enumerate(rows):
                    if peer == PROC_NULL:
                        assert faces[i] is None
                    else:
                        # the peer's send row towards us is the opposite face
                        assert faces[i] == 1000.0 * peer + 10 * (i ^ 1) + r

    def test_rendezvous_faces(self):
        system = SystemConfig.paper_system(nranks=8, eager_threshold="1kB")
        sim = run_identical((2, 2, 2), system=system, face_nbytes=4096)
        assert sim.result.completed
        assert not sim.world.network.is_eager(4096)

    def test_zero_overheads(self):
        system = SystemConfig.small_test_system(nranks=27)
        assert system.make_network().send_overhead == 0.0
        run_identical((3, 3, 3), system=system)

    def test_neighbour_fails_mid_exchange(self):
        # Rank 13 (interior) dies while its six neighbours are exchanging.
        sim = run_identical((3, 3, 3), failures=[(13, 0.0135)], rounds=4)
        assert sim.result.aborted and sim.result.failures[0][0] == 13
        assert sim.result.log.category("detect")

    def test_sanitizer_commtrace_and_obs_hooks_stay_on_the_path(self):
        hooks = dict(check=True, observe=True, trace_detail=True)
        sim = run_identical((3, 3, 1), sim_kwargs=hooks, failures=[(4, 0.0135)], rounds=4)
        assert len(messages(sim)) == sim.world.messages_sent
        assert any(e.name == "wait" for e in sim.observer.events)
        assert any(e.name == "detect" for e in sim.observer.events)

    def test_revoked_communicator(self):
        system = SystemConfig.paper_system(nranks=4, strict_finalize=False)
        sim = run_identical((2, 2, 1), system=system, returns_errors=True, revoke_at=(0, 1))
        assert sim.result.completed
        for seen in sim.result.exit_values.values():
            assert seen[-1][:2] == ("error", ERR_REVOKED)

    def test_link_degrade_window_overlaps_the_exchange(self):
        dims = (2, 2, 2)
        fault = LinkDegradeFault(rank_a=0, rank_b=1, time=0.0, factor=50.0, duration=0.02)
        degraded = run_identical(dims, faults=[fault], face_nbytes=200_000)
        clean = run_identical(dims, face_nbytes=200_000)
        # the window stretched real deliveries: same events, later arrivals
        def arrivals(sim):
            return [e[0] for e in sim.event_trace.entries if e[3] == "arrive" and {e[2], e[4]} == {0, 1}]

        assert len(arrivals(degraded)) == len(arrivals(clean)) > 0
        assert arrivals(degraded) != arrivals(clean)

    def test_replication_facade(self):
        # Same app on RedundantApi: the plan routes through its own
        # isend/irecv/wait, hash side channel included.
        monitors = []

        def wrap(app):
            monitors.append(RedundancyMonitor(factor=2))
            return redundant(app, 2, monitors[-1])

        sim = run_identical((2, 2, 1), wrap=wrap, real=True)
        fused_mon, explicit_mon = monitors
        assert sim.result.completed
        assert fused_mon.messages_compared == explicit_mon.messages_compared > 0
        assert fused_mon.clean and explicit_mon.clean

    def test_replication_facade_detects_a_corrupted_face(self):
        monitors = []

        def wrap(app):
            monitors.append(RedundancyMonitor(factor=2))
            return redundant(app, 2, monitors[-1])

        run_identical((2, 1, 1), wrap=wrap, real=True, corrupt_replica=1, rounds=1)
        fused_mon, explicit_mon = monitors
        assert fused_mon.detections and fused_mon.detections == explicit_mon.detections


class TestCollectivePointToPoint:
    """The collectives' own point-to-point (``_coll_send`` / ``_coll_recv``:
    no send ``Request`` for an eager message, the done-already receive
    completed inline) against the spelled-out ``isend`` / ``irecv`` /
    ``MpiWorld.wait`` sequence, under the same identity as the exchange.
    The reference runs in the communicator's user context (``isend`` has
    no other), which no event, sequence number or digest records."""

    @staticmethod
    def spelled_out_send(mpi, comm, dst, tag, payload, nbytes):
        req = yield from mpi.isend(dst, payload, nbytes, tag, comm)
        yield from mpi.world.wait(mpi.vp, req)

    @staticmethod
    def spelled_out_recv(mpi, comm, src, tag):
        return (yield from mpi.world.wait(mpi.vp, mpi.irecv(src, tag, comm)))

    @pytest.mark.parametrize("algorithm, nranks, check", [
        ("linear", 16, False), ("tree", 13, False), ("linear", 9, True), ("tree", 8, True),
    ])
    def test_linear_barrier_and_tree_allreduce(self, monkeypatch, algorithm, nranks, check):
        def app(mpi):
            yield from mpi.init()
            seen = []
            for r in range(3):
                # skew: some messages are buffered before their receive is
                # posted (the inline completion), some block (the slow path)
                yield from mpi.compute(1e-3 * (1 + (mpi.rank * 5 + r) % 4))
                if algorithm == "linear":
                    yield from mpi.barrier()
                    seen.append(mpi.wtime())
                else:
                    seen.append((yield from mpi.allreduce(mpi.rank + r, nbytes=8)))
            yield from mpi.finalize()
            return seen

        sims = []
        for spelled_out in (False, True):
            with monkeypatch.context() as patch:
                if spelled_out:
                    patch.setattr(MpiApi, "_coll_send", self.spelled_out_send)
                    patch.setattr(MpiApi, "_coll_recv", self.spelled_out_recv)
                system = SystemConfig.paper_system(nranks=nranks, collective_algorithm=algorithm)
                sim = XSim(system, record_events=True, check=check)
                sim.result = sim.run(app)
            sims.append(sim)
        assert_identical(*sims)
        assert sims[0].result.completed
        assert sims[0].world.messages_sent == 4 * 2 * (nranks - 1)  # finalize is the fourth
        if algorithm == "tree":
            assert sims[0].result.exit_values[0] == [sum(range(nranks)) + nranks * r for r in range(3)]
        if check:
            assert sims[0].checker.checks == sims[1].checker.checks > 0


class TestShardedParity:
    def test_serial_vs_two_inline_shards(self):
        def app(mpi, dims, fused):
            return stencil_app(mpi, dims, fused, rounds=4)

        sims = []
        for shards in (1, 2):
            sim = XSim(SystemConfig.paper_system(nranks=27), record_events=True,
                       shards=shards, shard_transport="inline" if shards > 1 else None)
            sim.result = sim.run(app, args=((3, 3, 3), True))
            sims.append(sim)
        serial, sharded = sims
        assert result_digest(serial.result) == result_digest(sharded.result)
        assert serial.result.exit_values == sharded.result.exit_values
        # same per-rank events at the same virtual times
        assert serial.event_trace.diff_ranks(sharded.event_trace) is None
        assert sharded.shard_stats.cross_shard_messages > 0


def test_a_row_without_a_fixed_size_is_refused():
    def app(mpi):
        yield from mpi.init()
        mpi.neighbor_plan([(PROC_NULL, 1, 2, None)])

    with pytest.raises(ConfigurationError, match="needs its fixed nbytes"):
        XSim(SystemConfig.small_test_system(nranks=1)).run(app)


class TestProcNullQuirk:
    def test_receive_from_proc_null_pays_overhead_send_does_not(self):
        """Known model quirk, pinned: completing a receive pays the receive
        overhead whoever the peer, posting a send to ``PROC_NULL`` pays
        nothing, so a boundary face costs one receive overhead and no send
        overhead.  Fixing it moves every heat3d digest — not here."""
        def lonely(mpi):
            yield from mpi.init()
            plan = mpi.neighbor_plan([(PROC_NULL, 1, 2, 64)] * 3)
            t0 = mpi.wtime()
            got = yield from mpi.neighbor_exchange(plan)
            return mpi.wtime() - t0, got

        system = SystemConfig.paper_system(nranks=1, strict_finalize=False)
        sim = XSim(system, record_events=True)
        result = sim.run(lonely)
        elapsed, got = result.exit_values[0]
        net = sim.world.network
        assert net.recv_overhead > 0.0 and net.send_overhead > 0.0
        assert elapsed == pytest.approx(3 * net.recv_overhead)
        assert got == [None, None, None]
        assert sim.world.messages_sent == 0
        # start + three receive-overhead advances
        assert result.event_count == 4

    def test_corner_rank_event_count_matches_the_explicit_sequence(self):
        sims = []
        for fused in (True, False):
            sim = XSim(SystemConfig.paper_system(nranks=64))
            sim.result = sim.run(stencil_app, args=((4, 4, 4), fused))
            sims.append(sim)
        assert sims[0].result.event_count == sims[1].result.event_count


@given(
    dims=st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 2)),
    face_nbytes=st.sampled_from([0, 8, 512, 4096, 300_000]),
    overheads=st.sampled_from([(0.0, 0.0), (2.6e-6, 2.6e-6), (2.6e-6, 0.0), (0.0, 1e-6)]),
    real=st.booleans(),
)
@settings(max_examples=25, deadline=None)
def test_fused_exchange_matches_explicit_sequence(dims, face_nbytes, overheads, real):
    nranks = dims[0] * dims[1] * dims[2]
    system = SystemConfig.paper_system(
        nranks=nranks, send_overhead_native=overheads[0], recv_overhead_native=overheads[1]
    )
    run_identical(dims, system=system, face_nbytes=face_nbytes, real=real, rounds=2)


def parent_rows(mpi, rows, comm):
    """The per-rank rows ``neighbor_plan`` built and kept before plans
    became flyweights (the reference): world rank of the peer, send tag,
    receive match key, fixed wire size, eager wire time."""
    comm = comm if comm is not None else mpi.comm_world
    ctx = comm.context_id * 2
    network = mpi.world.network
    bound = []
    for peer, send_tag, recv_tag, nbytes in rows:
        if peer == PROC_NULL:
            bound.append((PROC_NULL, send_tag, (ctx, PROC_NULL, recv_tag), nbytes, None))
            continue
        dst = comm.world_rank(peer)
        wire = None
        if nbytes <= network.eager_threshold:
            wire = network.transfer_time(nbytes, mpi.rank, dst)
        bound.append((dst, send_tag, (ctx, dst, recv_tag), nbytes, wire))
    return bound


@given(
    extents=st.lists(st.integers(1, 6), min_size=1, max_size=3),
    sizes=st.lists(st.sampled_from([0, 8, 4096, 300_000]), min_size=3, max_size=3),
    split=st.booleans(),
)
@settings(max_examples=30, deadline=None)
def test_flyweight_plan_posts_the_rows_the_parent_kept(extents, sizes, split):
    """What ``neighbor_exchange`` hands ``post_recv`` / ``post_send`` from a
    shared ``shape`` and a rank offset equals, field for field, the rows
    every rank used to own — on ``MPI_COMM_WORLD`` and on the halves of an
    interleaved split (communicator ranks are not world ranks there)."""
    members = int(np.prod(extents))
    stride, axes = members, []
    for axis, extent in enumerate(extents):
        stride //= extent
        axes.append((stride, extent, sizes[axis]))
    tags = {(axis, step): 10 * axis + step + 2 for axis in range(len(extents)) for step in (-1, 1)}
    plans, expected = {}, {}

    def app(mpi):
        yield from mpi.init()
        comm = (yield from mpi.comm_split(mpi.rank % 2)) if split else None
        rows = halo_rows(mpi.comm_rank(comm), axes, tags)
        plans[mpi.rank] = mpi.neighbor_plan(rows, comm)
        expected[mpi.rank] = parent_rows(mpi, rows, comm)
        yield from mpi.neighbor_exchange(plans[mpi.rank])
        yield from mpi.finalize()

    sim = XSim(SystemConfig.paper_system(nranks=members * (2 if split else 1)))
    world = sim.world
    keys, sends = defaultdict(list), defaultdict(list)
    post_recv, post_send = world.post_recv, world.post_send

    def spy_recv(vp, comm, key, *rest):
        if key[0] % 2 == 0:  # point-to-point contexts; collectives use the odd ones
            keys[vp.rank].append(key)
        return post_recv(vp, comm, key, *rest)

    def spy_send(vp, comm, ctx, dst, tag, payload, nbytes, wire=None):
        if ctx % 2 == 0:
            sends[vp.rank].append((dst, tag, nbytes, wire))
        return post_send(vp, comm, ctx, dst, tag, payload, nbytes, wire)

    world.post_recv, world.post_send = spy_recv, spy_send
    assert sim.run(app).completed

    for rank, rows in expected.items():
        plan = plans[rank]
        posted_keys, posted_sends = iter(keys[rank]), iter(sends[rank])
        for i, (dst, send_tag, key, nbytes, wire) in enumerate(rows):
            if dst == PROC_NULL:
                assert plan.shape[i] == (None, send_tag, key[2], nbytes), (rank, i)
                assert plan.wires[i] is None
                continue
            assert next(posted_keys) == key, (rank, i)
            got_dst, got_tag, got_nbytes, got_wire = next(posted_sends)
            assert (got_dst, got_tag) == (dst, send_tag), (rank, i)
            assert got_nbytes == plan.shape[i][3] == nbytes, (rank, i)
            assert (got_wire is None) == (wire is None), (rank, i)
            assert wire is None or got_wire.hex() == wire.hex(), (rank, i)
        assert next(posted_keys, None) is None and next(posted_sends, None) is None
    # one shape, one object: ranks at the same position borrow the same tuples
    for plan in plans.values():
        same = [p for p in plans.values() if p.shape == plan.shape]
        assert all(p.shape is plan.shape for p in same)
        assert all(p.wires is plan.wires for p in same if p.wires == plan.wires)
    assert len({id(p.shape) for p in plans.values()}) <= 4 ** len(extents)


@dataclass(frozen=True)
class Grid2d(BlockDecomposed):
    """A 2-D block decomposition: ``halo_rows`` takes any number of axes."""

    grid: tuple[int, int]
    ranks: tuple[int, int]
    item_bytes: int = 8


class TestRowBuilder:
    """``halo_rows`` — strides and face sizes from the config, six integer
    steps per rank — against the rows the apps used to build from
    ``neighbor_ranks``' coordinate arithmetic, for every rank."""

    @pytest.mark.parametrize(
        "dims", [(1, 1, 1), (2, 3, 4), (8, 8, 8), factor3(120), (1, 5, 1), (7, 1, 2)]
    )
    def test_rows_equal_the_neighbor_ranks_rows_for_every_rank(self, dims):
        # unequal local extents, so each axis has its own face size
        cfg = HeatConfig(grid=(4 * dims[0], 6 * dims[1], 10 * dims[2]), ranks=dims)
        lx, ly, lz = 4, 6, 10
        face_nbytes = {0: ly * lz * 8, 1: lx * lz * 8, 2: lx * ly * 8}
        assert [cfg.face_bytes(axis) for axis in range(3)] == list(face_nbytes.values())
        null_rows = 0
        for rank in range(cfg.nranks):
            neighbors = neighbor_ranks(rank, dims)
            expected = [
                (neighbors[(axis, step)], TAGS[(axis, step)], TAGS[(axis, -step)], face_nbytes[axis])
                for axis, step in FACES
            ]
            rows = halo_rows(rank, cfg.halo_axes, TAGS)
            assert rows == expected, (dims, rank)
            null_rows += sum(row[0] == PROC_NULL for row in rows)
        # every rank on a domain face has one PROC_NULL row for it
        px, py, pz = dims
        assert null_rows == 2 * (py * pz + px * pz + px * py)

    def test_factor3_gives_a_non_cubic_decomposition(self):
        assert sorted(factor3(120)) == [4, 5, 6]

    @pytest.mark.parametrize("dims", [(1, 1), (3, 4), (5, 1)])
    def test_two_dimensional_rows(self, dims):
        px, py = dims
        cfg = Grid2d(grid=(4 * px, 6 * py), ranks=dims)
        tags = {(0, -1): 11, (0, +1): 12, (1, -1): 13, (1, +1): 14}
        for rank in range(px * py):
            cx, cy = divmod(rank, py)
            expected = []
            for axis, (dx, dy) in ((0, (1, 0)), (1, (0, 1))):
                for step in (-1, +1):
                    nx, ny = cx + dx * step, cy + dy * step
                    inside = 0 <= nx < px and 0 <= ny < py
                    expected.append((
                        nx * py + ny if inside else PROC_NULL,
                        tags[(axis, step)], tags[(axis, -step)],
                        (6 if axis == 0 else 4) * 8,
                    ))
            assert halo_rows(rank, cfg.halo_axes, tags) == expected, (dims, rank)


class TestRealHeatFaces:
    def test_faces_land_in_the_right_ghost_slabs(self):
        # exchange every iteration: the distributed run must equal the
        # serial solve, which it only does if every face reaches the ghost
        # slab it belongs to.
        cfg = HeatConfig(grid=(8, 8, 8), ranks=(2, 2, 2), iterations=5,
                         checkpoint_interval=5, exchange_interval=1, data_mode="real")
        sim = XSim(SystemConfig.small_test_system(nranks=8))
        result = sim.run(heat3d, args=(cfg,))
        total = sum(stats.checksum for stats in result.exit_values.values())
        assert total == pytest.approx(float(heat3d_serial_reference(cfg).sum()), rel=1e-12)


#: Scenarios whose event count and ``ScenarioOutcome.digest()`` are pinned.
GOLDEN = {
    "heat3d-64": dict(ranks=64, iterations=1000, interval=250),
    "heat3d-512": dict(ranks=512, iterations=1000, interval=500),
    "cg": dict(ranks=64, app="cg", iterations=32, interval=16),
}
GOLDEN_PIN = "tests/test_neighbor_exchange.py::test_result_digests_equal_the_parent_commit"


def golden_outcome(name: str):
    return run_scenario(Scenario(**GOLDEN[name]), cache=False)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_result_digests_equal_the_parent_commit(name):
    events, digest = pin(f"{GOLDEN_PIN}[{name}]")
    outcome = golden_outcome(name)
    assert outcome.result.event_count == events
    assert outcome.digest() == digest


def _golden_pin(name: str) -> list:
    outcome = golden_outcome(name)
    return [outcome.result.event_count, outcome.digest()]


#: How ``tests/golden/repin.py`` recomputes each pin this file reads.
REPIN = {f"{GOLDEN_PIN}[{name}]": (lambda name=name: _golden_pin(name)) for name in GOLDEN}
