"""A rank owns what it reads — and callers see what they saw.

The residency rules (one halo plan per shape, no ``Msg`` kept past its
match, nothing allocated empty) changed where per-rank state lives, not
what it does.  The plan side is held in ``tests/test_neighbor_exchange.py``
and the byte budget in ``tests/test_message_cost.py``; this module holds
the matching queues and the records:

* ``posted_exact`` keeps a bare ``Request`` under its key and a FIFO list
  only from a second post on — matching, wildcards, failure release and
  revocation behave the same in both forms (run under the sanitizer, whose
  queue-consistency checks read the same entries);
* a receive completes into the ``Msg`` wherever somebody reads more than
  its payload (``recv(status=True)``, ``test``, wildcards), into the
  payload alone for ``neighbor_exchange``;
* ``posted_wild`` / ``unexpected`` / ``rdv_sends`` / ``failed_peers`` are
  shared empties until a rank's first entry, its own from then on;
* size-only ``MemoryRegion``s are one record per ``(name, nbytes, kind)``.

The phase rules (one checkpoint frame, no frame that only picks a
generator, no send list where nothing is left to complete) changed how
many frames a waiting rank keeps, not what it does; a restart frees the
segment it replaces:

* a blocked rank keeps 3 frames in the halo exchange, 4 in a linear
  barrier and 5 in a tree one;
* the single checkpoint frame matches the parent's frames, spelled out,
  event for event and file for file — a failure inside the barrier
  included;
* no earlier segment's world is alive when the next one launches.
"""

import inspect
import weakref

import pytest

from repro.apps.heat3d import HeatConfig, heat3d
from repro.core.checkpoint.protocol import CheckpointProtocol
from repro.core.checkpoint.store import CheckpointStore
from repro.core.harness.config import SystemConfig
from repro.core.harness.digest import result_digest
from repro.core.simulator import XSim
from repro.models.memory import MemoryTracker, RegionKind
from repro.mpi import collectives as coll
from repro.mpi.api import MpiApi
from repro.mpi.constants import ANY_SOURCE, ANY_TAG, ERR_PROC_FAILED, ERR_REVOKED
from repro.mpi.errhandler import ERRORS_RETURN, MpiError
from repro.mpi.messages import PAYLOAD_ONLY, Msg, Request
from repro.mpi.world import MpiWorld
from repro.pdes.context import EMPTY_MAP, VpState
from repro.pdes.engine import Engine
from repro.run import Scenario, run_scenario
from repro.util.errors import ConfigurationError
from tests.golden.repin import pin

RENDEZVOUS = 300_000


def checked_run(app, nranks=2, failures=(), paper=False):
    """Run ``app`` under the sanitizer (zero-overhead test machine, or the
    paper's with its eager threshold); returns the sim, result attached."""
    make = SystemConfig.paper_system if paper else SystemConfig.small_test_system
    sim = XSim(make(nranks=nranks, strict_finalize=False), check=True)
    for rank, time in failures:
        sim.inject_failure(rank, time)
    sim.result = sim.run(app)
    assert not sim.result.log.category("failure") or failures  # no crash hid a bug
    return sim


def code_of(gen):
    """Drive ``gen`` to its value, or to the ``(code, failed rank)`` of its MpiError."""
    try:
        return (yield from gen)
    except MpiError as err:
        return err.code, err.failed_rank


class TestPostedExactForms:
    def test_a_second_post_to_one_key_matches_in_post_order(self):
        forms = []

        def app(mpi):
            yield from mpi.init()
            if mpi.rank == 1:
                yield from mpi.compute(1.0)
                for word in ("first", "second", "third"):
                    yield from mpi.send(0, payload=word, nbytes=8, tag=7)
                return None
            state = mpi.world.states[0]
            key = (mpi.comm_world.context_id * 2, 1, 7)
            reqs = []
            for _ in range(3):
                reqs.append(mpi.irecv(1, tag=7))
                forms.append((type(state.posted_exact[key]), len(state.posted_at(key))))
            assert state.posted_at(key) == reqs
            # completed out of post order: each still holds its own message
            third = yield from mpi.wait(reqs[2])
            first = yield from mpi.wait(reqs[0])
            second = yield from mpi.wait(reqs[1])
            return first, second, third, dict(state.posted_exact)

        sim = checked_run(app)
        assert sim.result.exit_values[0] == ("first", "second", "third", {})
        # the Request itself, then a list from the second post on
        assert forms == [(Request, 1), (list, 2), (list, 3)]

    def test_a_wildcard_posted_between_two_exact_posts_takes_the_second_message(self):
        def app(mpi):
            yield from mpi.init()
            if mpi.rank == 1:
                yield from mpi.compute(1.0)
                for word in ("a", "b", "c"):
                    yield from mpi.send(0, payload=word, nbytes=8, tag=7)
                return None
            exact_1 = mpi.irecv(1, tag=7)
            wild = mpi.irecv(ANY_SOURCE, tag=ANY_TAG)
            exact_2 = mpi.irecv(1, tag=7)
            return (yield from mpi.waitall([exact_1, wild, exact_2]))

        assert checked_run(app).result.exit_values[0] == ["a", "b", "c"]

    def test_failure_releases_every_receive_under_a_key(self):
        def app(mpi):
            yield from mpi.init()
            mpi.set_errhandler(ERRORS_RETURN)
            if mpi.rank == 1:
                yield from mpi.compute(100.0)
                return None
            reqs = [mpi.irecv(1, tag=7), mpi.irecv(1, tag=7), mpi.irecv(1, tag=8)]
            out = []
            for req in reqs:
                out.append((yield from code_of(mpi.wait(req))))
            return out, mpi.world.pending_requests(0)

        sim = checked_run(app, failures=[(1, 3.0)])
        assert sim.result.exit_values[0] == ([(ERR_PROC_FAILED, 1)] * 3, [])

    @pytest.mark.parametrize("second_tag", [9, 7], ids=["one-post-a-key", "two-posts-to-one-key"])
    def test_a_partly_matched_key_keeps_its_place_in_the_release_order(self, second_tag):
        """Receives release in the order their keys were first posted (it
        fixes the ``detect`` log lines and the wake events' sequence
        numbers): a key that still holds a second receive after a match
        must not fall behind a key posted later."""

        def app(mpi):
            yield from mpi.init()
            mpi.set_errhandler(ERRORS_RETURN)
            if mpi.rank == 1:
                yield from mpi.send(0, payload="matched", nbytes=8, tag=7)
                yield from mpi.compute(100.0)
                return None
            reqs = [mpi.irecv(1, tag=7), mpi.irecv(1, tag=second_tag), mpi.irecv(1, tag=8)]
            out = [(yield from mpi.wait(reqs[0]))]
            for req in reqs[1:]:
                out.append((yield from code_of(mpi.wait(req))))
            return out

        sim = checked_run(app, failures=[(1, 3.0)])
        failed = (ERR_PROC_FAILED, 1)
        assert sim.result.exit_values[0] == ["matched", failed, failed]
        detects = [e.message for e in sim.result.log.category("detect") if e.rank == 0]
        assert [m.split("tag=")[1].split()[0] for m in detects] == [str(second_tag), "8"]

    def test_revocation_reaches_both_forms(self):
        def app(mpi):
            yield from mpi.init()
            mpi.set_errhandler(ERRORS_RETURN)
            if mpi.rank == 1:
                yield from mpi.compute(1.0)
                yield from mpi.comm_revoke()
                return None
            reqs = [mpi.irecv(1, tag=7), mpi.irecv(1, tag=7), mpi.irecv(1, tag=8)]
            out = []
            for req in reqs:
                out.append((yield from code_of(mpi.wait(req))))
            return out, mpi.world.pending_requests(0)

        sim = checked_run(app)
        assert sim.result.exit_values[0] == ([(ERR_REVOKED, None)] * 3, [])


class TestWhatAReceiveCompletesInto:
    @pytest.mark.parametrize("receiver_late", [False, True], ids=["posted", "buffered"])
    @pytest.mark.parametrize("wildcard", [False, True], ids=["exact", "wildcard"])
    def test_status_reads_the_message_after_either_match(self, receiver_late, wildcard):
        def app(mpi):
            yield from mpi.init()
            if mpi.rank == 0:
                yield from mpi.compute(0.0 if receiver_late else 2.0)
                yield from mpi.send(1, payload="p", nbytes=64, tag=9)
                return None
            yield from mpi.compute(2.0 if receiver_late else 0.0)
            source, tag = (ANY_SOURCE, ANY_TAG) if wildcard else (0, 9)
            payload, status = yield from mpi.recv(source, tag=tag, status=True)
            return payload, status.source, status.tag, status.nbytes

        assert checked_run(app).result.exit_values[1] == ("p", 0, 9, 64)

    def test_irecv_keeps_the_message_and_the_exchange_only_the_payload(self, monkeypatch):
        seen = {}
        faces = []  # the receives posted for tag 4, by the exchange
        post_recv = MpiWorld.post_recv

        def spy(self, vp, comm, key, *rest):
            req = post_recv(self, vp, comm, key, *rest)
            if key[2] == 4:
                faces.append(req)
            return req

        monkeypatch.setattr(MpiWorld, "post_recv", spy)

        def app(mpi):
            yield from mpi.init()
            peer = 1 - mpi.rank
            req = mpi.irecv(peer, tag=3)
            yield from mpi.send(peer, payload=("hello", mpi.rank), nbytes=16, tag=3)
            yield from mpi.compute(1.0)
            done, tested = yield from mpi.test(req)
            seen[mpi.rank] = req.result
            waited = yield from mpi.wait(req)
            # the same channel through a plan: the receive holds no Msg
            plan = mpi.neighbor_plan([(peer, 4, 4, 16)])
            got = yield from mpi.neighbor_exchange(plan, [("face", mpi.rank)])
            return done, tested, waited, got

        sim = checked_run(app, paper=True)
        for rank in (0, 1):
            peer = 1 - rank
            assert type(seen[rank]) is Msg and seen[rank].src == peer
            assert sim.result.exit_values[rank] == (
                True, ("hello", peer), ("hello", peer), [("face", peer)]
            )
        assert sorted(req.result for req in faces) == [("face", 0), ("face", 1)]

    def test_a_rendezvous_face_completes_into_its_payload_too(self):
        def app(mpi):
            yield from mpi.init()
            peer = 1 - mpi.rank
            plan = mpi.neighbor_plan([(peer, 4, 4, RENDEZVOUS)])
            return (yield from mpi.neighbor_exchange(plan, [mpi.rank]))

        sim = checked_run(app, paper=True)
        assert not sim.world.network.is_eager(RENDEZVOUS)
        assert sim.result.exit_values == {0: [1], 1: [0]}

    def test_deliver_presets(self):
        world = XSim(SystemConfig.small_test_system(nranks=2)).world
        msg = Msg(2, 1, 0, 5, 8, "payload", 1, "eager")
        for preset, expected in ((None, msg), (PAYLOAD_ONLY, "payload")):
            req = Request(Request.RECV, None, world.world_comm, 2, 1, 0, 5, 0, 0.0)
            req.result = preset
            req.deliver(1.5, msg)
            assert (req.done, req.completion_time, req.result) == (True, 1.5, expected)

    def test_a_failed_payload_only_receive_holds_nothing(self):
        world = XSim(SystemConfig.small_test_system(nranks=2)).world
        req = Request(Request.RECV, None, world.world_comm, 2, 1, 0, 5, 0, 0.0)
        req.result = PAYLOAD_ONLY
        req.fail(2.0, ERR_PROC_FAILED, failed_rank=1)
        assert (req.done, req.error, req.result) == (True, ERR_PROC_FAILED, None)


class TestEmptyUntilTheFirstEntry:
    def test_every_rank_starts_from_the_shared_empties(self):
        def app(mpi):
            yield from mpi.init()
            yield from mpi.compute(1.0)

        sim = checked_run(app, nranks=4)
        for state in sim.world.states:
            assert state.unexpected is EMPTY_MAP and state.vp.failed_peers is EMPTY_MAP
            assert state.posted_wild == () and state.rdv_sends == ()
        with pytest.raises(TypeError):
            EMPTY_MAP[0] = 1.0  # a writer that forgot to create its own

    def test_failed_peers_are_a_ranks_own_after_the_first_failure(self):
        def app(mpi):
            yield from mpi.init()
            mpi.set_errhandler(ERRORS_RETURN)
            for _ in range(5):  # a failure activates at a control point
                yield from mpi.compute(1.0)
            return mpi.failed_ranks(), dict(mpi.vp.failed_peers)

        sim = checked_run(app, nranks=3, failures=[(1, 2.0)])
        assert sim.result.exit_values[0] == ([1], {1: 2.0})
        assert sim.result.exit_values[2] == ([1], {1: 2.0})
        vps = sim.engine.vps
        assert vps[0].failed_peers is not vps[2].failed_peers
        assert vps[1].failed_peers is EMPTY_MAP  # the dead rank was told nothing

    def test_a_buffered_message_and_a_rendezvous_send_create_their_queues(self):
        queues = {}

        def app(mpi):
            yield from mpi.init()
            states = mpi.world.states
            if mpi.rank == 0:
                yield from mpi.send(1, payload="early", nbytes=8, tag=1)
                req = yield from mpi.isend(1, payload="big", nbytes=RENDEZVOUS, tag=2)
                queues["rdv"] = list(states[0].rdv_sends)
                yield from mpi.wait(req)
                queues["rdv-after"] = list(states[0].rdv_sends)
                return None
            if mpi.rank == 2:
                return None  # a bystander: nothing is ever written to its queues
            yield from mpi.compute(1.0)
            queues["buffered"] = {k: [m.payload for m in v] for k, v in states[1].unexpected.items()}
            status = mpi.iprobe(0, tag=1)
            early = yield from mpi.recv(0, tag=1)
            big = yield from mpi.recv(0, tag=2)
            return status.nbytes, early, big, dict(states[1].unexpected)

        sim = checked_run(app, nranks=3, paper=True)
        ctx = sim.world.world_comm.context_id * 2
        assert queues["buffered"] == {(ctx, 0, 1): ["early"], (ctx, 0, 2): ["big"]}
        assert [r.nbytes for r in queues["rdv"]] == [RENDEZVOUS] and queues["rdv-after"] == []
        assert sim.result.exit_values[1] == (8, "early", "big", {})
        assert sim.world.states[2].unexpected is EMPTY_MAP  # nobody wrote to rank 2


class TestRecords:
    def test_size_only_regions_are_one_record_per_value(self):
        m = MemoryTracker()
        grids = [m.allocate(rank, "grid", 4096) for rank in range(4)]
        assert all(g is grids[0] for g in grids)
        assert m.allocate(4, "grid", 8192) is not grids[0]
        assert m.allocate(5, "grid", 4096, RegionKind.UNUSED) is not grids[0]
        assert [m.footprint(rank) for rank in range(6)] == [4096] * 4 + [8192, 4096]
        with pytest.raises(AttributeError):
            grids[0].nbytes = 1  # shared, so immutable

    def test_a_ranks_only_region_then_a_second_name(self):
        m = MemoryTracker()
        m.allocate(0, "grid", 100)
        assert m._regions[0] is m.regions(0)[0]  # no per-rank dict for one region
        m.allocate(0, "halo", 20)
        assert sorted(r.name for r in m.regions(0)) == ["grid", "halo"]
        assert m.footprint(0) == 120
        m.free(0, "grid")
        assert m.footprint(0) == 20
        with pytest.raises(ConfigurationError):
            m.free(0, "grid")
        m.free(0, "halo")
        assert m.regions(0) == [] and m.footprint(0) == 0

    def test_per_rank_records_carry_no_dict(self):
        def app(mpi):
            yield from mpi.init()
            records = (mpi, mpi.malloc("grid", 64), CheckpointProtocol(mpi, None))
            return [hasattr(r, "__dict__") for r in records]

        assert checked_run(app).result.exit_values[0] == [False, False, False]


# ----------------------------------------------------------------------
# the frames a blocked rank keeps
# ----------------------------------------------------------------------
def suspended_chain(gen) -> list[str]:
    """The generator frames a suspended VP keeps, outermost first."""
    names = []
    while inspect.isgenerator(gen):
        names.append(gen.gi_code.co_name)
        gen = gen.gi_yieldfrom
    return names


class TestFramesABlockedRankKeeps:
    @pytest.mark.parametrize("collectives, barrier", [
        ("linear", ["_barrier_linear", "wait"]),
        ("tree", ["_barrier_tree", "_reduce_tree", "wait"]),
    ])
    def test_the_deepest_chain_of_each_phase(self, monkeypatch, collectives, barrier):
        deepest: dict[str, list[str]] = {}
        step = Engine._step

        def spy(self, vp, value=None, exc=None):
            step(self, vp, value, exc)
            if vp.state is VpState.BLOCKED:
                chain = suspended_chain(vp.gen)
                phase = "halo" if "neighbor_exchange" in chain else chain[1]
                if len(chain) > len(deepest.get(phase, ())):
                    deepest[phase] = chain

        monkeypatch.setattr(Engine, "_step", spy)
        scenario = Scenario(ranks=64, iterations=40, interval=20, collectives=collectives)
        assert run_scenario(scenario, cache=False).result.completed
        # 7 / 8 frames in the checkpoint barrier and 6 / 7 in finalize's
        # at the parent: checkpoint -> synchronize_and_prune ->
        # _barrier_dispatch -> algorithm -> _coll_recv -> wait
        assert deepest == {
            "halo": ["heat3d", "neighbor_exchange", "wait"],
            "checkpoint": ["heat3d", "checkpoint", *barrier],
            "finalize": ["heat3d", "finalize", *barrier],
        }


@pytest.mark.parametrize("observe", [False, True], ids=["plain", "observed"])
@pytest.mark.parametrize("algorithm", ["linear", "tree"])
def test_a_one_rank_barrier_is_a_no_op(algorithm, observe):
    def app(mpi):
        yield from mpi.init()
        alone = yield from mpi.comm_split(mpi.rank)
        before = mpi.wtime()
        yield from mpi.barrier(alone)
        after = mpi.wtime()
        yield from mpi.barrier()  # the world's collective sequence still agrees
        yield from mpi.finalize()
        return after - before

    system = SystemConfig.paper_system(nranks=4, collective_algorithm=algorithm)
    result = XSim(system, observe=observe).run(app)
    assert result.completed
    assert result.exit_values == {r: 0.0 for r in range(4)}


class TestOneCheckpointFrame:
    """The parent's checkpoint path, spelled out as the reference:
    ``write`` then ``synchronize_and_prune``, the barrier dispatcher and
    ``_coll_recv`` each a generator frame of its own."""

    @staticmethod
    def parent_frames(patch):
        plain_dispatch = coll._barrier_dispatch
        plain_recv = MpiApi._coll_recv

        def write(proto, ckpt_id, data, nbytes):
            api = proto.api
            proto.store.begin_write(ckpt_id, api.rank, data, nbytes)
            yield from api.file_write(nbytes, concurrent_clients=api.size)
            proto.store.commit_write(ckpt_id, api.rank)

        def synchronize_and_prune(proto, ckpt_id):
            yield from proto.api.barrier()
            if proto.previous_id is not None and proto.previous_id != ckpt_id:
                if proto.store.delete(proto.previous_id, proto.api.rank):
                    yield from proto.api.file_delete()
            proto.previous_id = ckpt_id

        def checkpoint(proto, ckpt_id, data, nbytes):
            yield from write(proto, ckpt_id, data, nbytes)
            yield from synchronize_and_prune(proto, ckpt_id)

        def barrier_dispatch(api, comm):
            yield from plain_dispatch(api, comm)

        def coll_recv(api, comm, src, tag):
            return (yield from plain_recv(api, comm, src, tag))

        patch.setattr(CheckpointProtocol, "checkpoint", checkpoint)
        patch.setattr(coll, "_barrier_dispatch", barrier_dispatch)
        patch.setattr(MpiApi, "_coll_recv", coll_recv)

    @staticmethod
    def heat(failure=None):
        """64 ranks, checkpoints at iterations 20 / 40 / 60; the sim, with
        the store's file states attached."""
        cfg = HeatConfig.paper_workload(checkpoint_interval=20, nranks=64, iterations=60)
        store = CheckpointStore()
        sim = XSim(SystemConfig.paper_system(nranks=64), record_events=True)
        if failure is not None:
            sim.inject_failure(*failure)
        sim.result = sim.run(heat3d, args=(cfg, store))
        sim.files = {key: f.state for key, f in store.files()}
        return sim

    def root_fan_out(self, monkeypatch):
        """A time inside the root's fan-out of the second checkpoint's
        barrier: between rank 1's first prune and the root's."""
        pruned: dict[int, float] = {}
        file_delete = MpiApi.file_delete

        def spy(api):
            pruned.setdefault(api.rank, api.vp.clock)
            return file_delete(api)

        with monkeypatch.context() as patch:
            patch.setattr(MpiApi, "file_delete", spy)
            self.heat()
        assert pruned[1] < pruned[0]  # rank 1 is released first, the root last
        return (pruned[1] + pruned[0]) / 2

    @pytest.mark.parametrize("failure", [False, True], ids=["fault-free", "root-fails-in-the-barrier"])
    def test_equal_to_the_parent_frames(self, monkeypatch, failure):
        armed = (0, self.root_fan_out(monkeypatch)) if failure else None
        sim = self.heat(armed)
        with monkeypatch.context() as patch:
            self.parent_frames(patch)
            parent = self.heat(armed)
        divergence = parent.event_trace.diff(sim.event_trace)
        assert divergence is None, divergence.report()
        assert sim.engine._seq == parent.engine._seq
        assert result_digest(sim.result) == result_digest(parent.result)
        assert sim.files == parent.files
        if not failure:
            assert sim.result.completed and {cid for cid, _ in sim.files} == {60}
            return
        # The root died releasing the ranks: the ones it reached pruned
        # checkpoint 20, the rest aborted before the delete — "only
        # partially deleted old checkpoints"; checkpoint 40 is complete.
        assert sim.result.aborted
        old = sorted(rank for cid, rank in sim.files if cid == 20)
        assert 0 < len(old) < 64 and old[0] == 0 and 1 not in old
        assert sorted(rank for cid, rank in sim.files if cid == 40) == list(range(64))


# ----------------------------------------------------------------------
# a restart frees the segment it replaces
# ----------------------------------------------------------------------
#: 64 ranks, C = 125, MTTF 1,500 s, seed 1: five failures, six segments
#: (three with ckpt-multilevel).  At the parent up to 3 earlier worlds
#: were alive at a launch, 5 under the sanitizer or an observer, 4 on two
#: inline shards.  Each case's result digest is its strategy's pin: the
#: checker, the observer and the shards change none.
RESTART_PIN = "tests/test_rank_residency.py::test_no_earlier_world_is_alive_when_a_segment_launches"
RESTART_DIGESTS = {  # case -> the key of its digest
    "ckpt": f"{RESTART_PIN}[ckpt]",
    "ckpt-multilevel": f"{RESTART_PIN}[ckpt-multilevel]",
    "check": f"{RESTART_PIN}[ckpt]",
    "observe": f"{RESTART_PIN}[ckpt]",
    "inline-shards": f"{RESTART_PIN}[ckpt]",
}
RESTART_FIELDS = {
    "ckpt": {},
    "ckpt-multilevel": dict(strategy="ckpt-multilevel"),
    "check": dict(check=True),
    "observe": dict(observe=True),
    "inline-shards": dict(shards=2, shard_transport="inline"),
}


def restart_digest(case: str) -> str:
    scenario = Scenario(ranks=64, interval=125, mttf=1500.0, seed=1, **RESTART_FIELDS[case])
    return run_scenario(scenario, cache=False).summary()["result_digest"]


@pytest.mark.parametrize("case", sorted(RESTART_DIGESTS))
def test_no_earlier_world_is_alive_when_a_segment_launches(monkeypatch, case):
    worlds: list[weakref.ref] = []  # every world launched, shard replicas included
    alive_at_launch: list[int] = []
    launch = MpiWorld.launch
    run = XSim.run

    def launching(world, *args, **kwargs):
        worlds.append(weakref.ref(world))
        return launch(world, *args, **kwargs)

    def segment(sim, *args, **kwargs):  # before this segment builds anything
        alive_at_launch.append(sum(ref() is not None for ref in worlds))
        return run(sim, *args, **kwargs)

    monkeypatch.setattr(MpiWorld, "launch", launching)
    monkeypatch.setattr(XSim, "run", segment)
    assert restart_digest(case) == pin(RESTART_DIGESTS[case])
    assert len(alive_at_launch) > 3
    assert alive_at_launch == [0] * len(alive_at_launch)


#: How ``tests/golden/repin.py`` recomputes each pin this file reads.
REPIN = {RESTART_DIGESTS[case]: (lambda case=case: restart_digest(case))
         for case in ("ckpt", "ckpt-multilevel")}
