"""Property-based tests for the engine's hot-path optimizations.

The event loop carries two optimizations that must be *observationally
invisible*: stale-event skipping (dead-VP events lazily deleted at
dispatch) and advance coalescing (an Advance resume taken inline when no
other event can fire strictly before it).  Both claim exact preservation
of the simulation semantics — same exit time, same event count, same
failure activation times, same per-VP end states — on *every* schedule,
not just the ones the MPI layer happens to produce.  Hypothesis generates
random multi-VP advance programs and failure injections and compares a
coalescing engine against a non-coalescing one event for event; one
full-stack heat3d run makes the same comparison through the MPI layer.
"""

import heapq
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.heat3d import HeatConfig, heat3d
from repro.check.trace import EventTrace
from repro.core.checkpoint.store import CheckpointStore
from repro.core.harness.config import SystemConfig
from repro.core.harness.digest import result_digest
from repro.core.simulator import XSim
from repro.pdes.context import VpState
from repro.pdes.engine import Engine
from repro.pdes.requests import Advance, Block

# One VP program: a sequence of (dt, busy) advances.  dt=0 is a legal
# zero-cost control point; equal dts across VPs exercise the strict-'>'
# tie-breaking in the coalescing condition.
advance_strategy = st.tuples(
    st.one_of(
        st.just(0.0),
        st.sampled_from([0.5, 1.0, 1.0, 2.0]),  # repeats force time ties
        st.floats(min_value=0.0, max_value=3.0, allow_nan=False, allow_infinity=False),
    ),
    st.booleans(),
)
program_strategy = st.lists(advance_strategy, min_size=1, max_size=8)
programs_strategy = st.lists(program_strategy, min_size=1, max_size=5)


def _vp_main(program):
    for dt, busy in program:
        yield Advance(dt, busy=busy)


def _run(programs, failures, coalesce, trace=False):
    engine = Engine(coalesce_advances=coalesce)
    if trace:
        engine.event_trace = EventTrace()
    for program in programs:
        engine.spawn(_vp_main(program))
    for rank, time in failures:
        engine.schedule_failure(rank % len(programs), time)
    return engine, engine.run()


@given(
    programs=programs_strategy,
    failures=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=4),
            st.floats(min_value=0.0, max_value=10.0, allow_nan=False, allow_infinity=False),
        ),
        max_size=3,
    ),
)
@settings(max_examples=120, deadline=None)
def test_coalescing_preserves_simulation_semantics(programs, failures):
    base_engine, base = _run(programs, failures, coalesce=False)
    fast_engine, fast = _run(programs, failures, coalesce=True)

    # The non-coalescing engine never takes the inline path.
    assert base_engine.coalesced_advances == 0

    # Exact observational equality — floats compare with ==, not approx:
    # both paths compute vp.clock + dt in the same order.
    assert fast.exit_time == base.exit_time
    assert fast.event_count == base.event_count
    assert fast.failures == base.failures  # activation (rank, time) pairs
    assert fast.end_times == base.end_times
    assert fast.busy_times == base.busy_times
    assert fast.states == base.states
    assert fast.aborted == base.aborted


@given(programs=programs_strategy)
@settings(max_examples=60, deadline=None)
def test_failure_free_exit_time_is_max_program_length(programs):
    # Without failures the optimizations must reduce to plain timing:
    # each VP ends at the sum of its dts, the run at the maximum.
    engine, result = _run(programs, failures=[], coalesce=True)
    clock = 0.0
    for rank, program in enumerate(programs):
        clock = 0.0
        for dt, _ in program:
            clock += dt
        assert result.end_times[rank] == clock
    assert result.exit_time == max(result.end_times.values())
    assert not result.failures
    # dt=0 advances are zero-cost control points, every other advance is
    # exactly one event; +1 start event per VP.
    expected_events = sum(
        1 + sum(1 for dt, _ in program if dt > 0.0) for program in programs
    )
    assert result.event_count == expected_events


@given(
    programs=programs_strategy,
    failures=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=4),
            st.floats(min_value=0.0, max_value=10.0, allow_nan=False, allow_infinity=False),
        ),
        min_size=1,
        max_size=3,
    ),
)
@settings(max_examples=80, deadline=None)
def test_failures_activate_at_or_after_their_scheduled_time(programs, failures):
    engine, result = _run(programs, failures, coalesce=True)
    earliest = {}
    for rank, time in failures:
        rank %= len(programs)
        earliest[rank] = min(earliest.get(rank, float("inf")), time)
    for rank, activated_at in result.failures:
        # A failure fires at the next control point at-or-after its
        # scheduled time, never before it.
        assert activated_at >= earliest[rank]
        assert result.end_times[rank] == activated_at
    # A rank whose program ends before its earliest failure time finishes
    # cleanly; its queued failure event is stale-skipped, not executed.
    failed_ranks = {rank for rank, _ in result.failures}
    for rank in earliest:
        if rank not in failed_ranks:
            assert result.end_times[rank] <= earliest[rank]


# ----------------------------------------------------------------------
# the three ways an Advance resumes: inline (coalesced), from the heap in
# run(), and from the heap in windowed dispatch
# ----------------------------------------------------------------------
def _run_windowed(programs, failures, width):
    """Drive the engine the way a shard worker does: ``run_exact`` at the
    next event time, then a ``run_window`` of ``width`` past it."""
    engine = Engine(coalesce_advances=True)
    engine.event_trace = EventTrace()
    for program in programs:
        engine.spawn(_vp_main(program))
    for rank, time in failures:
        engine.schedule_failure(rank % len(programs), time)
    engine.begin_windowed_run()
    while (t := engine.next_event_time()) < math.inf:
        engine.run_exact(t)
        engine.run_window(t + width)
    engine.finish_windowed_run()
    return engine, engine._result()


@given(
    programs=programs_strategy,
    failures=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=4),
            st.floats(min_value=0.0, max_value=10.0, allow_nan=False, allow_infinity=False),
        ),
        max_size=3,
    ),
    width=st.sampled_from([0.25, 1.0, 4.0]),
)
@settings(max_examples=120, deadline=None)
def test_coalesced_heap_and_windowed_advance_paths_agree(programs, failures, width):
    """A heap-resumed Advance is dispatched inline by ``run()`` and by
    ``_dispatch_bounded()`` (no callback frame); both must reach the same
    clocks, event count and kill points as the coalesced inline path."""
    heap_engine, heap = _run(programs, failures, coalesce=False, trace=True)
    fast_engine, fast = _run(programs, failures, coalesce=True, trace=True)
    win_engine, win = _run_windowed(programs, failures, width)

    assert heap_engine.coalesced_advances == 0
    for other in (fast, win):
        assert other.exit_time == heap.exit_time
        assert other.event_count == heap.event_count
        assert other.failures == heap.failures  # kill points: (rank, time)
        assert other.end_times == heap.end_times
        assert other.busy_times == heap.busy_times
        assert other.states == heap.states
    # Per rank, the same control points at the same times on every path,
    # and heap resumes keep their trace name.
    assert heap_engine.event_trace.diff_ranks(fast_engine.event_trace) is None
    assert heap_engine.event_trace.diff_ranks(win_engine.event_trace) is None
    kinds = {entry[3] for entry in heap_engine.event_trace.entries}
    assert kinds <= {"start_vp", "resume_advance", "failure_due"}


def test_heat3d_digest_and_event_count_do_not_depend_on_coalescing():
    """The programs above stand in for the MPI layer; a sanitized 8-rank
    heat3d run must digest the same, in as many events, with the engine's
    advance coalescing switched off.  The paper's timing model, because
    on the zero-overhead test system no advance is ever coalesced."""

    def run(coalesce):
        sim = XSim(SystemConfig.paper_system(nranks=8), check=True)
        sim.engine.coalesce_advances = coalesce
        workload = HeatConfig.paper_workload(checkpoint_interval=10, nranks=8, iterations=40)
        return sim.engine, sim.run(heat3d, args=(workload, CheckpointStore()))

    on_engine, on = run(True)
    off_engine, off = run(False)
    assert on_engine.coalesced_advances > 0 and off_engine.coalesced_advances == 0
    assert result_digest(on) == result_digest(off)
    assert on.event_count == off.event_count


def test_heap_resumed_advance_is_named_in_trace_and_heap_head():
    # The heap entry of an Advance resume stores no callback; diagnostics
    # and traces still call it by the name of the callback it replaced.
    engine = Engine(coalesce_advances=False)
    engine.event_trace = EventTrace()
    engine.spawn(_vp_main([(1.0, True), (1.0, True)]))
    engine.begin_windowed_run()
    engine.run_exact(0.0)  # starts the VP, which queues its first resume
    assert [e["fn"] for e in engine.heap_head()] == ["_resume_advance"]
    engine.run_window(math.inf)
    engine.finish_windowed_run()
    assert engine.vps[0].end_time == 2.0
    assert [e[3] for e in engine.event_trace.entries] == [
        "start_vp", "resume_advance", "resume_advance",
    ]


def test_stale_events_are_skipped_not_executed():
    # Two failures armed for the same VP: the first kills it, the second's
    # queued event finds a bumped epoch and is lazily dropped at dispatch.
    # A long-lived second VP keeps the loop running past the stale event.
    engine = Engine(coalesce_advances=True)
    engine.spawn(_vp_main([(1.0, True)] * 10))
    engine.spawn(_vp_main([(1.0, True)] * 10))
    engine.schedule_failure(0, 2.5)
    engine.schedule_failure(0, 5.0)
    result = engine.run()
    assert result.failures == [(0, 3.0)]
    assert result.end_times[1] == 10.0
    assert engine.stale_skipped >= 1


# ----------------------------------------------------------------------
# queue order: one FIFO list per instant dispatches exactly what a plain
# (time, seq) min-heap of the same pushes would
# ----------------------------------------------------------------------
class _ReferenceQueue:
    """A ``heapq`` of every entry the engine pushes, checked at every
    dispatch: the entries ahead of the dispatched one must all be stale,
    and what stays queued must be what the engine reports queued."""

    def __init__(self, engine):
        self.engine = engine
        self.heap = []
        self.skipped = 0
        engine._slots = _RecordingSlots(self)
        engine.event_trace = _CheckingTrace(self)

    def push(self, time, entry):
        seq, gvp, gepoch, fn, _args = entry
        if fn is None and self.engine.coalesce_advances and time < self.engine._window_end:
            # A queued Advance resume: something queued fires first.
            assert self.heap and self.heap[0][0] <= time, "a coalescable resume was queued"
        heapq.heappush(self.heap, (time, seq, gvp, gepoch))

    def coalesced(self, time):
        assert not self.heap or self.heap[0][0] > time, "coalesced past a queued entry"

    def _prune_to(self, key):
        while self.heap and self.heap[0][:2] != key:
            _, _, gvp, gepoch = heapq.heappop(self.heap)
            assert gvp is not None and gvp.epoch != gepoch, "a live entry was passed over"
            self.skipped += 1

    def dispatched(self, time, seq):
        self._prune_to((time, seq))
        assert self.heap, f"dispatched ({time}, {seq}), which was never pushed"
        heapq.heappop(self.heap)
        self.agrees()

    def next_time(self):
        while self.heap and self.heap[0][2] is not None and self.heap[0][2].epoch != self.heap[0][3]:
            heapq.heappop(self.heap)
            self.skipped += 1
        return self.heap[0][0] if self.heap else math.inf

    def agrees(self):
        engine = self.engine
        assert engine.queue_size() == len(self.heap)
        assert [(e["time"], e["seq"]) for e in engine.heap_head(4)] == [
            entry[:2] for entry in heapq.nsmallest(4, self.heap)
        ]
        assert engine.stale_skipped == self.skipped


class _RecordingList(list):
    def __init__(self, ref, time, entries):
        super().__init__()
        self.ref, self.time = ref, time
        for entry in entries:
            self.append(entry)

    def append(self, entry):
        self.ref.push(self.time, entry)
        super().append(entry)


class _RecordingSlots(dict):
    """``Engine._slots`` that reports every push to the reference."""

    def __init__(self, ref):
        super().__init__()
        self.ref = ref

    def __setitem__(self, time, batch):
        super().__setitem__(time, _RecordingList(self.ref, time, batch))


class _CheckingTrace(EventTrace):
    def __init__(self, ref):
        super().__init__()
        self.ref = ref

    def record_dispatch(self, time, seq, gvp, fn, args):
        self.ref.dispatched(time, seq)
        super().record_dispatch(time, seq, gvp, fn, args)

    def record_coalesced(self, time, rank):
        self.ref.coalesced(time)
        super().record_coalesced(time, rank)


def _wake_if_blocked(engine, vp):
    if vp.state is VpState.BLOCKED:
        engine.wake(vp, engine.now)  # zero delay: pushed at the instant draining


def _tie_vp(engine, rank, program):
    # ("adv", dt) advances; ("block", delay) queues its own wake-up
    # ``delay`` later (0: at the instant being drained) and blocks.
    for op, x in program:
        if op == "adv":
            yield Advance(x)
        else:
            vp = engine.vps[rank]
            engine.schedule(vp.clock + x, _wake_if_blocked, engine, vp)
            yield Block("tie")


tie_op = st.one_of(
    st.tuples(st.just("adv"), st.sampled_from([0.0, 0.5, 1.0, 1.0, 2.0])),
    st.tuples(st.just("block"), st.sampled_from([0.0, 0.0, 1.0])),
)
tie_programs = st.lists(st.lists(tie_op, min_size=1, max_size=6), min_size=2, max_size=7)
tie_failures = st.lists(
    st.tuples(st.integers(min_value=0, max_value=6), st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0])),
    max_size=4,
)


@given(
    programs=tie_programs,
    failures=tie_failures,
    coalesce=st.booleans(),
    width=st.sampled_from([None, 0.5, 2.0]),
)
@settings(max_examples=150, deadline=None)
def test_queue_dispatches_what_a_plain_heap_of_the_same_pushes_would(
    programs, failures, coalesce, width
):
    engine = Engine(coalesce_advances=coalesce)
    ref = _ReferenceQueue(engine)
    for rank, program in enumerate(programs):
        engine.spawn(_tie_vp(engine, rank, program))
    for rank, time in failures:
        engine.schedule_failure(rank % len(programs), time)
    ref.agrees()
    if width is None:
        engine.run()
    else:  # the shard worker's drive: next_event_time is the model's
        engine.begin_windowed_run()
        while (t := engine.next_event_time()) == ref.next_time() and t < math.inf:
            ref.agrees()
            engine.run_exact(t)
            engine.run_window(t + width)
        assert t == ref.next_time() == math.inf
        engine.finish_windowed_run()
    # Drained: what the model still holds was never live when reached.
    ref.next_time()
    assert not ref.heap
    assert engine.stale_skipped == ref.skipped
    assert engine.queue_size() == 0 and engine.heap_head() == []
    stream = [entry[:2] for entry in engine.event_trace.entries if entry[1] >= 0]
    assert all(a < b for a, b in zip(stream, stream[1:]))


def test_next_event_time_skips_an_instant_whose_entries_are_all_stale():
    engine = Engine(coalesce_advances=False)
    engine.spawn(_vp_main([(1.0, True)] * 3))
    engine.spawn(_vp_main([(1.0, True)] * 6))
    engine.schedule_failure(0, 0.5)  # VP 0 dies at its resume at 1.0
    engine.schedule_failure(0, 3.5)  # alone at 3.5, stale once VP 0 is dead
    engine.begin_windowed_run()
    engine.run_window(3.2)
    assert [e["time"] for e in engine.heap_head()] == [3.5, 4.0]
    skipped = engine.stale_skipped
    assert engine.next_event_time() == 4.0
    assert engine.stale_skipped == skipped + 1
    assert [e["time"] for e in engine.heap_head()] == [4.0]
    engine.run_window(math.inf)
    engine.finish_windowed_run()
    assert engine._result().failures == [(0, 1.0)]
