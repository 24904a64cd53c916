"""The discrete event simulation engine driving all virtual processes.

Execution model (paper §IV-A, reproduced exactly):

* The engine "always executes one simulated MPI process ... at a time".
  Every virtual process (VP) is a generator coroutine; :meth:`Engine._step`
  runs it until it yields an :class:`~repro.pdes.requests.Advance` (a
  simulator-internal clock update: modeled computation, timing function,
  file-system access, communication overhead) or a
  :class:`~repro.pdes.requests.Block` (waiting on a message or another
  simulator-internal wake-up), or until it terminates.
* "Context switches between simulated MPI processes are only performed upon
  receiving an MPI message, receiving a simulator-internal message, or
  termination" — i.e. at those yields.  The engine interleaves VPs from a
  single binary-heap event queue ordered by virtual time ("a schedule based
  on message receive time stamps").

Failure activation (paper §IV-B): each VP has a ``time_of_failure``
(infinity = never).  "A scheduled simulated MPI process failure is activated
when the targeted simulated MPI process is executing, updates its simulated
process clock, and the clock reaches or goes beyond the ... time of failure
value. ... the scheduled time is the earliest time of failure, while the
actual time of failure depends on when the simulator regains control."
:meth:`Engine._step`, :meth:`Engine._do_wake`, and the dispatch loops'
inline Advance resume each perform that control-point check.  A VP
blocked on a wait that would complete after its scheduled failure time is
killed at the scheduled time instead (its wait provably extends past it).

Abort activation (paper §IV-D) is symmetric: blocked VPs are released and
terminated at the time of abort; computing VPs abort at the next point the
simulator regains control with their clock at-or-past the time of abort, so
the simulation exit time can exceed the abort time.
"""

from __future__ import annotations

import gc
import math
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush, nsmallest
from typing import Any, Callable, Generator

from repro.pdes.context import VirtualProcess, VpState
from repro.pdes.requests import Advance, Block
from repro.util.errors import ConfigurationError, DeadlockError, SimulationError, XsimError
from repro.util.simlog import SimLog
from repro.util.stats import TimingStats, format_timing

# Module-level members for the per-event paths (_step, wake, _do_wake):
# CPython 3.11 does not specialise an attribute load on an Enum class
# (``EnumType`` defines ``__getattr__``), so ``VpState.X`` is ~8x a global.
_RUNNING, _ADVANCING, _BLOCKED = VpState.RUNNING, VpState.ADVANCING, VpState.BLOCKED


@dataclass
class SimulationResult:
    """Outcome of one :meth:`Engine.run`.

    ``exit_time`` is the maximum VP end time — the value xSim "optionally
    writes out ... to a file" so that a restarted simulation can continue
    virtual time (paper §IV-E).
    """

    start_time: float
    exit_time: float
    aborted: bool
    abort_time: float | None
    abort_rank: int | None
    failures: list[tuple[int, float]]
    states: dict[int, VpState]
    end_times: dict[int, float]
    busy_times: dict[int, float]
    exit_values: dict[int, Any]
    event_count: int
    log: SimLog
    timing: TimingStats = field(repr=False, default_factory=TimingStats)

    @property
    def completed(self) -> bool:
        """True when every VP terminated normally (no failure, no abort)."""
        return all(s is VpState.DONE for s in self.states.values())

    def timing_report(self) -> str:
        """The min/max/avg VP timing line xSim prints at shutdown."""
        t = self.timing
        return format_timing(t.minimum, t.maximum, t.average, t.count)


class Engine:
    """Sequential conservative discrete event simulator for virtual processes.

    Parameters
    ----------
    start_time:
        Initial virtual clock of every VP.  The checkpoint/restart driver
        passes the persisted exit time of the previous (aborted) run here so
        virtual time is continuous across failure/restart cycles.
    log:
        Structured simulator log; a fresh one is created when omitted.
    coalesce_advances:
        When True (default), an Advance whose resume time precedes every
        queued event is taken inline instead of going through the heap.
        The resume is still a full control point (clock update, failure
        and abort checks) and still counts as an event, so results and
        ``event_count`` are identical to the un-coalesced path; the knob
        exists so property tests can compare both paths.
    """

    def __init__(
        self,
        start_time: float = 0.0,
        log: SimLog | None = None,
        coalesce_advances: bool = True,
    ):
        if not math.isfinite(start_time) or start_time < 0.0:
            raise ConfigurationError(f"start_time must be finite and >= 0, got {start_time!r}")
        self.start_time = float(start_time)
        self.now = float(start_time)
        self.log = log if log is not None else SimLog()
        self.coalesce_advances = coalesce_advances
        self.vps: list[VirtualProcess] = []
        self.failures: list[tuple[int, float]] = []
        self.aborting = False
        self.abort_time: float | None = None
        self.abort_rank: int | None = None
        self.event_count = 0
        #: Queued events dropped at dispatch because their VP died first.
        self.stale_skipped = 0
        #: Advance resumes taken inline without a heap round-trip.
        self.coalesced_advances = 0
        #: Upper bound (exclusive) on inline-coalesced resume times.  The
        #: serial run leaves it at infinity; the sharded engine caps it at
        #: the current safe-window end so a VP cannot silently advance past
        #: the window barrier (see :mod:`repro.pdes.sharded`).
        self._window_end = math.inf
        #: Abort time of a requested-but-not-yet-applied MPI_Abort kill
        #: sweep; applied once dispatch leaves the abort instant (see
        #: :meth:`request_abort`).
        self._pending_abort: float | None = None
        #: Optional :class:`repro.check.trace.EventTrace` recording every
        #: dispatched event (attach before :meth:`run`).
        self.event_trace = None
        #: Optional :class:`repro.check.sanitizer.Sanitizer` consulted at
        #: every dispatch (attach before :meth:`run`).  ``None`` (the
        #: default) costs one attribute test per event.
        self.check = None
        #: Optional :class:`repro.obs.Observer` collecting resilience
        #: instants (inject/abort) from the engine.  ``None`` (the
        #: default) costs one attribute test per emission site.
        self.obs = None
        #: Called with ``(vp, time)`` after a VP is killed by failure
        #: injection; the MPI layer uses this to delete queued messages,
        #: broadcast the simulator-internal notification, and release
        #: blocked communication partners.
        self.failure_listeners: list[Callable[[VirtualProcess, float], None]] = []
        #: Policy consulted when a VP returns from its main function;
        #: returning ``"failure"`` converts the exit into a process failure
        #: (paper: "returning from main() or calling exit() without having
        #: called MPI_Finalize()" is a failure-injection condition).
        self.exit_policy: Callable[[VirtualProcess], str] | None = None
        # Heap entries are (time, seq, guard_vp, guard_epoch, fn, args).
        # guard_vp is None for unguarded events; otherwise the event is
        # dropped at dispatch when guard_vp.epoch no longer matches
        # guard_epoch (the VP died or finished), so dead-VP callbacks never
        # pay the dispatch + callback-side staleness check.  ``fn is None``
        # marks an Advance resume of guard_vp at the entry's time: the
        # dispatch loops take that control point inline (no callback
        # frame, no args tuple) — see :meth:`_step`.
        self._heap: list[
            tuple[float, int, VirtualProcess | None, int, Callable[..., None] | None, tuple | None]
        ] = []
        self._seq = 0
        self._live = 0
        self._ran = False

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def spawn(self, gen: Generator[Any, Any, Any]) -> VirtualProcess:
        """Register a VP coroutine; its rank is its spawn order."""
        if self._ran:
            raise SimulationError("cannot spawn after run()")
        vp = VirtualProcess(rank=len(self.vps), gen=gen, start_time=self.start_time)
        self.vps.append(vp)
        self._live += 1
        self._schedule_vp(self.start_time, vp, self._start_vp, vp)
        return vp

    def _start_vp(self, vp: VirtualProcess) -> None:
        if vp.state is VpState.READY:
            # Control point before first instruction: a failure scheduled at
            # (or before) the start time kills the VP before it runs.
            if vp.clock >= vp.time_of_failure:
                self._kill_failure(vp, max(vp.clock, 0.0))
                return
            if vp.clock >= vp.time_of_abort:
                self._kill_abort(vp, vp.clock)
                return
            self._step(vp)

    # ------------------------------------------------------------------
    # event queue
    # ------------------------------------------------------------------
    def schedule(self, time: float, fn: Callable[..., None], *args: Any) -> None:
        """Schedule ``fn(*args)`` at virtual ``time`` (must be >= now)."""
        if time < self.now:
            raise SimulationError(f"cannot schedule into the past ({time} < {self.now})")
        self._seq += 1
        heappush(self._heap, (time, self._seq, None, 0, fn, args))

    def _schedule_vp(
        self, time: float, vp: VirtualProcess, fn: Callable[..., None], *args: Any
    ) -> None:
        """Like :meth:`schedule`, but the event is lazily deleted (skipped
        before dispatch) if ``vp``'s epoch changes — i.e. the VP dies,
        aborts, or finishes before the event fires."""
        if time < self.now:
            raise SimulationError(f"cannot schedule into the past ({time} < {self.now})")
        self._seq += 1
        heappush(self._heap, (time, self._seq, vp, vp.epoch, fn, args))

    def post_event(self, time: float, fn: Callable[[Any], None], arg: Any) -> None:
        """Schedule ``fn(arg)`` at ``time`` — the unguarded single-payload
        fast path (message deliveries).  Callers validate ``time`` against
        their own clock; no past-check is repeated here.
        :meth:`MpiWorld.post_send` carries these two lines inline (a call
        per message); a change to the entry layout changes both.
        """
        self._seq += 1
        heappush(self._heap, (time, self._seq, None, 0, fn, (arg,)))

    def queue_size(self) -> int:
        """Number of queued (possibly stale) events."""
        return len(self._heap)

    def heap_head(self, n: int = 20) -> list[dict[str, Any]]:
        """The ``n`` earliest queued events as diagnostic records (the
        sanitizer's dump snapshot)."""
        out = []
        for time, seq, gvp, _, fn, _args in nsmallest(n, self._heap):
            out.append(
                {
                    "time": time,
                    "seq": seq,
                    "rank": None if gvp is None else gvp.rank,
                    "fn": (fn or self._resume_advance).__name__,
                }
            )
        return out

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def run(self) -> SimulationResult:
        """Process events until every VP terminated; return the outcome."""
        if self._ran:
            raise SimulationError("Engine.run() may only be called once")
        self._ran = True
        heap = self._heap
        pop = heappop
        # The event loop allocates only short-lived, acyclic objects (heap
        # tuples, messages, requests) that reference counting reclaims on
        # its own; cyclic-GC passes over the live heap are pure overhead
        # (~10% of run time at 512 VPs), so collection is deferred to the
        # end of the run.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        trace = self.event_trace
        check = self.check
        step = self._step
        try:
            # Run to quiescence: the queue is drained completely rather than
            # stopping at the last VP termination.  Post-termination events
            # are harmless (guarded events are stale-skipped, arrivals to
            # dead VPs are dropped) and draining gives the serial run the
            # same event accounting as a sharded run, where no worker can
            # observe the global live-VP count.
            while heap:
                time, seq, gvp, gepoch, fn, args = pop(heap)
                if self._pending_abort is not None and time > self._pending_abort:
                    self._apply_abort_sweep()
                if gvp is not None and gvp.epoch != gepoch:
                    self.stale_skipped += 1  # lazily deleted dead-VP event
                    continue
                if trace is not None:
                    trace.record_dispatch(time, seq, gvp, fn or self._resume_advance, args)
                if check is not None:
                    check.on_dispatch(time, seq, gvp)
                self.now = time
                self.event_count += 1
                if fn is not None:
                    fn(*args)
                    continue
                # Advance resume: the epoch guard above already proved the
                # VP is still mid-advance, so this is the control point.
                gvp.clock = time
                if time >= gvp.time_of_failure:
                    self._kill_failure(gvp, time)
                elif time >= gvp.time_of_abort:
                    self._kill_abort(gvp, time)
                else:
                    step(gvp)
        finally:
            if gc_was_enabled:
                gc.enable()
        if self._pending_abort is not None:  # abort at the last instant
            self._apply_abort_sweep()
        if self._live > 0:
            blocked = [
                (vp.rank, str(vp.wait_tag), vp.state.value) for vp in self.vps if vp.alive
            ]
            raise DeadlockError(blocked)
        if check is not None:
            check.on_run_end()
        return self._result()

    # ------------------------------------------------------------------
    # windowed dispatch interface (used by repro.pdes.sharded)
    # ------------------------------------------------------------------
    # A shard worker does not call run(); it drives the engine through
    # bounded dispatch windows under the coordinator's safe-window
    # protocol: begin_windowed_run() once, then any interleaving of
    # next_event_time() / run_window(end) / run_exact(t), and finally
    # finish_windowed_run().  The dispatch body is identical to run()'s
    # (trace, sanitizer, event accounting), only the loop bound differs.

    def begin_windowed_run(self) -> None:
        """Enter windowed dispatch mode (one-shot, like :meth:`run`)."""
        if self._ran:
            raise SimulationError("Engine.run() may only be called once")
        self._ran = True
        self._gc_was_enabled = gc.isenabled()
        if self._gc_was_enabled:
            gc.disable()

    def next_event_time(self) -> float:
        """Earliest non-stale queued event time; ``inf`` when drained.

        Stale (dead-VP) heads are pruned here so the reported time is a
        true lower bound on the shard's next dispatch.
        """
        heap = self._heap
        while heap:
            if heap[0][2] is not None and heap[0][2].epoch != heap[0][3]:
                heappop(heap)
                self.stale_skipped += 1
                continue
            return heap[0][0]
        return math.inf

    def _dispatch_bounded(self, bound: float, inclusive: bool) -> None:
        heap = self._heap
        pop = heappop
        trace = self.event_trace
        check = self.check
        step = self._step
        try:
            # Non-inclusive windows re-read ``_window_end`` every iteration:
            # a sharded world *tightens* it mid-dispatch when an event emits
            # a cross-shard envelope (another shard may react to the message
            # and send something back as early as its receive time plus the
            # lookahead — events beyond that are no longer safe).
            while heap and (
                heap[0][0] <= bound if inclusive else heap[0][0] < self._window_end
            ):
                time, seq, gvp, gepoch, fn, args = pop(heap)
                if self._pending_abort is not None and time > self._pending_abort:
                    self._apply_abort_sweep()
                if gvp is not None and gvp.epoch != gepoch:
                    self.stale_skipped += 1
                    continue
                if trace is not None:
                    trace.record_dispatch(time, seq, gvp, fn or self._resume_advance, args)
                if check is not None:
                    check.on_dispatch(time, seq, gvp)
                self.now = time
                self.event_count += 1
                if fn is not None:
                    fn(*args)
                    continue
                # Advance resume: the epoch guard above already proved the
                # VP is still mid-advance, so this is the control point.
                gvp.clock = time
                if time >= gvp.time_of_failure:
                    self._kill_failure(gvp, time)
                elif time >= gvp.time_of_abort:
                    self._kill_abort(gvp, time)
                else:
                    step(gvp)
            # A bound at-or-past the abort instant proves no same-instant
            # event remains (queued or arriving from another shard), so the
            # deferred sweep applies before control returns to the worker.
            effective = bound if inclusive else self._window_end
            if self._pending_abort is not None and (
                effective >= self._pending_abort if inclusive else effective > self._pending_abort
            ):
                self._apply_abort_sweep()
        finally:
            self._window_end = math.inf

    def run_window(self, end: float) -> None:
        """Dispatch every queued event with time strictly before ``end``.

        ``end`` must be a safe-window bound: no event at a time < ``end``
        may still be produced by another shard.  Inline advance coalescing
        is capped at ``end`` so a VP cannot run past the barrier.
        """
        self._window_end = end
        self._dispatch_bounded(end, inclusive=False)

    def run_exact(self, time: float) -> None:
        """Dispatch every queued event at exactly ``time`` (lockstep mode).

        Events pushed *at* ``time`` during dispatch (e.g. a message match
        waking its receiver with zero completion delay) drain in the same
        call; resumes later than ``time`` stay queued.
        """
        self._window_end = time
        self._dispatch_bounded(time, inclusive=True)

    def finish_windowed_run(self) -> None:
        """Leave windowed dispatch mode; re-enables garbage collection."""
        if getattr(self, "_gc_was_enabled", False):
            gc.enable()

    def deactivate_remote(self, owned: frozenset[int]) -> None:
        """Shard-worker setup: neutralize every VP whose rank is not owned.

        A non-owned VP becomes a passive placeholder: its epoch bump
        invalidates all queued guarded events (start, failure-due, wakes),
        its coroutine is closed, and its state is pinned to BLOCKED so the
        message-delivery and matching paths still see it as *alive* — the
        owning shard decides its fate and broadcasts it as a directive.
        The heap is rebuilt dropping the now-stale guarded entries.
        """
        for vp in self.vps:
            if vp.rank in owned:
                continue
            vp.epoch += 1
            vp.state = VpState.BLOCKED
            vp.wait_tag = "remote-shard"
            self._live -= 1
            gen = vp.gen
            if gen is not None:
                gen.close()
                vp.gen = None
        self._heap = [e for e in self._heap if e[2] is None or e[2].epoch == e[3]]
        heapify(self._heap)

    def _result(self) -> SimulationResult:
        timing = TimingStats()
        end_times: dict[int, float] = {}
        for vp in self.vps:
            end = vp.end_time if vp.end_time is not None else vp.clock
            end_times[vp.rank] = end
            timing.add(end)
        exit_time = max(end_times.values()) if end_times else self.start_time
        return SimulationResult(
            start_time=self.start_time,
            exit_time=exit_time,
            aborted=self.aborting,
            abort_time=self.abort_time,
            abort_rank=self.abort_rank,
            failures=list(self.failures),
            states={vp.rank: vp.state for vp in self.vps},
            end_times=end_times,
            busy_times={vp.rank: vp.busy_time for vp in self.vps},
            exit_values={vp.rank: vp.exit_value for vp in self.vps},
            event_count=self.event_count,
            log=self.log,
            timing=timing,
        )

    # ------------------------------------------------------------------
    # stepping virtual processes
    # ------------------------------------------------------------------
    def _step(self, vp: VirtualProcess, value: Any = None, exc: BaseException | None = None) -> None:
        """Run ``vp`` until it yields Advance/Block or terminates."""
        vp.state = _RUNNING
        gen = vp.gen
        heap = self._heap
        coalesce = self.coalesce_advances
        while True:
            try:
                if exc is not None:
                    err, exc = exc, None
                    item = gen.throw(err)
                else:
                    # A method call, not a hoisted ``gen.send``: the loop
                    # usually runs once, and binding the method costs more
                    # than the call it would save.
                    item = gen.send(value)
            except StopIteration as stop:
                self._finish(vp, stop.value)
                return
            except XsimError:
                raise  # simulator/host errors crash the simulation
            except Exception as err:
                # An exception escaping the application is a (virtual)
                # process crash: the VP fails at its current clock, like a
                # real MPI process dying on an unhandled error.
                self._kill_failure(
                    vp, vp.clock, reason=f"uncaught {type(err).__name__}: {err}"
                )
                return
            value = None
            # The simulator has regained control: failure/abort control point.
            if vp.clock >= vp.time_of_failure:
                self._kill_failure(vp, vp.clock)
                return
            if vp.clock >= vp.time_of_abort:
                self._kill_abort(vp, vp.clock)
                return
            kind = type(item)
            if kind is Advance:
                dt = item.dt
                if dt < 0.0:
                    self._crash(vp, f"negative Advance({dt})")
                if dt == 0.0:
                    continue  # zero-cost control point; keep running
                if item.busy:
                    vp.busy_time += dt
                new_clock = vp.clock + dt
                # ``_window_end`` is read here, not once per step: a
                # cross-shard post earlier in this very step tightens it.
                if coalesce and new_clock < self._window_end and (
                    not heap or heap[0][0] > new_clock
                ):
                    # No other event can fire strictly before this VP's
                    # resume (strict > keeps equal-time FIFO order intact),
                    # so take the control point inline: same clock update,
                    # failure/abort checks, and event accounting as the
                    # dispatch loops' heap resume, minus the round-trip.
                    if self.event_trace is not None:
                        self.event_trace.record_coalesced(new_clock, vp.rank)
                    if self.check is not None:
                        self.check.on_dispatch(new_clock, -1, vp)
                    self.now = new_clock
                    self.event_count += 1
                    self.coalesced_advances += 1
                    vp.clock = new_clock
                    if self._pending_abort is not None and new_clock > self._pending_abort:
                        self._apply_abort_sweep()  # leaving the abort instant
                    if new_clock >= vp.time_of_failure:
                        self._kill_failure(vp, new_clock)
                        return
                    if new_clock >= vp.time_of_abort:
                        self._kill_abort(vp, new_clock)
                        return
                    continue
                vp.state = _ADVANCING
                # Inline of _schedule_vp; the past-check is unnecessary
                # here because new_clock = vp.clock + dt with dt > 0 and
                # vp.clock >= self.now inside a step.
                # fn=None: the dispatch loops resume the VP inline.
                self._seq += 1
                heappush(heap, (new_clock, self._seq, vp, vp.epoch, None, None))
                return
            if kind is Block:
                vp.state = _BLOCKED
                vp.wait_token += 1
                vp.wait_tag = item.tag
                return
            self._crash(vp, f"yielded unknown request {item!r}")

    def _crash(self, vp: VirtualProcess, why: str) -> None:
        raise SimulationError(f"VP rank {vp.rank}: {why}")

    def _resume_advance(self) -> None:
        """The name an advance resume carries in traces and
        :meth:`heap_head`.  Never called: those heap entries have ``fn is
        None`` and the dispatch loops run the resume inline."""

    # ------------------------------------------------------------------
    # waking blocked VPs
    # ------------------------------------------------------------------
    def wake(
        self,
        vp: VirtualProcess,
        time: float,
        value: Any = None,
        exc: BaseException | None = None,
    ) -> None:
        """Schedule ``vp`` (currently blocked) to resume at ``time``.

        ``value`` is delivered as the result of the VP's ``yield Block``;
        ``exc`` is raised at that yield instead when given.  Stale wakes
        (the VP died, or was already woken and blocked again) are dropped.
        """
        if vp.state is not _BLOCKED:
            raise SimulationError(f"wake() on non-blocked VP rank {vp.rank} ({vp.state})")
        if time < self.now:
            raise SimulationError(f"cannot schedule into the past ({time} < {self.now})")
        # _schedule_vp minus the varargs round-trip (one wake per blocked
        # completion).
        epoch = vp.epoch
        self._seq += 1
        heappush(
            self._heap,
            (time, self._seq, vp, epoch, self._do_wake, (vp, epoch, vp.wait_token, time, value, exc)),
        )

    def _do_wake(
        self,
        vp: VirtualProcess,
        epoch: int,
        token: int,
        time: float,
        value: Any,
        exc: BaseException | None,
    ) -> None:
        if vp.epoch != epoch or vp.state is not _BLOCKED or vp.wait_token != token:
            return
        if time > vp.clock:
            vp.clock = time
        if vp.clock >= vp.time_of_failure:
            self._kill_failure(vp, vp.clock)
            return
        if vp.clock >= vp.time_of_abort:
            self._kill_abort(vp, vp.clock)
            return
        self._step(vp, value, exc)

    # ------------------------------------------------------------------
    # termination paths
    # ------------------------------------------------------------------
    def _finish(self, vp: VirtualProcess, value: Any) -> None:
        verdict = self.exit_policy(vp) if self.exit_policy is not None else "done"
        if verdict == "failure":
            self._kill_failure(vp, vp.clock, reason="exit without MPI_Finalize")
            return
        vp.state = VpState.DONE
        vp.end_time = vp.clock
        vp.exit_value = value
        vp.epoch += 1
        self._live -= 1

    def _retire(self, vp: VirtualProcess) -> None:
        """Close the coroutine and invalidate queued events for ``vp``."""
        vp.epoch += 1
        self._live -= 1
        gen = vp.gen
        if gen is not None:
            try:
                gen.close()
            except RuntimeError as err:  # generator refused to die
                raise SimulationError(f"VP rank {vp.rank} swallowed its termination") from err

    def _kill_failure(self, vp: VirtualProcess, time: float, reason: str = "injected failure") -> None:
        """End ``vp`` as a simulated MPI process failure at virtual ``time``."""
        self._retire(vp)
        vp.state = VpState.FAILED
        vp.clock = max(vp.clock, time)
        vp.end_time = vp.clock
        self.failures.append((vp.rank, vp.end_time))
        # "An informational message is printed out ... to let the user know
        # of the time and location (rank) of the failure."
        self.log.log(vp.end_time, "failure", f"MPI process failure ({reason})", rank=vp.rank)
        if self.obs is not None:
            self.obs.instant(
                vp.end_time, "inject", rank=vp.rank, track="resilience",
                args={"reason": reason},
            )
        for listener in self.failure_listeners:
            listener(vp, vp.end_time)

    def _kill_abort(self, vp: VirtualProcess, time: float) -> None:
        self._retire(vp)
        vp.state = VpState.ABORTED
        vp.clock = max(vp.clock, time)
        vp.end_time = vp.clock

    # ------------------------------------------------------------------
    # resilience control surface (used by repro.core)
    # ------------------------------------------------------------------
    def schedule_failure(self, rank: int, time: float) -> None:
        """Arm an MPI process failure for ``rank`` at earliest ``time``.

        Mirrors xSim's simulator-internal trigger function: the scheduled
        time is the *earliest* time of failure; the actual failure occurs at
        the next simulator control point at-or-after it.  A VP blocked past
        ``time`` is failed at exactly ``time``.
        """
        if time < self.start_time:
            raise ConfigurationError(
                f"failure time {time} precedes simulation start {self.start_time}"
            )
        vp = self.vps[rank]
        vp.time_of_failure = min(vp.time_of_failure, time)
        self._schedule_vp(time, vp, self._failure_due, vp, vp.epoch, time)

    def fail_now(self, rank: int, reason: str = "application-triggered failure") -> None:
        """Immediately fail ``rank`` at its current clock (simulator-internal
        trigger with *time = now*, e.g. condition-based injection by the
        application itself)."""
        vp = self.vps[rank]
        if vp.alive:
            self._kill_failure(vp, vp.clock, reason=reason)

    def _failure_due(self, vp: VirtualProcess, epoch: int, time: float) -> None:
        if vp.epoch != epoch or not vp.alive:
            return
        if vp.state is VpState.BLOCKED or vp.state is VpState.READY:
            # The wait (or the not-yet-started VP) provably extends past the
            # scheduled failure time, so the failure occurs at exactly it.
            self._kill_failure(vp, time)
        # Otherwise the VP is mid-advance (or running): the control-point
        # check of its Advance resume/_step fires at its next clock update.

    def request_abort(self, time: float, initiator: int) -> None:
        """Simulated ``MPI_Abort`` (paper §IV-D).

        The first abort wins; the simulator-internal broadcast releases all
        blocked VPs at (their clock capped to) the abort time, while
        computing VPs abort once their clock passes it, so the simulation
        exit time may exceed ``time``.

        The broadcast takes effect at the *end of the current simulation
        instant*: every event already due at exactly ``time`` still
        dispatches normally, then the kill sweep runs before the clock
        advances past ``time``.  This makes the outcome a function of the
        event *times* alone rather than of heap insertion order among
        same-instant events — the property the sharded engine
        (:mod:`repro.pdes.sharded`) relies on to reproduce aborts
        bit-identically, since shards do not share a global sequence
        counter.  (Armed failures sit at the other edge of an instant:
        their events are scheduled before the run and therefore dispatch
        before any same-time event.)
        """
        if self.aborting:
            return
        self.aborting = True
        self.abort_time = time
        self.abort_rank = initiator
        self.log.log(time, "abort", "MPI_Abort invoked", rank=initiator)
        if self.obs is not None:
            self.obs.instant(time, "abort", rank=initiator, track="resilience")
        self._pending_abort = time

    def _apply_abort_sweep(self) -> None:
        """The deferred ``MPI_Abort`` broadcast (see :meth:`request_abort`)."""
        time = self._pending_abort
        self._pending_abort = None
        for vp in self.vps:
            if not vp.alive:
                continue
            vp.time_of_abort = min(vp.time_of_abort, time)
            if vp.state is VpState.BLOCKED or vp.state is VpState.READY:
                self._kill_abort(vp, max(vp.clock, time))
            # RUNNING/ADVANCING VPs abort at their next control point.
