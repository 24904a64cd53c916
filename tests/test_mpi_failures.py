"""Failure propagation/detection/notification through the MPI layer.

These test the paper's core contribution (§IV-B/C/D): what surviving ranks
observe when a simulated MPI process fails.
"""

import pytest

from repro.core.harness.config import SystemConfig
from repro.core.simulator import XSim
from repro.mpi.constants import ANY_SOURCE, ERR_PROC_FAILED
from repro.mpi.errhandler import ERRORS_RETURN, MpiError
from repro.pdes.context import VpState
from tests.conftest import run_app

TIMEOUT = 1.0  # small_test_system detection timeout


def finishing(body):
    def app(mpi, *args):
        yield from mpi.init()
        result = yield from body(mpi, *args)
        yield from mpi.finalize()
        return result

    return app


class TestDetectionAndAbort:
    def test_blocked_recv_released_after_timeout_then_abort(self):
        @finishing
        def app(mpi):
            if mpi.rank == 0:
                yield from mpi.recv(1, tag=0)  # rank 1 dies at t=5
            else:
                yield from mpi.compute(100.0)

        run = run_app(app, nranks=2, failures=[(1, 5.0)])
        res = run.result
        assert res.aborted
        # rank 1 was mid-compute at the scheduled time, so the failure
        # activates when the simulator regains control at t=100
        assert res.failures == [(1, 100.0)]
        assert res.states[1] is VpState.FAILED
        assert res.abort_time == pytest.approx(100.0 + TIMEOUT)

    def test_detection_time_is_failure_plus_timeout(self):
        @finishing
        def app(mpi):
            if mpi.rank == 0:
                yield from mpi.recv(1, tag=0)
            else:
                yield from mpi.compute(5.0)  # dies at 5.0 (scheduled 2.0)

        run = run_app(app, nranks=2, failures=[(1, 2.0)])
        res = run.result
        assert res.failures == [(1, 5.0)]
        assert res.abort_time == pytest.approx(5.0 + TIMEOUT)
        detect = res.log.category("detect")
        assert len(detect) == 1
        assert detect[0].time == pytest.approx(6.0)
        assert detect[0].rank == 0

    def test_all_ranks_notified_failed_list(self):
        """Each VP maintains its own list of failed processes and times."""
        seen = {}

        @finishing
        def app(mpi):
            # rank 3 dies at the end of a short compute; the others probe
            # later, after the simulator-internal notification broadcast
            yield from mpi.compute(2.0 if mpi.rank == 3 else 10.0)
            seen[mpi.rank] = dict(mpi.vp.failed_peers)
            yield from mpi.barrier()

        run = run_app(app, nranks=4, failures=[(3, 1.0)])
        assert run.result.aborted
        for r in (0, 1, 2):
            assert seen[r] == {3: pytest.approx(2.0)}

    def test_failed_ranks_helper_reports_comm_ranks(self):
        probe = {}

        @finishing
        def app(mpi):
            yield from mpi.compute(2.0 if mpi.rank == 1 else 10.0)
            probe[mpi.rank] = mpi.failed_ranks()
            yield from mpi.barrier()

        run = run_app(app, nranks=3, failures=[(1, 0.5)])
        assert run.result.aborted
        assert probe[0] == [1]

    def test_send_to_known_failed_rank_fails(self):
        @finishing
        def app(mpi):
            if mpi.rank == 0:
                yield from mpi.compute(10.0)  # failure of 1 is known by now
                yield from mpi.send(1, nbytes=8, tag=0)

        run = run_app(app, nranks=2, failures=[(1, 1.0)])
        res = run.result
        assert res.aborted
        # the failure record already exists when the send is posted, so it
        # fails immediately at post time — the detection delay was paid
        # when the notification was delivered, not charged again per post
        assert res.abort_time == pytest.approx(10.0)

    def test_recv_posted_after_failure_fails_from_list(self):
        @finishing
        def app(mpi):
            if mpi.rank == 0:
                yield from mpi.compute(10.0)
                yield from mpi.recv(1, tag=0)

        run = run_app(app, nranks=2, failures=[(1, 1.0)])
        assert run.result.aborted
        # immediate failure from the failed-process list (see above)
        assert run.result.abort_time == pytest.approx(10.0)

    def test_detection_timing_pre_posted_vs_post_notification(self):
        """Regression pin for both detection timings side by side: a
        request posted *before* the failure pays the detection timeout
        from the failure (released at ``max(t_fail, post) + timeout``); a
        request posted *after* the failure record exists fails at its own
        post time, with no second timeout."""
        pre = {}

        @finishing
        def pre_posted(mpi):
            if mpi.rank == 0:
                yield from mpi.recv(1, tag=0)  # posted at t=0, rank 1 dies at 5
                pre["unreachable"] = True

        run = run_app(pre_posted, nranks=2, failures=[(1, 5.0)])
        assert run.result.failures == [(1, 5.0)]
        assert run.result.abort_time == pytest.approx(5.0 + TIMEOUT)
        assert "unreachable" not in pre

        @finishing
        def post_notified(mpi):
            if mpi.rank == 0:
                yield from mpi.compute(5.0 + 2 * TIMEOUT)  # notified at 5 + timeout
                yield from mpi.recv(1, tag=0)

        run = run_app(post_notified, nranks=2, failures=[(1, 5.0)])
        assert run.result.failures == [(1, 5.0)]
        assert run.result.abort_time == pytest.approx(5.0 + 2 * TIMEOUT)

    def test_any_source_recv_released_on_failure(self):
        """Paper: the synchronization mechanism releases (and fails)
        unmatched MPI_ANY_SOURCE receive requests."""

        @finishing
        def app(mpi):
            if mpi.rank == 0:
                yield from mpi.recv(ANY_SOURCE, tag=0)

        run = run_app(app, nranks=3, failures=[(2, 5.0)])
        assert run.result.aborted
        assert run.result.abort_time == pytest.approx(5.0 + TIMEOUT)

    def test_blocked_rendezvous_send_released_on_failure(self):
        system = SystemConfig.small_test_system(nranks=2, eager_threshold=10)

        @finishing
        def app(mpi):
            if mpi.rank == 0:
                yield from mpi.send(1, nbytes=1000, tag=0)  # rendezvous, blocks
            else:
                yield from mpi.compute(50.0)

        run = run_app(app, nranks=2, system=system, failures=[(1, 3.0)])
        assert run.result.aborted
        assert run.result.abort_time == pytest.approx(50.0 + TIMEOUT)

    def test_messages_to_failed_process_deleted(self):
        @finishing
        def app(mpi):
            if mpi.rank == 0:
                yield from mpi.send(1, nbytes=8, tag=0)  # in flight at t~0
                yield from mpi.compute(100.0)

        run = run_app(app, nranks=2, failures=[(1, 0.0)])
        # rank 1 died at startup; the message is dropped, rank 0 completes
        # its compute then hits finalize's barrier with a dead member
        assert run.result.aborted
        state = run.world.states[1]
        assert state.unexpected == {}

    def test_eager_message_from_dead_sender_still_deliverable(self):
        """Data that left the sender before its death arrives (like real
        MPI): rank 0 receives although rank 1 is already dead."""

        def app(mpi):
            yield from mpi.init()
            if mpi.rank == 0:
                yield from mpi.compute(5.0)
                got = yield from mpi.recv(1, tag=0)
                return got
            yield from mpi.send(0, payload="last words", nbytes=8, tag=0)
            yield from mpi.compute(100.0)

        system = SystemConfig.small_test_system(nranks=2, strict_finalize=False)
        run = run_app(app, nranks=2, system=system, failures=[(1, 1.0)])
        assert run.result.exit_values[0] == "last words"
        assert run.result.states[1] is VpState.FAILED

    def test_whole_job_aborts_single_failure(self):
        """Default MPI fault model: one process failure ends the job."""

        @finishing
        def app(mpi):
            for _ in range(100):
                yield from mpi.compute(1.0)
                yield from mpi.barrier()

        run = run_app(app, nranks=8, failures=[(4, 10.0)])
        res = run.result
        assert res.aborted
        assert res.states[4] is VpState.FAILED
        assert all(
            s in (VpState.ABORTED, VpState.FAILED) for s in res.states.values()
        )

    def test_exit_without_finalize_is_failure(self):
        """Paper §IV-B: returning from main() without MPI_Finalize()."""

        def app(mpi):
            yield from mpi.init()
            if mpi.rank == 1:
                return "early exit"  # no finalize
            yield from mpi.finalize()

        run = run_app(app, nranks=2)
        assert run.result.states[1] is VpState.FAILED
        assert run.result.aborted  # rank 0's finalize barrier detects it

    def test_fail_here_condition_based_injection(self):
        @finishing
        def app(mpi):
            yield from mpi.compute(2.0)
            if mpi.rank == 1 and mpi.wtime() >= 2.0:
                yield from mpi.fail_here("numerical blow-up")
            yield from mpi.barrier()

        run = run_app(app, nranks=2)
        assert run.result.failures == [(1, 2.0)]
        assert run.result.aborted


class TestOneDetectPerFailedRequest:
    """A rank records a detection when it learns of it — in the tail every
    wait, test and collective completion shares — and only then."""

    @staticmethod
    def detects(consume, algorithm="linear", nranks=2):
        """Rank 1 dies blocked at t=0.5; rank 0 runs ``consume(mpi)``."""

        def app(mpi):
            yield from mpi.init()
            if mpi.rank == 1:
                yield from mpi.recv(0, tag=99)
            elif mpi.rank == 0:
                yield from consume(mpi)
            else:
                yield from consume(mpi, mpi.rank)
            yield from mpi.finalize()

        system = SystemConfig.small_test_system(
            nranks=nranks, collective_algorithm=algorithm
        )
        sim = XSim(system, observe=True)
        sim.inject_failure(1, 0.5)
        result = sim.run(app)
        assert result.aborted
        logged = [(e.time, e.rank) for e in result.log.category("detect")]
        observed = sorted(
            (e.start, e.rank) for e in sim.observer.sim_events() if e.name == "detect"
        )
        assert logged == observed
        assert all(t <= result.abort_time for t, _ in logged)
        return logged

    def test_wait(self):
        def consume(mpi):
            yield from mpi.wait(mpi.irecv(1, tag=0))

        assert [r for _, r in self.detects(consume)] == [0]

    def test_waitall_stops_at_the_first(self):
        def consume(mpi):
            yield from mpi.waitall([mpi.irecv(1, tag=0), mpi.irecv(1, tag=1)])

        assert [r for _, r in self.detects(consume)] == [0]

    def test_test_records_when_it_learns(self):
        def consume(mpi):
            req = mpi.irecv(1, tag=0)
            yield from mpi.compute(5.0)
            yield from mpi.test(req)

        # failed at 0.5 + the timeout; learnt at the test
        assert self.detects(consume) == [(pytest.approx(5.0), 0)]

    def test_neighbor_exchange(self):
        def consume(mpi):
            yield from mpi.neighbor_exchange(mpi.neighbor_plan([(1, 0, 0, 8)]))

        assert [r for _, r in self.detects(consume)] == [0]

    @pytest.mark.parametrize("algorithm", ["linear", "tree"])
    def test_collective(self, algorithm):
        def consume(mpi):
            yield from mpi.barrier()

        assert [r for _, r in self.detects(consume, algorithm)] == [0]

    def test_a_receive_whose_owner_aborts_first_records_none(self):
        def consume(mpi, rank=0):
            if rank == 0:  # would detect at 0.5 + the timeout
                yield from mpi.wait(mpi.irecv(1, tag=0))
            else:  # the failure is on rank 2's list by 0.6: the send fails at once
                yield from mpi.compute(0.6)
                yield from mpi.send(1, nbytes=8)

        assert self.detects(consume, nranks=3) == [(pytest.approx(0.6), 2)]


class TestErrorsReturn:
    def _system(self):
        # survivors exit without a (doomed) finalize barrier
        return SystemConfig.small_test_system(nranks=2, strict_finalize=False)

    def test_errors_return_raises_mpi_error(self):
        def app(mpi):
            yield from mpi.init()
            mpi.set_errhandler(ERRORS_RETURN)
            if mpi.rank == 0:
                try:
                    yield from mpi.recv(1, tag=0)
                except MpiError as err:
                    return (err.code, err.failed_rank, mpi.wtime())
            else:
                yield from mpi.compute(5.0)
            return None

        run = run_app(app, nranks=2, system=self._system(), failures=[(1, 1.0)])
        code, failed_rank, when = run.result.exit_values[0]
        assert code == ERR_PROC_FAILED
        assert failed_rank == 1
        assert when == pytest.approx(5.0 + TIMEOUT)
        assert not run.result.aborted  # rank 0 handled it and finished

    def test_user_errhandler_called_then_raises(self):
        calls = []

        def app(mpi):
            yield from mpi.init()

            def handler(comm, err):
                calls.append((comm.name, err.code))

            mpi.set_errhandler(handler)
            if mpi.rank == 0:
                try:
                    yield from mpi.recv(1, tag=0)
                except MpiError:
                    return "handled"
            else:
                yield from mpi.compute(5.0)
            return None

        run = run_app(app, nranks=2, system=self._system(), failures=[(1, 1.0)])
        assert run.result.exit_values[0] == "handled"
        assert calls == [("MPI_COMM_WORLD", ERR_PROC_FAILED)]

    def test_uncaught_mpi_error_is_process_crash(self):
        """An exception escaping the application fails that VP (it does
        not crash the simulation)."""

        def app(mpi):
            yield from mpi.init()
            mpi.set_errhandler(ERRORS_RETURN)
            if mpi.rank == 0:
                yield from mpi.recv(1, tag=0)  # raises MpiError, uncaught
            else:
                yield from mpi.compute(5.0)

        run = run_app(app, nranks=2, system=self._system(), failures=[(1, 1.0)])
        assert run.result.states[0] is VpState.FAILED
        crash = [e for e in run.result.log.category("failure") if e.rank == 0]
        assert crash and "MpiError" in crash[0].message

    def test_explicit_abort_from_application(self):
        def app(mpi):
            yield from mpi.init()
            yield from mpi.compute(float(mpi.rank))
            if mpi.rank == 1:
                yield from mpi.abort()
            yield from mpi.compute(100.0)
            yield from mpi.finalize()

        run = run_app(app, nranks=3)
        res = run.result
        assert res.aborted
        assert res.abort_rank == 1
        assert res.abort_time == pytest.approx(1.0)
