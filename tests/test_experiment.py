"""Experiment drivers (Table II machinery, First Impressions) and reports."""

import re

import pytest

from repro.apps.heat3d import HeatConfig
from repro.core.harness.config import SystemConfig
from repro.core.harness.experiment import classify_detection_phase, observe_failure_mode
from repro.core.harness.report import format_table
from repro.run.sweep import run_cells
from repro.run.table2 import (
    PAPER_TABLE2,
    Table2Cell,
    render_table2,
    run_table2,
    table2_scenarios,
)


@pytest.fixture(scope="module")
def tiny_table():
    """Table II at 27 ranks (full runs are benchmarks)."""
    return run_table2(ranks=27, cache=False)


class TestPaperReference:
    def test_paper_table_complete(self):
        assert len(PAPER_TABLE2) == 7
        assert PAPER_TABLE2[(None, 1000)][0] == 5248.0

    def test_paper_mttfa_relation_holds(self):
        """The paper's own rows satisfy MTTF_a ~ E2 / (F + 1)."""
        for (mttf, _), (_, e2, f, mttf_a) in PAPER_TABLE2.items():
            if e2 is None:
                continue
            assert mttf_a == pytest.approx(e2 / (f + 1), abs=1.0)


class TestRunRows:
    def test_baseline_row(self, tiny_table):
        cell = tiny_table[0]
        assert (cell.mttf, cell.interval) == (None, 1000)
        assert cell.e2 is None
        assert cell.f == 0

    def test_failure_row_invariants(self, tiny_table):
        assert len(tiny_table) == 7  # baseline + 2 MTTFs x 3 intervals
        failing = [s for s in table2_scenarios(27) if s.mttf is not None]
        assert all(s["completed"] for s in run_cells(failing, cache=False))
        for cell in tiny_table[1:]:
            assert cell.e2 >= cell.e1 or cell.f == 0
            if cell.f > 0:
                assert cell.mttf_a == pytest.approx(cell.e2 / (cell.f + 1))

    def test_rows_deterministic(self, tiny_table):
        assert run_table2(ranks=27, cache=False) == tiny_table

    def test_shorter_interval_smaller_e2_under_failures(self, tiny_table):
        """The paper's headline observation, at test scale: with failures
        present, a shorter checkpoint interval reduces E2."""
        by_row = {(c.mttf, c.interval): c for c in tiny_table}
        long_c, short_c = by_row[(3000.0, 500)], by_row[(3000.0, 125)]
        if long_c.f > 0 and short_c.f > 0:
            assert short_c.e2 < long_c.e2


class TestFailureModes:
    """Paper §V-D First Impressions."""

    def _workload(self):
        return HeatConfig.paper_workload(checkpoint_interval=25, nranks=27, iterations=100)

    def _system(self):
        return SystemConfig.paper_system(nranks=27)

    def test_compute_phase_failure_detected_in_halo_exchange(self):
        """"A failure during the computation phase is detected in the halo
        exchange due to failing communication.""" """"""
        # interval 25 x 5.24 s/iter: compute phase 1 spans ~0..131 s
        obs = observe_failure_mode(self._system(), self._workload(), rank=13, time=50.0)
        assert obs.aborted
        assert obs.detected_phase == "pt2pt"
        assert obs.activated is not None

    def test_phase_is_the_earliest_detection_not_the_first_logged(self):
        """A recv would time out at 272.334 s here, but the barrier's send
        detects at 262.336 s and aborts the job first: the recv's
        detection never takes effect, so it is never recorded."""
        obs = observe_failure_mode(self._system(), self._workload(), rank=0, time=134.0)
        assert obs.aborted
        assert obs.detected_phase == "collective"

    def test_checkpoint_phase_failure_detected_in_barrier(self):
        """"A failure during the checkpoint phase is detected in the
        following barrier.""" """"""
        from repro.models.filesystem import FileSystemModel

        system = self._system().scaled(
            filesystem=FileSystemModel.create("1GB/s", "1kB/s", "1ms")
        )
        wl = self._workload()
        # first checkpoint at iteration 25 -> t ~ 131 s; the ~33 kB write at
        # 1 kB/s takes ~33 s per rank, so t=140 lands inside the write
        obs = observe_failure_mode(system, wl, rank=13, time=140.0)
        assert obs.aborted
        assert obs.detected_phase == "collective"
        assert obs.corrupted_checkpoint  # the victim's file stayed PARTIAL

    def test_abort_leaves_checkpoint_damage(self):
        """"...always resulting in an incomplete or corrupted checkpoint,
        or ... partially deleted old checkpoints." — provoked by a failure
        landing in the checkpoint write window (slow file system).  A
        compute-phase failure no longer qualifies: posts made after the
        failure notification fail immediately, so the job aborts before
        any checkpoint I/O begins and the store stays untouched."""
        from repro.models.filesystem import FileSystemModel

        system = self._system().scaled(
            filesystem=FileSystemModel.create("1GB/s", "1kB/s", "1ms")
        )
        obs = observe_failure_mode(system, self._workload(), rank=5, time=150.0)
        assert obs.aborted
        assert (
            obs.corrupted_checkpoint
            or obs.incomplete_checkpoint
            or obs.partially_deleted_old
        )

    @pytest.mark.parametrize("rank", [0, 4, 13])
    def test_every_detect_record_precedes_the_abort(self, rank):
        """A detection is recorded when its rank learns of it, so none is
        stamped after the abort, and the log's first is the phase."""
        from repro.apps.heat3d import heat3d
        from repro.core.checkpoint.store import CheckpointStore
        from repro.core.faults.schedule import FailureSchedule
        from repro.core.simulator import XSim

        for time in range(5, 546, 20):
            sim = XSim(self._system())
            sim.inject_schedule(FailureSchedule.of((rank, float(time))))
            result = sim.run(heat3d, args=(self._workload(), CheckpointStore()))
            detects = result.log.category("detect")
            assert bool(detects) == result.aborted, time  # 545 s: after the run
            assert all(d.time <= result.abort_time for d in detects), time
            phase = None
            if detects:
                first = int(re.search(r"ctx=(\d+)", detects[0].message).group(1))
                phase = "pt2pt" if first % 2 == 0 else "collective"
            assert classify_detection_phase(result) == phase, time

    def test_no_failure_no_damage(self):
        obs = observe_failure_mode(
            self._system(), self._workload(), rank=5, time=10_000_000.0
        )
        assert not obs.aborted
        assert obs.activated is None
        assert obs.detected_phase is None


class TestReports:
    def test_format_table_alignment(self):
        out = format_table(["a", "bb"], [["1", "2"], ["333", "4"]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert all(len(line) == len(lines[0]) for line in lines)

    def test_format_table_validates_width(self):
        with pytest.raises(ValueError):
            format_table(["a"], [["1", "2"]])

    def test_render_table2_with_paper_columns(self):
        cells = [Table2Cell(None, 1000, 5244.0, None, 0, None)]
        out = render_table2(cells)
        assert "paper E1" in out
        assert "5,248 s" in out  # the paper's value shown alongside
        assert "5,244 s" in out

    def test_render_table2_without_comparison(self):
        cells = [Table2Cell(6000.0, 500, 5251.0, 7882.0, 1, 3941.0)]
        out = render_table2(cells, compare_paper=False)
        assert "paper" not in out
