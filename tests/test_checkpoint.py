"""Checkpoint store, protocol, and Daly analysis."""

import math

import pytest

from repro.check.oracle import (
    daly_higher_order_interval,
    daly_simple_interval,
    expected_completion_time,
    optimal_interval_by_search,
)
from repro.core.checkpoint.store import CheckpointStore, FileState
from repro.util.errors import CheckpointError, ConfigurationError


class TestCheckpointStore:
    def test_write_lifecycle(self):
        s = CheckpointStore()
        s.begin_write(100, 0, {"it": 100}, 512)
        assert s.state_of(100, 0) is FileState.PARTIAL
        s.commit_write(100, 0)
        assert s.state_of(100, 0) is FileState.COMPLETE
        f = s.read(100, 0)
        assert f.data == {"it": 100}
        assert f.nbytes == 512

    def test_read_corrupted_rejected(self):
        s = CheckpointStore()
        s.begin_write(1, 0, None, 10)
        with pytest.raises(CheckpointError):
            s.read(1, 0)

    def test_read_missing_rejected(self):
        with pytest.raises(CheckpointError):
            CheckpointStore().read(1, 0)

    def test_commit_unknown_rejected(self):
        with pytest.raises(CheckpointError):
            CheckpointStore().commit_write(1, 0)

    def test_validity_requires_all_ranks_complete(self):
        s = CheckpointStore()
        for r in range(3):
            s.begin_write(5, r, None, 10)
            s.commit_write(5, r)
        assert s.is_valid(5, 3)
        assert not s.is_valid(5, 4)  # rank 3 missing
        s.begin_write(6, 0, None, 10)  # partial file only
        assert not s.is_valid(6, 1)

    def test_validity_requires_exact_rank_set(self):
        """A set written by a wider job (files from ranks >= nranks) is
        not valid for a narrower restart: restoring only its low-rank
        files would silently drop part of the domain."""
        s = CheckpointStore()
        for r in range(4):  # written by a 4-rank job
            s.begin_write(7, r, None, 10)
            s.commit_write(7, r)
        assert s.is_valid(7, 4)
        assert not s.is_valid(7, 2)  # ranks 2,3 are leftovers
        assert s.latest_valid(2) is None

    def test_cleanup_deletes_leftover_wide_sets(self):
        s = CheckpointStore()
        for r in range(4):  # leftover from a wider job
            s.begin_write(10, r, None, 1)
            s.commit_write(10, r)
        for r in range(2):  # valid for the current 2-rank job
            s.begin_write(20, r, None, 1)
            s.commit_write(20, r)
        removed = s.cleanup_incomplete(nranks=2)
        assert removed == [10]
        # the high-rank files went with the set, not just ranks 0..1
        assert s.ranks_present(10) == []
        assert s.latest_valid(2) == 20

    def test_latest_valid_picks_largest(self):
        s = CheckpointStore()
        for cid in (100, 200, 300):
            for r in range(2):
                s.begin_write(cid, r, None, 10)
                s.commit_write(cid, r)
        s.begin_write(400, 0, None, 10)  # incomplete newest
        assert s.latest_valid(2) == 300
        assert s.latest_valid(3) is None

    def test_corrupted_files_listed(self):
        s = CheckpointStore()
        s.begin_write(1, 0, None, 10)
        s.begin_write(1, 1, None, 10)
        s.commit_write(1, 1)
        assert s.corrupted_files(1) == [0]

    def test_delete_single_and_set(self):
        s = CheckpointStore()
        for r in range(3):
            s.begin_write(1, r, None, 10)
        assert s.delete(1, 0) == 1
        assert s.delete(1, 0) == 0  # idempotent
        assert s.delete(1) == 2
        assert len(s) == 0

    def test_cleanup_incomplete_is_the_shell_script(self):
        s = CheckpointStore()
        for r in range(2):
            s.begin_write(10, r, None, 1)
            s.commit_write(10, r)
        s.begin_write(20, 0, None, 1)  # rank 1 never started: incomplete
        s.commit_write(20, 0)
        removed = s.cleanup_incomplete(nranks=2)
        assert removed == [20]
        assert s.latest_valid(2) == 10

    def test_counters_and_sizes(self):
        s = CheckpointStore()
        s.begin_write(1, 0, None, 100)
        s.begin_write(1, 1, None, 100)
        s.delete(1, 0)
        assert s.writes == 2
        assert s.deletes == 1
        assert s.total_bytes() == 100

    def test_ranks_present_and_ids(self):
        s = CheckpointStore()
        s.begin_write(2, 1, None, 1)
        s.begin_write(1, 0, None, 1)
        assert s.checkpoint_ids() == [1, 2]
        assert s.ranks_present(2) == [1]

    def test_negative_size_rejected(self):
        with pytest.raises(CheckpointError):
            CheckpointStore().begin_write(1, 0, None, -1)


class TestDaly:
    def test_simple_interval_formula(self):
        assert daly_simple_interval(10.0, 2000.0) == pytest.approx(200.0)

    def test_higher_order_close_to_simple_for_small_delta(self):
        simple = daly_simple_interval(1.0, 10_000.0)
        higher = daly_higher_order_interval(1.0, 10_000.0)
        assert higher == pytest.approx(simple, rel=0.05)

    def test_higher_order_degenerates_when_delta_large(self):
        assert daly_higher_order_interval(300.0, 100.0) == 100.0

    def test_expected_time_increases_with_failure_rate(self):
        t_reliable = expected_completion_time(1000.0, 100.0, 5.0, mttf=1e6)
        t_flaky = expected_completion_time(1000.0, 100.0, 5.0, mttf=1e3)
        assert t_flaky > t_reliable
        assert t_reliable >= 1000.0  # can't beat the raw work

    def test_expected_time_increases_with_checkpoint_cost(self):
        cheap = expected_completion_time(1000.0, 100.0, 1.0, mttf=5000.0)
        pricey = expected_completion_time(1000.0, 100.0, 50.0, mttf=5000.0)
        assert pricey > cheap

    def test_search_finds_near_daly_optimum(self):
        delta, mttf = 10.0, 3000.0
        tau_star = optimal_interval_by_search(work=10_000.0, delta=delta, mttf=mttf)
        daly = daly_higher_order_interval(delta, mttf)
        assert tau_star == pytest.approx(daly, rel=0.15)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            daly_simple_interval(0.0, 1.0)
        with pytest.raises(ConfigurationError):
            daly_higher_order_interval(1.0, 0.0)
        with pytest.raises(ConfigurationError):
            expected_completion_time(0.0, 1.0, 1.0, 1.0)
        with pytest.raises(ConfigurationError):
            optimal_interval_by_search(1.0, 1.0, 1.0, samples=3)

    def test_restart_cost_multiplies(self):
        base = expected_completion_time(1000.0, 100.0, 5.0, 2000.0, restart=0.0)
        with_restart = expected_completion_time(1000.0, 100.0, 5.0, 2000.0, restart=60.0)
        assert with_restart == pytest.approx(base * math.exp(60.0 / 2000.0))
