"""Campaign fan-out: order, in-process paths, error transport, degradation.

The load-bearing property is *bit-identical results*: a campaign fanned
out over worker processes must measure exactly what the serial sweep
measures, because the paper's experiments are deterministic given their
seeds.  These tests run small-scale campaigns both ways and compare the
full result objects.
"""

import os
import pickle

import pytest

from repro.cache import ResultCache
from repro.cli import main
from repro.core.faults.finject import FinjectCampaign
from repro.core.harness.parallel import fan_out
from repro.run import sweep
from repro.run.envvars import default_jobs
from repro.run.scenario import Scenario
from repro.run.table2 import run_table2
from repro.util.errors import CampaignTaskError, ConfigurationError

#: This process.  A forked worker inherits the value, so a function can
#: tell whether it runs in the campaign's own process.
_PARENT = os.getpid()
_RUN_CELL = sweep._run_cell


def _echo(value):
    return value


def _where(value):
    return value, os.getpid()


def _boom(message):
    raise RuntimeError(message)


def _call(fn):
    return fn(), os.getpid()


def _boom_in_worker(item):
    if item != "boom":
        return item
    if os.getpid() == _PARENT:
        raise AssertionError("the campaign was rerun in the parent")
    raise RuntimeError("pool boom")


def _unpicklable_boom(item):
    if item == ("bad", 0):
        class LocalError(Exception):  # local class: cannot be pickled
            pass

        raise LocalError("cannot travel")
    return item


def _square_unless_in_worker(item):
    if os.getpid() != _PARENT:
        os._exit(3)  # a worker killed mid-cell
    return item * item, os.getpid()


def _cell_unless_in_worker(cell):
    if os.getpid() != _PARENT:
        os._exit(3)
    return _RUN_CELL(cell)


class TestExecutorBasics:
    def test_results_in_spec_order(self):
        assert fan_out(_where, range(5), jobs=1) == [(i, _PARENT) for i in range(5)]

    def test_single_spec_runs_in_process(self):
        assert fan_out(_where, ["x"], jobs=8) == [("x", _PARENT)]

    def test_task_errors_propagate_serially(self):
        with pytest.raises(RuntimeError, match="bad"):
            fan_out(_boom, ["bad"], jobs=1)

    def test_invalid_worker_count(self):
        with pytest.raises(ConfigurationError, match=r"^jobs must be >= 1, got 0$"):
            fan_out(_echo, [1, 2], jobs=0)

    def test_default_jobs_env(self, monkeypatch):
        monkeypatch.delenv("XSIM_JOBS", raising=False)
        assert default_jobs() == 1
        monkeypatch.setenv("XSIM_JOBS", "6")
        assert default_jobs() == 6
        monkeypatch.setenv("XSIM_JOBS", "zero")
        with pytest.raises(ConfigurationError):
            default_jobs()
        monkeypatch.setenv("XSIM_JOBS", "0")
        with pytest.raises(ConfigurationError):
            default_jobs()

    def test_unpicklable_params_degrade_to_serial(self):
        # A lambda cannot cross the process boundary; the pool attempt
        # must fall back to an in-process run with identical results.
        items = [(lambda i=i: i) for i in range(3)]
        assert fan_out(_call, items, jobs=2) == [(i, _PARENT) for i in range(3)]


class TestDegradedPaths:
    """Pool failure modes: error transport, ordering, the in-process rerun."""

    def test_pool_results_in_spec_order(self):
        tagged = fan_out(_where, [i * 11 for i in range(8)], jobs=3)
        assert [value for value, _ in tagged] == [0, 11, 22, 33, 44, 55, 66, 77]
        assert _PARENT not in {pid for _, pid in tagged}

    def test_task_errors_propagate_from_pool(self):
        # A raising call must surface its own exception from the pool —
        # not trigger the in-process rerun (which would raise the
        # AssertionError) — and leave fan_out usable for later campaigns.
        with pytest.raises(RuntimeError, match="pool boom"):
            fan_out(_boom_in_worker, [0, 1, "boom", 2, 3], jobs=2)
        assert fan_out(_boom_in_worker, [0, 1, 2, 3], jobs=2) == [0, 1, 2, 3]

    def test_unpicklable_task_exception_substituted(self):
        # An exception that cannot cross the process boundary is replaced
        # by a CampaignTaskError naming the item, with the original type
        # and message.
        with pytest.raises(CampaignTaskError, match="cannot travel") as excinfo:
            fan_out(_unpicklable_boom, [("bad", 0), (1,)], jobs=2)
        assert excinfo.value.exc_type == "LocalError"
        assert excinfo.value.item == ("bad", 0)

    def test_campaign_task_error_pickles(self):
        err = CampaignTaskError(("k", 3), "ValueError", "detail")
        clone = pickle.loads(pickle.dumps(err))
        assert str(clone) == str(err)
        assert (clone.item, clone.exc_type, clone.detail) == (("k", 3), "ValueError", "detail")

    def test_a_dying_worker_reruns_in_process(self):
        # Every worker hard-exits on its first item: the pool breaks and
        # the whole campaign reruns here, giving the serial results.
        serial = fan_out(_square_unless_in_worker, range(8), jobs=1)
        assert fan_out(_square_unless_in_worker, range(8), jobs=2) == serial
        assert {pid for _, pid in serial} == {_PARENT}

    def test_a_dying_worker_in_run_cells_leaves_a_clean_cache(
        self, tmp_path, monkeypatch, capsys
    ):
        cells = [
            Scenario(ranks=8, iterations=20, interval=5, failures=f"{i}@{20 + i}s")
            for i in range(4)
        ]
        serial = sweep.run_cells(cells, jobs=1, cache=ResultCache(tmp_path / "serial"))
        monkeypatch.setattr(sweep, "_run_cell", _cell_unless_in_worker)
        store = ResultCache(tmp_path / "pool")
        assert sweep.run_cells(cells, jobs=2, cache=store) == serial
        assert store.index_stats()["entries"] == len(cells)
        assert main(["cache", "verify", "--cache-dir", str(tmp_path / "pool")]) == 0
        assert capsys.readouterr().out == f"verified {len(cells)} entries: all servable\n"


class TestCampaignDeterminism:
    """Parallel campaigns measure exactly what serial campaigns measure."""

    def test_table2_parallel_matches_serial(self):
        # Small Table II grid: every cell must be byte-identical —
        # E1, E2, F, and MTTF_a are exact float/int equality.
        serial = run_table2(ranks=64, jobs=1, cache=False)
        parallel = run_table2(ranks=64, jobs=4, cache=False)
        assert serial == parallel
        assert len(serial) == 7  # baseline + 2 MTTFs x 3 intervals

    def test_finject_default_stream_is_unchanged(self):
        # The calibrated Table I draw: one shared stream (seed 29) consumed
        # in victim order, in-process — Table I has no fan-out to perturb it.
        result = FinjectCampaign(victims=20).run()
        assert result.injections_to_failure == (
            26, 23, 7, 4, 3, 22, 1, 17, 26, 8, 4, 4, 28, 9, 9, 91, 2, 17, 40, 20
        )
        assert (result.censored, result.sdc_hits, result.benign_hits) == (0, 269, 72)
