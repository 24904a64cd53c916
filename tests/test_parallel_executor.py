"""The parallel campaign executor: dispatch, determinism, degradation.

The load-bearing property is *bit-identical results*: a campaign fanned
out over worker processes must measure exactly what the serial sweep
measures, because the paper's experiments are deterministic given their
seeds.  These tests run small-scale campaigns both ways and compare the
full result objects.
"""

import pytest

from repro.core.faults.finject import FinjectCampaign
from repro.core.harness.parallel import (
    CampaignExecutor,
    RunSpec,
    default_jobs,
    run_spec,
    task,
)
from repro.run.table2 import run_table2
from repro.util.errors import CampaignTaskError, ConfigurationError


@task("test-echo")
def _echo(*, value):
    return value


@task("test-boom")
def _boom(*, message):
    raise RuntimeError(message)


class TestExecutorBasics:
    def test_results_in_spec_order(self):
        specs = [RunSpec("test-echo", key=(i,), params={"value": i * 10}) for i in range(5)]
        ex = CampaignExecutor(max_workers=1)
        assert ex.run(specs) == [0, 10, 20, 30, 40]
        assert ex.last_mode == "serial"

    def test_single_spec_runs_in_process(self):
        ex = CampaignExecutor(max_workers=8)
        assert ex.run([RunSpec("test-echo", params={"value": "x"})]) == ["x"]
        assert ex.last_mode == "serial"

    def test_unknown_kind_fails_fast(self):
        ex = CampaignExecutor(max_workers=4)
        with pytest.raises(ConfigurationError, match="unknown task kind"):
            ex.run([RunSpec("no-such-task")])

    def test_run_spec_dispatches(self):
        assert run_spec(RunSpec("test-echo", params={"value": 7})) == 7

    def test_task_errors_propagate_serially(self):
        ex = CampaignExecutor(max_workers=1)
        with pytest.raises(RuntimeError, match="bad"):
            ex.run([RunSpec("test-boom", params={"message": "bad"})])

    def test_invalid_worker_count(self):
        with pytest.raises(ConfigurationError):
            CampaignExecutor(max_workers=0)

    def test_default_jobs_env(self, monkeypatch):
        monkeypatch.delenv("XSIM_JOBS", raising=False)
        assert default_jobs() == 1
        monkeypatch.setenv("XSIM_JOBS", "6")
        assert default_jobs() == 6
        assert CampaignExecutor().max_workers == 6
        monkeypatch.setenv("XSIM_JOBS", "zero")
        with pytest.raises(ConfigurationError):
            default_jobs()
        monkeypatch.setenv("XSIM_JOBS", "0")
        with pytest.raises(ConfigurationError):
            default_jobs()

    def test_unpicklable_params_degrade_to_serial(self):
        # A lambda cannot cross the process boundary; the pool attempt
        # must fall back to an in-process run with identical results
        # (tasks defined in a test module only exist in this process
        # anyway, which the fallback also covers).
        specs = [
            RunSpec("test-echo", key=(i,), params={"value": (lambda i=i: i)})
            for i in range(3)
        ]
        ex = CampaignExecutor(max_workers=2)
        results = ex.run(specs)
        assert [fn() for fn in results] == [0, 1, 2]
        assert ex.last_mode == "fallback-serial"

    def test_duplicate_task_registration_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate"):
            task("test-echo")(lambda: None)


class TestDegradedPaths:
    """Pool failure modes: error transport, ordering, fallback parity."""

    def test_pool_results_in_spec_order(self):
        specs = [RunSpec("selftest", key=(i,), params={"value": i * 11}) for i in range(8)]
        ex = CampaignExecutor(max_workers=3)
        assert ex.run(specs) == [0, 11, 22, 33, 44, 55, 66, 77]
        assert ex.last_mode == "pool"

    def test_task_errors_propagate_from_pool(self):
        # A raising task must surface its own exception from the pool path
        # — not trigger the fallback-serial rerun — and must not wedge the
        # executor for later campaigns.
        specs = [RunSpec("selftest", key=(i,), params={"value": i}) for i in range(4)]
        specs.insert(2, RunSpec("selftest", key=("boom",), params={"raise_message": "pool boom"}))
        ex = CampaignExecutor(max_workers=2)
        with pytest.raises(RuntimeError, match="pool boom"):
            ex.run(specs)
        assert ex.last_mode == "pool"
        ok = [RunSpec("selftest", key=(i,), params={"value": i}) for i in range(4)]
        assert ex.run(ok) == [0, 1, 2, 3]
        assert ex.last_mode == "pool"

    def test_unpicklable_task_exception_substituted(self):
        # An exception that cannot cross the process boundary is replaced
        # by a CampaignTaskError carrying the original type and message.
        specs = [
            RunSpec(
                "selftest",
                key=("bad", 0),
                params={"raise_message": "cannot travel", "unpicklable": True},
            ),
            RunSpec("selftest", key=(1,), params={"value": 1}),
        ]
        ex = CampaignExecutor(max_workers=2)
        with pytest.raises(CampaignTaskError, match="cannot travel") as excinfo:
            ex.run(specs)
        assert ex.last_mode == "pool"
        assert excinfo.value.exc_type == "LocalError"
        assert excinfo.value.key == ("bad", 0)

    def test_campaign_task_error_pickles(self):
        import pickle

        err = CampaignTaskError("selftest", ("k", 3), "ValueError", "detail")
        clone = pickle.loads(pickle.dumps(err))
        assert str(clone) == str(err)
        assert (clone.kind, clone.key, clone.exc_type) == ("selftest", ("k", 3), "ValueError")

    def test_force_fallback_matches_pool(self):
        specs = [
            RunSpec(
                "finject-victim",
                key=("victim", i),
                params={
                    "victim": FinjectCampaign().victim,
                    "victim_id": i,
                    "max_injections": 50,
                    "seed": 11,
                },
            )
            for i in range(8)
        ]
        pool = CampaignExecutor(max_workers=4)
        pool_results = pool.run(specs)
        fallback = CampaignExecutor(max_workers=4, force_fallback=True)
        fallback_results = fallback.run(specs)
        assert pool.last_mode == "pool"
        assert fallback.last_mode == "fallback-serial"
        assert pool_results == fallback_results


class TestCampaignDeterminism:
    """Parallel campaigns measure exactly what serial campaigns measure."""

    def test_table2_parallel_matches_serial(self):
        # Small Table II grid: every cell must be byte-identical —
        # E1, E2, F, and MTTF_a are exact float/int equality.
        serial = run_table2(ranks=64, jobs=1, cache=False)
        parallel = run_table2(ranks=64, jobs=4, cache=False)
        assert serial == parallel
        assert len(serial) == 7  # baseline + 2 MTTFs x 3 intervals

    def test_finject_parallel_matches_serial(self):
        serial = FinjectCampaign(victims=20, independent_streams=True, jobs=1).run()
        parallel = FinjectCampaign(victims=20, independent_streams=True, jobs=4).run()
        assert serial == parallel
        assert len(serial.injections_to_failure) == 20

    def test_finject_default_stream_is_unchanged(self):
        # The calibrated Table I draw (shared sequential stream, seed 29)
        # must not be affected by the executor work.
        result = FinjectCampaign(victims=20).run()
        independent = FinjectCampaign(victims=20, independent_streams=True).run()
        assert result != independent  # different draws by design

    def test_finject_parallel_requires_independent_streams(self):
        with pytest.raises(ConfigurationError, match="independent_streams"):
            FinjectCampaign(victims=4, jobs=2).run()
