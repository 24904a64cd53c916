"""Pluggable resilience strategies, head-to-head through every layer.

The strategy registry (``repro.resilience``) must behave like any other
scenario axis: selectable by name, validated eagerly, folded into the
scenario digest, bit-identical across serial and sharded backends, and
with recovery semantics that match the mechanism — replication absorbs
fail-stops with zero restart segments, multi-level checkpointing
recovers at measurably lower E2 than single-level, ``none`` restarts
from scratch.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.restart import RestartDriver
from repro.resilience import STRATEGIES, make_strategy, strategy_names
from repro.run.backends import run_scenario
from repro.run.scenario import Scenario
from repro.run.sweep import parse_set, run_sweep
from repro.util.errors import ConfigurationError

RANKS = 4
ITERATIONS = 40
INTERVAL = 10
FAILURE = "1@120s"

ALL = ("ckpt", "ckpt-multilevel", "replication", "none")


def scenario_for(strategy: str, **overrides) -> Scenario:
    kwargs = dict(
        ranks=RANKS,
        iterations=ITERATIONS,
        interval=INTERVAL,
        failures=FAILURE,
        strategy=strategy,
    )
    kwargs.update(overrides)
    return Scenario(**kwargs)


@pytest.fixture(scope="module")
def faulty_summaries():
    """One failure/restart run per strategy, computed once."""
    return {s: run_scenario(scenario_for(s)).summary() for s in ALL}


# ----------------------------------------------------------------------
# registry & scenario plumbing
# ----------------------------------------------------------------------
class TestRegistry:
    def test_registry_contents(self):
        assert strategy_names() == tuple(sorted(STRATEGIES))
        assert set(ALL) <= set(strategy_names())

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown resilience strategy"):
            Scenario(strategy="raid5")

    def test_unknown_param_rejected(self):
        with pytest.raises(ConfigurationError, match="parameter"):
            Scenario(strategy="ckpt-multilevel", strategy_params=(("tiers", 3),))

    def test_interval_validated(self):
        with pytest.raises(ConfigurationError, match="interval"):
            Scenario(interval=0)

    def test_replication_needs_two_replicas(self):
        with pytest.raises(ConfigurationError):
            Scenario(strategy="replication", strategy_params=(("factor", 1),))

    def test_strategy_in_scenario_digest(self):
        digests = {scenario_for(s).scenario_digest() for s in ALL}
        assert len(digests) == len(ALL)

    def test_toml_subtable_round_trip(self):
        s = Scenario.from_toml(
            "[machine]\nranks = 4\n\n[resilience]\n"
            'strategy = {name = "ckpt-multilevel", k = 2}\n'
        )
        assert s.strategy == "ckpt-multilevel"
        assert s.strategy_params == (("k", 2),)
        back = Scenario.from_toml(s.to_toml())
        assert back == s

    def test_toml_subtable_needs_name(self):
        with pytest.raises(ConfigurationError, match="name"):
            Scenario.from_toml("[resilience]\nstrategy = {k = 2}\n")

    def test_physical_ranks(self):
        assert make_strategy(scenario_for("replication")).physical_ranks(4) == 8
        assert make_strategy(scenario_for("ckpt")).physical_ranks(4) == 4

    def test_env_var_reads_strategy(self):
        from repro.run.envvars import read_environment

        assert read_environment({"XSIM_STRATEGY": "replication"}) == {
            "strategy": "replication"
        }
        with pytest.raises(ConfigurationError, match="XSIM_STRATEGY"):
            read_environment({"XSIM_STRATEGY": "raid5"})

    def test_strategy_params_not_sweepable(self):
        with pytest.raises(ConfigurationError, match="strategy_params"):
            parse_set("strategy_params=1,2")

    def test_strategy_is_sweepable(self):
        name, values = parse_set("strategy=ckpt,none")
        assert name == "strategy" and values == ["ckpt", "none"]


# ----------------------------------------------------------------------
# recovery semantics (the acceptance criteria)
# ----------------------------------------------------------------------
class TestRecoverySemantics:
    def test_all_strategies_complete(self, faulty_summaries):
        for name, summary in faulty_summaries.items():
            assert summary["completed"], name
            assert summary["strategy"] == name
            assert summary["strategy_facts"]["strategy"] == name

    def test_replication_zero_restart_segments(self, faulty_summaries):
        rep = faulty_summaries["replication"]
        assert rep["restarts"] == 0
        assert rep["failures"] == 0  # absorbed, never activated
        assert rep["strategy_facts"]["failovers"] == 1
        assert rep["strategy_facts"]["fatal"] == 0

    def test_multilevel_beats_single_level_e2(self, faulty_summaries):
        assert faulty_summaries["ckpt-multilevel"]["e2"] < faulty_summaries["ckpt"]["e2"]
        assert faulty_summaries["ckpt-multilevel"]["strategy_facts"]["dropped_files"] > 0

    def test_none_restarts_from_scratch(self, faulty_summaries):
        # With no checkpoints the restarted segment replays everything:
        # E2 is the worst of the four.
        worst = max(s["e2"] for s in faulty_summaries.values())
        assert faulty_summaries["none"]["e2"] == worst
        assert faulty_summaries["none"]["restarts"] == 1

    def test_failover_costs_time(self):
        fault_free = run_scenario(
            scenario_for("replication", failures="")
        ).summary()
        faulty = run_scenario(scenario_for("replication")).summary()
        assert faulty["e2"] > fault_free["exit_time"]

    def test_replication_fatal_when_all_replicas_hit(self):
        # Both replicas of logical rank 1 (world ranks 1 and 5 at
        # factor 2 over 4 logical ranks): the second hit is unmasked.
        s = scenario_for("replication", failures="1@120s,5@130s")
        out = run_scenario(s).summary()
        assert out["completed"]
        assert out["restarts"] == 1
        facts = out["strategy_facts"]
        assert facts["failovers"] == 1 and facts["fatal"] == 1

    def test_monitor_carried_across_restart_segments(self):
        # The SDC monitor must accumulate across a fatal-failure restart
        # rather than being recreated per segment.
        driver = RestartDriver.from_scenario(
            scenario_for("replication", failures="1@120s,5@130s")
        )
        result = driver.run()
        assert result.completed and len(result.segments) == 2
        compared = driver.strategy.monitor.messages_compared
        fault_free = RestartDriver.from_scenario(
            scenario_for("replication", failures="")
        )
        fault_free.run()
        # Two segments compare strictly more messages than one clean run.
        assert compared > fault_free.strategy.monitor.messages_compared


# ----------------------------------------------------------------------
# serial vs sharded parity, per strategy
# ----------------------------------------------------------------------
class TestParity:
    @pytest.mark.parametrize("strategy", ALL)
    def test_serial_vs_inline_shards(self, strategy, faulty_summaries):
        sharded = run_scenario(
            scenario_for(strategy, shards=2, shard_transport="inline")
        ).summary()
        assert sharded["result_digest"] == faulty_summaries[strategy]["result_digest"]

    @pytest.mark.parametrize("strategy", ALL)
    def test_serial_vs_shm_shards(self, strategy, faulty_summaries):
        # A single run is never capped, so this exercises real shm
        # workers on any host.
        driver = RestartDriver.from_scenario(
            scenario_for(strategy, shards=2, shard_transport="shm")
        )
        result = driver.run()
        from repro.core.harness.experiment import campaign_digest, result_digest

        assert result.completed
        assert driver.sim.shard_stats.nshards == 2
        assert (
            campaign_digest([result_digest(s.result) for s in result.segments])
            == faulty_summaries[strategy]["result_digest"]
        )

    @given(
        strategy=st.sampled_from(ALL),
        app=st.sampled_from(("heat3d", "cg")),
        seed=st.integers(min_value=0, max_value=3),
    )
    @settings(max_examples=10, deadline=None)
    def test_fault_free_digest_deterministic(self, strategy, app, seed):
        """Property: a fault-free run's digest is a pure function of the
        scenario — repeated runs and inline sharding never perturb it."""
        s = Scenario(
            app=app, ranks=4, iterations=20, interval=10,
            strategy=strategy, seed=seed,
        )
        first = run_scenario(s).summary()["result_digest"]
        again = run_scenario(s).summary()["result_digest"]
        sharded = run_scenario(
            s.with_(shards=2, shard_transport="inline")
        ).summary()["result_digest"]
        assert first == again == sharded


# ----------------------------------------------------------------------
# the head-to-head study table
# ----------------------------------------------------------------------
class TestStudy:
    def test_render_is_deterministic_and_ordered(self):
        from repro.resilience.study import render_strategy_study

        base = scenario_for("ckpt")
        pairs = run_sweep(base, {"strategy": list(ALL)})
        text = render_strategy_study(pairs, axes=("strategy",))
        again = render_strategy_study(
            run_sweep(base, {"strategy": list(ALL)}), axes=("strategy",)
        )
        assert text == again
        lines = text.splitlines()
        assert lines[0].split("|")[0].strip() == "strategy"
        body = [l.split("|")[0].strip() for l in lines[2:]]
        assert body == list(ALL)

    def test_overhead_is_relative_to_none(self):
        from repro.resilience.study import strategy_study_rows

        pairs = run_sweep(scenario_for("ckpt"), {"strategy": ["none"]})
        header, rows = strategy_study_rows(pairs, axes=("strategy",))
        overhead = rows[0][header.index("overhead")]
        assert overhead == "+0.0%"

    def test_sweep_cli_appends_study_table(self, capsys):
        from repro.cli import main

        assert main([
            "sweep", "--app", "heat3d", "--ranks", "4", "--iterations", "20",
            "--interval", "10", "--xsim-failures", "1@40s",
            "--set", "strategy=ckpt,none",
        ]) == 0
        out = capsys.readouterr().out
        assert "strategy head-to-head" in out
        assert "overhead" in out and "E2/E1" in out


# ----------------------------------------------------------------------
# explore integration
# ----------------------------------------------------------------------
class TestExploreStrategies:
    def test_unknown_strategy_rejected(self):
        from repro.explore import ExploreSpec

        with pytest.raises(ConfigurationError, match="unknown explore strategy"):
            ExploreSpec(strategies=("raid5",))

    def test_rollup_runs_one_campaign_per_strategy(self):
        from repro.explore import ExploreSpec, StrategyExploreResult, run_explore
        from repro.explore.report import render_scorecard, scorecard_json

        spec = ExploreSpec(
            scenario=Scenario(app="heat3d", ranks=4, iterations=20, interval=10),
            kinds=("failstop",),
            rank_bins=1,
            time_bins=1,
            min_samples=2,
            batch=2,
            max_cells=2,
            strategies=("ckpt", "none"),
        )
        result = run_explore(spec)
        assert isinstance(result, StrategyExploreResult)
        assert [name for name, _ in result.results] == ["ckpt", "none"]
        assert result.spent == sum(r.spent for _, r in result.results)
        # Identical draws: the sampled fault schedules match per campaign.
        text = render_scorecard(result)
        assert "strategy head-to-head" in text
        assert scorecard_json(result) == scorecard_json(result)
