"""Adaptive fault-space exploration: spec resolution, CI machinery,
deterministic sampling, stopping, and the scorecard."""

import json
import math
import os
import re
from pathlib import Path

import pytest

from repro.explore import (
    ExploreSpec,
    Explorer,
    build_strata,
    load_explore_file,
    run_explore,
    scorecard,
    scorecard_json,
    wilson_halfwidth,
    wilson_interval,
    z_score,
)
from repro.cli import main
from repro.explore.sampler import required_n
from repro.run.scenario import Scenario
from repro.util.errors import ConfigurationError

REPO = Path(__file__).resolve().parents[1]
BASE = Scenario(ranks=8, app="heat3d", iterations=10)

#: Small but non-degenerate campaign: every kind, 2x2 strata per kind.
SMALL = ExploreSpec(
    scenario=BASE,
    rank_bins=2,
    time_bins=2,
    min_samples=2,
    batch=6,
    max_cells=40,
    ci_width=0.25,
    seed=11,
)


# ----------------------------------------------------------------------
# CI machinery
# ----------------------------------------------------------------------
class TestIntervals:
    def test_z_score_matches_normal_table(self):
        assert z_score(0.95) == pytest.approx(1.959964, abs=1e-5)
        assert z_score(0.99) == pytest.approx(2.575829, abs=1e-5)

    def test_wilson_empty_is_maximally_uncertain(self):
        assert wilson_interval(0, 0, 1.96) == (0.0, 1.0)
        assert wilson_halfwidth(0, 0, 1.96) == 0.5

    def test_wilson_bounds_and_narrowing(self):
        z = z_score(0.95)
        prev = 0.5
        for n in (2, 5, 10, 50, 200):
            lo, hi = wilson_interval(n // 2, n, z)
            assert 0.0 <= lo <= hi <= 1.0
            hw = wilson_halfwidth(n // 2, n, z)
            assert hw < prev
            prev = hw

    def test_wilson_extreme_proportions_stay_in_bounds(self):
        z = z_score(0.95)
        lo, hi = wilson_interval(0, 10, z)
        assert lo == 0.0 and 0.0 < hi < 0.5
        lo, hi = wilson_interval(10, 10, z)
        assert 0.5 < lo < 1.0 and hi == 1.0

    def test_required_n_is_consistent_with_halfwidth(self):
        z = z_score(0.95)
        for p in (0.0, 0.2, 0.5, 1.0):
            n = required_n(p, z, 0.15)
            assert wilson_halfwidth(int(round(p * n)), n, z) <= 0.15
            if n > 1:
                k = int(round(p * (n - 1)))
                assert wilson_halfwidth(k, n - 1, z) > 0.15


# ----------------------------------------------------------------------
# spec validation & resolution
# ----------------------------------------------------------------------
class TestSpec:
    def test_defaults_are_valid(self):
        spec = ExploreSpec()
        assert spec.kinds == ("failstop", "straggler", "link_degrade", "correlated")

    def test_rejects_unknown_kind(self):
        with pytest.raises(ConfigurationError, match="unknown explore kind"):
            ExploreSpec(kinds=("bitflip",))

    def test_rejects_scenario_with_fault_axis_pinned(self):
        with pytest.raises(ConfigurationError, match="must not set failures"):
            ExploreSpec(scenario=Scenario(failures="3@5.0"))
        with pytest.raises(ConfigurationError, match="must not set mttf"):
            ExploreSpec(scenario=Scenario(mttf=1000.0))

    def test_rejects_no_restart_budget(self):
        with pytest.raises(ConfigurationError, match="max_restarts"):
            ExploreSpec(scenario=Scenario(max_restarts=0))

    def test_rejects_more_rank_bins_than_ranks(self):
        with pytest.raises(ConfigurationError, match="rank_bins"):
            ExploreSpec(scenario=Scenario(ranks=4), rank_bins=8)

    def test_rejects_bad_stopping_rule(self):
        with pytest.raises(ConfigurationError, match="ci_width"):
            ExploreSpec(ci_width=0.6)
        with pytest.raises(ConfigurationError, match="confidence"):
            ExploreSpec(confidence=1.5)

    def test_rejects_speedup_factors(self):
        with pytest.raises(ConfigurationError, match="straggler_factor"):
            ExploreSpec(straggler_factor=(0.5, 2.0))

    def test_describe_is_primitive_and_digest_stamped(self):
        d = ExploreSpec(scenario=BASE).describe()
        json.dumps(d)  # must serialize as-is
        assert d["scenario_digest"] == BASE.scenario_digest()
        assert d["kinds"] == list(ExploreSpec().kinds)

    def test_retired_variables_are_refused(self, monkeypatch, capsys):
        """The stopping rule is set by flags and the [explore] table
        only: a variable that once set it is refused by name, before any
        cell runs, not silently ignored."""
        for name, value in (("XSIM_EXPLORE_CI", "0.2"), ("XSIM_EXPLORE_BATCH", "many"),
                            ("XSIM_EXPLORE_MAX_CELLS", "99")):
            monkeypatch.setenv(name, value)
            assert main(["explore", "--ranks", "8"]) == 2
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and err.startswith(f"error: {name} is no longer read")
            monkeypatch.delenv(name)

    def test_load_explore_file(self, tmp_path):
        path = tmp_path / "explore.toml"
        path.write_text(
            "[machine]\nranks = 8\n\n[app]\nname = \"heat3d\"\niterations = 10\n\n"
            "[explore]\nkinds = [\"failstop\", \"straggler\"]\nci_width = 0.2\n"
            "straggler_factor = [2.0, 3.0]\nradii = [0, 1]\n"
        )
        spec = load_explore_file(path, environ={}, use_environment=False)
        assert spec.scenario.ranks == 8
        assert spec.kinds == ("failstop", "straggler")
        assert spec.ci_width == 0.2
        assert spec.straggler_factor == (2.0, 3.0)
        assert spec.radii == (0, 1)

    def test_load_layers_env_and_flags_over_file(self, tmp_path):
        path = tmp_path / "explore.toml"
        path.write_text("[execution]\nshards = 4\n\n[explore]\nci_width = 0.3\nbatch = 4\n")
        spec = load_explore_file(
            path, environ={"XSIM_SHARDS": "2", "XSIM_EXPLORE_CI": "0.2"}, batch=12
        )
        assert spec.scenario.shards == 2  # env beats file (a scenario field)
        assert spec.ci_width == 0.3  # no variable sets an [explore] value
        assert spec.batch == 12  # flag beats file

    def test_worker_count_does_not_change_the_spec(self):
        """A campaign's worker count is no field of its base scenario:
        XSIM_JOBS leaves the spec's description, scenario digest included,
        as it is."""
        path = REPO / "examples" / "explore_reference.toml"
        with_jobs = load_explore_file(path, environ={"XSIM_JOBS": "2"})
        assert with_jobs.describe() == load_explore_file(path, environ={}).describe()

    def test_load_rejects_sweep_table(self, tmp_path):
        path = tmp_path / "explore.toml"
        path.write_text("[sweep]\ninterval = [500, 250]\n\n[explore]\nbatch = 4\n")
        with pytest.raises(ConfigurationError, match="sweep"):
            load_explore_file(path, environ={}, use_environment=False)

    def test_load_rejects_unknown_key(self, tmp_path):
        path = tmp_path / "explore.toml"
        path.write_text("[explore]\nwidth = 0.2\n")
        with pytest.raises(ConfigurationError, match="unknown explore key"):
            load_explore_file(path, environ={}, use_environment=False)


# ----------------------------------------------------------------------
# strata & draws
# ----------------------------------------------------------------------
class TestStrata:
    def test_build_strata_shape(self):
        spec = ExploreSpec(
            scenario=BASE, rank_bins=2, time_bins=2, magnitude_bins=2, radii=(0, 1)
        )
        strata = build_strata(spec, time_hi=100.0)
        # failstop 2x2, correlated 2 radii x 2x2, straggler/link 2 mags x 2x2
        assert len(strata) == 4 + 8 + 8 + 8
        assert [s.index for s in strata] == list(range(len(strata)))
        for s in strata:
            assert 0 <= s.rank_lo < s.rank_hi <= 8
            assert 0.0 <= s.time_lo < s.time_hi <= 100.0

    def test_rank_bins_partition_the_job(self):
        spec = ExploreSpec(scenario=BASE, kinds=("failstop",), rank_bins=3,
                           time_bins=1)
        strata = build_strata(spec, time_hi=100.0)
        covered = sorted(
            r for s in strata for r in range(s.rank_lo, s.rank_hi)
        )
        assert covered == list(range(8))


# ----------------------------------------------------------------------
# the explorer end to end (real simulations, small budget)
# ----------------------------------------------------------------------
class TestExplorerEndToEnd:
    def test_deterministic_scorecard(self):
        r1 = run_explore(SMALL, cache=False)
        r2 = run_explore(SMALL, cache=False)
        assert scorecard_json(r1) == scorecard_json(r2)
        assert r1.spent > 0
        assert r1.stopped in ("ci-target", "max-cells")

    def test_jobs_do_not_change_the_scorecard(self):
        r1 = run_explore(SMALL, cache=False, jobs=1)
        r2 = run_explore(SMALL, cache=False, jobs=3)
        assert scorecard_json(r1) == scorecard_json(r2)

    def test_scorecard_has_no_execution_facts(self):
        result = run_explore(SMALL, cache=False)
        card = scorecard(result)
        text = scorecard_json(result)
        assert "cache" not in text and "saved_s" not in text
        assert card["baseline"]["e1"] > 0
        assert card["budget"]["cells"] == result.spent
        assert len(card["strata"]) == len(result.strata)
        assert {k["kind"] for k in card["kinds"]} == set(SMALL.kinds)

    def test_sampled_cells_respect_stratum_bounds(self):
        explorer = Explorer(SMALL, cache=False)
        result = explorer.run()
        # Every stratum the budget reached got at least min_samples.
        seeded = [s for s in result.strata if s.n > 0]
        assert seeded, "no stratum was sampled"
        assert result.spent == sum(s.n for s in result.strata)

    def test_failstop_and_correlated_report_restart_metrics(self):
        spec = SMALL.with_(kinds=("failstop", "correlated"), max_cells=16)
        card = scorecard(run_explore(spec, cache=False))
        for kind in card["kinds"]:
            assert kind["n"] > 0
            assert kind["impact_p"] == 1.0  # a killed rank always restarts
            assert kind["mttf_samples"] > 0
            assert kind["e2_delta_mean"] > 0.5  # restart re-runs the job


class TestCampaignTraceOut:
    """``explore --trace-out`` exports the campaign's own timeline; its
    cells resolve exactly as they do without it (it used to become every
    cell's ``trace_out``, turning on an observer nothing exported and
    moving the scenario digest and every cache key)."""

    def explore(self, capsys, tmp_path, cache: str, card: str, *extra: str) -> str:
        from repro.cli import main

        assert main([
            "explore", "--scenario", str(REPO / "examples" / "explore_reference.toml"),
            "--max-cells", "32", "--cache", "--cache-dir", str(tmp_path / cache),
            "--out", str(tmp_path / card), *extra,
        ]) == 0
        return capsys.readouterr().out

    def test_same_scorecard_and_every_cell_a_hit_both_ways(self, capsys, tmp_path, monkeypatch):
        for name in [n for n in os.environ if n.startswith("XSIM_")]:
            monkeypatch.delenv(name)
        traced = ("--trace-out", str(tmp_path / "campaign.json"))
        self.explore(capsys, tmp_path, "plain-first", "a.json")
        warm = self.explore(capsys, tmp_path, "plain-first", "b.json", *traced)
        cold = self.explore(capsys, tmp_path, "traced-first", "c.json", *traced)
        again = self.explore(capsys, tmp_path, "traced-first", "d.json")
        assert "cache: 33/33 cells served from cache (100% hit rate)" in warm
        assert "cache: 33/33 cells served from cache (100% hit rate)" in again
        assert "exported 1 events to" in warm and "exported 1 events to" in cold
        cards = {(tmp_path / f).read_bytes() for f in ("a.json", "b.json", "c.json", "d.json")}
        assert len(cards) == 1


class TestReferenceCampaign:
    """``examples/explore_reference.toml`` cold on two workers, then warm
    from the same cache: one scorecard byte for byte, at least 90 % of
    the warm cells served from the cache, and the sampler stops at its
    confidence-interval target (``ci-target``) within half the cells a
    uniform grid sized for the hardest stratum would spend (252 of 580
    now, 0.434)."""

    def test_cold_and_warm_are_one_scorecard_within_half_the_grid(
        self, capsys, tmp_path, monkeypatch
    ):
        for name in [n for n in os.environ if n.startswith("XSIM_") and n != "XSIM_CHECK"]:
            monkeypatch.delenv(name)
        argv = ["explore", "--scenario", str(REPO / "examples" / "explore_reference.toml"),
                "--cache", "--cache-dir", str(tmp_path / "cache"), "-j", "2"]
        cold, warm = tmp_path / "cold.json", tmp_path / "warm.json"
        assert main([*argv, "--out", str(cold)]) == 0
        capsys.readouterr()
        assert main([*argv, "--out", str(warm)]) == 0
        hits, total = map(int, re.search(
            r"^cache: (\d+)/(\d+) cells", capsys.readouterr().out, re.M
        ).groups())
        assert cold.read_bytes() == warm.read_bytes()
        assert hits / total >= 0.90, f"warm hit rate {hits}/{total}"
        budget = json.loads(cold.read_text())["budget"]
        assert budget["stopped"] == "ci-target"
        assert budget["cells_ratio"] <= 0.5, budget


# ----------------------------------------------------------------------
# stopping behavior (synthetic cells: fast, exhaustive)
# ----------------------------------------------------------------------
def _fake_run_cells(scenarios, jobs=1, cache=None):
    """Deterministic synthetic campaign: the baseline completes at 100.0;
    a faulted cell's stretch is a pure hash of its failures string."""
    out = []
    for s in scenarios:
        if not s.failures:
            out.append({"completed": True, "exit_time": 100.0,
                        "result_digest": "base", "mode": "single"})
            continue
        h = hash(s.failures) % 1000 / 1000.0
        out.append({
            "completed": True,
            "exit_time": 100.0 * (1.0 + h),
            "e2": 100.0 * (1.0 + h),
            "result_digest": f"d{h}",
            "mode": "restart",
            "mttf_a": 50.0,
        })
    return out


class TestStoppingMonotone:
    @pytest.fixture(autouse=True)
    def synthetic_cells(self, monkeypatch):
        import repro.explore.sampler as sampler

        monkeypatch.setattr(sampler, "run_cells", _fake_run_cells)

    def _spec(self, ci_width):
        return ExploreSpec(
            scenario=BASE, rank_bins=2, time_bins=2, min_samples=2,
            batch=8, max_cells=400, ci_width=ci_width,
            impact_threshold=0.5, seed=3,
        )

    def test_cells_monotone_in_ci_target(self):
        spent = [run_explore(self._spec(w)).spent for w in (0.30, 0.20, 0.12)]
        assert spent[0] <= spent[1] <= spent[2]
        assert spent[0] < spent[2]  # the tight target really works harder

    def test_trajectory_prefix_identical_across_targets(self):
        # The allocation policy never reads the stopping target, so the
        # looser run's batch sequence is a prefix of the tighter run's.
        loose = run_explore(self._spec(0.30))
        tight = run_explore(self._spec(0.12))
        assert loose.batches == tight.batches[: len(loose.batches)]

    def test_max_cells_is_a_hard_cap(self):
        spec = self._spec(0.01).with_(max_cells=50)
        result = run_explore(spec)
        assert result.stopped == "max-cells"
        assert result.spent <= 50

    def test_grid_equivalent_counts_worst_stratum(self):
        result = run_explore(self._spec(0.30))
        z = result.z
        worst = max(
            required_n((s.impacted / s.n) if s.n else 0.5, z, 0.30)
            for s in result.strata
        )
        assert result.grid_cells == worst * len(result.strata)
        assert result.cells_ratio == result.spent / result.grid_cells
