"""The five workloads.  Each builds its inputs from the seed, runs a
reduced warm-up op (part of set-up), then repeats its op in a closed
loop with one client, checking every output.

Only public entry points are called — ``Scenario``, ``run_scenario``,
``run_explore``, ``ResultCache`` — with the cache passed explicitly
(``False`` or a scratch store) and scenarios built by constructor, so
neither ``XSIM_*`` variables nor the user's cache dir can reach a run.
"""

from __future__ import annotations

import hashlib
import random
import subprocess
import sys
import time
from typing import Any

from repro.cache import ResultCache
from repro.explore import load_explore_file, run_explore, scorecard_json
from repro.run import Scenario, run_scenario

from ledger import probes
from ledger.common import ROOT, Attempt, Recorder, clean_env, remove, scratch_dir

CLI_SPAWNS = 5
#: After each op the one stored outcome is answered again for this long
#: (and at least this often), so the warm samples spread over the whole
#: window instead of sitting in one half second a host hiccup can own.
WARM_SECONDS = 0.15
WARM_LOOKUPS = 3


def cube(n: int) -> int:
    return n ** 3


class WarmAnswers:
    """One computed outcome stored in a scratch cache, then answered
    again and again through a new handle: every answer must be a hit
    and equal the computed summary."""

    def __init__(self, rec: Recorder, scenario: Scenario, computed: Attempt):
        self.root = scratch_dir("cache")
        store = ResultCache(self.root)
        self.stored = rec.spans.call(
            "cache.store", store.store, scenario, computed.value, wall_s=computed.wall
        )
        store.close()
        self.scenario = scenario
        self.cold = computed.value.summary()
        self.cache = ResultCache(self.root)

    def batch(self, rec: Recorder, smoke: bool) -> None:
        floor = 1 if smoke else WARM_LOOKUPS
        until = time.perf_counter() + (0.0 if smoke else WARM_SECONDS)
        lookups = 0
        while lookups < floor or time.perf_counter() < until:
            lookups += 1
            a = rec.attempt("run_scenario.warm", run_scenario, self.scenario, cache=self.cache)
            good = a.ok and self.stored and a.value.metadata.get("cache_hit") is True
            rec.require(a, good, "warm run was not a cache hit")
            if rec.require(a, a.ok and a.value.summary() == self.cold, "warm summary != cold"):
                rec.samples["warm_cells_per_s"].append(1.0 / a.wall)

    def close(self, rec: Recorder) -> None:
        rec.verify("cache hit rate", self.cache.stats.hit_rate == 1.0, "warm hit rate below 1")
        self.cache.close()
        remove(self.root)


class Workload:
    """One workload: inputs, a warm-up, a repeated op, and the probes
    its traced run adds.  ``smoke`` shrinks sizes for the self-tests."""

    name = "?"

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed
        self.smoke = smoke
        self.cli_spawns = 1 if smoke else CLI_SPAWNS
        #: ``(scenario, attempt)`` of the latest good op, for the cache.
        self.computed: tuple[Scenario, Attempt] | None = None
        self.warm_answers: WarmAnswers | None = None

    def warm_up(self) -> None:
        raise NotImplementedError

    def begin(self, rec: Recorder) -> None:
        """Untimed reference ops the checks compare against."""

    def op(self, rec: Recorder) -> None:
        raise NotImplementedError

    def between(self, rec: Recorder) -> None:
        """After each op of the untraced loop (the traced op gets none of
        this): one CLI start and a batch of warm answers, so those
        samples too spread over the window."""
        if self.cli_spawns:
            self.cli_start(rec)
        if self.warm_answers is None and self.computed is not None:
            self.warm_answers = WarmAnswers(rec, *self.computed)
        self.computed = None  # stored now, or not wanted: let the outcome go
        if self.warm_answers is not None:
            self.warm_answers.batch(rec, self.smoke)

    def finish(self, rec: Recorder) -> None:
        """After the timed loop: the CLI starts still owed, and the
        scratch cache closed and removed."""
        while self.cli_spawns:
            self.cli_start(rec)
        if self.warm_answers is not None:
            self.warm_answers.close(rec)
            self.warm_answers = None

    def probes(self, rec: Recorder) -> dict[str, float | None]:
        """Per-layer metrics only this workload's traced run measures;
        ``None`` marks a probe whose option or module is gone."""
        return {}

    def sim_labels(self) -> tuple[str, ...]:
        """The scenarios whose simulated statistics ``sim.*`` sums."""
        return (self.name,)

    # -- shared pieces --------------------------------------------------
    def cli_start(self, rec: Recorder) -> None:
        """``python -m repro.cli --help`` as a fresh process: what a user
        pays before any command does work."""
        self.cli_spawns -= 1
        a = rec.attempt(
            "cli --help", subprocess.run,
            [sys.executable, "-m", "repro.cli", "--help"],
            # No timeout here: with one, subprocess polls the child in
            # steps of up to 50 ms and the sample reads in those steps.
            env=clean_env(), cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        if rec.require(a, a.ok and a.value.returncode == 0, "cli exited non-zero"):
            rec.samples["cli_start_s"].append(a.wall)


class ScenarioWorkload(Workload):
    """Repeats one scenario through ``run_scenario(cache=False)``."""

    main: Scenario
    warm: Scenario

    def warm_up(self) -> None:
        run_scenario(self.warm, cache=False)

    def check(self, rec: Recorder, a: Attempt) -> None:
        """Checks beyond completion and a stable digest."""

    def op(self, rec: Recorder) -> None:
        a = rec.attempt("run_scenario", run_scenario, self.main, cache=False)
        if not a.ok:
            return
        got = rec.facts(a, self.name, a.value)
        self.check(rec, a)
        if a.ok:
            rec.samples["run_s"].append(a.wall)
            rec.samples["run_cpu_s"].append(a.cpu)
            rec.samples["events_per_s"].append(got["events"] / a.wall)
            rec.samples["cells_per_s"].append(1.0 / a.wall)
            self.computed = (self.main, a)


class Heat3dLarge(ScenarioWorkload):
    name = "heat3d_large"

    def __init__(self, seed: int, smoke: bool = False):
        super().__init__(seed, smoke)
        big, small = (cube(4), cube(3)) if smoke else (cube(20), cube(8))
        self.main = Scenario(ranks=big, iterations=1000, interval=500, seed=seed)
        self.small = Scenario(ranks=small, iterations=1000, interval=500, seed=seed)
        self.warm = self.small
        self.small_rate: list[float] = []

    def op(self, rec: Recorder) -> None:
        # The small run rides along interleaved so the big/small rate
        # ratio (pdes.scale_flatness) is taken under one host state.
        a = rec.attempt("run_scenario.small", run_scenario, self.small, cache=False)
        if a.ok:
            got = rec.facts(a, self.name + "/small", a.value)
            if a.ok:
                self.small_rate.append(got["events"] / a.wall)
        super().op(rec)

    def probes(self, rec: Recorder) -> dict[str, float | None]:
        out = probes.engine_and_network(self.smoke)
        big = rec.samples["events_per_s"]
        if big and self.small_rate:
            out["pdes.scale_flatness"] = big[-1] / self.small_rate[-1]
        return out


class CgCollectives(ScenarioWorkload):
    name = "cg_collectives"

    def __init__(self, seed: int, smoke: bool = False):
        super().__init__(seed, smoke)
        ranks, iters = (64, 4) if smoke else (512, 32)
        self.main = Scenario(ranks=ranks, app="cg", iterations=iters, interval=16, seed=seed)
        self.warm = Scenario(ranks=64, app="cg", iterations=4, interval=16, seed=seed)

    def probes(self, rec: Recorder) -> dict[str, float | None]:
        return probes.collectives(64 if self.smoke else 512)


class Sharded4096(ScenarioWorkload):
    """Two shards over the inline transport, checked against a serial
    run.  The shm transport is measured in the traced run only: on this
    commit it fails now and then (``pdes.shmring.canary_fail_share``),
    and an end-to-end workload must be one on which no op fails."""

    name = "sharded_4096"

    def __init__(self, seed: int, smoke: bool = False):
        super().__init__(seed, smoke)
        ranks = cube(4) if smoke else cube(16)
        self.base = dict(
            ranks=ranks, iterations=1000, interval=500, collectives="tree", seed=seed
        )
        self.serial = Scenario(**self.base)
        self.main = Scenario(shards=2, shard_transport="inline", **self.base)
        self.warm = Scenario(
            ranks=cube(4), iterations=1000, interval=500, collectives="tree",
            shards=2, shard_transport="inline", seed=seed,
        )
        self.serial_s: float | None = None

    def begin(self, rec: Recorder) -> None:
        a = rec.attempt("run_scenario.serial", run_scenario, self.serial, cache=False)
        if a.ok:
            # Same label as the sharded runs: a sharded digest that
            # differs from the serial one is "two digests".
            rec.facts(a, self.name, a.value)
            self.serial_s = a.wall

    def check(self, rec: Recorder, a: Attempt) -> None:
        """A sharded op also fails when it silently ran as something
        else: capped shards, a transport fallback."""
        meta = a.value.metadata
        rec.require(a, meta.get("nshards") == 2, f"ran {meta.get('nshards')} shards, not 2")
        rec.require(a, not meta.get("transport_fallback"), "transport fell back")
        rec.require(a, meta.get("shard_transport") == "inline", "ran another transport")

    def probes(self, rec: Recorder) -> dict[str, float | None]:
        inline = rec.samples["run_s"]
        return probes.sharded(
            self.base, rec.sim.get(self.name, {}).get("digest"), self.serial_s,
            inline[-1] if inline else None, self.smoke,
        )


class ResilienceGrid(Workload):
    """The paper's Table II as the surviving code path runs it — four
    fault-free checkpoint intervals, intervals x MTTF under failure —
    plus the four-strategy row, one ``run_scenario`` per cell.

    The failure-draw seed is pinned, not taken from ``--seed``: the
    draws decide how many restarts a pass pays (45 to 98 segments over
    eight seeds, wall +-20 %), which is the input's size, not the
    program's speed.  The seed shuffles the order the cells arrive in.
    """

    name = "resilience_grid"
    INTERVALS = (1000, 500, 250, 125)
    MTTFS = (6000.0, 3000.0, 1500.0)
    STRATEGIES = ("ckpt", "ckpt-multilevel", "replication", "none")
    DRAW_SEED = 1
    WARM = "grid/strategy/ckpt"

    def __init__(self, seed: int, smoke: bool = False):
        super().__init__(seed, smoke)
        self.ranks = cube(3) if smoke else cube(5)
        base = dict(ranks=self.ranks, iterations=1000, seed=self.DRAW_SEED)
        cells = {f"grid/i{i}/clean": Scenario(interval=i, **base) for i in self.INTERVALS}
        for interval in self.INTERVALS[1:]:
            for mttf in self.MTTFS[-1:] if smoke else self.MTTFS:
                cells[f"grid/i{interval}/mttf{mttf:.0f}"] = Scenario(
                    interval=interval, mttf=mttf, **base
                )
        for name in self.STRATEGIES:
            cells[f"grid/strategy/{name}"] = Scenario(
                interval=250, mttf=3000.0, strategy=name, **base
            )
        self.cells = cells
        self.order = list(cells)
        random.Random(seed).shuffle(self.order)
        self.last_pass: dict[str, dict[str, Any]] = {}

    def sim_labels(self) -> tuple[str, ...]:
        return tuple(self.cells)

    def warm_up(self) -> None:
        run_scenario(self.cells[self.WARM], cache=False)

    def op(self, rec: Recorder) -> None:
        wall = cpu = 0.0
        done: dict[str, dict[str, Any]] = {}
        warm_source: Attempt | None = None
        for label in self.order:
            scenario = self.cells[label]
            a = rec.attempt("run_scenario", run_scenario, scenario, cache=False)
            if not a.ok:
                continue
            got = rec.facts(a, label, a.value)
            summary = a.value.summary()
            if summary.get("mttf_a") is not None:
                e2, f = summary["e2"], summary["failures"]
                rec.require(
                    a, abs(summary["mttf_a"] - e2 / (f + 1)) <= 1e-9 * e2,
                    "mttf_a != e2 / (f + 1)",
                )
            if a.ok:
                if label == self.WARM:
                    warm_source = a
                done[label] = dict(got, wall=a.wall)
                wall += a.wall
                cpu += a.cpu
        complete = len(done) == len(self.cells)
        rec.verify("Table II relations", complete and self.relations_hold(done),
                   "a cell failed, E1 not monotone in checkpoint frequency, or E2 < E1")
        if complete:  # a pass with a failed cell gives no sample
            events = sum(d["events"] for d in done.values())
            rec.samples["run_s"].append(wall)
            rec.samples["run_cpu_s"].append(cpu)
            rec.samples["events_per_s"].append(events / wall)
            rec.samples["cells_per_s"].append(len(done) / wall)
            self.last_pass = done
            # A restart-mode outcome (segments and all), not a single run.
            self.computed = (self.cells[self.WARM], warm_source)

    def relations_hold(self, done: dict[str, dict[str, Any]]) -> bool:
        """Fault-free E1 grows with checkpoint frequency; a run under
        failure is never shorter than its fault-free run."""
        clean = [done[f"grid/i{i}/clean"]["e1"] for i in self.INTERVALS]
        slower = all(
            done[label]["e1"] >= done[f"grid/i{self.cells[label].interval}/clean"]["e1"]
            for label in done if "/mttf" in label
        )
        return clean == sorted(clean) and slower

    def probes(self, rec: Recorder) -> dict[str, float | None]:
        out = probes.checkpoint_and_overheads(self.ranks)
        done = self.last_pass
        if done:
            out["core.restart.segments"] = sum(d["segments"] for d in done.values())
            out["sim.failures"] = sum(d["failures"] for d in done.values())
            for name in self.STRATEGIES:
                out[f"resilience.{name}.cell_s"] = done[f"grid/strategy/{name}"]["wall"]
        return out


class ExploreCampaign(Workload):
    """The reference exploration, cold into a fresh cache then warm from
    a new handle, with the spec seed moving every round.  ``max_cells``
    stops every campaign at the same size (the file's CI target ends
    anywhere from 252 to 284 cells depending on the seed), so a round
    costs the same work whatever the seed."""

    name = "explore_campaign"
    SPEC_FILE = ROOT / "examples" / "explore_reference.toml"
    WARM_PASSES = 5
    BASE_RUNS = 3

    def __init__(self, seed: int, smoke: bool = False):
        super().__init__(seed, smoke)
        self.max_cells = 24 if smoke else 192
        self.round = 0
        self.spec = self.load(0)
        self.last_result: Any = None
        self.last_cache_stats: dict[str, Any] = {}

    def sim_labels(self) -> tuple[str, ...]:
        return (self.name + "/base",)

    def load(self, k: int):
        return load_explore_file(
            self.SPEC_FILE, use_environment=False,
            seed=self.seed + k, max_cells=self.max_cells,
        )

    def warm_up(self) -> None:
        run_scenario(self.spec.scenario, cache=False)

    def op(self, rec: Recorder) -> None:
        k = self.round
        self.round += 1
        spec = rec.spans.call("load_explore_file", self.load, k)
        root = scratch_dir("explore")
        try:
            store = ResultCache(root)
            cold = rec.attempt("run_explore.cold", run_explore, spec, cache=store, jobs=1)
            store.close()
            if not cold.ok:
                return
            cells = cold.value.spent + 1  # the fault-free baseline is a cell too
            card = scorecard_json(cold.value)
            rec.sim.setdefault(
                f"explore/seed{spec.seed}",
                {"events": cells, "e1": cold.value.e1,
                 "digest": hashlib.sha256(card.encode()).hexdigest()[:16]},
            )
            rec.require(cold, cold.value.cache_hits == 0, "cold campaign hit the cache")
            if rec.require(cold, cold.value.spent == self.max_cells, "campaign stopped early"):
                rec.samples["run_s"].append(cold.wall)
                rec.samples["run_cpu_s"].append(cold.cpu)
                rec.samples["cells_per_s"].append(cells / cold.wall)
            warm_store = ResultCache(root)
            for _ in range(1 if self.smoke else self.WARM_PASSES):
                warm = rec.attempt("run_explore.warm", run_explore, spec, cache=warm_store, jobs=1)
                if not warm.ok:
                    continue
                rec.require(warm, warm.value.cache_hits == cells, "warm campaign missed the cache")
                if rec.require(warm, scorecard_json(warm.value) == card, "warm scorecard != cold"):
                    rec.samples["warm_cells_per_s"].append(cells / warm.wall)
            rec.verify("cache hit rate", warm_store.stats.hit_rate == 1.0, "warm hit rate below 1")
            self.last_cache_stats = warm_store.stats.as_record()
            warm_store.close()
            self.last_result = cold.value
        finally:
            remove(root)
        # The campaign's cells report no event counts, so the event rate
        # is taken on its base scenario run directly: 8 ranks x 20
        # iterations, where per-run overhead is most of the time.
        for _ in range(self.BASE_RUNS):
            a = rec.attempt("run_scenario.base", run_scenario, spec.scenario, cache=False)
            if a.ok:
                got = rec.facts(a, self.name + "/base", a.value)
                if a.ok:
                    rec.samples["events_per_s"].append(got["events"] / a.wall)

    def probes(self, rec: Recorder) -> dict[str, float | None]:
        out = probes.scenario_and_cache(self.spec.scenario, self.smoke)
        out["cache.store.hit_rate"] = self.last_cache_stats.get("hit_rate")
        if self.last_result is not None:
            out["explore.sampler.cells"] = self.last_result.spent
            out["explore.sampler.cells_ratio"] = self.last_result.cells_ratio
        return out


ALL = {w.name: w for w in (Heat3dLarge, CgCollectives, ResilienceGrid, ExploreCampaign, Sharded4096)}
