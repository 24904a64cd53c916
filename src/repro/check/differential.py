"""Differential determinism harness (simcheck).

The paper's central repeatability claim — "the experiments are repeatable
as the simulator and the application are deterministic" — is only as good
as the equivalences the implementation promises.  This harness runs the
same workload down pairs of execution paths that must agree and asserts
they do, bit-for-bit where the promise is bit-identity:

* **rerun** — the same configuration twice: identical result digest.
* **coalescing** — advance coalescing on vs. off: the inline resume is
  documented as result- and count-identical to the heap path.
* **trace replay** — record the full dispatch trace of a failure run,
  rerun, and diff: zero divergence (first divergence reported otherwise).
* **campaign parallelism** — Finject with independent streams, serial vs.
  a 4-worker pool: identical campaign digest.
* **collectives** — analytic vs. event-level (linear) collectives: each
  mode is bit-identical to itself across reruns, and the modes agree
  semantically (same completion, same failures) with exit times within a
  small tolerance — the analytic model is a ~1%-accurate closed form of
  the linear schedule, so cross-mode bit-identity is not promised.
* **sharded parity** — the conservative-parallel engine vs. serial on a
  failure run: identical per-rank traces and result digests.
* **obs parity** — the :mod:`repro.obs` timeline export of a failure run,
  serial vs. sharded: byte-identical Chrome-JSON and JSONL files.
* **scenario parity** — one :class:`~repro.run.scenario.Scenario` through
  the full TOML round trip and every backend: identical
  scenario digests and identical result digests.
* **cache parity** — a :mod:`repro.cache` hit vs. recomputation: identical
  result digest, summary, and obs export bytes on a cold/warm pair, with
  serial-computed entries serving sharded requests and vice versa.

:func:`run_all` executes every check and (optionally) writes failure
artifacts — traces, digests, divergence reports — into a directory for CI
to upload.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.check.trace import EventTrace
from repro.util.errors import ConfigurationError, InvariantViolation


@dataclass
class CheckResult:
    """Outcome of one differential check."""

    name: str
    passed: bool
    detail: str
    #: Artifact file name -> contents, written out by :func:`run_all` when
    #: an artifacts directory is given and the check failed.
    artifacts: dict[str, str] = field(default_factory=dict)

    def __str__(self) -> str:
        mark = "ok  " if self.passed else "FAIL"
        return f"[{mark}] {self.name}: {self.detail}"


# ----------------------------------------------------------------------
# workload helpers
# ----------------------------------------------------------------------
def _heat_sim(
    nranks: int,
    iterations: int,
    checkpoint_interval: int,
    seed: int = 0,
    failure: tuple[int, float] | None = None,
    paper_timing: bool = False,
    **xsim_kwargs,
):
    """One small heat3d run; returns ``(sim, result)``.

    ``paper_timing`` selects the paper's timing parameters (nonzero
    per-message software overheads) instead of the fast zeroed test
    system — required by checks whose promise depends on the model
    serializing same-instant activity across ranks (sharded parity).
    """
    from repro.apps.heat3d import HeatConfig, heat3d
    from repro.core.checkpoint.store import CheckpointStore
    from repro.core.harness.config import SystemConfig
    from repro.core.simulator import XSim

    if paper_timing:
        system = SystemConfig.paper_system(nranks=nranks)
    else:
        system = SystemConfig.small_test_system(nranks=nranks)
    workload = HeatConfig.paper_workload(
        checkpoint_interval=checkpoint_interval, nranks=nranks, iterations=iterations
    )
    sim = XSim(system, seed=seed, **xsim_kwargs)
    if failure is not None:
        sim.inject_failure(*failure)
    result = sim.run(heat3d, args=(workload, CheckpointStore()))
    return sim, result


def _heat_failure_point(nranks: int, iterations: int, interval: int) -> tuple[int, float]:
    """A mid-run failure (rank, time) for the given workload: measured as
    a fraction of the clean run's exit time, so the choice tracks the
    timing model instead of hard-coding a virtual time."""
    _, clean = _heat_sim(nranks, iterations, interval)
    return (nranks // 3, 0.4 * clean.exit_time)


# ----------------------------------------------------------------------
# individual checks
# ----------------------------------------------------------------------
def check_rerun(nranks: int = 8, iterations: int = 40) -> CheckResult:
    """The same configuration twice must digest identically."""
    from repro.core.harness.experiment import result_digest

    digests = [
        result_digest(_heat_sim(nranks, iterations, 10, check=True)[1]) for _ in range(2)
    ]
    passed = digests[0] == digests[1]
    return CheckResult(
        "rerun",
        passed,
        f"digest {digests[0][:16]} == {digests[1][:16]}"
        if passed
        else f"digests differ: {digests[0]} vs {digests[1]}",
    )


def check_coalescing(nranks: int = 8, iterations: int = 40) -> CheckResult:
    """Advance coalescing on vs. off: bit-identical results and counts."""
    from repro.core.harness.experiment import result_digest

    _, on = _heat_sim(nranks, iterations, 10, check=True, coalesce_advances=True)
    _, off = _heat_sim(nranks, iterations, 10, check=True, coalesce_advances=False)
    d_on, d_off = result_digest(on), result_digest(off)
    if d_on != d_off:
        return CheckResult(
            "coalescing",
            False,
            f"coalesced digest {d_on} != heap-path digest {d_off}",
            artifacts={"coalescing-digests.txt": f"on  {d_on}\noff {d_off}\n"},
        )
    return CheckResult(
        "coalescing",
        True,
        f"digest {d_on[:16]} identical ({on.event_count} events either path)",
    )


def check_trace_replay(nranks: int = 64, iterations: int = 20) -> CheckResult:
    """Record -> replay of a failure run must diff with zero divergence."""
    import os
    import tempfile

    failure = _heat_failure_point(nranks, iterations, 10)
    sim1, res1 = _heat_sim(
        nranks, iterations, 10, failure=failure, check=True, record_events=True
    )
    sim2, res2 = _heat_sim(
        nranks, iterations, 10, failure=failure, check=True, record_events=True
    )
    with tempfile.TemporaryDirectory() as tmp:  # exercise save/load round-trip
        path = os.path.join(tmp, "trace.txt")
        sim1.event_trace.save(path)
        recorded = EventTrace.load(path)
    divergence = recorded.diff(sim2.event_trace)
    if divergence is not None:
        return CheckResult(
            "trace-replay",
            False,
            f"first divergence at event {divergence.index}",
            artifacts={
                "trace-divergence.txt": divergence.report(),
                "trace-digests.txt": (
                    f"recorded {sim1.event_trace.digest()}\n"
                    f"replayed {sim2.event_trace.digest()}\n"
                ),
            },
        )
    if not res1.failures or res1.failures != res2.failures:
        return CheckResult(
            "trace-replay",
            False,
            f"injected failure did not reproduce: {res1.failures} vs {res2.failures}",
        )
    return CheckResult(
        "trace-replay",
        True,
        f"{len(recorded)} events, {nranks} ranks, 1 injected failure, 0 divergences",
    )


def check_campaign_parallel(jobs: int = 4, victims: int = 16) -> CheckResult:
    """Finject (independent streams): serial vs. ``jobs``-worker pool."""
    from repro.core.faults.finject import FinjectCampaign
    from repro.core.harness.experiment import campaign_digest

    def run(n_jobs: int) -> str:
        campaign = FinjectCampaign(
            victims=victims, independent_streams=True, jobs=n_jobs
        )
        r = campaign.run()
        return campaign_digest(
            [list(r.injections_to_failure), r.censored, r.sdc_hits, r.benign_hits]
        )

    serial, pooled = run(1), run(jobs)
    passed = serial == pooled
    return CheckResult(
        "campaign-parallel",
        passed,
        f"serial == -j {jobs} ({serial[:16]})"
        if passed
        else f"serial {serial} != -j {jobs} {pooled}",
    )


def check_collectives(
    nranks: int = 8, iterations: int = 30, tolerance: float = 0.05
) -> CheckResult:
    """Analytic vs. event-level collectives: within-mode bit-identity,
    cross-mode semantic agreement (exit time within ``tolerance``)."""
    from repro.apps.heat3d import HeatConfig, heat3d
    from repro.core.checkpoint.store import CheckpointStore
    from repro.core.harness.config import SystemConfig
    from repro.core.harness.experiment import result_digest
    from repro.core.simulator import XSim

    workload = HeatConfig.paper_workload(
        checkpoint_interval=10, nranks=nranks, iterations=iterations
    )

    def run(algo: str):
        system = SystemConfig.small_test_system(
            nranks=nranks, collective_algorithm=algo
        )
        sim = XSim(system, check=True)
        return sim.run(heat3d, args=(workload, CheckpointStore()))

    results = {algo: (run(algo), run(algo)) for algo in ("linear", "analytic")}
    for algo, (a, b) in results.items():
        if result_digest(a) != result_digest(b):
            return CheckResult(
                "collectives", False, f"{algo} collectives not deterministic"
            )
    lin, ana = results["linear"][0], results["analytic"][0]
    if lin.completed != ana.completed or lin.failures != ana.failures:
        return CheckResult(
            "collectives",
            False,
            f"modes disagree semantically: completed {lin.completed}/{ana.completed}, "
            f"failures {lin.failures}/{ana.failures}",
        )
    lo, hi = sorted((lin.exit_time, ana.exit_time))
    rel = (hi - lo) / hi if hi > 0 else 0.0
    if rel > tolerance:
        return CheckResult(
            "collectives",
            False,
            f"exit times diverge by {rel:.2%} (> {tolerance:.0%}): "
            f"linear {lin.exit_time} vs analytic {ana.exit_time}",
        )
    return CheckResult(
        "collectives",
        True,
        f"both modes deterministic; exit times agree within {rel:.2%}",
    )


def check_sharded_parity(
    nranks: int = 64, iterations: int = 20, shards: int = 4
) -> CheckResult:
    """Serial vs sharded engine on a failure run: identical per-rank trace.

    The sharded conservative-parallel engine (:mod:`repro.pdes.sharded`)
    promises bit-identical *per-rank* event sequences (global interleaving
    and seq numbers legitimately differ across shards — see
    :meth:`~repro.check.trace.EventTrace.rank_projection`).  Checks the
    in-process transport's trace projection against serial, then the
    forked-worker transport's result digest, both with a mid-run injected
    failure so the resilience envelope path (failure broadcast, detection,
    abort) is exercised.

    Runs under the paper's timing model: its nonzero per-message software
    overheads serialize same-instant activity at a rank, which is part of
    the parity contract — with a zero-overhead model, every rank resumes
    at the *same* virtual instant and the serial engine's ordering among
    those simultaneous events is emergent global heap-insertion history
    that no shard-local protocol can reproduce (see
    ``docs/INTERNALS.md``, "Sharded engine & conservative windows").
    """
    from repro.core.harness.experiment import result_digest

    _, clean = _heat_sim(nranks, iterations, 10, paper_timing=True)
    failure = (nranks // 3, 0.4 * clean.exit_time)
    serial_sim, serial = _heat_sim(
        nranks,
        iterations,
        10,
        failure=failure,
        check=True,
        record_events=True,
        paper_timing=True,
    )
    sharded_sim, sharded = _heat_sim(
        nranks,
        iterations,
        10,
        failure=failure,
        record_events=True,
        shards=shards,
        shard_transport="inline",
        paper_timing=True,
    )
    divergence = serial_sim.event_trace.diff_ranks(sharded_sim.event_trace)
    if divergence is not None:
        return CheckResult(
            "sharded-parity",
            False,
            "per-rank trace diverges from serial (inline transport)",
            artifacts={
                "sharded-divergence.txt": divergence,
                "sharded-digests.txt": (
                    f"serial  {result_digest(serial)}\n"
                    f"sharded {result_digest(sharded)}\n"
                ),
            },
        )
    d_serial, d_sharded = result_digest(serial), result_digest(sharded)
    if d_serial != d_sharded:
        return CheckResult(
            "sharded-parity",
            False,
            f"inline-shard digest {d_sharded} != serial {d_serial}",
        )
    _, forked = _heat_sim(
        nranks,
        iterations,
        10,
        failure=failure,
        shards=shards,
        shard_transport="fork",
        paper_timing=True,
    )
    d_forked = result_digest(forked)
    if d_forked != d_serial:
        return CheckResult(
            "sharded-parity",
            False,
            f"fork-shard digest {d_forked} != serial {d_serial}",
        )
    _, shm = _heat_sim(
        nranks,
        iterations,
        10,
        failure=failure,
        shards=shards,
        shard_transport="shm",
        paper_timing=True,
    )
    d_shm = result_digest(shm)
    if d_shm != d_serial:
        return CheckResult(
            "sharded-parity",
            False,
            f"shm-shard digest {d_shm} != serial {d_serial}",
        )
    return CheckResult(
        "sharded-parity",
        True,
        f"{shards} shards == serial at {nranks} ranks with injected failure "
        f"({serial.event_count} events; inline trace + fork/shm digests)",
    )


def check_obs_parity(
    nranks: int = 16, iterations: int = 10, shards: int = 2
) -> CheckResult:
    """Serial vs sharded observability export: byte-identical files.

    The :mod:`repro.obs` exporters promise that the *exported bytes* of a
    sim-domain timeline — Chrome trace-event JSON and JSONL alike — are a
    pure function of the run, independent of the shard count or the order
    worker reports arrive in (canonical sort + canonical JSON encoding).
    Runs a failure workload at ``trace_detail`` so the resilience track
    (inject, notify, detect, abort), the wait spans and the ``msg:post``
    / ``msg:deliver`` / ``msg:drop`` instants are all part of the
    compared payload, under the paper timing model for the same reason
    as ``check_sharded_parity``.
    """
    from repro.obs import to_chrome, to_jsonl

    _, clean = _heat_sim(nranks, iterations, 5, paper_timing=True)
    failure = (nranks // 3, 0.4 * clean.exit_time)
    serial_sim, serial = _heat_sim(
        nranks, iterations, 5, failure=failure, paper_timing=True, observe=True,
        trace_detail=True,
    )
    sharded_sim, sharded = _heat_sim(
        nranks,
        iterations,
        5,
        failure=failure,
        paper_timing=True,
        observe=True,
        trace_detail=True,
        shards=shards,
        shard_transport="inline",
    )
    chrome_s, chrome_p = to_chrome(serial_sim.observer), to_chrome(sharded_sim.observer)
    jsonl_s, jsonl_p = to_jsonl(serial_sim.observer), to_jsonl(sharded_sim.observer)
    if chrome_s != chrome_p or jsonl_s != jsonl_p:
        which = "chrome" if chrome_s != chrome_p else "jsonl"
        return CheckResult(
            "obs-parity",
            False,
            f"{which} export differs between serial and {shards}-shard runs",
            artifacts={
                "obs-serial.json": chrome_s,
                "obs-sharded.json": chrome_p,
                "obs-serial.jsonl": jsonl_s,
                "obs-sharded.jsonl": jsonl_p,
            },
        )
    if serial.exit_time != sharded.exit_time:
        return CheckResult(
            "obs-parity",
            False,
            f"exit times differ under observation: "
            f"serial {serial.exit_time} vs sharded {sharded.exit_time}",
        )
    n = len(serial_sim.observer.sim_events())
    names = {e.name for e in serial_sim.observer.events}
    missing = {"inject", "wait", "msg:post", "msg:deliver", "msg:drop"} - names
    if missing:
        return CheckResult(
            "obs-parity", False, f"failure run recorded no {sorted(missing)} events"
        )
    return CheckResult(
        "obs-parity",
        True,
        f"{shards}-shard export byte-identical to serial "
        f"({n} sim events, chrome + jsonl)",
    )


def check_scenario_parity(
    nranks: int = 16, iterations: int = 20, shards: int = 2
) -> CheckResult:
    """One scenario, every backend, plus the TOML round trip.

    The :mod:`repro.run` layer promises that a scenario is a complete
    description of a run: serializing it to TOML and back must preserve
    the scenario digest, and executing it on every backend of
    ``BACKEND_TRANSPORTS`` must produce the same result digest.  Uses a
    failure run (explicit schedule) so the restart loop is part of the
    compared behavior.
    """
    from repro.run.backends import run_scenario
    from repro.run.scenario import BACKEND_TRANSPORTS, Scenario

    _, clean = _heat_sim(nranks, iterations, 10, paper_timing=True)
    base = Scenario(
        ranks=nranks,
        iterations=iterations,
        interval=10,
        failures=f"{nranks // 3}@{0.4 * clean.exit_time}s",
    )
    round_tripped = Scenario.from_toml(base.to_toml())
    if round_tripped.scenario_digest() != base.scenario_digest():
        return CheckResult(
            "scenario-parity",
            False,
            "TOML round trip changed the scenario digest",
            artifacts={"scenario.toml": base.to_toml()},
        )
    digests: dict[str, str] = {}
    for name, transport in BACKEND_TRANSPORTS.items():
        scenario = round_tripped.with_(
            shards=1 if transport is None else shards, shard_transport=transport
        )
        digests[name] = run_scenario(scenario).digest()
    if len(set(digests.values())) != 1:
        return CheckResult(
            "scenario-parity",
            False,
            "backends disagree: "
            + ", ".join(f"{n} {d[:16]}" for n, d in digests.items()),
            artifacts={
                "scenario-digests.txt": "".join(
                    f"{n} {d}\n" for n, d in digests.items()
                )
            },
        )
    return CheckResult(
        "scenario-parity",
        True,
        f"{len(digests)} backends agree on digest "
        f"{next(iter(digests.values()))[:16]} (restart run, TOML round trip)",
    )


def check_cache_parity(
    nranks: int = 16, iterations: int = 20, shards: int = 2
) -> CheckResult:
    """A result-cache hit must be bit-identical to recomputation.

    The content-addressed store (:mod:`repro.cache`) promises that a warm
    lookup is observationally indistinguishable from running the
    scenario: same result digest, same summary, byte-identical
    :mod:`repro.obs` exports.  Checks, on an observed failure + restart
    scenario:

    * cold compute-and-store, then warm lookup — digest, summary, and
      Chrome-JSON/JSONL export bytes all equal, the digest re-derived
      from the decoded body equal to the blob head's and the index
      row's, and the store's counters read exactly one miss, one store,
      one hit;
    * the same cell requested on a ``shards``-shard backend — the key
      normalizes execution parallelism away, so the serial-computed entry
      must hit and serve the identical digest;
    * the reverse direction in a fresh cache — sharded-cold, serial-warm.
    """
    import tempfile

    from repro.cache.store import ResultCache, cache_key
    from repro.obs import to_chrome, to_jsonl
    from repro.run.backends import run_scenario
    from repro.run.scenario import Scenario

    _, clean = _heat_sim(nranks, iterations, 10, paper_timing=True)
    base = Scenario(
        ranks=nranks,
        iterations=iterations,
        interval=10,
        failures=f"{nranks // 3}@{0.4 * clean.exit_time}s",
        observe=True,
    )
    sharded = base.with_(shards=shards, shard_transport="inline")
    if cache_key(sharded) != cache_key(base):
        return CheckResult(
            "cache-parity",
            False,
            "cache key differs between serial and sharded requests for one cell",
        )
    with tempfile.TemporaryDirectory() as tmp:
        store = ResultCache(tmp)
        cold = run_scenario(base, cache=store)
        warm = run_scenario(base, cache=store)
        if cold.metadata.get("cache_hit") or not warm.metadata.get("cache_hit"):
            return CheckResult(
                "cache-parity",
                False,
                f"hit flags wrong: cold {cold.metadata.get('cache_hit')}, "
                f"warm {warm.metadata.get('cache_hit')}",
            )
        if cold.digest() != warm.digest() or cold.summary() != warm.summary():
            return CheckResult(
                "cache-parity",
                False,
                f"warm hit differs from cold compute: digest "
                f"{cold.digest()[:16]} vs {warm.digest()[:16]}",
                artifacts={
                    "cache-summaries.txt": f"cold {cold.summary()}\nwarm {warm.summary()}\n"
                },
            )
        # The hit path trusts the blob's raw hash and its head; verify
        # re-derives the digest (and facts) from the decoded body and
        # holds them against the head's and the index row's.
        damaged = store.verify()
        if damaged:
            return CheckResult(
                "cache-parity",
                False,
                f"re-derived digest, head and index disagree: {damaged[0].problem}",
            )
        chrome_c, chrome_w = to_chrome(cold.observer), to_chrome(warm.observer)
        jsonl_c, jsonl_w = to_jsonl(cold.observer), to_jsonl(warm.observer)
        if chrome_c != chrome_w or jsonl_c != jsonl_w:
            which = "chrome" if chrome_c != chrome_w else "jsonl"
            return CheckResult(
                "cache-parity",
                False,
                f"{which} export differs between cold compute and warm hit",
                artifacts={
                    "cache-obs-cold.json": chrome_c,
                    "cache-obs-warm.json": chrome_w,
                },
            )
        st = store.stats
        if (st.hits, st.misses, st.stores, st.corrupt) != (1, 1, 1, 0):
            return CheckResult(
                "cache-parity",
                False,
                f"unexpected counters after cold+warm: {st.as_record()}",
            )
        warm_sharded = run_scenario(sharded, cache=store)
        if not warm_sharded.metadata.get("cache_hit") or (
            warm_sharded.digest() != cold.digest()
        ):
            return CheckResult(
                "cache-parity",
                False,
                f"serial-computed entry did not serve the {shards}-shard request "
                f"(hit={warm_sharded.metadata.get('cache_hit')}, digest "
                f"{warm_sharded.digest()[:16]} vs {cold.digest()[:16]})",
            )
    with tempfile.TemporaryDirectory() as tmp:
        store = ResultCache(tmp)
        cold_sharded = run_scenario(sharded, cache=store)
        warm_serial = run_scenario(base, cache=store)
        if not warm_serial.metadata.get("cache_hit") or (
            warm_serial.digest() != cold_sharded.digest()
        ):
            return CheckResult(
                "cache-parity",
                False,
                f"sharded-computed entry did not serve the serial request "
                f"(hit={warm_serial.metadata.get('cache_hit')}, digest "
                f"{warm_serial.digest()[:16]} vs {cold_sharded.digest()[:16]})",
            )
    return CheckResult(
        "cache-parity",
        True,
        f"warm hits bit-identical to cold computes at {nranks} ranks "
        f"(restart run; digest, summary, obs bytes; serial<->{shards}-shard "
        "sharing both directions)",
    )


# ----------------------------------------------------------------------
# driver
# ----------------------------------------------------------------------
def run_all(
    jobs: int = 4, artifacts_dir: str | None = None, only: str | None = None
) -> list[CheckResult]:
    """Run every differential check; write failure artifacts if asked.

    ``only`` restricts the run to a single named check (e.g. a dedicated
    CI job running just ``"sharded-parity"``).

    An :class:`~repro.util.errors.InvariantViolation` raised *inside* a
    check (every check runs with the sanitizer enabled) is itself a
    failure of that check, reported with its structured dump attached.
    """
    import json
    import os

    jobs = max(jobs, 2)  # pool-vs-serial checks need an actual pool
    checks = {
        "rerun": check_rerun,
        "coalescing": check_coalescing,
        "trace-replay": check_trace_replay,
        "campaign-parallel": lambda: check_campaign_parallel(jobs=jobs),
        "collectives": check_collectives,
        "sharded-parity": check_sharded_parity,
        "obs-parity": check_obs_parity,
        "scenario-parity": check_scenario_parity,
        "cache-parity": check_cache_parity,
    }
    if only is not None:
        if only not in checks:
            raise ConfigurationError(
                f"unknown check {only!r}; one of {', '.join(checks)}"
            )
        checks = {only: checks[only]}
    results: list[CheckResult] = []
    for name, fn in checks.items():
        try:
            results.append(fn())
        except InvariantViolation as violation:
            results.append(
                CheckResult(
                    name,
                    False,
                    f"invariant violation: {violation}",
                    artifacts={
                        f"{name}-violation.json": json.dumps(
                            {
                                "invariant": violation.invariant,
                                "detail": violation.detail,
                                "dump": violation.dump,
                            },
                            indent=2,
                            default=str,
                        )
                    },
                )
            )
    if artifacts_dir is not None:
        failed = [r for r in results if not r.passed]
        if failed:
            os.makedirs(artifacts_dir, exist_ok=True)
            for r in failed:
                for fname, contents in r.artifacts.items():
                    with open(os.path.join(artifacts_dir, fname), "w") as fh:
                        fh.write(contents)
            with open(os.path.join(artifacts_dir, "summary.txt"), "w") as fh:
                fh.write("\n".join(str(r) for r in results) + "\n")
    return results
