"""Isolation probes: one layer at a time through its public functions,
untraced, smallest of three readings.

A probe whose option or module is gone (the flat core, the fork
transport) returns ``None`` for its metric — the report prints
``skipped`` — instead of failing the run.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import time
from typing import Any, Callable

from repro.cache import ResultCache, cache_key
from repro.core.checkpoint.store import CheckpointStore
from repro.core.faults.schedule import FailureSchedule
from repro.core.harness.config import SystemConfig
from repro.core.simulator import XSim
from repro.pdes.engine import Engine
from repro.run import Scenario, run_scenario
from repro.run.sweep import run_cells
from repro.util.errors import ConfigurationError

from ledger.common import ROOT, clean_env, remove, scratch_dir

Metrics = dict[str, "float | None"]


def clock(fn: Callable[[], Any]) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def best_of(fn: Callable[[], float], reps: int = 3) -> float:
    """Smallest of ``reps`` readings of a probe that times itself."""
    return min(fn() for _ in range(reps))


def quickest(fn: Callable[[], Any]) -> float:
    """Smallest wall time of three calls of ``fn``."""
    return best_of(lambda: clock(fn))


# ----------------------------------------------------------------------
# heat3d_large: event core, VP resume, pt2pt, network model
# ----------------------------------------------------------------------
def _dispatch_ns(engine_cls: type, n: int) -> float:
    """``n`` null events through ``schedule`` + ``run``."""
    def once() -> float:
        engine = engine_cls()
        def null() -> None:
            pass
        t0 = time.perf_counter()
        for i in range(n):
            engine.schedule(float(i), null)
        engine.run()
        return time.perf_counter() - t0

    return best_of(once) / n * 1e9


def _compute_only(mpi, steps: int):
    yield from mpi.init()
    for _ in range(steps):
        yield from mpi.compute(1e-3)
    yield from mpi.finalize()


def _ping_pong(mpi, rounds: int):
    yield from mpi.init()
    peer = 1 - mpi.rank
    for _ in range(rounds):
        if mpi.rank == 0:
            yield from mpi.send(peer, nbytes=8)
            yield from mpi.recv(peer)
        else:
            yield from mpi.recv(peer)
            yield from mpi.send(peer, nbytes=8)
    yield from mpi.finalize()


def engine_and_network(smoke: bool) -> Metrics:
    scale = 20 if smoke else 1
    out: Metrics = {}
    n = 200_000 // scale
    out["pdes.engine.dispatch_ns"] = _dispatch_ns(Engine, n)
    try:
        from repro.pdes.flatcore import flat_engine_class

        out["pdes.flatcore.dispatch_ns"] = _dispatch_ns(flat_engine_class(windowed=False), n)
    except ImportError:
        out["pdes.flatcore.dispatch_ns"] = None

    vps, steps = 4096 // scale, 20
    out["pdes.context.resume_ns"] = quickest(
        lambda: XSim(SystemConfig.small_test_system(nranks=vps)).run(_compute_only, args=(steps,))
    ) / (vps * steps) * 1e9

    rounds = 10_000 // scale
    out["mpi.world.pt2pt_us"] = quickest(
        lambda: XSim(SystemConfig.small_test_system(nranks=2)).run(_ping_pong, args=(rounds,))
    ) / (2 * rounds) * 1e6

    calls = 200_000 // scale
    rng = random.Random(0)
    pairs = [(rng.randrange(4096), rng.randrange(4096)) for _ in range(calls)]
    for kind in ("torus", "mesh", "fattree"):
        net = SystemConfig.paper_system(nranks=4096, topology_kind=kind).make_network()
        def hops(net=net) -> None:
            for a, b in pairs:
                net.hops(a, b)
        out[f"models.network.hops_ns.{kind}"] = quickest(hops) / calls * 1e9
        if kind == "torus":
            def transfer(net=net) -> None:
                for a, b in pairs:
                    net.transfer_time(4096, a, b)
            out["models.network.transfer_ns"] = quickest(transfer) / calls * 1e9
    return out


# ----------------------------------------------------------------------
# cg_collectives: the three collective modes
# ----------------------------------------------------------------------
def collectives(ranks: int) -> Metrics:
    """Host microseconds per rank per barrier+allreduce pair."""
    from repro.apps.collective_bench import CollectiveBenchConfig, collective_bench

    repeats = 16
    cfg = CollectiveBenchConfig(operations=("barrier", "allreduce"), sizes=(8,), repeats=repeats)
    out: Metrics = {}
    for mode in ("linear", "tree", "analytic"):
        try:
            system = SystemConfig.paper_system(nranks=ranks, collective_algorithm=mode)
            wall = quickest(
                lambda: XSim(system).run(collective_bench, args=(cfg,))
            )
            out[f"mpi.collectives.{mode}_us"] = wall / (ranks * repeats) * 1e6
        except ConfigurationError:
            out[f"mpi.collectives.{mode}_us"] = None
    return out


# ----------------------------------------------------------------------
# resilience_grid: checkpoint store, instrumentation overheads
# ----------------------------------------------------------------------
def checkpoint_and_overheads(ranks: int) -> Metrics:
    out: Metrics = {}
    nranks, rounds = 512, 20

    def write() -> float:
        store = CheckpointStore()
        t0 = time.perf_counter()
        for ckpt in range(rounds):
            for rank in range(nranks):
                store.begin_write(ckpt, rank, None, 4096)
                store.commit_write(ckpt, rank)
        return time.perf_counter() - t0

    out["core.checkpoint.write_us"] = best_of(write) / (rounds * nranks) * 1e6
    store = CheckpointStore()
    for ckpt in range(4):
        for rank in range(nranks):
            store.begin_write(ckpt, rank, None, 4096)
            store.commit_write(ckpt, rank)
    out["core.checkpoint.latest_valid_us"] = quickest(
        lambda: [store.latest_valid(nranks) for _ in range(50)]
    ) / 50 * 1e6

    base = dict(ranks=ranks, iterations=1000, interval=250)
    plain = quickest(lambda: run_scenario(Scenario(**base), cache=False))
    for name, switch in (("obs", "observe"), ("check", "check")):
        on = quickest(
            lambda: run_scenario(Scenario(**base, **{switch: True}), cache=False)
        )
        out[f"{name}.overhead_share"] = on / plain - 1.0
    return out


# ----------------------------------------------------------------------
# explore_campaign: scenario, cache, executor, CLI import
# ----------------------------------------------------------------------
FOUR_KINDS = "3@100s,straggler:2@50s+10s*2.0,link:1-2@20s+5s*4.0,corr:4@30s~1"


def scenario_and_cache(base: Scenario, smoke: bool) -> Metrics:
    scale = 20 if smoke else 1
    out: Metrics = {}
    n = 2000 // scale
    out["core.faults.parse_us"] = quickest(
        lambda: [FailureSchedule.parse(FOUR_KINDS) for _ in range(n)]
    ) / n * 1e6
    out["run.scenario.construct_us"] = quickest(
        lambda: [Scenario(ranks=8, iterations=20, failures="3@10s", seed=i) for i in range(n)]
    ) / n * 1e6
    out["run.scenario.digest_us"] = quickest(
        lambda: [base.scenario_digest() for _ in range(n)]
    ) / n * 1e6
    text = base.to_toml()
    out["run.scenario.toml_us"] = quickest(
        lambda: [Scenario.from_toml(text).to_toml() for _ in range(n // 4)]
    ) / (n // 4) * 1e6
    out["cache.store.key_us"] = quickest(
        lambda: [cache_key(base) for _ in range(n)]
    ) / n * 1e6

    # The campaign's own kind of cell: the base scenario under one fault.
    cells = [base.with_(failures=f"{i % base.ranks}@{5 + i}s") for i in range(40 // scale + 2)]
    outcomes = [run_scenario(cell, cache=False) for cell in cells]
    root = scratch_dir("probe-cache")
    try:
        store = ResultCache(root)
        wall = clock(lambda: [store.store(c, o, wall_s=0.0) for c, o in zip(cells, outcomes)])
        out["cache.store.store_us"] = wall / len(cells) * 1e6
        out["cache.store.blob_bytes"] = store.stats.store_bytes / max(1, store.stats.stores)
        store.close()
        reader = ResultCache(root)
        out["cache.store.lookup_hit_us"] = quickest(
            lambda: [reader.lookup(c) for c in cells]
        ) / len(cells) * 1e6
        absent = [c.with_(seed=c.seed + 1_000_003) for c in cells]
        out["cache.store.lookup_miss_us"] = quickest(
            lambda: [reader.lookup(c) for c in absent]
        ) / len(cells) * 1e6
        reader.close()
    finally:
        remove(root)

    tiny = [base.with_(seed=i) for i in range(64 // scale + 1)]
    serial = quickest(lambda: run_cells(tiny, jobs=1, cache=False))
    pooled = quickest(lambda: run_cells(tiny, jobs=2, cache=False))
    # What each cell costs beyond a perfect two-way split of the serial time.
    out["core.harness.fanout_ms_per_cell"] = (pooled - serial / 2) / len(tiny) * 1e3

    out["cli.import_s"] = quickest(lambda: subprocess.run(
        [sys.executable, "-c", "import repro.cli"], env=clean_env(), cwd=ROOT, check=True,
    ))
    return out


# ----------------------------------------------------------------------
# sharded_4096: transports, window statistics, shm rings
# ----------------------------------------------------------------------
def _uncounted(scenario: Scenario, reference: str | None) -> tuple[float | None, Any]:
    """One sharded run outside the op count: ``(wall or None, stats)``.
    Only the inline transport is an end-to-end op; a shm or fork run
    that raises or drifts shows in its own metric instead."""
    t0 = time.perf_counter()
    try:
        outcome = run_scenario(scenario, cache=False)
    except Exception:  # noqa: BLE001 - the failure itself is the measurement
        return None, None
    wall = time.perf_counter() - t0
    good = outcome.completed and outcome.metadata.get("nshards") == 2
    if reference is not None:
        good = good and outcome.digest()[:16] == reference
    return (wall if good else None), getattr(outcome.sim, "shard_stats", None)


def _shm_segments() -> set[str]:
    return set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()


def sharded(
    base: dict, reference: str | None, serial_s: float | None, inline_s: float | None,
    smoke: bool,
) -> Metrics:
    """``base`` is the workload's scenario fields, ``reference`` its
    serial digest, ``serial_s``/``inline_s`` its own counted runs."""
    from repro.mpi.messages import EAGER
    from repro.pdes import shmring

    before = _shm_segments()
    out: Metrics = {"pdes.sharded.serial_s": serial_s, "pdes.sharded.inline_s": inline_s}
    shm_s, stats = _uncounted(Scenario(shards=2, shard_transport="shm", **base), reference)
    # The canary: linear collectives push enough envelopes through the
    # rings that this commit's shm transport usually dies in
    # struct.unpack.  Counted here, not as an end-to-end failure.
    canary = Scenario(
        shards=2, shard_transport="shm",
        **dict(base, ranks=4 ** 3 if smoke else 12 ** 3, collectives="linear"),
    )
    shm_walls = [shm_s] + [_uncounted(canary, None)[0] for _ in range(2)]
    out["pdes.sharded.shm_s"] = shm_s
    out["pdes.shmring.canary_fail_share"] = shm_walls.count(None) / len(shm_walls)
    try:
        fork_s, _ = _uncounted(Scenario(shards=2, shard_transport="fork", **base), reference)
        out["pdes.sharded.fork_s"] = fork_s
    except ConfigurationError:
        out["pdes.sharded.fork_s"] = None
    if stats is None:  # the shm run died: window statistics from inline
        _, stats = _uncounted(Scenario(shards=2, shard_transport="inline", **base), reference)
    if serial_s and shm_s:
        out["pdes.sharded.speedup_wall"] = serial_s / shm_s
    if stats is not None:
        out["pdes.sharded.projected_speedup"] = stats.parallelism
        out["pdes.sharded.windows"] = stats.windows
        out["pdes.sharded.barrier_s"] = stats.barrier_seconds
        out["pdes.sharded.critical_path_s"] = stats.critical_path_seconds
        out["pdes.sharded.worker_busy_s"] = stats.worker_busy_seconds
        out["pdes.sharded.cross_shard_messages"] = stats.cross_shard_messages
        out["pdes.sharded.lookahead_min_s"] = stats.lookahead

    payload = bytes(4096)
    n = 20_000 // (20 if smoke else 1)

    def ring_round() -> float:
        ring = shmring.ShmRing(1 << 20)
        try:
            t0 = time.perf_counter()
            for _ in range(n):
                ring.write(payload)
                ring.read()
            return time.perf_counter() - t0
        finally:
            ring.destroy()

    out["pdes.shmring.mb_per_s"] = n * len(payload) / best_of(ring_round) / 1e6
    envelope = ("a", 1.5, 0, 3, 4, 7, 4096, payload, (1.0, 3, 9), EAGER, None)
    out["pdes.shmring.codec_us"] = quickest(
        lambda: [shmring.unpack_envelope(shmring.pack_envelope(envelope)) for _ in range(n)]
    ) / n * 1e6
    out["pdes.shmring.leaked_segments"] = len(_shm_segments() - before)
    return out
