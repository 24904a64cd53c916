"""Simulator scalability: virtual-process count vs. host throughput.

xSim's headline capability is oversubscription — running orders of
magnitude more simulated MPI ranks than host cores (up to 2^27 on a
960-core cluster).  The laptop-scale equivalent claim for this
reproduction: simulated-rank count scales to tens of thousands on one
host process, with near-linear host cost per simulated event — and the
sharded conservative-parallel engine partitions one large run into
balanced, genuinely parallel shards.

These are assertions about *shape*, taken from ``run_scenario`` and the
run's own ``ShardStats``; they write no file.  A rate worth quoting comes
from the performance ledger (``ledger/README.md``), which measures from
outside the program at a reference host speed.
"""

from time import perf_counter

from repro.run.backends import run_scenario
from repro.run.scenario import Scenario

from benchmarks._util import once, report

#: Serial throughput-sweep scales (simulated MPI ranks).
SCALES = (64, 512, 4096)
#: The sharded comparison: 4 shards at 4096 ranks.  Tree collectives,
#: because the paper's linear barrier root serializes O(nranks) releases
#: and caps any parallel engine (Amdahl) whatever the shard count.
SHARDED_RANKS = 4096
SHARDED_SHARDS = 4


def _paper_heat3d(ranks: int, **fields) -> Scenario:
    """The paper's heat3d workload at its E1 = 5,248 s operating point."""
    return Scenario(ranks=ranks, app="heat3d", iterations=1000, interval=500, **fields)


def _timed(scenario: Scenario):
    t0 = perf_counter()
    outcome = run_scenario(scenario, cache=False)
    host_s = perf_counter() - t0
    assert outcome.completed
    return outcome, host_s


def test_vp_count_scaling(benchmark):
    # A process imports the runtime (numpy, engine, MPI layer) the first
    # time it simulates; pay that before the clock starts.
    _timed(_paper_heat3d(SCALES[0]))

    def sweep():
        return {n: _timed(_paper_heat3d(n)) for n in SCALES}

    results = once(benchmark, sweep)

    report("", "=== Simulator scaling: virtual processes vs host cost ===",
           f"{'ranks':>6} {'events':>10} {'host':>8} {'events/s':>10} {'E1':>11}")
    for n, (outcome, host_s) in results.items():
        r = outcome.result
        report(
            f"{n:>6} {r.event_count:>10,} {host_s:>7.2f}s "
            f"{r.event_count / host_s:>10,.0f} {r.exit_time:>9,.1f}s"
        )

    events = {n: outcome.result.event_count for n, (outcome, _) in results.items()}
    # events grow roughly linearly with rank count
    assert 32 < events[4096] / events[64] < 128  # 64x ranks -> ~64x events
    # per-event host cost stays within 4x across two orders of magnitude
    rates = [events[n] / host_s for n, (_, host_s) in results.items()]
    assert max(rates) / min(rates) < 4.0
    # virtual time stays at the workload's operating point at every scale
    for outcome, _ in results.values():
        assert abs(outcome.result.exit_time - 5248.0) / 5248.0 < 0.05


def test_sharded_speedup(benchmark):
    """Serial vs 4 inline shards on one 4096-rank simulation.

    The critical path is counted in dispatched events: per window round
    the busiest shard's, plus every lockstep step's.  It is what a host
    with one core per shard would wait for, in a unit that repeats
    exactly: wall seconds of the same rounds grow with whatever else the
    host is running.  The wall readings are printed beside it.
    """
    serial, serial_s = _timed(_paper_heat3d(SHARDED_RANKS, collectives="tree"))
    sharded, wall_s = once(
        benchmark,
        _timed,
        _paper_heat3d(
            SHARDED_RANKS, collectives="tree",
            shards=SHARDED_SHARDS, shard_transport="inline",
        ),
    )
    assert sharded.digest() == serial.digest()
    st = sharded.sim.shard_stats

    report("", f"=== Sharded engine: serial vs {SHARDED_SHARDS} inline shards at "
           f"{SHARDED_RANKS} ranks (tree collectives) ===",
           f"  serial {serial_s:.3f}s, inline wall {wall_s:.3f}s, critical path "
           f"{st.critical_path_seconds:.3f}s, {st.windows:,} windows, "
           f"imbalance {st.imbalance:.2f}, parallelism {st.parallelism:.2f}",
           f"  serial {serial.result.event_count:,} events, critical path "
           f"{st.critical_path_events:,} events, parallelism "
           f"{sum(st.shard_events) / st.critical_path_events:.2f}")

    # The partition is balanced and genuinely parallel.
    assert st.imbalance < 1.25
    assert sum(st.shard_events) / st.critical_path_events > 2.0
    # What a 4-core host's wall clock would show, measurable on any host.
    assert serial.result.event_count / st.critical_path_events >= 1.8
    # Sharding must not burn host work: total worker busy time stays
    # within 2x of the serial run.
    assert st.worker_busy_seconds < 2.0 * serial_s
