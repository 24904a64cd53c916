"""Extension (paper refs [9]/[17]/[19]): proactive migration vs reactive
checkpoint/restart.

Sweeps the failure predictor's recall: at recall 1.0 every failure becomes
a short migration pause; at 0.0 everything falls back to abort/restart;
in between the two mechanisms combine (Wang et al.'s proactive+reactive
hybrid).  E2 should fall monotonically as prediction improves.
"""

from repro.apps.heat3d import HeatConfig, heat3d
from repro.core.harness.config import SystemConfig
from repro.core.restart import RestartDriver

from benchmarks._util import once, report
from benchmarks.migration import FailurePredictor, ProactiveMigration

NRANKS = 64
WORKLOAD = HeatConfig.paper_workload(checkpoint_interval=250, nranks=NRANKS)
SYSTEM = SystemConfig.paper_system(nranks=NRANKS)
RECALLS = (0.0, 0.5, 1.0)
MTTF = 2500.0


def _run(recall: float):
    manager = ProactiveMigration(
        FailurePredictor(lead_time=120.0, recall=recall),
        spares=8,
        state_bytes=WORKLOAD.checkpoint_nbytes,
        migration_bandwidth=1e9,
        migration_latency=2.0,
        seed=1,
    )
    driver = RestartDriver(
        SYSTEM,
        heat3d,
        make_args=lambda store: (WORKLOAD, store),
        mttf=MTTF,
        seed=2,
        strategy=manager,
    )
    run = driver.run()
    return run, manager.stats


def test_proactive_migration_vs_restart(benchmark):
    results = once(benchmark, lambda: {r: _run(r) for r in RECALLS})

    report("", f"=== Proactive migration vs checkpoint/restart "
               f"(MTTF={MTTF:.0f}s, lead time 120s) ===",
           f"{'recall':>7} {'E2':>11} {'failures':>9} {'restarts':>9} "
           f"{'migrations':>11} {'downtime':>9}")
    for r, (run, stats) in results.items():
        report(f"{r:>7.1f} {run.e2:>9,.0f}s {run.f:>9} {run.restarts:>9} "
               f"{stats.migrations:>11} {stats.downtime:>8.1f}s")

    blind, _ = results[0.0]
    oracle, oracle_stats = results[1.0]
    # perfect prediction avoids every failure -> no restarts at all
    assert oracle.f == 0
    assert oracle.restarts == 0
    assert oracle_stats.migrations >= 1
    # zero recall degenerates to the plain Table II behaviour
    assert blind.f >= 1
    # better prediction never hurts
    e2s = [results[r][0].e2 for r in RECALLS]
    assert e2s == sorted(e2s, reverse=True)
    # the oracle's residual overhead is just migration pauses (seconds,
    # not the thousands of seconds a restart cycle costs)
    assert oracle.e2 < blind.e2
    assert oracle.e2 - 5250.0 < 100.0
