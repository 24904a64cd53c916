"""Extension (paper future work 1): soft-error injection campaigns.

Injects Poisson bit flips into heat3d's tracked memory and reports the
outcome distribution (crashes / silent data corruption / benign / no
target: the victim was already dead), plus the
crash-driven abort behaviour: a flip in a critical region feeds the
ordinary process-failure machinery, so the job aborts exactly as for an
injected process failure.
"""

from repro.apps.heat3d import HeatConfig, heat3d
from repro.core.checkpoint.store import CheckpointStore
from repro.core.faults.softerror import Effect
from repro.core.harness.config import SystemConfig
from repro.core.simulator import XSim
from repro.models.memory import RegionKind

from benchmarks._util import once, report

NRANKS = 64


def _campaign(rate: float, seed: int):
    system = SystemConfig.paper_system(nranks=NRANKS)
    wl = HeatConfig.paper_workload(checkpoint_interval=250, nranks=NRANKS)
    sim = XSim(system, seed=seed)
    # track a critical runtime region next to the app's DATA grid so both
    # outcome classes are reachable
    for rank in range(NRANKS):
        sim.memory.allocate(rank, "mpi-runtime", 64 * 1024, RegionKind.CRITICAL)
    injector = sim.soft_errors
    if rate > 0:
        injector.schedule_poisson(rate_per_rank=rate, horizon=6000.0, ranks=list(range(NRANKS)))
    result = sim.run(heat3d, args=(wl, CheckpointStore()))
    return injector.counts(), result


def test_soft_error_campaign(benchmark):
    (benign_counts, clean_result), (hot_counts, hot_result) = once(
        benchmark, lambda: (_campaign(0.0, 0), _campaign(2e-4, 0))
    )

    columns = (Effect.CRASH, Effect.SDC, Effect.BENIGN, Effect.NO_TARGET)

    def row(rate, counts, result):
        cells = " ".join(f"{counts[e]:>9}" for e in columns)
        return f"{rate:>12} {sum(counts.values()):>6} {cells} {str(result.aborted):>8}"

    report(
        "",
        f"=== Soft-error campaign on heat3d ({NRANKS} ranks) ===",
        f"{'rate/rank/s':>12} {'flips':>6} "
        + " ".join(f"{e.value:>9}" for e in columns) + f" {'aborted':>8}",
        row("0", benign_counts, clean_result),
        row("2e-4", hot_counts, hot_result),
    )

    # no flips -> clean completion
    assert sum(benign_counts.values()) == 0
    assert clean_result.completed

    # every flip is in exactly one column
    total = sum(hot_counts.values())
    assert sum(hot_counts[e] for e in columns) == total
    # with flips: some landed on a live rank, outcomes split across the
    # classes (the rest find their victim already dead)
    assert total - hot_counts[Effect.NO_TARGET] > 10
    assert hot_counts[Effect.SDC] > 0
    # the grid (DATA, 32 kB) is ~1/3 of the tracked footprint beside the
    # 64 kB critical runtime region, so both classes appear
    assert hot_counts[Effect.CRASH] > 0
    # a critical hit crashes a process, which aborts the job
    assert hot_result.aborted
    assert len(hot_result.failures) >= 1
    # the crash was logged as a soft error
    assert hot_result.log.category("soft-error")
