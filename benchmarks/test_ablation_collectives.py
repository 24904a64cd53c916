"""Ablation: linear vs. tree collective algorithms.

The paper fixes "MPI collectives utilize linear algorithms" for its
simulated machine.  This bench quantifies that choice: the linear barrier's
cost grows linearly with rank count (the root serializes per-message
software overheads), while the binomial tree grows logarithmically — the
crossover behaviour any co-design study of collective algorithms needs.
"""

from repro.apps.collective_bench import CollectiveBenchConfig, collective_bench
from repro.core.harness.config import SystemConfig
from repro.core.simulator import XSim

from benchmarks._util import once, report

SIZES = (32, 128, 512)


def _barrier_time(nranks: int, algo: str) -> float:
    system = SystemConfig.paper_system(nranks=nranks, collective_algorithm=algo)
    sim = XSim(system)
    cfg = CollectiveBenchConfig(operations=("barrier",), sizes=(0,))
    result = sim.run(collective_bench, args=(cfg,))
    timings = [v.timings[("barrier", 0)] for v in result.exit_values.values()]
    return max(timings)


def _sweep():
    return {
        algo: {n: _barrier_time(n, algo) for n in SIZES}
        for algo in ("linear", "tree")
    }


def test_collective_algorithm_ablation(benchmark):
    results = once(benchmark, _sweep)

    report("", "=== Ablation: collective algorithms (barrier virtual time) ===",
           f"{'ranks':>6} {'linear':>12} {'tree':>12}")
    for n in SIZES:
        report(f"{n:>6} {results['linear'][n]:>11.4f}s {results['tree'][n]:>11.4f}s")

    for n in SIZES:
        # the tree algorithm beats linear once overheads dominate
        assert results["tree"][n] < results["linear"][n]

    # scaling: linear grows ~linearly (16x ranks -> >8x cost), tree ~log
    lin_growth = results["linear"][512] / results["linear"][32]
    tree_growth = results["tree"][512] / results["tree"][32]
    assert lin_growth > 8.0
    assert tree_growth < lin_growth / 2.0
