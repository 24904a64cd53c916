"""Validation: the simulator's measured optimal checkpoint interval tracks
Daly's closed-form optimum.

The paper's related work cites Daly [31] as *the* checkpoint/restart
optimization.  Here the naive compute/checkpoint workload is swept over
checkpoint intervals under MTTF-driven random failures; the E2-minimizing
interval must land near Daly's higher-order estimate, and the measured E2
curve must be convex-ish around it (long intervals lose work, short ones
pay overhead).
"""

import numpy as np

from repro.apps.naive_cr import NaiveCrConfig, naive_cr
from repro.check.oracle import daly_higher_order_interval, expected_completion_time
from repro.core.harness.config import SystemConfig
from repro.core.restart import RestartDriver

from benchmarks._util import once, report

WORK = 2_000.0
DELTA = 10.0
MTTF = 1_000.0
# Note the sweep stops at tau=1000: under the paper's placement policy the
# failure time is uniform in [0, 2*MTTF), so a restart segment longer than
# 2*MTTF = 2000 s is *guaranteed* to fail and the run never completes —
# checkpointing less often than that is not merely slow but fatal.
TAUS = (25.0, 50.0, 100.0, 200.0, 400.0, 1000.0)
SEEDS = range(12)


def _mean_e2(tau: float) -> float:
    system = SystemConfig.small_test_system(nranks=4)
    cfg = NaiveCrConfig(work=WORK, tau=tau, delta=DELTA)
    e2s = []
    for seed in SEEDS:
        driver = RestartDriver(
            system,
            naive_cr,
            make_args=lambda store: (cfg, store),
            mttf=MTTF,
            seed=seed,
            max_restarts=5000,
        )
        e2s.append(driver.run().e2)
    return float(np.mean(e2s))


def test_daly_interval_validation(benchmark):
    measured = once(benchmark, lambda: {tau: _mean_e2(tau) for tau in TAUS})

    daly_tau = daly_higher_order_interval(DELTA, MTTF)
    report(
        "",
        f"=== Daly validation: work={WORK:.0f}s, delta={DELTA:.0f}s, MTTF={MTTF:.0f}s ===",
        f"Daly higher-order optimal interval: {daly_tau:.0f} s",
        f"{'tau':>8} {'measured mean E2':>17} {'Daly model E[T]':>17}",
    )
    for tau, e2 in measured.items():
        model = expected_completion_time(WORK, tau, DELTA, MTTF)
        report(f"{tau:>8.0f} {e2:>16,.0f}s {model:>16,.0f}s")

    best_tau = min(measured, key=measured.get)
    # the measured optimum brackets Daly's prediction (~131 s here)
    assert TAUS[0] < best_tau < TAUS[-1]
    assert 0.25 * daly_tau <= best_tau <= 4.0 * daly_tau
    # the curve's wings are worse than the optimum
    assert measured[TAUS[0]] > measured[best_tau]
    assert measured[TAUS[-1]] > measured[best_tau]
    # measured E2 correlates with the analytic model across the sweep
    ratios = [measured[t] / expected_completion_time(WORK, t, DELTA, MTTF) for t in TAUS]
    assert all(0.5 < r < 2.0 for r in ratios)
