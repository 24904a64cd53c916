"""Paper Table II: varying the checkpoint interval and system MTTF.

Regenerates the full table — heat3d with checkpoint interval C in
{1000, 500, 250, 125} and system MTTF in {6000 s, 3000 s}; columns E1
(failure-free simulated time), E2 (simulated time with failures and
restarts), F (activated failures), MTTF_a = E2/(F+1) — and checks the
paper's qualitative findings:

* E1 grows as C shrinks (checkpoint-phase overhead);
* under failures, E2 *shrinks* as C shrinks (less lost work), at both
  failure rates;
* more failures (and larger E2) at the smaller system MTTF;
* MTTF_a = E2/(F+1) exactly, and MTTF_a differs from MTTF_s (the paper's
  "worst case" application-vs-platform MTTF observation).

Default scale is 512 ranks (XSIM_BENCH_RANKS / XSIM_FULL_SCALE=1 for the
paper-exact 32,768); the paper's 32,768-rank values are printed alongside.
"""

from repro.run.table2 import BASELINE_INTERVAL, INTERVALS, MTTFS, render_table2, run_table2

from benchmarks._util import bench_ranks, once, report


def test_table2_checkpoint_interval_vs_mttf(benchmark):
    nranks = bench_ranks()
    cells = once(benchmark, run_table2, ranks=nranks, cache=False)

    report(
        "",
        f"=== Table II: varying the checkpoint interval and system MTTF "
        f"({nranks} simulated ranks; paper columns measured at 32,768) ===",
        render_table2(cells),
    )

    by_key = {(c.mttf, c.interval): c for c in cells}
    baseline = by_key[(None, BASELINE_INTERVAL)]

    # E1 monotone: shorter checkpoint interval costs more without failures
    e1_500 = by_key[(6000.0, 500)].e1
    e1_250 = by_key[(6000.0, 250)].e1
    e1_125 = by_key[(6000.0, 125)].e1
    assert baseline.e1 <= e1_500 < e1_250 < e1_125

    for mttf in MTTFS:
        rows = [by_key[(mttf, c)] for c in INTERVALS]
        # every failure row had failures and took longer than failure-free
        for cell in rows:
            assert cell.f >= 1
            assert cell.e2 > cell.e1
            # MTTF_a = E2 / (F + 1) exactly
            assert abs(cell.mttf_a - cell.e2 / (cell.f + 1)) < 1e-6
            # the application MTTF differs from the system MTTF (worst case)
            assert cell.mttf_a != mttf
        # the paper's headline: shorter C -> smaller E2 under failures
        e2s = [c.e2 for c in rows]  # ordered C = 500, 250, 125
        assert e2s[0] > e2s[1] > e2s[2]

    # higher failure rate hurts: at equal C, E2(3000s) > E2(6000s)
    for interval in INTERVALS:
        assert by_key[(3000.0, interval)].e2 > by_key[(6000.0, interval)].e2
        assert by_key[(3000.0, interval)].f >= by_key[(6000.0, interval)].f

    # baseline E1 calibration: the paper reports 5,248 s.  At small scale
    # the checkpoint-phase cost is negligible and the match is tight; at
    # larger scales the linear-barrier phases add up to ~6 % (see
    # EXPERIMENTS.md for the full-scale intercept discussion).
    tolerance = 0.02 if nranks <= 1024 else 0.10
    assert abs(baseline.e1 - 5248.0) / 5248.0 < tolerance
