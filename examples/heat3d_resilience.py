#!/usr/bin/env python3
"""Checkpoint-interval / system-MTTF trade-off study (paper Table II).

Sweeps the heat application's checkpoint interval against the simulated
system MTTF and prints the paper's table — E1 (failure-free time), E2
(time with failures and restarts), F (activated failures), and
MTTF_a = E2/(F+1) — side by side with the paper's 32,768-rank values.

The default runs at 512 simulated ranks (a ~30 s study); pass a rank
count to scale up, e.g.:

    python examples/heat3d_resilience.py 4096
"""

import sys
import time

from ascii_chart import bar_chart
from repro.run.table2 import INTERVALS, MTTFS, render_table2, run_table2

nranks = int(sys.argv[1]) if len(sys.argv) > 1 else 512

print(f"Reproducing Table II at {nranks} simulated ranks "
      f"(paper: 32,768 ranks on a 32x32x32 torus) ...")
t0 = time.time()
cells = run_table2(ranks=nranks)
print(f"... {time.time() - t0:.1f} s of host time\n")

print(render_table2(cells))
print()
with_failures = [c for c in cells if c.mttf is not None]
print("E2 by (MTTF_s, C) - shorter checkpoint intervals win under failures:")
print(bar_chart(
    [(f"MTTF={c.mttf:,.0f}s C={c.interval}", c.e2) for c in with_failures],
    width=44, unit=" s", zero_based=False,
))
print()
print("Shape checks (the paper's observations):")
by_key = {(c.mttf, c.interval): c for c in cells}
# INTERVALS is ordered largest-to-smallest C, so E1 should ascend
e1s = [by_key[(6000.0, c)].e1 for c in INTERVALS]
print(f"  * E1 grows as C shrinks (checkpoint overhead): "
      f"{' < '.join(f'{v:,.0f}' for v in e1s)}  "
      f"{'OK' if e1s == sorted(e1s) else 'VIOLATED'}")
for mttf in MTTFS:
    e2s = [by_key[(mttf, c)].e2 for c in INTERVALS]
    ok = all(a >= b for a, b in zip(e2s, e2s[1:]))
    print(f"  * E2 shrinks as C shrinks at MTTF={mttf:,.0f}s "
          f"(less lost work): {'OK' if ok else 'VIOLATED'}")
for c in cells:
    if c.f:
        rel = c.mttf_a / (c.e2 / (c.f + 1))
        assert abs(rel - 1) < 1e-9
print("  * MTTF_a == E2 / (F + 1) on every row: OK")
