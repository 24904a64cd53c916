#!/usr/bin/env python3
"""Communication-trace analysis (the DUMPI-trace workflow) on the obs bus.

The xSim ecosystem feeds MPI traces into downstream tools (SST/macro
consumes DUMPI traces).  Here the trace is the observability bus at
``trace_detail``: every message is a ``msg:post`` instant on its
sender's track (dst, ctx, tag, nbytes, protocol) and a ``msg:deliver``
or ``msg:drop`` instant on its receiver's (src, ctx, tag, nbytes).  This
example records three applications with different communication
profiles, then does the standard post-mortem analyses: traffic matrix,
protocol split, busiest pairs, and a message-rate timeline.

Pass exported files instead to analyse runs of the command line:

    xsim-run app --ranks 8 --iterations 40 --interval 20 \\
        --xsim-failures 3@0.02s --trace-detail --trace-out run.jsonl --no-cache
    python examples/trace_analysis.py run.jsonl
"""

import sys

from ascii_chart import bar_chart, sparkline
from repro.apps.cg import CgConfig, cg
from repro.apps.heat3d import HeatConfig, heat3d
from samplesort import SampleSortConfig, samplesort
from repro.core import SystemConfig, XSim
from repro.obs import load_events

NRANKS = 27

WORKLOADS = [
    (
        "heat3d (stencil halos)",
        heat3d,
        (HeatConfig.paper_workload(checkpoint_interval=250, nranks=NRANKS, iterations=500), None),
    ),
    (
        "cg (allreduce per iteration)",
        cg,
        (CgConfig.for_ranks(NRANKS, max_iterations=60, checkpoint_interval=60), None),
    ),
    (
        "samplesort (alltoallv)",
        samplesort,
        (SampleSortConfig(keys_per_rank=2000, data_mode="real"),),
    ),
]


def traced_events(app, args, label):
    sim = XSim(SystemConfig.paper_system(nranks=NRANKS), observe=True, trace_detail=True)
    result = sim.run(app, args=args)
    assert result.completed, label
    return sim.observer.sim_events()


def analyse(label, events):
    posts = [(e.start, e.rank, dict(e.args)) for e in events if e.name == "msg:post"]
    print("=" * 72)
    if not posts:
        print(f"{label}: no msg:post events (export the run with --trace-detail)")
        return
    matrix: dict[tuple[int, int], int] = {}
    for _, src, a in posts:
        matrix[src, a["dst"]] = matrix.get((src, a["dst"]), 0) + a["nbytes"]
    eager = sum(1 for _, _, a in posts if a["protocol"] == "eager")
    drops = sum(1 for e in events if e.name == "msg:drop")
    print(f"{label}: {len(posts)} messages, {sum(matrix.values()):,} bytes, "
          f"{len(matrix)} communicating pairs")
    print(f"protocol split: {eager} eager / {len(posts) - eager} rendezvous; "
          f"dropped: {drops}")
    print("busiest pairs:")
    pairs = sorted(matrix.items(), key=lambda kv: (-kv[1], kv[0]))[:5]
    print(bar_chart([(f"{s}->{d}", b) for (s, d), b in pairs], width=30, unit=" B"))
    # message-rate timeline: bucket post times into 24 bins
    times = [t for t, _, _ in posts]
    first = min(times)
    span = max(times) - first or 1.0
    bins = [0] * 24
    for t in times:
        bins[min(23, int((t - first) / span * 24))] += 1
    print(f"message-rate timeline: {sparkline(bins)}")
    print()


if len(sys.argv) > 1:
    for path in sys.argv[1:]:
        analyse(path, load_events(path))
else:
    for label, app, args in WORKLOADS:
        analyse(label, traced_events(app, args, label))
    print("The three profiles are visibly different: heat3d's sparse periodic")
    print("halo bursts, cg's steady collective drumbeat, and samplesort's")
    print("single all-to-all redistribution spike.")
