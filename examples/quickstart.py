#!/usr/bin/env python3
"""Quickstart: simulate an MPI job, inject a process failure, watch the
detection -> MPI_Abort -> checkpoint/restart cycle.

Run:  python examples/quickstart.py
"""

import sys

from repro.apps.heat3d import HeatConfig, heat3d
from repro.core import RestartDriver, SystemConfig, XSim
from repro.core.checkpoint.store import CheckpointStore

# ----------------------------------------------------------------------
# 1. Describe the simulated machine.  This is the paper's system scaled
#    down to 64 nodes: a 4x4x4 wrapped torus, 1 us links, 32 GB/s,
#    256 kB eager threshold, linear-algorithm collectives, and compute
#    nodes 1000x slower than a 1.7 GHz Opteron core.
# ----------------------------------------------------------------------
system = SystemConfig.paper_system(nranks=64)

# ----------------------------------------------------------------------
# 2. Describe the workload: the paper's heat-equation application with
#    4,096 grid points per rank, 1000 iterations, and a checkpoint (plus
#    halo exchange) every 250 iterations.
# ----------------------------------------------------------------------
workload = HeatConfig.paper_workload(checkpoint_interval=250, nranks=64)

# ----------------------------------------------------------------------
# 3. A clean run: measure E1, the failure-free simulated execution time.
# ----------------------------------------------------------------------
sim = XSim(system)
result = sim.run(heat3d, args=(workload, CheckpointStore()))
print(f"E1 (no failures) = {result.exit_time:,.1f} simulated seconds")
print(result.timing_report())

# ----------------------------------------------------------------------
# 4. Now with an injected MPI process failure.  The rank/time pair is the
#    paper's injection interface; the simulator logs the failure, the
#    surviving ranks detect it via the network timeout, the job aborts,
#    and the restart driver resumes from the last valid checkpoint with
#    virtual time carried over.
# ----------------------------------------------------------------------
from repro.core.faults.schedule import FailureSchedule

driver = RestartDriver(
    system,
    heat3d,
    make_args=lambda store: (workload, store),
    schedule=FailureSchedule.parse("13@2000s"),
    log_stream=sys.stdout,
)
run = driver.run()

print()
print(f"E2 (with failure + restart) = {run.e2:,.1f} simulated seconds")
print(f"activated failures F = {run.f}, restarts = {run.restarts}")
print(f"application MTTF  = {run.mttf_a:,.1f} s  (= E2 / (F + 1))")
print(f"lost work paid for: E2 - E1 = {run.e2 - result.exit_time:,.1f} s")
