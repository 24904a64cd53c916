"""Ablation: workload communication profile vs. resilience overheads.

The paper's heat application is compute-dominated ("the computation phase
is by orders of magnitudes significantly longer than the communication and
checkpoint phases"), which shapes everything it observes — failures are
almost always injected into compute, detection happens at the next halo
exchange, and shrinking the checkpoint interval is cheap.  A proxy with the
opposite profile (the CG solver's three allreduces per iteration) stresses
the simulated machine differently: its global collectives make it
latency/overhead-bound, so the same architectural overheads cost it
proportionally more.
"""

from repro.apps.cg import CgConfig, cg
from repro.apps.heat3d import HeatConfig, heat3d
from repro.apps.samplesort import SampleSortConfig, samplesort
from repro.core.checkpoint.store import CheckpointStore
from repro.core.harness.config import SystemConfig
from repro.core.simulator import XSim

from benchmarks._util import once, report

NRANKS = 64


def _profile(app, cfg, label):
    """Run twice — with and without per-message software overheads — to
    split virtual time into compute vs communication-sensitive parts."""
    out = {}
    for variant, overhead in (("with-overheads", 2.6e-6), ("zero-overheads", 0.0)):
        system = SystemConfig.paper_system(
            nranks=NRANKS,
            send_overhead_native=overhead,
            recv_overhead_native=overhead,
        )
        sim = XSim(system)
        result = sim.run(app, args=(cfg, CheckpointStore()))
        assert result.completed
        out[variant] = result.exit_time
        if variant == "with-overheads":
            out["messages"] = sim.world.messages_sent
    out["comm_share"] = 1.0 - out["zero-overheads"] / out["with-overheads"]
    out["label"] = label
    return out


def _profile_nostore(app, cfg, label):
    """Like _profile for apps that take no checkpoint store argument."""
    out = {}
    for variant, overhead in (("with-overheads", 2.6e-6), ("zero-overheads", 0.0)):
        system = SystemConfig.paper_system(
            nranks=NRANKS,
            send_overhead_native=overhead,
            recv_overhead_native=overhead,
        )
        sim = XSim(system)
        result = sim.run(app, args=(cfg,))
        assert result.completed
        out[variant] = result.exit_time
        if variant == "with-overheads":
            out["messages"] = sim.world.messages_sent
    out["comm_share"] = 1.0 - out["zero-overheads"] / out["with-overheads"]
    out["label"] = label
    return out


def _sweep():
    heat_cfg = HeatConfig.paper_workload(checkpoint_interval=125, nranks=NRANKS)
    cg_cfg = CgConfig.for_ranks(
        NRANKS, points_per_side=16, max_iterations=250, checkpoint_interval=50
    )
    sort_cfg = SampleSortConfig(keys_per_rank=65536, data_mode="modeled")
    return {
        "heat3d": _profile(heat3d, heat_cfg, "heat3d (stencil, compute-bound)"),
        "cg": _profile(cg, cg_cfg, "cg (allreduce-bound proxy)"),
        "sort": _profile_nostore(samplesort, sort_cfg, "samplesort (alltoallv-bound)"),
    }


def test_workload_sensitivity(benchmark):
    results = once(benchmark, _sweep)

    report("", f"=== Ablation: workload profile vs software-overhead sensitivity "
               f"({NRANKS} ranks) ===",
           f"{'app':>8} {'E1':>11} {'E1 (no overheads)':>18} {'overhead share':>15} {'messages':>9}")
    for name, r in results.items():
        report(f"{name:>8} {r['with-overheads']:>9,.1f}s {r['zero-overheads']:>16,.1f}s "
               f"{r['comm_share'] * 100:>13.2f}% {r['messages']:>9,}")

    heat, cgr, srt = results["heat3d"], results["cg"], results["sort"]
    # heat3d is compute-dominated: overheads shift E1 by well under 1 %
    assert heat["comm_share"] < 0.01
    # the CG proxy's per-iteration collectives make it far more sensitive
    assert cgr["comm_share"] > 10 * heat["comm_share"]
    # it also sends far more messages per unit of virtual time
    assert cgr["messages"] / cgr["with-overheads"] > heat["messages"] / heat["with-overheads"]
    # the redistribution sort sits between: one big exchange, short runtime
    assert srt["comm_share"] > heat["comm_share"]
