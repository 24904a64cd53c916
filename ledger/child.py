"""One workload in one fresh interpreter: set-up, then the untraced
timed loop, or one traced op plus the workload's probes."""

from __future__ import annotations

import json
import multiprocessing
import resource
import statistics
import time
from typing import Any

from ledger.common import (
    LEDGER, OUT, PER_LAYER, Recorder, fingerprint, host_mops,
)


def peak_rss_mb() -> float:
    """Largest resident set of this interpreter or any child it waited
    for (Linux reports KiB)."""
    return max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0


def timed_loop(workload, rec: Recorder, seconds: float, min_ops: int) -> None:
    """Closed loop, one client: the next op starts when the last one
    ends, until another op would mostly fall outside the window."""
    deadline = time.perf_counter() + seconds
    workload.begin(rec)
    ops = 0
    while True:
        t0 = time.perf_counter()
        workload.op(rec)
        workload.between(rec)
        ops += 1
        now = time.perf_counter()
        if ops >= min_ops and now + (now - t0) / 2 > deadline:
            return


def drift(sim: dict[str, dict[str, Any]]) -> tuple[int, int]:
    """``(scenarios that differ from their pin, scenarios pinned)``."""
    expected = json.loads((LEDGER / "expected.json").read_text())
    pinned = [label for label in sim if label in expected]
    moved = sum(
        any(sim[label][k] != expected[label][k] for k in ("events", "e1", "digest"))
        for label in pinned
    )
    return moved, len(pinned)


def traced(workload, spec: dict[str, Any], out: dict[str, Any]) -> None:
    from ledger.layers import LAYERS, profiled

    calib = [host_mops(200_000)]
    rec = Recorder(calibrate=False)
    workload.begin(rec)
    workload.op(rec)
    # Probes before the traced op: they read the untraced op's timings.
    measured: dict[str, float | None] = dict(workload.probes(rec))
    hot = Recorder(calibrate=False)
    hot.sim = rec.sim  # a traced digest must equal the untraced one
    shares, calls = profiled(lambda: workload.op(hot))
    calib.append(host_mops(200_000))

    for layer in LAYERS:
        measured[f"{layer}.self_share"] = shares[layer]
        measured[f"{layer}.calls"] = calls[layer]
    labels = [k for k in rec.sim if k in workload.sim_labels()]
    events = sum(rec.sim[k]["events"] for k in labels)
    e1 = sum(rec.sim[k]["e1"] for k in labels)
    moved, pinned = drift(rec.sim)
    measured.update({
        "sim.events": events,
        "sim.e1_s": e1,
        "sim.us_per_event": e1 / events * 1e6 if events else None,
        "sim.drift": moved,
        "host.calib_mops": statistics.mean(calib),
    })
    if rec.samples["run_s"] and hot.samples["run_s"]:
        measured["bench.trace_overhead"] = (
            statistics.median(hot.samples["run_s"]) / statistics.median(rec.samples["run_s"]) - 1.0
        )
    unknown = set(measured) - set(PER_LAYER)
    if unknown:
        raise SystemExit(f"probe metrics BENCHMARK.json does not name: {sorted(unknown)}")

    OUT.mkdir(exist_ok=True)
    trace_file = OUT / f"trace-{workload.name}.json"
    trace_file.write_text(json.dumps({
        "workload": workload.name,
        "host": fingerprint(spec["seed"]),
        "layers": {k: {"self_share": shares[k], "calls": calls[k]} for k in LAYERS},
        "spans": {"untraced": rec.spans.rows, "traced": hot.spans.rows},
    }, indent=1))
    out.update(
        metrics=measured,
        not_measured=sorted(set(PER_LAYER) - set(measured)),
        attempted=rec.attempted + hot.attempted,
        failed=rec.failed + hot.failed,
        failures=rec.failures + hot.failures,
        calib=calib,
        drift_pinned=pinned,
        trace_file=str(trace_file.relative_to(LEDGER.parent)),
    )


def main(spec: dict[str, Any]) -> None:
    """Run the mode ``spec`` names and print one JSON line."""
    from ledger.workloads import ALL

    workload = ALL[spec["workload"]](spec["seed"], spec["smoke"])
    workload.warm_up()
    out: dict[str, Any] = {"setup_s": time.monotonic() - spec["t0"], "setup_mops": host_mops()}
    mode = spec["mode"]
    if mode == "trace":
        traced(workload, spec, out)
    elif mode != "setup":
        rec = Recorder(calibrate=mode == "run")
        if mode == "pin":  # simulated facts only: one op, nothing timed
            workload.begin(rec)
            workload.op(rec)
        else:
            try:
                timed_loop(workload, rec, spec["seconds"], 1 if spec["smoke"] else 3)
            finally:
                workload.finish(rec)
            out.update(scales=rec.scales, calib=[rec.readings[0], rec.readings[-1]])
        out.update(
            samples=rec.samples, attempted=rec.attempted, failed=rec.failed,
            failures=rec.failures, sim=rec.sim,
        )
    out["peak_rss_mb"] = peak_rss_mb()
    for child in multiprocessing.active_children():  # nothing may outlive the run
        child.terminate()
        child.join()
    print(json.dumps(out))

