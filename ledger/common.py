"""What every workload shares: the op recorder, hermetic environment,
scratch directories, host calibration and the small statistics the
report prints."""

from __future__ import annotations

import gc
import heapq
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator

from ledger.layers import Spans

LEDGER = Path(__file__).resolve().parent
ROOT = LEDGER.parent
OUT = LEDGER / "out"

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}


def clean_env() -> dict[str, str]:
    """The environment every child sees: no ``XSIM_*`` variable, the
    checkout's ``src`` first on the import path."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("XSIM_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def scratch_dir(prefix: str) -> Path:
    """A fresh directory under ``ledger/out`` (never the user's cache
    dir, never outside the checkout)."""
    OUT.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=prefix + "-", dir=OUT))


def remove(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)


def cpu_now() -> float:
    """User + system CPU seconds of this process and every child it has
    waited for."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


#: Host speed all timings are quoted at, in ``host_mops`` units: this
#: sandbox's reading when nothing else runs on the machine.
REFERENCE_MOPS = 1.25
#: A reading this recent (seconds) still stands for "now".
FRESH_S = 0.1


def host_mops(steps: int = 50_000) -> float:
    """Host speed right now on a fixed pure-Python heap/dict/generator
    loop, in million loop steps per second (~40 ms a reading) — the same
    interpreter work the simulator's hot path is made of.

    The host gives and takes CPU in bursts and in minutes-long episodes
    (forty identical runs: 1.9 s to 3.8 s).  The loop slows with them
    (correlation 0.87 with a 0.4 s op it brackets), so a timing scaled
    by the readings around it is a timing at ``REFERENCE_MOPS``."""
    def ticks(n: int) -> Iterator[int]:
        for i in range(n):
            yield i * 7919 % 1009

    heap: list[tuple[int, int]] = []
    seen: dict[int, int] = {}
    t0 = time.perf_counter()
    for i, key in enumerate(ticks(steps)):
        heapq.heappush(heap, (key, i))
        seen[key] = seen.get(key, 0) + 1
        if i & 1:
            heapq.heappop(heap)
    return steps / (time.perf_counter() - t0) / 1e6


def fingerprint(seed: int) -> dict[str, Any]:
    """Where and on what a record was measured."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "seed": seed,
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``; a single sample is its own quartiles."""
    if len(values) < 2:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def describe(values: list[float]) -> str:
    """``median [q1 .. q3] n=…``, plus the highest percentile that still
    has ten samples beyond it."""
    q1, q2, q3 = quartiles(values)
    text = f"{q2:.6g} [{q1:.6g} .. {q3:.6g}] n={len(values)}"
    if len(values) >= 20:
        ranked = sorted(values)
        pct = 100 - 1000 // len(values)
        text += f" p{pct}={ranked[len(values) - 11]:.6g}"
    return text


@dataclass
class Attempt:
    """One counted op: its value and timings, or why it failed.
    ``wall`` and ``cpu`` are seconds at the reference host speed: the
    measured seconds times ``scale``."""

    label: str
    ok: bool = True
    value: Any = None
    wall: float = 0.0
    cpu: float = 0.0
    scale: float = 1.0


class Recorder:
    """Counts ops, keeps their timing samples and simulated facts.

    With ``calibrate`` every op is bracketed by host-speed readings and
    its timings are scaled to the reference speed (the end-to-end run);
    without, timings are the seconds measured (traced run, probes)."""

    def __init__(self, calibrate: bool) -> None:
        self.calibrate = calibrate
        self.readings: list[float] = []
        self.scales: list[float] = []
        self._read_at = float("-inf")
        self.spans = Spans()
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.samples: dict[str, list[float]] = defaultdict(list)
        #: label -> {"events", "e1", "digest"} of the first op seen.
        self.sim: dict[str, dict[str, Any]] = {}

    def attempt(self, label: str, fn: Callable[..., Any], *args: Any, **kw: Any) -> Attempt:
        """Run one op: collected garbage first, timed as a root span,
        an exception counted as a failure instead of ending the run."""
        gc.collect()
        self.attempted += 1
        self.spans.op += 1
        a = Attempt(label)
        before = self.reading()
        span = len(self.spans.rows)
        cpu0 = cpu_now()
        try:
            a.value = self.spans.call(label, fn, *args, **kw)
        except Exception as exc:  # noqa: BLE001 - an op that raises is a failed op
            self.fail(a, f"raised {type(exc).__name__}: {exc}")
        cpu = cpu_now() - cpu0
        row = self.spans.rows[span]
        a.scale = (before + self.reading()) / 2 / REFERENCE_MOPS
        self.scales.append(a.scale)
        a.cpu = cpu * a.scale
        a.wall = (row["end"] - row["start"]) * a.scale
        return a

    def reading(self) -> float:
        """Host speed now; consecutive short ops share one reading."""
        if not self.calibrate:
            return REFERENCE_MOPS
        if time.perf_counter() - self._read_at > FRESH_S:
            self.readings.append(host_mops())
            self._read_at = time.perf_counter()
        return self.readings[-1]

    def fail(self, a: Attempt, why: str) -> None:
        if a.ok:
            a.ok = False
            self.failed += 1
        self.failures.append(f"{a.label}: {why}")

    def require(self, a: Attempt, cond: bool, why: str) -> bool:
        """A correctness check on a finished op; a failed op gives no
        timing sample, so callers sample only while this returns True."""
        if a.ok and not cond:
            self.fail(a, why)
        return a.ok

    def verify(self, label: str, cond: bool, why: str) -> None:
        """A counted check that is not itself a timed op."""
        self.attempted += 1
        self.require(Attempt(label), cond, why)

    def facts(self, a: Attempt, label: str, outcome: Any) -> dict[str, Any]:
        """Simulated statistics of a scenario outcome, checked against
        the first run of the same scenario in this process."""
        segments = outcome.run.segments if outcome.run is not None else None
        got = {
            "events": (
                sum(s.result.event_count for s in segments)
                if segments else outcome.result.event_count
            ),
            "e1": outcome.run.e2 if segments else outcome.result.exit_time,
            "digest": outcome.digest()[:16],
            "segments": len(segments) if segments else 1,
            "failures": len(outcome.run.failures) if segments else 0,
        }
        self.require(a, outcome.completed, "did not complete")
        first = self.sim.setdefault(label, got)
        self.require(a, first["digest"] == got["digest"], "two digests for one scenario")
        return got
