"""The ledger's one command.

``python -m ledger.run --seed N`` runs the five workloads one after
another, each in fresh interpreters: an untraced run for the end-to-end
metrics, then a traced run for the per-layer ones, and prints every
metric by name with its unit.  ``--aa`` measures the same code twice,
interleaved, and holds the two sets against the benchmark's own bounds.

``--workload NAME --seed N --seconds S --trace 0|1`` is the form the
benchmark driver calls: one workload, one kind of run, and a last line
of JSON with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:  # run as a script: make the ledger package importable
    sys.path.insert(0, str(ROOT))

from ledger.common import (  # noqa: E402
    END_TO_END, LEDGER, PER_LAYER, REFERENCE_MOPS, SPEC, WORKLOADS,
    clean_env, describe, fingerprint, host_mops,
)

#: Fresh interpreters whose only job is one more reading of set-up time.
EXTRA_SETUPS = 2
#: What the result line carries for a per-layer metric this workload does
#: not measure, or whose probe found its option or module gone (the
#: driver wants a number for every name; the report says which it was).
NOT_MEASURED = -1.0
#: Untraced runs in each of the two sets ``--aa`` compares.
AA_RUNS = 3
#: The driver gives a whole run 180 s; no single interpreter gets more.
CHILD_TIMEOUT = 150
#: Seeds ``--repin`` pins for the one workload whose simulated results
#: depend on the seed: campaign k of a run explores with seed + k.
PIN_SEEDS = {"explore_campaign": range(24)}


class ChildFailed(RuntimeError):
    pass


def child(workload: str, seed: int, mode: str, seconds: float, smoke: bool) -> dict[str, Any]:
    """One fresh interpreter; its set-up clock starts here, before the
    interpreter does.  ``setup_s`` comes back scaled to the reference
    host speed by a reading on each side of the set-up."""
    before = host_mops()
    spec = {
        "workload": workload, "seed": seed, "mode": mode, "seconds": seconds,
        "smoke": smoke, "t0": time.monotonic(),
    }
    try:
        proc = subprocess.run(
            [sys.executable, str(LEDGER / "run.py"), "--child", json.dumps(spec)],
            env=clean_env(), cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT,
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{workload} {mode} child ran past {CHILD_TIMEOUT} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise ChildFailed(f"{workload} {mode} child exited {proc.returncode}")
    got = json.loads(proc.stdout.strip().splitlines()[-1])
    got["setup_s"] *= (before + got["setup_mops"]) / 2 / REFERENCE_MOPS
    return got


def measure(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict[str, Any]:
    """One record: every end-to-end metric (untraced) or every per-layer
    metric (traced) of one workload."""
    record: dict[str, Any] = {
        "workload": workload, "trace": trace, "host": fingerprint(seed), "detail": {},
    }
    if trace:
        got = child(workload, seed, "trace", seconds, smoke)
        metrics = {name: got["metrics"].get(name) for name in PER_LAYER}
        record["not_measured"] = got["not_measured"]
        record["trace_file"] = got["trace_file"]
        record["drift_pinned"] = got["drift_pinned"]
    else:
        setups = [child(workload, seed, "setup", seconds, smoke)["setup_s"]
                  for _ in range(0 if smoke else EXTRA_SETUPS)]
        got = child(workload, seed, "run", seconds, smoke)
        samples = dict(got["samples"], setup_s=setups + [got["setup_s"]])
        metrics = {
            "peak_rss_mb": got["peak_rss_mb"],
            "ok_share": 1.0 - got["failed"] / got["attempted"],
        }
        for name in END_TO_END:
            if samples.get(name):
                metrics[name] = statistics.median(samples[name])
                record["detail"][name] = describe(samples[name])
        metrics = {name: metrics.get(name) for name in END_TO_END}
        record["scale"] = statistics.median(got["scales"])
    record.update(
        metrics=metrics, attempted=got["attempted"], failed=got["failed"],
        failures=got["failures"], calib=got["calib"],
    )
    return record


def show(record: dict[str, Any]) -> None:
    """Every metric of a record by name, with its unit."""
    units = PER_LAYER if record["trace"] else END_TO_END
    host = record["host"]
    kind = "traced" if record["trace"] else "untraced"
    print(
        f"# {record['workload']} ({kind}): git {host['git_sha'][:12]} nproc {host['nproc']} "
        f"python {host['python']} seed {host['seed']} "
        f"host.calib_mops first/last {record['calib'][0]:.3f}/{record['calib'][1]:.3f}"
        + (f", timings x{record['scale']:.3f} (median) to read at {REFERENCE_MOPS} Mops" if not record["trace"] else "")
    )
    for name, value in record["metrics"].items():
        if value is None:
            text = "n/a here" if name in record.get("not_measured", ()) else "skipped"
        else:
            text = f"{value if isinstance(value, int) else format(value, '.6g')} {units[name]['unit']}"
        extra = record["detail"].get(name)
        print(f"{record['workload']:<17} {name:<38} {text}" + (f"   {extra}" if extra else ""))
    print(
        f"{record['workload']:<17} {'ops':<38} {record['attempted']} attempted, "
        f"{record['failed']} failed"
    )
    for why in record["failures"]:
        print(f"{record['workload']:<17} FAILED {why}")
    if record["trace"]:
        print(
            f"{record['workload']:<17} spans and layer split in {record['trace_file']}; "
            f"sim.drift checked {record['drift_pinned']} pinned scenarios"
        )


def result_line(record: dict[str, Any]) -> str:
    """The driver's last line.  A per-layer metric this workload does not
    measure (or whose probe was skipped) reads ``NOT_MEASURED``."""
    units = PER_LAYER if record["trace"] else END_TO_END
    missing = [n for n, v in record["metrics"].items() if v is None]
    if missing and not record["trace"]:
        raise ChildFailed(f"no sample for end-to-end metric(s) {missing}")
    return json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": NOT_MEASURED if value is None else value, "unit": units[name]["unit"]}
            for name, value in record["metrics"].items()
        },
    })


def worse_by(metric: dict[str, Any], first: float, second: float) -> float:
    """How much worse ``second`` reads than ``first``, as a share of
    ``first``; negative when it reads better."""
    change = (second - first) / first
    return change if metric["better"] == "lower" else -change


def run_all(seed: int, seconds: float, aa: bool) -> bool:
    """Every workload, untraced then traced.  With ``aa``, two sets of
    ``AA_RUNS`` untraced runs of the same code, interleaved run by run,
    and their medians held against the benchmark's own bounds."""
    agree = True
    for workload in WORKLOADS:
        sets: tuple[list, ...] = ([], []) if aa else ([],)
        for _ in range(AA_RUNS if aa else 1):
            for records in sets:
                records.append(measure(workload, seed, seconds, trace=False))
                show(records[-1])
        for name, metric in END_TO_END.items() if aa else ():
            a, b = (statistics.median(r["metrics"][name] for r in records) for records in sets)
            gap = max(worse_by(metric, a, b), worse_by(metric, b, a))
            ok = gap <= metric["bound"]
            agree = agree and ok
            print(
                f"A/A {workload:<17} {name:<18} ratio {b / a:.4f} "
                f"gap {gap:.4f} bound {metric['bound']} {'pass' if ok else 'FAIL'}"
            )
        show(measure(workload, seed, seconds, trace=True))
    return agree


def repin() -> None:
    """Rewrite ``expected.json`` from this commit's simulated results."""
    pins: dict[str, Any] = {}
    for workload in WORKLOADS:
        for seed in PIN_SEEDS.get(workload, range(1)):
            sim = child(workload, seed, "pin", 0.0, smoke=False)["sim"]
            for label, got in sim.items():
                pins[label] = {k: got[k] for k in ("events", "e1", "digest")}
            print(f"pinned {workload} seed {seed}: {len(sim)} scenarios", flush=True)
    (LEDGER / "expected.json").write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m ledger.run", description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]))
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--aa", action="store_true", help="two interleaved sets of the same code")
    parser.add_argument("--repin", action="store_true", help="rewrite ledger/expected.json")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print("ledger: no src/repro beside the ledger; nothing to measure", file=sys.stderr)
        return 2
    if args.child:
        from ledger import child as child_module

        child_module.main(json.loads(args.child))
        return 0
    try:
        if args.repin:
            repin()
        elif args.workload:
            record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
            show(record)
            print(result_line(record))
        elif not run_all(args.seed, args.seconds, args.aa):
            return 1
    except ChildFailed as exc:
        print(f"ledger: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
