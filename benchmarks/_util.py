"""Shared helpers for the benchmark suite.

Scale control
-------------
The paper's experiments run 32,768 simulated ranks; the benchmarks default
to a scaled machine so the whole suite completes in minutes.  Environment
variables select the scale:

* ``XSIM_BENCH_RANKS=<n>`` — rank count for the Table II reproduction and
  the heavier ablations (default 512);
* ``XSIM_FULL_SCALE=1``    — the paper-exact 32,768 ranks (tens of minutes
  of host time for the full Table II); any value other than empty/``0``
  counts, as the ``repro.run.envvars`` registry says.

Reporting
---------
``report()`` prints *and* buffers each line; ``benchmarks/conftest.py``
re-emits the buffer in pytest's terminal summary, so the regenerated tables
always appear in ``pytest benchmarks/ --benchmark-only | tee ...`` output
regardless of the capture mode.
"""

from __future__ import annotations

import os

#: Lines accumulated for the end-of-run summary (see conftest.py).
REPORT_BUFFER: list[str] = []


def bench_ranks(default: int = 512) -> int:
    """Rank count for scaled benchmark runs (see module docstring)."""
    if os.environ.get("XSIM_FULL_SCALE", "").strip() not in ("", "0"):
        return 32768
    return int(os.environ.get("XSIM_BENCH_RANKS", default))


def report(*lines: str) -> None:
    """Record (and echo) regenerated-table lines."""
    for line in lines:
        REPORT_BUFFER.append(line)
        print(line)


def once(benchmark, fn, *args, **kwargs):
    """Run an expensive simulation exactly once under pytest-benchmark."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
