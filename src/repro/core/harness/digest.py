"""Canonical result fingerprints.

:func:`result_digest` fingerprints one run's observable outcome and
:func:`campaign_digest` a nest of primitives (a restart experiment's
per-segment digests, a Table II sweep, Finject outcome tuples).  They are
what the parity tests compare across execution modes and what the
result cache stores beside every blob.  Standard library
only: every computed run takes a digest, few need the experiment drivers
in :mod:`repro.core.harness.experiment`, which re-exports both.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.pdes.engine import SimulationResult


def result_digest(result: "SimulationResult") -> str:
    """Canonical sha256 fingerprint of one run's observable outcome.

    Covers exit/end/busy times (as exact ``float.hex`` strings — no
    formatting round-off), per-VP states, activated failures, abort
    status, and the event count.  Two runs digest equal iff they are
    bit-identical in every one of those observables, which is what the
    parity tests assert across execution modes (serial vs. sharded,
    advance coalescing on vs. off; ``docs/INTERNALS.md`` section 10).
    """
    h = hashlib.sha256()
    h.update(f"exit {result.exit_time.hex()}\n".encode())
    h.update(f"start {result.start_time.hex()}\n".encode())
    h.update(f"events {result.event_count}\n".encode())
    h.update(f"aborted {int(result.aborted)}\n".encode())
    if result.abort_time is not None:
        h.update(f"abort {result.abort_rank} {result.abort_time.hex()}\n".encode())
    for rank, t in result.failures:
        h.update(f"fail {rank} {t.hex()}\n".encode())
    for rank in sorted(result.states):
        h.update(
            f"vp {rank} {result.states[rank].value} "
            f"{result.end_times[rank].hex()} {result.busy_times[rank].hex()}\n".encode()
        )
    return h.hexdigest()


def campaign_digest(values: Any) -> str:
    """sha256 over an arbitrary nest of primitives/lists/tuples/dicts,
    with floats rendered via ``float.hex`` and dict keys sorted — the
    canonical fingerprint for campaign result lists (Table II sweeps,
    Finject outcome tuples)."""
    h = hashlib.sha256()

    def feed(v: Any) -> None:
        if isinstance(v, float):
            h.update(f"f:{v.hex()};".encode())
        elif isinstance(v, (bool, int, str)) or v is None:
            h.update(f"{type(v).__name__}:{v!r};".encode())
        elif isinstance(v, (list, tuple)):
            h.update(b"[")
            for item in v:
                feed(item)
            h.update(b"]")
        elif isinstance(v, dict):
            h.update(b"{")
            for k in sorted(v, key=repr):
                h.update(f"k:{k!r}=".encode())
                feed(v[k])
            h.update(b"}")
        else:
            h.update(f"o:{v!r};".encode())

    feed(values)
    return h.hexdigest()
