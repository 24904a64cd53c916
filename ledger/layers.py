"""Host time by layer, measured from outside: spans around the public
calls the ledger makes, and a cProfile run folded to layers by module
path.

Nothing here touches ``src/``; in-program spans are a later issue.
"""

from __future__ import annotations

import cProfile
import os
import pstats
import time
from pathlib import Path
from typing import Any, Callable

SRC = str(Path(__file__).resolve().parent.parent / "src" / "repro") + os.sep

#: (path prefix under src/repro, layer), first match wins.  Files the
#: issue's layer list does not name fold into the layer that owns their
#: package (pdes/requests -> pdes.context, mpi/communicator -> mpi.api,
#: run/backends -> run.scenario, core/redundancy -> resilience).
_PREFIXES = (
    ("pdes/engine", "pdes.engine"),
    ("pdes/flatcore", "pdes.flatcore"),
    ("pdes/sharded", "pdes.sharded"),
    ("pdes/shmring", "pdes.shmring"),
    ("pdes/", "pdes.context"),
    ("mpi/world", "mpi.world"),
    ("mpi/collectives", "mpi.collectives"),
    ("mpi/messages", "mpi.messages"),
    ("mpi/", "mpi.api"),
    ("models/network/", "models.network"),
    ("apps/", "apps"),
    ("core/checkpoint/", "core.checkpoint"),
    ("core/faults/", "core.faults"),
    ("core/restart", "core.restart"),
    ("core/harness/", "core.harness"),
    ("core/redundancy", "resilience"),
    ("resilience/", "resilience"),
    ("run/sweep", "run.sweep"),
    ("run/", "run.scenario"),
    ("cache/", "cache.store"),
    ("explore/", "explore.sampler"),
)

LAYERS = tuple(dict.fromkeys(layer for _, layer in _PREFIXES)) + ("other",)


def layer_of(filename: str) -> str | None:
    """The layer a source file belongs to; ``None`` for code outside
    ``src/repro`` (stdlib, C builtins, the ledger itself)."""
    if not filename.startswith(SRC):
        return None
    rel = filename[len(SRC):].replace(os.sep, "/")
    for prefix, layer in _PREFIXES:
        if rel.startswith(prefix):
            return layer
    return "other"


class Spans:
    """In-memory spans around the ledger's own calls into the program:
    ``(id, name, start, end, parent id, workload-op id)``.  A span is
    also the ledger's stopwatch, so traced and untraced runs time ops
    the same way; only the traced run writes the spans out."""

    def __init__(self) -> None:
        self.rows: list[dict[str, Any]] = []
        self._stack: list[int] = []
        self.op = 0

    def call(self, name: str, fn: Callable[..., Any], *args: Any, **kw: Any) -> Any:
        """``fn(*args, **kw)`` inside a span; the span is kept (marked
        failed) when the call raises."""
        row = {
            "id": len(self.rows),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "op": self.op,
            "start": time.perf_counter(),
            "end": None,
            "ok": False,
        }
        self.rows.append(row)
        self._stack.append(row["id"])
        try:
            value = fn(*args, **kw)
            row["ok"] = True
            return value
        finally:
            row["end"] = time.perf_counter()
            self._stack.pop()


def fold(profile: cProfile.Profile) -> tuple[dict[str, float], dict[str, int]]:
    """Fold a cProfile run to ``(self-time share, call count)`` per layer.

    A function under ``src/repro`` is charged to its own layer.  Anything
    else (heapq, sqlite3, pickle, hashlib, dataclasses, ...) is charged
    to its nearest ``repro`` caller along the profiler's caller edges —
    each edge carries the callee's self time under that caller, and a
    non-``repro`` caller hands its edges on in proportion to the
    inclusive time it spent under each of *its* callers.  Time no
    ``repro`` frame is above (the ledger's own frames) is ``other``.
    """
    stats = pstats.Stats(profile).stats  # func -> (cc, nc, tt, ct, callers)
    own = {func: layer_of(func[0]) for func in stats}
    memo: dict[tuple, dict[str, float]] = {}

    def owners(func: tuple) -> dict[str, float]:
        """Layer weights (summing to 1) of the repro code above ``func``."""
        layer = own.get(func)
        if layer is not None:
            return {layer: 1.0}
        if func in memo:
            return memo[func]
        memo[func] = {}  # in progress: a cycle back to func adds nothing
        edges = [(owners(c), edge[3]) for c, edge in stats[func][4].items()]
        edges = [(above, ct) for above, ct in edges if above and ct > 0.0]
        total = sum(ct for _, ct in edges)
        out: dict[str, float] = {}
        for above, ct in edges:
            for name, w in above.items():
                out[name] = out.get(name, 0.0) + w * ct / total
        memo[func] = out or {"other": 1.0}
        return memo[func]

    self_time = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    for func, (_cc, nc, tt, _ct, callers) in stats.items():
        layer = own[func]
        if layer is not None:
            self_time[layer] += tt
            calls[layer] += nc
            continue
        charged = 0.0
        for caller, edge in callers.items():
            for name, w in owners(caller).items():
                self_time[name] += w * edge[2]
            charged += edge[2]
        self_time["other"] += tt - charged  # root frames have no caller edge
    total = sum(self_time.values()) or 1.0
    return {k: v / total for k, v in self_time.items()}, calls


def profiled(fn: Callable[[], Any]) -> tuple[dict[str, float], dict[str, int]]:
    """Run ``fn`` under cProfile; returns its ``(shares, calls)`` by layer."""
    profile = cProfile.Profile()
    profile.enable()
    try:
        fn()
    finally:
        profile.disable()
    return fold(profile)
