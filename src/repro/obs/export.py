"""Deterministic exporters for observer events.

Two formats, both derived from the same canonical ordering:

* **Chrome trace-event JSON** (``.json``) — loadable in Perfetto or
  ``chrome://tracing``.  Sim-domain events land in a "simulation
  (virtual time)" process with one thread track per rank plus
  ``resilience``/``simulator`` tracks; virtual seconds are mapped to
  trace microseconds.
* **JSONL** (``.jsonl``) — one canonical JSON object per event; the
  lossless interchange format (:func:`load_events` round-trips it
  exactly; ``pandas.read_json(path, lines=True)`` reads it as a table).

A ``.csv`` destination is refused (:func:`check_export_path`): there is
no CSV writer, and writing Chrome JSON under that name would mislead.

Determinism contract: output is a pure function of the event *multiset*.
Events are sorted by :meth:`ObsEvent.sort_key` (full content) before
serialization and dict keys are emitted sorted, so a sharded run — whose
workers collect events in shard-local order — exports byte-identically to
the serial run.  Host-domain (wall clock) events are inherently
nondeterministic and excluded unless ``include_host=True``.
"""

from __future__ import annotations

import json
from typing import Iterable

from repro.obs.events import HOST, INSTANT, SIM, SPAN, ObsEvent
from repro.util.errors import ConfigurationError

#: Chrome trace process ids for the two event domains.
_PID = {SIM: 1, HOST: 2}
_PROCESS_NAME = {SIM: "simulation (virtual time)", HOST: "execution (wall clock)"}


def _track_order(track: str) -> tuple:
    """Display order for tracks: ranks numerically, then the rest."""
    if track.startswith("rank "):
        tail = track[5:]
        if tail.isdigit():
            return (0, int(tail), "")
    if track == "resilience":
        return (1, 0, "")
    if track == "simulator":
        return (2, 0, "")
    return (3, 0, track)


def _as_events(events: "Iterable[ObsEvent] | object") -> list[ObsEvent]:
    """Accept an Observer or any iterable of events."""
    inner = getattr(events, "events", events)
    return list(inner)


def canonical_events(
    events: Iterable[ObsEvent], include_host: bool = False
) -> list[ObsEvent]:
    """Filter to the exported domains and sort by full content."""
    kept = [
        e for e in _as_events(events) if include_host or e.domain == SIM
    ]
    kept.sort(key=ObsEvent.sort_key)
    return kept


# -- Chrome trace-event JSON ---------------------------------------------
def to_chrome(events: Iterable[ObsEvent], include_host: bool = False) -> str:
    """Render events as a Chrome trace-event JSON document."""
    ordered = canonical_events(events, include_host=include_host)

    # Stable tid assignment per (domain, track), in display order.
    tracks: dict[tuple[str, str], int] = {}
    for domain in (SIM, HOST):
        names = sorted(
            {e.track for e in ordered if e.domain == domain}, key=_track_order
        )
        for tid, name in enumerate(names, start=1):
            tracks[(domain, name)] = tid

    trace_events: list[dict] = []
    for domain in (SIM, HOST):
        pid = _PID[domain]
        if not any(d == domain for d, _ in tracks):
            continue
        trace_events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": _PROCESS_NAME[domain]},
            }
        )
        for (d, track), tid in sorted(tracks.items(), key=lambda kv: kv[1]):
            if d != domain:
                continue
            trace_events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": track},
                }
            )
            trace_events.append(
                {
                    "name": "thread_sort_index",
                    "ph": "M",
                    "pid": pid,
                    "tid": tid,
                    "args": {"sort_index": tid},
                }
            )

    for e in ordered:
        args = dict(e.args)
        if e.rank is not None:
            args["rank"] = e.rank
        record: dict = {
            "name": e.name,
            "cat": e.domain,
            "pid": _PID[e.domain],
            "tid": tracks[(e.domain, e.track)],
            "ts": e.start * 1e6,
        }
        if e.kind == SPAN:
            record["ph"] = "X"
            record["dur"] = e.duration * 1e6
        else:
            record["ph"] = "i"
            record["s"] = "t"
        if args:
            record["args"] = args
        trace_events.append(record)

    doc = {"traceEvents": trace_events, "displayTimeUnit": "ms"}
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


# -- JSONL ----------------------------------------------------------------
def _event_obj(e: ObsEvent) -> dict:
    return {
        "domain": e.domain,
        "kind": e.kind,
        "track": e.track,
        "name": e.name,
        "start": e.start,
        "duration": e.duration,
        "rank": e.rank,
        "args": dict(e.args),
    }


def to_jsonl(events: Iterable[ObsEvent], include_host: bool = False) -> str:
    """One canonical JSON object per line; lossless (see load_events)."""
    lines = [
        json.dumps(_event_obj(e), sort_keys=True, separators=(",", ":"))
        for e in canonical_events(events, include_host=include_host)
    ]
    return "\n".join(lines) + ("\n" if lines else "")


# -- dispatch -------------------------------------------------------------
def check_export_path(path: str) -> None:
    """Refuse a ``--trace-out`` destination no exporter writes (``.csv``);
    the CLI calls this before the run, :func:`write_export` again."""
    if path.lower().endswith(".csv"):
        raise ConfigurationError(
            f"--trace-out {path}: there is no CSV trace export; "
            "write .jsonl (one JSON object per event) or .json (Chrome trace)"
        )


def write_export(
    events: "Iterable[ObsEvent] | object", path: str, include_host: bool = False
) -> int:
    """Write events to ``path``, format chosen by extension.

    ``.jsonl`` -> JSONL, ``.csv`` refused (:func:`check_export_path`),
    anything else (canonically ``.json``) -> Chrome trace-event JSON.
    Returns the number of events exported.
    """
    check_export_path(path)
    resolved = _as_events(events)
    if path.lower().endswith(".jsonl"):
        text = to_jsonl(resolved, include_host=include_host)
    else:
        text = to_chrome(resolved, include_host=include_host)
    with open(path, "w") as fh:
        fh.write(text)
    return len(canonical_events(resolved, include_host=include_host))


# -- loading --------------------------------------------------------------
def load_events(path: str) -> list[ObsEvent]:
    """Load events back from an exported file (chrome JSON or JSONL).

    JSONL round-trips exactly.  Chrome JSON stores timestamps in
    microseconds, so start/duration are recovered to within float
    rescaling error — fine for reports, not for byte-level comparison.
    A file that cannot be read, or is not an export, raises
    :class:`~repro.util.errors.ConfigurationError` naming it.
    """
    try:
        with open(path) as fh:
            return _parse(fh.read())
    except OSError as exc:
        raise ConfigurationError(f"cannot read {path}: {exc.strerror or exc}") from None
    except (ValueError, KeyError, TypeError) as exc:
        what = f"no {exc} field" if isinstance(exc, KeyError) else str(exc)
        raise ConfigurationError(
            f"{path} is not an event export written by --trace-out ({what})"
        ) from None


def _parse(text: str) -> list[ObsEvent]:
    stripped = text.lstrip()
    try:
        doc = json.loads(stripped)
    except json.JSONDecodeError:
        doc = None  # multiple JSON lines -> JSONL
    if isinstance(doc, dict) and "traceEvents" in doc:
        return _from_chrome(doc)
    return [_from_obj(json.loads(line)) for line in text.splitlines() if line.strip()]


def _from_obj(obj: dict) -> ObsEvent:
    return ObsEvent(
        domain=obj["domain"],
        kind=obj["kind"],
        track=obj["track"],
        name=obj["name"],
        start=obj["start"],
        duration=obj["duration"],
        rank=obj["rank"],
        args=tuple(sorted((str(k), v) for k, v in obj.get("args", {}).items())),
    )


def _from_chrome(doc: dict) -> list[ObsEvent]:
    domains = {pid: domain for domain, pid in _PID.items()}
    track_names: dict[tuple[int, int], str] = {}
    for rec in doc.get("traceEvents", ()):
        if rec.get("ph") == "M" and rec.get("name") == "thread_name":
            track_names[(rec["pid"], rec["tid"])] = rec["args"]["name"]
    out = []
    for rec in doc.get("traceEvents", ()):
        ph = rec.get("ph")
        if ph not in ("X", "i"):
            continue
        args = dict(rec.get("args", {}))
        rank = args.pop("rank", None)
        out.append(
            ObsEvent(
                domain=domains.get(rec["pid"], rec.get("cat", SIM)),
                kind=SPAN if ph == "X" else INSTANT,
                track=track_names.get((rec["pid"], rec["tid"]), "unknown"),
                name=rec["name"],
                start=rec["ts"] / 1e6,
                duration=rec.get("dur", 0.0) / 1e6,
                rank=rank,
                args=tuple(sorted((str(k), v) for k, v in args.items())),
            )
        )
    return out
