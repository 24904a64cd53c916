"""The content-addressed result store behind :mod:`repro.cache`.

A cache directory holds one SQLite file, in WAL mode, and nothing else::

    <root>/index.sqlite3   (+ its -wal and -shm)
        entries(key, ..., nbytes, blob_sha, ...)   one index row per outcome
        blobs(key, data)                           that outcome's blob

A **blob** is ``magic | head length | head | body``.  The **head** is
canonical JSON of primitives — format, mode, result digest, the original
compute wall time, the execution metadata and every result-derived fact
an outcome's ``summary()`` and run report print
(:func:`~repro.run.backends.outcome_facts`).
The **body** is everything else a hit must reproduce bit-identically,
pickled: the stripped :class:`~repro.pdes.engine.SimulationResult` (or
the full :class:`~repro.core.restart.FailureRunResult` of a restart
experiment) and the run's sim-domain :class:`~repro.obs.ObsEvent` list
(so warm exporter bytes equal cold ones).  The **index** row maps a
cache key to the entry's result digest, blob size, SHA-256 of the raw
blob bytes, creation/last-hit times, and hit count.  The blob has a
table of its own because every hit rewrites its index row (hit count,
last hit): in one record with the bytes, that rewrite copies the blob.

Concurrency: SQLite runs in WAL mode with a generous busy timeout, every
process gets its own connection (connections are keyed by pid, so a
forked campaign worker transparently reopens), and a store writes the
blob and its index row inside one ``BEGIN IMMEDIATE`` transaction — two
`-j` workers or two concurrent CLI invocations sharing one cache
directory cannot corrupt it, the worst case is both computing the same
cell and the later blob-and-row pair replacing the earlier.  A store
killed or failing before its COMMIT leaves nothing behind: SQLite rolls
the transaction back, and no file outside the index was written.  Every
deletion removes both rows in one transaction.

Correctness before speed — verified before decoded: a lookup reads the
index row and the blob in one read transaction, compares the blob's size
and then the SHA-256 of its raw bytes against the row *before any byte
reaches a decoder*, then parses the head and holds
its result digest against the row's.  That answers ``digest()``,
``summary()``, ``completed`` and ``metadata``.  The body decodes only
from verified bytes and only through an unpickler that resolves nothing
but classes defined in ``repro`` modules and a few builtin value types —
no function, no ``os.system``.  A blob of at most
:data:`EAGER_DECODE_BYTES` decodes its body at lookup, so the hit is
complete when returned — provided the process has already imported the
classes a body holds (it has computed a run); a larger one (where the
decode would be most of the answer), or any blob in a process that has
only looked answers up (where the decode would first import the
simulator), when ``result`` / ``run`` / ``observer`` are first asked
for.  Any failed check — a truncated, missing or rewritten blob, a
stale index row, a head that does not parse, a small body that does not
decode — demotes the entry to a miss (both rows deleted, a
``RuntimeWarning`` emitted, the caller recomputes and re-stores); a
large body that will not decode after its hash held is demoted the same
way and the outcome recomputes itself.  Re-deriving the result digest
from the decoded objects is an audit, not a hit-path step: ``cache
verify`` and the ``cache-parity`` simcheck do it.  A schema-version
mismatch disables the cache for the process instead of guessing at the
on-disk format (version 1 and 2 directories, whose blobs were files
beside the index, are refused this way; delete the directory to rebuild).
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import pickle
import sqlite3
import sys
import time as _time
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.run.backends import ScenarioOutcome
    from repro.run.scenario import Scenario

#: On-disk format version (index schema + blob layout).  A cache
#: directory written by a different version is never read or written —
#: the open is disabled with a warning and every lookup is a miss.
CACHE_SCHEMA_VERSION = 3

#: Simulation-semantics salt.  Part of every cache key next to the package
#: version: bump it when the engine's observable behavior changes without
#: a version bump, and every old entry silently becomes a miss instead of
#: serving results the current code would not reproduce.
ENGINE_SALT = "pdes-3"


def cache_salt() -> str:
    """The invalidation salt mixed into every cache key."""
    from repro import __version__

    return f"schema={CACHE_SCHEMA_VERSION};version={__version__};engine={ENGINE_SALT}"


def cacheable(scenario: "Scenario") -> bool:
    """Whether a scenario's outcome can be served from the cache.

    ``record_events`` runs are excluded: their purpose is the live
    ``sim.event_trace`` object (record/replay debugging), which a cache
    hit cannot supply.
    """
    return not scenario.record_events


def cache_key(scenario: "Scenario") -> str:
    """Content address of a scenario's *result*.

    Execution-parallelism fields (backend, shards, shard transport, the
    campaign ``jobs`` width) and the trace destination path are
    normalized out before digesting: the simcheck parity harness
    enforces that they never change the result, so a cell computed
    serially must hit for the same cell requested on a sharded backend —
    that cross-backend sharing is most of a mixed sweep's hit rate.
    Result-relevant fields (machine, app, resilience, seed) and the
    instrumentation switches that change the cached blob (``observe``,
    ``trace_detail``, ``check``) stay in the key; what the engine itself
    computes is covered by :data:`ENGINE_SALT`, not by a field.
    """
    # Computed once per scenario instance and salt (a lookup and the store
    # that follows its miss ask for the same key), beside the fields like
    # the scenario's own digest.
    salt = cache_salt()
    memo = scenario.__dict__.get("_cache_key")
    if memo is None or memo[0] != salt:
        normalized = scenario.digest_with(
            backend=None, shards=1, shard_transport=None, jobs=1, trace_out=""
        )
        key = hashlib.sha256(f"{salt}\n{normalized}".encode()).hexdigest()
        memo = scenario.__dict__["_cache_key"] = (salt, key)
    return memo[1]


# ----------------------------------------------------------------------
# blob format: magic | head length | head (JSON) | body (pickle)
# ----------------------------------------------------------------------
_MAGIC = b"XSIMRC2\n"
_HEAD_AT = len(_MAGIC) + 4  # a 4-byte big-endian head length follows the magic

#: A blob up to this size has its body decoded at lookup: that costs at
#: most ~4 ms and the hit is complete when it is returned — a body that
#: will not decode is an ordinary miss, recomputed and re-stored by the
#: run path.  A larger blob (past ~4,400 heat3d ranks) keeps its body
#: undecoded until ``result`` / ``run`` / ``observer`` are first asked
#: for: there the decode would be most of the answer (7 ms of 8 at
#: 8,000 ranks, 36 ms of 38 at 32,768) and a sweep never asks.
EAGER_DECODE_BYTES = 256 * 1024

#: Page size of a schema-3 index, fixed when the file is created.  A
#: cell's store and a hit's bookkeeping each write a handful of pages to
#: the WAL: at 16 KiB they cost half as much again, and a large blob
#: reads no faster (docs/INTERNALS.md §15 has the measurements, and why
#: the index is not memory-mapped).
_PAGE_SIZE = 4096

#: How often a new connection asks for WAL mode before giving up (the
#: waits add up to ~0.4 s).
_WAL_SWITCH_TRIES = 20

#: Every body holds a ``SimulationResult``: until this module is loaded,
#: decoding one means importing the simulator runtime (~0.25 s) — more
#: than the whole of a warm CLI sweep, which never reads a body.
_BODY_CLASSES_MODULE = "repro.pdes.engine"


def _canonical_json(value: Any) -> bytes:
    return json.dumps(value, sort_keys=True, separators=(",", ":")).encode()


def _strip_result(result):
    """A picklable SimulationResult: same observable content, log stream
    detached (streams are process-local file objects) — the result itself
    when it has none."""
    if result.log.stream is None:
        return result
    return replace(result, log=replace(result.log, stream=None))


def _strip_run(run):
    """A picklable FailureRunResult (per-segment log streams detached) —
    the run itself when no segment logs to a stream."""
    if all(seg.result.log.stream is None for seg in run.segments):
        return run
    segments = [replace(seg, result=_strip_result(seg.result)) for seg in run.segments]
    return replace(run, segments=segments)


def encode_blob(outcome: "ScenarioOutcome", wall_s: float) -> tuple[bytes, dict]:
    """The blob bytes for one computed outcome, and the head inside them."""
    head = {
        "format": CACHE_SCHEMA_VERSION,
        "mode": outcome.mode,
        "result_digest": outcome.digest(),
        "wall_s": float(wall_s),
        "metadata": dict(outcome.metadata),
        "facts": outcome.facts(),
    }
    head_bytes = _canonical_json(head)
    body = pickle.dumps(
        (
            None if outcome.result is None else _strip_result(outcome.result),
            None if outcome.run is None else _strip_run(outcome.run),
            None if outcome.observer is None else list(outcome.observer.sim_events()),
        ),
        protocol=pickle.HIGHEST_PROTOCOL,
    )
    blob = b"".join((_MAGIC, len(head_bytes).to_bytes(4, "big"), head_bytes, body))
    return blob, head


def _verified_head(
    data: bytes, nbytes: int, blob_sha: str, result_digest: str
) -> tuple[dict, int]:
    """The head of a blob checked against its index row, and the offset
    its body starts at.  Order: size, SHA-256 of the raw bytes, and only
    then the first decoder (magic, head length, JSON, format, shape),
    then the head's digest against the row's.  Raises ``ValueError``
    naming the first check that failed."""
    if len(data) != nbytes:
        raise ValueError(
            f"blob size {len(data)} != indexed {nbytes} (truncated or stale blob)"
        )
    sha = hashlib.sha256(data).hexdigest()
    if sha != blob_sha:
        raise ValueError(
            f"blob hash {sha[:16]} != indexed {str(blob_sha)[:16]} "
            "(damaged or stale blob)"
        )
    if len(data) < _HEAD_AT or data[: len(_MAGIC)] != _MAGIC:
        raise ValueError("blob head undecodable: bad magic")
    body_at = _HEAD_AT + int.from_bytes(data[len(_MAGIC) : _HEAD_AT], "big")
    if body_at > len(data):
        raise ValueError("blob head undecodable: head length runs past the blob")
    try:
        head = json.loads(data[_HEAD_AT:body_at])
    except ValueError as exc:
        raise ValueError(f"blob head undecodable: {exc}") from exc
    if not isinstance(head, dict) or head.get("format") != CACHE_SCHEMA_VERSION:
        raise ValueError("blob head undecodable: unexpected format")
    from repro.run.backends import FACT_KEYS

    mode, facts = head.get("mode"), head.get("facts")
    if (
        mode not in FACT_KEYS
        or not isinstance(facts, dict)
        or facts.keys() != FACT_KEYS[mode]
        or not isinstance(head.get("metadata"), dict)
        or not isinstance(head.get("wall_s"), float)
    ):
        raise ValueError("blob head undecodable: unexpected shape")
    if head.get("result_digest") != result_digest:
        raise ValueError(
            f"head digest {str(head.get('result_digest'))[:16]} != indexed "
            f"{str(result_digest)[:16]} (stale index row)"
        )
    return head, body_at


#: Value types an exit value may hold beside ``repro`` classes.
_BODY_VALUE_TYPES = frozenset(
    {("builtins", n) for n in ("bytearray", "complex", "frozenset", "range", "set", "slice")}
    | {("collections", n) for n in ("OrderedDict", "deque")}
)


class _BodyUnpickler(pickle.Unpickler):
    """Decodes a blob body.  Resolves only classes defined in the
    ``repro`` module the pickle names (result records, enums) and the
    value types above — never a function, never a dotted path into a
    module's imports — so the most a body can call is the constructor of
    a class ``repro`` itself defines."""

    def find_class(self, module: str, name: str) -> Any:
        if (module, name) in _BODY_VALUE_TYPES:
            return super().find_class(module, name)
        if module.startswith("repro.") and "." not in name:
            found = super().find_class(module, name)
            if isinstance(found, type) and found.__module__ == module:
                return found
        raise pickle.UnpicklingError(f"{module}.{name} is not an allowed body class")


def _decode_body(data: bytes, body_at: int) -> tuple:
    """``(result, run, sim_events)`` of a blob whose raw hash already held."""
    stream = io.BytesIO(data)
    stream.seek(body_at)
    result, run, sim_events = _BodyUnpickler(stream).load()
    return result, run, sim_events


# ----------------------------------------------------------------------
# stats
# ----------------------------------------------------------------------
@dataclass
class CacheStats:
    """Per-process cache counters.

    ``lookup_s``/``store_s`` accumulate host wall time spent in the cache
    itself: the lookup latency a warm sweep pays instead of simulation
    time.
    """

    hits: int = 0
    misses: int = 0
    stores: int = 0
    corrupt: int = 0
    store_errors: int = 0
    hit_bytes: int = 0
    store_bytes: int = 0
    lookup_s: float = 0.0
    store_s: float = 0.0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        n = self.lookups
        return self.hits / n if n else 0.0

    def as_record(self) -> dict[str, Any]:
        """Primitive dict for records and reports."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "corrupt": self.corrupt,
            "store_errors": self.store_errors,
            "hit_bytes": self.hit_bytes,
            "store_bytes": self.store_bytes,
            "hit_rate": round(self.hit_rate, 4),
            "lookup_s": round(self.lookup_s, 6),
            "store_s": round(self.store_s, 6),
            "lookup_mean_s": round(self.lookup_s / self.lookups, 6) if self.lookups else 0.0,
        }


@dataclass
class GcResult:
    """What one :meth:`ResultCache.gc` pass removed and kept."""

    removed: list[tuple[str, str]] = field(default_factory=list)
    """(key, reason) pairs in eviction order; reason is "age" or "bytes"."""
    freed_bytes: int = 0
    kept: int = 0
    kept_bytes: int = 0


@dataclass
class VerifyIssue:
    """One entry :meth:`ResultCache.verify` found unservable."""

    key: str
    problem: str


_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS blobs (
    key  TEXT PRIMARY KEY,
    data BLOB NOT NULL
);
CREATE TABLE IF NOT EXISTS entries (
    key             TEXT PRIMARY KEY,
    scenario_digest TEXT NOT NULL,
    result_digest   TEXT NOT NULL,
    mode            TEXT NOT NULL,
    nbytes          INTEGER NOT NULL,
    blob_sha        TEXT NOT NULL,
    wall_s          REAL NOT NULL,
    created         REAL NOT NULL,
    last_hit        REAL NOT NULL,
    hits            INTEGER NOT NULL DEFAULT 0
);
CREATE INDEX IF NOT EXISTS entries_last_hit ON entries(last_hit);
"""


class ResultCache:
    """One content-addressed result store rooted at a directory.

    The object is safe to share across forked workers: connections are
    opened lazily per pid, and all cross-process coordination happens in
    SQLite (WAL) transactions.  :attr:`stats` counts this
    process's traffic only.
    """

    def __init__(self, root: "str | Path") -> None:
        self.root = Path(root)
        self.db_path = self.root / "index.sqlite3"
        self.stats = CacheStats()
        self._conns: dict[int, sqlite3.Connection] = {}
        #: Set when the on-disk cache cannot be used (schema mismatch,
        #: unwritable directory); every lookup misses, every store no-ops.
        self.disabled_reason: str | None = None
        self._warned_disabled = False
        #: Last corruption note, popped by the runner to SimLog it.
        self._pending_warning: str | None = None
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            self._init_schema()
        except (OSError, sqlite3.Error) as exc:
            self.disabled_reason = f"cache directory unusable: {exc}"

    # ------------------------------------------------------------------
    # connections & schema
    # ------------------------------------------------------------------
    def _conn(self) -> sqlite3.Connection:
        pid = os.getpid()
        conn = self._conns.get(pid)
        if conn is None:
            conn = sqlite3.connect(str(self.db_path), timeout=30.0, isolation_level=None)
            if not conn.execute("PRAGMA page_count").fetchone()[0]:
                # A new index: both are fixed by its first write (the
                # switch to WAL below), and on an existing one the second
                # would take the write lock to rewrite its header.
                conn.execute(f"PRAGMA page_size={_PAGE_SIZE}")
                conn.execute("PRAGMA auto_vacuum=INCREMENTAL")
            for attempt in range(_WAL_SWITCH_TRIES):
                try:
                    conn.execute("PRAGMA journal_mode=WAL")
                    break
                except sqlite3.OperationalError:
                    # Another handle is creating this index right now: the
                    # switch to WAL wants the file to itself, and SQLite
                    # refuses at once instead of waiting (no busy handler
                    # where waiting could deadlock).  The other side needs
                    # well under a millisecond; without this a ``-j``
                    # worker opening a fresh directory beside its sibling
                    # ran with its cache disabled.
                    if attempt == _WAL_SWITCH_TRIES - 1:
                        raise
                    _time.sleep(0.002 * (attempt + 1))
            conn.execute("PRAGMA synchronous=NORMAL")
            conn.execute("PRAGMA busy_timeout=10000")
            self._conns[pid] = conn
        return conn

    def _init_schema(self) -> None:
        conn = self._conn()
        try:
            row = conn.execute("SELECT value FROM meta WHERE key = 'schema'").fetchone()
        except sqlite3.OperationalError:  # no meta table: a new index
            row = None
        if row is None:
            # Only a directory without a schema is given one: a foreign
            # version's index is refused below, not written to.
            conn.executescript(_SCHEMA)
            conn.execute(
                "INSERT OR IGNORE INTO meta (key, value) VALUES ('schema', ?)",
                (str(CACHE_SCHEMA_VERSION),),
            )
            # A racing creator may have won the INSERT; re-read to agree.
            row = conn.execute("SELECT value FROM meta WHERE key = 'schema'").fetchone()
        if row is not None and row[0] != str(CACHE_SCHEMA_VERSION):
            self.disabled_reason = (
                f"cache schema version {row[0]} != supported "
                f"{CACHE_SCHEMA_VERSION}; falling back to recomputation "
                f"(delete {self.root} to rebuild)"
            )

    def _check_enabled(self) -> bool:
        if self.disabled_reason is None:
            return True
        if not self._warned_disabled:
            warnings.warn(self.disabled_reason, RuntimeWarning, stacklevel=3)
            self._pending_warning = self.disabled_reason
            self._warned_disabled = True
        return False

    # ------------------------------------------------------------------
    # lookup / store
    # ------------------------------------------------------------------
    def lookup(self, scenario: "Scenario") -> "ScenarioOutcome | None":
        """The cached outcome for ``scenario``, or ``None`` (a miss).

        Any unservable entry — truncated, missing or rewritten blob, a
        head that does not parse, a digest that disagrees with the index,
        a small body that does not decode — is deleted, warned about, and
        reported as a miss; the cache
        never raises into the run path and never decodes bytes whose raw
        hash it has not checked against the index.
        """
        t0 = _time.perf_counter()
        try:
            hit = self._lookup(scenario)
            if hit is None:
                self.stats.misses += 1
            return hit
        finally:
            self.stats.lookup_s += _time.perf_counter() - t0

    def _lookup(self, scenario: "Scenario") -> "ScenarioOutcome | None":
        if not cacheable(scenario) or not self._check_enabled():
            return None
        key = cache_key(scenario)
        try:
            row = self._read_entry(key)
        except sqlite3.Error as exc:
            self._corrupt(key, f"index read failed: {exc}", drop_row=False)
            return None
        if row is None:
            return None
        *indexed, data = row
        if data is None:
            self._corrupt(key, "blob missing: the entry has no blobs row")
            return None
        try:
            head, body_at = _verified_head(data, *indexed)
        except ValueError as exc:
            self._corrupt(key, str(exc))
            return None
        decoded = None
        if len(data) <= EAGER_DECODE_BYTES and _BODY_CLASSES_MODULE in sys.modules:
            try:
                decoded = _decode_body(data, body_at)
            except Exception as exc:  # noqa: BLE001 - any decode failure is damage
                self._corrupt(key, f"blob body undecodable: {exc}")
                return None
        try:
            self._conn().execute(
                "UPDATE entries SET hits = hits + 1, last_hit = ? WHERE key = ?",
                (_time.time(), key),
            )
        except sqlite3.Error:
            pass  # hit bookkeeping is best-effort; the blob is good
        self.stats.hits += 1
        self.stats.hit_bytes += len(data)
        from repro.run.backends import ScenarioOutcome

        metadata = dict(head["metadata"])
        metadata["cache_hit"] = True
        metadata["cache_key"] = key
        metadata["cache_wall_s"] = head["wall_s"]
        nbytes, hit_time = len(data), _time.perf_counter()
        if decoded is not None:
            load = lambda: self._hit_objects(scenario, key, nbytes, hit_time, decoded)  # noqa: E731
        else:
            load = lambda: self._load_body(scenario, key, data, body_at, hit_time)  # noqa: E731
        return ScenarioOutcome.from_cache(
            scenario, head["mode"], head["result_digest"], head["facts"], metadata, load
        )

    def _read_entry(self, key: str) -> tuple | None:
        """``(nbytes, blob_sha, result_digest, blob bytes)`` of ``key``'s
        entry — the bytes ``None`` when its blobs row is missing — or
        ``None`` without an entry.  Row and blob come from one read
        transaction, so a store replacing both meanwhile is seen whole or
        not at all.  The blob is read through an incremental-I/O handle
        into one buffer: a ``SELECT`` of the column fills SQLite's buffer
        and then Python's, and two large buffers freed together are given
        back to the system and page-faulted in again on the next hit."""
        conn = self._conn()
        conn.execute("BEGIN")
        with conn:
            row = conn.execute(
                "SELECT e.nbytes, e.blob_sha, e.result_digest, b.rowid "
                "FROM entries e LEFT JOIN blobs b ON b.key = e.key WHERE e.key = ?",
                (key,),
            ).fetchone()
            if row is None:
                return None
            *indexed, rowid = row
            if rowid is None:
                return (*indexed, None)
            with conn.blobopen("blobs", "data", rowid, readonly=True) as blob:
                return (*indexed, blob.read())

    def _load_body(
        self, scenario: "Scenario", key: str, data: bytes, body_at: int, hit_time: float
    ) -> tuple:
        """``(result, run, observer)`` of a large hit, decoded on first
        access.  A body that will not decode although its hash held
        (allow-list refusal, class drift) is demoted like any other
        damage and the objects are recomputed from the scenario instead."""
        try:
            decoded = _decode_body(data, body_at)
        except Exception as exc:  # noqa: BLE001 - any decode failure is damage
            self._corrupt(key, f"blob body undecodable: {exc}")
            from repro.run.backends import run_scenario

            fresh = run_scenario(scenario, cache=False)
            fresh.last_result.log.log(0.0, "cache", self.pop_warning(), level="warning")
            return fresh.result, fresh.run, fresh.observer
        return self._hit_objects(scenario, key, len(data), hit_time, decoded)

    def _hit_objects(
        self, scenario: "Scenario", key: str, nbytes: int, hit_time: float, decoded: tuple
    ) -> tuple:
        """``(result, run, observer)`` from a decoded body: the observer
        rebuilt from the stored sim-domain events plus this hit's instant."""
        result, run, sim_events = decoded
        observer = None
        if scenario.observe and sim_events is not None:
            from repro.obs import Observer

            observer = Observer(detail=scenario.trace_detail)
            observer.extend(sim_events)
            observer.host_instant(
                hit_time, "cache-hit", track="cache",
                args={"key": key[:16], "bytes": nbytes},
            )
        return result, run, observer

    def store(
        self, scenario: "Scenario", outcome: "ScenarioOutcome", wall_s: float = 0.0
    ) -> bool:
        """Memoize one computed outcome; returns True when stored.

        Never raises into the run path: an unpicklable outcome or a full
        disk degrades to "not cached" with a warning.
        """
        t0 = _time.perf_counter()
        try:
            if not cacheable(scenario) or not self._check_enabled():
                return False
            key = cache_key(scenario)
            try:
                data, head = encode_blob(outcome, wall_s)
                now = _time.time()
                row = (
                    key,
                    scenario.scenario_digest(),
                    head["result_digest"],
                    head["mode"],
                    len(data),
                    hashlib.sha256(data).hexdigest(),
                    head["wall_s"],
                    now,
                    now,
                )
                # The blob and the row that hashes it land inside one
                # write transaction: two processes storing the same cell
                # (their blobs differ in wall time) cannot leave one's
                # blob under the other's row, and a store that dies
                # before its COMMIT leaves neither.
                conn = self._conn()
                conn.execute("BEGIN IMMEDIATE")
                with conn:  # COMMIT, or ROLLBACK if an INSERT raises
                    conn.execute(
                        "INSERT OR REPLACE INTO blobs (key, data) VALUES (?, ?)", (key, data)
                    )
                    conn.execute(
                        "INSERT OR REPLACE INTO entries "
                        "(key, scenario_digest, result_digest, mode, nbytes, blob_sha, "
                        " wall_s, created, last_hit, hits) "
                        "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, 0)",
                        row,
                    )
            except Exception as exc:  # noqa: BLE001 - degrade, never fail the run
                self.stats.store_errors += 1
                warnings.warn(
                    f"result cache store failed for {key[:16]}: {exc}",
                    RuntimeWarning,
                    stacklevel=2,
                )
                return False
            self.stats.stores += 1
            self.stats.store_bytes += len(data)
            return True
        finally:
            self.stats.store_s += _time.perf_counter() - t0

    def _corrupt(self, key: str, problem: str, drop_row: bool = True) -> None:
        """Demote a damaged entry: drop index row + blob, warn once per
        event, and remember the note for the runner's SimLog."""
        self.stats.corrupt += 1
        message = f"result cache entry {key[:16]} unusable ({problem}); recomputing"
        warnings.warn(message, RuntimeWarning, stacklevel=4)
        self._pending_warning = message
        if drop_row:
            try:
                self._delete([key])
            except sqlite3.Error:
                pass

    def _delete(self, keys: list[str]) -> None:
        """Both rows of every key, in one write transaction."""
        conn = self._conn()
        conn.execute("BEGIN IMMEDIATE")
        with conn:
            for table in ("entries", "blobs"):
                conn.executemany(f"DELETE FROM {table} WHERE key = ?", [(k,) for k in keys])

    def _give_back(self) -> None:
        """Freed pages returned to the file system: the index file is cut
        to what its rows use and the WAL emptied (a reader in flight may
        keep either from shrinking until the next call)."""
        conn = self._conn()
        conn.execute("PRAGMA incremental_vacuum").fetchall()
        conn.execute("PRAGMA wal_checkpoint(TRUNCATE)").fetchall()

    def pop_warning(self) -> str | None:
        """The last corruption/disable note (cleared on read) — the
        runner logs it into the recomputed run's SimLog."""
        note, self._pending_warning = self._pending_warning, None
        return note

    # ------------------------------------------------------------------
    # maintenance (CLI: cache stats / verify / gc)
    # ------------------------------------------------------------------
    def entries(self) -> list[dict[str, Any]]:
        """Every index row, LRU-first (the gc eviction order)."""
        rows = self._conn().execute(
            "SELECT key, scenario_digest, result_digest, mode, nbytes, blob_sha, "
            "wall_s, created, last_hit, hits FROM entries "
            "ORDER BY last_hit ASC, created ASC, key ASC"
        ).fetchall()
        names = (
            "key", "scenario_digest", "result_digest", "mode", "nbytes",
            "blob_sha", "wall_s", "created", "last_hit", "hits",
        )
        return [dict(zip(names, r)) for r in rows]

    def index_stats(self) -> dict[str, Any]:
        """Aggregate index statistics for ``xsim-run cache stats``."""
        conn = self._conn()
        n, nbytes, hits, wall = conn.execute(
            "SELECT COUNT(*), COALESCE(SUM(nbytes), 0), COALESCE(SUM(hits), 0), "
            "COALESCE(SUM(wall_s * hits), 0.0) FROM entries"
        ).fetchone()
        modes = dict(
            conn.execute("SELECT mode, COUNT(*) FROM entries GROUP BY mode").fetchall()
        )
        wal = self.db_path.with_name(self.db_path.name + "-wal")
        return {
            "root": str(self.root),
            "schema": CACHE_SCHEMA_VERSION,
            "salt": cache_salt(),
            "entries": n,
            "bytes": nbytes,
            "file_bytes": sum(p.stat().st_size for p in (self.db_path, wal) if p.exists()),
            "hits": hits,
            "saved_s": wall,
            "modes": modes,
            "disabled": self.disabled_reason,
        }

    def verify(self, prune: bool = False) -> list[VerifyIssue]:
        """Audit every entry, beyond what a lookup checks: size, raw
        hash, head and head digest as a lookup does, then the body
        decoded and the digest and facts re-derived from its objects
        held against the head (and so the index).  ``prune`` deletes the
        failing entries and gives their pages back."""
        from repro.run.backends import outcome_digest, outcome_facts

        issues: list[VerifyIssue] = []
        for entry in self.entries():
            key = entry["key"]
            problem = None
            try:
                row = self._read_entry(key)
                if row is None:
                    continue  # evicted since the list was read
                *indexed, data = row
                if data is None:
                    raise ValueError("blob missing: the entry has no blobs row")
                head, body_at = _verified_head(data, *indexed)
            except (ValueError, sqlite3.Error) as exc:
                problem = str(exc)
            else:
                try:
                    result, run, _ = _decode_body(data, body_at)
                    digest = outcome_digest(result, run)
                    facts = outcome_facts(result, run)
                except Exception as exc:  # noqa: BLE001 - any decode failure is damage
                    problem = f"blob body undecodable: {exc.__class__.__name__}: {exc}"
                else:
                    if digest != head["result_digest"]:
                        problem = (
                            f"digest mismatch: body {digest[:16]} != "
                            f"head {head['result_digest'][:16]}"
                        )
                    elif _canonical_json(facts) != _canonical_json(head["facts"]):
                        problem = "head facts differ from the body's"
            if problem is not None:
                issues.append(VerifyIssue(key, problem))
        if prune and issues:
            self._delete([issue.key for issue in issues])
            self._give_back()
        return issues

    def gc(
        self,
        max_bytes: int | None = None,
        max_age: float | None = None,
        now: float | None = None,
    ) -> GcResult:
        """Evict entries: first everything idle longer than ``max_age``
        seconds (by last hit), then — LRU by last hit — until the cache
        fits ``max_bytes``.  Eviction order within a policy is
        deterministic: oldest ``last_hit`` first, ties broken by
        ``created`` then key.  The evicted entries' pages go back to the
        file system."""
        now = _time.time() if now is None else now
        res = GcResult()
        survivors: list[dict[str, Any]] = []
        for entry in self.entries():  # LRU-first
            if max_age is not None and now - entry["last_hit"] > max_age:
                res.removed.append((entry["key"], "age"))
                res.freed_bytes += entry["nbytes"]
            else:
                survivors.append(entry)
        if max_bytes is not None:
            total = sum(e["nbytes"] for e in survivors)
            still: list[dict[str, Any]] = []
            for entry in survivors:
                if total > max_bytes:
                    res.removed.append((entry["key"], "bytes"))
                    res.freed_bytes += entry["nbytes"]
                    total -= entry["nbytes"]
                else:
                    still.append(entry)
            survivors = still
        if res.removed:
            self._delete([key for key, _reason in res.removed])
            self._give_back()
        res.kept = len(survivors)
        res.kept_bytes = sum(e["nbytes"] for e in survivors)
        return res

    def close(self) -> None:
        for conn in self._conns.values():
            try:
                conn.close()
            except sqlite3.Error:
                pass
        self._conns.clear()
