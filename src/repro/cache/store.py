"""The content-addressed result store behind :mod:`repro.cache`.

A cache directory holds one SQLite file, in WAL mode, and nothing else::

    <root>/index.sqlite3   (+ its -wal and -shm)
        entries(key, ..., nbytes, head_sha, ...)   one index row per outcome
        blobs(key, data)                           that outcome's blob

A **blob** is ``magic | head length | head | body``.  The **head** is
canonical JSON of primitives — format, mode, result digest, the original
compute wall time, the execution metadata, every result-derived fact
an outcome's ``summary()`` and run report print
(:func:`~repro.run.backends.outcome_facts`), ``body_nbytes``, the
body's length before compression, and ``body_sha``, the SHA-256 of the
stored (deflated) body.
The **body** is everything else a hit must reproduce bit-identically,
pickled and then deflated (:data:`_BODY_LEVEL`): the stripped final
:class:`~repro.pdes.engine.SimulationResult` of a ``"single"`` run
(decoded into its one-segment run) or the full
:class:`~repro.core.restart.FailureRunResult` of a ``"restart"`` run,
and the run's sim-domain :class:`~repro.obs.ObsEvent` list (so warm
exporter bytes equal cold ones).  The **index** row maps a
cache key to the entry's result digest, blob size, SHA-256 of the
blob's ``magic | head length | head`` prefix (the row vouches for the
head, the head for the body), creation/last-hit times, and hit count.
The blob has a table of its own because every hit rewrites its index row (hit count,
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

A lookup is a batch (:meth:`ResultCache.lookup_many`; ``lookup`` is the
batch of one): a campaign partition reads every index row and blob head
it needs in one read transaction, each distinct key once, then records
its hits and deletes its demoted entries in one write transaction — two
transactions a partition, not two a cell.

Correctness before speed — verified before decoded: for each entry the
lookup compares the blob's size against the index row, reads only the
head prefix and holds its SHA-256 against the row's *before any byte
reaches a decoder*, then parses the head and holds its shape and result
digest against the row's.  That answers ``digest()``, ``summary()``,
``completed`` and ``metadata``; a lookup hashes a few hundred bytes
whatever the blob's size, and inflates nothing.  The body decodes on
first access to ``run`` / ``result`` / ``observer`` — a campaign reads
summaries only, so a warm one decodes none — from the entry read and
verified again, its bytes held against the head's ``body_sha`` before
the inflater sees one: it is inflated to at most
``body_nbytes + 1`` bytes (so a zlib bomb costs what its head declares,
not what it expands to) and must come to exactly ``body_nbytes``, and
then passes only through an unpickler that resolves nothing but
classes defined in ``repro`` modules and a few builtin value types — no
function, no ``os.system``.  Any failed check — a truncated, missing or
rewritten blob, a stale index row, a head that does not parse — demotes
the entry to a miss (both rows deleted, a ``RuntimeWarning`` emitted,
the caller recomputes and re-stores); a body damaged under an intact
head is found when it is read, not at lookup, and is demoted the same
way, the outcome recomputing its objects and storing them back.
Re-deriving the result digest from the decoded objects is an audit, not
a hit-path step: ``cache verify`` does it.  A schema-version mismatch
disables the cache for the process instead of guessing at the on-disk
format (version 1 and 2 directories, whose blobs were files beside the
index, version 3 ones, whose bodies were not compressed, and version 4
ones, whose index row hashed the whole blob, are refused this way;
delete the directory to rebuild).
"""

from __future__ import annotations

import functools
import hashlib
import io
import json
import os
import pickle
import sqlite3
import time as _time
import warnings
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Sequence

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.run.backends import ScenarioOutcome
    from repro.run.scenario import Scenario

#: On-disk format version (index schema + blob layout).  A cache
#: directory written by a different version is never read or written —
#: the open is disabled with a warning and every lookup is a miss.
CACHE_SCHEMA_VERSION = 5

#: Simulation-semantics salt.  Part of every cache key next to the package
#: version: bump it when the engine's observable behavior changes without
#: a version bump, and every old entry silently becomes a miss instead of
#: serving results the current code would not reproduce.
ENGINE_SALT = "pdes-4"


def cache_salt() -> str:
    """The invalidation salt mixed into every cache key."""
    from repro import __version__

    return f"schema={CACHE_SCHEMA_VERSION};version={__version__};engine={ENGINE_SALT}"


def cacheable(scenario: "Scenario") -> bool:
    """Whether a scenario's outcome can be served from the cache.

    ``record_events`` runs are excluded: their purpose is the live
    ``event_trace`` object (record/replay debugging), which a cache
    hit cannot supply.
    """
    return not scenario.record_events


def cache_key(scenario: "Scenario") -> str:
    """Content address of a scenario's *result*.

    Execution-parallelism fields (shards, shard transport) and the
    trace destination path are normalized out before digesting: the
    serial-vs-sharded parity tests enforce that they never change the
    result, so a cell computed serially must hit for the same cell
    requested on a sharded backend — that cross-backend sharing is most
    of a mixed sweep's hit rate.
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
        normalized = scenario.digest_with(shards=1, shard_transport=None, trace_out="")
        key = hashlib.sha256(f"{salt}\n{normalized}".encode()).hexdigest()
        memo = scenario.__dict__["_cache_key"] = (salt, key)
    return memo[1]


# ----------------------------------------------------------------------
# blob format: magic | head length | head (JSON) | body (deflated pickle)
# ----------------------------------------------------------------------
_MAGIC = b"XSIMRC2\n"
_HEAD_AT = len(_MAGIC) + 4  # a 4-byte big-endian head length follows the magic

#: Bytes a lookup reads from the front of a blob: magic, head length and
#: a head of a few hundred bytes.  A longer head costs one more read.
_HEAD_READ = 1024

#: zlib level of a blob's body, one for every blob size.  Level 1 shrinks
#: a result pickle 4-8x at paper scale for a few milliseconds a large
#: store, and every first access to a body hashes all its stored bytes.
_BODY_LEVEL = 1

#: Page size of an index, fixed when the file is created.  A
#: cell's store and a hit's bookkeeping each write a handful of pages to
#: the WAL: at 16 KiB they cost half as much again, and a large blob
#: reads no faster (docs/INTERNALS.md §15, with why the index is not
#: memory-mapped).
_PAGE_SIZE = 4096

#: How often a new connection asks for WAL mode before giving up (the
#: waits add up to ~0.4 s).
_WAL_SWITCH_TRIES = 20


def _canonical_json(value: Any) -> bytes:
    return json.dumps(value, sort_keys=True, separators=(",", ":")).encode()


def encode_blob(outcome: "ScenarioOutcome", wall_s: float) -> tuple[bytes, dict, str]:
    """The blob bytes for one computed outcome, the head inside them, and
    the SHA-256 of the blob's head prefix (its index row's ``head_sha``)."""
    head = {
        "format": CACHE_SCHEMA_VERSION,
        "mode": outcome.mode,
        "result_digest": outcome.digest(),
        "wall_s": float(wall_s),
        "metadata": dict(outcome.metadata),
        "facts": outcome.facts(),
    }
    # A "single" body is the result alone, not its one-segment run.
    single = outcome.mode == "single"
    body = pickle.dumps(
        (
            outcome.result if single else None,
            None if single else outcome.run,
            None if outcome.observer is None else list(outcome.observer.sim_events()),
        ),
        protocol=pickle.HIGHEST_PROTOCOL,
    )
    stored = zlib.compress(body, _BODY_LEVEL)
    head["body_nbytes"] = len(body)
    head["body_sha"] = hashlib.sha256(stored).hexdigest()
    head_bytes = _canonical_json(head)
    prefix = b"".join((_MAGIC, len(head_bytes).to_bytes(4, "big"), head_bytes))
    return prefix + stored, head, hashlib.sha256(prefix).hexdigest()


def _verified_head(prefix: bytes, head_sha: str, result_digest: str) -> dict:
    """The head of a blob checked against its index row, from the blob's
    ``magic | head length | head`` prefix.  Order: SHA-256 of the prefix,
    and only then the first decoder (magic, JSON, format, shape), then the
    head's digest against the row's.  Raises ``ValueError`` naming the
    first check that failed."""
    sha = hashlib.sha256(prefix).hexdigest()
    if sha != head_sha:
        raise ValueError(
            f"blob hash {sha[:16]} != indexed {str(head_sha)[:16]} "
            "(damaged or stale head)"
        )
    if prefix[: len(_MAGIC)] != _MAGIC:
        raise ValueError("blob head undecodable: bad magic")
    try:
        head = json.loads(prefix[_HEAD_AT:])
    except (ValueError, RecursionError) as exc:  # a head nested past the stack, too
        raise ValueError(f"blob head undecodable: {exc}") from exc
    if not isinstance(head, dict) or head.get("format") != CACHE_SCHEMA_VERSION:
        raise ValueError("blob head undecodable: unexpected format")
    from repro.run.backends import FACT_KEYS

    mode, facts, body_nbytes = head.get("mode"), head.get("facts"), head.get("body_nbytes")
    if (
        mode not in ("single", "restart")  # compared, not hashed: a mode may be a list
        or not isinstance(facts, dict)
        or facts.keys() != FACT_KEYS[mode]
        or not isinstance(facts.get("strategy_facts", {}), dict)  # summary() copies it
        or not isinstance(head.get("metadata"), dict)
        or not isinstance(head.get("wall_s"), float)
        or type(body_nbytes) is not int
        or body_nbytes < 0
        or not isinstance(head.get("body_sha"), str)
    ):
        raise ValueError("blob head undecodable: unexpected shape")
    if head.get("result_digest") != result_digest:
        raise ValueError(
            f"head digest {str(head.get('result_digest'))[:16]} != indexed "
            f"{str(result_digest)[:16]} (stale index row)"
        )
    return head


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


# ----------------------------------------------------------------------
# stats
# ----------------------------------------------------------------------
@dataclass
class CacheStats:
    """Per-process cache counters.

    ``lookup_s``/``store_s`` accumulate host wall time spent in the cache
    itself: the lookup latency a warm sweep pays instead of simulation
    time.  ``decodes`` counts bodies handed to the unpickler (a hit's
    first access to its objects, or ``verify``); a lookup decodes none.
    """

    hits: int = 0
    misses: int = 0
    stores: int = 0
    corrupt: int = 0
    store_errors: int = 0
    decodes: int = 0
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
            "decodes": self.decodes,
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
    head_sha        TEXT NOT NULL,
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
        """The cached outcome for ``scenario``, or ``None`` (a miss):
        :meth:`lookup_many` of one scenario."""
        return self.lookup_many([scenario])[0]

    def lookup_many(self, scenarios: "list[Scenario]") -> "list[ScenarioOutcome | None]":
        """The cached outcome of each scenario, ``None`` for a miss, in
        input order.

        One read transaction reads each distinct key once and checks its
        entry's head against the index row (:func:`_verified_head`); no
        body is read.
        One write transaction then records every hit (``hits``,
        ``last_hit``) and deletes every demoted entry — best-effort: when
        the index refuses the write, the hits are served all the same.
        Any unservable entry — truncated, missing or rewritten blob, a
        head that does not parse, a digest that disagrees with the index
        — is warned about and reported as a miss; the cache never raises
        into the run path and never decodes a head whose hash it has not
        checked against the index.  A hit's body waits for first access
        (:meth:`_load_body`), where it is held against the head's hash.
        A scenario the cache cannot hold (:func:`cacheable`) is ``None``
        and counts as neither hit nor miss.
        """
        t0 = _time.perf_counter()
        outcomes: list[ScenarioOutcome | None] = [None] * len(scenarios)
        try:
            held = [i for i, s in enumerate(scenarios) if cacheable(s)]
            if held and self._check_enabled():
                wanted: dict[str, list[int]] = {}
                for i in held:
                    wanted.setdefault(cache_key(scenarios[i]), []).append(i)
                served, demoted = self._read_hits(scenarios, wanted, outcomes)
                try:
                    self._write_index(hits=served, deleted=demoted)
                except sqlite3.Error:
                    pass  # bookkeeping and demotion wait; every hit is good
            hits = len(outcomes) - outcomes.count(None)
            self.stats.hits += hits
            self.stats.misses += len(held) - hits
            return outcomes
        finally:
            self.stats.lookup_s += _time.perf_counter() - t0

    def _read_hits(
        self, scenarios: "list[Scenario]", wanted: dict[str, list[int]], outcomes: list
    ) -> tuple[list[tuple[str, int]], list[str]]:
        """Fill ``outcomes`` at the positions of every servable key of
        ``wanted`` (key -> positions), all from one read transaction.
        Returns ``(key, times served)`` of the hits and the keys to
        demote."""
        from repro.run.backends import ScenarioOutcome, run_mode

        served: list[tuple[str, int]] = []
        demoted: list[str] = []
        conn = self._conn()
        key = next(iter(wanted))
        try:
            conn.execute("BEGIN")
            with conn:
                for key, positions in wanted.items():
                    try:
                        entry = self._verified_entry(conn, key)
                        # summary() reads the facts of the scenario's mode
                        if entry and entry[0]["mode"] != run_mode(scenarios[positions[0]]):
                            raise ValueError("blob head undecodable: another mode's head")
                    except ValueError as exc:
                        self._corrupt(key, str(exc))
                        demoted.append(key)
                        continue
                    if entry is None:
                        continue
                    head, nbytes, _ = entry
                    served.append((key, len(positions)))
                    self.stats.hit_bytes += nbytes * len(positions)
                    for i in positions:
                        metadata = dict(head["metadata"])
                        metadata["cache_hit"] = True
                        metadata["cache_key"] = key
                        metadata["cache_wall_s"] = head["wall_s"]
                        load = functools.partial(
                            self._load_body, scenarios[i], key, head["result_digest"],
                            _time.perf_counter(),
                        )
                        outcomes[i] = ScenarioOutcome.from_cache(
                            scenarios[i], head["result_digest"],
                            head["facts"], metadata, load,
                        )
        except sqlite3.Error as exc:
            self._corrupt(key, f"index read failed: {exc}")
        return served, demoted

    @staticmethod
    def _verified_entry(
        conn: sqlite3.Connection, key: str, body: bool = False
    ) -> tuple[dict, int, bytes | None] | None:
        """``(head, blob size, body)`` of ``key``'s entry, checked
        against its index row (:func:`_verified_head`), or ``None``
        without an entry; raises ``ValueError`` naming the failed check.
        ``body`` is ``None`` unless asked for, and then the stored body,
        held against the head's ``body_sha``.  Called inside a read
        transaction, so a store replacing row and blob meanwhile is seen
        whole or not at all.  The blob is read through an incremental-I/O
        handle: its size first, then its head prefix, then (if asked) the
        body into one buffer, where a ``SELECT`` would fill two."""
        row = conn.execute(
            "SELECT e.nbytes, e.head_sha, e.result_digest, b.rowid "
            "FROM entries e LEFT JOIN blobs b ON b.key = e.key WHERE e.key = ?",
            (key,),
        ).fetchone()
        if row is None:
            return None
        nbytes, head_sha, result_digest, rowid = row
        if rowid is None:
            raise ValueError("blob missing: the entry has no blobs row")
        with conn.blobopen("blobs", "data", rowid, readonly=True) as blob:
            if len(blob) != nbytes:
                raise ValueError(
                    f"blob size {len(blob)} != indexed {nbytes} (truncated or stale blob)"
                )
            prefix = blob.read(_HEAD_READ)
            body_at = _HEAD_AT + int.from_bytes(prefix[len(_MAGIC) : _HEAD_AT], "big")
            if body_at > nbytes:
                raise ValueError("blob head undecodable: head length runs past the blob")
            if body_at > len(prefix):
                prefix += blob.read(body_at - len(prefix))
            head = _verified_head(prefix[:body_at], head_sha, result_digest)
            if not body:
                return head, nbytes, None
            blob.seek(body_at)
            stored = blob.read()
        sha = hashlib.sha256(stored).hexdigest()
        if sha != head["body_sha"]:
            raise ValueError(
                f"body hash {sha[:16]} != head's {head['body_sha'][:16]} (damaged body)"
            )
        return head, nbytes, stored

    def _read_verified(self, key: str) -> tuple[dict, int, bytes] | None:
        """:meth:`_verified_entry` with its body, in a read transaction
        of its own."""
        conn = self._conn()
        conn.execute("BEGIN")
        with conn:
            return self._verified_entry(conn, key, body=True)

    def _load_body(
        self, scenario: "Scenario", key: str, result_digest: str, hit_time: float
    ) -> tuple:
        """``(run, observer)`` of a hit, on its first access: the
        entry read and checked again (the lookup read no body), its body
        decoded, and the observer rebuilt from the stored sim-domain
        events plus this hit's instant.  An entry that is gone, damaged or
        holds another result since the lookup, or a body that will not
        decode although its hash held (allow-list refusal, a class that
        moved), is demoted like any other damage, and the cell is
        recomputed and stored back in its place (the warning in the
        recomputed run's SimLog)."""
        try:
            entry = self._read_verified(key)
            if entry is None:
                raise ValueError("entry evicted since its lookup")
            head, nbytes, body = entry
            if head["result_digest"] != result_digest:
                raise ValueError("entry replaced by another result since its lookup")
        except (ValueError, sqlite3.Error) as exc:
            problem = str(exc)
        else:
            try:
                run, sim_events = self._decode_body(body, head["body_nbytes"])
                problem = None
            except Exception as exc:  # noqa: BLE001 - any decode failure is damage
                problem = f"blob body undecodable: {exc}"
        if problem is not None:
            self._corrupt(key, problem)
            try:
                self._write_index(deleted=[key])
            except sqlite3.Error:
                pass
            from repro.run.backends import run_scenario

            fresh = run_scenario(scenario, cache=self, known_miss=True)
            return fresh.run, fresh.observer
        observer = None
        if scenario.observe and sim_events is not None:
            from repro.obs import Observer

            observer = Observer(detail=scenario.trace_detail)
            observer.extend(sim_events)
            observer.host_instant(
                hit_time, "cache-hit", track="cache",
                args={"key": key[:16], "bytes": nbytes},
            )
        return run, observer

    def _decode_body(self, body: bytes, body_nbytes: int) -> tuple:
        """``(run, sim_events)`` of a stored body whose hash already held,
        counted in :attr:`CacheStats.decodes` — a ``"single"`` body's
        result wrapped into its one-segment run.  The body is inflated
        to at most ``body_nbytes + 1`` bytes, and anything but one whole
        zlib stream of exactly ``body_nbytes`` bytes is refused before the
        unpickler sees a byte."""
        self.stats.decodes += 1
        inflater = zlib.decompressobj()
        raw = inflater.decompress(body, body_nbytes + 1)
        if len(raw) != body_nbytes or not inflater.eof or inflater.unused_data:
            raise ValueError(f"not one zlib stream of {body_nbytes} bytes")
        result, run, sim_events = _BodyUnpickler(io.BytesIO(raw)).load()
        if run is None:
            from repro.core.restart import FailureRunResult

            run = FailureRunResult.one_segment(result)
        return run, sim_events

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
                data, head, head_sha = encode_blob(outcome, wall_s)
                now = _time.time()
                row = (
                    key,
                    scenario.scenario_digest(),
                    head["result_digest"],
                    head["mode"],
                    len(data),
                    head_sha,
                    head["wall_s"],
                    now,
                    now,
                )
                # The blob and the row that hashes its head land inside one
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
                        "(key, scenario_digest, result_digest, mode, nbytes, head_sha, "
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

    def _corrupt(self, key: str, problem: str) -> None:
        """Count and warn about a damaged entry (once per event), and
        remember the note for the runner's SimLog; the caller deletes
        it."""
        self.stats.corrupt += 1
        message = f"result cache entry {key[:16]} unusable ({problem}); recomputing"
        warnings.warn(message, RuntimeWarning, stacklevel=4)
        self._pending_warning = message

    def _write_index(
        self, hits: Sequence[tuple[str, int]] = (), deleted: Sequence[str] = ()
    ) -> None:
        """One write transaction: each ``(key, n)`` of ``hits`` served
        ``n`` more times as of now, and both rows of every ``deleted``
        key removed.  Nothing to write opens no transaction."""
        if not hits and not deleted:
            return
        now = _time.time()
        conn = self._conn()
        conn.execute("BEGIN IMMEDIATE")
        with conn:
            if hits:
                conn.executemany(
                    "UPDATE entries SET hits = hits + ?, last_hit = ? WHERE key = ?",
                    [(n, now, key) for key, n in hits],
                )
            if deleted:
                for table in ("entries", "blobs"):
                    conn.executemany(
                        f"DELETE FROM {table} WHERE key = ?", [(k,) for k in deleted]
                    )

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
            "SELECT key, scenario_digest, result_digest, mode, nbytes, head_sha, "
            "wall_s, created, last_hit, hits FROM entries "
            "ORDER BY last_hit ASC, created ASC, key ASC"
        ).fetchall()
        names = (
            "key", "scenario_digest", "result_digest", "mode", "nbytes",
            "head_sha", "wall_s", "created", "last_hit", "hits",
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
        }

    def verify(self, prune: bool = False) -> list[VerifyIssue]:
        """Audit every entry, beyond what a lookup checks: size, head
        hash, head and head digest as a lookup does, then the body's hash
        against the head, the body decoded and the digest and facts re-derived from its objects
        held against the head (and so the index).  ``prune`` deletes the
        failing entries and gives their pages back."""
        from repro.run.backends import outcome_digest, outcome_facts

        issues: list[VerifyIssue] = []
        for entry in self.entries():
            key = entry["key"]
            problem = None
            try:
                found = self._read_verified(key)
                if found is None:
                    continue  # evicted since the list was read
                head, _, body = found
            except (ValueError, sqlite3.Error) as exc:
                problem = str(exc)
            else:
                try:
                    run, _ = self._decode_body(body, head["body_nbytes"])
                    digest = outcome_digest(run, head["mode"])
                    facts = outcome_facts(run, head["mode"])
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
            self._write_index(deleted=[issue.key for issue in issues])
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
            self._write_index(deleted=[key for key, _reason in res.removed])
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
