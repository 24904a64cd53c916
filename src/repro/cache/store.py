"""The content-addressed result store behind :mod:`repro.cache`.

A cache directory holds one SQLite file, in WAL mode, and nothing else::

    <root>/index.sqlite3   (+ its -wal and -shm)
        entries(key, ..., nbytes, head, head_sha, ...)   one row per outcome

An entry is its answer.  Its **head** is canonical JSON of primitives —
format, mode, result digest, the original compute wall time, the
execution metadata and every result-derived fact an outcome's
``summary()`` and run report print
(:func:`~repro.run.backends.outcome_facts`) — held in the row beside its
size (``nbytes``) and SHA-256 (``head_sha``), the key, the scenario
digest, the result digest, the mode, creation/last-hit times and hit
count.  No object of the run is stored: the simulator is deterministic,
so a hit's ``run`` / ``result`` / ``observer`` are its scenario computed
again on first access, once, and held to the head
(:meth:`ResultCache._recompute`).

Concurrency: SQLite runs in WAL mode with a generous busy timeout, every
process gets its own connection (connections are keyed by pid, so a
forked campaign worker transparently reopens), and a store writes its
row inside one ``BEGIN IMMEDIATE`` transaction — two `-j` workers or two
concurrent CLI invocations sharing one cache directory cannot corrupt
it, the worst case is both computing the same cell and the later row
replacing the earlier.  A store killed or failing before its COMMIT
leaves nothing behind: SQLite rolls the transaction back, and no file
outside the index was written.

A lookup is a batch (:meth:`ResultCache.lookup_many`; ``lookup`` is the
batch of one): a campaign partition reads every row it needs in one read
transaction, each distinct key once, then records its hits and deletes
its demoted entries in one write transaction — two transactions a
partition, not two a cell.

Verified before trusted: for each entry the lookup holds the head's size
against ``nbytes`` and its SHA-256 against ``head_sha`` *before any byte
reaches the JSON decoder*, then parses the head and holds its shape,
mode and result digest against the row's and the scenario's.  That
answers ``digest()``, ``summary()``, ``completed`` and ``metadata``.
Any failed check — a truncated, emptied or rewritten head, a stale row,
a head that does not parse — demotes the entry to a miss (the row
deleted, a ``RuntimeWarning`` emitted, the caller recomputes and
re-stores).  A head that passes them all but disagrees with its
recomputation (a digest or fact rewritten under a correct hash) is
found on first access to the objects and demoted the same way, the
computed outcome stored in its place.  ``cache verify`` runs the
lookup's checks over every row.  A schema-version mismatch disables the
cache for the process instead of guessing at the on-disk format
(versions 1 to 5, which stored the run's objects beside its head, are
refused this way; delete the directory to rebuild).
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import sqlite3
import time as _time
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Sequence

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.run.backends import ScenarioOutcome
    from repro.run.scenario import Scenario

#: On-disk format version (index schema + head layout).  A cache
#: directory written by a different version is never read or written —
#: the open is disabled with a warning and every lookup is a miss.
CACHE_SCHEMA_VERSION = 6

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
    instrumentation switches that change what a hit must reproduce
    (``observe``, ``trace_detail``, ``check``) stay in the key; what the
    engine itself computes is covered by :data:`ENGINE_SALT`, not by a
    field.
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


#: Page size of an index, fixed when the file is created.  A
#: cell's store and a hit's bookkeeping each write a handful of pages to
#: the WAL: at 16 KiB they cost half as much again (docs/INTERNALS.md
#: §15, with why the index is not memory-mapped).
_PAGE_SIZE = 4096

#: How often a new connection asks for WAL mode before giving up (the
#: waits add up to ~0.4 s).
_WAL_SWITCH_TRIES = 20


def _canonical_json(value: Any) -> bytes:
    return json.dumps(value, sort_keys=True, separators=(",", ":")).encode()


def encode_head(outcome: "ScenarioOutcome", wall_s: float) -> bytes:
    """The head of one computed outcome: everything a hit answers from,
    as canonical JSON."""
    return _canonical_json({
        "format": CACHE_SCHEMA_VERSION,
        "mode": outcome.mode,
        "result_digest": outcome.digest(),
        "wall_s": float(wall_s),
        "metadata": dict(outcome.metadata),
        "facts": outcome.facts(),
    })


#: The ``(fact, type)`` pairs a head may hold, held by ``type`` (a bool
#: is no count); ``timing`` is ``[min, max, avg, count]``, four numbers.
_FACT_TYPES = frozenset([
    ("completed", bool), ("exit_time", float), ("e2", float), ("events", int),
    ("failures", int), ("restarts", int), ("timing", list), ("mttf_a", float),
    ("mttf_a", type(None)), ("strategy_facts", dict),
])
_NUMBERS = frozenset([int, float])


def _verified_head(head: Any, nbytes: Any, head_sha: Any, result_digest: Any) -> dict:
    """A row's head checked against the rest of its row.  Order: the
    head's size, its SHA-256, and only then the decoder (JSON, format,
    shape), then the head's digest against the row's.  Raises
    ``ValueError`` naming the first check that failed."""
    size = len(head) if isinstance(head, bytes) else None
    if size != nbytes:
        raise ValueError(f"head size {size} != indexed {nbytes} (truncated or stale head)")
    sha = hashlib.sha256(head).hexdigest()
    if sha != head_sha:
        raise ValueError(
            f"head hash {sha[:16]} != indexed {str(head_sha)[:16]} (damaged or stale head)"
        )
    try:
        parsed = json.loads(head)
    except (ValueError, RecursionError) as exc:  # a head nested past the stack, too
        raise ValueError(f"head undecodable: {exc}") from exc
    if not isinstance(parsed, dict) or parsed.get("format") != CACHE_SCHEMA_VERSION:
        raise ValueError("head undecodable: unexpected format")
    from repro.run.backends import FACT_KEYS

    mode, facts = parsed.get("mode"), parsed.get("facts")
    if (
        mode not in ("single", "restart")  # compared, not hashed: a mode may be a list
        or not isinstance(facts, dict)
        or facts.keys() != FACT_KEYS[mode]
        or not _FACT_TYPES.issuperset(zip(facts, map(type, facts.values())))
        or len(facts["timing"]) != 4
        or not _NUMBERS.issuperset(map(type, facts["timing"]))
        or not isinstance(parsed.get("metadata"), dict)
        or not isinstance(parsed.get("wall_s"), float)
    ):
        raise ValueError("head undecodable: unexpected shape")
    if parsed.get("result_digest") != result_digest:
        raise ValueError(
            f"head digest {str(parsed.get('result_digest'))[:16]} != indexed "
            f"{str(result_digest)[:16]} (stale index row)"
        )
    return parsed


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
CREATE TABLE IF NOT EXISTS entries (
    key             TEXT PRIMARY KEY,
    scenario_digest TEXT NOT NULL,
    result_digest   TEXT NOT NULL,
    mode            TEXT NOT NULL,
    nbytes          INTEGER NOT NULL,
    head            BLOB NOT NULL,
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
        head against the rest of its row (:func:`_verified_head`).
        One write transaction then records every hit (``hits``,
        ``last_hit``) and deletes every demoted entry — best-effort: when
        the index refuses the write, the hits are served all the same.
        Any unservable entry — a truncated or rewritten head, a head
        that does not parse, a digest that disagrees with the row — is
        warned about and reported as a miss; the cache never raises into
        the run path and never decodes a head whose hash it has not
        checked against the row.  A hit's objects wait for first access
        (:meth:`_recompute`).  A scenario the cache cannot hold
        (:func:`cacheable`) is ``None`` and counts as neither hit nor
        miss.
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
                            raise ValueError("head undecodable: another mode's head")
                    except ValueError as exc:
                        self._corrupt(key, str(exc))
                        demoted.append(key)
                        continue
                    if entry is None:
                        continue
                    head, nbytes = entry
                    served.append((key, len(positions)))
                    self.stats.hit_bytes += nbytes * len(positions)
                    for i in positions:
                        metadata = dict(head["metadata"])
                        metadata["cache_hit"] = True
                        metadata["cache_key"] = key
                        metadata["cache_wall_s"] = head["wall_s"]
                        recompute = functools.partial(
                            self._recompute, scenarios[i], key, head, nbytes,
                            _time.perf_counter(),
                        )
                        outcomes[i] = ScenarioOutcome.from_cache(
                            scenarios[i], head["result_digest"],
                            head["facts"], metadata, recompute,
                        )
        except sqlite3.Error as exc:
            self._corrupt(key, f"index read failed: {exc}")
        return served, demoted

    @staticmethod
    def _verified_entry(conn: sqlite3.Connection, key: str) -> tuple[dict, int] | None:
        """``(head, head size)`` of ``key``'s entry, checked against its
        row (:func:`_verified_head`), or ``None`` without an entry;
        raises ``ValueError`` naming the failed check."""
        row = conn.execute(
            "SELECT head, nbytes, head_sha, result_digest FROM entries WHERE key = ?", (key,)
        ).fetchone()
        if row is None:
            return None
        return _verified_head(*row), row[1]

    def _recompute(
        self, scenario: "Scenario", key: str, head: dict, nbytes: int, hit_time: float
    ) -> "ScenarioOutcome":
        """A hit's objects, on first access: ``scenario`` computed again
        (the simulator is deterministic, so this is the run the entry was
        stored from) and held to the head.  A digest or facts that
        disagree are the warned demotion: the row is deleted, the
        computed outcome stored in its place and the note logged into
        its SimLog.  An observed hit's observer also gets this hit's
        ``cache-hit`` instant."""
        from repro.run.backends import run_scenario

        t0 = _time.perf_counter()
        fresh = run_scenario(scenario, cache=False)
        if fresh.digest() != head["result_digest"] or (
            _canonical_json(fresh.facts()) != _canonical_json(head["facts"])
        ):
            self._corrupt(key, "head disagrees with its recomputation")
            try:
                self._write_index(deleted=[key])
            except sqlite3.Error:
                pass
            self.store(scenario, fresh, wall_s=_time.perf_counter() - t0)
            fresh.result.log.log(0.0, "cache", self.pop_warning(), level="warning")
        elif fresh.observer is not None:
            fresh.observer.host_instant(
                hit_time, "cache-hit", track="cache", args={"key": key[:16], "bytes": nbytes},
            )
        return fresh

    def store(
        self, scenario: "Scenario", outcome: "ScenarioOutcome", wall_s: float = 0.0
    ) -> bool:
        """Memoize one computed outcome; returns True when stored.

        Never raises into the run path: a full disk or a read-only
        directory degrades to "not cached" with a warning.
        """
        t0 = _time.perf_counter()
        try:
            if not cacheable(scenario) or not self._check_enabled():
                return False
            key = cache_key(scenario)
            try:
                head = encode_head(outcome, wall_s)
                now = _time.time()
                conn = self._conn()
                conn.execute("BEGIN IMMEDIATE")
                with conn:  # COMMIT, or ROLLBACK if the INSERT raises
                    conn.execute(
                        "INSERT OR REPLACE INTO entries "
                        "(key, scenario_digest, result_digest, mode, nbytes, head, "
                        " head_sha, wall_s, created, last_hit, hits) "
                        "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, 0)",
                        (
                            key, scenario.scenario_digest(), outcome.digest(), outcome.mode,
                            len(head), head, hashlib.sha256(head).hexdigest(),
                            float(wall_s), now, now,
                        ),
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
            self.stats.store_bytes += len(head)
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
        ``n`` more times as of now, and the row of every ``deleted`` key
        removed.  Nothing to write opens no transaction."""
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
                conn.executemany("DELETE FROM entries WHERE key = ?", [(k,) for k in deleted])

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
        """Every index row but its head, LRU-first (the gc eviction
        order)."""
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
        """Audit every entry as a lookup checks it (:func:`_verified_head`:
        size, hash, shape and digest of its head against its row), LRU
        first.  ``prune`` deletes the failing entries and gives their
        pages back."""
        issues: list[VerifyIssue] = []
        rows = self._conn().execute(
            "SELECT key, head, nbytes, head_sha, result_digest FROM entries "
            "ORDER BY last_hit ASC, created ASC, key ASC"
        ).fetchall()
        for key, *row in rows:
            try:
                _verified_head(*row)
            except ValueError as exc:
                issues.append(VerifyIssue(key, str(exc)))
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
