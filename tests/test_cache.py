"""The content-addressed result cache (repro.cache).

Covers the correctness promises the cache makes over raw memoization:

* the key normalizes execution parallelism away (serial and sharded
  requests of one cell share an entry) but keeps every result- and
  payload-relevant field;
* a warm hit is equal to recomputation — digest, summary — and the
  result digest is host-independent (no wall times, transports, or CPU
  counts leak in);
* damaged state (truncated blob, missing blob, stale index row, foreign
  schema version) degrades to recomputation with a warning, never to a
  crash or a stale answer, and no byte of a blob reaches a decoder
  before the SHA-256 of its raw bytes matched the index — a hostile body
  under a correct hash is refused by the allow-list unpickler;
* host faults around a store — the writer killed before its COMMIT, a
  full disk, a read-only directory — leave nothing behind and cost only
  the cache, never the run;
* a hit answers ``summary()``/``digest()``/``completed`` from the blob's
  head alone; a small blob's body decodes at lookup, a large one's on
  first access, and either way what it decodes to equals the cold
  objects field for field;
* ``gc`` evicts in the documented order (age pass first, then LRU by
  last hit) and ``verify`` spots every kind of damage;
* the sweep path partitions cached vs to-compute cells and annotates
  summaries without changing the result values;
* concurrent writers sharing one directory cannot corrupt it.
"""

from __future__ import annotations

import contextlib
import enum
import functools
import hashlib
import io
import json
import math
import multiprocessing
import os
import pickle
import signal
import sqlite3
import sys
import tempfile
import threading
import traceback
import warnings
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from repro.cache import (
    cache_dir_from_env,
    cache_enabled,
    open_cache,
    resolve_cache,
)
from repro.cache.store import (
    CACHE_SCHEMA_VERSION,
    CacheStats,
    ResultCache,
    cache_key,
    cache_salt,
    cacheable,
)
from repro.obs import to_chrome, to_jsonl
from repro.run.backends import outcome_digest, run_scenario
from repro.run.scenario import Scenario
from repro.run.sweep import run_cells, run_sweep
from repro.util.units import format_size


SMALL = Scenario(ranks=8, iterations=30, interval=10)


@pytest.fixture()
def store(tmp_path):
    return ResultCache(tmp_path / "cache")


def _fill(store, scenario=SMALL):
    """Compute-and-store one cell; returns the cold outcome."""
    return run_scenario(scenario, cache=store)


@functools.cache
def _cold_small():
    """SMALL computed once, uncached."""
    return run_scenario(SMALL, cache=False)


def _body_at(data):
    """Offset of a blob's body: magic (8) | head length (4) | head | body."""
    return 12 + int.from_bytes(data[8:12], "big")


def _blob(store, scenario=SMALL):
    """The stored blob's bytes, read straight from its row."""
    (data,) = store._conn().execute(
        "SELECT data FROM blobs WHERE key = ?", (cache_key(scenario),)
    ).fetchone()
    return data


def _put_blob(store, data, scenario=SMALL):
    """Overwrite the stored blob's bytes and leave its index row alone."""
    store._conn().execute(
        "UPDATE blobs SET data = ? WHERE key = ?", (data, cache_key(scenario))
    )


def _flip(store, offset, scenario=SMALL):
    data = bytearray(_blob(store, scenario))
    data[offset] ^= 0x01
    _put_blob(store, bytes(data), scenario)


def _rows(store, scenario=SMALL):
    """``(entries rows, blobs rows)`` under the scenario's key."""
    conn, key = store._conn(), cache_key(scenario)
    return tuple(
        conn.execute(f"SELECT COUNT(*) FROM {table} WHERE key = ?", (key,)).fetchone()[0]
        for table in ("entries", "blobs")
    )


def _reindex(store, scenario=SMALL):
    """Make the index row agree with whatever the blob row now holds —
    what a hostile (or foreign) writer to a shared directory can do."""
    data = _blob(store, scenario)
    store._conn().execute(
        "UPDATE entries SET nbytes = ?, blob_sha = ? WHERE key = ?",
        (len(data), hashlib.sha256(data).hexdigest(), cache_key(scenario)),
    )


@pytest.fixture()
def no_decoder(monkeypatch):
    """Every decoder a blob byte could reach raises if called."""

    def refuse(*_args, **_kwargs):
        raise AssertionError("a decoder ran on bytes that were not verified")

    monkeypatch.setattr("repro.cache.store._BodyUnpickler", refuse)
    monkeypatch.setattr(pickle, "loads", refuse)
    monkeypatch.setattr(pickle, "load", refuse)
    monkeypatch.setattr(json, "loads", refuse)


@pytest.fixture()
def large_blobs(monkeypatch):
    """Every blob counts as large: its body decodes on first access."""
    monkeypatch.setattr("repro.cache.store.EAGER_DECODE_BYTES", 0)


@pytest.fixture(params=["at-lookup", "on-access"])
def decode_when(request, monkeypatch):
    """Both sides of ``EAGER_DECODE_BYTES`` on the same small cells."""
    if request.param == "on-access":
        monkeypatch.setattr("repro.cache.store.EAGER_DECODE_BYTES", 0)
    return request.param


@pytest.fixture()
def body_decodes(monkeypatch):
    """Counts body decodes (a one-element list)."""
    import repro.cache.store as store_module

    count = [0]
    real = store_module._decode_body

    def counting(data, body_at):
        count[0] += 1
        return real(data, body_at)

    monkeypatch.setattr(store_module, "_decode_body", counting)
    return count


def _canon(value):
    """Every field of a result object tree, floats by ``float.hex``."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, enum.Enum):
        return (type(value).__name__, value.name)
    if isinstance(value, dict):
        return sorted((repr(k), _canon(v)) for k, v in value.items())
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    if hasattr(value, "__dict__"):
        return (type(value).__name__, _canon(vars(value)))
    if hasattr(value, "__slots__"):
        return (type(value).__name__, [_canon(getattr(value, n)) for n in value.__slots__])
    return value


# ----------------------------------------------------------------------
# key derivation
# ----------------------------------------------------------------------
class TestCacheKey:
    def test_execution_fields_normalized_out(self):
        base = cache_key(SMALL)
        assert cache_key(SMALL.with_(shards=4, shard_transport="fork")) == base
        assert cache_key(SMALL.with_(shards=2, shard_transport="inline")) == base
        assert cache_key(SMALL.with_(jobs=8)) == base
        assert cache_key(SMALL.with_(backend="sharded-shm", shards=2)) == base
        # trace_out implies observe=True (payload-relevant), so it shares
        # the *observed* entry, not the bare one — the path itself is
        # normalized out.
        assert cache_key(SMALL.with_(trace_out="/tmp/t.json")) == cache_key(
            SMALL.with_(observe=True)
        )
        assert cache_key(SMALL.with_(trace_out="/tmp/a.json")) == cache_key(
            SMALL.with_(trace_out="/tmp/b.jsonl")
        )

    def test_key_is_the_digest_of_the_normalized_scenario(self):
        """The key hashes the field stream directly; it must equal what
        building the normalized scenario through ``with_`` gives."""
        busy = SMALL.with_(
            shards=2, shard_transport="inline", jobs=3, trace_out="/tmp/t.json",
            failures="3@50s", strategy="ckpt-multilevel", strategy_params={"k": 4},
        )
        normalized = busy.with_(
            backend=None, shards=1, shard_transport=None, jobs=1, trace_out=""
        )
        expected = hashlib.sha256(
            f"{cache_salt()}\n{normalized.scenario_digest()}".encode()
        ).hexdigest()
        assert cache_key(busy) == expected == cache_key(normalized)

    def test_result_relevant_fields_stay_in_key(self):
        base = cache_key(SMALL)
        assert cache_key(SMALL.with_(seed=1)) != base
        assert cache_key(SMALL.with_(interval=20)) != base
        assert cache_key(SMALL.with_(ranks=16)) != base
        assert cache_key(SMALL.with_(failures="2@100s")) != base

    def test_payload_relevant_instrumentation_stays_in_key(self):
        # observe/trace_detail/check change what the blob must contain.
        base = cache_key(SMALL)
        assert cache_key(SMALL.with_(observe=True)) != base
        assert cache_key(SMALL.with_(observe=True, trace_detail=True)) != base
        assert cache_key(SMALL.with_(check=True)) != base

    def test_salt_invalidates(self, monkeypatch):
        base = cache_key(SMALL)
        monkeypatch.setattr("repro.cache.store.ENGINE_SALT", "pdes-test")
        assert cache_key(SMALL) != base
        assert "engine=pdes-test" in cache_salt()

    def test_record_events_not_cacheable(self):
        assert cacheable(SMALL)
        assert not cacheable(SMALL.with_(record_events=True))


# ----------------------------------------------------------------------
# hit equivalence & host independence
# ----------------------------------------------------------------------
class TestHitEquivalence:
    def test_warm_hit_equals_cold_compute(self, store):
        cold = _fill(store)
        warm = run_scenario(SMALL, cache=store)
        assert not cold.metadata.get("cache_hit")
        assert warm.metadata.get("cache_hit") is True
        assert warm.digest() == cold.digest()
        assert warm.summary() == cold.summary()
        assert (store.stats.hits, store.stats.misses, store.stats.stores) == (1, 1, 1)

    def test_cross_backend_sharing(self, store):
        cold = _fill(store)
        sharded = SMALL.with_(shards=2, shard_transport="inline")
        warm = run_scenario(sharded, cache=store)
        assert warm.metadata.get("cache_hit") is True
        assert warm.digest() == cold.digest()

    def test_result_digest_excludes_host_metadata(self, store):
        """The digest a hit is verified against must not depend on how or
        where the cell was computed: transports, worker fallbacks, wall
        times, and CPU counts live in metadata, never in the digest."""
        serial = run_scenario(SMALL)
        sharded = run_scenario(SMALL.with_(shards=2, shard_transport="inline"))
        assert serial.digest() == sharded.digest()
        assert serial.metadata != sharded.metadata  # metadata does differ...
        mutated = run_scenario(SMALL)
        mutated.metadata["host_cpus"] = 999999
        mutated.metadata["wall_s"] = 123.456
        mutated.metadata["shard_transport"] = "carrier-pigeon"
        assert mutated.digest() == serial.digest()  # ...and is excluded

    def test_record_events_bypasses_cache(self, store):
        scenario = SMALL.with_(record_events=True)
        first = run_scenario(scenario, cache=store)
        second = run_scenario(scenario, cache=store)
        assert first.sim is not None and second.sim is not None
        assert not second.metadata.get("cache_hit")
        assert store.stats.stores == 0


# ----------------------------------------------------------------------
# head and body: what a hit answers from where
# ----------------------------------------------------------------------
STRATEGIES = ("ckpt", "ckpt-multilevel", "replication", "none")


class TestHeadAndBody:
    def test_warm_run_cells_never_decodes_a_large_body(
        self, store, large_blobs, body_decodes
    ):
        cells = [
            SMALL.with_(seed=0),
            SMALL.with_(seed=1),
            SMALL.with_(failures="3@50s"),
            SMALL.with_(failures="3@50s", strategy="replication"),
        ]
        cold = run_cells(cells, cache=store)
        warm = run_cells(cells, cache=store)
        assert all(s["cached"] for s in warm) and store.stats.hits == len(cells)
        strip = lambda d: {k: v for k, v in d.items() if k not in ("cached", "saved_s")}
        assert [strip(s) for s in warm] == [strip(s) for s in cold]
        assert body_decodes == [0]

    def test_small_body_decodes_once_at_lookup(self, store, body_decodes, monkeypatch):
        scenario = SMALL.with_(failures="3@50s")
        cold = _fill(store, scenario)
        warm = run_scenario(scenario, cache=store)
        assert body_decodes == [1] and warm.metadata["cache_hit"] is True
        assert warm.summary() == cold.summary() and warm.digest() == cold.digest()
        assert warm.last_result.exit_time == cold.last_result.exit_time
        assert body_decodes == [1]
        # the blob's size decides: at the limit it decodes at lookup,
        # one byte over the limit it waits for first access
        size = len(_blob(store, scenario))
        monkeypatch.setattr("repro.cache.store.EAGER_DECODE_BYTES", size)
        run_scenario(scenario, cache=store)
        assert body_decodes == [2]
        monkeypatch.setattr("repro.cache.store.EAGER_DECODE_BYTES", size - 1)
        waiting = run_scenario(scenario, cache=store)
        assert body_decodes == [2]
        assert waiting.run is not None and body_decodes == [3]

    def test_small_body_waits_where_decoding_would_import_the_simulator(
        self, store, body_decodes, monkeypatch
    ):
        """A process that has only looked answers up (a warm CLI sweep)
        has not imported the classes a body holds: there even a small
        blob keeps its body for first access."""
        import sys

        scenario = SMALL.with_(failures="3@50s")
        cold = _fill(store, scenario)
        with monkeypatch.context() as only_lookups:
            only_lookups.delitem(sys.modules, "repro.pdes.engine")
            warm = run_scenario(scenario, cache=store)
            assert body_decodes == [0] and warm.metadata["cache_hit"] is True
            assert warm.summary() == cold.summary() and warm.digest() == cold.digest()
            assert warm.timing_report() == cold.last_result.timing_report()
            assert body_decodes == [0]
        # first access decodes (importing what it needs)
        assert warm.run.e2 == cold.run.e2 and body_decodes == [1]

    @pytest.mark.parametrize("scenario", [SMALL, SMALL.with_(failures="3@50s")], ids=["single", "restart"])
    def test_timing_report_is_a_head_fact(self, store, large_blobs, body_decodes, scenario):
        cold = _fill(store, scenario)
        assert cold.timing_report() == cold.last_result.timing_report()
        warm = run_scenario(scenario, cache=store)
        assert warm.timing_report() == cold.timing_report() and body_decodes == [0]

    def test_a_campaign_looks_each_miss_up_once(self, store, monkeypatch):
        """run_cells partitions by lookup; the in-process task then
        computes and stores through the same handle — no second lookup,
        no reopened directory."""
        import repro.cache

        def refuse(*_args, **_kwargs):
            raise AssertionError("an in-process campaign reopened its cache directory")

        monkeypatch.setattr(repro.cache, "open_cache", refuse)
        cells = [SMALL.with_(seed=s) for s in range(3)]
        cold = run_cells(cells, cache=store)
        assert not any(s["cached"] for s in cold)
        assert (store.stats.misses, store.stats.hits, store.stats.stores) == (3, 0, 3)
        handle = ResultCache(store.root)
        assert all(s["cached"] for s in run_cells(cells, cache=handle))
        assert handle.stats.hit_rate == 1.0 and handle.stats.lookups == 3

    def test_head_answers_and_large_body_decodes_once_on_first_access(
        self, store, large_blobs, body_decodes
    ):
        cold = _fill(store, SMALL.with_(failures="3@50s"))
        warm = run_scenario(SMALL.with_(failures="3@50s"), cache=store)
        assert warm.summary() == cold.summary()
        assert warm.digest() == cold.digest() and warm.completed is cold.completed
        assert warm.facts() == cold.facts() and warm.metadata["cache_hit"] is True
        assert body_decodes == [0]
        assert warm.run is not None and warm.result is None and warm.observer is None
        assert warm.last_result.exit_time == cold.last_result.exit_time
        assert body_decodes == [1]

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("failures", ["", "3@50s"], ids=["single", "restart"])
    def test_decoded_objects_equal_cold_field_for_field(
        self, store, decode_when, strategy, failures
    ):
        scenario = SMALL.with_(strategy=strategy, failures=failures, observe=True)
        cold = _fill(store, scenario)
        warm = run_scenario(scenario, cache=store)
        assert warm.metadata["cache_hit"] is True
        assert warm.mode == cold.mode == ("restart" if failures else "single")
        assert _canon(warm.result) == _canon(cold.result)
        assert _canon(warm.run) == _canon(cold.run)
        assert _canon(warm.last_result) == _canon(cold.last_result)
        assert to_jsonl(warm.observer) == to_jsonl(cold.observer)
        assert to_chrome(warm.observer) == to_chrome(cold.observer)
        assert outcome_digest(warm.result, warm.run) == warm.digest() == cold.digest()

    def test_head_floats_round_trip_exactly(self, store):
        """inf / nan / denormal / negative-zero facts survive the JSON
        head bit for bit (compared by ``float.hex``)."""
        scenario = SMALL.with_(failures="3@50s")
        cold = run_scenario(scenario)
        odd = dict(cold.facts(), e2=math.inf, mttf_a=math.nan, exit_time=5e-324)
        odd["strategy_facts"] = dict(odd["strategy_facts"], drift=-0.0, third=1 / 3)
        cold._facts = odd
        assert store.store(scenario, cold)
        warm = store.lookup(scenario)
        assert _canon(warm.facts()) == _canon(odd)
        assert _canon(warm.summary()) == _canon(cold.summary())
        assert warm.summary()["e2"] == math.inf and math.isnan(warm.summary()["mttf_a"])

    def test_cache_hit_instant_reports_this_blobs_size(self, store, decode_when):
        scenarios = [SMALL.with_(observe=True), SMALL.with_(observe=True, ranks=27)]
        for scenario in scenarios:
            _fill(store, scenario)
        for scenario in scenarios:  # the second hit must not report a running total
            warm = run_scenario(scenario, cache=store)
            (instant,) = [e for e in warm.observer.host_events() if e.name == "cache-hit"]
            size = len(_blob(store, scenario))
            assert dict(instant.args)["bytes"] == size
        assert store.stats.hit_bytes > size

    @settings(max_examples=12)
    @given(
        ranks=st.sampled_from([2, 8, 12]),
        strategy=st.sampled_from(STRATEGIES),
        failures=st.sampled_from(["", "1@20s", "1@20s,0@90s", "straggler:1@10s+5s*2.0"]),
        observe=st.booleans(),
    )
    def test_store_then_lookup_round_trips_summary(
        self, tmp_path_factory, ranks, strategy, failures, observe
    ):
        scenario = Scenario(
            ranks=ranks, iterations=20, interval=5, strategy=strategy,
            failures=failures, observe=observe,
        )
        cache = ResultCache(tmp_path_factory.mktemp("prop"))
        cold = run_scenario(scenario, cache=False)
        assert cache.store(scenario, cold, wall_s=0.25)
        warm = cache.lookup(scenario)
        assert warm is not None and warm.metadata["cache_wall_s"] == 0.25
        assert _canon(warm.summary()) == _canon(cold.summary())
        assert list(warm.summary()) == list(cold.summary())  # key order too
        cache.close()


# ----------------------------------------------------------------------
# robustness: damaged state degrades to recomputation
# ----------------------------------------------------------------------
class TestRobustness:
    def test_truncated_blob_recomputes(self, store):
        cold = _fill(store)
        data = _blob(store)
        _put_blob(store, data[: len(data) // 2])
        with pytest.warns(RuntimeWarning, match="unusable .*blob size"):
            again = run_scenario(SMALL, cache=store)
        assert not again.metadata.get("cache_hit")
        assert again.digest() == cold.digest()
        assert store.stats.corrupt == 1
        # the damaged entry was dropped and the recompute re-stored it
        assert run_scenario(SMALL, cache=store).metadata.get("cache_hit") is True

    def test_missing_blob_recomputes(self, store):
        """An ``entries`` row without its ``blobs`` row."""
        cold = _fill(store)
        store._conn().execute("DELETE FROM blobs")
        with pytest.warns(RuntimeWarning, match="blob missing"):
            again = run_scenario(SMALL, cache=store)
        assert not again.metadata.get("cache_hit")
        assert again.digest() == cold.digest()
        assert _rows(store) == (1, 1)  # demoted, then re-stored whole

    def test_garbage_blob_recomputes(self, store):
        cold = _fill(store)
        _put_blob(store, b"not a blob")
        with pytest.warns(RuntimeWarning, match="blob size"):
            again = run_scenario(SMALL, cache=store)
        assert not again.metadata.get("cache_hit")
        assert again.digest() == cold.digest()
        # the same garbage under an index row that vouches for it gets
        # as far as the head decoder, and no further
        _put_blob(store, b"not a blob, but the index says so")
        _reindex(store)
        with pytest.warns(RuntimeWarning, match="head undecodable"):
            again = run_scenario(SMALL, cache=store)
        assert not again.metadata.get("cache_hit")
        assert again.digest() == cold.digest()

    def test_stale_index_digest_recomputes(self, store):
        """An index row whose digest disagrees with the blob's head must
        never be served (the blob could be a stale atomic-rename
        survivor)."""
        _fill(store)
        store._conn().execute(
            "UPDATE entries SET result_digest = 'deadbeef'"
        )
        with pytest.warns(RuntimeWarning, match="head digest .* != indexed deadbeef"):
            assert store.lookup(SMALL) is None
        assert store.stats.corrupt == 1

    def test_stale_blob_sha_recomputes(self, store):
        _fill(store)
        store._conn().execute("UPDATE entries SET blob_sha = ?", ("0" * 64,))
        with pytest.warns(RuntimeWarning, match="blob hash .* != indexed 0000"):
            assert store.lookup(SMALL) is None
        assert store.stats.corrupt == 1
        assert store.index_stats()["entries"] == 0
        assert _rows(store) == (0, 0)

    @pytest.mark.parametrize("where", ["length", "head", "body"])
    def test_flipped_byte_is_refused_before_any_decoder(self, store, no_decoder, where):
        """Verify-before-decode: one flipped bit anywhere is a miss, and
        neither the head's JSON decoder nor the body's unpickler ran."""
        _fill(store)
        offset = {"length": 11, "head": 20, "body": _body_at(_blob(store)) + 5}[where]
        _flip(store, offset)
        with pytest.warns(RuntimeWarning, match="blob hash"):
            assert store.lookup(SMALL) is None
        assert (store.stats.corrupt, store.stats.hits) == (1, 0)
        assert _rows(store) == (0, 0)

    def test_truncation_is_refused_before_hashing(self, store, monkeypatch):
        _fill(store)
        truncated = _blob(store)[:-1]
        _put_blob(store, truncated)
        real = hashlib.sha256

        def guarded(data=b""):
            assert data != truncated, "hashed a blob whose size already disagreed"
            return real(data)

        monkeypatch.setattr(hashlib, "sha256", guarded)
        with pytest.warns(RuntimeWarning, match="blob size"):
            assert store.lookup(SMALL) is None

    @seed(26)
    @settings(max_examples=40)
    @given(
        damage=st.one_of(
            st.tuples(st.just("data"), st.binary(max_size=2048)),
            st.tuples(st.just("truncate"), st.integers(min_value=0)),
            st.tuples(
                st.sampled_from(["nbytes", "blob_sha", "result_digest"]),
                st.one_of(
                    st.integers(min_value=-(2**63), max_value=2**63 - 1),
                    st.floats(allow_nan=False),
                    st.text(max_size=80),
                    st.binary(max_size=80),
                ),
            ),
        )
    )
    def test_any_damage_to_a_stored_entry_is_one_warned_miss(self, tmp_path_factory, damage):
        """The blob's bytes replaced or truncated, or any value in the
        index row's checked columns: a miss with exactly one warning, the
        lookup never raises, no body decodes unless the SHA-256 held, and
        the next run recomputes the same summary."""
        import repro.cache.store as store_module

        cold = _cold_small()
        cache = ResultCache(tmp_path_factory.mktemp("fuzz"))
        assert cache.store(SMALL, cold)
        checked = "SELECT nbytes, blob_sha, result_digest FROM entries"
        before = cache._conn().execute(checked).fetchone() + (_blob(cache),)
        what, value = damage
        if what == "data":
            _put_blob(cache, value)
        elif what == "truncate":
            _put_blob(cache, before[3][: value % len(before[3])])
        else:
            cache._conn().execute(f"UPDATE entries SET {what} = ?", (value,))
        after = cache._conn().execute(checked).fetchone() + (_blob(cache),)
        assume(after != before)
        nbytes, blob_sha, _digest, data = after
        sha_held = len(data) == nbytes and hashlib.sha256(data).hexdigest() == blob_sha
        with mock.patch.object(
            store_module, "_decode_body", wraps=store_module._decode_body
        ) as decode, warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cache.lookup(SMALL) is None
        assert [w.category for w in caught] == [RuntimeWarning]
        assert decode.call_count == 0 or sha_held
        again = run_scenario(SMALL, cache=cache)
        assert not again.metadata.get("cache_hit") and again.summary() == cold.summary()
        cache.close()

    @pytest.mark.parametrize("evil", ["os.system", "builtins.eval"])
    def test_hostile_body_under_a_correct_hash_executes_nothing(
        self, store, tmp_path, decode_when, evil
    ):
        """A body that names a callable, stored with a *correct*
        ``blob_sha``: the allow-list unpickler refuses it and the entry
        is demoted.  Decoded at lookup that is an ordinary miss (the run
        path recomputes and re-stores); decoded on first access the hit
        was already reported, and the outcome recomputes itself."""
        cold = _fill(store)
        sentinel = tmp_path / "sentinel"

        class Evil:
            def __reduce__(self):
                if evil == "os.system":
                    return os.system, (f"touch {sentinel}",)
                return eval, (f"open({str(sentinel)!r}, 'w').close()",)

        body = pickle.dumps((Evil(), None, None), protocol=pickle.HIGHEST_PROTOCOL)
        data = _blob(store)
        _put_blob(store, data[: _body_at(data)] + body)
        _reindex(store)
        if decode_when == "at-lookup":
            with pytest.warns(RuntimeWarning, match="body undecodable"):
                warm = run_scenario(SMALL, cache=store)
            assert not warm.metadata.get("cache_hit") and store.stats.hits == 0
            result = warm.result
        else:
            warm = run_scenario(SMALL, cache=store)
            assert warm.metadata.get("cache_hit") is True  # head and hash are fine
            with pytest.warns(RuntimeWarning, match="body undecodable"):
                result = warm.result
            assert store.index_stats()["entries"] == 0 and _rows(store) == (0, 0)
        assert not sentinel.exists()
        assert outcome_digest(result, warm.run) == cold.digest() == warm.digest()
        assert any(r.category == "cache" for r in result.log.entries)
        assert store.stats.corrupt == 1
        if decode_when == "at-lookup":  # the miss re-stored a good entry
            assert run_scenario(SMALL, cache=store).metadata.get("cache_hit") is True
            assert not sentinel.exists()

    def test_body_unpickler_resolves_classes_of_repro_modules_only(self):
        import io

        from repro.cache.store import _BodyUnpickler
        from repro.pdes.context import VpState

        unpickler = _BodyUnpickler(io.BytesIO(b""))
        assert unpickler.find_class("repro.pdes.context", "VpState") is VpState
        assert unpickler.find_class("builtins", "complex") is complex
        for module, name in [
            ("os", "system"),
            ("builtins", "eval"),
            ("builtins", "getattr"),
            ("repro.cache.store", "os.system"),  # a dotted path through an import
            ("repro.cache.store", "Path"),  # a class, but not one defined there
            ("repro.cache.store", "cache_key"),  # a function
            ("reprox", "VpState"),
        ]:
            with pytest.raises(pickle.UnpicklingError, match="not an allowed"):
                unpickler.find_class(module, name)

    def test_warning_logged_into_recomputed_run(self, store):
        _fill(store)
        _put_blob(store, b"junk")
        with pytest.warns(RuntimeWarning):
            again = run_scenario(SMALL, cache=store)
        log = again.last_result.log
        assert any(
            r.category == "cache" and "recomputing" in r.message
            for r in log.entries
        )

    def test_schema_mismatch_disables_cache(self, tmp_path, store):
        _fill(store)
        store._conn().execute("UPDATE meta SET value = '999' WHERE key = 'schema'")
        reopened = ResultCache(store.root)
        assert reopened.disabled_reason is not None
        with pytest.warns(RuntimeWarning, match="schema version 999"):
            outcome = run_scenario(SMALL, cache=reopened)
        assert not outcome.metadata.get("cache_hit")
        # store is a no-op too: nothing was overwritten in the foreign dir
        assert reopened.stats.stores == 0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # disabled warning fires once
            assert reopened.lookup(SMALL) is None

    @staticmethod
    def _foreign_directory(root, version, blob_name, columns):
        """A cache directory an older format wrote: its index (in its own
        journal mode) and one blob file beside it."""
        blob = root / "blobs" / "ab" / blob_name
        blob.parent.mkdir(parents=True)
        blob.write_bytes(pickle.dumps({"format": version}))
        conn = sqlite3.connect(root / "index.sqlite3")
        if version == 2:
            conn.execute("PRAGMA journal_mode=WAL")
        conn.executescript(
            "CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT NOT NULL);"
            f"INSERT INTO meta VALUES ('schema', '{version}');"
            "CREATE TABLE entries (key TEXT PRIMARY KEY, scenario_digest TEXT NOT NULL,"
            " result_digest TEXT NOT NULL, mode TEXT NOT NULL, nbytes INTEGER NOT NULL,"
            f" {columns} wall_s REAL NOT NULL, created REAL NOT NULL, last_hit REAL NOT NULL,"
            " hits INTEGER NOT NULL DEFAULT 0);"
            "INSERT INTO entries (key, scenario_digest, result_digest, mode, nbytes,"
            " wall_s, created, last_hit) VALUES ('" + "ab" * 32 + "', 's', 'r', 'single',"
            " 14, 0.1, 1.0, 1.0);"
        )
        conn.commit()
        conn.close()
        return blob

    def _assert_refused_untouched(self, root, version, blob):
        cache = ResultCache(root)
        assert cache.disabled_reason is not None
        with pytest.warns(
            RuntimeWarning, match=f"schema version {version} != supported 3"
        ) as caught:
            outcome = run_scenario(SMALL, cache=cache)
            assert cache.lookup(SMALL) is None
        assert len(caught) == 1  # the disabled warning fires once
        assert not outcome.metadata.get("cache_hit") and outcome.completed
        assert cache.stats.stores == 0
        assert blob.exists()
        conn = sqlite3.connect(root / "index.sqlite3")
        assert conn.execute("SELECT COUNT(*) FROM entries").fetchone() == (1,)
        assert conn.execute("SELECT value FROM meta").fetchone() == (str(version),)
        tables = {name for (name,) in conn.execute("SELECT name FROM sqlite_master")}
        assert "blobs" not in tables  # no schema-3 table was added
        conn.close()
        cache.close()

    def test_schema_1_directory_is_refused_untouched(self, tmp_path):
        """A directory written by the first format (bare pickles, no
        ``blob_sha`` column): disabled, one warning, recompute, nothing
        read and nothing deleted."""
        root = tmp_path / "old"
        blob = self._foreign_directory(root, 1, "ab" * 32 + ".pkl", "")
        self._assert_refused_untouched(root, 1, blob)

    def test_schema_2_directory_is_refused_untouched(self, tmp_path):
        """A directory written by the second format (blob files beside a
        WAL index): refused the same way, and not one byte of its index
        file changes."""
        root = tmp_path / "old"
        blob = self._foreign_directory(
            root, 2, "ab" * 32 + ".blob", "blob_sha TEXT NOT NULL DEFAULT '',"
        )
        before = (root / "index.sqlite3").read_bytes()
        self._assert_refused_untouched(root, 2, blob)
        assert (root / "index.sqlite3").read_bytes() == before

    def test_failed_store_rolls_back_and_the_next_one_lands(self, store, monkeypatch):
        """The index row's INSERT raising after the blob's: the rollback
        takes the blob row with it, and nothing else was written."""
        outcome = run_scenario(SMALL, cache=False)
        with monkeypatch.context() as patched:
            patched.setattr(Scenario, "scenario_digest", lambda self: None)
            with pytest.warns(RuntimeWarning, match="store failed .* NOT NULL"):
                assert store.store(SMALL, outcome) is False
        assert (store.stats.store_errors, _rows(store)) == (1, (0, 0))
        assert store.lookup(SMALL) is None  # a miss, without a warning: no row, no read
        assert store.store(SMALL, outcome) is True  # no transaction left open
        assert store.lookup(SMALL) is not None and store.verify() == []
        assert sorted(os.listdir(store.root)) == [
            "index.sqlite3", "index.sqlite3-shm", "index.sqlite3-wal",
        ]

    def test_open_retries_the_wal_switch_a_sibling_blocks(self, tmp_path, monkeypatch):
        """Two handles opening a fresh directory at once: the one that
        loses the race for the WAL switch gets ``database is locked`` at
        once (SQLite does not wait there) and used to disable itself."""
        real_connect = sqlite3.connect
        refused = []

        class Contended:
            def __init__(self, conn):
                self._conn = conn

            def execute(self, sql, *args):
                if sql == "PRAGMA journal_mode=WAL" and len(refused) < 3:
                    refused.append(sql)
                    raise sqlite3.OperationalError("database is locked")
                return self._conn.execute(sql, *args)

            def __getattr__(self, name):
                return getattr(self._conn, name)

            def __enter__(self):
                return self._conn.__enter__()

            def __exit__(self, *exc):
                return self._conn.__exit__(*exc)

        monkeypatch.setattr(
            "repro.cache.store.sqlite3.connect", lambda *a, **k: Contended(real_connect(*a, **k))
        )
        cache = ResultCache(tmp_path / "fresh")
        assert len(refused) == 3 and cache.disabled_reason is None
        outcome = run_scenario(SMALL, cache=False)
        assert cache.store(SMALL, outcome) and cache.lookup(SMALL) is not None

    def test_lookup_never_raises_on_unreadable_index(self, tmp_path):
        root = tmp_path / "broken"
        root.mkdir()
        (root / "index.sqlite3").write_bytes(b"this is not sqlite")
        cache = ResultCache(root)
        assert cache.disabled_reason is not None
        with pytest.warns(RuntimeWarning):
            assert cache.lookup(SMALL) is None
        assert cache.store(SMALL, run_scenario(SMALL)) is False


# ----------------------------------------------------------------------
# verify & gc
# ----------------------------------------------------------------------
class TestVerifyGc:
    def _three_entries(self, store):
        scenarios = [SMALL, SMALL.with_(seed=1), SMALL.with_(seed=2)]
        for s in scenarios:
            _fill(store, s)
        return scenarios

    def test_verify_clean(self, store):
        self._three_entries(store)
        assert store.verify() == []

    def test_verify_finds_and_prunes_damage(self, store):
        scenarios = self._three_entries(store)
        bad_key, missing_key = cache_key(scenarios[1]), cache_key(scenarios[2])
        _put_blob(store, b"junk", scenarios[1])
        store._conn().execute("DELETE FROM blobs WHERE key = ?", (missing_key,))
        problems = {i.key: i.problem for i in store.verify()}
        assert set(problems) == {bad_key, missing_key}
        assert problems[bad_key].startswith("blob size 4 != indexed")
        assert problems[missing_key].startswith("blob missing")
        assert store.index_stats()["entries"] == 3  # audit-only
        store.verify(prune=True)
        assert store.index_stats()["entries"] == 1
        assert _rows(store, scenarios[1]) == _rows(store, scenarios[2]) == (0, 0)
        assert store.verify() == []

    def test_verify_audits_beyond_a_lookup(self, store):
        """A lookup trusts a head whose blob hash matched; ``verify``
        decodes the body too and re-derives digest and facts from it."""
        scenarios = self._three_entries(store)
        blobs = [_blob(store, s) for s in scenarios]
        # entry 0: another cell's body under this cell's head
        other = SMALL.with_(iterations=20)
        _fill(store, other)
        foreign = _blob(store, other)
        _put_blob(store, blobs[0][: _body_at(blobs[0])] + foreign[_body_at(foreign) :], scenarios[0])
        _reindex(store, scenarios[0])
        # entry 2: a head whose facts disagree with its own body
        head = json.loads(blobs[2][12 : _body_at(blobs[2])])
        head["facts"]["events"] += 1
        lying = json.dumps(head, sort_keys=True, separators=(",", ":")).encode()
        _put_blob(
            store,
            blobs[2][:8] + len(lying).to_bytes(4, "big") + lying + blobs[2][_body_at(blobs[2]) :],
            scenarios[2],
        )
        _reindex(store, scenarios[2])
        assert store.lookup(scenarios[0]) is not None  # hash, head and index agree
        problems = {i.key: i.problem for i in store.verify()}
        assert set(problems) == {cache_key(scenarios[0]), cache_key(scenarios[2])}
        assert "digest mismatch" in problems[cache_key(scenarios[0])]
        assert "facts differ" in problems[cache_key(scenarios[2])]

    def test_gc_max_age_evicts_idle_entries(self, store):
        scenarios = self._three_entries(store)
        keys = [cache_key(s) for s in scenarios]
        conn = store._conn()
        now = 1_000_000.0
        for key, last_hit in zip(keys, (now - 500.0, now - 50.0, now - 5.0)):
            conn.execute(
                "UPDATE entries SET last_hit = ? WHERE key = ?", (last_hit, key)
            )
        res = store.gc(max_age=100.0, now=now)
        assert res.removed == [(keys[0], "age")]
        assert res.kept == 2

    def test_gc_max_bytes_evicts_lru_first(self, store):
        scenarios = self._three_entries(store)
        keys = [cache_key(s) for s in scenarios]
        conn = store._conn()
        now = 1_000_000.0
        # Hit order (oldest first): seed=2, seed=0, seed=1.
        for key, last_hit in zip(keys, (now - 50.0, now - 5.0, now - 500.0)):
            conn.execute(
                "UPDATE entries SET last_hit = ? WHERE key = ?", (last_hit, key)
            )
        sizes = {e["key"]: e["nbytes"] for e in store.entries()}
        keep_bytes = sizes[keys[1]]  # room for exactly the most recent
        res = store.gc(max_bytes=keep_bytes, now=now)
        assert res.removed == [(keys[2], "bytes"), (keys[0], "bytes")]
        assert res.kept == 1
        assert store.index_stats()["entries"] == 1
        assert [e["key"] for e in store.entries()] == [keys[1]]

    def test_gc_combined_age_then_size(self, store):
        scenarios = self._three_entries(store)
        keys = [cache_key(s) for s in scenarios]
        conn = store._conn()
        now = 1_000_000.0
        for key, last_hit in zip(keys, (now - 500.0, now - 50.0, now - 5.0)):
            conn.execute(
                "UPDATE entries SET last_hit = ? WHERE key = ?", (last_hit, key)
            )
        res = store.gc(max_bytes=0, max_age=100.0, now=now)
        # age pass takes keys[0], size pass the rest in LRU order
        assert res.removed == [
            (keys[0], "age"),
            (keys[1], "bytes"),
            (keys[2], "bytes"),
        ]
        assert res.kept == 0 and res.kept_bytes == 0

    def test_gc_deterministic_tie_break(self, store):
        self._three_entries(store)
        conn = store._conn()
        conn.execute("UPDATE entries SET last_hit = 1.0, created = 1.0")
        res = store.gc(max_bytes=0)
        assert [k for k, _ in res.removed] == sorted(k for k, _ in res.removed)


# ----------------------------------------------------------------------
# host faults around a store: the writer killed, the disk full, the
# directory read-only
# ----------------------------------------------------------------------
def _store_killed_before_commit(root, outcome):
    """Store one cell, and die by SIGKILL as the COMMIT after its two
    INSERTs starts: a blob written in a transaction of its own would
    survive this."""
    cache = ResultCache(root)
    inserted = set()

    def trace(sql):
        if sql.startswith("INSERT OR REPLACE INTO"):
            inserted.add(sql.split()[4])
        elif sql.startswith("COMMIT") and inserted == {"blobs", "entries"}:
            os.kill(os.getpid(), signal.SIGKILL)

    cache._conn().set_trace_callback(trace)
    cache.store(SMALL, outcome)


def _show_warning(message, category, filename, lineno, file=None, line=None):
    """What an interpreter without pytest's warning capture prints."""
    sys.stderr.write(warnings.formatwarning(message, category, filename, lineno, line))


def _main_without_write_access(root, argv):
    """``(status, stdout, stderr)`` of ``main(argv)`` in a forked child
    that cannot write ``root``.  Root writes through permission bits, so
    as root the child becomes ``nobody`` (``root`` must be readable to
    it); otherwise ``root`` and its files are made read-only for the
    run.  The parent has imported what the command runs."""
    from repro.cli import main

    files = [root / name for name in os.listdir(root)]
    privileged = os.geteuid() == 0
    if not privileged:
        for path in files + [root]:
            path.chmod(0o555 if path == root else 0o444)
    readable, writable = os.pipe()
    pid = os.fork()
    if pid == 0:  # pragma: no cover - the child's coverage is its output
        try:
            os.close(readable)
            if privileged:
                os.setgroups([])
                os.setgid(65534)
                os.setuid(65534)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                with warnings.catch_warnings():
                    warnings.simplefilter("default")
                    warnings.showwarning = _show_warning
                    try:
                        status = main(argv)
                    except BaseException:  # noqa: BLE001 - a traceback is the failure
                        traceback.print_exc()
                        status = -1
            os.write(writable, json.dumps([status, out.getvalue(), err.getvalue()]).encode())
        finally:
            os._exit(0)
    os.close(writable)
    try:
        data = b""
        while chunk := os.read(readable, 1 << 16):
            data += chunk
        os.waitpid(pid, 0)
    finally:
        os.close(readable)
        if not privileged:
            for path in files + [root]:
                path.chmod(0o755 if path == root else 0o644)
    return json.loads(data)


def _table(out, cached):
    """A sweep's table rows, without the cache's source column."""
    rows = [line for line in out.splitlines() if "|" in line]
    return [(line.rsplit("|", 1)[0] if cached else line).rstrip() for line in rows]


class TestHostFaults:
    def test_a_store_killed_before_its_commit_leaves_nothing(self, tmp_path):
        root = tmp_path / "c"
        outcome = run_scenario(SMALL, cache=False)
        child = multiprocessing.get_context("fork").Process(
            target=_store_killed_before_commit, args=(root, outcome)
        )
        child.start()
        child.join(60)
        assert child.exitcode == -signal.SIGKILL
        assert set(os.listdir(root)) <= {"index.sqlite3", "index.sqlite3-wal", "index.sqlite3-shm"}
        cache = ResultCache(root)
        assert cache.disabled_reason is None
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a clean miss: nothing to warn about
            assert cache.lookup(SMALL) is None
        assert _rows(cache) == (0, 0) and cache.verify() == []
        again = run_scenario(SMALL, cache=cache)
        assert not again.metadata.get("cache_hit") and cache.stats.stores == 1
        assert run_scenario(SMALL, cache=cache).metadata.get("cache_hit") is True

    def test_a_full_disk_costs_the_cache_not_the_run(self, store):
        """The blob's INSERT raising ``database or disk is full`` (the
        index may not grow by a page, and this blob is larger than one):
        one warning, the computed outcome returned, and the next lookup a
        plain miss."""
        scenario = SMALL.with_(ranks=64)
        cold = run_scenario(scenario, cache=False)
        conn = store._conn()
        (pages,) = conn.execute("PRAGMA page_count").fetchone()
        conn.execute(f"PRAGMA max_page_count = {pages}")
        with pytest.warns(RuntimeWarning) as caught:
            outcome = run_scenario(scenario, cache=store)
        assert len(caught) == 1
        assert "store failed" in str(caught[0].message)
        assert "database or disk is full" in str(caught[0].message)
        assert outcome.digest() == cold.digest() and not outcome.metadata.get("cache_hit")
        assert store.stats.store_errors == 1 and _rows(store, scenario) == (0, 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert store.lookup(scenario) is None
        assert store.verify() == []

    def test_a_read_only_directory_prints_one_line_and_the_uncached_table(self, capsys):
        from repro.cli import main

        sweep = TestCli.SWEEP
        assert main(sweep + ["--no-cache"]) == 0  # and imports what the child runs
        uncached = capsys.readouterr().out
        with tempfile.TemporaryDirectory() as tmp:
            os.chmod(tmp, 0o755)
            root = Path(tmp) / "c"
            filled = ResultCache(root)
            run_sweep(Scenario.resolve(ranks=8, iterations=30), {"interval": [10, 20]}, cache=filled)
            filled.close()
            status, out, err = _main_without_write_access(
                root, sweep + ["--cache", "--cache-dir", str(root)]
            )
            assert os.listdir(root) == ["index.sqlite3"]
        assert status == 0
        assert "Traceback" not in err
        (line,) = err.splitlines()
        assert line.startswith("warning: cache directory unusable: ")
        assert _table(out, cached=True) == _table(uncached, cached=False)
        assert "cache: 0/2 cells served from cache" in out


# ----------------------------------------------------------------------
# sweep integration
# ----------------------------------------------------------------------
class TestSweepPartition:
    GRID = {"interval": [10, 20], "seed": [0, 1]}

    def test_cold_then_warm(self, store):
        cold = run_sweep(SMALL, self.GRID, cache=store)
        assert all(not s["cached"] for _, s in cold)
        warm_store = ResultCache(store.root)
        warm = run_sweep(SMALL, self.GRID, cache=warm_store)
        assert all(s["cached"] for _, s in warm)
        assert all(s["saved_s"] > 0.0 for _, s in warm)
        assert (warm_store.stats.hits, warm_store.stats.misses) == (4, 0)
        strip = lambda d: {k: v for k, v in d.items() if k not in ("cached", "saved_s")}
        assert [strip(s) for _, s in cold] == [strip(s) for _, s in warm]

    def test_partial_warm(self, store):
        run_sweep(SMALL, {"interval": [10], "seed": [0, 1]}, cache=store)
        mixed = run_sweep(SMALL, self.GRID, cache=ResultCache(store.root))
        by_cell = {
            (sc.interval, sc.seed): s["cached"] for sc, s in mixed
        }
        assert by_cell == {
            (10, 0): True, (10, 1): True, (20, 0): False, (20, 1): False,
        }

    def test_no_cache_summaries_unannotated(self):
        pairs = run_sweep(SMALL, {"interval": [10]}, cache=False)
        assert "cached" not in pairs[0][1]

    def test_parallel_workers_share_store(self, store):
        cold = run_sweep(SMALL.with_(jobs=2), self.GRID, cache=store)
        warm = run_sweep(SMALL.with_(jobs=2), self.GRID, cache=ResultCache(store.root))
        assert all(s["cached"] for _, s in warm)
        assert [s["result_digest"] for _, s in cold] == [
            s["result_digest"] for _, s in warm
        ]


# ----------------------------------------------------------------------
# policy & plumbing
# ----------------------------------------------------------------------
class TestPolicy:
    def test_cache_enabled_env(self):
        assert not cache_enabled({})
        assert not cache_enabled({"XSIM_CACHE": ""})
        assert not cache_enabled({"XSIM_CACHE": "0"})
        assert cache_enabled({"XSIM_CACHE": "1"})
        assert cache_enabled({"XSIM_CACHE": "yes"})

    def test_cache_dir_env(self, tmp_path):
        assert cache_dir_from_env({"XSIM_CACHE_DIR": str(tmp_path)}) == tmp_path
        default = cache_dir_from_env({})
        assert default.name == "xsim"

    def test_resolve_cache(self, store, monkeypatch):
        monkeypatch.delenv("XSIM_CACHE", raising=False)
        assert resolve_cache(False) is None
        assert resolve_cache(store) is store
        assert resolve_cache(None) is None  # env off by default

    def test_open_cache_memoized(self, tmp_path):
        a = open_cache(tmp_path / "c")
        b = open_cache(tmp_path / "c")
        assert a is b

    def test_stats_record_keys(self):
        record = CacheStats(hits=3, misses=1, lookup_s=0.4).as_record()
        assert record["hit_rate"] == 0.75
        assert record["lookup_mean_s"] == pytest.approx(0.1)
        for key in ("hits", "misses", "stores", "corrupt", "store_errors",
                    "hit_bytes", "store_bytes", "lookup_s", "store_s"):
            assert key in record

    def test_index_stats_shape(self, store):
        _fill(store)
        run_scenario(SMALL, cache=store)
        st = store.index_stats()
        assert st["entries"] == 1
        assert st["hits"] == 1
        assert st["bytes"] > 0
        assert st["saved_s"] > 0.0
        assert st["schema"] == CACHE_SCHEMA_VERSION
        assert st["modes"] == {"single": 1}


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestCli:
    SWEEP = [
        "sweep", "--ranks", "8", "--iterations", "30",
        "--set", "interval=10,20",
    ]

    def test_sweep_source_column_and_summary(self, tmp_path, capsys):
        from repro.cli import main

        flags = ["--cache", "--cache-dir", str(tmp_path / "c")]
        assert main(self.SWEEP + flags) == 0
        cold = capsys.readouterr().out
        assert cold.count("computed") == 2
        assert "cache: 0/2 cells served from cache (0% hit rate)" in cold
        assert main(self.SWEEP + flags) == 0
        warm = capsys.readouterr().out
        assert warm.count("cached") >= 2
        assert "cache: 2/2 cells served from cache (100% hit rate)" in warm
        # stripped of the source column + summary line, the tables match
        strip = lambda text: [
            line.rsplit("|", 1)[0].rstrip()
            for line in text.splitlines()
            if "|" in line
        ]
        assert strip(cold) == strip(warm)

    def test_sweep_without_cache_has_no_column(self, capsys, monkeypatch):
        from repro.cli import main

        monkeypatch.delenv("XSIM_CACHE", raising=False)
        assert main(self.SWEEP) == 0
        out = capsys.readouterr().out
        assert "source" not in out and "cache:" not in out

    def test_app_hit_line(self, tmp_path, capsys):
        from repro.cli import main

        run = ["app", "--ranks", "8", "--iterations", "30", "--interval", "10",
               "--cache", "--cache-dir", str(tmp_path / "c")]
        assert main(run) == 0
        assert "cache: miss (stored" in capsys.readouterr().out
        assert main(run) == 0
        assert "cache: hit " in capsys.readouterr().out

    def test_cache_stats_verify_gc(self, tmp_path, capsys):
        from repro.cli import main

        dirflag = ["--cache-dir", str(tmp_path / "c")]
        main(self.SWEEP + ["--cache"] + dirflag)
        capsys.readouterr()
        assert main(["cache", "stats"] + dirflag) == 0
        out = capsys.readouterr().out
        assert "entries:  2" in out and "salt:" in out
        assert main(["cache", "verify"] + dirflag) == 0
        assert "all servable" in capsys.readouterr().out
        assert main(["cache", "gc", "--max-bytes", "0"] + dirflag) == 0
        assert "evicted 2 entries" in capsys.readouterr().out
        assert main(["cache", "stats"] + dirflag) == 0
        assert "entries:  0" in capsys.readouterr().out

    def test_cache_verify_reports_damage(self, tmp_path, capsys):
        from repro.cli import main

        root = tmp_path / "c"
        dirflag = ["--cache-dir", str(root)]
        main(self.SWEEP + ["--cache"] + dirflag)
        capsys.readouterr()
        cache = ResultCache(root)
        victim = cache.entries()[0]["key"]
        cache._conn().execute("UPDATE blobs SET data = x'00' WHERE key = ?", (victim,))
        assert main(["cache", "verify"] + dirflag) == 1
        out = capsys.readouterr().out
        assert "unservable" in out and "1/2 entries unservable" in out
        assert main(["cache", "verify", "--prune"] + dirflag) == 0
        assert main(["cache", "verify"] + dirflag) == 0

    def test_cache_gc_gives_the_disk_back(self, tmp_path, capsys):
        """``gc --max-bytes`` leaves ``index.sqlite3`` and its WAL smaller
        on disk than before, and ``stats`` reports that size."""
        from repro.cli import main

        root = tmp_path / "c"
        dirflag = ["--cache-dir", str(root)]
        grid = ["--set", "interval=10,20,30", "--set", "seed=0,1"]
        main(self.SWEEP[:-2] + grid + ["--cache"] + dirflag)

        def on_disk():
            return sum(
                (root / name).stat().st_size
                for name in ("index.sqlite3", "index.sqlite3-wal")
                if (root / name).exists()
            )

        before = on_disk()
        capsys.readouterr()
        assert main(["cache", "stats"] + dirflag) == 0
        assert f"{format_size(before)} on disk" in capsys.readouterr().out
        probe = ResultCache(root)
        keep = max(e["nbytes"] for e in probe.entries())
        probe.close()
        assert main(["cache", "gc", "--max-bytes", str(keep)] + dirflag) == 0
        assert "evicted 5 entries" in capsys.readouterr().out
        assert on_disk() < before
        assert main(["cache", "stats"] + dirflag) == 0
        out = capsys.readouterr().out
        assert "entries:  1 " in out and f"{format_size(on_disk())} on disk" in out
        assert main(["cache", "verify"] + dirflag) == 0

    def test_cache_gc_requires_a_policy(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["cache", "gc", "--cache-dir", str(tmp_path / "c")]) == 2
        assert "--max-bytes" in capsys.readouterr().err


# ----------------------------------------------------------------------
# concurrency
# ----------------------------------------------------------------------
def _store_worker(args):
    root, seeds = args
    from repro.cache.store import ResultCache
    from repro.run.backends import run_scenario

    cache = ResultCache(root)
    for seed in seeds:
        run_scenario(SMALL.with_(seed=seed), cache=cache)
    return cache.stats.stores + cache.stats.hits


def _same_key_worker(args):
    root, rounds = args
    from repro.cache.store import ResultCache
    from repro.run.backends import run_scenario

    cache = ResultCache(root)
    outcome = run_scenario(SMALL, cache=False)
    # every store writes different bytes (wall_s differs), so a blob left
    # under another writer's row would fail its hash
    return sum(
        cache.store(SMALL, outcome, wall_s=os.getpid() + i / 1000) for i in range(rounds)
    )


def test_same_cell_stored_concurrently_stays_servable(tmp_path):
    """More writers than cores, all replacing one entry with differing
    bytes: blob rename and index row land in one write transaction, so
    the survivors always belong together."""
    root = str(tmp_path / "contended")
    workers = (os.cpu_count() or 1) + 2
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(workers) as pool:
        counts = pool.map_async(_same_key_worker, [(root, 40)] * workers).get(timeout=120)
    assert counts == [40] * workers
    cache = ResultCache(root)
    assert cache.index_stats()["entries"] == 1
    assert cache.verify() == []
    assert cache.lookup(SMALL) is not None and cache.stats.corrupt == 0


def test_blob_and_row_land_in_one_write_transaction(tmp_path):
    """A second writer of the same cell is held out between the first
    writer's blob INSERT and its index row; without that, the second
    writer's blob would end up under the first writer's hash."""
    root = tmp_path / "c"
    first = ResultCache(root)
    outcome = run_scenario(SMALL, cache=False)
    entered, finished = threading.Event(), threading.Event()
    held_out: list[bool] = []

    def second_writer():
        second = ResultCache(root)
        entered.set()
        second.store(SMALL, outcome, wall_s=2.0)
        finished.set()
        second.close()

    thread = threading.Thread(target=second_writer)

    def let_the_other_try(sql):
        # As the index row's INSERT starts, the blob row is written.  (An
        # assert here would be swallowed by SQLite's callback.)
        if sql.startswith("INSERT OR REPLACE INTO entries"):
            thread.start()
            held_out.append(entered.wait(10) and not finished.wait(0.3))

    first._conn().set_trace_callback(let_the_other_try)
    assert first.store(SMALL, outcome, wall_s=1.0)
    thread.join(30)
    assert held_out == [True], "second store got in between blob and row"
    assert not thread.is_alive() and finished.is_set()
    audit = ResultCache(root)
    assert audit.verify() == []
    assert audit.lookup(SMALL).metadata["cache_wall_s"] == 2.0


def test_concurrent_writers_one_directory(tmp_path):
    """Two worker processes hammering one cache directory — overlapping
    and disjoint keys — must leave a fully servable store."""
    root = str(tmp_path / "shared")
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(2) as pool:
        counts = pool.map(
            _store_worker, [(root, [0, 1, 2, 3]), (root, [2, 3, 4, 5])]
        )
    assert all(c == 4 for c in counts)
    cache = ResultCache(root)
    assert cache.index_stats()["entries"] == 6
    assert cache.verify() == []
    warm = run_scenario(SMALL.with_(seed=4), cache=cache)
    assert warm.metadata.get("cache_hit") is True
