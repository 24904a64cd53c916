"""The content-addressed result cache (repro.cache).

Covers the correctness promises the cache makes over raw memoization:

* the key normalizes execution parallelism away (serial and sharded
  requests of one cell share an entry) but keeps every result- and
  payload-relevant field;
* a warm hit is equal to recomputation — digest, summary — and the
  result digest is host-independent (no wall times, transports, or CPU
  counts leak in);
* damaged state (a truncated, emptied or rewritten head, a stale index
  row, a foreign schema version) degrades to recomputation with a
  warning, never to a crash or a stale answer, and no byte of a head
  reaches the JSON decoder before its size and hash matched the row's;
  a head that passes every check but disagrees with its recomputation is
  demoted when its objects are first read, and the entry heals: the
  recomputed cell is stored back in its place;
* host faults around a store — the writer killed before its COMMIT, a
  full disk, a read-only directory — leave nothing behind and cost only
  the cache, never the run;
* a hit answers ``summary()``/``digest()``/``completed`` from its head
  alone and builds ("decodes") ``result`` / ``run`` / ``observer`` on
  first access, once, by computing its scenario again — an unobserved
  hit's ``observer`` computes nothing — and what it builds equals the
  cold objects field for field;
* ``gc`` evicts in the documented order (age pass first, then LRU by
  last hit) and ``verify`` finds what a lookup refuses;
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
import itertools
import json
import math
import multiprocessing
import os
import pickle
import shutil
import signal
import sqlite3
import sys
import tempfile
import threading
import traceback
import tracemalloc
import warnings
import zlib
from pathlib import Path

import pytest
from hypothesis import assume, example, given, seed, settings
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
    encode_head,
)
from repro.core.restart import RestartDriver
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


def _cold_small():
    """SMALL computed once, uncached."""
    return _cold(SMALL)


@functools.cache
def _cold(scenario):
    """``scenario`` computed once, uncached."""
    return run_scenario(scenario, cache=False)


@functools.cache
def _head_of(scenario):
    """The head a store of ``scenario``'s cold outcome writes, decoded."""
    return json.loads(encode_head(_cold(scenario), 0.1))


@contextlib.contextmanager
def _counting_runs():
    """A list that gains one entry per simulation run
    (``RestartDriver.run``) inside the block."""
    real = RestartDriver.run
    ran = []
    RestartDriver.run = lambda self: ran.append(None) or real(self)
    try:
        yield ran
    finally:
        RestartDriver.run = real


@pytest.fixture()
def runs():
    """The simulations run during the test, counted."""
    with _counting_runs() as ran:
        yield ran


#: A fault-free and a restart cell: their heads differ in mode and facts.
HOSTILE_CELLS = (SMALL, SMALL.with_(failures="3@50s"))
#: Every key of a head, and of its facts and metadata.
HEAD_PATHS = [
    (key,) for key in ("format", "mode", "result_digest", "wall_s", "metadata", "facts")
] + [
    ("facts", key) for key in ("completed", "exit_time", "events", "failures", "restarts",
                               "timing", "e2", "mttf_a", "strategy_facts")
] + [("metadata", "nshards"), ("facts", "strategy_facts", "strategy")]
DELETE = object()
JSON_LEAVES = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
#: What an edit puts at a head path: nothing (the key removed), a value
#: of any JSON type, or a list or object of them.
HEAD_VALUES = st.one_of(
    st.just(DELETE), JSON_LEAVES, st.lists(JSON_LEAVES, max_size=2),
    st.dictionaries(st.text(max_size=6), JSON_LEAVES, max_size=2),
)


@functools.cache
def _cli_parser():
    from repro.cli import build_parser

    return build_parser()


def _cli_reports(cell, cache_dir):
    """``cell`` through ``xsim-run app --cache`` and a one-cell ``sweep
    --cache`` against ``cache_dir``: the two commands' stdout.  (The
    command functions ``main`` calls, under one parser built once.)"""
    argv = ["--ranks", str(cell.ranks), "--iterations", str(cell.iterations),
            "--interval", str(cell.interval), "--xsim-failures", cell.failures,
            "--cache", "--cache-dir", str(cache_dir)]
    out = []
    for command in (["app"], ["sweep", "--set", f"seed={cell.seed}"]):
        args = _cli_parser().parse_args(command + argv)
        with contextlib.redirect_stdout(io.StringIO()) as text:
            assert args.fn(args) == 0
        out.append(text.getvalue())
    return out


def _head(store, scenario=SMALL):
    """The stored head's bytes, read straight from its row."""
    (data,) = store._conn().execute(
        "SELECT head FROM entries WHERE key = ?", (cache_key(scenario),)
    ).fetchone()
    return data


def _put_head(store, data, scenario=SMALL):
    """Overwrite the stored head and leave the rest of its row alone."""
    store._conn().execute(
        "UPDATE entries SET head = ? WHERE key = ?", (data, cache_key(scenario))
    )


def _flip(store, offset, scenario=SMALL):
    data = bytearray(_head(store, scenario))
    data[offset] ^= 0x01
    _put_head(store, bytes(data), scenario)


def _rows(store, scenario=SMALL):
    """The number of index rows under the scenario's key."""
    return store._conn().execute(
        "SELECT COUNT(*) FROM entries WHERE key = ?", (cache_key(scenario),)
    ).fetchone()[0]


def _vouch(store, data, scenario=SMALL):
    """Store ``data`` as the head under a row that vouches for it: its
    size and SHA-256 — what a hostile (or foreign) writer to a shared
    directory can do."""
    store._conn().execute(
        "UPDATE entries SET head = ?, nbytes = ?, head_sha = ? WHERE key = ?",
        (data, len(data), hashlib.sha256(data).hexdigest(), cache_key(scenario)),
    )


@pytest.fixture()
def no_decoder(monkeypatch):
    """A context in which the JSON decoder raises if called — save on
    ``head``, the bytes of a head whose hash the caller knows held."""

    def refuse(*_args, **_kwargs):
        raise AssertionError("a decoder ran on bytes that were not verified")

    @contextlib.contextmanager
    def refusing(head=None):
        real_loads = json.loads
        with monkeypatch.context() as patched:
            patched.setattr(
                json, "loads", lambda data: real_loads(data) if data == head else refuse()
            )
            yield

    return refusing


@pytest.fixture(scope="module")
def hostile_stores(tmp_path_factory):
    """One store per cell of ``HOSTILE_CELLS``, shared by a property's
    examples: each stores its entry afresh and counts from zero."""
    stores = {cell: ResultCache(tmp_path_factory.mktemp("head")) for cell in HOSTILE_CELLS}
    yield stores
    for store in stores.values():
        store.close()


@pytest.fixture(params=["at-lookup", "on-access"])
def first_read(request, runs):
    """What a caller reads first off a hit: its objects, straight after
    the lookup returns, or its head, with the objects read later.  The
    returned function reads the head (``on-access`` only) and checks
    that this computed nothing; either way the objects are computed on
    the first access to one."""

    def read_head(outcome):
        if request.param == "on-access":
            ran = len(runs)
            outcome.summary(), outcome.digest(), outcome.facts(), outcome.timing_report()
            assert len(runs) == ran

    return read_head


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
        assert cache_key(SMALL.with_(shards=4, shard_transport="shm")) == base
        assert cache_key(SMALL.with_(shards=2, shard_transport="inline")) == base
        assert cache_key(SMALL.with_(shards=2, shard_transport="shm")) == base
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
            shards=2, shard_transport="inline", trace_out="/tmp/t.json",
            failures="3@50s", strategy="ckpt-multilevel", strategy_params={"k": 4},
        )
        normalized = busy.with_(shards=1, shard_transport=None, trace_out="")
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
        # observe/trace_detail/check change what a hit must reproduce.
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
        st = store.stats
        assert (st.hits, st.misses, st.stores, st.corrupt) == (1, 1, 1, 0)
        assert store.verify() == []  # the row passes every check a lookup makes

    SHARDED = SMALL.with_(shards=2, shard_transport="inline")

    @pytest.mark.parametrize(
        "computed, requested", [(SMALL, SHARDED), (SHARDED, SMALL)],
        ids=["serial-cold", "sharded-cold"],
    )
    def test_cross_backend_sharing(self, store, computed, requested):
        """The key leaves execution parallelism out: an entry computed on
        either backend serves the same cell requested on the other."""
        cold = _fill(store, computed)
        warm = run_scenario(requested, cache=store)
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
# head and objects: what a hit answers from where
# ----------------------------------------------------------------------
STRATEGIES = ("ckpt", "ckpt-multilevel", "replication", "none")


def _uncached(summary):
    """A campaign summary without the cache's annotations."""
    return {k: v for k, v in summary.items() if k not in ("cached", "saved_s")}


class TestHeadAndBody:
    def test_warm_run_cells_never_decodes_a_large_body(self, store, runs):
        cells = [
            SMALL.with_(seed=0),
            SMALL.with_(seed=1),
            SMALL.with_(failures="3@50s"),
            SMALL.with_(failures="3@50s", strategy="replication"),
        ]
        cold = run_cells(cells, cache=store)
        assert len(runs) == len(cells)
        warm = run_cells(cells, cache=store)
        assert all(s["cached"] for s in warm) and store.stats.hits == len(cells)
        assert [_uncached(s) for s in warm] == [_uncached(s) for s in cold]
        assert len(runs) == len(cells)  # the warm campaign computed nothing

    def test_warm_campaign_in_a_computing_process_decodes_nothing(self, store, runs):
        """A rerun in a process that has computed cells — the simulator's
        classes loaded, so building a hit's objects would import nothing
        — still computes no cell: a campaign reads summaries only."""
        cells = [
            SMALL.with_(strategy=strategy, failures=failures, observe=observe)
            for strategy in STRATEGIES
            for failures in ("", "3@50s")
            for observe in (False, True)
        ]
        cold = run_cells(cells, cache=store)
        assert "repro.pdes.engine" in sys.modules
        assert {s["mode"] for s in cold} == {"single", "restart"}
        computed = len(runs)
        warm = run_cells(cells, cache=store)
        assert all(s["cached"] for s in warm) and store.stats.hits == len(cells)
        assert [_uncached(s) for s in warm] == [_uncached(s) for s in cold]
        assert len(runs) == computed

    @pytest.mark.parametrize(
        "order", list(itertools.permutations(("result", "run", "observer"))), ids="-".join
    )
    def test_reading_the_objects_in_any_order_decodes_once(self, store, runs, order):
        scenario = SMALL.with_(failures="3@50s", observe=True)
        cold = _fill(store, scenario)
        warm = run_scenario(scenario, cache=store)
        assert warm.summary() == cold.summary() and len(runs) == 1
        for name in order + order:
            getattr(warm, name)
            assert len(runs) == 2
        assert _canon(warm.run) == _canon(cold.run)
        assert to_jsonl(warm.observer) == to_jsonl(cold.observer)
        assert len(runs) == 2

    @pytest.mark.parametrize("scenario", [SMALL, SMALL.with_(failures="3@50s")], ids=["single", "restart"])
    def test_timing_report_is_a_head_fact(self, store, runs, scenario):
        cold = _fill(store, scenario)
        assert cold.timing_report() == cold.result.timing_report()
        warm = run_scenario(scenario, cache=store)
        assert warm.timing_report() == cold.timing_report() and len(runs) == 1

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

    def test_head_answers_and_large_body_decodes_once_on_first_access(self, store, runs):
        cold = _fill(store, SMALL.with_(failures="3@50s"))
        warm = run_scenario(SMALL.with_(failures="3@50s"), cache=store)
        assert warm.summary() == cold.summary()
        assert warm.digest() == cold.digest() and warm.completed is cold.completed
        assert warm.facts() == cold.facts() and warm.metadata["cache_hit"] is True
        assert warm.observer is None and len(runs) == 1  # unobserved: nothing to compute
        assert warm.run is not None and len(runs) == 2
        assert warm.result.exit_time == cold.result.exit_time
        assert len(runs) == 2

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("failures", ["", "3@50s"], ids=["single", "restart"])
    def test_decoded_objects_equal_cold_field_for_field(
        self, store, runs, first_read, strategy, failures
    ):
        scenario = SMALL.with_(strategy=strategy, failures=failures, observe=True)
        cold = _fill(store, scenario)
        warm = run_scenario(scenario, cache=store)
        first_read(warm)
        assert warm.metadata["cache_hit"] is True
        assert warm.mode == cold.mode == ("restart" if failures else "single")
        assert _canon(warm.result) == _canon(cold.result)
        assert _canon(warm.run) == _canon(cold.run)  # store and strategy counters too
        assert to_jsonl(warm.observer) == to_jsonl(cold.observer)
        assert to_chrome(warm.observer) == to_chrome(cold.observer)
        assert outcome_digest(warm.run, warm.mode) == warm.digest() == cold.digest()
        assert len(runs) == 2

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

    def test_cache_hit_instant_reports_this_blobs_size(self, store, first_read):
        scenarios = [SMALL.with_(observe=True), SMALL.with_(observe=True, ranks=27)]
        for scenario in scenarios:
            _fill(store, scenario)
        for scenario in scenarios:  # the second hit must not report a running total
            warm = run_scenario(scenario, cache=store)
            first_read(warm)
            (instant,) = [e for e in warm.observer.host_events() if e.name == "cache-hit"]
            size = len(_head(store, scenario))
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
        data = _head(store)
        _put_head(store, data[: len(data) // 2])
        with pytest.warns(RuntimeWarning, match="unusable .*head size"):
            again = run_scenario(SMALL, cache=store)
        assert not again.metadata.get("cache_hit")
        assert again.digest() == cold.digest()
        assert store.stats.corrupt == 1
        # the damaged entry was dropped and the recompute re-stored it
        assert run_scenario(SMALL, cache=store).metadata.get("cache_hit") is True

    def test_missing_blob_recomputes(self, store):
        """A row whose head is gone (emptied)."""
        cold = _fill(store)
        _put_head(store, b"")
        with pytest.warns(RuntimeWarning, match="head size 0 != indexed"):
            again = run_scenario(SMALL, cache=store)
        assert not again.metadata.get("cache_hit")
        assert again.digest() == cold.digest()
        assert _rows(store) == 1  # demoted, then re-stored whole
        assert store.verify() == []

    def test_garbage_blob_recomputes(self, store):
        cold = _fill(store)
        _put_head(store, b"not a head")
        with pytest.warns(RuntimeWarning, match="head size"):
            again = run_scenario(SMALL, cache=store)
        assert not again.metadata.get("cache_hit")
        assert again.digest() == cold.digest()
        # the same garbage under a row that vouches for it gets as far as
        # the head decoder, and no further
        _vouch(store, b"not a head, but the index says so")
        with pytest.warns(RuntimeWarning, match="head undecodable"):
            again = run_scenario(SMALL, cache=store)
        assert not again.metadata.get("cache_hit")
        assert again.digest() == cold.digest()

    def test_stale_index_digest_recomputes(self, store):
        """An index row whose digest disagrees with its head must never
        be served."""
        _fill(store)
        store._conn().execute(
            "UPDATE entries SET result_digest = 'deadbeef'"
        )
        with pytest.warns(RuntimeWarning, match="head digest .* != indexed deadbeef"):
            assert store.lookup(SMALL) is None
        assert store.stats.corrupt == 1

    def test_stale_blob_sha_recomputes(self, store):
        _fill(store)
        store._conn().execute("UPDATE entries SET head_sha = ?", ("0" * 64,))
        with pytest.warns(RuntimeWarning, match="head hash .* != indexed 0000"):
            assert store.lookup(SMALL) is None
        assert store.stats.corrupt == 1
        assert store.index_stats()["entries"] == 0
        assert _rows(store) == 0

    @pytest.mark.parametrize("where", ["head", "last"])
    def test_flipped_byte_is_refused_before_any_decoder(self, store, no_decoder, where):
        """Verify-before-decode: one flipped bit in the head — inside it,
        or its closing brace — is a miss, and the JSON decoder never
        ran."""
        _fill(store)
        _flip(store, {"head": 20, "last": -1}[where])
        with no_decoder(), pytest.warns(RuntimeWarning, match="head hash"):
            assert store.lookup(SMALL) is None
        assert (store.stats.corrupt, store.stats.hits) == (1, 0)
        assert _rows(store) == 0

    def test_truncation_is_refused_before_hashing(self, store, monkeypatch):
        _fill(store)
        truncated = _head(store)[:-1]
        _put_head(store, truncated)
        real = hashlib.sha256

        def guarded(data=b""):
            assert data != truncated, "hashed a head whose size already disagreed"
            return real(data)

        monkeypatch.setattr(hashlib, "sha256", guarded)
        with pytest.warns(RuntimeWarning, match="head size"):
            assert store.lookup(SMALL) is None

    @seed(26)
    @settings(max_examples=40)
    @given(
        damage=st.one_of(
            st.tuples(st.just("head"), st.one_of(st.binary(max_size=2048), st.text(max_size=80))),
            st.tuples(st.just("truncate"), st.integers(min_value=0)),
            st.tuples(
                st.sampled_from(["nbytes", "head_sha", "result_digest"]),
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
        """The head replaced (by bytes or text) or truncated, or any value
        in the row's other checked columns: a miss with exactly one
        warning, the lookup never raises and computes nothing, and the
        next run recomputes the same summary."""
        cold = _cold_small()
        cache = ResultCache(tmp_path_factory.mktemp("fuzz"))
        assert cache.store(SMALL, cold)
        checked = "SELECT head, nbytes, head_sha, result_digest FROM entries"
        before = cache._conn().execute(checked).fetchone()
        what, value = damage
        if what == "truncate":
            _put_head(cache, before[0][: value % len(before[0])])
        else:
            cache._conn().execute(f"UPDATE entries SET {what} = ?", (value,))
        after = cache._conn().execute(checked).fetchone()
        assume(after != before)
        with warnings.catch_warnings(record=True) as caught, _counting_runs() as ran:
            warnings.simplefilter("always")
            assert cache.lookup(SMALL) is None
        assert [w.category for w in caught] == [RuntimeWarning] and ran == []
        again = run_scenario(SMALL, cache=cache)
        assert not again.metadata.get("cache_hit") and again.summary() == cold.summary()
        cache.close()

    @seed(50)
    @settings(max_examples=400, deadline=None)
    @example(cell=SMALL, base=SMALL, edits=[(("facts", "timing"), "x")], extra={}, raw=None)
    @given(
        cell=st.sampled_from(HOSTILE_CELLS),
        base=st.sampled_from(HOSTILE_CELLS),
        edits=st.lists(
            st.tuples(st.sampled_from(HEAD_PATHS), HEAD_VALUES), min_size=1, max_size=2
        ),
        extra=st.dictionaries(st.text(max_size=6), JSON_LEAVES, max_size=2),
        raw=st.one_of(
            st.none(), st.none(), st.binary(max_size=64),
            st.integers(1, 50_000).map(lambda n: b"[" * n),
        ),
    )
    def test_any_head_under_a_correct_hash_is_served_whole_or_one_warned_miss(
        self, hostile_stores, cell, base, edits, extra, raw
    ):
        """A hostile writer to a shared directory puts any head under a
        correct ``head_sha`` — another cell's head under this cell's key
        and digest, keys added, removed or given values of the wrong type,
        or raw bytes: the lookup never raises and computes nothing, and
        either serves an outcome whose digest, summary, completion,
        metadata and timing line all read, and whose ``app --cache`` and
        ``sweep --cache`` reports print as hits, or is a miss with
        exactly one warning."""
        cold, cache = _cold(cell), hostile_stores[cell]
        cache.stats = CacheStats()
        assert cache.store(cell, cold)
        head = json.loads(json.dumps(_head_of(base) | {"result_digest": cold.digest()}))
        head.update(extra)
        for path, value in edits:
            *parents, leaf = path
            node = functools.reduce(
                lambda n, k: n.get(k) if isinstance(n, dict) else None, parents, head
            )
            if isinstance(node, dict):
                if value is DELETE:
                    node.pop(leaf, None)
                else:
                    node[leaf] = value
        _vouch(cache, raw if raw is not None else json.dumps(head).encode(), cell)
        with warnings.catch_warnings(record=True) as caught, _counting_runs() as ran:
            warnings.simplefilter("always")
            warm = cache.lookup(cell)
            if warm is not None:
                warm.digest(), warm.summary(), warm.completed, dict(warm.metadata)
                warm.timing_report()
                app, sweep = _cli_reports(cell, cache.root)
                assert "cache: hit" in app and "cache: 1/1 cells served" in sweep
        assert [w.category for w in caught] == ([] if warm else [RuntimeWarning])
        assert ran == []

    def test_a_head_with_wrong_facts_heals_its_entry_on_first_access(self, store, runs):
        """A head whose facts disagree with its run, under a correct
        ``head_sha``: the lookup serves it, and the first read of the
        hit's objects computes the run, finds the disagreement, warns once
        and demotes the entry, storing the computed outcome with the
        recomputation's own wall time in its place; the outcome and the
        next lookup report the computed facts."""
        cold = _cold_small()
        assert store.store(SMALL, cold, wall_s=1e6)
        head = json.loads(_head(store))
        head["facts"]["events"] += 1
        _vouch(store, json.dumps(head).encode())
        warm = run_scenario(SMALL, cache=store)
        assert warm.metadata["cache_hit"] is True and warm.metadata["cache_wall_s"] == 1e6
        assert warm.facts()["events"] == cold.facts()["events"] + 1 and runs == []
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run = warm.run
        assert [w.category for w in caught] == [RuntimeWarning] and len(runs) == 1
        assert "disagrees with its recomputation" in str(caught[0].message)
        assert any(
            r.category == "cache" and "recomputing" in r.message
            for r in run.segments[-1].result.log.entries
        )
        assert outcome_digest(run, warm.mode) == cold.digest() and warm.facts() == cold.facts()
        assert (store.stats.corrupt, store.stats.stores, _rows(store)) == (1, 2, 1)
        (entry,) = store.entries()
        assert 0.0 < entry["wall_s"] < 1e6  # the recomputation's, not the lost entry's
        healed = run_scenario(SMALL, cache=store)
        assert healed.metadata["cache_hit"] is True
        assert healed.metadata["cache_wall_s"] == entry["wall_s"]
        assert healed.facts() == cold.facts() and healed.summary() == cold.summary()
        assert store.verify() == [] and len(runs) == 1

    def test_warning_logged_into_recomputed_run(self, store):
        _fill(store)
        _put_head(store, b"junk")
        with pytest.warns(RuntimeWarning):
            again = run_scenario(SMALL, cache=store)
        log = again.result.log
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

    @staticmethod
    def _one_file_directory(root, version):
        """A cache directory the third, fourth or fifth format wrote: its
        WAL index with a ``blobs`` table beside ``entries``, and one entry
        — SMALL's, under today's key — whose blob holds its body as a
        plain pickle (3) or deflated (4, 5), under a row hashing the
        whole blob (3, 4) or its head prefix (5)."""
        cold = _cold_small()
        head = {
            "format": version, "mode": cold.mode, "result_digest": cold.digest(),
            "wall_s": 0.1, "metadata": dict(cold.metadata), "facts": cold.facts(),
        }
        body = pickle.dumps((cold.result, None, None), pickle.HIGHEST_PROTOCOL)
        if version >= 4:
            head["body_nbytes"], body = len(body), zlib.compress(body, 1)
        if version == 5:
            head["body_sha"] = hashlib.sha256(body).hexdigest()
        head_bytes = json.dumps(head, sort_keys=True, separators=(",", ":")).encode()
        prefix = b"XSIMRC2\n" + len(head_bytes).to_bytes(4, "big") + head_bytes
        blob = prefix + body
        root.mkdir(parents=True)
        conn = sqlite3.connect(root / "index.sqlite3")
        conn.execute("PRAGMA page_size=4096")
        conn.execute("PRAGMA auto_vacuum=INCREMENTAL")
        conn.execute("PRAGMA journal_mode=WAL")
        column = "head_sha" if version == 5 else "blob_sha"
        conn.executescript(
            "CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT NOT NULL);"
            "CREATE TABLE blobs (key TEXT PRIMARY KEY, data BLOB NOT NULL);"
            "CREATE TABLE entries (key TEXT PRIMARY KEY, scenario_digest TEXT NOT NULL,"
            " result_digest TEXT NOT NULL, mode TEXT NOT NULL, nbytes INTEGER NOT NULL,"
            f" {column} TEXT NOT NULL, wall_s REAL NOT NULL, created REAL NOT NULL,"
            " last_hit REAL NOT NULL, hits INTEGER NOT NULL DEFAULT 0);"
            "CREATE INDEX entries_last_hit ON entries(last_hit);"
            f"INSERT INTO meta VALUES ('schema', '{version}');"
        )
        key = cache_key(SMALL)
        conn.execute("INSERT INTO blobs VALUES (?, ?)", (key, blob))
        conn.execute(
            "INSERT INTO entries VALUES (?, ?, ?, 'single', ?, ?, 0.1, 1.0, 1.0, 0)",
            (key, SMALL.scenario_digest(), cold.digest(), len(blob),
             hashlib.sha256(prefix if version == 5 else blob).hexdigest()),
        )
        conn.commit()
        conn.close()
        return blob

    def _assert_refused_untouched(self, root, version, blob):
        """``blob`` is the foreign directory's blob file, or (schemas 3
        to 5) the bytes of its ``blobs`` row."""
        cache = ResultCache(root)
        assert cache.disabled_reason is not None
        with pytest.warns(
            RuntimeWarning, match=f"schema version {version} != supported {CACHE_SCHEMA_VERSION}"
        ) as caught:
            outcome = run_scenario(SMALL, cache=cache)
            assert cache.lookup(SMALL) is None
        assert len(caught) == 1  # the disabled warning fires once
        assert not outcome.metadata.get("cache_hit") and outcome.completed
        assert cache.stats.stores == 0
        conn = sqlite3.connect(root / "index.sqlite3")
        assert conn.execute("SELECT COUNT(*) FROM entries").fetchone() == (1,)
        assert conn.execute("SELECT value FROM meta").fetchone() == (str(version),)
        if isinstance(blob, Path):
            assert blob.exists()
            tables = {name for (name,) in conn.execute("SELECT name FROM sqlite_master")}
            assert "blobs" not in tables  # no table of a later schema was added
        else:
            assert conn.execute("SELECT data FROM blobs").fetchall() == [(blob,)]
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

    def test_schema_3_directory_is_refused_untouched(self, tmp_path):
        """A directory written by the third format (one SQLite file, the
        body a plain pickle): refused the same way, its entry neither read
        nor demoted, and not one byte of its index file changes."""
        root = tmp_path / "old"
        blob = self._one_file_directory(root, 3)
        before = (root / "index.sqlite3").read_bytes()
        self._assert_refused_untouched(root, 3, blob)
        assert (root / "index.sqlite3").read_bytes() == before

    def test_schema_4_directory_is_refused_untouched(self, tmp_path):
        """A directory written by the fourth format (one SQLite file, the
        index row hashing the whole blob): refused the same way, its entry
        neither read nor demoted, and not one byte of its index file
        changes."""
        root = tmp_path / "old"
        blob = self._one_file_directory(root, 4)
        before = (root / "index.sqlite3").read_bytes()
        self._assert_refused_untouched(root, 4, blob)
        assert (root / "index.sqlite3").read_bytes() == before

    def test_schema_5_directory_is_refused_untouched(self, tmp_path):
        """A directory written by the fifth format (the run's objects
        pickled and deflated in a ``blobs`` row behind a head the index
        row hashed): refused the same way, its entry neither read nor
        demoted, and not one byte of its index file changes."""
        root = tmp_path / "old"
        blob = self._one_file_directory(root, 5)
        before = (root / "index.sqlite3").read_bytes()
        self._assert_refused_untouched(root, 5, blob)
        assert (root / "index.sqlite3").read_bytes() == before

    def test_failed_store_rolls_back_and_the_next_one_lands(self, store, monkeypatch):
        """The row's INSERT raising inside its transaction: the rollback
        leaves no row, and nothing else was written."""
        outcome = run_scenario(SMALL, cache=False)
        with monkeypatch.context() as patched:
            patched.setattr(Scenario, "scenario_digest", lambda self: None)
            with pytest.warns(RuntimeWarning, match="store failed .* NOT NULL"):
                assert store.store(SMALL, outcome) is False
        assert (store.stats.store_errors, _rows(store)) == (1, 0)
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
        bad_key, stale_key = cache_key(scenarios[1]), cache_key(scenarios[2])
        _put_head(store, b"junk", scenarios[1])
        store._conn().execute("UPDATE entries SET head_sha = '0' WHERE key = ?", (stale_key,))
        problems = {i.key: i.problem for i in store.verify()}
        assert set(problems) == {bad_key, stale_key}
        assert problems[bad_key].startswith("head size 4 != indexed")
        assert problems[stale_key].startswith("head hash")
        assert store.index_stats()["entries"] == 3  # audit-only
        store.verify(prune=True)
        assert store.index_stats()["entries"] == 1
        assert _rows(store, scenarios[1]) == _rows(store, scenarios[2]) == 0
        assert store.verify() == []

    def test_verify_finds_what_a_lookup_refuses(self, store):
        """``verify`` makes a lookup's checks on every row: each entry it
        names is one a lookup refuses, for the reason the lookup's warning
        gives, and each row it passes is a hit."""
        scenarios = self._three_entries(store) + [SMALL.with_(seed=3)]
        _fill(store, scenarios[3])
        _put_head(store, b"junk", scenarios[0])
        _flip(store, 20, scenarios[1])
        store._conn().execute(
            "UPDATE entries SET result_digest = 'deadbeef' WHERE key = ?",
            (cache_key(scenarios[2]),),
        )
        problems = {i.key: i.problem for i in store.verify()}
        assert len(problems) == 3
        for scenario in scenarios:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                hit = store.lookup(scenario)
            problem = problems.get(cache_key(scenario))
            if problem is None:
                assert hit is not None and caught == []
            else:
                assert hit is None and f"({problem})" in str(caught[0].message)

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
    """Store one cell, and die by SIGKILL as the COMMIT after its
    INSERT starts."""
    cache = ResultCache(root)
    inserted = set()

    def trace(sql):
        if sql.startswith("INSERT OR REPLACE INTO"):
            inserted.add(sql.split()[4])
        elif sql.startswith("COMMIT") and inserted == {"entries"}:
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
        assert _rows(cache) == 0 and cache.verify() == []
        again = run_scenario(SMALL, cache=cache)
        assert not again.metadata.get("cache_hit") and cache.stats.stores == 1
        assert run_scenario(SMALL, cache=cache).metadata.get("cache_hit") is True

    def test_a_full_disk_costs_the_cache_not_the_run(self, store):
        """The row's INSERT raising ``database or disk is full`` (the
        index may not grow by a page, and a filler row leaves the page
        the row would go to no room for it): one warning, the computed
        outcome returned, and the next lookup a plain miss."""
        cold = run_scenario(SMALL, cache=False)
        conn = store._conn()
        conn.execute(
            "INSERT INTO entries VALUES ('filler', '', '', 'single', 0, ?, '', 0.0, 0.0, 0.0, 0)",
            (bytes(3800),),
        )
        (pages,) = conn.execute("PRAGMA page_count").fetchone()
        conn.execute(f"PRAGMA max_page_count = {pages}")
        with pytest.warns(RuntimeWarning) as caught:
            outcome = run_scenario(SMALL, cache=store)
        assert len(caught) == 1
        assert "store failed" in str(caught[0].message)
        assert "database or disk is full" in str(caught[0].message)
        assert outcome.digest() == cold.digest() and not outcome.metadata.get("cache_hit")
        assert store.stats.store_errors == 1 and _rows(store) == 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert store.lookup(SMALL) is None
        conn.execute("DELETE FROM entries WHERE key = 'filler'")
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
        assert [_uncached(s) for _, s in cold] == [_uncached(s) for _, s in warm]

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
        cold = run_sweep(SMALL, self.GRID, jobs=2, cache=store)
        warm = run_sweep(SMALL, self.GRID, jobs=2, cache=ResultCache(store.root))
        assert all(s["cached"] for _, s in warm)
        assert [s["result_digest"] for _, s in cold] == [
            s["result_digest"] for _, s in warm
        ]

    def test_a_cell_the_cache_cannot_hold_is_not_a_miss(self, store):
        """A ``record_events`` cell never touches the store, so a warm
        campaign around it reads a hit rate of 1; it still runs."""
        stored = [SMALL, SMALL.with_(seed=1)]
        run_cells(stored, cache=store)
        handle = ResultCache(store.root)
        warm = run_cells(stored + [SMALL.with_(record_events=True)], cache=handle)
        assert [s["cached"] for s in warm] == [True, True, False]
        assert warm[2]["completed"]
        assert (handle.stats.hits, handle.stats.misses, handle.stats.hit_rate) == (2, 0, 1.0)


# ----------------------------------------------------------------------
# batched lookup: one read and one write transaction a partition
# ----------------------------------------------------------------------
def _transactions(cache):
    """The ``BEGIN`` statements ``cache``'s connection issues from now
    on, as a list that fills while the caller runs."""
    begun: list[str] = []
    cache._conn().set_trace_callback(
        lambda sql: begun.append(sql) if sql.startswith("BEGIN") else None
    )
    return begun


def _hits(cache):
    """``{key: (hits, last_hit)}`` of every index row."""
    return {e["key"]: (e["hits"], e["last_hit"]) for e in cache.entries()}


class TestBatchedLookup:
    CELLS = [SMALL.with_(seed=s) for s in range(4)]

    def test_a_partition_costs_one_read_and_one_write_transaction(self, store):
        cold_begun = _transactions(store)
        run_cells(self.CELLS, cache=store)
        assert cold_begun == ["BEGIN"] + ["BEGIN IMMEDIATE"] * len(self.CELLS)
        handle = ResultCache(store.root)
        begun = _transactions(handle)
        assert all(s["cached"] for s in run_cells(self.CELLS, cache=handle))
        assert begun == ["BEGIN", "BEGIN IMMEDIATE"]

    def test_one_damaged_entry_is_the_only_one_demoted(self, store):
        run_cells(self.CELLS, cache=store)
        _flip(store, 20, self.CELLS[2])
        handle = ResultCache(store.root)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            warm = run_cells(self.CELLS, cache=handle)
        assert [w.category for w in caught] == [RuntimeWarning]
        assert "head hash" in str(caught[0].message)
        assert [s["cached"] for s in warm] == [True, True, False, True]
        assert (handle.stats.corrupt, handle.stats.hits, handle.stats.stores) == (1, 3, 1)
        again = ResultCache(store.root)
        assert all(s["cached"] for s in run_cells(self.CELLS, cache=again))
        assert again.stats.hit_rate == 1.0 and again.verify() == []

    def test_a_key_named_twice_is_read_once(self, store, monkeypatch):
        """Two scenarios with one key (a serial and a sharded request of
        one cell): one read, two hits, and the row counts both; damaged,
        one warning and one demotion."""
        _fill(store)
        twins = [SMALL, SMALL.with_(shards=2, shard_transport="inline")]
        reads = []
        real = ResultCache._verified_entry
        monkeypatch.setattr(
            ResultCache, "_verified_entry",
            staticmethod(lambda conn, key: reads.append(key) or real(conn, key)),
        )
        hits = store.lookup_many(twins)
        assert reads == [cache_key(SMALL)] and all(h.metadata["cache_hit"] for h in hits)
        assert hits[1].scenario is twins[1] and store.stats.hits == 2
        assert _hits(store)[cache_key(SMALL)][0] == 2
        _flip(store, 20)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert store.lookup_many(twins) == [None, None]
        assert len(caught) == 1 and len(reads) == 2
        assert (store.stats.corrupt, store.stats.misses, _rows(store)) == (1, 3, 0)

    def test_every_hit_is_recorded_and_a_refused_record_costs_no_hit(self, store):
        run_cells(self.CELLS, cache=store)
        before = _hits(store)
        handle = ResultCache(store.root)
        assert all(s["cached"] for s in run_cells(self.CELLS, cache=handle))
        after = _hits(handle)
        assert after.keys() == before.keys()
        for key, (hits, last_hit) in after.items():
            assert hits == before[key][0] + 1 and last_hit >= before[key][1]
        # Another writer holds the index past this handle's busy timeout.
        handle._conn().execute("PRAGMA busy_timeout=50")
        holder = sqlite3.connect(handle.db_path, isolation_level=None)
        holder.execute("BEGIN IMMEDIATE")
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                warm = run_cells(self.CELLS, cache=handle)
        finally:
            holder.execute("ROLLBACK")
            holder.close()
        assert all(s["cached"] for s in warm) and handle.stats.hits == 2 * len(self.CELLS)
        assert _hits(handle) == after  # the bookkeeping waits for the next partition

    def test_a_warm_partition_holds_one_blob_at_a_time(self, store):
        """A warm partition holds heads, never a cell's objects: its traced
        peak over eight 1,331-rank cells is that over eight 8-rank ones."""

        def warm_peak(ranks):
            cells = [Scenario(ranks=ranks, iterations=5, interval=1000, seed=s) for s in range(8)]
            run_cells(cells, cache=store)
            handle = ResultCache(store.root)
            run_cells(cells[:1], cache=handle)  # the handle's connection and imports
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                warm = run_cells(cells, cache=handle)
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            assert all(s["cached"] for s in warm)
            handle.close()
            return peak

        small, large = warm_peak(8), warm_peak(1331)
        assert large < 1.5 * small, f"peak {large} B at 1,331 ranks, {small} B at 8"

    @pytest.mark.parametrize("case", ["hit", "miss", "damaged", "disabled"])
    def test_lookup_is_the_batch_of_one(self, tmp_path, case):
        def prepared():
            shutil.rmtree(tmp_path / "c", ignore_errors=True)
            cache = ResultCache(tmp_path / "c")
            if case != "miss":
                assert cache.store(SMALL, _cold_small(), wall_s=0.5)
            if case == "damaged":
                _flip(cache, 20)
            if case == "disabled":
                cache._conn().execute("UPDATE meta SET value = '999' WHERE key = 'schema'")
                cache = ResultCache(cache.root)
            return cache

        answers = []
        for ask in (lambda c: c.lookup(SMALL), lambda c: c.lookup_many([SMALL])[0]):
            cache = prepared()
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                outcome = ask(cache)
            record = cache.stats.as_record()
            for timing in ("lookup_s", "lookup_mean_s", "store_s"):
                record.pop(timing)
            answers.append((
                None if outcome is None else (outcome.summary(), outcome.metadata),
                record, [str(w.message) for w in caught], _rows(cache),
            ))
            cache.close()
        assert answers[0] == answers[1]
        assert (answers[0][0] is not None) is (case == "hit")


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
        cache._conn().execute("UPDATE entries SET head = x'00' WHERE key = ?", (victim,))
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
