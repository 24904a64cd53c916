"""Content-addressed campaign result cache (``repro.cache``).

Co-design studies are campaign-shaped: the same scenario grid is
re-simulated across architecture and resilience knobs, and most cells of
most sweeps have been computed before — by the previous CI run, the
previous parameter scan, or another user of a shared cache directory.
Scenarios have stable content digests (:meth:`Scenario.scenario_digest
<repro.run.scenario.Scenario.scenario_digest>`), and every backend is
digest-identical for the same scenario, so a completed cell can be
memoized by content address and served instead of recomputed:

* :class:`ResultCache` — the store itself (one SQLite file in WAL mode
  holding each index row beside its blob, whose head and body hashes
  are verified before either is decoded; safe under parallel workers and
  concurrent CLI invocations; see :mod:`repro.cache.store`);
* :func:`cache_key` — the content address: a normalized scenario digest
  (execution-parallelism fields removed) plus a schema/version/engine
  salt, so code changes invalidate rather than mis-serve;
* :func:`default_cache` / :func:`resolve_cache` — the ``XSIM_CACHE`` /
  ``XSIM_CACHE_DIR`` environment policy used by
  :func:`~repro.run.backends.run_scenario`, ``xsim-run --cache``, and
  campaign workers.

A hit is bit-identical to recomputation — result digest, summary, and
sim-domain exporter bytes — which ``tests/test_cache.py``'s
``TestHitEquivalence`` and ``TestHeadAndBody`` enforce (cold vs. warm,
serial and sharded).  Hits/misses surface as host-domain
obs instants and in :class:`~repro.cache.store.CacheStats`.
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.cache.store import (
    CACHE_SCHEMA_VERSION,
    CacheStats,
    GcResult,
    ResultCache,
    VerifyIssue,
    cache_key,
    cache_salt,
    cacheable,
)

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "CacheStats",
    "GcResult",
    "ResultCache",
    "VerifyIssue",
    "cache_dir_from_env",
    "cache_enabled",
    "cache_key",
    "cache_salt",
    "cacheable",
    "default_cache",
    "open_cache",
    "resolve_cache",
]


def cache_enabled(environ=None) -> bool:
    """Whether ``XSIM_CACHE`` turns the result cache on (any non-empty
    value other than ``0``; off by default)."""
    env = os.environ if environ is None else environ
    return env.get("XSIM_CACHE", "").strip() not in ("", "0")


def cache_dir_from_env(environ=None) -> Path:
    """The cache directory: ``XSIM_CACHE_DIR`` if set, else
    ``~/.cache/xsim``."""
    env = os.environ if environ is None else environ
    raw = env.get("XSIM_CACHE_DIR", "").strip()
    if raw:
        return Path(raw)
    return Path.home() / ".cache" / "xsim"


#: Memoized open stores, keyed by resolved root path.  One ResultCache
#: per directory per process keeps SQLite connections and stats shared
#: across every cell of a campaign instead of reopened per run.
_OPEN: dict[str, ResultCache] = {}


def open_cache(root: "str | Path | None" = None) -> ResultCache:
    """Open (and memoize) the store at ``root`` (default: environment
    directory policy)."""
    path = Path(root) if root is not None else cache_dir_from_env()
    key = str(path.expanduser().resolve())
    store = _OPEN.get(key)
    if store is None:
        store = ResultCache(path.expanduser())
        _OPEN[key] = store
    return store


def default_cache(environ=None) -> ResultCache | None:
    """The environment-selected cache: a store when ``XSIM_CACHE`` is
    truthy, else ``None`` (caching off)."""
    if not cache_enabled(environ):
        return None
    return open_cache(cache_dir_from_env(environ))


def resolve_cache(cache) -> ResultCache | None:
    """Normalize the ``cache`` argument every entry point accepts:
    ``None`` defers to the environment policy, ``False`` forces caching
    off, a :class:`ResultCache` is used as-is."""
    if cache is None:
        return default_cache()
    if cache is False:
        return None
    return cache
