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
  holding one row per outcome: the outcome's JSON head, whose size and
  hash are verified before it is decoded; safe under parallel workers
  and concurrent CLI invocations; see :mod:`repro.cache.store`);
* :func:`cache_key` — the content address: a normalized scenario digest
  (execution-parallelism fields removed) plus a schema/version/engine
  salt, so code changes invalidate rather than mis-serve;
* :func:`default_cache` / :func:`resolve_cache` — the ``XSIM_CACHE`` /
  ``XSIM_CACHE_DIR`` environment policy used by
  :func:`~repro.run.backends.run_scenario`, ``xsim-run --cache``, and
  campaign workers.

A hit answers from its head, and its objects are its recomputation,
held to that head — result digest, summary, and sim-domain exporter
bytes are the computed ones, which ``tests/test_cache.py``'s
``TestHitEquivalence`` and ``TestHeadAndBody`` enforce (cold vs. warm,
serial and sharded).  Hits/misses surface as host-domain
obs instants and in :class:`~repro.cache.store.CacheStats`.

The store's names are served lazily (:func:`~repro.util.lazy.lazy_exports`):
the environment policy below is standard library only, so a run with
caching off loads neither :mod:`repro.cache.store` nor ``sqlite3``.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import TYPE_CHECKING

from repro.util.lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.cache.store import ResultCache

_EXPORTS = {
    name: "repro.cache.store"
    for name in (
        "CACHE_SCHEMA_VERSION", "CacheStats", "GcResult", "ResultCache", "VerifyIssue",
        "cache_key", "cache_salt", "cacheable",
    )
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

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
    from repro.cache.store import ResultCache

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
