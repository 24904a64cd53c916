"""Pluggable resilience strategies (see :mod:`repro.resilience.strategy`).

The built-in strategies — ``ckpt`` (single-level checkpoint/restart),
``ckpt-multilevel`` (local + partner-copy + PFS tiers), ``replication``
(factor-R warm failover with SDC hash compare), and ``none`` (restart
from scratch) — are listed in the static
:data:`~repro.resilience.strategy.STRATEGIES` table; importing the
package imports none of them, :func:`make_strategy` imports the one a
scenario names.
"""

from repro.util.lazy import lazy_exports

#: Public name -> defining module (imported on first use).
_EXPORTS = {
    "STRATEGIES": "repro.resilience.strategy",
    "ResilienceStrategy": "repro.resilience.strategy",
    "make_strategy": "repro.resilience.strategy",
    "register": "repro.resilience.strategy",
    "strategy_names": "repro.resilience.strategy",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
