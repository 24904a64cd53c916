"""Campaign fan-out: map a function over independent items, serially or
on a worker pool.

The paper's evaluation is a *campaign* of mutually independent simulator
runs — scenario cells (Table II's checkpoint interval x system MTTF grid,
sweeps, explorer batches) and Finject victim instances.  Each run is
deterministic given its configuration and seed ("the experiments are
repeatable as the simulator and the application are deterministic"), so a
campaign parallelizes trivially: results are bit-identical whether the
runs execute serially in-process or fan out over a process pool.

A campaign is :func:`fan_out` of a module-level function over picklable
items (a scenario's dict form, a victim id).  The function seeds its own
RNG streams from its item (e.g. one :class:`~repro.util.rng.RngStreams`
sub-stream per Finject victim), never from shared mutable state — this is
what makes parallel execution bit-identical to serial.
"""

from __future__ import annotations

import pickle
from typing import Any, Callable, Iterable

from repro.run.scenario import check_value
from repro.util.errors import CampaignTaskError


def _tagged(fn: Callable[[Any], Any], item: Any) -> tuple[str, Any]:
    """Worker-side call: tag the outcome so the function's own exception
    is never mistaken for pool breakage.

    A raising call returns ``("err", exc)`` instead of raising out of the
    worker — ``pool.map`` would re-raise it in the parent, where e.g. a
    ``TypeError`` of the function's own could be misread as an
    unpicklable payload and silently rerun the whole campaign.  An
    exception that cannot cross the process boundary is substituted with
    a :class:`~repro.util.errors.CampaignTaskError` naming the item and
    carrying the original type and message.
    """
    try:
        return ("ok", fn(item))
    except Exception as exc:  # noqa: BLE001 - transported to the parent
        try:
            pickle.loads(pickle.dumps(exc))
        except Exception:  # unpicklable exception object
            exc = CampaignTaskError(item, type(exc).__name__, str(exc))
        return ("err", exc)


def fan_out(fn: Callable[[Any], Any], items: Iterable[Any], jobs: int) -> list[Any]:
    """``[fn(item) for item in items]``, on up to ``jobs`` worker
    processes; results come back in item order.

    With ``jobs <= 1`` or a single item everything runs in the calling
    process — no pool, no pickling, no subprocess start-up.  Otherwise
    ``fn`` must be module-level (it is pickled by name).  A raising call
    re-raises its own exception in the parent (the first in item order,
    with nothing rerun).  When the pool itself cannot be used — an item,
    result or ``fn`` that does not pickle, a worker killed by the OS —
    the campaign is rerun in-process: ``fn`` is a pure function of its
    item, so the results are the same, only slower.
    """
    check_value("jobs", jobs)
    items = list(items)
    if jobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    # Imported here: an in-process campaign never pays for the pool.
    from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
    from functools import partial

    try:
        with ProcessPoolExecutor(max_workers=min(jobs, len(items))) as pool:
            tagged = list(pool.map(partial(_tagged, fn), items))
    except (pickle.PicklingError, AttributeError, TypeError, BrokenExecutor, OSError):
        # CPython reports an unpicklable payload as PicklingError,
        # AttributeError or TypeError depending on the object.  A call's
        # own exception never lands here: workers return it tagged.
        return [fn(item) for item in items]
    results: list[Any] = []
    for tag, payload in tagged:
        if tag == "err":
            raise payload
        results.append(payload)
    return results
