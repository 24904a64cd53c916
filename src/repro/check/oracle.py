"""Closed forms computed from a machine's configuration values alone.

Every other parity check compares the simulator with itself (a second
path, a pinned digest of an earlier run).  The expectations here are
derived on paper from the documented cost model and evaluated from
:class:`~repro.core.harness.config.SystemConfig` *field values*: this
module imports neither the simulated MPI layer, the event engine nor the
network model (``tests/test_import_layers.py`` holds that), so a run that
agrees with it agrees with something that is not its own code.

Daly's optimal checkpoint interval estimates are here too.  The paper's
related work singles out "finding the optimal checkpoint interval [31]"
(J. T. Daly, "A higher order estimate of the optimum checkpoint interval
for restart dumps", FGCS 22(3), 2006) as the canonical checkpoint/restart
optimization; the measured-optimal checkpoint interval of a simulated run
should track Daly's prediction (:mod:`benchmarks.test_daly_validation`).
Notation: ``delta`` is the checkpoint write cost, ``M`` the system
mean-time-to-interrupt, ``R`` the restart (rework-free) cost.
"""

from __future__ import annotations

import math
from typing import Any

from repro.util.errors import ConfigurationError
from repro.util.units import parse_time

#: The on-chip tier's latency is the link latency divided by this (the
#: network model's documented tier rule: 100x lower latency on-chip).
ON_CHIP_LATENCY_DIVISOR = 100.0


def linear_barrier_exits(system: Any) -> list[float]:
    """When each rank leaves a linear ``MPI_Barrier`` that all ``N`` ranks
    of the :class:`SystemConfig` ``system`` enter at t = 0 — rank order.
    (Its fields are read; the class is not imported: its ``make_network``
    reaches the network model.)

    The machine must put every rank on one chip (``ranks_per_node =
    nranks``, one chip a node), so every rank pair has the same wire time
    ``L`` (the on-chip latency; a barrier's messages carry no bytes).
    With ``o_s`` / ``o_r`` the send / receive overheads the slowed node
    pays, the root receives the ``N - 1`` fan-in messages, which all
    arrive at ``o_s + L``, back to back:

        T_in = o_s + L + (N - 1) o_r

    then sends the fan-out in rank order, so rank ``r > 0`` leaves at
    ``T_in + r o_s + L + o_r`` and the root at ``T_in + (N - 1) o_s``.
    A one-rank barrier is a no-op.
    """
    n = system.nranks
    if system.ranks_per_node != n or system.chips_per_node != 1:
        raise ConfigurationError(
            "the closed form needs every rank on one chip "
            f"(ranks_per_node={system.ranks_per_node}, chips_per_node="
            f"{system.chips_per_node}, nranks={n})"
        )
    if system.collective_algorithm != "linear":
        raise ConfigurationError(
            f"the closed form is the linear barrier's, not {system.collective_algorithm!r}"
        )
    if n == 1:
        return [0.0]
    o_s = system.send_overhead_native * system.slowdown
    o_r = system.recv_overhead_native * system.slowdown
    wire = parse_time(system.link_latency) / ON_CHIP_LATENCY_DIVISOR
    t_in = o_s + wire + (n - 1) * o_r
    return [t_in + (n - 1) * o_s] + [t_in + r * o_s + wire + o_r for r in range(1, n)]


def daly_simple_interval(delta: float, mttf: float) -> float:
    """First-order optimum: ``sqrt(2 * delta * M)`` (Young's formula)."""
    if delta <= 0 or mttf <= 0:
        raise ConfigurationError("need delta > 0 and mttf > 0")
    return math.sqrt(2.0 * delta * mttf)


def daly_higher_order_interval(delta: float, mttf: float) -> float:
    """Daly's higher-order optimum::

        tau = sqrt(2 delta M) * [1 + 1/3 sqrt(delta/(2M)) + delta/(9*2M)] - delta

    valid for ``delta < 2M``; for ``delta >= 2M`` the optimum degenerates
    to checkpointing once (``tau = M``, per Daly's paper).
    """
    if delta <= 0 or mttf <= 0:
        raise ConfigurationError("need delta > 0 and mttf > 0")
    if delta >= 2.0 * mttf:
        return mttf
    x = math.sqrt(delta / (2.0 * mttf))
    return math.sqrt(2.0 * delta * mttf) * (1.0 + x / 3.0 + (x * x) / 9.0) - delta


def expected_completion_time(
    work: float, tau: float, delta: float, mttf: float, restart: float = 0.0
) -> float:
    """Daly's expected wall-clock model for ``work`` seconds of useful
    computation with checkpoints every ``tau`` seconds of work, exponential
    failures of mean ``mttf``, checkpoint cost ``delta`` and restart cost
    ``restart``::

        T = M * exp(R/M) * (exp((tau + delta)/M) - 1) * work / tau

    Monotone in the right places: larger ``delta`` or smaller ``M``
    increase T; the minimizing ``tau`` approximates
    :func:`daly_higher_order_interval`.
    """
    if min(work, tau, delta, mttf) <= 0 or restart < 0:
        raise ConfigurationError("need work, tau, delta, mttf > 0 and restart >= 0")
    segments = work / tau
    return mttf * math.exp(restart / mttf) * (math.exp((tau + delta) / mttf) - 1.0) * segments


def optimal_interval_by_search(
    work: float, delta: float, mttf: float, restart: float = 0.0, samples: int = 2000
) -> float:
    """Numerically minimize :func:`expected_completion_time` over ``tau``
    (golden-section-free dense scan; the function is unimodal)."""
    if samples < 10:
        raise ConfigurationError("samples must be >= 10")
    lo, hi = delta / 100.0, work
    best_tau, best_t = lo, math.inf
    for i in range(samples):
        # log-spaced scan: the optimum spans orders of magnitude with MTTF
        tau = lo * (hi / lo) ** (i / (samples - 1))
        t = expected_completion_time(work, tau, delta, mttf, restart)
        if t < best_t:
            best_tau, best_t = tau, t
    return best_tau
