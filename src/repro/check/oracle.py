"""Closed forms computed from a machine's configuration values alone.

Every other parity check compares the simulator with itself (a second
path, a pinned digest of an earlier run).  The expectations here are
derived on paper from the documented cost model and evaluated from
:class:`~repro.core.harness.config.SystemConfig` *field values*: this
module imports neither the simulated MPI layer, the event engine nor the
network model (``tests/test_import_layers.py`` holds that), so a run that
agrees with it agrees with something that is not its own code.
"""

from __future__ import annotations

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
