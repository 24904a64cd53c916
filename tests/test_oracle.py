"""The simulator against closed forms it does not compute itself.

``repro.check.oracle`` derives expectations from ``SystemConfig`` field
values and imports none of the simulator (``tests/test_import_layers.py``
holds that); these tests run the simulator and compare.
"""

import pytest

from repro.check.oracle import linear_barrier_exits
from repro.core.harness.config import SystemConfig
from repro.core.simulator import XSim
from repro.util.errors import ConfigurationError


def one_chip(n: int, **overrides) -> SystemConfig:
    """``n`` ranks on one chip: every pair has the same wire time."""
    return SystemConfig.small_test_system(
        n, send_overhead_native=2e-6, recv_overhead_native=3e-6, ranks_per_node=n, **overrides
    )


def barrier_exit(mpi):
    yield from mpi.init()
    yield from mpi.barrier()
    left = mpi.wtime()
    yield from mpi.finalize()
    return left


@pytest.mark.parametrize("n", [2, 8, 125])
def test_linear_barrier_leaves_at_its_closed_form(n):
    system = one_chip(n)
    result = XSim(system).run(barrier_exit)
    assert result.completed
    simulated = [result.exit_values[r] for r in range(n)]
    assert simulated == pytest.approx(linear_barrier_exits(system), rel=1e-14, abs=0.0)


def test_one_rank_barrier_is_a_no_op():
    system = one_chip(1)
    assert XSim(system).run(barrier_exit).exit_values == {0: 0.0}
    assert linear_barrier_exits(system) == [0.0]


@pytest.mark.parametrize("overrides", [
    dict(ranks_per_node=4), dict(chips_per_node=2), dict(collective_algorithm="tree"),
], ids=["two-nodes", "two-chips", "tree"])
def test_the_closed_form_refuses_a_machine_it_does_not_describe(overrides):
    with pytest.raises(ConfigurationError):
        linear_barrier_exits(one_chip(8).scaled(**overrides))
