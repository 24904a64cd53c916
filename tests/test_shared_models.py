"""What a segment builds and what it borrows (docs/INTERNALS.md §18).

One immutable machine model serves every run of a process, one geometry
every rank of a config, one Scenario object every layer of an in-process
campaign.  Two kinds of test hold that in place:

* **isolation** — a borrowed model carries nothing from one run into the
  next: a cell's result digest is the one a fresh interpreter gives it
  whatever ran before it, forked ``-j`` workers that inherit warm models
  reproduce the serial scorecard byte for byte, and a sharded run agrees
  with the serial run whose model object it shares;
* **counts, not timings** — constructors and parsers are counted by
  monkeypatch, so the hoisting cannot be undone without a test noticing
  on any host.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apps.heat3d import BlockDecomposed, HeatConfig
from repro.cache import ResultCache
from repro.core.faults.schedule import FailureSchedule
from repro.core.simulator import XSim
from repro.explore import load_explore_file, run_explore, scorecard_json
from repro.models.network.model import NetworkModel
from repro.models.network.topology import TorusTopology
from repro.run import Scenario, run_scenario
from repro.run.sweep import run_cells

ROOT = Path(__file__).resolve().parents[1]

#: One machine, six cells: fault-free, the four fault kinds, and a draw
#: policy (the one cell that builds the restart-failures generator).
MACHINE = Scenario(ranks=8, iterations=20, interval=10)
CELLS = (
    MACHINE,
    MACHINE.with_(failures="3@40s"),
    MACHINE.with_(failures="straggler:2@20s+30s*3"),
    MACHINE.with_(failures="link:0-1@0s+200s*8"),
    MACHINE.with_(failures="corr:5@55s~1+0.5s"),
    MACHINE.with_(mttf=60.0, seed=3),
)

_DIGEST_OF = """
import sys
from repro.run import Scenario, run_scenario
scenario = Scenario.from_toml(sys.stdin.read())
print(run_scenario(scenario, cache=False).digest())
"""


@pytest.fixture(scope="module")
def fresh_digests():
    """Each cell's result digest from an interpreter that ran nothing else."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", _DIGEST_OF], env=env, cwd=ROOT, text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        for _ in CELLS
    ]
    digests = []
    for proc, cell in zip(procs, CELLS):
        out, err = proc.communicate(cell.to_toml(), timeout=120)
        assert proc.returncode == 0, err
        digests.append(out.strip())
    assert len(set(digests)) == len(CELLS)  # the faults all bite
    return digests


class TestIsolation:
    @given(order=st.permutations(range(len(CELLS))))
    @settings(
        max_examples=20, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_a_cell_digests_the_same_whatever_ran_before_it(self, fresh_digests, order):
        # link_degrade before the clean cell is the order that matters: a
        # degraded cost left in a shared route cache would move the latter.
        for i in order:
            assert run_scenario(CELLS[i], cache=False).digest() == fresh_digests[i], (
                f"cell {i} after {order[: order.index(i)]}"
            )

    def test_every_run_of_a_machine_borrows_one_model(self):
        model = MACHINE.system_config().make_network()
        sims = [XSim.from_scenario(cell) for cell in CELLS]
        assert all(sim.world.network is model for sim in sims)
        assert all(sim.world.processor is sims[0].world.processor for sim in sims)
        # a run arms its faults on its own world, never on the model
        sims[3].inject_schedule(CELLS[3].schedule())
        assert sims[3].world.faults.active_links and not sims[0].world.faults.active_links
        other = MACHINE.with_(latency="2us").system_config().make_network()
        assert other is not model and other.system.latency == 2 * model.system.latency

    def test_forked_workers_inherit_warm_models_and_reproduce_serial(self):
        spec = load_explore_file(
            ROOT / "examples" / "explore_reference.toml",
            use_environment=False, seed=5, max_cells=24,
        )
        serial = scorecard_json(run_explore(spec, cache=False, jobs=1))
        network = spec.scenario.system_config().make_network()
        assert network.transfer_time.cache_info().currsize > 0  # the parent is warm
        assert scorecard_json(run_explore(spec, cache=False, jobs=2)) == serial

    def test_sharded_inline_and_serial_share_the_model_and_agree(self):
        scenario = Scenario(ranks=27, iterations=40, interval=20, failures="13@60s")
        sharded = scenario.with_(shards=2, shard_transport="inline")
        sims = [XSim.from_scenario(s) for s in (scenario, sharded)]
        assert sims[0].world.network is sims[1].world.network
        assert (
            run_scenario(scenario, cache=False).digest()
            == run_scenario(sharded, cache=False).digest()
        )


def _count(monkeypatch, owner, name):
    """Count calls of ``owner.name`` (a function or classmethod) from here on."""
    calls = []
    raw = owner.__dict__[name]
    inner = raw.__func__ if isinstance(raw, classmethod) else raw

    def counting(*args, **kwargs):
        calls.append(1)
        return inner(*args, **kwargs)

    monkeypatch.setattr(owner, name, classmethod(counting) if isinstance(raw, classmethod) else counting)
    return calls


class TestCounts:
    def test_a_campaign_builds_its_machine_once_and_each_cell_once(self, tmp_path, monkeypatch):
        # A machine no other test names, so its model is built here.
        machine = Scenario(ranks=8, iterations=20, interval=10, latency="1.0625us")
        cells = [machine.with_(failures=f"{i % 8}@{30 + i}s") for i in range(24)]
        models = _count(monkeypatch, NetworkModel, "__init__")
        topologies = _count(monkeypatch, TorusTopology, "__init__")
        parses = _count(monkeypatch, FailureSchedule, "parse")
        builds = _count(monkeypatch, Scenario, "__post_init__")
        rebuilds = _count(monkeypatch, Scenario, "from_dict")
        store = ResultCache(tmp_path / "c")
        summaries = run_cells(cells, jobs=1, cache=store)
        assert [s["cached"] for s in summaries] == [False] * 24
        assert sum(s["restarts"] for s in summaries) >= 12  # ≥ 36 segments
        assert len(models) <= 1 and len(topologies) <= 1
        assert len(parses) <= 24 and len(builds) <= 24 and not rebuilds
        # the next campaign on that machine builds none
        again = [machine.with_(failures=f"{i % 8}@{31.5 + i}s") for i in range(24)]
        for counter in (models, topologies, parses, builds):
            counter.clear()
        run_cells(again, jobs=1, cache=store)
        assert not models and not topologies and not rebuilds
        assert len(parses) <= 24 and len(builds) <= 24
        assert store.stats.stores == 48

    def test_geometry_is_derived_once_per_config_not_per_rank(self, monkeypatch):
        derivations = {
            name: _count(monkeypatch, owner.__dict__[name], "func")
            for owner, name in (
                (BlockDecomposed, "nranks"),
                (BlockDecomposed, "local_shape"),
                (BlockDecomposed, "points_per_rank"),
                (BlockDecomposed, "halo_axes"),
                (HeatConfig, "checkpoint_nbytes"),
            )
        }
        scenario = Scenario(ranks=125, iterations=200, interval=25, mttf=400.0, seed=2)
        outcome = run_scenario(scenario, cache=False)
        assert outcome.completed and len(outcome.run.segments) >= 3
        # one HeatConfig serves the run: 125 ranks x >= 3 segments read it
        assert {name: len(calls) for name, calls in derivations.items()} == dict.fromkeys(
            derivations, 1
        )
