"""XSim facade, SystemConfig builders, and the simlog."""

import gc
import types

import pytest

from repro.core.harness.config import SystemConfig, balanced_dims
from repro.core import simulator
from repro.core.simulator import XSim
from repro.models.network.topology import (
    CrossbarTopology,
    FatTreeTopology,
    MeshTopology,
    TorusTopology,
)
from repro.util.errors import ConfigurationError, DeadlockError, SimulationError
from repro.util.simlog import LogEntry, SimLog


def trivial_app(mpi):
    yield from mpi.init()
    yield from mpi.compute(1.0)
    yield from mpi.finalize()


class TestBalancedDims:
    def test_perfect_cube(self):
        assert balanced_dims(32768) == (32, 32, 32)
        assert balanced_dims(8) == (2, 2, 2)

    def test_covers_at_least_n(self):
        for n in (1, 5, 7, 100, 1000, 5000):
            import math

            dims = balanced_dims(n)
            assert math.prod(dims) >= n

    def test_near_cubic(self):
        dims = balanced_dims(1000)
        assert dims == (10, 10, 10)

    def test_two_dims(self):
        assert balanced_dims(16, ndims=2) == (4, 4)

    def test_invalid(self):
        with pytest.raises(ConfigurationError):
            balanced_dims(0)


class TestSystemConfig:
    def test_paper_system_defaults(self):
        cfg = SystemConfig.paper_system()
        assert cfg.nranks == 32768
        assert cfg.topology_dims == (32, 32, 32)
        assert cfg.slowdown == 1000.0
        assert cfg.collective_algorithm == "linear"
        net = cfg.make_network()
        assert net.eager_threshold == 256_000
        assert net.system.latency == pytest.approx(1e-6)
        assert net.system.bandwidth == 32e9
        assert not cfg.filesystem.enabled  # Table II excludes FS overhead

    def test_paper_system_scaled(self):
        cfg = SystemConfig.paper_system(nranks=100)
        assert cfg.make_topology().nnodes >= 100

    def test_overheads_scaled_by_slowdown(self):
        cfg = SystemConfig.paper_system(send_overhead_native=1e-6, slowdown=1000.0)
        assert cfg.make_network().send_overhead == pytest.approx(1e-3)

    def test_topology_kinds(self):
        for kind, cls in [
            ("torus", TorusTopology),
            ("mesh", MeshTopology),
            ("fattree", FatTreeTopology),
            ("crossbar", CrossbarTopology),
        ]:
            cfg = SystemConfig(nranks=16, topology_kind=kind, topology_dims=None)
            assert isinstance(cfg.make_topology(), cls)

    def test_unknown_topology_rejected(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(nranks=4, topology_kind="hypercube").make_topology()

    def test_scaled_copy(self):
        cfg = SystemConfig.paper_system(nranks=64).scaled(collective_algorithm="tree")
        assert cfg.collective_algorithm == "tree"
        assert cfg.nranks == 64

    def test_small_test_system_is_fast(self):
        cfg = SystemConfig.small_test_system()
        assert cfg.slowdown == 1.0
        assert cfg.send_overhead_native == 0.0

    def test_invalid_nranks(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(nranks=0)


class TestXSim:
    def test_single_shot(self):
        sim = XSim(SystemConfig.small_test_system(nranks=2))
        sim.run(trivial_app)
        with pytest.raises(SimulationError):
            sim.run(trivial_app)

    def test_inject_rank_bounds_checked(self):
        sim = XSim(SystemConfig.small_test_system(nranks=2))
        with pytest.raises(SimulationError):
            sim.inject_failure(5, 1.0)

    def test_log_renders_messages(self):
        sim = XSim(SystemConfig.small_test_system(nranks=2))
        sim.inject_failure(0, 0.5)
        result = sim.run(trivial_app)
        text = "\n".join(entry.render() for entry in result.log)
        assert "failure" in text
        assert "rank 0" in text

    def test_nranks_override(self):
        sim = XSim(SystemConfig.small_test_system(nranks=8))
        result = sim.run(trivial_app, nranks=3)
        assert len(result.states) == 3

    def test_run_with_start_time(self):
        sim = XSim(SystemConfig.small_test_system(nranks=1), start_time=500.0)
        result = sim.run(trivial_app)
        assert result.exit_time == pytest.approx(501.0)


class TestCollectorPause:
    """``XSim.run`` is one cyclic-collector pause from the first object
    ``launch`` builds to the last event, restored however it ends."""

    @pytest.fixture
    def collections(self, monkeypatch):
        """Collections started while ``watch["on"]`` — from the first
        line of ``launch`` to the moment ``XSim.run`` hands the collector
        back (what it does with the backlog then is its own business) —
        at a threshold a 64-rank launch (~14 tracked objects a rank)
        would cross often."""
        watch = {"on": False, "count": 0}

        def started(phase, info):
            if watch["on"] and phase == "start":
                watch["count"] += 1

        def hand_back():
            watch["on"] = False
            gc.enable()

        monkeypatch.setattr(simulator, "gc", types.SimpleNamespace(
            isenabled=gc.isenabled, disable=gc.disable, enable=hand_back))
        threshold = gc.get_threshold()
        gc.callbacks.append(started)
        gc.set_threshold(50, *threshold[1:])
        try:
            yield watch
        finally:
            gc.set_threshold(*threshold)
            gc.callbacks.remove(started)

    def run_watched(self, watch, app, nranks=None):
        sim = XSim(SystemConfig.small_test_system(nranks=64))
        launch = sim.world.launch

        def watched_launch(*args):
            watch["on"] = True
            return launch(*args)

        sim.world.launch = watched_launch
        assert gc.isenabled()
        try:
            return sim.run(app, nranks=nranks)
        finally:
            assert gc.isenabled() and not watch["on"], "collector not handed back"

    def test_no_collection_between_launch_and_the_last_event(self, collections):
        result = self.run_watched(collections, trivial_app)
        assert result.completed and collections["count"] == 0

    def test_restored_after_a_deadlock(self, collections):
        def everyone_receives(mpi):
            yield from mpi.init()
            yield from mpi.recv(source=(mpi.rank + 1) % mpi.size)

        with pytest.raises(DeadlockError):
            self.run_watched(collections, everyone_receives)
        assert collections["count"] == 0

    def test_restored_after_a_launch_time_error(self, collections):
        with pytest.raises(ConfigurationError, match="exceed the simulated machine"):
            self.run_watched(collections, trivial_app, nranks=65)
        assert collections["count"] == 0

    def test_a_caller_who_disabled_the_collector_keeps_it_disabled(self):
        gc.disable()
        try:
            XSim(SystemConfig.small_test_system(nranks=2)).run(trivial_app)
            assert not gc.isenabled()
        finally:
            gc.enable()


class TestArchitectureDescription:
    """Figure 1 reproduction: the layered architecture self-description."""

    def test_structure(self):
        sim = XSim(SystemConfig.paper_system(nranks=64))
        d = sim.describe_architecture()
        assert d["virtual_processes"] == 64
        assert d["topology"] == "TorusTopology"
        assert d["collective_algorithm"] == "linear"
        assert d["processor_slowdown"] == 1000.0
        assert len(d["layers"]) == 5
        assert "PDES engine" in " ".join(d["layers"])
        assert d["components"]["engine"] == "Engine"

    def test_hardware_models_named_are_the_models_built(self):
        # No SystemConfig carries a power model, so the line names none.
        sim = XSim(SystemConfig.paper_system(nranks=8))
        line = sim.describe_architecture()["layers"][-1]
        assert line.startswith("hardware models (")
        built = {
            "processor": sim.world.processor,
            "network": sim.world.network,
            "file system": sim.world.filesystem,
            "memory": sim.memory,
        }
        named = line[line.index("(") + 1 : line.index(")")].split(", ")
        assert set(named) <= set(built) and None not in built.values()

    def test_render_ascii(self):
        sim = XSim(SystemConfig.paper_system(nranks=64))
        art = sim.render_architecture()
        assert "simulated MPI layer" in art
        assert "hardware models" in art
        assert "64 VPs" in art


class TestSimLog:
    def test_entries_and_filtering(self):
        log = SimLog()
        log.log(1.0, "failure", "boom", rank=3)
        log.log(2.0, "abort", "stop", rank=None)
        assert len(log) == 2
        assert log.category("failure")[0].rank == 3
        assert [e.category for e in log] == ["failure", "abort"]

    def test_render_format(self):
        e = LogEntry(time=1.5, category="failure", rank=7, message="x")
        assert "rank 7" in e.render()
        assert "failure" in e.render()
