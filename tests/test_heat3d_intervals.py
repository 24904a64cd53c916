"""heat3d with decoupled exchange/checkpoint intervals."""

import pytest

from repro.apps.heat3d import HeatConfig, heat3d
from repro.core.checkpoint.store import CheckpointStore
from repro.core.harness.config import SystemConfig
from repro.core.simulator import XSim
from tests.conftest import messages, run_app


def traced_run(cfg, nranks=8):
    sim = XSim(SystemConfig.small_test_system(nranks=nranks), observe=True, trace_detail=True)
    store = CheckpointStore()
    result = sim.run(heat3d, args=(cfg, store))
    assert result.completed
    halos = [m for m in messages(sim, ctx=2) if 1 <= m["tag"] <= 6]
    return halos, store, result


class TestDecoupledIntervals:
    def test_more_exchanges_than_checkpoints(self):
        cfg = HeatConfig.paper_workload(
            nranks=8, iterations=100, checkpoint_interval=50, exchange_interval=10
        )
        assert cfg.effective_exchange_interval == 10
        halos, store, _ = traced_run(cfg)
        # startup + one per 10 iterations = 11 exchange rounds
        # interior ranks of a 2x2x2 cube have 3 real neighbours
        per_round = 8 * 3  # messages per exchange round
        assert len(halos) == 11 * per_round
        # but only 2 checkpoints were written (at 50 and 100)
        assert store.writes == 8 * 2

    def test_paper_mode_equal_intervals(self):
        cfg = HeatConfig.paper_workload(nranks=8, iterations=100, checkpoint_interval=25)
        halos, store, _ = traced_run(cfg)
        per_round = 8 * 3
        assert len(halos) == 5 * per_round  # startup + 4 phases
        assert store.writes == 8 * 4

    def test_coarser_exchange_than_checkpoint(self):
        cfg = HeatConfig.paper_workload(
            nranks=8, iterations=100, checkpoint_interval=20, exchange_interval=50
        )
        halos, store, _ = traced_run(cfg)
        per_round = 8 * 3
        # exchanges at startup, 50, 100
        assert len(halos) == 3 * per_round
        assert store.writes == 8 * 5

    def test_real_mode_with_frequent_exchange_still_correct(self):
        from repro.apps.heat3d import heat3d_serial_reference

        cfg = HeatConfig(
            grid=(8, 8, 8),
            ranks=(2, 2, 2),
            iterations=5,
            checkpoint_interval=5,
            exchange_interval=1,
            data_mode="real",
        )
        run = run_app(heat3d, nranks=8, args=(cfg, None))
        total = sum(s.checksum for s in run.result.exit_values.values())
        serial = float(heat3d_serial_reference(cfg).sum())
        assert total == pytest.approx(serial, rel=1e-12)

    def test_e1_scales_with_exchange_frequency(self):
        def e1(exchange):
            cfg = HeatConfig.paper_workload(
                nranks=8, iterations=100, checkpoint_interval=100,
                exchange_interval=exchange,
            )
            system = SystemConfig.paper_system(nranks=8)
            sim = XSim(system)
            return sim.run(heat3d, args=(cfg, CheckpointStore())).exit_time

        assert e1(10) > e1(50) > e1(100) - 1e-9
