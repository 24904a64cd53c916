"""The conjugate-gradient proxy application."""

import numpy as np
import pytest

from repro.apps.cg import CgConfig, CgResult, cg, cg_serial_reference
from repro.core.checkpoint.store import CheckpointStore
from repro.core.faults.schedule import FailureSchedule
from repro.core.harness.config import SystemConfig
from repro.core.restart import RestartDriver
from repro.util.errors import ConfigurationError
from tests.conftest import messages, run_app


class TestCgConfig:
    def test_for_ranks(self):
        cfg = CgConfig.for_ranks(8)
        assert cfg.nranks == 8
        assert cfg.grid == (16, 16, 16)
        assert cfg.points_per_rank == 512

    def test_sizes(self):
        cfg = CgConfig(grid=(16, 8, 8), ranks=(2, 2, 2))
        assert cfg.local_shape == (8, 4, 4)
        assert cfg.face_bytes(0) == 4 * 4 * 8
        assert cfg.checkpoint_nbytes == 256 + 3 * 128 * 8

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CgConfig(grid=(10, 10, 10), ranks=(3, 2, 2))
        with pytest.raises(ConfigurationError):
            CgConfig(data_mode="fake")


class TestModeledCg:
    def test_runs_fixed_iterations(self):
        cfg = CgConfig.for_ranks(8, max_iterations=20, checkpoint_interval=10)
        run = run_app(cg, nranks=8, args=(cfg, CheckpointStore()))
        assert run.result.completed
        result = run.result.exit_values[0]
        assert isinstance(result, CgResult)
        assert result.iterations == 20
        assert result.residual_norm is None

    def test_allreduce_heavy_pattern(self):
        """CG's three allreduces per iteration dominate its traffic."""
        from repro.core.simulator import XSim

        cfg = CgConfig.for_ranks(8, max_iterations=10, checkpoint_interval=10)
        sim = XSim(SystemConfig.small_test_system(nranks=8), observe=True, trace_detail=True)
        sim.run(cg, args=(cfg, None))
        coll = messages(sim, ctx=3)  # collective context
        pt2pt = [m for m in messages(sim, ctx=2) if 21 <= m["tag"] <= 26]
        assert len(coll) > len(pt2pt) / 2  # collectives are a big share


class TestRealCg:
    def _cfg(self, **kw):
        defaults = dict(
            grid=(8, 8, 8),
            ranks=(2, 2, 2),
            max_iterations=60,
            tolerance=1e-9,
            checkpoint_interval=15,
            data_mode="real",
        )
        defaults.update(kw)
        return CgConfig(**defaults)

    def test_converges_and_matches_serial_reference(self):
        cfg = self._cfg()
        run = run_app(cg, nranks=8, args=(cfg, None))
        assert run.result.completed
        results = run.result.exit_values
        serial_x, serial_iters, serial_res = cg_serial_reference(cfg)
        any_rank = results[0]
        assert any_rank.converged
        assert any_rank.iterations == serial_iters
        # distributed solution norm equals the serial one
        dist_norm_sq = sum(r.solution_norm_sq for r in results.values())
        assert dist_norm_sq == pytest.approx(float((serial_x * serial_x).sum()), rel=1e-8)
        assert any_rank.residual_norm == pytest.approx(serial_res, rel=1e-6)

    def test_restart_resumes_and_still_converges(self):
        # ~0.32 s/iteration: first checkpoint (iteration 15) at ~4.8 s,
        # convergence (~32 iterations) at ~10 s
        cfg = self._cfg(native_seconds_per_point_iter=5e-3)
        system = SystemConfig.small_test_system(nranks=8)
        clean = run_app(cg, nranks=8, args=(cfg, None), system=system)
        clean_norm = sum(r.solution_norm_sq for r in clean.result.exit_values.values())

        driver = RestartDriver(
            system,
            cg,
            make_args=lambda store: (cfg, store),
            schedule=FailureSchedule.of((3, 6.0)),  # after the checkpoint
        )
        run = driver.run()
        assert run.completed
        assert run.restarts == 1
        restarted = [r for r in run.exit_values.values() if r.restarted_from > 0]
        assert restarted
        total = sum(r.solution_norm_sq for r in run.exit_values.values())
        assert total == pytest.approx(clean_norm, rel=1e-8)

    def test_residual_decreases_monotonically_enough(self):
        """CG on an SPD operator converges; fewer iterations, larger
        residual."""
        short = self._cfg(max_iterations=5, tolerance=0.0)
        longer = self._cfg(max_iterations=30, tolerance=0.0)
        r_short = run_app(cg, nranks=8, args=(short, None)).result.exit_values[0]
        r_long = run_app(cg, nranks=8, args=(longer, None)).result.exit_values[0]
        assert r_long.residual_norm < r_short.residual_norm

    def test_wrong_rank_count_rejected(self):
        cfg = self._cfg()
        with pytest.raises(ConfigurationError):
            run_app(cg, nranks=4, args=(cfg, None))


class TestSerialReference:
    def test_reference_solves_the_system(self):
        cfg = CgConfig(
            grid=(6, 6, 6), ranks=(1, 1, 1), max_iterations=200, tolerance=1e-10
        )
        x, iters, res = cg_serial_reference(cfg)
        assert iters < 200
        assert res < 1e-8
        # verify A x = b directly
        from repro.apps.cg import apply_laplacian, rhs_block

        b = rhs_block(cfg, 0)
        xg = np.zeros((8, 8, 8))
        xg[1:-1, 1:-1, 1:-1] = x
        assert np.allclose(apply_laplacian(xg), b, atol=1e-7)
