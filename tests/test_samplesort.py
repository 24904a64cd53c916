"""The distributed sample-sort application (``examples/samplesort.py``)."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.harness.config import SystemConfig
from repro.core.simulator import XSim
from repro.util.errors import ConfigurationError
from tests.conftest import messages, run_app

_PATH = Path(__file__).resolve().parents[1] / "examples" / "samplesort.py"
_SPEC = importlib.util.spec_from_file_location("samplesort", _PATH)
# Registered before it runs: its dataclasses look their module up.
_MODULE = sys.modules["samplesort"] = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(_MODULE)
SampleSortConfig, SampleSortResult = _MODULE.SampleSortConfig, _MODULE.SampleSortResult
local_block, samplesort = _MODULE.local_block, _MODULE.samplesort


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SampleSortConfig(keys_per_rank=0)
        with pytest.raises(ConfigurationError):
            SampleSortConfig(data_mode="psychic")

    def test_local_block_deterministic(self):
        cfg = SampleSortConfig(keys_per_rank=100)
        assert np.array_equal(local_block(cfg, 3), local_block(cfg, 3))
        assert not np.array_equal(local_block(cfg, 3), local_block(cfg, 4))


class TestRealSort:
    def _run(self, nranks=6, keys=500, seed=7):
        cfg = SampleSortConfig(keys_per_rank=keys, data_mode="real", seed=seed)
        run = run_app(samplesort, nranks=nranks, args=(cfg,))
        assert run.result.completed
        return cfg, run.result.exit_values

    def test_globally_sorted(self):
        cfg, results = self._run()
        # per-rank slices are internally handled; check global ordering:
        # max of rank r <= min of rank r+1
        for r in range(len(results) - 1):
            a, b = results[r], results[r + 1]
            if a.count and b.count:
                assert a.local_max <= b.local_min

    def test_no_keys_lost(self):
        cfg, results = self._run()
        nranks = len(results)
        total = sum(r.count for r in results.values())
        assert total == nranks * cfg.keys_per_rank
        # checksums add up to the input sum
        expected = sum(float(local_block(cfg, r).sum()) for r in range(nranks))
        measured = sum(r.checksum for r in results.values())
        assert measured == pytest.approx(expected, rel=1e-12)

    def test_matches_numpy_reference(self):
        cfg, results = self._run(nranks=4, keys=200)
        # reconstruct boundaries and compare against np.sort of all input
        all_input = np.sort(np.concatenate([local_block(cfg, r) for r in range(4)]))
        mins = [results[r].local_min for r in range(4) if results[r].count]
        assert mins == sorted(mins)
        assert results[0].local_min == pytest.approx(float(all_input[0]))
        last = max(r for r in results if results[r].count)
        assert results[last].local_max == pytest.approx(float(all_input[-1]))

    def test_single_rank(self):
        cfg, results = self._run(nranks=1, keys=64)
        assert results[0].count == 64


class TestModeledSort:
    def test_runs_and_costs_time(self):
        cfg = SampleSortConfig(keys_per_rank=4096, data_mode="modeled")
        system = SystemConfig.paper_system(nranks=8)
        sim = XSim(system, observe=True, trace_detail=True)
        result = sim.run(samplesort, args=(cfg,))
        assert result.completed
        out = result.exit_values[0]
        assert isinstance(out, SampleSortResult)
        assert out.checksum is None
        # sort + merge dominate virtual time (49k ops x 0.1 us x 1000)
        assert result.exit_time > 1.0
        # the exchange really was all-to-all: every ordered pair appears
        pt2pt = messages(sim, ctx=3)  # collective context
        pairs = {(m["src"], m["dst"]) for m in pt2pt}
        assert len(pairs) >= 8 * 7  # gather/bcast/alltoall cover all pairs

    def test_failure_aborts_sort(self):
        cfg = SampleSortConfig(keys_per_rank=4096, data_mode="modeled")
        system = SystemConfig.paper_system(nranks=8)
        sim = XSim(system)
        sim.inject_failure(3, 0.5)
        result = sim.run(samplesort, args=(cfg,))
        assert result.aborted


class TestVariableVolumes:
    def test_alltoallv_sizes_vary(self):
        """Skewed input -> skewed partitions -> unequal per-pair bytes."""
        cfg = SampleSortConfig(keys_per_rank=300, data_mode="real", seed=3)
        system = SystemConfig.small_test_system(nranks=4)
        sim = XSim(system, observe=True, trace_detail=True)
        result = sim.run(samplesort, args=(cfg,))
        assert result.completed
        volumes = {}
        for m in messages(sim, ctx=3):
            volumes.setdefault((m["src"], m["dst"]), 0)
            volumes[(m["src"], m["dst"])] += m["nbytes"]
        sizes = [v for v in volumes.values() if v > 0]
        assert len(set(sizes)) > 1  # genuinely variable
