"""Additional CLI coverage: new apps, option plumbing, bench utilities."""

import pytest

from repro.cli import main


class TestCliApps:
    def test_cg_app(self, capsys):
        assert main(["app", "--app", "cg", "--ranks", "8", "--iterations", "5",
                     "--interval", "5"]) == 0
        assert "completed=True" in capsys.readouterr().out

    def test_cg_with_failure_schedule(self, capsys):
        assert main(["app", "--app", "cg", "--ranks", "8", "--iterations", "30",
                     "--interval", "10", "--xsim-failures", "2@20s"]) == 0
        out = capsys.readouterr().out
        assert "restarts=" in out

    def test_system_overrides_plumbed(self, capsys):
        assert main(["app", "--app", "heat3d", "--ranks", "4", "--iterations", "1",
                     "--topology", "crossbar", "--latency", "5us",
                     "--collectives", "tree", "--slowdown", "1"]) == 0
        assert "completed=True" in capsys.readouterr().out

    def test_env_failures_honoured(self, capsys, monkeypatch):
        monkeypatch.setenv("XSIM_FAILURES", "1@30s")
        assert main(["app", "--app", "heat3d", "--ranks", "8", "--iterations", "20",
                     "--interval", "5"]) == 0
        out = capsys.readouterr().out
        assert "failures=1" in out

    def test_mttf_mode(self, capsys):
        assert main(["app", "--app", "heat3d", "--ranks", "8", "--iterations", "50",
                     "--interval", "10", "--mttf", "150", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "E2=" in out
        assert "MTTF_a=" in out


class TestBenchUtil:
    def test_bench_ranks_default(self, monkeypatch):
        from benchmarks._util import bench_ranks

        monkeypatch.delenv("XSIM_BENCH_RANKS", raising=False)
        monkeypatch.delenv("XSIM_FULL_SCALE", raising=False)
        assert bench_ranks() == 512
        assert bench_ranks(default=64) == 64

    def test_bench_ranks_env_override(self, monkeypatch):
        from benchmarks._util import bench_ranks

        monkeypatch.setenv("XSIM_BENCH_RANKS", "4096")
        assert bench_ranks() == 4096

    def test_full_scale_wins(self, monkeypatch):
        from benchmarks._util import bench_ranks

        monkeypatch.setenv("XSIM_BENCH_RANKS", "4096")
        monkeypatch.setenv("XSIM_FULL_SCALE", "1")
        assert bench_ranks() == 32768

    @pytest.mark.parametrize("value, ranks", [("true", 32768), ("0", 4096), ("", 4096)])
    def test_full_scale_follows_the_registry_rule(self, monkeypatch, value, ranks):
        """Any value other than empty/0 (``XSIM_ENV_SWITCHES``), not only "1"."""
        from benchmarks._util import bench_ranks

        monkeypatch.setenv("XSIM_BENCH_RANKS", "4096")
        monkeypatch.setenv("XSIM_FULL_SCALE", value)
        assert bench_ranks() == ranks

    def test_report_buffers(self):
        from benchmarks import _util

        before = len(_util.REPORT_BUFFER)
        _util.report("line-one", "line-two")
        assert _util.REPORT_BUFFER[before:] == ["line-one", "line-two"]
        del _util.REPORT_BUFFER[before:]
