"""The xsim-run command-line interface."""

import hashlib
import os

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_subcommands_exist(self):
        parser = build_parser()
        for cmd in (["app"], ["table1"], ["table2"], ["arch"]):
            args = parser.parse_args(cmd)
            assert callable(args.fn)

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_app_options(self):
        args = build_parser().parse_args(
            ["app", "--app", "ring", "--ranks", "16", "--mttf", "100", "--collectives", "tree"]
        )
        assert args.app == "ring"
        assert args.ranks == 16
        assert args.mttf == 100.0
        assert args.collectives == "tree"


class TestCommands:
    def test_arch(self, capsys):
        assert main(["arch", "--ranks", "64"]) == 0
        out = capsys.readouterr().out
        assert "simulated MPI layer" in out
        assert "64 VPs" in out

    def test_table1(self, capsys):
        assert main(["table1", "--victims", "10"]) == 0
        out = capsys.readouterr().out
        assert "Victims" in out
        assert "Std.Dev." in out

    def test_app_ring(self, capsys):
        assert main(["app", "--app", "ring", "--ranks", "4", "--iterations", "2"]) == 0
        out = capsys.readouterr().out
        assert "E1=" in out
        assert "completed=True" in out

    def test_app_heat3d_clean(self, capsys):
        assert (
            main(
                [
                    "app",
                    "--app",
                    "heat3d",
                    "--ranks",
                    "8",
                    "--iterations",
                    "10",
                    "--interval",
                    "5",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "completed=True" in out

    def test_app_heat3d_with_schedule(self, capsys):
        assert (
            main(
                [
                    "app",
                    "--app",
                    "heat3d",
                    "--ranks",
                    "8",
                    "--iterations",
                    "20",
                    "--interval",
                    "5",
                    "--xsim-failures",
                    "3@30s",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "failures=1" in out
        assert "restarts=1" in out
        assert "MPI process failure" in out  # informational message

    def test_app_stencil2d(self, capsys):
        assert (
            main(["app", "--app", "stencil2d", "--ranks", "4", "--iterations", "10",
                  "--interval", "5"])
            == 0
        )
        assert "completed=True" in capsys.readouterr().out

    def test_table2_tiny(self, capsys):
        # tiny scale so the test stays fast; full scale is a benchmark
        assert main(["table2", "--ranks", "8"]) == 0
        out = capsys.readouterr().out
        assert "MTTF_s" in out
        assert "paper E1" in out


def sha16(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class TestTable2IsTheParents:
    """``xsim-run table2`` prints, byte for byte, what the hand-built
    harness it replaced printed (first 16 hex of sha256(stdout), captured
    at the commit before the table moved onto ``run_cells``) — at any
    ``-j``, whatever the environment says, from any state of the cache."""

    TINY = "ede2c816e6ce1460"  # table2 --ranks 8

    @pytest.fixture(autouse=True)
    def clean_environment(self, monkeypatch):
        for name in [n for n in os.environ if n.startswith("XSIM_") and n != "XSIM_CHECK"]:
            monkeypatch.delenv(name)

    @pytest.fixture
    def cache_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("XSIM_CACHE", "1")
        monkeypatch.setenv("XSIM_CACHE_DIR", str(tmp_path / "cache"))
        return tmp_path / "cache"

    def table2(self, capsys, *argv: str) -> str:
        assert main(["table2", *argv]) == 0
        return capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv, pin",
        [
            (["--ranks", "8"], TINY),
            (["--ranks", "27", "--seed", "3"], "2982aa88fc2d246a"),  # rows with F = 0 print "-"
            (["--ranks", "64", "-j", "2"], "db74b624dd62fcf2"),
            (["--ranks", "125"], "a6c25ef015c8fb96"),
        ],
        ids=lambda v: " ".join(v) if isinstance(v, list) else None,
    )
    def test_table2_stdout_pinned(self, capsys, argv, pin):
        assert sha16(self.table2(capsys, *argv)) == pin

    def test_table2_ignores_the_scenario_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("XSIM_FAILURES", "0@10s")
        monkeypatch.setenv("XSIM_STRATEGY", "none")
        monkeypatch.setenv("XSIM_SHARDS", "2")
        assert sha16(self.table2(capsys, "--ranks", "8")) == self.TINY

    def test_table2_cold_then_warm_cache(self, capsys, cache_dir):
        from repro.cache import open_cache
        from tests.test_import_layers import loaded, xsim

        cold = self.table2(capsys, "--ranks", "8")
        stats = open_cache(cache_dir).stats
        assert (stats.hits, stats.stores) == (0, 10)
        warm = self.table2(capsys, "--ranks", "8")
        assert (stats.hits, stats.stores) == (10, 10)
        assert cold == warm and sha16(warm) == self.TINY
        # A finished table is a lookup: a fresh interpreter answers it
        # without the simulator.
        rc, out, _, mods = xsim(
            "table2", "--ranks", "8", XSIM_CACHE="1", XSIM_CACHE_DIR=str(cache_dir)
        )
        assert rc == 0 and out == warm
        assert loaded(mods, ("repro.pdes", "repro.mpi", "numpy")) == []

    def test_table2_resumes_from_a_half_filled_cache(self, capsys, cache_dir):
        from repro.cache import open_cache
        from repro.run.sweep import run_cells
        from repro.run.table2 import table2_scenarios

        store = open_cache(cache_dir)
        scenarios = table2_scenarios(8)
        run_cells([scenarios[i] for i in (0, 3, 5, 9)], cache=store)
        assert (store.stats.hits, store.stats.stores) == (0, 4)
        out = self.table2(capsys, "--ranks", "8")
        assert (store.stats.hits, store.stats.stores) == (4, 10)  # six computed
        assert sha16(out) == self.TINY

    def test_table2_refuses_zero_workers_warm_too(self, capsys, cache_dir):
        # (cold: tests/test_import_layers.py::TestOneErrorHandler)
        self.table2(capsys, "--ranks", "8")
        assert main(["table2", "--ranks", "8", "-j", "0"]) == 2
        assert capsys.readouterr().err == "error: jobs must be >= 1, got 0\n"
