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
            ["app", "--app", "heat3d", "--ranks", "16", "--mttf", "100", "--collectives", "tree"]
        )
        assert args.app == "heat3d"
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
    RANKS_64 = "db74b624dd62fcf2"  # table2 --ranks 64

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
            (["--ranks", "64", "-j", "2"], RANKS_64),
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

    def test_table2_cold_on_two_workers_then_warm_at_64_ranks(self, capsys, cache_dir):
        """Computed into the cache on two workers (each stores the cells
        it computes), then read back from it: the uncached table's bytes
        both times, and ten entries in the cache."""
        cold = self.table2(capsys, "--ranks", "64", "-j", "2")
        warm = self.table2(capsys, "--ranks", "64")
        assert cold == warm and sha16(warm) == self.RANKS_64
        assert main(["cache", "stats"]) == 0
        assert "entries:  10 " in capsys.readouterr().out

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


class TestReportsArePinned:
    """``table1`` and ``app`` print, byte for byte, what they printed while
    ``table1`` still had a worker-pool path and ``app`` echoed its log as
    a live stream (first 16 hex of sha256(stdout)): the calibrated Table I
    draw whatever ``XSIM_JOBS`` says, and a run's log entries, every
    segment in order, before its timing line — serial or sharded."""

    @pytest.fixture(autouse=True)
    def clean_environment(self, monkeypatch):
        for name in [n for n in os.environ if n.startswith("XSIM_") and n != "XSIM_CHECK"]:
            monkeypatch.delenv(name)

    @pytest.mark.parametrize("jobs", [None, "1", "2"])
    def test_table1_ignores_xsim_jobs(self, capsys, monkeypatch, jobs):
        if jobs is not None:
            monkeypatch.setenv("XSIM_JOBS", jobs)
        assert main(["table1"]) == 0
        assert sha16(capsys.readouterr().out) == "7928dff5b54f08c0"

    @pytest.mark.parametrize(
        "argv, pin",
        [
            (["--iterations", "5", "--xsim-failures", "1@1s"], "dd321ea3a5c0afd5"),
            (["--iterations", "5", "--xsim-failures", "1@1s", "--shards", "2"],
             "dd321ea3a5c0afd5"),
            (["--iterations", "20", "--interval", "5", "--mttf", "40", "--seed", "3"],
             "da90f179790dff30"),
        ],
        ids=["schedule", "schedule-2-shards", "mttf"],
    )
    def test_app_stdout_pinned(self, capsys, argv, pin):
        assert main(["app", "--ranks", "8", *argv, "--digest"]) == 0
        assert sha16(capsys.readouterr().out) == pin


def _report(out: str) -> list[str]:
    """The run report lines of ``app``'s stdout: E1/E2 and the digest."""
    return [line for line in out.splitlines() if line.startswith(("E1=", "E2=", "result digest:"))]


class TestRecordedTraceIsTheRun:
    """``--record-trace`` records the run the scenario describes, every
    failure/restart segment in order, and ``--replay`` of it matches: a
    schedule run used to record its first segment only (``E1=26.2s
    completed=False``) and an MTTF run was refused."""

    @pytest.mark.parametrize(
        "argv, line, digest",
        [
            (["--iterations", "5"], "E1=26.3s completed=True", "1d7bb9286c77edef"),
            (["--iterations", "5", "--xsim-failures", "1@1s"],
             "E2=52.6s failures=1 restarts=1", "fcf8f7550ae31667"),
            (["--iterations", "20", "--interval", "5", "--mttf", "40", "--seed", "3"],
             "E2=131.4s failures=2 restarts=2", "e5644a5436e74c09"),
            # replication absorbs the failure: once recorded as an abort
            (["--iterations", "20", "--interval", "10", "--strategy", "replication",
              "--xsim-failures", "1@1s"], "E2=120.0s failures=0 restarts=0", "f544baa5dfb44a7e"),
        ],
        ids=["fault-free", "schedule", "mttf", "replication"],
    )
    def test_recording_changes_nothing_and_replays(self, tmp_path, capsys, argv, line, digest):
        base = ["app", "--ranks", "8", *argv, "--digest"]
        trace = str(tmp_path / "run.trace")
        assert main(base) == 0
        plain = _report(capsys.readouterr().out)
        assert plain[0].startswith(line) and plain[1].startswith(f"result digest: {digest}")
        assert main(base + ["--record-trace", trace]) == 0
        out = capsys.readouterr().out
        assert _report(out) == plain and f"to {trace}" in out
        assert main(base + ["--replay", trace]) == 0
        out = capsys.readouterr().out
        assert _report(out) == plain and "0 divergences" in out

    def test_an_mttf_replay_under_another_draw_diverges(self, tmp_path, capsys):
        base = ["app", "--ranks", "8", "--iterations", "20", "--interval", "5", "--mttf", "40"]
        trace = str(tmp_path / "run.trace")
        assert main(base + ["--seed", "3", "--record-trace", trace]) == 0
        capsys.readouterr()
        assert main(base + ["--seed", "4", "--replay", trace]) == 1
        assert "traces diverge at event #" in capsys.readouterr().out


class TestHostileValues:
    """Every command refuses a hostile value with exit status 2 and one
    stderr line, never a traceback, naming the field, flag, key or
    variable at fault where a case gives one.  ``$T`` is the test's
    directory, holding ``FILES``; an entry may start with one
    ``VAR=value`` the command runs under."""

    FILES = {
        "plain.txt": "not a trace, an export or a directory\n",
        "ranks.toml": '[machine]\nranks = "64"\n',
        "app.toml": '[app]\nname = "amr"\n',
        "dims.toml": '[machine]\ntopology = "fattree"\ndims = [3, 100000000]\nranks = 8\n',
        "collectives.toml": '[machine]\ncollectives = "analytic"\n',
        "torus.toml": '[machine]\ntopology = "torus"\ndims = [100000, 100000, 100000]\nranks = 8\n',
        "backend.toml": '[execution]\nbackend = "serial"\n',
        "star.toml": '[machine]\ntopology = "star"\n',
        "explore.toml": '[machine]\nranks = 8\n[explore]\nci_width = "abc"\n',
        "jobs.toml": "[execution]\njobs = 2\n",
    }

    @pytest.mark.parametrize(
        "entry, naming",
        [
            pytest.param("app --replay $T/missing", None, id="app"),
            pytest.param("sweep --set ranks=abc", None, id="sweep"),
            pytest.param("explore --max-cells -1", None, id="explore"),
            pytest.param("timeline $T/plain.txt", None, id="timeline"),
            pytest.param("table1 --victims -3", None, id="table1"),
            pytest.param("table2 --ranks 0", None, id="table2"),
            pytest.param("arch --ranks 0", None, id="arch"),
            pytest.param("cache stats --cache-dir $T/plain.txt", "cache directory unusable",
                         id="cache"),
            pytest.param("cache verify --cache-dir $T/plain.txt", None, id="cache-verify"),
            pytest.param("cache gc --max-age 7d --cache-dir $T/plain.txt", None, id="cache-gc"),
            # 1e400 is inf as a float: it escaped as an OverflowError
            # traceback or an infinite time, and an empty --set value was
            # silently dropped.
            ("app --ranks 8 --bandwidth 1e400GB/s", None),
            ("app --ranks 8 --detection-timeout 1e400s", None),
            ("sweep --set ranks=1,,2", None),
            # A slowdown is refused by its field, not later by the network
            # model as an infinite time.
            ("app --ranks 8 --slowdown 1e400", "slowdown"),
            ("app --ranks 8 --slowdown nan", "slowdown"),
            # A file's value of the wrong type was a TypeError traceback.
            ("app --scenario $T/ranks.toml", "machine.ranks"),
            # A removed app or collective family is refused by its row.
            ("app --scenario $T/app.toml", "app.name"),
            ("app --scenario $T/collectives.toml", "machine.collectives"),
            # A fat tree with levels far beyond the job hung computing
            # arity**levels; a torus far larger than the job building its
            # per-node coordinate tables.
            ("app --scenario $T/dims.toml", "machine.dims"),
            ("app --scenario $T/torus.toml", "machine.dims"),
            # A backend named apart from shards could disagree with them.
            ("app --scenario $T/backend.toml", "execution.backend"),
            ("app --scenario $T/star.toml", "machine.topology"),
            # An unreadable replay file was a traceback after the run.
            ("app --ranks 8 --replay /nonexistent", "--replay"),
            ("explore --scenario $T/explore.toml", "explore.ci_width"),
            # There is no CSV trace export: refused before the run.
            ("app --ranks 8 --trace-out $T/x.csv", "--trace-out"),
            # A campaign's worker count is no scenario key, and the explore
            # stopping rule is set by flags and [explore] only.
            ("app --scenario $T/jobs.toml", "execution.jobs"),
            ("XSIM_EXPLORE_CI=0.2 explore --ranks 8", "XSIM_EXPLORE_CI"),
        ],
    )
    def test_one_line_and_no_traceback(self, tmp_path, capsys, monkeypatch, entry, naming):
        for name in [n for n in os.environ if n.startswith("XSIM_") and n != "XSIM_CHECK"]:
            monkeypatch.delenv(name)
        for name, text in self.FILES.items():
            (tmp_path / name).write_text(text)
        argv = entry.replace("$T", str(tmp_path)).split()
        if "=" in argv[0]:
            monkeypatch.setenv(*argv.pop(0).split("=", 1))
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert naming is None or naming in err, err
