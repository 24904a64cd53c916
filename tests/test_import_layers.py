"""Import layers (docs/INTERNALS.md, "Import layers").

Two things are pinned here.  *Boundaries*: what each kind of command
line is allowed to import, observed by running it in a fresh interpreter
and dumping ``sys.modules`` — the cheap commands (help, usage errors,
cache maintenance, fully warm ``--cache`` answers) load no simulator
runtime and no tool, a cold run loads no tool.  *Tables*: the static
name tables and lazy re-exports that make those boundaries possible
cannot drift from the code they name — a strategy, app, backend or
topology added in one place only fails here — and nothing the parser
prints has moved.
"""

from __future__ import annotations

import argparse
import ast
import importlib
import inspect
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main
from repro.util.errors import DeadlockError, SimulationError
from tests.golden.repin import pin

SRC = str(Path(repro.__file__).resolve().parents[1])
REPO = Path(__file__).resolve().parents[1]
EXAMPLE = str(REPO / "examples" / "heat3d_restart.toml")
GOLDEN_HELP = Path(__file__).parent / "golden" / "cli_help"

#: What the import-light layer must never pull in.
RUNTIME_AND_TOOLS = (
    "numpy",
    "repro.pdes",
    "repro.mpi",
    "repro.apps",
    "repro.models",
    "repro.check",
    "multiprocessing",
    "concurrent.futures",
)
#: What a simulation run must never pull in.
TOOLS = (
    "repro.core.faults.finject",
    "repro.core.harness.experiment",
    "repro.explore",
    "multiprocessing",
    "concurrent.futures",
)
SHARD_ENGINE = ("repro.pdes.sharded", "repro.pdes.shmring")

_DRIVER = """
import json, sys
from repro.cli import main
try:
    rc = main(sys.argv[1:])
except SystemExit as exc:  # argparse: --help and usage errors
    rc = exc.code
sys.stderr.write("\\nMODULES " + json.dumps(sorted(sys.modules)) + "\\n")
sys.exit(rc)
"""


def cli_env(**xsim_env: str) -> dict[str, str]:
    """This environment without its ``XSIM_*`` variables, plus ``xsim_env``."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("XSIM_")}
    return {**env, **xsim_env, "PYTHONPATH": SRC, "COLUMNS": "80"}


def xsim(*argv: str, **xsim_env: str) -> tuple[int, str, str, set[str]]:
    """``xsim-run argv`` in a fresh interpreter: exit status, stdout,
    stderr and the modules loaded by the time it finished.  No ``XSIM_*``
    variable reaches it but the ones passed as ``xsim_env``."""
    proc = subprocess.run(
        [sys.executable, "-c", _DRIVER, *argv],
        env=cli_env(**xsim_env), cwd=REPO, capture_output=True, text=True, timeout=120,
    )
    err, _, dump = proc.stderr.rpartition("\nMODULES ")
    return proc.returncode, proc.stdout, err, set(json.loads(dump))


def loaded(modules: set[str], names: tuple[str, ...]) -> list[str]:
    """The members of ``names`` (modules or packages) present in ``modules``."""
    return [
        n for n in names if any(m == n or m.startswith(n + ".") for m in modules)
    ]


def subcommands(parser: argparse.ArgumentParser, path: tuple[str, ...] = ()):
    """Every ``(command path, parser)`` below (and including) ``parser``."""
    yield path, parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from subcommands(sub, path + (name,))


COMMAND_PATHS = [path for path, _ in subcommands(build_parser())]


# ----------------------------------------------------------------------
# boundaries
# ----------------------------------------------------------------------
USAGE_ERRORS = [
    (["app", "--ranks", "many"], "invalid int value"),  # argparse's own
    (["app", "--strategy", "prayer"], "invalid choice"),  # a table's choices
    (["app", "--ranks", "0"], "error: ranks must be >= 1, got 0"),  # main()'s handler
    (["sweep", "--set", "nonsense=1"], "error: unknown sweep field 'nonsense'"),
    # removed with the second event core and the second bench system
    (["app", "--engine", "flat"], "unrecognized arguments: --engine flat"),
    (["sweep", "--set", "engine=flat"], "error: unknown sweep field 'engine'"),
    (["bench"], "invalid choice: 'bench'"),
]

_SHARED_DRIVER = """
import contextlib, io, json, sys
from repro.cli import main
runs = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse: --help and usage errors
            rc = exc.code
    runs.append([rc, out.getvalue(), err.getvalue(), sorted(sys.modules)])
print(json.dumps(runs))
"""


def xsim_shared(argvs: list[list[str]]) -> dict[tuple[str, ...], tuple[int, str, str, set[str]]]:
    """Each ``xsim-run argv`` called one after another in one fresh
    interpreter: argv -> exit status, stdout, stderr and the modules
    loaded by the end of that call (its own and every earlier call's, so
    a boundary holds at least as strictly as in an interpreter of its
    own; only the first call's modules are its own alone)."""
    proc = subprocess.run(
        [sys.executable, "-c", _SHARED_DRIVER, json.dumps(argvs)],
        env=cli_env(), cwd=REPO, capture_output=True, text=True, check=True, timeout=120,
    )
    return {
        tuple(argv): (rc, out, err, set(mods))
        for argv, (rc, out, err, mods) in zip(argvs, json.loads(proc.stdout))
    }


@pytest.fixture(scope="module")
def light_runs() -> dict[tuple[str, ...], tuple[int, str, str, set[str]]]:
    """Every help page and usage error below, in one fresh interpreter."""
    return xsim_shared(
        [[*path, "--help"] for path in COMMAND_PATHS] + [argv for argv, _ in USAGE_ERRORS]
    )


class TestLightCommands:
    @pytest.mark.parametrize("path", COMMAND_PATHS, ids=lambda p: " ".join(p) or "top")
    def test_help_loads_no_runtime(self, path, light_runs):
        rc, out, _, mods = light_runs[(*path, "--help")]
        assert rc == 0 and out.startswith("usage: xsim-run")
        assert loaded(mods, RUNTIME_AND_TOOLS) == []

    @pytest.mark.parametrize("argv, message", USAGE_ERRORS)
    def test_usage_error_loads_no_runtime(self, argv, message, light_runs):
        rc, _, err, mods = light_runs[tuple(argv)]
        assert rc == 2 and message in err and "Traceback" not in err
        assert loaded(mods, RUNTIME_AND_TOOLS) == []

    def test_cache_maintenance_loads_no_runtime(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        rc, out, _, mods = xsim("cache", "stats", "--cache-dir", cache_dir)
        assert rc == 0 and "entries:  0" in out
        assert loaded(mods, RUNTIME_AND_TOOLS) == []
        rc, out, _, mods = xsim("cache", "gc", "--max-age", "7d", "--cache-dir", cache_dir)
        assert rc == 0 and "evicted 0 entries" in out
        assert loaded(mods, RUNTIME_AND_TOOLS) == []


#: All a command line loads before it names a command that takes
#: scenario fields: the CLI module, the error types and the lazy loader.
CLI_ONLY = {"repro", "repro.cli", "repro.util", "repro.util.errors", "repro.util.lazy"}


class TestScenarioFreeCommands:
    """Commands that take no scenario field build only their own parser
    and never load the scenario layer (each in an interpreter of its
    own: a shared one would have loaded it for an earlier command)."""

    @pytest.mark.parametrize("argv, rc", [(["--help"], 0), (["bench"], 2)])
    def test_top_level_loads_only_the_cli(self, argv, rc):
        got, _, _, mods = xsim(*argv)
        assert got == rc
        assert {m for m in mods if m.startswith("repro")} == CLI_ONLY

    @pytest.mark.parametrize("command", ["table1", "table2", "timeline", "cache"])
    def test_help_loads_no_scenario(self, command):
        rc, out, _, mods = xsim(command, "--help")
        assert rc == 0 and out.startswith(f"usage: xsim-run {command}")
        assert loaded(mods, ("repro.run.scenario",)) == []

    def test_cache_maintenance_loads_no_scenario(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        for argv in (["stats"], ["gc", "--max-age", "7d"]):
            rc, _, _, mods = xsim("cache", *argv, "--cache-dir", cache_dir)
            assert rc == 0 and loaded(mods, ("repro.run.scenario",)) == []


#: The import-light layer, module by module (INTERNALS section 17).
LIGHT_MODULES = (
    "repro.cli", "repro.cache", "repro.cache.store",
    "repro.run.scenario", "repro.run.envvars", "repro.run.sweep", "repro.run.backends",
    "repro.run.table2",
    "repro.resilience.strategy", "repro.core.faults.schedule",
    "repro.core.harness.config", "repro.core.harness.digest", "repro.core.harness.report",
    "repro.util.errors", "repro.util.units", "repro.util.stats", "repro.util.lazy",
)


def test_light_layer_imports_only_itself_and_the_standard_library():
    code = (
        "import importlib, json, sys\n"
        f"for name in {LIGHT_MODULES!r}: importlib.import_module(name)\n"
        "print(json.dumps(sorted(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True, text=True, check=True, timeout=60,
    )
    mods = set(json.loads(proc.stdout))
    assert loaded(mods, RUNTIME_AND_TOOLS) == []
    packages = {m.rsplit(".", n)[0] for m in LIGHT_MODULES for n in range(1, m.count(".") + 1)}
    assert {m for m in mods if m.startswith("repro")} == set(LIGHT_MODULES) | packages


#: A plain two-iteration run, asked what a serial run and what a run
#: with no tool flag loads.
PLAIN = ("app", "--app", "heat3d", "--ranks", "8", "--iterations", "2")


@pytest.fixture(scope="module")
def plain_runs() -> dict[tuple[str, ...], tuple[int, str, str, set[str]]]:
    """``PLAIN``, then ``PLAIN --no-cache``, in one fresh interpreter:
    the first call's modules are its own, and the second loads no more
    than both together."""
    return xsim_shared([list(PLAIN), [*PLAIN, "--no-cache"]])


class TestRuns:
    def test_cold_app_loads_no_tool_and_warm_app_no_runtime(self, tmp_path):
        argv = ["app", "--scenario", EXAMPLE, "--digest",
                "--cache", "--cache-dir", str(tmp_path / "cache")]
        rc, cold, _, mods = xsim(*argv)
        assert rc == 0 and "cache: miss" in cold
        assert loaded(mods, ("numpy", "repro.pdes.engine", "repro.mpi.world")) != []
        assert loaded(mods, TOOLS + SHARD_ENGINE) == []

        rc, warm, _, mods = xsim(*argv)
        assert rc == 0 and "cache: hit" in warm
        assert loaded(mods, RUNTIME_AND_TOOLS) == []
        # The report a hit prints from the blob's head is the computed
        # one (timing line, E2 line, digest); only the live log lines of
        # the run itself and the cache line differ.
        report = [l for l in cold.splitlines() if not l.startswith(("[xsim", "cache:"))]
        assert report == [l for l in warm.splitlines() if not l.startswith("cache:")]
        assert len(report) == 3 and report[1].startswith("E2=")

    def test_warm_sweep_loads_no_runtime(self, tmp_path):
        argv = ["sweep", "--app", "heat3d", "--ranks", "16", "--iterations", "60",
                "--set", "interval=10,20,30", "--set", "seed=0,1",
                "--cache", "--cache-dir", str(tmp_path / "cache")]
        rc, cold, _, mods = xsim(*argv)
        assert rc == 0 and "cache: 0/6 cells served from cache" in cold
        assert loaded(mods, TOOLS + SHARD_ENGINE) == []
        cold_bytes = source_bytes(mods)

        rc, warm, _, mods = xsim(*argv)
        assert rc == 0 and "cache: 6/6 cells served from cache (100% hit rate)" in warm
        assert loaded(mods, RUNTIME_AND_TOOLS) == []
        # A count, not a wall: the warm process compiles under half the
        # package source the cold one does, on any host.
        assert source_bytes(mods) < 0.5 * cold_bytes
        # Same table either way, up to the last (source) column.
        table = lambda text: [l.rpartition("|")[0] for l in text.splitlines()[3:-1]]  # noqa: E731
        assert table(cold) == table(warm) and len(table(warm)) == 6

    def test_shard_engine_loads_only_when_sharded(self, plain_runs):
        rc, _, _, mods = plain_runs[PLAIN]
        assert rc == 0 and loaded(mods, TOOLS + SHARD_ENGINE) == []
        rc, _, _, mods = xsim(*PLAIN, "--shards", "2", "--shard-transport", "inline")
        # (the shard engine itself imports multiprocessing for its workers)
        assert rc == 0 and loaded(mods, TOOLS) in ([], ["multiprocessing"])
        assert loaded(mods, ("repro.pdes.sharded",)) == ["repro.pdes.sharded"]

    def test_checker_tracer_and_observer_load_only_when_asked(self, tmp_path, plain_runs):
        """A plain run (``XSIM_CACHE`` unset) loads no tool, no power
        model and, like ``--no-cache``, no cache store; ``--cache`` loads
        the store and ``sqlite3``."""
        tools = ("repro.check.sanitizer", "repro.check.trace", "repro.obs",
                 "repro.core.faults.softerror", "repro.models.power",
                 "repro.cache.store", "sqlite3")
        store = ["repro.cache.store", "sqlite3"]
        for extra, wanted in [
            ([], []),
            (["--no-cache"], []),
            (["--cache", "--cache-dir", str(tmp_path / "cache")], store),
            (["--check"], ["repro.check.sanitizer"]),
            (["--record-trace", str(tmp_path / "run.trace")], ["repro.check.trace"]),
            (["--trace-out", str(tmp_path / "run.json")], ["repro.obs"]),
        ]:
            rc, _, _, mods = plain_runs.get((*PLAIN, *extra)) or xsim(*PLAIN, *extra)
            assert rc == 0 and loaded(mods, tools) == wanted, extra


def source_bytes(modules: set[str]) -> int:
    """The size of the ``repro`` source files behind ``modules``."""
    return sum(os.path.getsize(path) for name, path in _source_modules().items() if name in modules)


_IN_ONE_INTERPRETER = """
import json, sys
results = {}
for name, body in json.loads(sys.argv[1]).items():
    scope = {}
    exec(body, scope)
    results[name] = scope["got"]
print(json.dumps(results))
"""


def in_one_interpreter(bodies: dict[str, str]) -> dict:
    """Each body run one after another in one fresh interpreter with a
    clean environment (``XSIM_CHECK`` stays: the sanitized CI subset runs
    these too): name -> the JSON value of the ``got`` it assigns."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("XSIM_") or k == "XSIM_CHECK"}
    proc = subprocess.run(
        [sys.executable, "-c", _IN_ONE_INTERPRETER, json.dumps(bodies)],
        env={**env, "PYTHONPATH": SRC}, capture_output=True, text=True, check=True, timeout=120,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


#: What every body below starts from.
_PRELUDE = (
    "import json, sys\n"
    "from repro.run import Scenario, run_scenario\n"
    "from repro.util.lazy import is_array\n"
    "loaded = lambda: 'numpy' in sys.modules\n"
)
SIZE_ONLY = _PRELUDE + (
    "out = {'is_array': [is_array([1.0]), is_array(b'\\0' * 8), is_array(None)]}\n"
    "for app in ('heat3d', 'cg'):\n"
    "    run_scenario(Scenario(app=app, ranks=64, iterations=40, interval=20), cache=False)\n"
    "    out[app] = loaded()\n"
    "run_scenario(Scenario(ranks=64, iterations=40, interval=20, shards=2,\n"
    "                      shard_transport='inline'), cache=False)\n"
    "out['inline shards'] = loaded()\n"
    "got = out"
)
REAL_DATA = _PRELUDE + (
    "from repro.apps.heat3d import HeatConfig, heat3d\n"
    "from repro.core.harness.config import SystemConfig\n"
    "from repro.core.harness.digest import result_digest\n"
    "from repro.core.simulator import XSim\n"
    "cfg = HeatConfig(grid=(8, 8, 8), ranks=(2, 2, 2), iterations=6,\n"
    "                 checkpoint_interval=3, exchange_interval=1, data_mode='real')\n"
    "sim = XSim(SystemConfig.small_test_system(nranks=8))\n"
    "before = loaded()\n"
    "res = sim.run(heat3d, args=(cfg, None))\n"
    "total = sum(s.checksum for s in res.exit_values.values())\n"
    "import numpy\n"
    "got = [before, loaded(), result_digest(res), total.hex(),\n"
    "       is_array(numpy.array(2.5)), is_array([2.5])]"
)
FAILURE_DRAW = _PRELUDE + (
    "scenario = Scenario(ranks=64, mttf=3000.0, interval=250, seed=1)\n"
    "before = loaded()\n"
    "summary = run_scenario(scenario, cache=False).summary()\n"
    "got = [before, loaded(), summary['result_digest'],\n"
    "       summary['failures'], summary['e2'].hex()]"
)
BIT_FLIP = _PRELUDE + (
    "from repro.models.memory import MemoryTracker, RegionKind\n"
    "from repro.util.rng import RngStreams\n"
    "memory = MemoryTracker()\n"
    "memory.allocate(0, 'grid', 4096, RegionKind.DATA)\n"
    "streams = RngStreams(7)\n"
    "before = loaded()\n"
    "flip = memory.flip_random_bit(0, streams.get('soft-errors'))\n"
    "got = [before, loaded(), flip.region, flip.byte_offset, flip.bit]"
)
# The stream hands its state to numpy mid-word (an integers draw left the
# high half of a 64-bit word) and draws on as numpy.
SOFT_ERRORS = _PRELUDE + (
    "import zlib\n"
    "from repro.core.harness.config import SystemConfig\n"
    "from repro.core.simulator import XSim\n"
    "injector = XSim(SystemConfig.small_test_system(nranks=4), seed=3).soft_errors\n"
    "first = injector.rng.integers(0, 1000)\n"
    "before = loaded()\n"
    "count = injector.schedule_poisson(0.5, 10.0, ranks=[0, 1, 2, 3])\n"
    "after = loaded()\n"
    "import numpy as np\n"
    "ref = np.random.Generator(np.random.PCG64(np.random.SeedSequence(\n"
    "    3, spawn_key=(zlib.crc32(b'soft-errors'),))))\n"
    "want = [int(ref.integers(0, 1000)), 0]\n"
    "for _ in range(4):\n"
    "    t = ref.exponential(2.0)\n"
    "    while t < 10.0:\n"
    "        want[1] += 1\n"
    "        t += ref.exponential(2.0)\n"
    "tail = [int(injector.rng.integers(0, 1000)), float(injector.rng.random())]\n"
    "got = [before, after, count > 0, [first, count] == want,\n"
    "       tail == [int(ref.integers(0, 1000)), ref.random()]]"
)


def campaign_cold_and_warm(cache_dir: str) -> str:
    return _PRELUDE + (
        "from repro.cache import ResultCache\n"
        "from repro.explore import ExploreSpec, run_explore, scorecard_json\n"
        "from repro.util.rng import Stream\n"
        "Stream(2**1000 + 1, (1,)).random()  # a seed past the precomputed constants\n"
        "spec = ExploreSpec(scenario=Scenario(ranks=8, app='heat3d', iterations=10),\n"
        "                   rank_bins=2, time_bins=2, min_samples=2, batch=6, max_cells=24, seed=11)\n"
        "cards = []\n"
        "for _ in range(2):\n"
        f"    store = ResultCache({cache_dir!r})\n"
        "    result = run_explore(spec, cache=store)\n"
        "    store.close()\n"
        "    cards.append([result.cache_hits, scorecard_json(result)])\n"
        "got = [loaded(), cards[0][0], cards[1][0], cards[0][1] == cards[1][1]]"
    )


@pytest.fixture(scope="module")
def numpy_free(tmp_path_factory) -> dict:
    """The bodies that must load no numpy, in one fresh interpreter: each
    holds its boundary at least as strictly as in one of its own."""
    cache_dir = str(tmp_path_factory.mktemp("campaign") / "cache")
    return in_one_interpreter({
        "size-only": SIZE_ONLY, "failure-draw": FAILURE_DRAW, "bit-flip": BIT_FLIP,
        "campaign": campaign_cold_and_warm(cache_dir),
    })


NUMPY_PIN = "tests/test_import_layers.py::TestNumpyLoadsWithItsObjects"
#: ``xsim-run`` draws that load no numpy, each with a line its stdout holds.
CLI_DRAWS = {
    "app-mttf": ("app", "--app", "heat3d", "--ranks", "64", "--iterations", "100",
                 "--interval", "25", "--mttf", "300", "--no-cache"),
    "table1": ("table1",),
}
CLI_APP_RUN = ("app", "--app", "heat3d", "--ranks", "64", "--no-cache")


@pytest.fixture(scope="module")
def numpy_free_commands() -> dict[tuple[str, ...], tuple[int, str, str, set[str]]]:
    """A fault-free run first (whose simulator modules are its own), then
    each draw, in one fresh interpreter."""
    return xsim_shared([list(CLI_APP_RUN), *map(list, CLI_DRAWS.values())])


class TestNumpyLoadsWithItsObjects:
    """numpy is a layer a *run* reaches (INTERNALS section 17): loaded
    when an array is first built or a stream first makes a draw with no
    pure-Python port, never by a size-only simulation nor by a failure
    or bit-flip draw — 16 MB and 0.1 s a process."""

    def test_size_only_runs_never_load_it(self, numpy_free):
        assert numpy_free["size-only"] == {
            "is_array": [False, False, False], "heat3d": False, "cg": False,
            "inline shards": False,
        }

    def test_cli_app_run_never_loads_it(self, numpy_free_commands):
        rc, out, _, mods = numpy_free_commands[CLI_APP_RUN]
        assert rc == 0 and "E1=" in out
        assert loaded(mods, ("repro.pdes.engine", "repro.mpi.world")) != []
        assert loaded(mods, ("numpy",)) == []

    def test_real_data_loads_it_and_computes_what_it_computed(self):
        got = in_one_interpreter({"real-data": REAL_DATA})["real-data"]
        want = pin(f"{NUMPY_PIN}::test_real_data_loads_it_and_computes_what_it_computed")
        assert got == [
            False, True,
            want["result_digest"],
            want["checksum"], True, False,
        ]

    def test_a_failure_draw_loads_none_and_draws_what_it_drew(self, numpy_free):
        got = numpy_free["failure-draw"]
        want = pin(f"{NUMPY_PIN}::test_a_failure_draw_loads_none_and_draws_what_it_drew")
        assert got == [
            False, False,
            want["result_digest"],
            want["failures"], want["e2"].hex(),
        ]

    def test_a_bit_flip_loads_none(self, numpy_free):
        assert numpy_free["bit-flip"] == [False, False, "grid", 1024, 0]

    def test_a_soft_error_run_loads_it_at_its_first_exponential_draw(self):
        got = in_one_interpreter({"soft-errors": SOFT_ERRORS})["soft-errors"]
        assert got == [False, True, True, True, True]

    def test_a_campaign_cold_and_warm_loads_none(self, numpy_free):
        assert numpy_free["campaign"] == [False, 0, 25, True]

    @pytest.mark.parametrize("draw, line", [
        pytest.param("app-mttf", pin(f"{NUMPY_PIN}::test_a_cli_draw_loads_none[app-mttf]"),
                     id="app-mttf"),
        pytest.param("table1", "Median     | 17.5  | # of injections to victim failure",
                     id="table1"),
    ])
    def test_a_cli_draw_loads_none(self, numpy_free_commands, draw, line):
        rc, out, _, mods = numpy_free_commands[CLI_DRAWS[draw]]
        assert rc == 0 and line in out
        assert loaded(mods, ("numpy",)) == []


class TestOneErrorHandler:
    """Every ConfigurationError leaves through ``main()``: one line, exit 2."""

    @pytest.mark.parametrize("argv", [
        ["table2", "--ranks", "8", "-j", "0"], ["table2", "--ranks", "8", "--jobs", "0"],
        ["explore", "--ranks", "8", "-j", "0"], ["sweep", "--set", "seed=1,2", "-j", "0"],
    ])
    def test_bad_worker_count(self, argv, capsys):
        # One wording, check_jobs', from every -j command.
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: jobs must be >= 1, got 0\n"

    def test_bad_xsim_jobs_breaks_only_the_commands_that_use_it(
        self, tmp_path, monkeypatch, capsys
    ):
        trace = str(tmp_path / "trace.json")
        assert main(["app", "--ranks", "8", "--iterations", "4", "--trace-out", trace]) == 0
        monkeypatch.setenv("XSIM_JOBS", "zero")
        with pytest.raises(SystemExit) as help_exit:
            main(["--help"])
        assert help_exit.value.code == 0
        assert main(["cache", "stats", "--cache-dir", str(tmp_path / "cache")]) == 0
        assert main(["timeline", trace]) == 0
        assert main(["table1", "--victims", "2"]) == 0
        # A single run has no pool: the campaign's worker count is not its.
        assert main(["app", "--ranks", "8", "--iterations", "4"]) == 0
        capsys.readouterr()
        for argv in (["table2", "--ranks", "8"], ["sweep", "--ranks", "8", "--set", "seed=1,2"],
                     ["explore", "--ranks", "8"]):
            assert main(argv) == 2
            assert capsys.readouterr().err == "error: XSIM_JOBS must be an integer, got 'zero'\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            # numpy.random.SeedSequence refuses a negative seed ...
            (["table2", "--ranks", "8", "--seed", "-1"], "seed must be >= 0, got -1"),
            (["app", "--ranks", "8", "--seed", "-1", "--mttf", "3000"], "seed must be >= 0, got -1"),
            (["table1", "--victims", "2", "--seed", "-1"], "seed must be >= 0, got -1"),
            # ... and Generator.uniform a non-finite bound (nan <= 0 is false).
            (["app", "--ranks", "8", "--mttf", "nan"],
             "mttf must be a positive finite number of seconds, got nan"),
            (["app", "--ranks", "8", "--mttf", "inf"],
             "mttf must be a positive finite number of seconds, got inf"),
        ],
    )
    def test_input_that_reaches_a_draw_is_validated_first(self, argv, message, capsys):
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_a_run_that_never_completes(self, tmp_path, capsys):
        # Every segment fails before its first checkpoint: the restart
        # budget runs out, a SimulationError, not a traceback.
        scenario = tmp_path / "never.toml"
        scenario.write_text(
            '[machine]\nranks = 8\n[app]\nname = "heat3d"\niterations = 8\ninterval = 4\n'
            '[resilience]\nmttf = 20\nmax_restarts = 3\nstrategy = "none"\n[execution]\nseed = 4\n'
        )
        assert main(["app", "--scenario", str(scenario), "--no-cache"]) == 2
        assert capsys.readouterr().err == "error: application did not complete within 3 restarts\n"

    @pytest.mark.parametrize("error", [
        SimulationError("engine assigned unexpected rank"), DeadlockError([(0, "recv", "blocked")]),
    ])
    def test_an_engine_error_keeps_its_traceback(self, monkeypatch, error):
        # An internal inconsistency is a defect to read, not a usage error.
        def fails(*args, **kwargs):
            raise error

        monkeypatch.setattr("repro.run.backends.run_scenario", fails)
        with pytest.raises(type(error)):
            main(["app", "--ranks", "8", "--no-cache"])

    def test_bad_environment_while_building_the_parser(self, monkeypatch, capsys):
        monkeypatch.setenv("XSIM_JOBS", "lots")
        assert main(["table2", "--ranks", "8"]) == 2
        assert capsys.readouterr().err == "error: XSIM_JOBS must be an integer, got 'lots'\n"

    def test_error_raised_after_resolution(self, monkeypatch, capsys):
        """A refusal the sharded run raises once the scenario resolved:
        soft-error injection armed on every simulation."""
        from repro.core.simulator import XSim

        init = XSim.__init__

        def with_soft_errors(sim, *args, **kwargs):
            init(sim, *args, **kwargs)
            sim.soft_errors  # the property arms the injector

        monkeypatch.setattr(XSim, "__init__", with_soft_errors)
        assert main(["app", "--ranks", "8", "--shards", "2",
                     "--shard-transport", "inline", "--iterations", "2"]) == 2
        err = capsys.readouterr().err
        assert err == "error: soft-error injection is not supported with --shards > 1\n"


# ----------------------------------------------------------------------
# tables
# ----------------------------------------------------------------------
LAZY_PACKAGES = [
    "repro.util", "repro.core", "repro.core.harness", "repro.core.faults",
    "repro.pdes", "repro.mpi", "repro.run", "repro.resilience", "repro.cli", "repro.models",
]


def _modules_of(package: str):
    pkg = importlib.import_module(package)
    for info in pkgutil.iter_modules(pkg.__path__, package + "."):
        yield importlib.import_module(info.name)


class TestLazyExports:
    @pytest.mark.parametrize("package", LAZY_PACKAGES)
    def test_every_name_resolves_and_is_listed(self, package):
        module = importlib.import_module(package)
        exports = module._EXPORTS
        assert exports, package
        if package != "repro.cli":
            assert sorted(module.__all__) == sorted(exports)
        for name, home in exports.items():
            assert name in dir(module), f"{package}.{name} missing from dir()"
            assert getattr(module, name) is getattr(importlib.import_module(home), name)

    def test_names_the_issue_calls_out(self):
        import repro.cli, repro.core, repro.run.backends as backends, repro.util  # noqa: E401

        assert repro.core.XSim.__module__ == "repro.core.simulator"
        assert repro.util.RngStreams.__module__ == "repro.util.rng"
        assert repro.cli.run_scenario is backends.run_scenario
        assert repro.cli.capped_shards is backends.capped_shards

    def test_submodules_and_missing_names(self):
        import repro.core.harness

        assert repro.core.harness.experiment.__name__ == "repro.core.harness.experiment"
        with pytest.raises(AttributeError):
            repro.core.harness.no_such_thing
        with pytest.raises(ImportError):
            from repro.pdes import NoSuchName  # noqa: F401


class TestTablesMatchCode:
    def test_strategies(self):
        from repro.resilience.strategy import STRATEGIES, ResilienceStrategy
        from repro.util.lazy import load

        defined = {
            cls.name: f"{cls.__module__}:{cls.__qualname__}"
            for module in _modules_of("repro.resilience")
            for cls in vars(module).values()
            if inspect.isclass(cls) and issubclass(cls, ResilienceStrategy)
            and cls is not ResilienceStrategy and cls.__module__ == module.__name__
        }
        assert defined == {name: entry.target for name, entry in STRATEGIES.items()}
        for name, entry in STRATEGIES.items():
            assert load(entry.target).name == name
            assert entry.ranks_factor in {None, *(p.key for p in entry.params)}

    def test_strategy_outside_the_table_is_refused(self):
        from repro.resilience.strategy import ResilienceStrategy, register
        from repro.util.errors import ConfigurationError

        class Rogue(ResilienceStrategy):
            name = "rogue"

        with pytest.raises(ConfigurationError, match="STRATEGIES table"):
            register(Rogue)

    def test_apps(self):
        from repro.run.scenario import APP_NAMES, APPS

        defined = {
            module.__name__.rpartition(".")[2]: f"{module.__name__}:scenario_workload"
            for module in _modules_of("repro.apps")
            if hasattr(module, "scenario_workload")
        }
        assert defined == APPS and APP_NAMES == tuple(APPS)

    def test_backends(self):
        from repro.run.scenario import BACKEND_TRANSPORTS, SHARD_TRANSPORTS, Scenario

        assert SHARD_TRANSPORTS == ("inline", "shm")
        for name, transport in BACKEND_TRANSPORTS.items():
            shards = 1 if transport is None else 2
            assert Scenario(shards=shards, shard_transport=transport).backend_name() == name
        assert Scenario(shards=2).backend_name() == "sharded-inline"

    def test_topologies(self):
        from repro.core.harness.config import TOPOLOGIES, SystemConfig
        from repro.models.network import topology
        from repro.run.scenario import TOPOLOGY_NAMES

        concrete = {
            f"{topology.__name__}:{name}"
            for name, cls in vars(topology).items()
            if inspect.isclass(cls) and issubclass(cls, topology.Topology)
            and cls is not topology.Topology and not name.startswith("_")
        }
        assert concrete == {target for target, _ in TOPOLOGIES.values()}
        assert TOPOLOGY_NAMES == tuple(TOPOLOGIES)
        for kind, (target, _) in TOPOLOGIES.items():
            built = SystemConfig(nranks=8, topology_kind=kind).make_topology()
            assert f"{type(built).__module__}:{type(built).__name__}" == target

    def test_help_pages_are_the_parents(self, monkeypatch):
        """Byte for byte what the commit before the tables printed,
        ``choices`` in the same order."""
        monkeypatch.setenv("COLUMNS", "80")
        pages = {
            "-".join(("xsim-run",) + path): parser.format_help()
            for path, parser in subcommands(build_parser())
        }
        golden = {p.stem: p.read_text() for p in GOLDEN_HELP.glob("*.txt")}
        assert pages == golden

    def test_help_pages_are_what_main_prints(self, monkeypatch, capsys):
        """The same pages through the path a user runs, where ``main``
        fills only the parser its command line names."""
        monkeypatch.setenv("COLUMNS", "80")
        pages = {}
        for path in COMMAND_PATHS:
            with pytest.raises(SystemExit) as done:
                main([*path, "--help"])
            assert done.value.code == 0
            pages["-".join(("xsim-run",) + path)] = capsys.readouterr().out
        golden = {p.stem: p.read_text() for p in GOLDEN_HELP.glob("*.txt")}
        assert pages == golden


# ----------------------------------------------------------------------
# reachability
# ----------------------------------------------------------------------
#: Modules nothing reaches from ``repro.cli``, each with what decides its
#: fate.  Register it (an ``APPS`` / ``STRATEGIES`` row, a command) or
#: delete it — then drop its line here.
UNREACHED = {
    "repro.apps.collective_bench":
        "the ledger's collective probe (ledger/probes.py) imports it",
    "repro.apps.naive_cr":
        "ROADMAP item 2(1)/4: an APPS row for the Daly oracle, or beside the bench",
    "repro.check.oracle":
        "ROADMAP item 2(1): closed forms tier-1 holds the simulator to; a parity test next",
    "repro.core.harness.experiment":
        "ROADMAP item 5: the section V-D census maps observe_failure_mode over a grid",
    "repro.models.power":
        "no run reads one: benchmarks/test_power_model.py and examples/codesign_study.py "
        "build a PowerModel from a run's busy times",
}
_TABLE_TARGET = re.compile(r"(repro(?:\.\w+)+):\w+")


def _imported_from(node: ast.ImportFrom, package: str) -> str:
    """The absolute module a ``from ... import`` statement reads."""
    base = node.module or ""
    if node.level:
        parent = package.rsplit(".", node.level - 1)[0]
        base = f"{parent}.{base}" if base else parent
    return base


def _reexports(modules: dict[str, Path]) -> dict[str, dict[str, str]]:
    """Package -> the names its ``__init__`` binds by an eager ``from``
    import, each -> the module it came from (the package's re-exports)."""
    out: dict[str, dict[str, str]] = {}
    for name, path in modules.items():
        if path.name != "__init__.py":
            continue
        bound = out[name] = {}
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                base = _imported_from(node, name)
                for alias in node.names:
                    module = f"{base}.{alias.name}"
                    bound[alias.asname or alias.name] = module if module in modules else base
    return out


def _static_imports(
    name: str, path: Path, modules: dict[str, Path], reexports: dict[str, dict[str, str]]
) -> set[str]:
    """Modules ``path`` uses: every ``import`` / ``from`` statement at any
    depth, where ``from package import name`` also uses the module the
    package's ``__init__`` re-exports ``name`` from, and every
    ``"repro.x.y:attr"`` string of a name table.  A package ``__init__``
    uses nothing: its imports (and its ``lazy_exports`` tables) are
    re-exports, which count where a module imports the name."""
    if path.name == "__init__.py":
        return set()
    package = name.rpartition(".")[0]
    found: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = _imported_from(node, package)
            found.add(base)
            for alias in node.names:
                found.add(f"{base}.{alias.name}")
                found.add(reexports.get(base, {}).get(alias.name, base))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            match = _TABLE_TARGET.fullmatch(node.value)
            if match:
                found.add(match.group(1))
    return found & set(modules)


def _source_modules() -> dict[str, Path]:
    """Every module under ``src/repro``, by dotted name."""
    root = Path(repro.__file__).parent
    return {
        ".".join(("repro", *p.relative_to(root).with_suffix("").parts)).removesuffix(".__init__"): p
        for p in root.rglob("*.py")
    }


def _reached(modules: dict[str, Path]) -> set[str]:
    """What ``repro.cli`` uses, directly or through what it uses."""
    reexports = _reexports(modules)
    reached: set[str] = set()
    frontier = ["repro.cli"]
    while frontier:
        name = frontier.pop()
        if name in reached:
            continue
        reached.add(name)
        frontier.extend(_static_imports(name, modules[name], modules, reexports))
        if "." in name:  # importing a module runs its packages' __init__
            frontier.append(name.rpartition(".")[0])
    return reached


def test_every_module_is_reached_from_the_cli_or_says_why_not():
    modules = _source_modules()
    unreached = set(modules) - _reached(modules)
    assert unreached == set(UNREACHED), (
        f"unreachable and unexplained: {sorted(unreached - set(UNREACHED))}; "
        f"listed but reached or gone: {sorted(set(UNREACHED) - unreached)}"
    )


def test_every_app_row_is_run_by_a_benchmark_or_the_ledger():
    """Reach is not enough for an ``APPS`` row, a ``COLLECTIVES`` family,
    a ``TOPOLOGIES`` kind or a resilience strategy: some file under
    ``benchmarks/`` or ``ledger/`` runs it.  An app by ``app="<row>"`` or
    by importing ``repro.apps.<row>``; a family by ``collectives="<name>"``
    or ``collective_algorithm="<name>"``; a kind by ``topology="<name>"``,
    ``topology_kind="<name>"`` or a ``KINDS`` tuple naming it; a strategy
    by ``strategy="<name>"`` or a ``STRATEGIES`` tuple naming it.  A row
    nothing measures goes."""
    from repro.core.harness.config import COLLECTIVES, TOPOLOGIES
    from repro.resilience import strategy_names
    from repro.run.scenario import APPS

    sources = "\n".join(
        path.read_text() for top in ("benchmarks", "ledger") for path in (REPO / top).rglob("*.py")
    )
    tables = [
        (APPS, r"""app\s*=\s*["']{name}["']|\brepro\.apps\.{name}\b"""),
        (COLLECTIVES, r"""collective(?:s|_algorithm)\s*=\s*["']{name}["']"""),
        (TOPOLOGIES, r"""topology(?:_kind)?\s*=\s*["']{name}["']|KINDS\s*=\s*\([^)]*["']{name}["']"""),
        (strategy_names(), r"""strategy\s*=\s*["']{name}["']|STRATEGIES\s*=\s*\([^)]*["']{name}["']"""),
    ]
    unclaimed = [
        name for names, claim in tables for name in names
        if not re.search(claim.format(name=name), sources)
    ]
    assert unclaimed == []


def test_a_package_reexport_is_not_a_use(tmp_path):
    """An ``__init__`` that imports a module eagerly does not make it used
    (the loophole that hid ``apps.samplesort`` and ``checkpoint.daly``);
    a module that imports a name the ``__init__`` re-exports does."""
    modules = _source_modules()
    reexports = _reexports(modules)
    checkpoint = "repro.core.checkpoint"
    assert reexports[checkpoint]["CheckpointProtocol"] == "repro.core.checkpoint.protocol"
    assert _static_imports(checkpoint, modules[checkpoint], modules, reexports) == set()
    user = tmp_path / "user.py"
    user.write_text("from repro.core.checkpoint import CheckpointProtocol\n")
    assert "repro.core.checkpoint.protocol" in _static_imports(
        "repro.user", user, modules, reexports
    )


#: What an oracle never reaches: the code it is an oracle for.
SIMULATOR = ("repro.mpi", "repro.pdes", "repro.models")


def test_the_oracle_reaches_none_of_the_simulator():
    """``repro.check.oracle`` computes expectations from ``SystemConfig``
    values; it is a second derivation only while it shares no code with
    what it checks.  Its import statements at any depth, followed through
    every module they name, reach no simulated-MPI, engine or
    machine-model module.  (A package's ``__init__`` is followed only
    where a statement names it: ``repro.check``'s imports the sanitizer,
    which sits beside the oracle and is not its code.)"""
    modules = _source_modules()
    reexports = _reexports(modules)
    reached: set[str] = set()
    frontier = ["repro.check.oracle"]
    while frontier:
        name = frontier.pop()
        if name not in reached:
            reached.add(name)
            frontier.extend(_static_imports(name, modules[name], modules, reexports))
    assert "repro.util.units" in reached  # the walk follows the oracle's imports
    assert loaded(reached, SIMULATOR) == []


def _real_data_pin() -> dict:
    got = in_one_interpreter({"real-data": REAL_DATA})["real-data"]
    return {"result_digest": got[2], "checksum": got[3]}


def _failure_draw_pin() -> dict:
    got = in_one_interpreter({"failure-draw": FAILURE_DRAW})["failure-draw"]
    return {"result_digest": got[2], "failures": got[3], "e2": float.fromhex(got[4])}


def _cli_draw_pin() -> str:
    _, out, _, _ = xsim(*CLI_DRAWS["app-mttf"])
    return next(line for line in out.splitlines() if line.startswith("E2="))


#: How ``tests/golden/repin.py`` recomputes each pin this file reads.
REPIN = {
    f"{NUMPY_PIN}::test_real_data_loads_it_and_computes_what_it_computed": _real_data_pin,
    f"{NUMPY_PIN}::test_a_failure_draw_loads_none_and_draws_what_it_drew": _failure_draw_pin,
    f"{NUMPY_PIN}::test_a_cli_draw_loads_none[app-mttf]": _cli_draw_pin,
}
