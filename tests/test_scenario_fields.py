"""The Scenario field table (``repro.run.scenario.FIELDS``).

One row a field says how its text parses, what it must satisfy, its
``xsim-run`` flag and its ``XSIM_*`` variable.  Held here: the table
covers the dataclass exactly; no command declares a flag for a field
outside it; a text reaches the same Scenario as a flag, as a variable
and as a ``--set`` axis; a bad value is refused before any cell runs,
naming where it came from; ``with_`` builds what the constructor builds,
at a budget of calls a derived cell.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import math
import os
import pstats
from dataclasses import fields
from pathlib import Path
from time import perf_counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro
from repro import cli
from repro.cache.store import cache_key
from repro.cli import build_parser, main
from repro.explore.spec import ExploreSpec, load_explore_file
from repro.run.envvars import XSIM_ENV_VARS, default_jobs, read_environment
from repro.run.scenario import (
    FIELD_TABLE,
    FIELDS,
    TOML_LAYOUT,
    TOPOLOGY_NAMES,
    Scenario,
    load_scenario_file,
    parse_text,
)
from repro.run.sweep import parse_set
from repro.util.errors import ConfigurationError

SRC = str(Path(repro.__file__).parent) + os.sep
EXAMPLES = Path(__file__).resolve().parent.parent / "examples"

#: A text for every field with a flag or a variable, other than its default.
SAMPLES = {
    "ranks": "16", "topology": "mesh", "dims": "8x8", "latency": "5us",
    "bandwidth": "16GB/s", "eager_threshold": "128kB", "detection_timeout": "20s",
    "slowdown": "2", "collectives": "tree", "app": "cg", "iterations": "40",
    "interval": "7", "failures": "3@50s", "mttf": "3000", "strategy": "none",
    "seed": "5", "shards": "2", "shard_transport": "inline",
    "check": "1", "trace_detail": "1", "trace_out": "t.json",
}


@pytest.fixture(autouse=True)
def no_xsim_environment(monkeypatch):
    for name in [n for n in os.environ if n.startswith("XSIM_")]:
        monkeypatch.delenv(name)


def subcommands(parser: argparse.ArgumentParser):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            yield from action.choices.items()


# ----------------------------------------------------------------------
# one table
# ----------------------------------------------------------------------
def test_every_field_has_exactly_one_row():
    rows = sorted(spec.name for spec in FIELD_TABLE)
    assert rows == sorted(f.name for f in fields(Scenario))
    assert len(rows) == len(set(rows)) == len(FIELDS)


def test_every_flag_or_variable_has_a_sample():
    assert set(SAMPLES) == {spec.name for spec in FIELD_TABLE if spec.flag or spec.env}


def test_no_flag_for_a_field_is_declared_outside_the_table():
    """On the commands that resolve a Scenario, an option that stores
    into a field's name is that field's row, and is in the flag layer."""
    for command, parser in subcommands(build_parser()):
        taken = parser.get_default("scenario_fields")
        if taken is None:
            continue  # table1, table2, ...: they resolve no Scenario
        stored = {a.dest: a for a in parser._actions if a.dest in FIELDS}
        assert set(stored) == set(taken), command
        for name, action in stored.items():
            assert tuple(action.option_strings) == FIELDS[name].flag, (command, name)
            assert action.default is None, (command, name)


def test_variables_are_the_tables():
    assert {v.name: (v.field, v.cli_flag) for v in XSIM_ENV_VARS.values()} == {
        spec.env: (spec.name, spec.flag[-1]) for spec in FIELD_TABLE if spec.env
    }


def test_help_states_the_dataclass_default():
    app = dict(subcommands(build_parser()))["app"]
    ranks = next(a for a in app._actions if a.dest == "ranks")
    assert ranks.help == f"simulated MPI rank count (default {Scenario().ranks})"


# ----------------------------------------------------------------------
# same text, same Scenario, from every layer
# ----------------------------------------------------------------------
def from_flag(name: str, text: str) -> Scenario:
    flag = FIELDS[name].flag[-1]
    argv = [flag] if FIELDS[name].kind == "bool" else [flag, text]
    args = build_parser().parse_args(["app", *argv])
    return Scenario.resolve(use_environment=False, **cli._scenario_overrides(args))


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_same_text_same_scenario_from_every_layer(name):
    text = SAMPLES[name]
    built = [from_flag(name, text)] if FIELDS[name].flag else []
    if FIELDS[name].env:
        built.append(Scenario.resolve(environ={FIELDS[name].env: text}))
    field, values = parse_set(f"{name}={text}")
    built.append(Scenario().with_(**{field: values[0]}))
    assert len(built) >= 2
    assert all(s == built[0] for s in built)
    assert {s.scenario_digest() for s in built} == {built[0].scenario_digest()}
    assert built[0] != Scenario()


# ----------------------------------------------------------------------
# a bad value names its source
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "environ, message",
    [
        ({"XSIM_JOBS": "lots"}, "XSIM_JOBS must be an integer, got 'lots'"),
        ({"XSIM_SHARDS": "0"}, "XSIM_SHARDS must be >= 1, got 0"),
        ({"XSIM_STRATEGY": "raid5"}, "unknown XSIM_STRATEGY 'raid5' (expected one of"),
        ({"XSIM_SHARD_TRANSPORT": "morse"}, "unknown XSIM_SHARD_TRANSPORT 'morse'"),
        ({"XSIM_CHECK": "maybe"}, "XSIM_CHECK must be a boolean"),
        ({"XSIM_FAILURES": "3@soon"}, "XSIM_FAILURES: cannot parse time 'soon'"),
    ],
)
def test_a_bad_variable_is_named(environ, message):
    # XSIM_JOBS is no Scenario field: only a campaign's -j default reads it.
    with pytest.raises(ConfigurationError) as refused:
        read_environment(environ)
        default_jobs(environ)
    assert str(refused.value).startswith(message)


@pytest.mark.parametrize(
    "axis, message",
    [
        ("latency=1us,fast", "--set latency must be a time such as 1us, got 'fast'"),
        ("collectives=linear,ring", "unknown --set collectives 'ring' (expected one of linear, tree)"),
        ("ranks=8,0", "--set ranks must be >= 1, got 0"),
        ("mttf=3000,-1", "--set mttf must be a positive finite number of seconds, got -1.0"),
    ],
)
def test_a_bad_axis_value_is_named(axis, message):
    with pytest.raises(ConfigurationError) as refused:
        parse_set(axis)
    assert str(refused.value) == message


NUMERIC_ROWS = sorted(spec.name for spec in FIELD_TABLE if spec.kind in ("int", "float", "dims"))
#: Spellings of numbers that are not finite, or barely are.
EDGES = ["inf", "-inf", "nan", "1e400", "-1e400", "1e308", "0", "-0", "1e3", "2.5",
         "8x8", "0x4", "1e400x2", "99999999999999999999999", ""]


@settings(max_examples=300, deadline=None)
@given(
    name=st.sampled_from(NUMERIC_ROWS),
    text=st.one_of(
        st.sampled_from(EDGES),
        st.floats().map(repr),
        st.integers().map(str),
        st.text(alphabet="0123456789.eEx+-nainf ", max_size=12),
    ),
)
def test_a_number_parses_finite_or_is_refused_by_name(name, text):
    """Every int / float / dims row: a finite value, or one
    ConfigurationError that names where the text came from."""
    subject = f"--set {name}"
    try:
        value = parse_text(name, text, subject)
    except ConfigurationError as refused:
        assert subject in str(refused)
        return
    values = value if isinstance(value, tuple) else (value,)
    assert all(isinstance(v, int) or math.isfinite(v) for v in values)


@settings(max_examples=300, deadline=None)
@given(
    name=st.sampled_from(sorted(XSIM_ENV_VARS) + ["XSIM_JOBS"]),
    text=st.one_of(
        st.sampled_from(EDGES + sorted(set(SAMPLES.values())) + ["fork", "yes", "off"]),
        st.text(st.characters(blacklist_categories=("Cs",)), max_size=16),
    ),
)
def test_any_text_in_a_variable_resolves_or_names_it(name, text):
    """Every ``XSIM_*`` variable that sets a field, and ``XSIM_JOBS``,
    any text: a Scenario and a worker count, or one ConfigurationError
    that names the variable — no other exception."""
    try:
        scenario = Scenario.resolve(environ={name: text})
        jobs = default_jobs({name: text})
    except ConfigurationError as refused:
        assert name in str(refused)
        return
    assert isinstance(scenario, Scenario)
    assert type(jobs) is int and jobs >= 1


@pytest.mark.parametrize(
    "argv, toml",
    [
        (["--slowdown", "1e400"], None),
        (["--slowdown", "nan"], None),
        (None, "[machine]\nslowdown = inf\n"),
    ],
)
def test_a_slowdown_that_is_not_finite_is_refused_at_the_field(tmp_path, capsys, argv, toml):
    if toml is not None:
        path = tmp_path / "s.toml"
        path.write_text(toml)
        argv = ["--scenario", str(path)]
    assert main(["app", "--ranks", "8", *argv]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "slowdown must be a positive finite number" in err


def test_a_slowdown_that_is_not_finite_is_refused_by_the_axis_and_the_constructor():
    with pytest.raises(ConfigurationError, match="^--set slowdown must be"):
        parse_set("slowdown=1,inf")
    with pytest.raises(ConfigurationError, match="^slowdown must be"):
        Scenario(slowdown=math.inf)


@pytest.mark.parametrize(
    "toml, message",
    [
        ('[machine]\ncollectives = "ring"\n', "unknown machine.collectives 'ring'"),
        ('[machine]\nlatency = "fast"\n', "machine.latency must be a time such as 1us, got 'fast'"),
        ("[execution]\nshards = 0\n", "execution.shards must be >= 1, got 0"),
        # A campaign's worker count is no scenario key.
        ("[execution]\njobs = 2\n", "unknown scenario key execution.jobs"),
        ('[resilience]\nstrategy = {name = "raid5"}\n', "unknown resilience.strategy.name 'raid5'"),
        ('[sweep]\neager_threshold = ["256kB", "big"]\n',
         "sweep.eager_threshold must be a size such as 256kB, got 'big'"),
    ],
)
def test_a_bad_toml_value_is_named(tmp_path, toml, message):
    path = tmp_path / "s.toml"
    path.write_text(toml)
    with pytest.raises(ConfigurationError) as refused:
        load_scenario_file(path, use_environment=False)
    assert str(refused.value).startswith(message)


# ----------------------------------------------------------------------
# a scenario file of any key and value
# ----------------------------------------------------------------------
TOML_KEYS = [(table, key) for table, pairs in TOML_LAYOUT.items() for key, _ in pairs]


def toml_text(value) -> str:
    """``value`` spelt in TOML: a string JSON-escaped (TOML reads those
    escapes; DEL it wants escaped too), a table inline."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float) and not math.isfinite(value):
        return "nan" if math.isnan(value) else ("inf" if value > 0 else "-inf")
    if isinstance(value, (int, float)):
        return repr(value)
    if isinstance(value, str):
        return json.dumps(value, ensure_ascii=False).replace("\x7f", "\\u007f")
    if isinstance(value, list):
        return "[" + ", ".join(map(toml_text, value)) + "]"
    if isinstance(value, dict):
        return "{" + ", ".join(f"{k} = {toml_text(v)}" for k, v in value.items()) + "}"
    return value.isoformat()  # a date


#: Values a field might mistake for its own, beside arbitrary ones.
NEAR_MISSES = ["64", "8x8", "1us", "3@50s", "", "inline", "shm", "fork", "ckpt-multilevel",
               "replication", 0, -1, 1, 2**27, 2**27 + 1, 10**22, 10**400, 3.5, 1e300]
TOML_VALUES = st.recursive(
    st.one_of(
        st.sampled_from(NEAR_MISSES),
        st.integers(),
        st.floats(),
        st.booleans(),
        st.text(st.characters(blacklist_categories=("Cs",)), max_size=8),
        st.dates(),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.sampled_from(["name", "k", "factor", "a", "x-1"]), inner, max_size=3),
    ),
    max_leaves=6,
)


@settings(max_examples=300, deadline=None)
@given(table_key=st.sampled_from(TOML_KEYS), value=TOML_VALUES)
def test_a_scenario_file_builds_a_runnable_scenario_or_names_its_key(
    tmp_path_factory, table_key, value
):
    """Any one key and value: a scenario whose machine and application
    build within a second, or one ConfigurationError naming the key."""
    table, key = table_key
    path = tmp_path_factory.getbasetemp() / "one_key.toml"
    path.write_text(f"[{table}]\n{key} = {toml_text(value)}\n")
    try:
        scenario, _ = load_scenario_file(path, use_environment=False)
    except ConfigurationError as refused:
        assert f"{table}.{key}" in str(refused)
        return
    start = perf_counter()
    scenario.system_config()
    scenario.make_app()
    assert perf_counter() - start < 1.0


EXPLORE_KEYS = sorted(f.name for f in fields(ExploreSpec) if f.name != "scenario")
#: The type of each item of a tuple-valued [explore] field.
EXPLORE_ITEM_TYPES = {"kinds": str, "strategies": str, "radii": int,
                      "straggler_factor": float, "link_factor": float}
#: Values an [explore] key might mistake for its own.
EXPLORE_NEAR_MISSES = ["abc", 2.5, [1.5, 2], ["a", 2], [1, 2, 3], ["failstop"], [0, 1],
                       ["ckpt"], 1e400, 10**400, -1, 0, 0.2, 0.9, True]


@settings(max_examples=300, deadline=None)
@given(
    key=st.sampled_from(EXPLORE_KEYS),
    value=st.one_of(st.sampled_from(EXPLORE_NEAR_MISSES), TOML_VALUES),
)
@example(key="ci_width", value="abc")
@example(key="straggler_factor", value=["a", 2])
@example(key="batch", value=2.5)
def test_an_explore_file_builds_a_spec_or_names_its_key(tmp_path_factory, key, value):
    """Any one ``[explore]`` key and value: a spec, or one
    ConfigurationError naming ``explore.<key>`` — never a TypeError, a
    ValueError, or a wrong type accepted."""
    path = tmp_path_factory.getbasetemp() / "one_explore_key.toml"
    path.write_text(f"[machine]\nranks = 8\n\n[explore]\n{key} = {toml_text(value)}\n")
    try:
        spec = load_explore_file(path, use_environment=False)
    except ConfigurationError as refused:
        assert f"explore.{key}" in str(refused)
        return
    loaded = getattr(spec, key)
    if key in EXPLORE_ITEM_TYPES:
        assert type(loaded) is tuple
        assert all(type(item) is EXPLORE_ITEM_TYPES[key] for item in loaded)
    elif type(getattr(ExploreSpec(), key)) is int:
        assert type(loaded) is int
    else:
        assert type(loaded) in (int, float)


@settings(max_examples=100, deadline=None)
@given(
    topology=st.sampled_from(TOPOLOGY_NAMES),
    dims=st.lists(st.one_of(st.integers(-1, 9), st.sampled_from([64, 10**5, 10**7])),
                  min_size=1, max_size=3),
)
@example(topology="fattree", dims=[3, 10**7])
@example(topology="torus", dims=[100000, 100000, 100000])
def test_a_topology_and_its_dims_build_a_machine_or_name_the_dims(
    tmp_path_factory, topology, dims
):
    """Two keys, ``topology`` and ``dims``: a scenario whose machine
    builds within a second, network model included, or one
    ConfigurationError naming ``machine.dims`` (a fat tree's
    ``arity ** levels`` is never computed for a ``levels`` far beyond the
    job, nor a grid's per-node coordinate tables for a grid far larger
    than it)."""
    path = tmp_path_factory.getbasetemp() / "two_keys.toml"
    path.write_text(f'[machine]\ntopology = "{topology}"\ndims = {toml_text(dims)}\n')
    start = perf_counter()
    try:
        scenario, _ = load_scenario_file(path, use_environment=False)
        scenario.system_config().make_network()
    except ConfigurationError as refused:
        assert "machine.dims" in str(refused)
    assert perf_counter() - start < 1.0


def test_a_mistyped_value_in_a_scenario_file_is_one_line_naming_its_key(tmp_path, capsys):
    path = tmp_path / "s.toml"
    path.write_text('[machine]\nranks = "64"\n')
    assert main(["app", "--scenario", str(path)]) == 2
    assert capsys.readouterr().err == "error: machine.ranks must be an integer, got '64'\n"


# ----------------------------------------------------------------------
# [machine] strings are checked when the scenario is built
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "field, value, message",
    [
        ("collectives", "ring", "unknown collectives 'ring' (expected one of linear, tree)"),
        ("latency", "fast", "latency must be a time such as 1us, got 'fast'"),
        ("bandwidth", "wide", "bandwidth must be a rate such as 32GB/s, got 'wide'"),
        ("eager_threshold", "3 qB", "eager_threshold must be a size such as 256kB, got '3 qB'"),
        ("detection_timeout", "3 fortnights",
         "detection_timeout must be a time such as 10s, got '3 fortnights'"),
    ],
)
def test_a_constructor_call_refuses_it(field, value, message):
    with pytest.raises(ConfigurationError) as refused:
        Scenario(**{field: value})
    assert str(refused.value) == message


# ----------------------------------------------------------------------
# a derived scenario is the one the constructor builds
# ----------------------------------------------------------------------
#: Values each field takes, for a base.
ACCEPTED = {
    "ranks": [8, 16], "topology": ["torus", "mesh", "fattree"],
    "dims": [None, None, (2, 2, 2), [2, 2, 4]], "latency": ["1us", 2e-6],
    "bandwidth": ["16GB/s", 10**9], "eager_threshold": ["128kB", 1024],
    "detection_timeout": ["20s", 10], "slowdown": [2, 1000.0], "collectives": ["tree"],
    "app": ["cg", "heat3d"], "iterations": [40], "interval": [7],
    "failures": ["", "3@50s", "3@50s,straggler:2@50s+10s*2.0"], "mttf": [None, 3000, 250.5],
    "max_restarts": [5], "strategy": ["ckpt", "ckpt-multilevel", "replication", "none"],
    "strategy_params": [(), {"k": 2}, {"factor": 3, "pause": 1}, (("k", 4),)],
    "seed": [0, 5], "shards": [1, 2], "shard_transport": [None, "inline", "shm"],
    "check": [None, True, False], "record_events": [False, True], "observe": [False, True],
    "trace_detail": [False, True], "trace_out": ["", "t.json"],
}
#: Values each field's row (or a check across fields) refuses.
REFUSED = {
    "ranks": [0, 2**27 + 1, "8", True], "topology": ["ring"], "dims": [[0], "2x2x2", (64, 64)],
    "latency": ["fast"], "bandwidth": ["wide", math.inf], "eager_threshold": ["3 qB"],
    "detection_timeout": [None], "slowdown": [0.0, math.nan, "2"], "collectives": ["ring"],
    "app": ["amr"], "iterations": [0], "interval": [-1], "failures": ["x@y", "3@-1s", 5],
    "mttf": [-1.0, math.inf], "max_restarts": ["5"], "strategy": ["bogus"],
    "strategy_params": [{"k": 0}, {"x": 1}, "k=4", {"factor": 1}], "seed": [-1],
    "shards": [0], "shard_transport": ["fork"], "check": [1], "record_events": [0],
    "observe": [None], "trace_detail": ["yes"], "trace_out": [None],
}


def field_values(scenario: Scenario) -> dict:
    return {f.name: getattr(scenario, f.name) for f in fields(Scenario)}


def picks(values: dict, most: int):
    """Up to ``most`` fields, each with one of its ``values``."""
    return st.lists(
        st.sampled_from(sorted(values)).flatmap(
            lambda name: st.tuples(st.just(name), st.sampled_from(values[name]))
        ),
        max_size=most,
    ).map(dict)


def built(make):
    try:
        return make(), None
    except (ConfigurationError, TypeError) as exc:
        return None, (type(exc), str(exc), getattr(exc, "field", None))


def assert_same_scenario(derived, constructed) -> None:
    assert derived == constructed and repr(derived) == repr(constructed)
    assert derived.scenario_digest() == constructed.scenario_digest()
    assert cache_key(derived) == cache_key(constructed)
    assert derived.schedule() == constructed.schedule()


#: ... and names that are no field (a retired one among them).
OVERRIDES = picks(
    {**{name: ACCEPTED[name] + REFUSED[name] for name in ACCEPTED}, "shard": [4], "engine": ["heap"]},
    3,
).filter(bool)


@settings(max_examples=150, deadline=None)
@given(base=picks(ACCEPTED, 4), first=OVERRIDES, second=OVERRIDES)
# a check across fields: the dims no longer hold the job
@example(base={"dims": (2, 2, 2)}, first={"ranks": 16}, second={"strategy": "replication"})
@example(base={"strategy": "replication"}, first={"strategy_params": {"k": 2}},
         second={"strategy_params": {"factor": 3}})
# a line the parent kept: a trace destination turns on the bus
@example(base={}, first={"trace_out": "t.json"}, second={"observe": False})
@example(base={"trace_out": "t.json"}, first={"trace_out": ""}, second={"slowdown": 2})
def test_with_builds_what_the_constructor_builds(base, first, second):
    """``with_`` validates only the fields it overrides and keeps the
    rest of its parent (values, parsed schedule, digest lines); twice over,
    it agrees with a constructor call on every field in ==, repr, digest,
    cache key and schedule, and refuses what the constructor refuses with
    the same exception and message."""
    assert ACCEPTED.keys() == REFUSED.keys() == FIELDS.keys()
    parent, refused = built(lambda: Scenario(**base))
    if refused is not None:
        return  # a base the table itself refuses (say, dims too small)
    cache_key(parent)  # the parent's digest lines are kept, as in a campaign
    for overrides in (first, second):
        derived, refused = built(lambda: parent.with_(**overrides))
        constructed, expected = built(lambda: Scenario(**{**field_values(parent), **overrides}))
        assert refused == expected
        if refused is not None:
            return
        assert_same_scenario(derived, constructed)
        parent = derived


#: Calls into ``src/repro`` functions (a comprehension counts) for one
#: explorer cell on the reference base: ``with_(failures=...)`` and its
#: ``cache_key``.  At the parent of the derived-copy contract, when
#: ``with_`` was ``dataclasses.replace`` and the key re-rendered every
#: digest line: 116.
CALLS_PER_DERIVED_CELL = 23


def test_calls_per_derived_cell_stay_inside_the_budget():
    base = load_explore_file(EXAMPLES / "explore_reference.toml", use_environment=False).scenario
    cache_key(base)  # the base cell's lookup, before any cell derives from it
    cache_key(base.with_(failures="1@5s"))
    profile = cProfile.Profile()
    profile.enable()
    cache_key(base.with_(failures="3@17.5s"))
    profile.disable()
    calls = sum(
        ncalls for (filename, _line, _name), (_cc, ncalls, *_rest)
        in pstats.Stats(profile).stats.items() if filename.startswith(SRC)
    )
    assert calls <= CALLS_PER_DERIVED_CELL, calls


@pytest.mark.parametrize(
    "field, table, key, name",
    [
        ("app", "app", "name", "amr"),
        ("app", "app", "name", "stencil2d"),
        ("app", "app", "name", "ring"),
        ("collectives", "machine", "collectives", "analytic"),
        ("topology", "machine", "topology", "star"),
    ],
    ids=["amr", "stencil2d", "ring", "analytic", "star"],
)
def test_a_removed_app_is_refused_at_every_entry(tmp_path, capsys, field, table, key, name):
    """The apps, the collective family and the topology no claim ran are
    gone, refused by their row's own choices: at the constructor, from a
    file and on the command line."""
    expected = {"app": "(expected one of heat3d, cg)",
                "collectives": "(expected one of linear, tree)",
                "topology": "(expected one of torus, mesh, fattree, crossbar)"}[field]
    with pytest.raises(ConfigurationError) as refused:
        Scenario(**{field: name})
    assert str(refused.value) == f"unknown {field} {name!r} {expected}"
    path = tmp_path / "s.toml"
    path.write_text(f'[{table}]\n{key} = "{name}"\n')
    with pytest.raises(ConfigurationError) as refused:
        load_scenario_file(path, use_environment=False)
    assert str(refused.value) == f"unknown {table}.{key} {name!r} {expected}"
    with pytest.raises(SystemExit) as exited:
        main(["app", f"--{field}", name])
    assert exited.value.code == 2
    assert f"argument --{field}: invalid choice: {name!r}" in capsys.readouterr().err


class TestRefusedBeforeAnyCellRuns:
    """A sweep whose second cell names an unknown collective family or
    an unparseable latency used to run its first cell and then fail; every
    way of naming the value now fails before the campaign starts."""

    @pytest.fixture(autouse=True)
    def cells(self, monkeypatch):
        import repro.run.sweep as sweep

        ran: list = []
        monkeypatch.setattr(sweep, "run_cells", lambda scenarios, **kw: ran.append(scenarios))
        return ran

    BASE = ["sweep", "--app", "heat3d", "--ranks", "4", "--iterations", "2"]

    @pytest.mark.parametrize("axis", ["collectives=linear,ring", "latency=1us,fast"])
    def test_a_set_axis(self, cells, capsys, axis):
        assert main([*self.BASE, "--set", axis]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert cells == []

    def test_a_flag(self, cells, capsys):
        assert main([*self.BASE, "--latency", "fast", "--set", "seed=0,1"]) == 2
        assert capsys.readouterr().err == (
            "error: latency must be a time such as 1us, got 'fast'\n"
        )
        with pytest.raises(SystemExit):  # argparse's choices
            main([*self.BASE, "--collectives", "ring", "--set", "seed=0,1"])
        assert cells == []

    @pytest.mark.parametrize(
        "toml, message",
        [
            ('[machine]\ncollectives = "ring"\n\n[sweep]\nseed = [0, 1]\n',
             "unknown machine.collectives 'ring'"),
            ('[sweep]\nlatency = ["1us", "fast"]\n', "sweep.latency must be a time"),
        ],
    )
    def test_a_toml_file(self, cells, capsys, tmp_path, toml, message):
        path = tmp_path / "s.toml"
        path.write_text(toml)
        assert main(["sweep", "--scenario", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert cells == []
