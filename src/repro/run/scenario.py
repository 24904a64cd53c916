"""The :class:`Scenario` spec: one declarative description of one run.

A scenario captures everything a run needs — the simulated machine, the
application and its arguments, the failure schedule, the checkpoint/restart
policy, the seed, the execution backend, and the instrumentation switches —
as a frozen, picklable, TOML-round-trippable value with a stable digest.

Layered resolution (:meth:`Scenario.resolve`)::

    library defaults  <  scenario file (TOML)  <  XSIM_* environment
                      <  CLI flags / explicit kwargs

Each layer overrides the previous one per field.  What a field is beyond
its type and default — how its text parses, what it must satisfy, its
``xsim-run`` flag and help, its ``XSIM_*`` variable — is one row of
:data:`FIELDS`: the constructor checks from it, ``xsim-run`` builds its
flags from it, and the environment layer (:mod:`repro.run.envvars`) and
``--set`` axes parse text through :func:`parse_text`.  The TOML form
groups fields into ``[machine]``, ``[app]``, ``[resilience]``,
``[execution]``, and ``[instrumentation]`` tables; an optional
``[sweep]`` table (not part of the scenario itself) declares a parameter
grid for ``xsim-run sweep`` (see :mod:`repro.run.sweep`)::

    [machine]
    ranks = 64
    topology = "torus"

    [resilience]
    failures = "3@100s"

    [sweep]
    interval = [500, 250, 125]
    mttf = [6000.0, 3000.0]

This module is part of the import-light layer (``docs/INTERNALS.md``,
"Import layers"): building, validating, digesting and (de)serializing a
scenario imports nothing but the standard library.  What a scenario can
*name* — applications, topologies, strategies, backends — it knows from
static tables; the implementations are imported by :meth:`make_app`,
:meth:`make_strategy` and :meth:`system_config` when a run needs them.
"""

from __future__ import annotations

import hashlib
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass, fields
from functools import lru_cache
from pathlib import Path
from typing import TYPE_CHECKING, AbstractSet, Any, Callable, Iterator, NamedTuple

from repro.core.faults.schedule import FailureSchedule
from repro.core.harness.config import COLLECTIVES, TOPOLOGIES, validate_dims
from repro.resilience.strategy import (
    make_strategy,
    physical_ranks,
    strategy_names,
    strategy_values,
)
from repro.util.errors import ConfigurationError
from repro.util.lazy import load
from repro.util.units import parse_rate, parse_size, parse_time

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.core.harness.config import SystemConfig

#: TOML table -> ordered (toml key, Scenario field) pairs.  This mapping
#: *is* the file format; every Scenario field appears exactly once.
TOML_LAYOUT: dict[str, tuple[tuple[str, str], ...]] = {
    "machine": (
        ("ranks", "ranks"),
        ("topology", "topology"),
        ("dims", "dims"),
        ("latency", "latency"),
        ("bandwidth", "bandwidth"),
        ("eager_threshold", "eager_threshold"),
        ("detection_timeout", "detection_timeout"),
        ("slowdown", "slowdown"),
        ("collectives", "collectives"),
    ),
    "app": (
        ("name", "app"),
        ("iterations", "iterations"),
        ("interval", "interval"),
    ),
    "resilience": (
        ("failures", "failures"),
        ("mttf", "mttf"),
        ("max_restarts", "max_restarts"),
        ("strategy", "strategy"),
        ("strategy_params", "strategy_params"),
    ),
    "execution": (
        ("seed", "seed"),
        ("shards", "shards"),
        ("shard_transport", "shard_transport"),
    ),
    "instrumentation": (
        ("check", "check"),
        ("record_events", "record_events"),
        ("observe", "observe"),
        ("trace_detail", "trace_detail"),
        ("trace_out", "trace_out"),
    ),
}

#: Simulated applications a scenario can name -> ``"module:attr"`` of
#: the module's ``scenario_workload(scenario, interval)``, which returns
#: the generator function and the per-segment argument builder.  Adding
#: an application is that function plus an entry here (a test walks
#: ``repro.apps`` and fails if either is missing).
APPS: dict[str, str] = {
    "heat3d": "repro.apps.heat3d:scenario_workload",
    "cg": "repro.apps.cg:scenario_workload",
}
#: Execution backends -> the shard transport each one drives (``None``:
#: the serial engine).  The only statement of which backends exist; a
#: scenario's is named by its ``shards`` and ``shard_transport``
#: (:func:`backend_name_for`), never chosen on its own.
BACKEND_TRANSPORTS: dict[str, str | None] = {
    "serial": None,
    "sharded-inline": "inline",
    "sharded-shm": "shm",
}

APP_NAMES = tuple(APPS)
TOPOLOGY_NAMES = tuple(TOPOLOGIES)
SHARD_TRANSPORTS = tuple(sorted(t for t in BACKEND_TRANSPORTS.values() if t is not None))
_BACKEND_OF_TRANSPORT = {t: name for name, t in BACKEND_TRANSPORTS.items()}


def backend_name_for(shards: int, shard_transport: str | None) -> str:
    """The :data:`BACKEND_TRANSPORTS` row ``shards`` and
    ``shard_transport`` select: one shard is ``serial``, more run on the
    named transport (``inline`` when none is)."""
    check_value("shard_transport", shard_transport)
    return _BACKEND_OF_TRANSPORT[None if shards <= 1 else (shard_transport or "inline")]


def parse_dims(text: str) -> tuple[int, ...]:
    """Parse the ``--dims`` grid format, e.g. ``8x8x4`` -> ``(8, 8, 4)``."""
    parts = [p.strip() for p in str(text).replace(",", "x").split("x") if p.strip()]
    if not parts:
        raise ConfigurationError(f"empty dims spec {text!r}; expected e.g. 8x8x4")
    try:
        dims = tuple(int(p) for p in parts)
    except ValueError as exc:
        raise ConfigurationError(
            f"bad dims spec {text!r}; expected positive integers like 8x8x4"
        ) from exc
    if any(d < 1 for d in dims):
        raise ConfigurationError(f"dims must be >= 1, got {dims}")
    return dims


# ----------------------------------------------------------------------
# the field table
# ----------------------------------------------------------------------
#: A check: ``(subject, value) -> problem`` (``None`` when the value is
#: fine).  The problem names ``subject``: the field itself in the
#: constructor and on the command line, else the place the value came
#: from — ``XSIM_SHARDS``, ``machine.ranks``, ``--set ranks``.
Check = Callable[[str, Any], "str | None"]


def _at_least(low: int, high: int | None = None) -> Check:
    def check(subject: str, value: int) -> str | None:
        if value < low:
            return f"{subject} must be >= {low}, got {value}"
        if high is not None and value > high:
            return f"{subject} must be <= {high}, got {value}"
        return None

    return check


def _one_of(choices: tuple[str, ...]) -> Check:
    return lambda subject, value: (
        None if value in choices
        else f"unknown {subject} {value!r} (expected one of {', '.join(choices)})"
    )


def _parses(parse: Callable[[Any], Any], what: str) -> Check:
    # Memoised: every cell of a campaign spells the same few units, and
    # parsing one costs a construction ~1 us.  The text is what the
    # constructor keeps (a TOML number becomes its ``str``).
    @lru_cache(maxsize=256)
    def parses(text: str) -> bool:
        try:
            parse(text)
        except ConfigurationError:
            return False
        return True

    return lambda subject, value: (
        None if parses(str(value)) else f"{subject} must be {what}, got {value!r}"
    )


def _positive_finite(what: str, most: float = sys.float_info.max) -> Check:
    # mttf reaches the failure draw and slowdown the network model's
    # times, and both refuse a non-finite value.
    return lambda subject, value: (
        None if value is None or 0.0 < value <= most
        else f"{subject} must be <= {most!r}, got {value}" if 0.0 < value < math.inf
        else f"{subject} must be a positive finite {what}, got {value}"
    )


def _schedule(subject: str, value: str) -> str | None:
    try:
        FailureSchedule.parse(value)
    except ConfigurationError as exc:
        return f"{subject}: {exc}"
    return None


class FieldSpec(NamedTuple):
    """What one :class:`Scenario` field is beyond its type and default
    (the dataclass's) and its TOML key (:data:`TOML_LAYOUT`'s)."""

    name: str
    #: How its text parses (a :data:`_KINDS` key); ``None``: it has no
    #: text form and is set only by a file or a constructor call.
    kind: str | None
    check: Check | None = None
    #: The allowed names, when it is one: its check and its flag's
    #: ``choices``.
    choices: tuple[str, ...] = ()
    #: What the constructor's messages call it, when not its name.
    label: str = ""
    #: ``xsim-run`` option strings (none: no flag), help text and
    #: metavar.  ``{default}`` / ``{env}`` in the help are this field's
    #: library default and variable.
    flag: tuple[str, ...] = ()
    help: str = ""
    metavar: str | None = None
    #: The ``XSIM_*`` variable that sets it (the environment layer).
    env: str | None = None


#: The largest ``ranks`` a scenario takes.
MAX_RANKS = 2**27

#: Every Scenario field, once, in dataclass order.  Adding a field is the
#: dataclass field, its :data:`TOML_LAYOUT` row and a row here.
FIELD_TABLE: tuple[FieldSpec, ...] = (
    # -- machine -------------------------------------------------------
    # (2^27 ranks: the largest job xSim has simulated.)
    FieldSpec("ranks", "int", _at_least(1, MAX_RANKS), flag=("--ranks",),
              help="simulated MPI rank count (default {default})"),
    FieldSpec("topology", "str", choices=TOPOLOGY_NAMES, flag=("--topology",),
              help="interconnect topology (default {default})"),
    FieldSpec("dims", "dims", flag=("--dims",), metavar="DxDxD",
              help="explicit topology grid, e.g. 8x8x4 for a torus/mesh or 16x3 "
              "(arity x levels) for a fattree; must be consistent with "
              "--ranks/--topology (default: derived near-cubic dims)"),
    FieldSpec("latency", "quantity", _parses(parse_time, "a time such as 1us"),
              flag=("--latency",), help="link latency (default {default})"),
    FieldSpec("bandwidth", "quantity", _parses(parse_rate, "a rate such as 32GB/s"),
              flag=("--bandwidth",), help="link bandwidth (default {default})"),
    FieldSpec("eager_threshold", "quantity", _parses(parse_size, "a size such as 256kB"),
              flag=("--eager-threshold",),
              help="eager/rendezvous threshold (default {default})"),
    FieldSpec("detection_timeout", "quantity", _parses(parse_time, "a time such as 10s"),
              flag=("--detection-timeout",),
              help="failure detection timeout (default {default})"),
    FieldSpec("slowdown", "float", _positive_finite("number"), flag=("--slowdown",),
              help="simulated node slowdown (default {default})"),
    FieldSpec("collectives", "str", choices=COLLECTIVES, flag=("--collectives",),
              help="collective algorithm family (default {default})"),
    # -- application ---------------------------------------------------
    FieldSpec("app", "str", choices=APP_NAMES, flag=("--app",),
              help="simulated application (default {default})"),
    FieldSpec("iterations", "int", _at_least(1), flag=("--iterations",),
              help="application iterations (default {default})"),
    FieldSpec("interval", "int", _at_least(1), flag=("--interval",),
              help="checkpoint interval (default {default})"),
    # -- resilience ----------------------------------------------------
    FieldSpec("failures", "str", _schedule, flag=("--xsim-failures",),
              metavar="XSIM_FAILURES", env="XSIM_FAILURES",
              help='failure schedule as "rank@time,rank@time" (also: {env} env var)'),
    # A failure time is drawn in [0, 2 * mttf), a bound that must be finite.
    FieldSpec("mttf", "float", _positive_finite("number of seconds", sys.float_info.max / 2),
              flag=("--mttf",),
              help="system MTTF for random injection (s)"),
    FieldSpec("max_restarts", "int"),
    FieldSpec("strategy", "str", choices=strategy_names(), label="resilience strategy",
              flag=("--strategy",), env="XSIM_STRATEGY",
              help="resilience strategy (default {default}; also: {env} env var); "
              "parameters come from the scenario file's [resilience] strategy table"),
    FieldSpec("strategy_params", None),
    # -- execution -----------------------------------------------------
    # (numpy's SeedSequence refuses a negative seed.)
    FieldSpec("seed", "int", _at_least(0), flag=("--seed",),
              help="deterministic experiment seed (default {default})"),
    FieldSpec("shards", "int", _at_least(1), flag=("--shards",), env="XSIM_SHARDS",
              help="partition the simulated ranks across N conservative-parallel "
              "engine shards (default: {env} or {default}); the event trace is "
              "bit-identical to a serial run"),
    FieldSpec("shard_transport", "str", choices=SHARD_TRANSPORTS, label="shard transport",
              flag=("--shard-transport",), env="XSIM_SHARD_TRANSPORT",
              help="shard worker transport (default: {env} or inline): inline (all "
              "shards in one process) or shm (one forked worker per shard, "
              "envelopes through shared-memory rings); results are bit-identical "
              "across both"),
    # -- instrumentation -----------------------------------------------
    FieldSpec("check", "bool", flag=("--check",), env="XSIM_CHECK",
              help="enable the runtime invariant sanitizer (same as {env}=1)"),
    FieldSpec("record_events", "bool"),
    FieldSpec("observe", "bool"),
    FieldSpec("trace_detail", "bool", flag=("--trace-detail",),
              help="also record per-request blocking-wait spans and per-message "
              "post/deliver/drop instants in --trace-out (high volume on large runs)"),
    FieldSpec("trace_out", "str", flag=("--trace-out",), metavar="FILE",
              help="export the run's observability timeline (collectives, "
              "resilience instants, restart segments) to FILE: .json = Chrome "
              "trace-event JSON (open in Perfetto), .jsonl = one JSON object per "
              "event; byte-identical for serial and sharded runs"),
)
FIELDS: dict[str, FieldSpec] = {spec.name: spec for spec in FIELD_TABLE}


def _integer(text: str) -> int:
    # Sweep axes are often written 1e3: an integral float is an integer.
    try:
        return int(text)
    except ValueError:
        value = float(text)
        if not value.is_integer():
            raise
        return int(value)


_BOOLEANS = {
    "1": True, "true": True, "yes": True, "on": True,
    "0": False, "false": False, "no": False, "off": False,
}
#: Field kind -> (text parser, what a text that fails it should have been).
_KINDS: dict[str, tuple[Callable[[str], Any], str]] = {
    "int": (_integer, "an integer"),
    "float": (float, "a number"),
    "bool": (lambda text: _BOOLEANS[text.lower()], "a boolean (1/0, true/false, yes/no, on/off)"),
    "dims": (parse_dims, "a grid such as 8x8x4"),
    "str": (str, "text"),
    "quantity": (str, "text"),
}


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value: Any) -> bool:
    # An integer past the float range (a TOML 1 followed by 400 zeros)
    # is no number: the constructor could not make it a float.
    return isinstance(value, float) or _is_int(value) and abs(value) <= sys.float_info.max


def _is_params(value: Any) -> bool:
    # A table, or the (name, value) pairs a built scenario keeps.
    if isinstance(value, dict):
        return True
    return isinstance(value, (list, tuple)) and all(
        isinstance(p, (list, tuple)) and len(p) == 2 and isinstance(p[0], str) for p in value
    ) and len({p[0] for p in value}) == len(value)


#: Field kind -> (does a Python value have it, what one should have been).
#: Every check tests this before its row's own: a file or a constructor
#: call hands over values of any type, a text parser only its kind's.
_TYPES: dict[str | None, tuple[Callable[[Any], bool], str]] = {
    "int": (_is_int, "an integer"),
    "float": (_is_number, "a number"),
    "bool": (lambda value: isinstance(value, bool), "true or false"),
    "dims": (
        lambda value: isinstance(value, (list, tuple)) and bool(value)
        and all(_is_int(d) and d >= 1 for d in value),
        "a list of integers >= 1 such as [8, 8, 4]",
    ),
    "str": (lambda value: isinstance(value, str), "text"),
    # A time, rate or size: text with its unit, or a number in base units.
    "quantity": (lambda value: isinstance(value, str) or _is_number(value), "text"),
    None: (_is_params, "a table of strategy parameters"),
}


def parse_text(name: str, text: str, subject: str) -> Any:
    """Field ``name``'s value spelled ``text`` — an ``XSIM_*`` value or
    one ``--set`` axis value — parsed by its kind and checked by its
    row.  Every error names ``subject``, the text's source."""
    parse, what = _KINDS[FIELDS[name].kind]
    try:
        value = parse(text)
    except (ValueError, KeyError, ConfigurationError):
        raise ConfigurationError(f"{subject} must be {what}, got {text!r}") from None
    check_value(name, value, subject)
    return value


def check_value(name: str, value: Any, subject: str = "") -> None:
    """Refuse what field ``name``'s row refuses, naming ``subject`` (by
    default what the constructor calls the field)."""
    check = _CHECKS.get(name)
    subject = subject or FIELDS[name].label or name
    problem = check(subject, value) if check is not None else None
    if problem is not None:
        raise ConfigurationError(problem)


@dataclass(frozen=True)
class Scenario:
    """One full run, declaratively.  Defaults are the library defaults
    (identical to the bare ``xsim-run app`` invocation)."""

    # -- machine -------------------------------------------------------
    ranks: int = 64
    topology: str = "torus"
    dims: tuple[int, ...] | None = None
    latency: str = "1us"
    bandwidth: str = "32GB/s"
    eager_threshold: str = "256kB"
    detection_timeout: str = "10s"
    slowdown: float = 1000.0
    collectives: str = "linear"
    # -- application ---------------------------------------------------
    app: str = "heat3d"
    iterations: int = 1000
    interval: int = 1000
    # -- resilience ----------------------------------------------------
    failures: str = ""
    mttf: float | None = None
    max_restarts: int = 1000
    #: Resilience strategy name (see :mod:`repro.resilience`): "ckpt",
    #: "ckpt-multilevel", "replication", or "none".
    strategy: str = "ckpt"
    #: Strategy parameters as a canonical sorted tuple of (key, value)
    #: pairs; accepts a dict at construction (the TOML sub-table form
    #: ``strategy = {name = "...", k = 4}``).
    strategy_params: tuple = ()
    # -- execution -----------------------------------------------------
    seed: int = 0
    shards: int = 1
    shard_transport: str | None = None
    # -- instrumentation -----------------------------------------------
    check: bool | None = None
    record_events: bool = False
    observe: bool = False
    trace_detail: bool = False
    trace_out: str = ""

    def __post_init__(self) -> None:
        self._validate(_FIELD_NAMES)

    def _validate(self, names: AbstractSet[str], parent: "Scenario | None" = None) -> None:
        """Check and normalize the fields in ``names`` (all at construction,
        the overridden ones in :meth:`with_`, the rest being ``parent``'s)
        and run the checks across fields that read them."""
        own = self.__dict__
        for name, label, check in _CONSTRUCTOR_CHECKS:
            if name in names and (problem := check(label, own[name])) is not None:
                raise ConfigurationError(problem)
        # Normalize representation-equivalent inputs (TOML integers,
        # list-form dims) so equality and the digest are canonical.
        if "slowdown" in names:
            own["slowdown"] = float(self.slowdown)
        if "mttf" in names and self.mttf is not None:
            own["mttf"] = float(self.mttf)
        if "dims" in names and self.dims is not None:
            own["dims"] = tuple(int(d) for d in self.dims)
        for name in names & {"latency", "bandwidth", "eager_threshold", "detection_timeout"}:
            own[name] = str(own[name])
        # A trace destination implies the observability bus; normalizing
        # here keeps flag-built and file-built scenarios digest-equal.
        if self.trace_out and not self.observe:
            own["observe"] = True
        if "strategy_params" in names:
            items = dict(self.strategy_params).items()
            own["strategy_params"] = tuple(sorted((str(k), v) for k, v in items))
        # The checks across fields, each on behalf of one of them: the
        # one a scenario file's error names (``_layered``).
        if not names.isdisjoint(("strategy", "strategy_params")):
            with _on_behalf_of("strategy_params"):
                # The parameter spellings, types and bounds of the named strategy.
                strategy_values(self.strategy, dict(self.strategy_params))
        if self.dims is not None and not names.isdisjoint(_DIMS_INPUTS):
            with _on_behalf_of("dims"):
                # paper_system places one rank per node, so nnodes == ranks.
                validate_dims(self.dims, self.topology, self.physical_ranks())
        # Parse eagerly so a bad schedule fails at build, not at launch —
        # and once: kept beside the fields like the digest (never among
        # them: ``==``, ``repr``, ``to_dict`` and TOML do not see it).
        own["_schedule"] = (parent.__dict__["_schedule"] if "failures" not in names
                            else FailureSchedule.parse(self.failures))

    # ------------------------------------------------------------------
    # layered resolution
    # ------------------------------------------------------------------
    @classmethod
    def resolve(
        cls,
        file: "str | Path | None" = None,
        environ: dict[str, str] | None = None,
        use_environment: bool = True,
        **overrides: Any,
    ) -> "Scenario":
        """Build a scenario through the full precedence chain.

        ``file`` supplies the TOML layer; the environment layer reads the
        ``XSIM_*`` variables (from ``environ`` or ``os.environ``; disable
        with ``use_environment=False``); ``overrides`` is the flag/kwarg
        layer, where ``None`` values mean "not given at this layer".
        """
        layer = {} if file is None else _toml_fields(Path(file).read_text())
        return _layered(layer, environ, use_environment, overrides)

    def with_(self, **overrides: Any) -> "Scenario":
        """What the constructor builds (or refuses) from this scenario's
        fields and ``overrides``, validating only the overrides; it keeps
        this scenario's schedule unless ``failures`` changes and the digest
        line of each value object the two share, never the kept digest or
        cache key."""
        if not overrides.keys() <= _FIELD_NAMES:
            _refuse_unknown(overrides)
        own = self.__dict__
        copy = object.__new__(Scenario)
        state = copy.__dict__
        state.update({name: own[name] for name in _FIELD_ORDER}, **overrides)
        copy._validate(overrides.keys(), self)
        if "_lines" in own:
            # _validate replaces only the overrides and, on trace_out's
            # behalf, observe.
            lines = state["_lines"] = own["_lines"].copy()
            for name in (*overrides, "observe"):
                if state[name] is not own[name]:
                    lines.pop(name, None)
        return copy

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, dict[str, Any]]:
        """Nested ``{table: {key: value}}`` form (the TOML layout), with
        ``None`` fields omitted — primitives only, safe to pickle/JSON."""
        out: dict[str, dict[str, Any]] = {}
        for table, pairs in TOML_LAYOUT.items():
            body = {}
            for key, field_name in pairs:
                value = getattr(self, field_name)
                if value is None:
                    continue
                if field_name == "strategy_params":
                    if value:
                        body[key] = dict(value)
                    continue
                body[key] = list(value) if isinstance(value, tuple) else value
            out[table] = body
        return out

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "Scenario":
        """Inverse of :meth:`to_dict`; unknown tables/keys are rejected."""
        return cls(**_dict_fields(doc))

    def to_toml(self) -> str:
        """Canonical TOML rendering (every non-``None`` field, fixed
        table and key order) — ``from_toml(to_toml(s)) == s``."""
        lines: list[str] = []
        for table, body in self.to_dict().items():
            if not body:
                continue
            lines.append(f"[{table}]")
            for key, value in body.items():
                lines.append(f"{key} = {_toml_value(value)}")
            lines.append("")
        return "\n".join(lines)

    @classmethod
    def from_toml(cls, text: str) -> "Scenario":
        """Parse a scenario TOML document (``[sweep]`` table ignored)."""
        return cls(**_toml_fields(text))

    def to_toml_file(self, path: "str | Path") -> None:
        Path(path).write_text(self.to_toml())

    @classmethod
    def from_toml_file(cls, path: "str | Path") -> "Scenario":
        return cls.from_toml(Path(path).read_text())

    def scenario_digest(self) -> str:
        """Stable sha256 fingerprint of the spec (floats via ``float.hex``
        — two scenarios digest equal iff every field is identical).
        Computed once per instance: the spec is frozen, and the value
        lives beside the fields, not among them (``==``, ``repr``,
        ``to_dict`` and TOML never see it)."""
        digest = self.__dict__.get("_digest")
        if digest is None:
            digest = self.__dict__["_digest"] = _field_digest(self, {})
        return digest

    def digest_with(self, **overrides: Any) -> str:
        """:meth:`scenario_digest` with ``overrides`` standing in for the
        named fields — the digest ``with_`` would give, building no second
        scenario (the cache key normalizes the execution fields this way);
        a name that is not a field raises what ``with_`` raises.  Only the
        overrides are rendered; if each renders as the field's own line,
        this is the kept :meth:`scenario_digest`."""
        if not overrides.keys() <= _FIELD_NAMES:
            _refuse_unknown(overrides)
        given = {n: _line(n, v) for n, v in overrides.items() if v is not self.__dict__[n]}
        if given.items() <= _digest_lines(self).items():
            return self.scenario_digest()
        return _field_digest(self, given)

    # ------------------------------------------------------------------
    # derived objects
    # ------------------------------------------------------------------
    def backend_name(self) -> str:
        """The backend this scenario runs on (:func:`backend_name_for`)."""
        return backend_name_for(self.shards, self.shard_transport)

    def make_strategy(self):
        """Instantiate this scenario's resilience strategy (validated)."""
        return make_strategy(self)

    def physical_ranks(self) -> int:
        """Simulated ranks the run occupies (replication runs factor-R
        replicas, so the machine is wider than the application)."""
        return physical_ranks(self.strategy, dict(self.strategy_params), self.ranks)

    def system_config(self) -> "SystemConfig":
        """The simulated machine this scenario describes (sized for the
        strategy's *physical* rank count — replication runs factor-R
        replicas of the logical job)."""
        from repro.core.harness.config import SystemConfig

        # The paper's machine (``SystemConfig.paper_system``) with this
        # scenario's [machine] table over it, built in one step.
        return SystemConfig(
            nranks=self.physical_ranks(),
            topology_kind=self.topology,
            topology_dims=self.dims,
            link_latency=self.latency,
            link_bandwidth=self.bandwidth,
            eager_threshold=self.eager_threshold,
            detection_timeout=self.detection_timeout,
            slowdown=self.slowdown,
            collective_algorithm=self.collectives,
        )

    def make_app(self, strategy=None) -> tuple[Callable, Callable]:
        """``(app, make_args)``: the application generator function and
        the per-segment argument builder (given the checkpoint store).

        ``strategy`` is the run's live strategy instance (built fresh
        when omitted): it sets the checkpoint cadence the app runs at
        (multi-level checkpoints ``k`` times as often into cheap tiers)
        and wraps the app (replication's redMPI facade).  The workload is
        always decomposed for the *logical* ``self.ranks``.
        """
        if strategy is None:
            strategy = self.make_strategy()
        app, make_args = load(APPS[self.app])(self, strategy.app_interval(self.interval))
        return strategy.wrap_app(app), make_args

    def schedule(self) -> FailureSchedule:
        """The explicit failure schedule (may be empty), parsed when the
        scenario was built.  Every caller gets the same object: read it,
        do not ``add`` to it."""
        return self.__dict__["_schedule"]


#: Hashed verbatim where a retired field's line stood: ``engine`` while
#: a second event core could be selected, ``backend`` while a backend
#: could be named apart from ``shards`` and ``shard_transport``, ``jobs``
#: while a campaign's worker count was a field of each of its runs.  The
#: digest is an on-disk contract — cache keys hash it and explore
#: scorecards print it — so dropping a line would turn every stored
#: result into a miss and move every pinned scorecard.
_DIGEST_RETIRED_LINES = {
    "backend": "backend=None\n", "engine": "engine='heap'\n", "jobs": "jobs=1\n",
}
_FIELD_ORDER = tuple(f.name for f in fields(Scenario))
_FIELD_NAMES = frozenset(_FIELD_ORDER)
_DIMS_INPUTS = ("dims", "topology", "ranks", "strategy", "strategy_params")
#: Names in the order :func:`_field_digest` hashes them: every field,
#: plus the places of :data:`_DIGEST_RETIRED_LINES`.
_DIGEST_FIELDS = tuple(sorted(_FIELD_NAMES | _DIGEST_RETIRED_LINES.keys()))


def _line(name: str, value: Any) -> str:
    """Field ``name``'s digest line (floats by ``float.hex``)."""
    if isinstance(value, float):
        text = value.hex()
    elif isinstance(value, tuple):
        text = "x".join(str(v) for v in value)
    else:
        text = repr(value)
    return f"{name}={text}\n"


def _digest_lines(scenario: Scenario) -> dict[str, str]:
    """The line of every name of :data:`_DIGEST_FIELDS`, kept beside the
    digest: each is rendered by the first digest that needs it."""
    own = scenario.__dict__
    lines = own.setdefault("_lines", dict(_DIGEST_RETIRED_LINES))
    if len(lines) < len(_DIGEST_FIELDS):
        for name in _FIELD_NAMES - lines.keys():
            lines[name] = _line(name, own[name])
    return lines


def _field_digest(scenario: Scenario, given: dict[str, str]) -> str:
    """SHA-256 of the lines of :data:`_DIGEST_FIELDS` as one text, the
    ``given`` lines standing in for the scenario's own."""
    lines = _digest_lines(scenario) | given
    return hashlib.sha256("".join(map(lines.__getitem__, _DIGEST_FIELDS)).encode()).hexdigest()


def _refuse_unknown(overrides: dict[str, Any]) -> None:
    """Raise the constructor's ``TypeError`` for the first non-field."""
    name = next(name for name in overrides if name not in _FIELD_NAMES)
    raise TypeError(f"Scenario.__init__() got an unexpected keyword argument {name!r}")


def _typed(spec: FieldSpec, default: Any, own: Check | None) -> Check:
    """The value's type against the row's kind, then ``own``; ``None``
    passes where it is the field's default."""
    accepts, what = _TYPES[spec.kind]

    def check(subject: str, value: Any) -> str | None:
        if value is None and default is None:
            return None
        if not accepts(value):
            return f"{subject} must be {what}, got {value!r}"
        return None if own is None else own(subject, value)

    return check


#: Field name -> its check: the type, then the row's check (a
#: ``choices`` row checks membership).
_CHECKS: dict[str, Check] = {
    f.name: _typed(
        spec := FIELDS[f.name],
        f.default,
        spec.check or (_one_of(spec.choices) if spec.choices else None),
    )
    for f in fields(Scenario)
}
#: What ``__post_init__`` runs, in table order.  The failure schedule's
#: check is its type only: the constructor parses it once and keeps it.
_CONSTRUCTOR_CHECKS = tuple(
    (
        spec.name,
        spec.label or spec.name,
        _typed(spec, "", None) if spec.name == "failures" else _CHECKS[spec.name],
    )
    for spec in FIELD_TABLE
)


@contextmanager
def _on_behalf_of(name: str) -> Iterator[None]:
    """Mark a ``ConfigurationError`` raised inside as field ``name``'s."""
    try:
        yield
    except ConfigurationError as exc:
        exc.field = name  # type: ignore[attr-defined]
        raise


def _layered(
    layer: dict[str, Any],
    environ: dict[str, str] | None,
    use_environment: bool,
    overrides: dict[str, Any],
) -> Scenario:
    """The precedence chain over a file layer (``{field: value}``, already
    checked against its TOML keys): the ``XSIM_*`` environment, then the
    flag/kwarg ``overrides`` whose value is not ``None``.  A check across
    fields that refuses a value the file set names its ``table.key``."""
    env: dict[str, Any] = {}
    if use_environment:
        from repro.run.envvars import read_environment  # it imports this module

        env = read_environment(environ)
    given = {k: v for k, v in overrides.items() if v is not None}
    from_file = layer.keys() - env.keys() - given.keys()
    layer.update(env)
    layer.update(given)
    unknown = layer.keys() - FIELDS.keys()
    if unknown:
        raise ConfigurationError(
            f"unknown scenario field(s): {', '.join(sorted(unknown))}"
        )
    try:
        return Scenario(**layer)
    except ConfigurationError as exc:
        name = getattr(exc, "field", None)
        if name not in from_file:
            raise
        raise ConfigurationError(f"{_TOML_KEYS[name]}: {exc}") from None


# ----------------------------------------------------------------------
# TOML plumbing
# ----------------------------------------------------------------------
_FIELD_BY_TABLE_KEY = {
    (table, key): field_name
    for table, pairs in TOML_LAYOUT.items()
    for key, field_name in pairs
}
#: Field name -> its ``table.key``.
_TOML_KEYS = {name: f"{table}.{key}" for (table, key), name in _FIELD_BY_TABLE_KEY.items()}


def _toml_value(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return repr(value)
    if isinstance(value, list):
        return "[" + ", ".join(_toml_value(v) for v in value) + "]"
    if isinstance(value, dict):
        body = ", ".join(f"{k} = {_toml_value(v)}" for k, v in value.items())
        return "{" + body + "}"
    text = str(value)
    escaped = text.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


def _dict_fields(
    doc: dict[str, Any], ignore_tables: tuple[str, ...] = ()
) -> dict[str, Any]:
    """Flatten a nested ``{table: {key: value}}`` document into Scenario
    constructor kwargs, rejecting unknown tables/keys (except ``sweep``
    and any ``ignore_tables`` a caller owns, e.g. ``explore``) and
    values their field's check refuses, by ``table.key``."""
    out: dict[str, Any] = {}
    for table, body in doc.items():
        if table == "sweep" or table in ignore_tables:
            continue
        if table not in TOML_LAYOUT:
            raise ConfigurationError(
                f"unknown scenario table [{table}] "
                f"(expected {', '.join(TOML_LAYOUT)} or sweep)"
            )
        if not isinstance(body, dict):
            raise ConfigurationError(f"scenario table [{table}] must be a table")
        for key, value in body.items():
            field_name = _FIELD_BY_TABLE_KEY.get((table, key))
            if field_name is None:
                raise ConfigurationError(f"unknown scenario key {table}.{key}")
            if field_name == "strategy" and isinstance(value, dict):
                # The sub-table form: [resilience.strategy] with a name
                # key plus strategy parameters.
                params = dict(value)
                name = params.pop("name", None)
                if not isinstance(name, str):
                    raise ConfigurationError(
                        "[resilience.strategy] needs a string 'name' key "
                        '(e.g. strategy = {name = "ckpt-multilevel", k = 4})'
                    )
                check_value("strategy", name, f"{table}.{key}.name")
                out["strategy"] = name
                out.setdefault("strategy_params", params)
                continue
            check_value(field_name, value, f"{table}.{key}")
            out[field_name] = value
    return out


def _parse_toml(text: str) -> dict[str, Any]:
    import tomllib

    try:
        return tomllib.loads(text)
    except tomllib.TOMLDecodeError as exc:
        raise ConfigurationError(f"bad scenario TOML: {exc}") from exc


def _toml_fields(text: str) -> dict[str, Any]:
    return _dict_fields(_parse_toml(text))


def load_scenario_file(
    path: "str | Path",
    environ: dict[str, str] | None = None,
    use_environment: bool = True,
    ignore_tables: tuple[str, ...] = (),
    **overrides: Any,
) -> tuple[Scenario, dict[str, list]]:
    """Load a scenario file plus its optional ``[sweep]`` grid, resolving
    the environment and override layers on top of the file layer.

    Returns ``(scenario, grid)`` where ``grid`` maps Scenario field names
    to value lists (empty when the file has no ``[sweep]`` table).
    ``ignore_tables`` names tables owned by the caller (the explorer's
    ``[explore]`` table rides in scenario files this way).
    """
    text = Path(path).read_text()
    doc = _parse_toml(text)
    grid_raw = doc.get("sweep", {})
    if not isinstance(grid_raw, dict):
        raise ConfigurationError("[sweep] must be a table of field = [values]")
    grid: dict[str, list] = {}
    for key, values in grid_raw.items():
        if key not in FIELDS:
            raise ConfigurationError(f"unknown sweep field {key!r}")
        if not isinstance(values, list) or not values:
            raise ConfigurationError(
                f"sweep field {key!r} must map to a non-empty list"
            )
        for value in values:
            check_value(key, value, f"sweep.{key}")
        grid[key] = values
    layer = _dict_fields(doc, ignore_tables=ignore_tables)
    return _layered(layer, environ, use_environment, overrides), grid
