"""The :class:`Scenario` spec: one declarative description of one run.

A scenario captures everything a run needs — the simulated machine, the
application and its arguments, the failure schedule, the checkpoint/restart
policy, the seed, the execution backend, and the instrumentation switches —
as a frozen, picklable, TOML-round-trippable value with a stable digest.

Layered resolution (:meth:`Scenario.resolve`)::

    library defaults  <  scenario file (TOML)  <  XSIM_* environment
                      <  CLI flags / explicit kwargs

Each layer overrides the previous one per field; the environment layer is
the :mod:`repro.run.envvars` registry.  The TOML form groups fields into
``[machine]``, ``[app]``, ``[resilience]``, ``[execution]``, and
``[instrumentation]`` tables; an optional ``[sweep]`` table (not part of
the scenario itself) declares a parameter grid for ``xsim-run sweep``
(see :mod:`repro.run.sweep`)::

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
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable

from repro.core.faults.schedule import FailureSchedule
from repro.core.harness.config import TOPOLOGIES, validate_dims
from repro.resilience.strategy import make_strategy, physical_ranks, strategy_values
from repro.run.envvars import read_environment
from repro.util.errors import ConfigurationError
from repro.util.lazy import load

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
        ("backend", "backend"),
        ("shards", "shards"),
        ("shard_transport", "shard_transport"),
        ("jobs", "jobs"),
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
    "stencil2d": "repro.apps.stencil2d:scenario_workload",
    "ring": "repro.apps.ring:scenario_workload",
    "amr": "repro.apps.amr:scenario_workload",
}
#: Execution backends -> the shard transport each one drives (``None``:
#: the serial engine).  The only statement of which backends exist;
#: adding one is adding the row.
BACKEND_TRANSPORTS: dict[str, str | None] = {
    "serial": None,
    "sharded-inline": "inline",
    "sharded-fork": "fork",
    "sharded-shm": "shm",
}

APP_NAMES = tuple(APPS)
TOPOLOGY_NAMES = tuple(TOPOLOGIES)
SHARD_TRANSPORTS = tuple(sorted(t for t in BACKEND_TRANSPORTS.values() if t is not None))
_BACKEND_OF_TRANSPORT = {t: name for name, t in BACKEND_TRANSPORTS.items()}


def _check_execution_names(backend: str | None, shard_transport: str | None) -> None:
    """Refuse a backend or shard transport :data:`BACKEND_TRANSPORTS`
    does not list."""
    if backend is not None and backend not in BACKEND_TRANSPORTS:
        raise ConfigurationError(
            f"unknown backend {backend!r} (known: {', '.join(BACKEND_TRANSPORTS)})"
        )
    if shard_transport is not None and shard_transport not in SHARD_TRANSPORTS:
        raise ConfigurationError(f"unknown shard transport {shard_transport!r}")


def backend_name_for(backend: str | None, shards: int, shard_transport: str | None) -> str:
    """The :data:`BACKEND_TRANSPORTS` row a ``(backend, shards,
    shard_transport)`` triple selects.

    Explicit ``backend`` wins (and must agree with ``shard_transport``
    if both are given); otherwise the name derives from ``shards`` and
    ``shard_transport``: one shard is ``serial``, more run on the named
    transport (``fork`` when none is).
    """
    _check_execution_names(backend, shard_transport)
    if backend is None:
        return _BACKEND_OF_TRANSPORT[None if shards <= 1 else (shard_transport or "fork")]
    implied = BACKEND_TRANSPORTS[backend]
    if shard_transport is not None and implied is not None and implied != shard_transport:
        raise ConfigurationError(
            f"backend {backend!r} conflicts with shard_transport {shard_transport!r}"
        )
    return backend


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
    backend: str | None = None
    shards: int = 1
    shard_transport: str | None = None
    jobs: int = 1
    # -- instrumentation -----------------------------------------------
    check: bool | None = None
    record_events: bool = False
    observe: bool = False
    trace_detail: bool = False
    trace_out: str = ""

    def __post_init__(self) -> None:
        # Normalize representation-equivalent inputs (TOML integers,
        # list-form dims) so equality and the digest are canonical.
        object.__setattr__(self, "slowdown", float(self.slowdown))
        if self.mttf is not None:
            object.__setattr__(self, "mttf", float(self.mttf))
        if self.dims is not None:
            object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        for name in ("latency", "bandwidth", "eager_threshold", "detection_timeout"):
            object.__setattr__(self, name, str(getattr(self, name)))
        # A trace destination implies the observability bus; normalizing
        # here keeps flag-built and file-built scenarios digest-equal.
        if self.trace_out and not self.observe:
            object.__setattr__(self, "observe", True)
        params = self.strategy_params
        items = params.items() if isinstance(params, dict) else (tuple(p) for p in params)
        object.__setattr__(
            self,
            "strategy_params",
            tuple(sorted((str(k), v) for k, v in items)),
        )
        if self.ranks < 1:
            raise ConfigurationError(f"ranks must be >= 1, got {self.ranks}")
        if self.interval < 1:
            raise ConfigurationError(f"interval must be >= 1, got {self.interval}")
        # Both reach a random draw (numpy's SeedSequence, Generator.uniform).
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")
        if self.mttf is not None and not 0.0 < self.mttf < math.inf:
            raise ConfigurationError(
                f"mttf must be a positive finite number of seconds, got {self.mttf}"
            )
        if self.app not in APP_NAMES:
            raise ConfigurationError(
                f"unknown app {self.app!r} (choose from {', '.join(APP_NAMES)})"
            )
        if self.topology not in TOPOLOGY_NAMES:
            raise ConfigurationError(
                f"unknown topology {self.topology!r} "
                f"(choose from {', '.join(TOPOLOGY_NAMES)})"
            )
        if self.shards < 1:
            raise ConfigurationError(f"shards must be >= 1, got {self.shards}")
        if self.jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {self.jobs}")
        _check_execution_names(self.backend, self.shard_transport)
        # Validate the strategy name and parameter spellings eagerly.
        strategy_values(self.strategy, dict(self.strategy_params))
        if self.dims is not None:
            # paper_system places one rank per node, so nnodes == ranks.
            validate_dims(self.dims, self.topology, self.physical_ranks())
        # Parse eagerly so a bad schedule fails at build, not at launch —
        # and once: kept beside the fields like the digest (never among
        # them: ``==``, ``repr``, ``to_dict`` and TOML do not see it).
        self.__dict__["_schedule"] = FailureSchedule.parse(self.failures)

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
        layers: dict[str, Any] = {}
        if file is not None:
            layers.update(_toml_fields(Path(file).read_text()))
        if use_environment:
            layers.update(read_environment(environ))
        layers.update({k: v for k, v in overrides.items() if v is not None})
        known = {f.name for f in fields(cls)}
        unknown = set(layers) - known
        if unknown:
            raise ConfigurationError(
                f"unknown scenario field(s): {', '.join(sorted(unknown))}"
            )
        return cls(**layers)

    def with_(self, **overrides: Any) -> "Scenario":
        """Copy with field overrides (sweep expansion uses this)."""
        return replace(self, **overrides)

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
            digest = self.__dict__["_digest"] = self.digest_with()
        return digest

    def digest_with(self, **overrides: Any) -> str:
        """:meth:`scenario_digest` of this spec with ``overrides``
        standing in for the named fields — the digest ``with_`` would
        give, without building and validating a second scenario (the
        cache key normalizes the execution fields this way)."""
        h = hashlib.sha256()
        for name in _DIGEST_FIELDS:
            if name == "engine":
                h.update(_DIGEST_ENGINE_LINE)
                continue
            value = overrides[name] if name in overrides else getattr(self, name)
            if isinstance(value, float):
                rendered = value.hex()
            elif isinstance(value, tuple):
                rendered = "x".join(str(v) for v in value)
            else:
                rendered = repr(value)
            h.update(f"{name}={rendered}\n".encode())
        return h.hexdigest()

    # ------------------------------------------------------------------
    # derived objects
    # ------------------------------------------------------------------
    def backend_name(self) -> str:
        """The backend this scenario runs on (:func:`backend_name_for`)."""
        return backend_name_for(self.backend, self.shards, self.shard_transport)

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


#: Hashed verbatim where the ``engine`` field's line stood while a second
#: event core could be selected.  The digest is an on-disk contract —
#: cache keys hash it and explore scorecards print it — so dropping the
#: line would turn every stored result into a miss and move every pinned
#: scorecard.
_DIGEST_ENGINE_LINE = b"engine='heap'\n"
#: Names in the order :meth:`Scenario.digest_with` hashes them: every
#: field, plus the place of :data:`_DIGEST_ENGINE_LINE`.
_DIGEST_FIELDS = tuple(sorted([f.name for f in fields(Scenario)] + ["engine"]))


# ----------------------------------------------------------------------
# TOML plumbing
# ----------------------------------------------------------------------
_FIELD_BY_TABLE_KEY = {
    (table, key): field_name
    for table, pairs in TOML_LAYOUT.items()
    for key, field_name in pairs
}


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
    and any ``ignore_tables`` a caller owns, e.g. ``explore``)."""
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
                out["strategy"] = name
                out.setdefault("strategy_params", params)
                continue
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
    known = {f.name for f in fields(Scenario)}
    grid: dict[str, list] = {}
    for key, values in grid_raw.items():
        if key not in known:
            raise ConfigurationError(f"unknown sweep field {key!r}")
        if not isinstance(values, list) or not values:
            raise ConfigurationError(
                f"sweep field {key!r} must map to a non-empty list"
            )
        grid[key] = values
    layers = _dict_fields(doc, ignore_tables=ignore_tables)
    if use_environment:
        layers.update(read_environment(environ))
    layers.update({k: v for k, v in overrides.items() if v is not None})
    unknown = set(layers) - known
    if unknown:
        raise ConfigurationError(
            f"unknown scenario field(s): {', '.join(sorted(unknown))}"
        )
    return Scenario(**layers), grid
