"""``xsim-run``: command-line front end of the toolkit.

Mirrors how the original tool is driven: pick an application and a
simulated machine, optionally pass a failure schedule as rank/time pairs on
the command line (``--xsim-failures "3@100s,17@2500s"``) or via the
``XSIM_FAILURES`` environment variable, run, and read the per-process
timing statistics and the informational failure/abort messages.

Subcommands::

    xsim-run app     --app heat3d --ranks 64 --interval 250 [--mttf 3000]
    xsim-run app     --scenario run.toml  # declarative spec (repro.run)
    xsim-run sweep   --scenario run.toml --set interval=500,250 -j 4
    xsim-run table1  # Finject bit-flip campaign (paper Table I)
    xsim-run table2  --ranks 512  # checkpoint-interval x MTTF sweep (Table II)
    xsim-run arch    --ranks 32768  # architecture self-description (Fig. 1)
    xsim-run simcheck  # differential determinism harness (see repro.check)

Every ``app``/``arch``/``sweep``/``explore`` invocation resolves one
:class:`~repro.run.scenario.Scenario` through the layered precedence
chain — library defaults < ``--scenario`` TOML file < ``XSIM_*``
environment < explicit flags — and executes it on the backend its row
of ``BACKEND_TRANSPORTS`` names.  A flag that sets a Scenario field is
that field's row of :data:`repro.run.scenario.FIELDS` — spelling, type,
choices, help, and the default the help states, read off the dataclass
— and each command names the fields it takes, in help order
(:func:`_add_field_flags`); the flag layer is those flags the user
passed.  Results and traces are bit-identical across backends.

Debugging aids on ``app``: ``--check`` enables the runtime invariant
sanitizer (equivalent to ``XSIM_CHECK=1``); ``--record-trace FILE`` saves
the full event-dispatch trace; ``--replay FILE`` re-runs and diffs against
a saved trace, reporting the first divergence; ``--digest`` prints the
canonical result fingerprint for cross-backend comparison.

Start-up cost follows the command (``docs/INTERNALS.md``, "Import
layers"): this module imports only the import-light layer — the scenario
spec and its field table, the error types — so
``--help``, a usage error and ``cache stats|gc`` load no simulator; each
``_cmd_*`` imports the runtime or tool it drives, and a warm ``app`` /
``sweep --cache`` / ``table2`` under ``XSIM_CACHE=1`` is answered from
the cache's JSON heads without the engine, the MPI layer or numpy.
``table2`` is ten scenarios built by constructor
(:mod:`repro.run.table2`): it follows the ``XSIM_CACHE`` /
``XSIM_CACHE_DIR`` policy and reads no other scenario variable.  One
handler in :func:`main` turns every
:class:`~repro.util.errors.ConfigurationError` into ``error: ...`` and
exit status 2.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings
from dataclasses import fields
from typing import Sequence

from repro.run.envvars import default_jobs
from repro.run.scenario import FIELDS, Scenario, load_scenario_file, parse_dims
from repro.util.errors import ConfigurationError
from repro.util.lazy import lazy_exports

# Names this module used to import eagerly and callers still read off it
# (``repro.cli.run_scenario``, ``repro.cli.capped_shards``, ...): resolved
# on first use, so importing the CLI does not import what they live in.
_EXPORTS = {
    "EventTrace": "repro.check.trace",
    "FinjectCampaign": "repro.core.faults.finject",
    "XSim": "repro.core.simulator",
    "capped_shards": "repro.run.backends",
    "format_table": "repro.core.harness.report",
    "parse_set": "repro.run.sweep",
    "render_table2": "repro.run.table2",
    "run_scenario": "repro.run.backends",
    "run_sweep": "repro.run.sweep",
    "run_table2": "repro.run.table2",
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)


def _add_cache_args(p: argparse.ArgumentParser) -> None:
    g = p.add_mutually_exclusive_group()
    g.add_argument(
        "--cache",
        dest="cache",
        action="store_true",
        default=None,
        help="consult/write the content-addressed result cache (same as "
        "XSIM_CACHE=1); previously computed scenarios are served by lookup, "
        "bit-identical to recomputation",
    )
    g.add_argument(
        "--no-cache",
        dest="cache",
        action="store_false",
        help="disable the result cache for this invocation even when "
        "XSIM_CACHE is set",
    )
    p.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="result cache directory (default: XSIM_CACHE_DIR or ~/.cache/xsim); "
        "safe to share between parallel workers and concurrent invocations",
    )


def _cache_from_args(args: argparse.Namespace):
    """The ResultCache this invocation uses, or None (caching off):
    ``--cache``/``--no-cache`` override the ``XSIM_CACHE`` environment
    policy; ``--cache-dir`` overrides ``XSIM_CACHE_DIR``."""
    from repro import cache as cache_mod

    flag = getattr(args, "cache", None)
    enabled = cache_mod.cache_enabled() if flag is None else flag
    if not enabled:
        return None
    return cache_mod.open_cache(getattr(args, "cache_dir", None))


def _jobs(given: int | None) -> int:
    """A ``-j`` command's worker count: the flag, else ``XSIM_JOBS`` —
    read here, when the command runs, so a bad value breaks only the
    commands that use it."""
    return default_jobs() if given is None else given


def _add_jobs_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "-j",
        "--jobs",
        type=int,
        default=None,
        help="worker processes for independent runs (default: XSIM_JOBS or 1); "
        "results are identical to a serial run",
    )


#: Scenario-field flags each command takes, in the order its help lists
#: them (``app`` and ``sweep`` add more further down their pages).
_MACHINE = (
    "ranks", "topology", "dims", "latency", "bandwidth", "eager_threshold",
    "detection_timeout", "slowdown", "collectives", "seed", "shards", "shard_transport",
)
_WORKLOAD = ("app", "iterations", "interval", "strategy")
_FAULTS = ("mttf", "failures", "check")
#: argparse ``type`` per field kind (``str``: the text itself).  A bad
#: ``--dims`` raises ``ConfigurationError``, which argparse lets through
#: to :func:`main`'s handler.
_FLAG_TYPES = {"int": int, "float": float, "dims": parse_dims, "str": None}
_DEFAULTS = {f.name: f.default for f in fields(Scenario)}


def _add_field_flags(
    p: argparse.ArgumentParser, names: tuple[str, ...], helps: dict[str, str] | None = None
) -> None:
    """Add the flags of Scenario fields ``names``, each as its
    :data:`FIELDS` row says (``helps`` replaces a row's text on this
    command), and record them in ``scenario_fields``.  Every default is
    ``None`` — not given: the lower layers decide — and the help states
    the library default instead."""
    for name in names:
        spec = FIELDS[name]
        default = _DEFAULTS[name]
        text = (helps or {}).get(name, spec.help).format(
            default=f"{default:g}" if isinstance(default, float) else default,
            env=spec.env,
        )
        if spec.kind == "bool":
            p.add_argument(*spec.flag, dest=name, action="store_true", default=None, help=text)
        else:
            p.add_argument(
                *spec.flag, dest=name, type=_FLAG_TYPES[spec.kind],
                choices=list(spec.choices) or None, metavar=spec.metavar,
                default=None, help=text,
            )
    p.set_defaults(scenario_fields=(p.get_default("scenario_fields") or ()) + names)


_SCENARIO_HELP = (
    "load a scenario TOML file; explicit flags and XSIM_* variables "
    "override its values (defaults < file < env < flags)"
)


def _scenario_overrides(args: argparse.Namespace) -> dict:
    """The flag layer of the precedence chain: the Scenario-field flags
    of this command the user passed."""
    return {
        name: getattr(args, name)
        for name in args.scenario_fields
        if getattr(args, name) is not None
    }


def _resolve_scenario(args: argparse.Namespace) -> tuple[Scenario, dict]:
    """Resolve the invocation's scenario (and ``[sweep]`` grid, if any)
    through the full precedence chain."""
    overrides = _scenario_overrides(args)
    file = getattr(args, "scenario", None)
    if file:
        return load_scenario_file(file, **overrides)
    return Scenario.resolve(**overrides), {}


def _check_output_dir(path: str, flag: str) -> None:
    """Refuse ``path`` before anything runs when its directory does not
    exist or cannot be written: the file is only written at the end."""
    directory = os.path.dirname(path) or "."
    if not os.path.isdir(directory) or not os.access(directory, os.W_OK):
        raise ConfigurationError(
            f"{flag} {path}: directory {directory} does not exist or is not writable"
        )


def _cmd_app(args: argparse.Namespace) -> int:
    from repro.run.backends import run_scenario

    tracing = bool(args.record_trace or args.replay)
    scenario, _ = _resolve_scenario(args)
    if scenario.trace_out:
        _check_output_dir(scenario.trace_out, "--trace-out")
    if tracing:
        scenario = scenario.with_(record_events=True)
    if tracing and scenario.mttf is not None:
        print(
            "--record-trace/--replay cover exactly one engine run; "
            "combine them with --xsim-failures, not --mttf",
            file=sys.stderr,
        )
        return 2

    cache = _cache_from_args(args)
    outcome = run_scenario(
        scenario,
        log_stream=sys.stdout,
        force_single=tracing,
        cache=cache if cache is not None else False,
    )
    # The report reads the outcome's facts, never ``result`` / ``run``: a
    # cache hit prints it from the blob's head without decoding the body.
    facts = outcome.facts()
    print(outcome.timing_report())
    if outcome.mode == "restart":
        mttf_a = facts["mttf_a"]
        print(
            f"E2={facts['e2']:,.1f}s failures={facts['failures']} "
            f"restarts={facts['restarts']} "
            f"MTTF_a={'-' if mttf_a is None else f'{mttf_a:,.1f}s'}"
        )
    else:
        print(f"E1={facts['exit_time']:,.1f}s completed={facts['completed']}")
        if args.record_trace:
            outcome.sim.event_trace.save(args.record_trace)
            print(f"recorded {len(outcome.sim.event_trace)} events to {args.record_trace}")
        if args.replay:
            from repro.check.trace import EventTrace

            reference = EventTrace.load(args.replay)
            divergence = reference.diff(outcome.sim.event_trace)
            if divergence is not None:
                print(divergence.report())
                return 1
            print(f"replay matches {args.replay}: {len(reference)} events, 0 divergences")
    if args.digest:
        print(f"result digest: {outcome.digest()}")
    if scenario.trace_out and outcome.observer is not None:
        from repro.obs import write_export

        count = write_export(
            outcome.observer, scenario.trace_out, include_host=args.trace_host
        )
        print(f"exported {count} events to {scenario.trace_out}")
    if cache is not None:
        if outcome.metadata.get("cache_hit"):
            saved = float(outcome.metadata.get("cache_wall_s") or 0.0)
            print(
                f"cache: hit {str(outcome.metadata.get('cache_key'))[:16]} "
                f"(~{saved:.2f}s of compute served by lookup)"
            )
        elif tracing:
            print("cache: bypassed (event-trace recording is not cacheable)")
        else:
            print("cache: miss (stored for the next identical run)")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.core.harness.report import format_table
    from repro.run.sweep import parse_set, run_sweep

    base, grid = _resolve_scenario(args)
    for axis in args.set or []:
        name, values = parse_set(axis)
        grid[name] = values
    if not grid:
        print(
            "error: nothing to sweep; pass --set field=v1,v2 or a "
            "[sweep] table in the scenario file",
            file=sys.stderr,
        )
        return 2
    cache = _cache_from_args(args)
    pairs = run_sweep(base, grid, cache=cache if cache is not None else False)
    axes = list(grid)
    cache_on = cache is not None
    header = axes + ["mode", "completed", "time", "failures", "restarts", "digest"]
    if cache_on:
        # Last column so tooling that diffs cold-vs-warm tables can strip
        # it (everything to its left is byte-stable across reruns).
        header.append("source")
    rows = []
    for scenario, summary in pairs:
        time_s = summary.get("e2", summary["exit_time"])
        row = (
            tuple(str(getattr(scenario, a)) for a in axes)
            + (
                summary["mode"],
                str(summary["completed"]),
                f"{time_s:,.1f}s",
                str(summary["failures"]),
                str(summary.get("restarts", 0)),
                summary["result_digest"][:12],
            )
        )
        if cache_on:
            row += ("cached" if summary.get("cached") else "computed",)
        rows.append(row)
    print(f"{len(pairs)} scenarios ({' x '.join(axes)}) on backend "
          f"{base.backend_name()}:")
    print(format_table(header, rows))
    if "strategy" in axes:
        from repro.resilience.study import render_strategy_study

        print()
        print("strategy head-to-head (E1 = fault-free, overhead vs none):")
        print(
            render_strategy_study(
                pairs,
                axes=tuple(axes),
                jobs=base.jobs,
                cache=cache if cache is not None else False,
            )
        )
    if cache_on:
        hits = sum(1 for _, s in pairs if s.get("cached"))
        saved = sum(float(s.get("saved_s") or 0.0) for _, s in pairs)
        print(
            f"cache: {hits}/{len(pairs)} cells served from cache "
            f"({hits / len(pairs):.0%} hit rate), ~{saved:.2f}s of compute saved"
        )
    return 0


def _cmd_explore(args: argparse.Namespace) -> int:
    from repro.explore import (
        ExploreSpec,
        load_explore_file,
        read_explore_environment,
        render_scorecard,
        run_explore,
        scorecard_json,
    )

    explore_flags = dict(
        ci_width=args.ci_width,
        batch=args.batch,
        max_cells=args.max_cells,
        seed=args.explore_seed,
    )
    if args.scenario:
        spec = load_explore_file(
            args.scenario,
            scenario_overrides=_scenario_overrides(args),
            **explore_flags,
        )
    else:
        layers = read_explore_environment()
        layers.update({k: v for k, v in explore_flags.items() if v is not None})
        spec = ExploreSpec(
            scenario=Scenario.resolve(**_scenario_overrides(args)), **layers
        )
    cache = _cache_from_args(args)
    observer = None
    if args.campaign_trace_out:
        _check_output_dir(args.campaign_trace_out, "--trace-out")
        from repro.obs import Observer

        observer = Observer()
    result = run_explore(
        spec,
        cache=cache if cache is not None else False,
        jobs=_jobs(args.campaign_jobs),
        observer=observer,
    )
    print(render_scorecard(result), end="")
    if args.out:
        payload = scorecard_json(result)
        with open(args.out, "w") as fh:
            fh.write(payload)
        print(f"wrote scorecard to {args.out} ({len(payload)} bytes)")
    if observer is not None:
        from repro.obs import write_export

        count = write_export(observer, args.campaign_trace_out, include_host=True)
        print(f"exported {count} events to {args.campaign_trace_out}")
    if cache is not None:
        # + one fault-free baseline cell per campaign
        total = result.spent + getattr(result, "baselines", 1)
        print(
            f"cache: {result.cache_hits}/{total} cells served from cache "
            f"({result.cache_hits / total:.0%} hit rate), "
            f"~{result.cache_saved_s:.2f}s of compute saved"
        )
    return 0


def _cmd_timeline(args: argparse.Namespace) -> int:
    from repro.obs import TimelineReport, load_events

    events = load_events(args.trace)
    report = TimelineReport(events)
    print(report.render(max_rows=args.rows), end="")
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    from repro.core.faults.finject import FinjectCampaign
    from repro.core.harness.report import format_table

    jobs = _jobs(args.jobs)
    independent = args.independent_streams or jobs > 1
    if independent and not args.independent_streams:
        print(
            f"note: -j {jobs} implies independent per-victim RNG streams; "
            "statistics differ from the calibrated single-stream draw"
        )
    campaign = FinjectCampaign(
        victims=args.victims,
        max_injections=args.max_injections,
        seed=FinjectCampaign.seed if args.seed is None else args.seed,
        independent_streams=independent,
        jobs=jobs,
    )
    result = campaign.run()
    rows = [(f, v, d) for f, v, d in result.table_rows()]
    print(format_table(["Field", "Value", "Description"], rows))
    return 0


def _cmd_table2(args: argparse.Namespace) -> int:
    from repro.run.table2 import render_table2, run_table2

    cells = run_table2(ranks=args.ranks, seed=args.seed, jobs=_jobs(args.jobs))
    print(f"Table II reproduction at {args.ranks} simulated ranks "
          f"(paper columns measured at 32,768):")
    print(render_table2(cells))
    return 0


def _cmd_arch(args: argparse.Namespace) -> int:
    from repro.core.simulator import XSim

    scenario, _ = _resolve_scenario(args)
    print(XSim.from_scenario(scenario).render_architecture())
    return 0


def _cmd_cache_stats(args: argparse.Namespace) -> int:
    from repro.cache import open_cache
    from repro.util.units import format_size

    cache = open_cache(args.cache_dir)
    st = cache.index_stats()
    print(f"result cache at {st['root']}")
    if st["disabled"]:
        print(f"  disabled: {st['disabled']}")
        return 1
    modes = ", ".join(f"{n} {m}" for m, n in sorted(st["modes"].items())) or "empty"
    print(f"  entries:  {st['entries']:,} ({modes})")
    print(f"  size:     {format_size(st['bytes'])} in entries, "
          f"{format_size(st['file_bytes'])} on disk (index.sqlite3 + WAL)")
    print(f"  hits:     {st['hits']:,} lifetime "
          f"(~{st['saved_s']:,.1f}s of compute served by lookup)")
    print(f"  salt:     {st['salt']}")
    return 0


def _cmd_cache_verify(args: argparse.Namespace) -> int:
    from repro.cache import open_cache

    cache = open_cache(args.cache_dir)
    if cache.disabled_reason:
        print(f"error: {cache.disabled_reason}", file=sys.stderr)
        return 1
    total = cache.index_stats()["entries"]
    issues = cache.verify(prune=args.prune)
    if not issues:
        print(f"verified {total:,} entries: all servable")
        return 0
    for issue in issues:
        action = "pruned" if args.prune else "unservable"
        print(f"{issue.key[:16]} {action}: {issue.problem}")
    print(f"{len(issues)}/{total} entries "
          f"{'pruned' if args.prune else 'unservable (re-run with --prune to delete)'}")
    return 0 if args.prune else 1


def _cmd_cache_gc(args: argparse.Namespace) -> int:
    from repro.cache import open_cache
    from repro.util.units import format_size, parse_size, parse_time

    if args.max_bytes is None and args.max_age is None:
        print("error: pass --max-bytes and/or --max-age", file=sys.stderr)
        return 2
    cache = open_cache(args.cache_dir)
    if cache.disabled_reason:
        print(f"error: {cache.disabled_reason}", file=sys.stderr)
        return 1
    max_bytes = None if args.max_bytes is None else parse_size(args.max_bytes)
    max_age = None if args.max_age is None else parse_time(args.max_age)
    res = cache.gc(max_bytes=max_bytes, max_age=max_age)
    by_age = sum(1 for _, reason in res.removed if reason == "age")
    by_bytes = len(res.removed) - by_age
    print(
        f"evicted {len(res.removed)} entries ({format_size(res.freed_bytes)} freed: "
        f"{by_age} by age, {by_bytes} by size); "
        f"kept {res.kept} ({format_size(res.kept_bytes)})"
    )
    return 0


def _cmd_simcheck(args: argparse.Namespace) -> int:
    from repro.check.differential import run_all

    results = run_all(jobs=args.jobs, artifacts_dir=args.artifacts, only=args.only)
    for r in results:
        print(r)
    failed = [r for r in results if not r.passed]
    if failed:
        where = f"; artifacts in {args.artifacts}" if args.artifacts else ""
        print(f"{len(failed)}/{len(results)} differential checks FAILED{where}")
        return 1
    print(f"all {len(results)} differential checks passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the ``xsim-run`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="xsim-run",
        description="xsim-resilience: performance/resilience co-design simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_app = sub.add_parser("app", help="run a simulated application")
    _add_field_flags(p_app, _MACHINE + _WORKLOAD + _FAULTS)
    p_app.add_argument("--scenario", metavar="FILE", default=None, help=_SCENARIO_HELP)
    p_app.add_argument(
        "--record-trace",
        metavar="FILE",
        default="",
        help="save the event-dispatch trace of a single run to FILE",
    )
    p_app.add_argument(
        "--replay",
        metavar="FILE",
        default="",
        help="re-run and diff against a trace saved with --record-trace; "
        "exit 1 at the first divergence",
    )
    p_app.add_argument(
        "--digest",
        action="store_true",
        help="print the canonical result digest (bit-identical across "
        "backends for the same scenario)",
    )
    _add_field_flags(p_app, ("trace_out", "trace_detail"))
    p_app.add_argument(
        "--trace-host",
        action="store_true",
        help="include host-domain (wall clock) events in --trace-out; these "
        "are nondeterministic, so exports are no longer byte-comparable",
    )
    _add_cache_args(p_app)
    p_app.set_defaults(fn=_cmd_app)

    p_sw = sub.add_parser(
        "sweep",
        help="expand a scenario matrix (cartesian parameter grid) into a "
        "campaign of independent runs",
    )
    _add_field_flags(p_sw, _MACHINE + _WORKLOAD + _FAULTS)
    p_sw.add_argument("--scenario", metavar="FILE", default=None, help=_SCENARIO_HELP)
    p_sw.add_argument(
        "--set",
        action="append",
        metavar="FIELD=V1,V2",
        help="sweep axis, e.g. --set interval=500,250 --set mttf=6000,3000; "
        "repeatable, combined cartesian with any [sweep] table in the "
        "scenario file",
    )
    _add_field_flags(p_sw, ("jobs",))
    _add_cache_args(p_sw)
    p_sw.set_defaults(fn=_cmd_sweep)

    p_ex = sub.add_parser(
        "explore",
        help="adaptive fault-space exploration: stratified sampling over "
        "(kind x rank x time x magnitude) with CI-driven stopping, "
        "emitting a deterministic resilience scorecard",
    )
    _add_field_flags(p_ex, _MACHINE + _WORKLOAD, helps={
        "strategy": "resilience strategy under test (default {default}); "
        "the [explore] table's strategies list sweeps several",
    })
    p_ex.add_argument(
        "--scenario",
        metavar="FILE",
        default=None,
        help="scenario TOML file; its [explore] table configures the "
        "campaign (kinds, bins, stopping rule)",
    )
    p_ex.add_argument(
        "--ci-width",
        type=float,
        default=None,
        help="stop when every stratum's Wilson half-width is within this "
        "(default 0.15; also XSIM_EXPLORE_CI)",
    )
    p_ex.add_argument(
        "--batch",
        type=int,
        default=None,
        help="cells per refinement batch (default 16; also XSIM_EXPLORE_BATCH)",
    )
    p_ex.add_argument(
        "--max-cells",
        type=int,
        default=None,
        help="simulation budget (default 1024; also XSIM_EXPLORE_MAX_CELLS)",
    )
    p_ex.add_argument(
        "--explore-seed",
        type=int,
        default=None,
        help="sampler root seed (independent of the scenario seed; default 0)",
    )
    p_ex.add_argument(
        "--out",
        metavar="FILE",
        default="",
        help="also write the scorecard as canonical JSON (byte-identical "
        "across reruns of the same spec)",
    )
    # The campaign's own settings, not fields of its cells: a cell
    # resolves as it does without them.
    p_ex.add_argument(
        "--trace-out",
        dest="campaign_trace_out",
        metavar="FILE",
        default="",
        help="export the campaign's host-domain timeline (one instant per "
        "batch: cells, budget spent, widest CI)",
    )
    p_ex.add_argument(
        "-j",
        "--jobs",
        dest="campaign_jobs",
        metavar="JOBS",
        type=int,
        default=None,
        help="worker processes for each batch (default: XSIM_JOBS or 1); "
        "the scorecard is identical at any -j",
    )
    _add_cache_args(p_ex)
    p_ex.set_defaults(fn=_cmd_explore)

    p_tl = sub.add_parser(
        "timeline", help="summarize an exported observability trace "
        "(per-rank detection latencies, resilience sequence)"
    )
    p_tl.add_argument("trace", help="file written by xsim-run app --trace-out")
    p_tl.add_argument(
        "--rows",
        type=int,
        default=0,
        metavar="N",
        help="also print the first N rows of the joined timeline",
    )
    p_tl.set_defaults(fn=_cmd_timeline)

    p_t1 = sub.add_parser("table1", help="Finject bit-flip campaign (paper Table I)")
    p_t1.add_argument("--victims", type=int, default=100)
    p_t1.add_argument("--max-injections", type=int, default=100)
    # None = FinjectCampaign's calibrated seed (read where the campaign is
    # imported, not here: building the parser loads no simulator).
    p_t1.add_argument("--seed", type=int, default=None)
    _add_jobs_arg(p_t1)
    p_t1.add_argument(
        "--independent-streams",
        action="store_true",
        help="one RNG sub-stream per victim (order-independent; implied by -j > 1)",
    )
    p_t1.set_defaults(fn=_cmd_table1)

    p_t2 = sub.add_parser("table2", help="checkpoint interval x MTTF sweep (paper Table II)")
    p_t2.add_argument("--ranks", type=int, default=512)
    p_t2.add_argument("--seed", type=int, default=0)
    _add_jobs_arg(p_t2)
    p_t2.set_defaults(fn=_cmd_table2)

    p_arch = sub.add_parser("arch", help="architecture self-description (paper Figure 1)")
    _add_field_flags(p_arch, _MACHINE)
    p_arch.add_argument(
        "--scenario",
        metavar="FILE",
        default=None,
        help="describe the machine/backend a scenario TOML file resolves to",
    )
    p_arch.set_defaults(fn=_cmd_arch)

    p_cache = sub.add_parser(
        "cache",
        help="inspect and maintain the content-addressed result cache "
        "(stats, verify, gc)",
    )
    cache_sub = p_cache.add_subparsers(dest="cache_command", required=True)

    def _cache_dir_arg(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--cache-dir",
            metavar="DIR",
            default=None,
            help="cache directory (default: XSIM_CACHE_DIR or ~/.cache/xsim)",
        )

    p_cs = cache_sub.add_parser("stats", help="entry count, size, lifetime hit totals")
    _cache_dir_arg(p_cs)
    p_cs.set_defaults(fn=_cmd_cache_stats)

    p_cv = cache_sub.add_parser(
        "verify",
        help="audit every entry (blob present, decodable, digest matches "
        "the index); exit 1 when any entry is unservable",
    )
    _cache_dir_arg(p_cv)
    p_cv.add_argument(
        "--prune", action="store_true", help="delete the entries that fail the audit"
    )
    p_cv.set_defaults(fn=_cmd_cache_verify)

    p_cg = cache_sub.add_parser(
        "gc",
        help="evict entries: everything idle longer than --max-age first, "
        "then least-recently-hit entries until under --max-bytes",
    )
    _cache_dir_arg(p_cg)
    p_cg.add_argument(
        "--max-bytes",
        metavar="SIZE",
        default=None,
        help='target cache size with unit suffix, e.g. "256MB" or "1GB"',
    )
    p_cg.add_argument(
        "--max-age",
        metavar="TIME",
        default=None,
        help='evict entries whose last hit is older than this, e.g. "7d", "12h"',
    )
    p_cg.set_defaults(fn=_cmd_cache_gc)

    p_chk = sub.add_parser(
        "simcheck", help="differential determinism harness (serial vs pool, "
        "coalescing on/off, trace replay, collective modes)"
    )
    p_chk.add_argument(
        "-j",
        "--jobs",
        type=int,
        default=4,
        help="pool width for the parallel-vs-serial checks (>= 2; default 4)",
    )
    p_chk.add_argument(
        "--artifacts",
        metavar="DIR",
        default=None,
        help="write divergence reports/traces here when a check fails",
    )
    p_chk.add_argument(
        "--only",
        metavar="NAME",
        default=None,
        help="run a single named check (e.g. sharded-parity, obs-parity)",
    )
    p_chk.set_defaults(fn=_cmd_simcheck)

    return parser


def _warning_line(message, category, filename, lineno, line=None) -> str:
    return f"warning: {message}\n"


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit code.  A configuration
    problem anywhere — an ``XSIM_*`` value, scenario resolution, a
    command's own argument checks — is one ``error:`` line on stderr
    and exit status 2, never a traceback.  A warning (an unusable cache
    directory, a damaged entry recomputed) is one ``warning:`` line, not
    the source line that raised it."""
    formatwarning, warnings.formatwarning = warnings.formatwarning, _warning_line
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        warnings.formatwarning = formatwarning


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
