"""Stratified adaptive sampling over the fault space.

The explorer runs a batched explore -> simulate -> refine loop:

1. *Stratify* the fault space into (kind x rank-bin x time-bin x
   magnitude-bin) strata.
2. *Seed* every stratum with ``min_samples`` cells, then repeatedly
   allocate each batch greedily to whichever stratum currently has the
   widest Wilson confidence interval on its impact proportion (ties to
   the lowest stratum index).  The allocation policy never looks at the
   stopping target, so a tighter ``ci_width`` replays the identical
   sampling trajectory and simply runs more rounds — stopping is monotone
   in the threshold, and a rerun against a warm result cache replays the
   prefix for free.
3. *Stop* when every stratum's half-width is within ``ci_width`` or the
   ``max_cells`` budget is spent.

Determinism: sampled cell ``i``, in allocation order, draws from child
``i`` of ``SeedSequence(spec.seed)`` (a :class:`~repro.util.rng.Stream`
of spawn key ``(i,)``); no wall-clock or set/dict iteration feeds the
draw.  Two runs with the same spec produce the same cells, and therefore
(cells being deterministic simulations) the same scorecard, byte for byte.

Impact of a cell: the job *died* (did not complete within the restart
budget) or its completion time exceeded the fault-free baseline E1 by
more than ``impact_threshold`` relative.  The per-stratum estimate is the
Wilson score interval on that binary proportion; the continuous
completion-time delta gets a seeded-bootstrap CI alongside.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

from repro.core.faults.schedule import (
    CorrelatedFailure,
    LinkDegradeFault,
    ScheduledFailure,
    StragglerFault,
)
from repro.core.harness.parallel import check_jobs
from repro.explore.spec import ExploreSpec
from repro.run.sweep import run_cells
from repro.util.errors import SimulationError
from repro.util.rng import Stream
from repro.util.stats import quantile, row_means

# ----------------------------------------------------------------------
# confidence-interval machinery
# ----------------------------------------------------------------------

def inverse_normal_cdf(p: float) -> float:
    """Acklam's rational approximation to the standard normal quantile
    (|relative error| < 1.15e-9 — ample for CI z-scores; avoids a scipy
    dependency)."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"quantile needs p in (0, 1), got {p}")
    a = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
         1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
    b = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
         6.680131188771972e+01, -1.328068155288572e+01)
    c = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
         -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
    d = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
         3.754408661907416e+00)
    p_low, p_high = 0.02425, 1 - 0.02425
    if p < p_low:
        q = math.sqrt(-2 * math.log(p))
        return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
               ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1)
    if p > p_high:
        q = math.sqrt(-2 * math.log(1 - p))
        return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
               ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1)
    q = p - 0.5
    r = q * q
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / \
           (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1)


def z_score(confidence: float) -> float:
    """Two-sided z for a confidence level (0.95 -> ~1.96)."""
    return inverse_normal_cdf(0.5 + confidence / 2.0)


def wilson_interval(k: int, n: int, z: float) -> tuple[float, float]:
    """Wilson score interval for ``k`` successes in ``n`` trials.
    ``n == 0`` returns the maximally uncertain (0, 1)."""
    if n == 0:
        return (0.0, 1.0)
    p = k / n
    z2 = z * z
    denom = 1.0 + z2 / n
    center = (p + z2 / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z2 / (4 * n * n)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


def wilson_halfwidth(k: int, n: int, z: float) -> float:
    """Half the Wilson interval width (0.5 for the empty stratum)."""
    lo, hi = wilson_interval(k, n, z)
    return (hi - lo) / 2.0


def projected_halfwidth(p: float, n: int, z: float) -> float:
    """Wilson half-width a stratum *would* have after ``n`` samples if its
    impact proportion held at ``p`` (fractional successes allowed — this
    is the allocator's projection, not an observed interval)."""
    if n == 0:
        return 0.5
    z2 = z * z
    denom = 1.0 + z2 / n
    return z * math.sqrt(p * (1 - p) / n + z2 / (4 * n * n)) / denom


def bootstrap_mean_ci(
    values: list[float], seed_material: tuple[int, ...], nboot: int = 200,
    lo_q: float = 0.025, hi_q: float = 0.975,
) -> tuple[float, float]:
    """Seeded percentile-bootstrap CI on the mean of ``values``.

    The seed derives only from ``seed_material`` (spec seed + stratum
    index), never from how many batches it took to collect the values —
    so the reported CI is stable under resumption.  Its resample, means and
    quantiles are numpy's ``default_rng(SeedSequence(seed_material))``'s."""
    if not values:
        return (0.0, 0.0)
    if len(values) == 1:
        return (values[0], values[0])
    n, xs = len(values), [float(v) for v in values]
    idx = Stream(seed_material).indices(n, nboot * n)
    # Column c of the (nboot, n) resample is every n-th index from c.
    means = row_means([[xs[i] for i in idx[c::n]] for c in range(n)])
    return (quantile(means, lo_q), quantile(means, hi_q))


def required_n(p: float, z: float, target_halfwidth: float, cap: int = 1 << 20) -> int:
    """Smallest sample count whose Wilson half-width at proportion ``p``
    is within ``target_halfwidth`` (the per-stratum cost of a uniform
    grid that guarantees the same CI everywhere)."""
    k_of = lambda n: int(round(p * n))  # noqa: E731 - local helper
    lo, hi = 1, 1
    while wilson_halfwidth(k_of(hi), hi, z) > target_halfwidth:
        hi *= 2
        if hi >= cap:
            return cap
    while lo < hi:
        mid = (lo + hi) // 2
        if wilson_halfwidth(k_of(mid), mid, z) <= target_halfwidth:
            hi = mid
        else:
            lo = mid + 1
    return lo


# ----------------------------------------------------------------------
# strata
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Stratum:
    """One (kind x rank-bin x time-bin x magnitude-bin) cell of the
    stratification.  ``radius`` >= 0 identifies a correlated stratum;
    ``mag_lo/mag_hi`` bound the factor range for straggler/link strata."""

    index: int
    kind: str
    rank_lo: int
    rank_hi: int  # exclusive
    time_lo: float
    time_hi: float
    mag_lo: float = 0.0
    mag_hi: float = 0.0
    radius: int = -1

    def label(self) -> str:
        mag = ""
        if self.kind in ("straggler", "link_degrade"):
            mag = f" x{self.mag_lo:g}-{self.mag_hi:g}"
        elif self.kind == "correlated":
            mag = f" r={self.radius}"
        return (
            f"{self.kind} ranks[{self.rank_lo},{self.rank_hi}) "
            f"t[{self.time_lo:.4g},{self.time_hi:.4g}){mag}"
        )


def build_strata(spec: ExploreSpec, time_hi: float) -> list[Stratum]:
    """The deterministic stratification: kinds in spec order, rank bins
    outermost, then time bins, then magnitude bins."""
    nranks = spec.scenario.ranks
    strata: list[Stratum] = []
    t_lo, t_span = spec.time_lo, time_hi - spec.time_lo
    for kind in spec.kinds:
        if kind == "failstop":
            mags: list[tuple[float, float, int]] = [(0.0, 0.0, -1)]
        elif kind == "correlated":
            mags = [(0.0, 0.0, r) for r in spec.radii]
        else:
            lo, hi = spec.straggler_factor if kind == "straggler" else spec.link_factor
            step = (hi - lo) / spec.magnitude_bins
            mags = [
                (lo + i * step, hi if i == spec.magnitude_bins - 1 else lo + (i + 1) * step, -1)
                for i in range(spec.magnitude_bins)
            ]
        for rb in range(spec.rank_bins):
            r_lo = rb * nranks // spec.rank_bins
            r_hi = (rb + 1) * nranks // spec.rank_bins
            if r_hi <= r_lo:
                continue
            for tb in range(spec.time_bins):
                s_lo = t_lo + tb * t_span / spec.time_bins
                s_hi = t_lo + (tb + 1) * t_span / spec.time_bins
                for mag_lo, mag_hi, radius in mags:
                    strata.append(
                        Stratum(
                            index=len(strata), kind=kind,
                            rank_lo=r_lo, rank_hi=r_hi,
                            time_lo=s_lo, time_hi=s_hi,
                            mag_lo=mag_lo, mag_hi=mag_hi, radius=radius,
                        )
                    )
    return strata


def draw_cell(
    spec: ExploreSpec,
    stratum: Stratum,
    network,
    e1: float,
    rng: Stream,
) -> str:
    """Sample one concrete fault from a stratum: the cell's ``failures``
    string.  Consumption order of ``rng`` is fixed per kind."""
    rank = int(rng.integers(stratum.rank_lo, stratum.rank_hi))
    time = stratum.time_lo + (stratum.time_hi - stratum.time_lo) * float(rng.random())
    if stratum.kind == "failstop":
        return ScheduledFailure(rank, time).render()
    if stratum.kind == "correlated":
        return CorrelatedFailure(rank, time, stratum.radius, spec.spread).render()
    factor = stratum.mag_lo + (stratum.mag_hi - stratum.mag_lo) * float(rng.random())
    duration = spec.straggler_duration_frac * e1
    if stratum.kind == "straggler":
        return StragglerFault(rank, time, factor, duration).render()
    # link_degrade: partner = a rank one topology hop away (the links the
    # app's halo traffic actually crosses), drawn uniformly.
    node = network.node_of(rank)
    rpn = network.ranks_per_node
    candidates = sorted(
        n * rpn
        for n in network.topology.neighbors(node)
        if n * rpn < spec.scenario.ranks and n * rpn != rank
    )
    if not candidates:
        partner = (rank + 1) % spec.scenario.ranks
    else:
        partner = candidates[int(rng.integers(len(candidates)))]
    return LinkDegradeFault(rank, partner, time, factor, duration).render()


# ----------------------------------------------------------------------
# the explorer
# ----------------------------------------------------------------------

@dataclass
class StratumState:
    """Mutable tallies of one stratum during exploration."""

    stratum: Stratum
    n: int = 0
    impacted: int = 0
    deltas: list[float] = field(default_factory=list)
    e2s: list[float] = field(default_factory=list)
    mttfs: list[float] = field(default_factory=list)
    died: int = 0


@dataclass
class ExploreResult:
    """Everything one exploration produced (see
    :func:`repro.explore.report.scorecard` for the deterministic export)."""

    spec: ExploreSpec
    z: float
    e1: float
    baseline_digest: str
    time_hi: float
    strata: list[StratumState]
    batches: list[dict[str, Any]]
    spent: int
    stopped: str
    #: Execution facts, never part of the scorecard bytes: cache hits and
    #: wall time saved on this invocation.
    cache_hits: int = 0
    cache_saved_s: float = 0.0

    @property
    def grid_cells(self) -> int:
        """Cell count of the uniform grid that would guarantee the same
        half-width everywhere: every stratum sized for the *worst* one
        (a fixed grid cannot allocate adaptively)."""
        worst = max(
            required_n(
                (s.impacted / s.n) if s.n else 0.5, self.z, self.spec.ci_width
            )
            for s in self.strata
        )
        return worst * len(self.strata)

    @property
    def cells_ratio(self) -> float:
        """Adaptive cells spent / equivalent-grid cells (< 1 = saved)."""
        grid = self.grid_cells
        return self.spent / grid if grid else math.inf


class Explorer:
    """One adaptive exploration campaign (see module docstring)."""

    def __init__(
        self,
        spec: ExploreSpec,
        cache: Any = None,
        jobs: int = 1,
        observer: Any = None,
    ):
        self.spec = spec
        self.cache = cache
        check_jobs(jobs)  # before the baseline cell runs
        self.jobs = jobs
        self.observer = observer
        self.z = z_score(spec.confidence)

    # -- internals -----------------------------------------------------
    def _measure_baseline(self) -> dict[str, Any]:
        summary = run_cells([self.spec.scenario], jobs=1, cache=self.cache)[0]
        if not summary["completed"]:
            raise SimulationError(
                "the fault-free base scenario did not complete; an "
                "exploration needs a healthy baseline E1"
            )
        return summary

    def _allocate(self, states: list[StratumState], budget: int) -> list[int]:
        """Stratum index per cell of the next batch.

        Seeding round (all-empty strata): ``min_samples`` each.  After
        that: greedy minimax — each cell goes to the stratum with the
        widest *projected* half-width (current p, projected n), ties to
        the lowest index.  Deliberately independent of ``ci_width`` so
        stopping is monotone in the threshold.
        """
        spec = self.spec
        if all(s.n == 0 for s in states):
            alloc = [s.stratum.index for s in states for _ in range(spec.min_samples)]
            return alloc[:budget]
        # A stratum the truncated seeding round never reached projects at
        # the maximally uncertain p = 0.5, i.e. highest priority.
        probs = [s.impacted / s.n if s.n else 0.5 for s in states]
        counts = [s.n for s in states]
        widths = [projected_halfwidth(p, n, self.z) for p, n in zip(probs, counts)]
        alloc: list[int] = []
        for _ in range(min(spec.batch, budget)):
            # Only the picked stratum's projection moves; index() finds
            # the first of the widest, so ties go to the lowest index.
            pick = widths.index(max(widths))
            counts[pick] += 1
            widths[pick] = projected_halfwidth(probs[pick], counts[pick], self.z)
            alloc.append(pick)
        return alloc

    # -- driver --------------------------------------------------------
    def run(self) -> ExploreResult:
        spec = self.spec
        base_summary = self._measure_baseline()
        e1 = float(base_summary["exit_time"])
        cache_hits = 1 if base_summary.get("cached") else 0
        cache_saved = float(base_summary.get("saved_s", 0.0))
        time_hi = spec.time_hi if spec.time_hi is not None else e1
        network = spec.scenario.system_config().make_network()
        states = [StratumState(s) for s in build_strata(spec, time_hi)]
        batches: list[dict[str, Any]] = []
        spent = 0
        stopped = "max-cells"
        while True:
            widths = [wilson_halfwidth(s.impacted, s.n, self.z) for s in states]
            if spent > 0 and max(widths) <= spec.ci_width:
                stopped = "ci-target"
                break
            if spent >= spec.max_cells:
                stopped = "max-cells"
                break
            alloc = self._allocate(states, spec.max_cells - spent)
            if not alloc:
                stopped = "max-cells"
                break
            cells = [
                (s_idx, draw_cell(spec, states[s_idx].stratum, network, e1,
                                  Stream(spec.seed, (spent + i,))))
                for i, s_idx in enumerate(alloc)
            ]
            scenarios = [
                spec.scenario.with_(failures=failures) for _, failures in cells
            ]
            summaries = run_cells(scenarios, jobs=self.jobs, cache=self.cache)
            for (s_idx, _), summary in zip(cells, summaries):
                state = states[s_idx]
                t_done = float(summary.get("e2", summary["exit_time"]))
                delta = (t_done - e1) / e1
                completed = bool(summary["completed"])
                state.n += 1
                state.deltas.append(delta)
                state.e2s.append(t_done)
                if not completed:
                    state.died += 1
                if not completed or delta > spec.impact_threshold:
                    state.impacted += 1
                mttf_a = summary.get("mttf_a")
                if mttf_a is not None and math.isfinite(mttf_a):
                    state.mttfs.append(float(mttf_a))
                if summary.get("cached"):
                    cache_hits += 1
                    cache_saved += float(summary.get("saved_s", 0.0))
            spent += len(cells)
            batches.append(
                {
                    "index": len(batches),
                    "cells": len(cells),
                    "spent": spent,
                    "max_halfwidth": max(
                        wilson_halfwidth(s.impacted, s.n, self.z) for s in states
                    ),
                }
            )
            if self.observer is not None:
                import time as _time

                self.observer.host_instant(
                    _time.perf_counter(),
                    "explore-batch",
                    track="explore",
                    args={
                        "batch": batches[-1]["index"],
                        "cells": batches[-1]["cells"],
                        "spent": spent,
                        "max_halfwidth": batches[-1]["max_halfwidth"],
                    },
                )
        return ExploreResult(
            spec=spec,
            z=self.z,
            e1=e1,
            baseline_digest=base_summary["result_digest"],
            time_hi=time_hi,
            strata=states,
            batches=batches,
            spent=spent,
            stopped=stopped,
            cache_hits=cache_hits,
            cache_saved_s=cache_saved,
        )


@dataclass
class StrategyExploreResult:
    """Rollup of one exploration per resilience strategy (the spec's
    ``strategies`` list).  Every campaign uses the same root seed, hence
    identical fault draws per stratum — the per-strategy scorecards are
    directly comparable."""

    spec: ExploreSpec
    #: ``(strategy name, result)`` in the spec's ``strategies`` order.
    results: tuple[tuple[str, ExploreResult], ...]

    @property
    def baselines(self) -> int:
        return len(self.results)

    @property
    def spent(self) -> int:
        return sum(r.spent for _, r in self.results)

    @property
    def cache_hits(self) -> int:
        return sum(r.cache_hits for _, r in self.results)

    @property
    def cache_saved_s(self) -> float:
        return sum(r.cache_saved_s for _, r in self.results)


def run_explore(
    spec: ExploreSpec,
    cache: Any = None,
    jobs: int = 1,
    observer: Any = None,
) -> "ExploreResult | StrategyExploreResult":
    """Run one adaptive exploration campaign end to end.  A spec with a
    ``strategies`` list runs one full campaign per strategy (same fault
    draws) and returns the :class:`StrategyExploreResult` rollup."""
    if not spec.strategies:
        return Explorer(spec, cache=cache, jobs=jobs, observer=observer).run()
    results = []
    for name in spec.strategies:
        # The base scenario's params only apply to its own strategy;
        # every other one runs at its defaults.
        params = spec.scenario.strategy_params if name == spec.scenario.strategy else ()
        sub = spec.with_(
            strategies=(),
            scenario=spec.scenario.with_(strategy=name, strategy_params=params),
        )
        results.append(
            (name, Explorer(sub, cache=cache, jobs=jobs, observer=observer).run())
        )
    return StrategyExploreResult(spec=spec, results=tuple(results))
