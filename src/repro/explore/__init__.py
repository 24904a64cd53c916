"""Adaptive fault-space exploration (``xsim-run explore``).

Instead of sweeping a fixed fault grid, :class:`Explorer` stratifies the
(kind x rank x time x magnitude) fault space, seeds every stratum, and
then steers each simulation batch at whichever stratum's impact estimate
is still the least certain — stopping when every Wilson interval is
tighter than the requested width.  Cells run through the same
:func:`~repro.run.sweep.run_cells` core as sweeps, so the result cache
memoises them and a rerun (or a tightened CI target, which replays the
identical allocation prefix) is nearly free.
"""

from repro.explore.report import render_scorecard, scorecard, scorecard_json
from repro.explore.sampler import (
    ExploreResult,
    Explorer,
    StrategyExploreResult,
    Stratum,
    StratumState,
    build_strata,
    run_explore,
    wilson_halfwidth,
    wilson_interval,
    z_score,
)
from repro.explore.spec import KINDS, ExploreSpec, load_explore_file

__all__ = [
    "KINDS",
    "ExploreResult",
    "ExploreSpec",
    "Explorer",
    "Stratum",
    "StrategyExploreResult",
    "StratumState",
    "build_strata",
    "load_explore_file",
    "render_scorecard",
    "run_explore",
    "scorecard",
    "scorecard_json",
    "wilson_halfwidth",
    "wilson_interval",
    "z_score",
]
