"""Shared utilities for the xsim-resilience toolkit.

This package holds small, dependency-free helpers used across the
simulator: unit parsing/formatting (:mod:`repro.util.units`), descriptive
statistics in the shape xSim and Finject report them
(:mod:`repro.util.stats`), deterministic named random-number streams
(:mod:`repro.util.rng`), and the toolkit exception hierarchy
(:mod:`repro.util.errors`).
"""

from repro.util.lazy import lazy_exports

#: Public name -> defining module (imported on first use).
_EXPORTS = {
    "CheckpointError": "repro.util.errors",
    "ConfigurationError": "repro.util.errors",
    "DeadlockError": "repro.util.errors",
    "RngStreams": "repro.util.rng",
    "SimulationError": "repro.util.errors",
    "SummaryStats": "repro.util.stats",
    "XsimError": "repro.util.errors",
    "format_size": "repro.util.units",
    "format_time": "repro.util.units",
    "parse_size": "repro.util.units",
    "parse_time": "repro.util.units",
    "summarize": "repro.util.stats",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
