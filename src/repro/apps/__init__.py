"""Simulated MPI applications.

* :mod:`repro.apps.heat3d` — the paper's target application: an iterative
  3-D heat-equation solver with cube domain decomposition, periodic halo
  exchanges, and application-level checkpoint/restart.  Runs in *modeled*
  mode (computation is pure virtual time; the Table II configuration) or
  *real-data* mode (actual numpy stencil updates carried through the
  simulated messages, validated against a serial reference).
* :mod:`repro.apps.cg` — a Mantevo-style conjugate-gradient proxy whose
  per-iteration allreduces give the opposite communication profile
  (collective/latency-bound; validated against a serial solve).
* :mod:`repro.apps.collective_bench` — collective-operation sweep app.
* :mod:`repro.apps.naive_cr` — a minimal compute/checkpoint loop with an
  analytically known optimum (Daly validation).
"""

from repro.apps.cg import CgConfig, cg
from repro.apps.heat3d import HeatConfig, heat3d

__all__ = [
    "CgConfig",
    "HeatConfig",
    "cg",
    "heat3d",
]
