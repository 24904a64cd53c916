"""Application-level checkpoint/restart support.

* :mod:`repro.core.checkpoint.store` — the simulated parallel-file-system
  namespace holding per-rank checkpoint files with the three states the
  paper's failure-mode discussion distinguishes: *complete*, *corrupted*
  ("checkpoint file that exists, but misses some information" — a failure
  struck mid-write), and *missing* ("missing checkpoint files due to a
  failure during checkpointing").
* :mod:`repro.core.checkpoint.protocol` — the write/validate/load helpers
  applications use, reproducing the paper's target application protocol
  (write, barrier, delete previous; on restart load the last valid set
  and delete corrupted files).

Daly's optimal checkpoint interval estimates live in
:mod:`repro.check.oracle`, beside the other closed forms.
"""

from repro.core.checkpoint.protocol import CheckpointProtocol
from repro.core.checkpoint.store import CheckpointStore, FileState

__all__ = [
    "CheckpointProtocol",
    "CheckpointStore",
    "FileState",
]
