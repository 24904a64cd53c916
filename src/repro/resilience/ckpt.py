"""Baseline strategies: single-level checkpoint/restart, and none.

``ckpt`` is the paper's Table II discipline verbatim — one
:class:`~repro.core.checkpoint.store.CheckpointStore` modelling the
parallel file system, persisted across restart segments, with the
pre-restart "shell script" cleanup of incomplete sets.  ``none`` keeps no
checkpoints at all: every abort restarts the application from scratch
(the E2 ceiling every other strategy is measured against).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.checkpoint.store import CheckpointStore
from repro.resilience.strategy import ResilienceStrategy, register

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.obs import Observer


@register
class SingleLevelCheckpoint(ResilienceStrategy):
    """Application-level checkpoint/restart against one PFS store."""

    name = "ckpt"

    def begin_run(self) -> None:
        self.store = CheckpointStore()

    def segment_store(self) -> CheckpointStore:
        return self.store

    def result_store(self) -> CheckpointStore:
        return self.store

    def on_abort(
        self, result, nranks: int, check: bool = False,
        observer: "Observer | None" = None,
    ) -> None:
        # "Incomplete checkpoints (missing checkpoint files due to a
        # failure during checkpointing) are deleted using a shell script."
        self.store.cleanup_incomplete(nranks)
        if check:
            # Audit the surviving namespace independently of is_valid:
            # every remaining set must hold exactly ranks 0..nranks-1,
            # all COMPLETE — a regression to subset-match semantics
            # (leftover wide/corrupt sets) is caught here.
            from repro.check.sanitizer import verify_store_cleaned

            verify_store_cleaned(self.store, nranks)

    def facts(self):
        return {"strategy": self.name}


@register
class NoResilience(ResilienceStrategy):
    """No checkpoints: every failure costs a full restart from zero."""

    name = "none"

    def facts(self):
        return {"strategy": self.name}
