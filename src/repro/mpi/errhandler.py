"""MPI error handlers and the error delivered to applications.

Paper §IV-D: "Once the simulated MPI layer detects a process failure,
MPI_Abort() is invoked if the error handler of the particular communicator
is set to the default value of MPI_ERRORS_ARE_FATAL.  Note that xSim does
support other error handlers, such as MPI_ERRORS_RETURN and user-defined
error handlers."

This reproduction delivers ``MPI_ERRORS_RETURN`` (and user handlers that
return) Pythonically: the failing call raises :class:`MpiError`, which the
application catches — the idiom ULFM-style recovery code uses in
:mod:`repro.mpi.ulfm` and ``examples/ulfm_recovery.py``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.mpi.constants import error_name

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from repro.mpi.communicator import Communicator


class MpiError(Exception):
    """An MPI call failed and the error handler allowed it to return."""

    def __init__(self, code: int, message: str, failed_rank: int | None = None):
        self.code = code
        #: World rank of the failed peer when the error class is
        #: ``MPI_ERR_PROC_FAILED``; otherwise ``None``.
        self.failed_rank = failed_rank
        super().__init__(f"{error_name(code)}: {message}")


class _FatalHandler:
    """Sentinel for the default ``MPI_ERRORS_ARE_FATAL`` handler."""

    def __repr__(self) -> str:
        return "MPI_ERRORS_ARE_FATAL"

    def __reduce__(self):
        # Pickle to the module-global name so the sharded engine's shm
        # transport (and checkpoint stores) round-trip the sentinel to the
        # *same* object — handler dispatch compares with ``is``.
        return "ERRORS_ARE_FATAL"


class _ReturnHandler:
    """Sentinel for ``MPI_ERRORS_RETURN``."""

    def __repr__(self) -> str:
        return "MPI_ERRORS_RETURN"

    def __reduce__(self):
        return "ERRORS_RETURN"


#: Default: any MPI error triggers a simulated ``MPI_Abort``.
ERRORS_ARE_FATAL = _FatalHandler()
#: Errors are raised to the application as :class:`MpiError`.
ERRORS_RETURN = _ReturnHandler()

#: A user-defined handler: called with ``(comm, error)``.  If it returns
#: normally the error is then raised to the application like
#: ``MPI_ERRORS_RETURN``; the handler may itself raise (or call
#: ``mpi.abort()`` from application context before re-raising).
UserHandler = Callable[["Communicator", MpiError], None]

Errhandler = _FatalHandler | _ReturnHandler | UserHandler
