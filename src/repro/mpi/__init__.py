"""Simulated MPI layer.

xSim is "designed like a traditional performance tool, as an interposition
library that sits between the MPI application and the MPI layer".  In this
reproduction the application is a Python coroutine and the interposition
library is this package: a full simulated MPI with point-to-point matching
semantics (tags, ``MPI_ANY_SOURCE``/``MPI_ANY_TAG``, non-overtaking order),
eager and rendezvous protocols, nonblocking requests, linear-algorithm
collectives (the paper's configuration) plus tree variants, communicator
management, MPI error handlers, ``MPI_Abort``, and the ULFM user-level
failure mitigation extension the paper lists as recently added.

Applications receive a per-rank :class:`~repro.mpi.api.MpiApi` facade and
issue calls with ``yield from`` (every call is a simulator control point):

    def app(mpi):
        yield from mpi.init()
        if mpi.rank == 0:
            yield from mpi.send(1, nbytes=8, tag=1)
        elif mpi.rank == 1:
            msg = yield from mpi.recv(0, tag=1)
        yield from mpi.barrier()
        yield from mpi.finalize()

Failure semantics follow paper §IV-C: failure detection is based on
simulated network communication timeouts; blocked requests involving a
failed peer are released and failed; later requests fail from the per-rank
failed-process list; the default ``MPI_ERRORS_ARE_FATAL`` handler turns any
such error into a simulated ``MPI_Abort``.
"""

from repro.util.lazy import lazy_exports

#: Public name -> defining module (imported on first use).
_EXPORTS = {
    "ANY_SOURCE": "repro.mpi.constants",
    "ANY_TAG": "repro.mpi.constants",
    "BYTE": "repro.mpi.datatypes",
    "Communicator": "repro.mpi.communicator",
    "DOUBLE": "repro.mpi.datatypes",
    "Datatype": "repro.mpi.datatypes",
    "ERRORS_ARE_FATAL": "repro.mpi.errhandler",
    "ERRORS_RETURN": "repro.mpi.errhandler",
    "ERR_ABORT": "repro.mpi.constants",
    "ERR_PROC_FAILED": "repro.mpi.constants",
    "ERR_REVOKED": "repro.mpi.constants",
    "FLOAT": "repro.mpi.datatypes",
    "Group": "repro.mpi.group",
    "INT": "repro.mpi.datatypes",
    "MpiApi": "repro.mpi.api",
    "MpiError": "repro.mpi.errhandler",
    "MpiWorld": "repro.mpi.world",
    "PROC_NULL": "repro.mpi.constants",
    "SUCCESS": "repro.mpi.constants",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
