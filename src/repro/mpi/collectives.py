"""Simulated MPI collective operations.

Two algorithm families, selected by ``MpiWorld.collective_algorithm``:

* ``"linear"`` — the paper's configuration ("MPI collectives utilize
  linear algorithms"): rooted operations are a flat fan-in/fan-out at the
  root, built literally from simulated point-to-point messages.  At 32,768
  ranks the root's per-message software overheads serialize, which is what
  makes the paper's checkpoint-phase barriers expensive.
* ``"tree"`` — binomial-tree variants (the ablation baseline quantifying
  the paper's linear-algorithm choice).  ``gather``, ``scatter``,
  ``alltoall`` and ``scan`` are linear under either; ``allgather`` is a
  linear gather and the family's bcast.

Every function is a generator to be driven with ``yield from`` inside an
application coroutine; ``comm`` ranks (not world ranks) are used
throughout, with the data-carrying collectives taking/returning payloads
in communicator rank order.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator

from repro.mpi.ops import Op, fold
from repro.util.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.mpi.api import MpiApi
    from repro.mpi.communicator import Communicator

GenOp = Generator[Any, Any, Any]


def _setup(api: "MpiApi", comm: "Communicator") -> tuple[int, int, int]:
    """Per-call (me, size, tag): the tag is the communicator's collective
    sequence number, which SPMD symmetry keeps consistent across members.

    A plain-function dispatcher (:func:`_barrier_dispatch`) takes it at
    the call, a generator dispatcher at its first resume; for a caller
    that drives the collective with ``yield from`` the two are the same
    instant."""
    me = comm.rank_of(api.rank)
    tag = comm.next_collective_seq(api.rank)
    return me, comm.size, tag


# ----------------------------------------------------------------------
# linear algorithms (the paper's configuration)
# ----------------------------------------------------------------------
def _barrier_linear(api: "MpiApi", comm: "Communicator", me: int, size: int, tag: int) -> GenOp:
    if me == 0:
        for r in range(1, size):
            yield from api._coll_recv(comm, r, tag)
        for r in range(1, size):
            yield from api._coll_send(comm, r, tag, None, 0)
    else:
        yield from api._coll_send(comm, 0, tag, None, 0)
        yield from api._coll_recv(comm, 0, tag)


def _bcast_linear(
    api: "MpiApi", comm: "Communicator", me: int, size: int, tag: int, value: Any, nbytes: int, root: int
) -> GenOp:
    if me == root:
        for r in range(size):
            if r != root:
                yield from api._coll_send(comm, r, tag, value, nbytes)
        return value
    msg = yield from api._coll_recv(comm, root, tag)
    return msg.payload


def _reduce_linear(
    api: "MpiApi", comm: "Communicator", me: int, size: int, tag: int, value: Any, nbytes: int, op: Op, root: int
) -> GenOp:
    if me != root:
        yield from api._coll_send(comm, root, tag, value, nbytes)
        return None
    contributions: list[Any] = [None] * size
    contributions[root] = value
    for r in range(size):
        if r != root:
            msg = yield from api._coll_recv(comm, r, tag)
            contributions[r] = msg.payload
    return fold(op, contributions)


def _gather_linear(
    api: "MpiApi", comm: "Communicator", me: int, size: int, tag: int, value: Any, nbytes: int, root: int
) -> GenOp:
    if me != root:
        yield from api._coll_send(comm, root, tag, value, nbytes)
        return None
    out: list[Any] = [None] * size
    out[root] = value
    for r in range(size):
        if r != root:
            msg = yield from api._coll_recv(comm, r, tag)
            out[r] = msg.payload
    return out


def _scatter_linear(
    api: "MpiApi",
    comm: "Communicator",
    me: int,
    size: int,
    tag: int,
    values: list[Any] | None,
    nbytes: int,
    root: int,
) -> GenOp:
    if me == root:
        if values is None or len(values) != size:
            raise ConfigurationError(f"scatter root needs one value per rank ({size})")
        for r in range(size):
            if r != root:
                yield from api._coll_send(comm, r, tag, values[r], nbytes)
        return values[root]
    msg = yield from api._coll_recv(comm, root, tag)
    return msg.payload


def _alltoall_linear(
    api: "MpiApi",
    comm: "Communicator",
    me: int,
    size: int,
    tag: int,
    values: list[Any],
    nbytes: int | list[int],
) -> GenOp:
    if len(values) != size:
        raise ConfigurationError(f"alltoall needs one value per rank ({size})")
    if isinstance(nbytes, list):
        if len(nbytes) != size:
            raise ConfigurationError(f"alltoallv needs one size per rank ({size})")
        sizes = nbytes
    else:
        sizes = [nbytes] * size
    recvs = [
        api._coll_irecv(comm, r, tag) if r != me else None for r in range(size)
    ]
    for r in range(size):
        if r != me:
            yield from api._coll_send(comm, r, tag, values[r], sizes[r])
    out: list[Any] = [None] * size
    out[me] = values[me]
    for r in range(size):
        if r != me:
            msg = yield from api.world.wait(api.vp, recvs[r])
            out[r] = msg.payload
    return out


def _scan_linear(
    api: "MpiApi", comm: "Communicator", me: int, size: int, tag: int, value: Any, nbytes: int, op: Op
) -> GenOp:
    acc = value
    if me > 0:
        msg = yield from api._coll_recv(comm, me - 1, tag)
        acc = fold(op, [msg.payload, value])
    if me < size - 1:
        yield from api._coll_send(comm, me + 1, tag, acc, nbytes)
    return acc


# ----------------------------------------------------------------------
# binomial tree algorithms (ablation variant)
# ----------------------------------------------------------------------
def _bcast_tree(
    api: "MpiApi", comm: "Communicator", me: int, size: int, tag: int, value: Any, nbytes: int, root: int
) -> GenOp:
    vr = (me - root) % size
    mask = 1
    while mask < size:
        if vr & mask:
            src = (vr - mask + root) % size
            msg = yield from api._coll_recv(comm, src, tag)
            value = msg.payload
            break
        mask <<= 1
    mask >>= 1
    while mask > 0:
        if vr + mask < size:
            dst = (vr + mask + root) % size
            yield from api._coll_send(comm, dst, tag, value, nbytes)
        mask >>= 1
    return value


def _reduce_tree(
    api: "MpiApi", comm: "Communicator", me: int, size: int, tag: int, value: Any, nbytes: int, op: Op, root: int
) -> GenOp:
    vr = (me - root) % size
    acc = value
    mask = 1
    while mask < size:
        if vr & mask:
            dst = (vr - mask + root) % size
            yield from api._coll_send(comm, dst, tag, acc, nbytes)
            return None
        if vr + mask < size:
            src = (vr + mask + root) % size
            msg = yield from api._coll_recv(comm, src, tag)
            acc = fold(op, [acc, msg.payload])
        mask <<= 1
    return acc


def _barrier_tree(api: "MpiApi", comm: "Communicator", me: int, size: int, tag: int) -> GenOp:
    yield from _reduce_tree(api, comm, me, size, tag, None, 0, _NOOP, 0)
    # second phase needs a distinct tag to stay unambiguous
    tag2 = comm.next_collective_seq(api.rank)
    yield from _bcast_tree(api, comm, me, size, tag2, None, 0, 0)


_NOOP = Op("NOOP", lambda a, b: None)


# ----------------------------------------------------------------------
# public dispatchers
# ----------------------------------------------------------------------
def _observed(api: "MpiApi", name: str, inner: GenOp) -> GenOp:
    """A collective's dispatch generator, wrapped in an observer span only
    when an observer is attached (plain function: without one the caller
    drives ``inner`` itself, with no pass-through frame in between)."""
    obs = api.world.obs
    return inner if obs is None else _spanned(api, obs, name, inner)


def _spanned(api: "MpiApi", obs: Any, name: str, inner: GenOp) -> GenOp:
    """The span covers this rank's virtual entry-to-exit interval; a
    collective killed mid-flight by an abort emits no span (the serial and
    sharded engines kill generators at the same virtual point, so exports
    stay identical)."""
    t0 = api.vp.clock
    result = yield from inner
    obs.span(t0, api.vp.clock, name, rank=api.rank)
    return result


def barrier(api: "MpiApi", comm: "Communicator") -> GenOp:
    """``MPI_Barrier``."""
    return _observed(api, "coll:barrier", _barrier_dispatch(api, comm))


def _barrier_dispatch(api: "MpiApi", comm: "Communicator") -> GenOp:
    """The barrier's algorithm generator, or an empty iterator on a
    one-rank communicator (a plain function: nothing is left to do after
    the algorithm, so no frame of its own waits on it)."""
    me, size, tag = _setup(api, comm)
    if size == 1:
        return iter(())
    if api.world.collective_algorithm == "linear":
        return _barrier_linear(api, comm, me, size, tag)
    return _barrier_tree(api, comm, me, size, tag)


def bcast(api: "MpiApi", comm: "Communicator", value: Any, nbytes: int, root: int = 0) -> GenOp:
    """``MPI_Bcast``: returns the root's value on every member."""
    return _observed(api, "coll:bcast", _bcast_dispatch(api, comm, value, nbytes, root))


def _bcast_dispatch(
    api: "MpiApi", comm: "Communicator", value: Any, nbytes: int, root: int = 0
) -> GenOp:
    me, size, tag = _setup(api, comm)
    if size == 1:
        return value
    if api.world.collective_algorithm == "linear":
        return (yield from _bcast_linear(api, comm, me, size, tag, value, nbytes, root))
    return (yield from _bcast_tree(api, comm, me, size, tag, value, nbytes, root))


def reduce(
    api: "MpiApi", comm: "Communicator", value: Any, nbytes: int, op: Op, root: int = 0
) -> GenOp:
    """``MPI_Reduce``: the folded value at the root, ``None`` elsewhere."""
    return _observed(api, "coll:reduce", _reduce_dispatch(api, comm, value, nbytes, op, root))


def _reduce_dispatch(
    api: "MpiApi", comm: "Communicator", value: Any, nbytes: int, op: Op, root: int = 0
) -> GenOp:
    me, size, tag = _setup(api, comm)
    if size == 1:
        return fold(op, [value])
    if api.world.collective_algorithm == "linear":
        return (yield from _reduce_linear(api, comm, me, size, tag, value, nbytes, op, root))
    return (yield from _reduce_tree(api, comm, me, size, tag, value, nbytes, op, root))


def allreduce(api: "MpiApi", comm: "Communicator", value: Any, nbytes: int, op: Op) -> GenOp:
    """``MPI_Allreduce`` (reduce to rank 0, then broadcast)."""
    return _observed(api, "coll:allreduce", _allreduce_dispatch(api, comm, value, nbytes, op))


def _allreduce_dispatch(
    api: "MpiApi", comm: "Communicator", value: Any, nbytes: int, op: Op
) -> GenOp:
    me, size, tag = _setup(api, comm)
    if size == 1:
        return fold(op, [value])
    if api.world.collective_algorithm == "linear":
        acc = yield from _reduce_linear(api, comm, me, size, tag, value, nbytes, op, 0)
    else:
        acc = yield from _reduce_tree(api, comm, me, size, tag, value, nbytes, op, 0)
    # _bcast_dispatch (not bcast): the composing allreduce span is the one
    # user-visible collective; no nested bcast span.
    return (yield from _bcast_dispatch(api, comm, acc, nbytes, root=0))


def gather(api: "MpiApi", comm: "Communicator", value: Any, nbytes: int, root: int = 0) -> GenOp:
    """``MPI_Gather``: list of member values (rank order) at the root."""
    return _observed(api, "coll:gather", _gather_dispatch(api, comm, value, nbytes, root))


def _gather_dispatch(
    api: "MpiApi", comm: "Communicator", value: Any, nbytes: int, root: int = 0
) -> GenOp:
    me, size, tag = _setup(api, comm)
    if size == 1:
        return [value]
    return (yield from _gather_linear(api, comm, me, size, tag, value, nbytes, root))


def allgather(api: "MpiApi", comm: "Communicator", value: Any, nbytes: int) -> GenOp:
    """``MPI_Allgather``: every member gets the rank-ordered value list."""
    return _observed(api, "coll:allgather", _allgather_dispatch(api, comm, value, nbytes))


def _allgather_dispatch(api: "MpiApi", comm: "Communicator", value: Any, nbytes: int) -> GenOp:
    me, size, tag = _setup(api, comm)
    if size == 1:
        return [value]
    out = yield from _gather_linear(api, comm, me, size, tag, value, nbytes, 0)
    return (yield from _bcast_dispatch(api, comm, out, nbytes * size, root=0))


def scatter(
    api: "MpiApi", comm: "Communicator", values: list[Any] | None, nbytes: int, root: int = 0
) -> GenOp:
    """``MPI_Scatter``: always message-level (per-destination payloads)."""
    return _observed(api, "coll:scatter", _scatter_dispatch(api, comm, values, nbytes, root))


def _scatter_dispatch(
    api: "MpiApi", comm: "Communicator", values: list[Any] | None, nbytes: int, root: int = 0
) -> GenOp:
    me, size, tag = _setup(api, comm)
    if size == 1:
        if values is None or len(values) != 1:
            raise ConfigurationError("scatter root needs one value per rank (1)")
        return values[0]
    return (yield from _scatter_linear(api, comm, me, size, tag, values, nbytes, root))


def alltoall(
    api: "MpiApi", comm: "Communicator", values: list[Any], nbytes: int | list[int]
) -> GenOp:
    """``MPI_Alltoall``/``MPI_Alltoallv``: always message-level.  A list of
    sizes (one per destination) gives the variable-size semantics."""
    return _observed(api, "coll:alltoall", _alltoall_dispatch(api, comm, values, nbytes))


def _alltoall_dispatch(
    api: "MpiApi", comm: "Communicator", values: list[Any], nbytes: int | list[int]
) -> GenOp:
    me, size, tag = _setup(api, comm)
    if size == 1:
        return [values[0]]
    return (yield from _alltoall_linear(api, comm, me, size, tag, values, nbytes))


def scan(api: "MpiApi", comm: "Communicator", value: Any, nbytes: int, op: Op) -> GenOp:
    """``MPI_Scan`` (inclusive): always message-level (chain)."""
    return _observed(api, "coll:scan", _scan_dispatch(api, comm, value, nbytes, op))


def _scan_dispatch(api: "MpiApi", comm: "Communicator", value: Any, nbytes: int, op: Op) -> GenOp:
    me, size, tag = _setup(api, comm)
    if size == 1:
        return fold(op, [value])
    return (yield from _scan_linear(api, comm, me, size, tag, value, nbytes, op))
