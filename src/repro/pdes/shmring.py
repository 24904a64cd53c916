"""Shared-memory rings and packed envelopes for the ``shm`` shard transport.

Forked shard workers exchange cross-shard envelopes through
single-producer/single-consumer byte rings over
``multiprocessing.shared_memory`` in a fixed packed encoding for the two
envelope forms, so a window's envelopes are memcpys into a mapped page
instead of one pickle and one pipe round trip per batch.  Control traffic (ops, directives,
final :class:`~repro.pdes.sharded.ShardReport`) stays on the pipe — it is
rare and structure-rich, exactly what pickle is for.

Ring layout
-----------
``[head u64][tail u64][data bytes ...]``.  ``head`` counts bytes ever
written and ``tail`` bytes ever read (both monotonic, taken modulo the data
capacity for positions).  Exactly one process stores each counter, so a
stale read is always *conservative* (the reader sees at most what was
written, the writer at least what was consumed) — provided a store is one
8-byte copy.  Packing into the buffer with :mod:`struct` is not: CPython
zero-fills the field before it packs, and the other process can read that
0 (a reader then sees ``avail < 0``, a writer ``free > capacity`` — the
ring's former "torn counter").  The counters are therefore native u64
*items* of a ``"Q"`` memoryview over the header: an item store copies the
value once, after the payload bytes it publishes.  Records are u32
length-prefixed and may exceed the capacity: both sides stream chunks as
space frees, which cannot deadlock because the coordinator/worker protocol
always announces the record count on the pipe *before* either side touches
a ring (see ``_ShmConn`` in :mod:`repro.pdes.sharded`).

Envelope encoding
-----------------
``b"r" + <qqd>`` — rendezvous completion ``(src, req_id, t_send_done)``.
``b"a" + <d5qdqqBq> + payload`` — message delivery: arrival time, ctx, src,
dst, tag, nbytes, the ``(post_time, src, counter)`` sequence tuple,
protocol code (0 eager / 1 RTS) and rendezvous request id (-1 for none),
followed by a tagged payload block.  Payload tags cover the types
applications actually send (None/bool/int/float/bytes/str and
C-contiguous numpy arrays, encoded as ``dtype.str`` + shape + raw bytes);
anything else falls back to pickle.  Every encoding round-trips exactly —
bit-identical digests against the serial engine are the contract.
"""

from __future__ import annotations

import pickle
import struct
import time
from multiprocessing import shared_memory
from typing import Any, Callable

from repro.mpi.messages import EAGER, RTS
from repro.util.errors import ConfigurationError, SimulationError
from repro.util.lazy import np

__all__ = [
    "RingPeerDead",
    "ShmRing",
    "pack_envelope",
    "unpack_envelope",
]


class RingPeerDead(SimulationError):
    """The process on the other end of a ring stopped making progress."""


_LEN = struct.Struct("<I")
#: Bytes reserved for the head/tail counters at the start of the segment.
HEADER_BYTES = 16
#: Spin iterations before the wait loop starts sleeping.
_SPINS = 200
_SLEEP_S = 100e-6


class ShmRing:
    """Single-producer/single-consumer byte ring over shared memory.

    Created by the coordinator before forking; the worker inherits the
    mapping, so no name-based attach is needed.  ``alive`` callbacks let a
    blocked side detect a dead peer instead of spinning forever.
    """

    def __init__(self, capacity: int = 1 << 20):
        if capacity < 64:
            raise ConfigurationError(f"ring capacity must be >= 64, got {capacity}")
        self.capacity = capacity
        self._shm = shared_memory.SharedMemory(create=True, size=HEADER_BYTES + capacity)
        #: ``[head, tail]``, one writer each (a fresh segment is zeroed).
        self._ctr = self._shm.buf[:HEADER_BYTES].cast("Q")

    def _wait(self, spins: int, alive: Callable[[], bool] | None) -> int:
        if spins >= _SPINS:
            if alive is not None and not alive():
                raise RingPeerDead("ring peer process died")
            time.sleep(_SLEEP_S)
        return spins + 1

    # -- producer -------------------------------------------------------
    def write(self, payload: bytes, alive: Callable[[], bool] | None = None) -> None:
        """Append one length-prefixed record, streaming chunks as the
        consumer frees space (records may exceed the ring capacity)."""
        data = _LEN.pack(len(payload)) + payload
        cap = self.capacity
        buf = self._shm.buf
        ctr = self._ctr
        head = ctr[0]
        off = 0
        spins = 0
        while off < len(data):
            free = cap - (head - ctr[1])
            if free == 0:
                spins = self._wait(spins, alive)
                continue
            spins = 0
            pos = head % cap
            n = min(len(data) - off, free, cap - pos)
            buf[HEADER_BYTES + pos : HEADER_BYTES + pos + n] = data[off : off + n]
            head += n
            ctr[0] = head
            off += n

    # -- consumer -------------------------------------------------------
    def read(self, alive: Callable[[], bool] | None = None) -> bytes:
        """Pop one record (blocks until its bytes arrive)."""
        (length,) = _LEN.unpack(self._read_exact(_LEN.size, alive))
        return bytes(self._read_exact(length, alive))

    def _read_exact(self, n: int, alive: Callable[[], bool] | None) -> bytearray:
        out = bytearray(n)
        cap = self.capacity
        buf = self._shm.buf
        ctr = self._ctr
        tail = ctr[1]
        got = 0
        spins = 0
        while got < n:
            avail = ctr[0] - tail
            if avail == 0:
                spins = self._wait(spins, alive)
                continue
            spins = 0
            pos = tail % cap
            take = min(n - got, avail, cap - pos)
            out[got : got + take] = buf[HEADER_BYTES + pos : HEADER_BYTES + pos + take]
            tail += take
            ctr[1] = tail
            got += take
        return out

    # -- lifecycle ------------------------------------------------------
    def destroy(self) -> None:
        """Close the mapping and unlink the segment (creator side)."""
        self._ctr.release()  # an exported view would refuse the close
        try:
            self._shm.close()
        except Exception:
            pass
        try:
            self._shm.unlink()
        except Exception:
            pass


# ----------------------------------------------------------------------
# envelope codec
# ----------------------------------------------------------------------
#: arrival f8 | ctx, src, dst, tag, nbytes q | seq(post f8, src q, ctr q) |
#: protocol u8 | req_id q (-1 = None)
_A_HEAD = struct.Struct("<dqqqqqdqqBq")
_R_BODY = struct.Struct("<qqd")

_P_NONE, _P_FALSE, _P_TRUE, _P_INT, _P_FLOAT = 0, 1, 2, 3, 4
_P_BYTES, _P_STR, _P_ARRAY, _P_PICKLE = 5, 6, 7, 8
_I64_MIN, _I64_MAX = -(1 << 63), (1 << 63) - 1


def _pack_payload(obj: Any) -> bytes:
    t = type(obj)
    if obj is None:
        return bytes((_P_NONE,))
    if t is bool:
        return bytes((_P_TRUE if obj else _P_FALSE,))
    if t is int and _I64_MIN <= obj <= _I64_MAX:
        return bytes((_P_INT,)) + struct.pack("<q", obj)
    if t is float:
        return bytes((_P_FLOAT,)) + struct.pack("<d", obj)
    if t is bytes:
        return bytes((_P_BYTES,)) + obj
    if t is str:
        return bytes((_P_STR,)) + obj.encode("utf-8")
    if t is np.ndarray and not obj.dtype.hasobject:
        # ascontiguousarray would promote 0-d to 1-d, breaking the exact
        # round trip; 0-d arrays are always contiguous already.
        a = obj if obj.flags.c_contiguous else np.ascontiguousarray(obj)
        ds = a.dtype.str.encode("ascii")
        hdr = struct.pack("<BB", len(ds), a.ndim) + ds
        hdr += struct.pack(f"<{a.ndim}q", *a.shape)
        return bytes((_P_ARRAY,)) + hdr + a.tobytes()
    return bytes((_P_PICKLE,)) + pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)


def _unpack_payload(mv: memoryview) -> Any:
    tag = mv[0]
    body = mv[1:]
    if tag == _P_NONE:
        return None
    if tag == _P_FALSE:
        return False
    if tag == _P_TRUE:
        return True
    if tag == _P_INT:
        return struct.unpack_from("<q", body)[0]
    if tag == _P_FLOAT:
        return struct.unpack_from("<d", body)[0]
    if tag == _P_BYTES:
        return bytes(body)
    if tag == _P_STR:
        return bytes(body).decode("utf-8")
    if tag == _P_ARRAY:
        nds, ndim = struct.unpack_from("<BB", body, 0)
        dtype = np.dtype(bytes(body[2 : 2 + nds]).decode("ascii"))
        shape = struct.unpack_from(f"<{ndim}q", body, 2 + nds)
        off = 2 + nds + 8 * ndim
        count = 1
        for d in shape:
            count *= d
        arr = np.frombuffer(body, dtype=dtype, count=count, offset=off)
        # .copy() gives a writable C-order array, matching the serial
        # path's payload.copy() buffering semantics.
        return arr.reshape(shape).copy()
    if tag == _P_PICKLE:
        return pickle.loads(bytes(body))
    raise SimulationError(f"unknown payload tag {tag}")


def pack_envelope(env: tuple) -> bytes:
    """Fixed binary form of one cross-shard envelope tuple."""
    if env[0] == "r":
        return b"r" + _R_BODY.pack(env[1], env[2], env[3])
    (_, arrival, ctx, src, dst, tag, nbytes, payload, seq, protocol, req_id) = env
    head = _A_HEAD.pack(
        arrival, ctx, src, dst, tag, nbytes, seq[0], seq[1], seq[2],
        0 if protocol == EAGER else 1, -1 if req_id is None else req_id,
    )
    return b"a" + head + _pack_payload(payload)


def unpack_envelope(data: bytes) -> tuple:
    """Inverse of :func:`pack_envelope`; exact round trip."""
    kind = data[:1]
    if kind == b"r":
        src, req_id, t_send_done = _R_BODY.unpack_from(data, 1)
        return ("r", src, req_id, t_send_done)
    if kind != b"a":
        raise SimulationError(f"unknown envelope kind {kind!r}")
    (arrival, ctx, src, dst, tag, nbytes, s_time, s_src, s_ctr, proto, req_id) = (
        _A_HEAD.unpack_from(data, 1)
    )
    payload = _unpack_payload(memoryview(data)[1 + _A_HEAD.size :])
    return (
        "a", arrival, ctx, src, dst, tag, nbytes, payload,
        (s_time, s_src, s_ctr), EAGER if proto == 0 else RTS,
        None if req_id == -1 else req_id,
    )
