"""Simulated MPI datatypes.

The cost model only needs payload *sizes*; datatypes exist so applications
can express counts the MPI way (``count * datatype.size`` bytes) and so the
reduction collectives know how to combine real payloads when the
application runs in real-data mode.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.errors import ConfigurationError
from repro.util.lazy import is_array, np


@dataclass(frozen=True)
class Datatype:
    """An elementary simulated MPI datatype."""

    name: str
    size: int
    #: numpy dtype code of an element (``"f8"``), see :attr:`numpy`.
    code: str | None = None

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ConfigurationError(f"datatype {self.name} must have size > 0")

    @property
    def numpy(self) -> np.dtype | None:
        """The element's numpy dtype (numpy loads on this first read)."""
        return None if self.code is None else np.dtype(self.code)

    def extent(self, count: int) -> int:
        """Bytes occupied by ``count`` elements."""
        if count < 0:
            raise ConfigurationError(f"count must be >= 0, got {count}")
        return count * self.size


BYTE = Datatype("MPI_BYTE", 1, "u1")
CHAR = Datatype("MPI_CHAR", 1, "i1")
INT = Datatype("MPI_INT", 4, "i4")
LONG = Datatype("MPI_LONG", 8, "i8")
FLOAT = Datatype("MPI_FLOAT", 4, "f4")
DOUBLE = Datatype("MPI_DOUBLE", 8, "f8")


def payload_nbytes(payload: object, nbytes: int | None) -> int:
    """Resolve the wire size of a message.

    ``nbytes`` wins when given; otherwise numpy arrays report their real
    size, ``bytes``-likes their length, and ``None`` means a zero-byte
    (signalling) message.  Other payloads require an explicit ``nbytes``.
    """
    if nbytes is not None:
        if nbytes < 0:
            raise ConfigurationError(f"nbytes must be >= 0, got {nbytes}")
        return int(nbytes)
    if payload is None:
        return 0
    if is_array(payload):
        return int(payload.nbytes)
    if isinstance(payload, (bytes, bytearray, memoryview)):
        return len(payload)
    raise ConfigurationError(
        f"cannot infer message size from {type(payload).__name__}; pass nbytes="
    )
