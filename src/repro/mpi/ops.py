"""Reduction operations for the simulated MPI collectives.

Operations combine *payloads* — numpy arrays or scalars in real-data mode,
``None`` in modeled mode (where only message sizes matter and the fold
short-circuits to ``None``).  All provided operations are associative and
commutative, as MPI requires for predefined ops.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable

from repro.util.lazy import is_array, np


@dataclass(frozen=True)
class Op:
    """A binary reduction operation (``MPI_Op``)."""

    name: str
    fn: Callable[[Any, Any], Any]

    def __call__(self, a: Any, b: Any) -> Any:
        return self.fn(a, b)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return self.name


SUM = Op("MPI_SUM", lambda a, b: a + b)
PROD = Op("MPI_PROD", lambda a, b: a * b)
MIN = Op("MPI_MIN", lambda a, b: np.minimum(a, b) if is_array(a) else min(a, b))
MAX = Op("MPI_MAX", lambda a, b: np.maximum(a, b) if is_array(a) else max(a, b))
LAND = Op("MPI_LAND", lambda a, b: bool(a) and bool(b))
LOR = Op("MPI_LOR", lambda a, b: bool(a) or bool(b))
BAND = Op("MPI_BAND", lambda a, b: a & b)
BOR = Op("MPI_BOR", lambda a, b: a | b)


def fold(op: Op, contributions: Iterable[Any]) -> Any:
    """Fold contributions in the given order; ``None`` anywhere (modeled
    payloads) makes the result ``None``."""
    acc: Any = None
    first = True
    for value in contributions:
        if value is None:
            return None
        acc = value if first else op(acc, value)
        first = False
    return acc
