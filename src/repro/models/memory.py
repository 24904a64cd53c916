"""Per-virtual-process dynamic memory tracking.

The paper's conclusion: "we recently added the tracking of dynamic memory
allocation of simulated MPI processes, which was the last piece needed to
develop a soft error injector."  This module is that piece: simulated
applications (and the MPI layer) register their allocations per rank, and
the soft-error injector (:mod:`repro.core.faults.softerror`) picks uniformly
random bits across a rank's live footprint to flip.

Regions can optionally be backed by a real :class:`numpy.ndarray`; a flip
then actually corrupts the array contents, so applications running in
real-data mode experience genuine silent data corruption (the redMPI-style
propagation experiments).  Unbacked regions only record the flip and its
classification.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.util.errors import ConfigurationError
from repro.util.lazy import np
from repro.util.rng import Stream


class RegionKind(enum.Enum):
    """How a bit flip in a region manifests."""

    DATA = "data"
    """Application payload: a flip is silent data corruption."""
    CRITICAL = "critical"
    """Pointers, code, runtime state: a flip crashes the process."""
    UNUSED = "unused"
    """Allocated but dead memory: a flip is benign."""


@dataclass(frozen=True, slots=True)
class MemoryRegion:
    """One tracked allocation of a simulated process (an immutable
    record: a size-only one is shared by every rank that allocates it)."""

    name: str
    nbytes: int
    kind: RegionKind = RegionKind.DATA
    array: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.array is not None:
            if not self.array.flags.c_contiguous:
                raise ConfigurationError(
                    f"region {self.name!r}: backing arrays must be C-contiguous"
                )
            object.__setattr__(self, "nbytes", int(self.array.nbytes))
        if self.nbytes <= 0:
            raise ConfigurationError(f"region {self.name!r} must have nbytes > 0")


@dataclass(frozen=True)
class FlipRecord:
    """Where a soft error landed and what it did."""

    rank: int
    region: str
    kind: RegionKind
    byte_offset: int
    bit: int
    applied: bool
    """True when a backing array was really modified."""


class MemoryTracker:
    """Tracks live allocations per rank and applies random bit flips."""

    def __init__(self) -> None:
        #: rank -> its one live region, or name -> region from a second
        #: name on (a modeled rank registers its grid and nothing else).
        self._regions: dict[int, MemoryRegion | dict[str, MemoryRegion]] = {}
        #: The size-only records, one per ``(name, nbytes, kind)``.
        self._size_only: dict[tuple[str, int, RegionKind], MemoryRegion] = {}

    def allocate(
        self,
        rank: int,
        name: str,
        nbytes: int = 0,
        kind: RegionKind = RegionKind.DATA,
        array: np.ndarray | None = None,
    ) -> MemoryRegion:
        """Register an allocation; re-allocating a name replaces it."""
        if array is None:
            key = (name, nbytes, kind)
            region = self._size_only.get(key)
            if region is None:
                region = self._size_only[key] = MemoryRegion(name, nbytes, kind)
        else:
            region = MemoryRegion(name, nbytes, kind, array)
        held = self._regions.get(rank)
        if type(held) is dict:
            held[name] = region
        elif held is None or held.name == name:
            self._regions[rank] = region
        else:
            self._regions[rank] = {held.name: held, name: region}
        return region

    def free(self, rank: int, name: str) -> None:
        """Release one named allocation."""
        held = self._regions.get(rank)
        if type(held) is dict and name in held:
            del held[name]
        elif type(held) is MemoryRegion and held.name == name:
            del self._regions[rank]
        else:
            raise ConfigurationError(f"rank {rank} has no region {name!r}")

    def free_all(self, rank: int) -> None:
        """Drop every allocation of ``rank`` (e.g. the process died)."""
        self._regions.pop(rank, None)

    def regions(self, rank: int) -> list[MemoryRegion]:
        """Live allocations of ``rank``."""
        held = self._regions.get(rank)
        if held is None:
            return []
        return list(held.values()) if type(held) is dict else [held]

    def footprint(self, rank: int) -> int:
        """Total live bytes of ``rank``."""
        return sum(r.nbytes for r in self.regions(rank))

    def flip_random_bit(self, rank: int, rng: Stream) -> FlipRecord:
        """Flip one uniformly random bit across ``rank``'s live footprint.

        Uniform over *bytes* (so big regions are proportionally likelier
        targets), then uniform over the 8 bits of the chosen byte.  When
        the region is array-backed the flip is really applied.
        """
        regions = self.regions(rank)
        total = sum(r.nbytes for r in regions)
        if total == 0:
            raise ConfigurationError(f"rank {rank} has no tracked memory to corrupt")
        target = int(rng.integers(0, total))
        for region in regions:
            if target < region.nbytes:
                break
            target -= region.nbytes
        bit = int(rng.integers(0, 8))
        applied = False
        if region.array is not None:
            flat = region.array.view(np.uint8).reshape(-1)
            flat[target] ^= np.uint8(1 << bit)
            applied = True
        return FlipRecord(
            rank=rank,
            region=region.name,
            kind=region.kind,
            byte_offset=target,
            bit=bit,
            applied=applied,
        )
