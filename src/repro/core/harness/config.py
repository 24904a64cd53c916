"""Declarative configuration of the simulated machine.

:class:`SystemConfig` collects every knob of the simulated system —
topology, link parameters, protocol thresholds, per-message software
overheads, processor slowdown, collective algorithm family, file-system
model — and builds the model objects.  The paper's exact machine is
:meth:`SystemConfig.paper_system`:

    "The simulated future HPC system is configured with 32,768 (2^15)
    nodes organized in a 32x32x32 3-D wrapped torus with 1 us link latency
    and 32 GB/s link bandwidth. ... each simulated MPI rank is placed on
    one simulated compute node.  The simulated eager communication
    threshold is set to 256 kB ... MPI collectives utilize linear
    algorithms.  For demonstration purposes, the simulated compute node is
    operating at a speed 1000x slower than a single 1.7 GHz AMD Opteron
    6164 HE core."

Calibration note: the per-message software overheads (paid on the
1000x-slowed node CPU, hence milliseconds of simulated time per message)
are the free parameter that sets the cost of the linear-algorithm barrier
at 32,768 ranks, and with it the checkpoint-phase overhead visible in the
paper's E1 column.  The default of 2.6 us native per message puts the
full-scale per-phase cost near the paper's observed range (see
EXPERIMENTS.md for the per-cell comparison).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import TYPE_CHECKING, Any

from repro.util.errors import ConfigurationError
from repro.util.lazy import load

# This module is part of the import-light layer (docs/INTERNALS.md,
# "Import layers"): a Scenario validates its topology and dims against
# it, so the model classes are imported by the builders that need them.
if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.models.filesystem import FileSystemModel
    from repro.models.network.model import NetworkModel
    from repro.models.network.topology import Topology
    from repro.models.processor import ProcessorModel

#: Interconnect kinds: name -> (``"module:attr"`` of the topology class,
#: how it is sized).  ``grid`` takes dims whose product holds the nodes
#: (near-cubic when none are given), ``tree`` takes ``(arity, levels)``,
#: ``nodes`` is sized by the node count alone and takes no dims.
TOPOLOGIES: dict[str, tuple[str, str]] = {
    "torus": ("repro.models.network.topology:TorusTopology", "grid"),
    "mesh": ("repro.models.network.topology:MeshTopology", "grid"),
    "fattree": ("repro.models.network.topology:FatTreeTopology", "tree"),
    "crossbar": ("repro.models.network.topology:CrossbarTopology", "nodes"),
}
#: Collective algorithm families (``collective_algorithm``; the paper's
#: machine runs ``linear``): what ``MpiWorld`` accepts, what a scenario's
#: ``collectives`` may name.
COLLECTIVES = ("linear", "tree")


def balanced_dims(nnodes: int, ndims: int = 3) -> tuple[int, ...]:
    """Near-cubic grid dimensions whose product is at least ``nnodes``.

    Perfect powers factor exactly (32768 -> (32, 32, 32)); otherwise each
    dimension is shrunk greedily while capacity still suffices.
    """
    if nnodes < 1 or ndims < 1:
        raise ConfigurationError("need nnodes >= 1 and ndims >= 1")
    k = max(1, math.ceil(nnodes ** (1.0 / ndims)))
    dims = [k] * ndims
    for i in range(ndims):
        while dims[i] > 1:
            dims[i] -= 1
            if math.prod(dims) < nnodes:
                dims[i] += 1
                break
    return tuple(dims)


def validate_dims(dims: tuple[int, ...], kind: str, nnodes: int) -> None:
    """Reject an explicit topology-dims grid that cannot hold ``nnodes``.

    Torus/mesh grids need ``prod(dims) >= nnodes`` and every layer of
    every axis: one layer fewer along any axis must not hold the job too
    (the topology builds a coordinate table per node, so a grid far larger
    than the job would not build); a fat tree's dims are
    ``(arity, levels)`` and need ``arity ** levels >= nnodes`` with a
    non-empty top level, ``arity ** (levels - 1) < nnodes``; a crossbar
    is sized by the node count alone and takes no dims.  Raises :class:`~repro.util.errors.ConfigurationError` with the
    inconsistency spelled out.
    """
    if any(d < 1 for d in dims):
        raise ConfigurationError(f"topology dims must be >= 1, got {dims}")
    sizing = TOPOLOGIES.get(kind, ("", "nodes"))[1]
    if sizing == "grid":
        capacity = math.prod(dims)
        if capacity < nnodes:
            raise ConfigurationError(
                f"dims {'x'.join(map(str, dims))} hold {capacity} nodes but the "
                f"job needs {nnodes}; increase the dims or lower the rank count"
            )
        for axis, dim in enumerate(dims):
            if capacity // dim * (dim - 1) >= nnodes:
                shorter = dims[:axis] + (dim - 1,) + dims[axis + 1:]
                raise ConfigurationError(
                    f"dims {'x'.join(map(str, dims))} are larger than the job: "
                    f"{'x'.join(map(str, shorter))} already holds its {nnodes} nodes"
                )
        return
    if sizing == "tree":
        if len(dims) != 2:
            raise ConfigurationError(
                f"fattree dims are (arity, levels); got {len(dims)} values"
            )
        arity, levels = dims
        if arity < 2:
            raise ConfigurationError(f"fattree arity must be >= 2, got {arity}")
        # Level by level, stopping once the job fits: ``levels`` may be
        # far too large for ``arity ** levels`` to be computed at all.
        capacity, needed = arity, 1
        while capacity < nnodes and needed < levels:
            capacity *= arity
            needed += 1
        if capacity < nnodes:
            raise ConfigurationError(
                f"fattree {arity}^{levels} holds {capacity} nodes but "
                f"the job needs {nnodes}"
            )
        if needed < levels:
            raise ConfigurationError(
                f"fattree {arity}^{levels} leaves its top level empty: "
                f"{arity}^{needed} already holds the job's {nnodes} nodes"
            )
        return
    raise ConfigurationError(
        f"topology {kind!r} is sized by the rank count and takes no dims"
    )


@dataclass(frozen=True)
class SystemConfig:
    """Everything needed to build the simulated machine's models."""

    nranks: int
    topology_kind: str = "torus"
    #: Grid dims for torus/mesh, (arity, levels) for fattree; None derives
    #: near-cubic dims from the node count.
    topology_dims: tuple[int, ...] | None = None
    ranks_per_node: int = 1
    chips_per_node: int = 1
    link_latency: Any = "1us"
    link_bandwidth: Any = "32GB/s"
    eager_threshold: Any = "256kB"
    #: Native (unscaled) per-message software overheads; the simulated
    #: node pays these scaled by ``slowdown``.
    send_overhead_native: float = 2.6e-6
    recv_overhead_native: float = 2.6e-6
    detection_timeout: Any = "10s"
    reference_hz: float = 1.7e9
    slowdown: float = 1000.0
    collective_algorithm: str = "linear"
    congestion_factor: float = 1.0
    filesystem: FileSystemModel = field(
        default_factory=lambda: load("repro.models.filesystem:FileSystemModel").disabled()
    )
    strict_finalize: bool = True

    def __post_init__(self) -> None:
        if self.nranks < 1:
            raise ConfigurationError(f"nranks must be >= 1, got {self.nranks}")

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def paper_system(cls, nranks: int = 32768, **overrides: Any) -> "SystemConfig":
        """The paper's simulated machine, optionally scaled down.

        With ``nranks != 32768`` the torus is re-dimensioned near-cubically
        while all other parameters stay at the paper's values.
        """
        dims: tuple[int, ...] | None = (32, 32, 32) if nranks == 32768 else None
        base = cls(nranks=nranks, topology_kind="torus", topology_dims=dims)
        return replace(base, **overrides) if overrides else base

    @classmethod
    def small_test_system(cls, nranks: int = 8, **overrides: Any) -> "SystemConfig":
        """A tiny fast machine for unit tests: no software overheads, no
        slowdown, short detection timeout."""
        base = cls(
            nranks=nranks,
            send_overhead_native=0.0,
            recv_overhead_native=0.0,
            detection_timeout="1s",
            slowdown=1.0,
        )
        return replace(base, **overrides) if overrides else base

    def scaled(self, **overrides: Any) -> "SystemConfig":
        """Copy with field overrides (convenience wrapper)."""
        return replace(self, **overrides)

    # ------------------------------------------------------------------
    # model builders
    # ------------------------------------------------------------------
    @property
    def nnodes(self) -> int:
        return math.ceil(self.nranks / self.ranks_per_node)

    def make_topology(self) -> Topology:
        """The interconnect topology object (shared, see :meth:`make_network`)."""
        dims = None if self.topology_dims is None else tuple(self.topology_dims)
        return _topology(self.topology_kind, dims, self.nnodes)

    def make_network(self) -> NetworkModel:
        """The communication cost model (overheads pre-scaled).

        One immutable model per distinct set of cost inputs serves the
        whole process — every segment of a restart experiment, every cell
        of a campaign, every forked worker — so its route caches outlive
        the run that filled them.  The table is keyed by the field values,
        not by this object: two configs describing one machine borrow one
        model.
        """
        return _network(
            self.make_topology(),
            latency=self.link_latency,
            bandwidth=self.link_bandwidth,
            eager_threshold=self.eager_threshold,
            send_overhead=self.send_overhead_native * self.slowdown,
            recv_overhead=self.recv_overhead_native * self.slowdown,
            detection_timeout=self.detection_timeout,
            ranks_per_node=self.ranks_per_node,
            chips_per_node=self.chips_per_node,
            congestion_factor=self.congestion_factor,
        )

    def make_processor(self) -> ProcessorModel:
        """The node speed model (shared, see :meth:`make_network`)."""
        return _processor(self.reference_hz, self.slowdown)


#: Distinct machines whose models the process keeps; the least recently
#: borrowed goes first (a run in flight keeps its own reference).
MODEL_TABLE_SIZE = 16


@lru_cache(maxsize=MODEL_TABLE_SIZE)
def _topology(kind: str, dims: tuple[int, ...] | None, nnodes: int) -> Topology:
    if dims is not None:
        validate_dims(dims, kind, nnodes)
    if kind not in TOPOLOGIES:
        raise ConfigurationError(f"unknown topology kind {kind!r}")
    target, sizing = TOPOLOGIES[kind]
    topology = load(target)
    if sizing == "grid":
        return topology(dims or balanced_dims(nnodes))
    if sizing == "tree":
        if dims is not None:
            arity, levels = dims
        else:
            arity = 16
            levels = max(1, math.ceil(math.log(nnodes, arity)))
        return topology(arity=arity, levels=levels)
    return topology(nnodes)


@lru_cache(maxsize=MODEL_TABLE_SIZE)
def _network(topology: Topology, **costs: Any) -> NetworkModel:
    from repro.models.network.model import NetworkModel

    return NetworkModel(topology, **costs)


@lru_cache(maxsize=MODEL_TABLE_SIZE)
def _processor(reference_hz: float, slowdown: float) -> ProcessorModel:
    from repro.models.processor import ProcessorModel

    return ProcessorModel(reference_hz=reference_hz, slowdown=slowdown)
