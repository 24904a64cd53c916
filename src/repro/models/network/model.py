"""Communication cost model of the simulated machine.

Combines a :class:`~repro.models.network.topology.Topology` with per-tier
link parameters into the quantities the simulated MPI layer needs:

* message transfer time (per-hop latency + payload/bandwidth, optionally
  scaled by a congestion factor),
* the eager/rendezvous protocol decision (the paper sets "the simulated
  eager communication threshold ... to 256 kB, i.e., MPI payloads above
  256 kB utilize the simulated rendezvous protocol"),
* per-message software overheads paid on the (slowed-down) simulated node's
  CPU for sending and receiving — these serialize message processing at a
  rank, which is what makes linear-algorithm collectives expensive at
  32,768 ranks, and
* the per-tier failure-detection timeout ("each simulated network, such as
  the on-chip, on-node, and system-wide network, has its own network
  communication timeout simulated based on assumptions of the architectural
  features of the simulated HPC system").

Ranks are mapped onto compute nodes block-wise (``node = rank //
ranks_per_node``); the paper places one rank per node because an MPI+X
programming model is assumed.
"""

from __future__ import annotations

import copy
import enum
from dataclasses import dataclass
from functools import lru_cache, partial

from repro.models.network.topology import Topology
from repro.util.errors import ConfigurationError
from repro.util.units import parse_rate, parse_size, parse_time


class NetworkTier(enum.Enum):
    """Which simulated network a message crosses."""

    ON_CHIP = "on-chip"
    ON_NODE = "on-node"
    SYSTEM = "system"


@dataclass(frozen=True)
class TierParams:
    """Link parameters of one network tier.

    ``latency`` is per hop for the system tier and end-to-end for the
    intra-node tiers (which have no routed hops).
    """

    latency: float
    bandwidth: float
    detection_timeout: float

    def __post_init__(self) -> None:
        if self.latency < 0 or self.bandwidth <= 0 or self.detection_timeout < 0:
            raise ConfigurationError(f"invalid tier parameters {self!r}")


class NetworkModel:
    """Cost model answering the simulated MPI layer's timing questions.

    Parameters accept the human-readable unit strings from
    :mod:`repro.util.units` (``"1us"``, ``"32GB/s"``, ``"256kB"``).

    A model is immutable: one instance per machine serves every run of a
    process (:meth:`SystemConfig.make_network
    <repro.core.harness.config.SystemConfig.make_network>`), so assigning
    an attribute raises and a changed parameter is a new model.  What a
    run degrades (link faults) lives in the run's
    :class:`~repro.core.faults.overlay.FaultOverlay`, never here.

    Parameters
    ----------
    topology:
        Compute-node interconnect (hop counts for the system tier).
    latency, bandwidth:
        System-tier per-hop link latency and link bandwidth.
    eager_threshold:
        Payloads strictly above this use the rendezvous protocol.
    send_overhead, recv_overhead:
        Per-message software overhead in *simulated* seconds, i.e. already
        scaled by the node slowdown.  These advance the sender's/receiver's
        virtual clock per message and therefore serialize message
        processing at a rank.
    detection_timeout:
        System-tier failure-detection timeout: a rank blocked on
        communication with a failed peer detects the failure this long
        after the (later of) the failure and the start of its wait.
    ranks_per_node, chips_per_node:
        Rank placement; intra-node traffic uses the on-node (or on-chip)
        tier instead of the routed system network.
    on_node, on_chip:
        Tier parameter overrides; defaults are derived from the system tier
        (10x lower latency / 4x higher bandwidth on-node, 100x / 16x
        on-chip) and only matter when ``ranks_per_node > 1``.
    congestion_factor:
        Multiplier (>= 1) applied to payload transfer times, a coarse knob
        for modeling background congestion in ablation studies.
    """

    def __init__(
        self,
        topology: Topology,
        *,
        latency: float | str = "1us",
        bandwidth: float | str = "32GB/s",
        eager_threshold: int | str = "256kB",
        send_overhead: float | str = 0.0,
        recv_overhead: float | str = 0.0,
        detection_timeout: float | str = "10s",
        ranks_per_node: int = 1,
        chips_per_node: int = 1,
        on_node: TierParams | None = None,
        on_chip: TierParams | None = None,
        congestion_factor: float = 1.0,
    ):
        if ranks_per_node < 1 or chips_per_node < 1:
            raise ConfigurationError("ranks_per_node and chips_per_node must be >= 1")
        if ranks_per_node % chips_per_node != 0:
            raise ConfigurationError(
                f"ranks_per_node ({ranks_per_node}) must be divisible by "
                f"chips_per_node ({chips_per_node})"
            )
        if congestion_factor < 1.0:
            raise ConfigurationError(f"congestion_factor must be >= 1, got {congestion_factor}")
        lat = parse_time(latency)
        bw = parse_rate(bandwidth)
        timeout = parse_time(detection_timeout)
        # Written through the instance dict: ``__setattr__`` refuses.
        vars(self).update(
            topology=topology,
            system=TierParams(latency=lat, bandwidth=bw, detection_timeout=timeout),
            on_node=on_node or TierParams(
                latency=lat / 10.0, bandwidth=bw * 4.0, detection_timeout=timeout / 10.0
            ),
            on_chip=on_chip or TierParams(
                latency=lat / 100.0, bandwidth=bw * 16.0, detection_timeout=timeout / 100.0
            ),
            eager_threshold=parse_size(eager_threshold),
            send_overhead=parse_time(send_overhead),
            recv_overhead=parse_time(recv_overhead),
            ranks_per_node=ranks_per_node,
            chips_per_node=chips_per_node,
            ranks_per_chip=ranks_per_node // chips_per_node,
            congestion_factor=congestion_factor,
        )
        self._install_caches()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(
            f"NetworkModel is immutable (it is shared by every run of its "
            f"machine); a changed {name!r} is a new model"
        )

    def __delattr__(self, name: str) -> None:
        raise AttributeError("NetworkModel is immutable")

    #: The pure cost methods, memoised per instance on a machine of at
    #: most ``_MEMO_RANKS`` ranks.  A run binds about eight pairs a rank
    #: (six 3-D halo faces, a linear collective's root fan-in and
    #: fan-out) and walks them cyclically: up to here they and their few
    #: message sizes fit one LRU with room and nearly every lookup hits;
    #: far above, an LRU smaller than the run never hits and one as large
    #: costs more to hold (~170 B a pair) and to miss in than to compute.
    _CACHED_METHODS = (
        "tier", "hops", "wire_latency", "transfer_time", "serialization_time",
        "detection_timeout",
    )
    _MEMO_RANKS = 512

    def _install_caches(self) -> None:
        """Shadow the pure cost methods with per-instance LRU caches on a
        machine of at most ``_MEMO_RANKS`` ranks; a larger one computes.

        The cost inputs (topology, tier parameters, placement, congestion)
        cannot change after construction, so every cost method is a pure
        function of its rank/size arguments.

        Each cache binds the *class* function to a cycle-free snapshot of
        the model's state, never to ``self``: a ``lru_cache`` around the
        bound method ``self.method`` stored back onto ``self`` would
        strongly reference the instance from its own attribute, forming a
        cycle that keeps the model — and its cached cost tuples — alive
        until a *cyclic* gc pass, and the engine disables gc during runs.
        The snapshot (a shallow copy sharing the immutable parameter
        objects) holds no reference back to the instance, so a model
        nothing borrows any more frees by reference count alone.
        """
        if self.max_ranks() > self._MEMO_RANKS:
            return
        state = copy.copy(self)
        cls = type(self)
        vars(self).update(
            (name, lru_cache(maxsize=1 << 16)(partial(getattr(cls, name), state)))
            for name in self._CACHED_METHODS
        )

    # ------------------------------------------------------------------
    # placement
    # ------------------------------------------------------------------
    def node_of(self, rank: int) -> int:
        """Compute node hosting ``rank`` (block placement)."""
        return rank // self.ranks_per_node

    def max_ranks(self) -> int:
        """Largest rank count this model's machine can host."""
        return self.topology.nnodes * self.ranks_per_node

    def tier(self, src: int, dst: int) -> NetworkTier:
        """Which network a ``src -> dst`` message crosses."""
        if self.node_of(src) != self.node_of(dst):
            return NetworkTier.SYSTEM
        if src // self.ranks_per_chip == dst // self.ranks_per_chip:
            return NetworkTier.ON_CHIP
        return NetworkTier.ON_NODE

    def _params(self, tier: NetworkTier) -> TierParams:
        if tier is NetworkTier.SYSTEM:
            return self.system
        if tier is NetworkTier.ON_NODE:
            return self.on_node
        return self.on_chip

    # ------------------------------------------------------------------
    # protocol and timing
    # ------------------------------------------------------------------
    def is_eager(self, nbytes: int) -> bool:
        """True when ``nbytes`` is sent with the eager protocol."""
        return nbytes <= self.eager_threshold

    def hops(self, src: int, dst: int) -> int:
        """Routed system-network hops between the ranks' nodes (0 intra-node)."""
        a, b = self.node_of(src), self.node_of(dst)
        if a == b:
            return 0
        return self.topology.hops(a, b)

    def wire_latency(self, src: int, dst: int) -> float:
        """End-to-end latency of a minimal (zero-payload) packet."""
        return self.transfer_time(0, src, dst)

    def transfer_time(self, nbytes: int, src: int, dst: int) -> float:
        """Wire time of a ``nbytes`` payload from ``src`` to ``dst``
        (latency plus serialization, excluding CPU software overheads).

        One frame per lookup — the tier rule of :meth:`tier` and the grid
        hop count of ``_GridTopology.hops`` are repeated here — because
        on a machine too large to memoise this *is* the per-message path.
        """
        if nbytes < 0:
            raise ConfigurationError(f"message size must be >= 0, got {nbytes}")
        rpn = self.ranks_per_node
        a = src // rpn
        b = dst // rpn
        if a == b:
            rpc = self.ranks_per_chip
            p = self.on_chip if src // rpc == dst // rpc else self.on_node
            latency = p.latency
        else:
            p = self.system
            topology = self.topology
            n = topology.nnodes
            if topology.axes is not None and 0 <= a < n and 0 <= b < n:
                hops = 0
                for coord, ring in topology.axes:
                    d = abs(coord[a] - coord[b])
                    hops += ring - d if ring - d < d else d
            else:  # another interconnect, or a node off the machine (raises)
                hops = topology.hops(a, b)
            latency = p.latency * max(1, hops)
        return latency + self.congestion_factor * nbytes / p.bandwidth

    def serialization_time(self, nbytes: int, src: int, dst: int) -> float:
        """Time the payload occupies the sender's injection link (transfer
        time minus the wire latency) — what a rendezvous sender pays after
        the clear-to-send arrives."""
        if nbytes < 0:
            raise ConfigurationError(f"message size must be >= 0, got {nbytes}")
        p = self._params(self.tier(src, dst))
        return self.congestion_factor * nbytes / p.bandwidth

    def detection_timeout(self, src: int, dst: int) -> float:
        """Failure-detection timeout of the tier a ``src <-> dst``
        communication uses."""
        return self._params(self.tier(src, dst)).detection_timeout
