"""Network models: topologies, routing hops, and the communication cost model.

The paper's simulated machine is "32,768 nodes organized in a 32x32x32 3-D
wrapped torus with 1 us link latency and 32 GB/s link bandwidth", a 256 kB
eager threshold (larger payloads use the simulated rendezvous protocol),
and linear-algorithm MPI collectives.  Failure detection "is purely based
on simulated network communication timeouts ... configurable as part of
xSim's network model.  Each simulated network, such as the on-chip,
on-node, and system-wide network, has its own network communication
timeout."

:mod:`~repro.models.network.topology` defines the topology interface and
the concrete torus/mesh/fat-tree/crossbar topologies;
:mod:`~repro.models.network.model` defines :class:`NetworkModel`, the
latency/bandwidth/protocol/timeout cost model consumed by the simulated
MPI layer.
"""

from repro.models.network.model import NetworkModel, NetworkTier
from repro.models.network.topology import (
    CrossbarTopology,
    FatTreeTopology,
    MeshTopology,
    Topology,
    TorusTopology,
)

__all__ = [
    "CrossbarTopology",
    "FatTreeTopology",
    "MeshTopology",
    "NetworkModel",
    "NetworkTier",
    "Topology",
    "TorusTopology",
]
