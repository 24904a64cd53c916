"""Interconnect topologies and hop-count routing.

A topology maps compute-node ids to positions and answers two questions the
communication cost model needs: how many link hops a minimal route between
two nodes takes, and who a node's direct neighbours are (the heat3d
application uses torus neighbourships for its halo exchange when mapping
ranks onto the machine).

All topologies use deterministic minimal routing; the cost model multiplies
``hops`` by the per-link latency.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from repro.util.errors import ConfigurationError


class Topology:
    """Interface for interconnect topologies."""

    #: Number of compute nodes.
    nnodes: int
    #: Coordinate tables of a grid (``_GridTopology``); ``None`` elsewhere.
    axes: tuple[tuple[tuple[int, ...], int], ...] | None = None

    def hops(self, a: int, b: int) -> int:
        """Link hops on a minimal route from node ``a`` to node ``b``.

        ``hops(a, a)`` is 0 (loopback traffic never enters the network).
        """
        raise NotImplementedError

    def neighbors(self, node: int) -> list[int]:
        """Directly connected compute nodes (one hop away)."""
        raise NotImplementedError

    def diameter(self) -> int:
        """Maximum hop count between any two nodes."""
        raise NotImplementedError

    def _check(self, node: int) -> None:
        if not 0 <= node < self.nnodes:
            raise ConfigurationError(f"node {node} outside topology of {self.nnodes} nodes")


class _GridTopology(Topology):
    """Shared machinery for k-ary n-dimensional grids (torus and mesh)."""

    def __init__(self, dims: Sequence[int], wrap: bool):
        dims = tuple(int(d) for d in dims)
        if not dims or any(d < 1 for d in dims):
            raise ConfigurationError(f"grid dims must be positive, got {dims!r}")
        self.dims = dims
        self.wrap = wrap
        self.nnodes = math.prod(dims)
        # Row-major strides: node id = sum(coord[i] * stride[i]).
        strides = []
        acc = 1
        for d in reversed(dims):
            strides.append(acc)
            acc *= d
        self._strides = tuple(reversed(strides))
        #: Per axis ``(coordinate of every node, ring length)`` — all a hop
        #: count reads (:meth:`hops`, ``NetworkModel.transfer_time``).  The
        #: ring is the axis length on a torus and twice it on a mesh, where
        #: going round (``ring - d``) is therefore never the shorter way.
        self.axes = tuple(
            (tuple((node // stride) % dim for node in range(self.nnodes)),
             dim if wrap else 2 * dim)
            for stride, dim in zip(self._strides, dims)
        )

    def coords(self, node: int) -> tuple[int, ...]:
        """Grid coordinates of ``node`` (row-major layout)."""
        self._check(node)
        out = []
        for stride, dim in zip(self._strides, self.dims):
            out.append((node // stride) % dim)
        return tuple(out)

    def node_at(self, coords: Iterable[int]) -> int:
        """Node id at ``coords`` (wrapped per-dimension when torus)."""
        cs = tuple(coords)
        if len(cs) != len(self.dims):
            raise ConfigurationError(f"expected {len(self.dims)} coords, got {cs!r}")
        node = 0
        for c, stride, dim in zip(cs, self._strides, self.dims):
            if self.wrap:
                c %= dim
            elif not 0 <= c < dim:
                raise ConfigurationError(f"coordinate {c} outside mesh dimension {dim}")
            node += c * stride
        return node

    def hops(self, a: int, b: int) -> int:
        n = self.nnodes
        if not (0 <= a < n and 0 <= b < n):
            self._check(a)
            self._check(b)
        if a == b:
            return 0
        total = 0
        for coord, ring in self.axes:
            d = abs(coord[a] - coord[b])
            total += ring - d if ring - d < d else d  # the shorter way round
        return total

    def neighbors(self, node: int) -> list[int]:
        cs = self.coords(node)
        out = []
        for axis, dim in enumerate(self.dims):
            if dim == 1:
                continue
            for step in (-1, +1):
                c = cs[axis] + step
                if self.wrap:
                    c %= dim
                elif not 0 <= c < dim:
                    continue
                nb = self.node_at(cs[:axis] + (c,) + cs[axis + 1 :])
                if nb != node and nb not in out:
                    out.append(nb)
        return out

    def diameter(self) -> int:
        if self.wrap:
            return sum(d // 2 for d in self.dims)
        return sum(d - 1 for d in self.dims)


class TorusTopology(_GridTopology):
    """k-ary n-dimensional wrapped torus.

    The paper's machine is ``TorusTopology((32, 32, 32))`` — a 32x32x32 3-D
    wrapped torus of 32,768 nodes.  Minimal dimension-order routing gives
    ``hops`` as the sum of per-axis wrapped distances.
    """

    def __init__(self, dims: Sequence[int] = (32, 32, 32)):
        super().__init__(dims, wrap=True)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TorusTopology({'x'.join(map(str, self.dims))})"


class MeshTopology(_GridTopology):
    """k-ary n-dimensional mesh (a torus without the wrap-around links)."""

    def __init__(self, dims: Sequence[int]):
        super().__init__(dims, wrap=False)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MeshTopology({'x'.join(map(str, self.dims))})"


class FatTreeTopology(Topology):
    """k-ary fat tree of switches with compute nodes at the leaves.

    Nodes are numbered left-to-right under a complete ``arity``-ary switch
    tree of ``levels`` levels (``arity**levels`` nodes).  A message climbs
    to the lowest common ancestor switch and back down, so the hop count is
    ``2 * (levels - common_prefix_length)``.
    """

    def __init__(self, arity: int = 16, levels: int = 3):
        if arity < 2 or levels < 1:
            raise ConfigurationError(f"fat tree needs arity >= 2, levels >= 1, got {arity}, {levels}")
        self.arity = arity
        self.levels = levels
        self.nnodes = arity**levels

    def hops(self, a: int, b: int) -> int:
        self._check(a)
        self._check(b)
        if a == b:
            return 0
        up = 0
        while a != b:
            a //= self.arity
            b //= self.arity
            up += 1
        return 2 * up

    def neighbors(self, node: int) -> list[int]:
        """Leaves under the same first-level switch (2 hops is the minimum
        distance in a fat tree; those peers share the cheapest routes)."""
        self._check(node)
        base = (node // self.arity) * self.arity
        return [n for n in range(base, base + self.arity) if n != node]

    def diameter(self) -> int:
        return 2 * self.levels

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FatTreeTopology(arity={self.arity}, levels={self.levels})"


class CrossbarTopology(Topology):
    """Ideal full crossbar: every distinct pair is directly linked (1 hop)."""

    def __init__(self, nnodes: int):
        if nnodes < 1:
            raise ConfigurationError(f"crossbar needs >= 1 node, got {nnodes}")
        self.nnodes = nnodes

    def hops(self, a: int, b: int) -> int:
        self._check(a)
        self._check(b)
        return 0 if a == b else 1

    def neighbors(self, node: int) -> list[int]:
        self._check(node)
        return [n for n in range(self.nnodes) if n != node]

    def diameter(self) -> int:
        return 0 if self.nnodes == 1 else 1
