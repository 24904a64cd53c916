"""Communication cost model (repro.models.network.model)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.models.network.model import NetworkModel, NetworkTier, TierParams
from repro.models.network.topology import (
    CrossbarTopology,
    FatTreeTopology,
    MeshTopology,
    TorusTopology,
)
from repro.util.errors import ConfigurationError


def paper_net(**kw):
    return NetworkModel(TorusTopology((32, 32, 32)), **kw)


class TestProtocolSelection:
    def test_paper_eager_threshold(self):
        net = paper_net()
        assert net.eager_threshold == 256_000
        assert net.is_eager(256_000)
        assert not net.is_eager(256_001)

    def test_zero_bytes_eager(self):
        assert paper_net().is_eager(0)


class TestTiming:
    def test_one_hop_latency(self):
        net = paper_net()
        # nodes 0 and 1 are adjacent in the torus
        assert net.wire_latency(0, 1) == pytest.approx(1e-6)

    def test_multi_hop_latency_scales(self):
        net = paper_net()
        hops = net.hops(0, 2)
        assert hops == 2
        assert net.wire_latency(0, 2) == pytest.approx(2e-6)

    def test_transfer_time_includes_bandwidth(self):
        net = paper_net()
        t = net.transfer_time(32_000_000_000, 0, 1)  # 32 GB at 32 GB/s
        assert t == pytest.approx(1.0 + 1e-6)

    def test_serialization_time_excludes_latency(self):
        net = paper_net()
        assert net.serialization_time(32_000_000_000, 0, 1) == pytest.approx(1.0)

    def test_congestion_factor_scales_payload_only(self):
        net = paper_net(congestion_factor=2.0)
        t = net.transfer_time(32_000_000_000, 0, 1)
        assert t == pytest.approx(2.0 + 1e-6)

    def test_congestion_below_one_rejected(self):
        with pytest.raises(ConfigurationError):
            paper_net(congestion_factor=0.5)

    def test_negative_size_rejected(self):
        with pytest.raises(ConfigurationError):
            paper_net().transfer_time(-1, 0, 1)

    def test_overheads_parse_units(self):
        net = paper_net(send_overhead="2.6ms", recv_overhead="1ms")
        assert net.send_overhead == pytest.approx(2.6e-3)
        assert net.recv_overhead == pytest.approx(1e-3)


class TestPlacementAndTiers:
    def test_paper_one_rank_per_node(self):
        net = paper_net()
        assert net.node_of(5) == 5
        assert net.max_ranks() == 32768
        assert net.tier(0, 1) is NetworkTier.SYSTEM

    def test_multi_rank_placement(self):
        net = NetworkModel(TorusTopology((2, 2)), ranks_per_node=4, chips_per_node=2)
        assert net.node_of(3) == 0
        assert net.node_of(4) == 1
        assert net.tier(0, 1) is NetworkTier.ON_CHIP
        assert net.tier(0, 2) is NetworkTier.ON_NODE
        assert net.tier(0, 4) is NetworkTier.SYSTEM

    def test_intra_node_zero_hops(self):
        net = NetworkModel(TorusTopology((2, 2)), ranks_per_node=2)
        assert net.hops(0, 1) == 0

    def test_intra_node_faster_than_system(self):
        net = NetworkModel(TorusTopology((2, 2)), ranks_per_node=2)
        assert net.transfer_time(1024, 0, 1) < net.transfer_time(1024, 0, 2)

    def test_per_tier_detection_timeouts(self):
        """Paper: each simulated network (on-chip, on-node, system) has its
        own communication timeout."""
        net = NetworkModel(
            TorusTopology((2, 2)), ranks_per_node=4, chips_per_node=2, detection_timeout="10s"
        )
        assert net.detection_timeout(0, 4) == pytest.approx(10.0)
        assert net.detection_timeout(0, 2) == pytest.approx(1.0)
        assert net.detection_timeout(0, 1) == pytest.approx(0.1)

    def test_tier_override(self):
        custom = TierParams(latency=5e-9, bandwidth=1e12, detection_timeout=0.5)
        net = NetworkModel(TorusTopology((2, 2)), ranks_per_node=2, on_chip=custom, chips_per_node=1)
        assert net.detection_timeout(0, 1) == pytest.approx(0.5)

    def test_invalid_placement_rejected(self):
        with pytest.raises(ConfigurationError):
            NetworkModel(TorusTopology((2,)), ranks_per_node=0)
        with pytest.raises(ConfigurationError):
            NetworkModel(TorusTopology((2,)), ranks_per_node=3, chips_per_node=2)

    def test_crossbar_single_hop_everywhere(self):
        net = NetworkModel(CrossbarTopology(16))
        assert net.wire_latency(0, 15) == pytest.approx(1e-6)


class TestTierParams:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TierParams(latency=-1.0, bandwidth=1.0, detection_timeout=1.0)
        with pytest.raises(ConfigurationError):
            TierParams(latency=1.0, bandwidth=0.0, detection_timeout=1.0)
        with pytest.raises(ConfigurationError):
            TierParams(latency=1.0, bandwidth=1.0, detection_timeout=-0.1)


class TestPerInstanceCaches:
    """The memoized cost methods must not keep the model alive.

    ``lru_cache`` around a *bound* method stored back onto the instance
    forms an instance -> cache -> bound-method -> instance cycle that only
    a cyclic gc pass can break; the engine disables gc during runs, so a
    campaign constructing one model per task used to ramp memory without
    bound.  The caches now reach the instance through a weak reference.
    """

    def test_model_collected_without_cyclic_gc(self):
        import gc
        import weakref

        gc.disable()
        try:
            net = NetworkModel(TorusTopology((4, 4)), ranks_per_node=2)
            # Populate every cache so held entries would pin the cycle.
            net.tier(0, 9)
            net.hops(0, 9)
            net.wire_latency(0, 9)
            net.transfer_time(4096, 0, 9)
            net.serialization_time(4096, 0, 9)
            net.detection_timeout(0, 9)
            ref = weakref.ref(net)
            del net
            assert ref() is None, "NetworkModel kept alive by its own caches"
        finally:
            gc.enable()

    def test_campaign_scale_no_leak(self):
        import gc
        import weakref

        gc.disable()
        try:
            refs = []
            for _ in range(50):
                net = NetworkModel(TorusTopology((8, 8)), ranks_per_node=1)
                for dst in range(1, 32):
                    net.transfer_time(1024, 0, dst)
                refs.append(weakref.ref(net))
                del net
            assert sum(1 for r in refs if r() is not None) == 0
        finally:
            gc.enable()

    def test_cached_results_match_uncached(self):
        net = paper_net()
        raw = type(net)
        assert net.tier(0, 1) is raw.tier(net, 0, 1)
        assert net.hops(0, 500) == raw.hops(net, 0, 500)
        assert net.transfer_time(8192, 0, 500) == pytest.approx(
            raw.transfer_time(net, 8192, 0, 500)
        )

    def test_cost_attributes_cannot_be_assigned(self):
        # One model serves every run of its machine: a changed parameter
        # is a new model, never an edit of a shared one.
        net = paper_net()
        before = net.transfer_time(1 << 20, 0, 1)
        for name in vars(net):
            with pytest.raises(AttributeError, match="immutable"):
                setattr(net, name, 2.0)
            with pytest.raises(AttributeError, match="immutable"):
                delattr(net, name)
        with pytest.raises(AttributeError, match="immutable"):
            net.brand_new = 1
        assert not hasattr(net, "invalidate_caches")
        assert net.transfer_time(1 << 20, 0, 1) == before

    def test_paper_machine_computes_and_holds_no_pair(self):
        # 32,768 ranks bind 196,608 halo pairs and a linear barrier's
        # root fans 65,534 more, each used once or thrice a segment: a
        # memo of them costs more to hold and to miss in than the
        # arithmetic, so the machine gets none and two passes leave
        # nothing behind.
        net = NetworkModel(TorusTopology((32, 32, 32)))
        n = net.max_ranks()
        pairs = []
        for r in range(n):
            for stride in (1024, 32, 1):
                c = r // stride % 32
                pairs.append((r, r + stride if c < 31 else r - 31 * stride))
                pairs.append((r, r - stride if c > 0 else r + 31 * stride))
        assert len(pairs) == 6 * 32768 and sorted(p[1] for p in pairs[:6]) == sorted(
            net.topology.neighbors(0)
        )
        pairs += [(0, r) for r in range(1, n)] + [(r, 0) for r in range(1, n)]
        assert len(pairs) == 262_142
        before = dict(vars(net))
        for _ in range(2):
            for a, b in pairs:
                assert net.transfer_time(4096, a, b) == parent_transfer_time(net, 4096, a, b)
        assert vars(net) == before and not set(before) & set(NetworkModel._CACHED_METHODS)
        assert net.transfer_time.__func__ is NetworkModel.transfer_time

    def test_machines_up_to_512_ranks_memoise(self):
        net = NetworkModel(TorusTopology((8, 8, 8)))
        pairs = [(r, nb) for r in range(512) for nb in net.topology.neighbors(r)]
        pairs += [(0, r) for r in range(1, 512)] + [(r, 0) for r in range(1, 512)]
        for _ in range(2):
            for a, b in pairs:
                assert net.transfer_time(4096, a, b) == parent_transfer_time(net, 4096, a, b)
        info = net.transfer_time.cache_info()
        assert info.hits >= len(pairs) and info.currsize == info.misses == len(set(pairs))
        # one bound for every method, and the next cube up is past it
        assert all(hasattr(getattr(net, m), "cache_info") for m in NetworkModel._CACHED_METHODS)
        assert not set(vars(NetworkModel(TorusTopology((9, 9, 9))))) & set(NetworkModel._CACHED_METHODS)

    def test_cache_info_available(self):
        net = NetworkModel(TorusTopology((8, 8, 8)))
        net.tier(0, 1)
        net.tier(0, 1)
        info = net.tier.cache_info()
        assert info.hits >= 1 and info.misses >= 1


# ----------------------------------------------------------------------
# The costs are the ones the per-pair memo used to store: the formulas of
# the commit before the coordinate tables, kept here as the reference.
# ----------------------------------------------------------------------
def parent_grid_hops(dims, wrap, a, b):
    total, stride = 0, 1
    for dim in reversed(dims):
        d = abs((a // stride) % dim - (b // stride) % dim)
        if wrap and dim - d < d:
            d = dim - d
        total += d
        stride *= dim
    return total


def parent_route(net, src, dst):
    a, b = src // net.ranks_per_node, dst // net.ranks_per_node
    if a != b:
        p = net.system
        return p, p.latency * max(1, net.topology.hops(a, b))
    rpc = net.ranks_per_chip
    p = net.on_chip if src // rpc == dst // rpc else net.on_node
    return p, p.latency


def parent_transfer_time(net, nbytes, src, dst):
    p, latency = parent_route(net, src, dst)
    return latency + net.congestion_factor * nbytes / p.bandwidth


grid_dims = st.lists(st.integers(1, 7), min_size=1, max_size=4).map(tuple)
topologies = st.one_of(
    grid_dims.map(TorusTopology),
    grid_dims.map(MeshTopology),
    st.builds(FatTreeTopology, arity=st.integers(2, 5), levels=st.integers(1, 4)),
    st.integers(1, 700).map(CrossbarTopology),
)


class TestCostsAreTheParents:
    @given(dims=grid_dims, wrap=st.booleans(), data=st.data())
    def test_table_driven_hops(self, dims, wrap, data):
        topology = TorusTopology(dims) if wrap else MeshTopology(dims)
        node = st.integers(0, topology.nnodes - 1)
        a, b = data.draw(node), data.draw(node)
        assert topology.hops(a, b) == parent_grid_hops(dims, wrap, a, b)
        assert topology.hops(a, b) == topology.hops(b, a) <= topology.diameter()

    @given(
        topology=topologies,
        placement=st.sampled_from([(1, 1), (4, 1), (4, 2)]),
        congestion=st.sampled_from([1.0, 1.5, 2.75]),
        nbytes=st.integers(0, 10**9),
        data=st.data(),
    )
    def test_costs_bit_for_bit(self, topology, placement, congestion, nbytes, data):
        """Memoised (up to 512 ranks) or computed, on the instance or
        through the class function: the same floats, ``==``."""
        net = NetworkModel(
            topology, ranks_per_node=placement[0], chips_per_node=placement[1],
            congestion_factor=congestion, latency="1.3us", bandwidth="7GB/s",
        )
        rank = st.integers(0, net.max_ranks() - 1)
        src, dst = data.draw(rank), data.draw(rank)
        p, latency = parent_route(net, src, dst)
        expected = {
            "transfer_time": (latency + congestion * nbytes / p.bandwidth, (nbytes, src, dst)),
            "wire_latency": (latency, (src, dst)),
            "serialization_time": (congestion * nbytes / p.bandwidth, (nbytes, src, dst)),
            "detection_timeout": (p.detection_timeout, (src, dst)),
        }
        for name, (value, args) in expected.items():
            assert getattr(net, name)(*args) == value, name
            assert getattr(NetworkModel, name)(net, *args) == value, name

    def test_a_node_off_the_machine_is_refused_not_wrapped(self):
        net = NetworkModel(TorusTopology((9, 9, 9)))  # computed: tables indexed directly
        for src, dst in ((0, 729), (0, -1), (-3, 5)):
            with pytest.raises(ConfigurationError, match="outside topology"):
                net.transfer_time(8, src, dst)
