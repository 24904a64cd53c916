"""Interconnect topologies (repro.models.network.topology)."""

import pytest

from repro.models.network.topology import (
    CrossbarTopology,
    FatTreeTopology,
    MeshTopology,
    TorusTopology,
)
from repro.util.errors import ConfigurationError


class TestTorus:
    def test_paper_machine_size(self):
        t = TorusTopology((32, 32, 32))
        assert t.nnodes == 32768

    def test_coords_roundtrip(self):
        t = TorusTopology((4, 3, 2))
        for node in range(t.nnodes):
            assert t.node_at(t.coords(node)) == node

    def test_self_hops_zero(self):
        t = TorusTopology((4, 4, 4))
        assert t.hops(5, 5) == 0

    def test_neighbor_is_one_hop(self):
        t = TorusTopology((4, 4, 4))
        for nb in t.neighbors(0):
            assert t.hops(0, nb) == 1

    def test_wraparound_shortens_distance(self):
        t = TorusTopology((8,))
        assert t.hops(0, 7) == 1  # wrap, not 7

    def test_hops_symmetric(self):
        t = TorusTopology((4, 5))
        for a in range(t.nnodes):
            for b in range(t.nnodes):
                assert t.hops(a, b) == t.hops(b, a)

    def test_diameter(self):
        assert TorusTopology((32, 32, 32)).diameter() == 48
        assert TorusTopology((4, 4)).diameter() == 4

    def test_hops_never_exceed_diameter(self):
        t = TorusTopology((5, 4))
        d = t.diameter()
        assert max(t.hops(0, b) for b in range(t.nnodes)) <= d

    def test_six_neighbors_in_3d(self):
        t = TorusTopology((4, 4, 4))
        assert len(t.neighbors(17)) == 6

    def test_degenerate_dimension_skipped(self):
        t = TorusTopology((4, 1))
        assert len(t.neighbors(0)) == 2  # only the length-4 axis

    def test_size_two_dimension_single_neighbor(self):
        t = TorusTopology((2,))
        assert t.neighbors(0) == [1]  # -1 and +1 wrap to the same node

    def test_out_of_range_rejected(self):
        t = TorusTopology((2, 2))
        with pytest.raises(ConfigurationError):
            t.hops(0, 4)

    def test_bad_dims_rejected(self):
        with pytest.raises(ConfigurationError):
            TorusTopology(())
        with pytest.raises(ConfigurationError):
            TorusTopology((0, 3))


class TestMesh:
    def test_no_wraparound(self):
        m = MeshTopology((8,))
        assert m.hops(0, 7) == 7

    def test_corner_has_fewer_neighbors(self):
        m = MeshTopology((4, 4))
        assert len(m.neighbors(0)) == 2
        assert len(m.neighbors(5)) == 4

    def test_diameter(self):
        assert MeshTopology((4, 4)).diameter() == 6

    def test_node_at_rejects_outside(self):
        m = MeshTopology((4, 4))
        with pytest.raises(ConfigurationError):
            m.node_at((4, 0))

    def test_mesh_distance_ge_torus(self):
        m, t = MeshTopology((6, 6)), TorusTopology((6, 6))
        for a in range(36):
            for b in range(36):
                assert m.hops(a, b) >= t.hops(a, b)


class TestFatTree:
    def test_size(self):
        assert FatTreeTopology(arity=4, levels=3).nnodes == 64

    def test_same_switch_two_hops(self):
        ft = FatTreeTopology(arity=4, levels=3)
        assert ft.hops(0, 1) == 2

    def test_cross_tree_distance(self):
        ft = FatTreeTopology(arity=4, levels=3)
        assert ft.hops(0, 63) == 6  # via the root

    def test_diameter(self):
        assert FatTreeTopology(arity=4, levels=3).diameter() == 6

    def test_neighbors_share_leaf_switch(self):
        ft = FatTreeTopology(arity=4, levels=2)
        assert ft.neighbors(5) == [4, 6, 7]

    def test_hops_symmetric(self):
        ft = FatTreeTopology(arity=3, levels=3)
        for a in range(0, ft.nnodes, 5):
            for b in range(0, ft.nnodes, 7):
                assert ft.hops(a, b) == ft.hops(b, a)

    def test_bad_params_rejected(self):
        with pytest.raises(ConfigurationError):
            FatTreeTopology(arity=1, levels=2)


class TestCrossbar:
    def test_crossbar_one_hop(self):
        x = CrossbarTopology(10)
        assert x.hops(2, 7) == 1
        assert x.hops(3, 3) == 0
        assert x.diameter() == 1

    def test_all_others_are_neighbors(self):
        assert len(CrossbarTopology(10).neighbors(0)) == 9

    def test_single_node_machines(self):
        assert CrossbarTopology(1).diameter() == 0

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            CrossbarTopology(0)
        with pytest.raises(ConfigurationError):
            CrossbarTopology(-1)
