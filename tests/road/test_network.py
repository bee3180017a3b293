"""RoadNetwork and SpatialPoint unit tests."""

import pytest

from repro.errors import GraphError
from repro.road.network import RoadNetwork, SpatialPoint


class TestSpatialPoint:
    def test_vertex_point(self):
        p = SpatialPoint.at_vertex(3)
        assert p.on_vertex
        assert p.u == 3 and p.v is None and p.offset == 0.0

    def test_edge_point(self):
        p = SpatialPoint.on_edge(1, 2, 0.5)
        assert not p.on_vertex
        assert (p.u, p.v, p.offset) == (1, 2, 0.5)

    def test_vertex_point_with_offset_rejected(self):
        with pytest.raises(GraphError):
            SpatialPoint(1, None, 0.5)

    def test_negative_offset_rejected(self):
        with pytest.raises(GraphError):
            SpatialPoint(1, 2, -0.1)

    def test_frozen(self):
        p = SpatialPoint.at_vertex(1)
        with pytest.raises(AttributeError):
            p.u = 2


class TestRoadNetwork:
    def test_add_edge_and_weight(self):
        r = RoadNetwork()
        r.add_edge(1, 2, 5.0)
        assert r.weight(1, 2) == 5.0
        assert r.weight(2, 1) == 5.0
        assert r.num_edges == 1

    def test_edge_reweight_keeps_count(self):
        r = RoadNetwork()
        r.add_edge(1, 2, 5.0)
        r.add_edge(1, 2, 7.0)
        assert r.num_edges == 1
        assert r.weight(1, 2) == 7.0

    def test_negative_weight_rejected(self):
        r = RoadNetwork()
        with pytest.raises(GraphError):
            r.add_edge(1, 2, -1.0)

    def test_self_loop_rejected(self):
        r = RoadNetwork()
        with pytest.raises(GraphError):
            r.add_edge(1, 1, 1.0)

    def test_coordinates(self):
        r = RoadNetwork()
        r.add_vertex(1, (2.0, 3.0))
        r.add_vertex(2)
        assert r.coordinates(1) == (2.0, 3.0)
        assert r.has_coordinates(1)
        assert not r.has_coordinates(2)
        with pytest.raises(GraphError):
            r.coordinates(2)

    def test_validate_point(self):
        r = RoadNetwork()
        r.add_edge(1, 2, 4.0)
        r.validate_point(SpatialPoint.at_vertex(1))
        r.validate_point(SpatialPoint.on_edge(1, 2, 3.0))
        with pytest.raises(GraphError):
            r.validate_point(SpatialPoint.at_vertex(9))
        with pytest.raises(GraphError):
            r.validate_point(SpatialPoint.on_edge(1, 2, 5.0))

    def test_subgraph(self):
        r = RoadNetwork()
        r.add_vertex(1, (0, 0))
        r.add_edge(1, 2, 1.0)
        r.add_edge(2, 3, 1.0)
        s = r.subgraph([1, 2])
        assert set(s.vertices()) == {1, 2}
        assert s.num_edges == 1
        assert s.coordinates(1) == (0.0, 0.0)

    def test_degree_statistics(self, road):
        assert road.num_vertices == 15
        assert road.average_degree() == pytest.approx(
            2 * road.num_edges / 15
        )
        assert road.max_degree() >= 3


class TestFlatWeightPatch:
    """Weight-only edge updates patch the cached CSR view in place."""

    def make(self) -> RoadNetwork:
        r = RoadNetwork()
        r.add_edge(1, 2, 3.0)
        r.add_edge(2, 3, 4.0)
        r.add_edge(1, 3, 5.0)
        return r

    def test_weight_update_keeps_the_cached_view(self):
        r = self.make()
        fg = r.flat()
        r.add_edge(1, 2, 9.0)  # existing edge: weight-only
        assert r.flat() is fg  # the CSR view was patched, not rebuilt
        ru, rv = fg.row_of(1), fg.row_of(2)
        s, e = fg.indptr[ru], fg.indptr[ru + 1]
        assert fg.weights[s:e][fg.indices[s:e] == rv] == 9.0
        s, e = fg.indptr[rv], fg.indptr[rv + 1]
        assert fg.weights[s:e][fg.indices[s:e] == ru] == 9.0
        assert r.weight(1, 2) == 9.0

    def test_new_edge_still_invalidates(self):
        r = self.make()
        fg = r.flat()
        r.add_edge(3, 4, 1.0)  # topology change: CSR must rebuild
        assert r.flat() is not fg
        assert r.flat().n == 4

    def test_readonly_weights_are_copied_not_mutated(self):
        r = self.make()
        fg = r.flat()
        original = fg.weights
        original.flags.writeable = False
        r.add_edge(1, 2, 9.0)
        assert r.flat() is fg
        assert fg.weights is not original  # copy-on-write for mmap views
        assert original.flags.writeable is False

    def test_cached_list_views_are_patched_not_dropped(self):
        from repro.kernels.flatgraph import FlatGraph

        r = self.make()
        fg = r.flat()
        lists, pairs = fg.lists(), fg.adjacency_pairs()
        r.add_edge(3, 1, 0.0)
        r.add_edge(2, 3, 7.5)
        assert fg.lists() is lists and fg.adjacency_pairs() is pairs
        fresh = FlatGraph.from_road(r)
        assert fg.weights.tolist() == fresh.weights.tolist()
        assert fg.lists() == fresh.lists()
        assert fg.adjacency_pairs() == fresh.adjacency_pairs()
