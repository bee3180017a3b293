"""G-tree correctness: exact agreement with plain Dijkstra."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.errors import GraphError
from repro.road.dijkstra import bounded_dijkstra, dijkstra, network_distance
from repro.road.gtree import GTree
from repro.road.network import RoadNetwork, SpatialPoint

from tests.conftest import (
    REWEIGHT_KINDS,
    check_reweight_repair,
    paper_road,
    reweight_batches,
    reweight_targets,
)


def _grid_road(side: int, seed: int) -> RoadNetwork:
    rng = np.random.default_rng(seed)
    road = RoadNetwork()
    for i in range(side):
        for j in range(side):
            road.add_vertex(i * side + j, (float(j), float(i)))
    for i in range(side):
        for j in range(side):
            v = i * side + j
            if j + 1 < side and rng.random() < 0.9:
                road.add_edge(v, v + 1, float(rng.uniform(1, 5)))
            if i + 1 < side and rng.random() < 0.9:
                road.add_edge(v, v + side, float(rng.uniform(1, 5)))
    return road


class TestConstruction:
    def test_leaf_size_validation(self):
        with pytest.raises(GraphError):
            GTree(paper_road(), leaf_size=1)

    def test_every_vertex_in_exactly_one_leaf(self):
        road = _grid_road(8, 0)
        gt = GTree(road, leaf_size=8)
        assert gt.num_leaves >= 2
        for v in road.vertices():
            gt.leaf_of(v)  # must not raise

    def test_unknown_vertex(self):
        gt = GTree(paper_road(), leaf_size=4)
        with pytest.raises(GraphError):
            gt.leaf_of(999)


class TestRangeQuery:
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("bound", [3.0, 8.0, 20.0])
    def test_matches_bounded_dijkstra(self, seed, bound):
        road = _grid_road(7, seed)
        gt = GTree(road, leaf_size=6)
        for source in [0, 24, 48]:
            expected = bounded_dijkstra(road, source, bound)
            actual = gt.range_query(source, bound)
            assert set(actual) == set(expected)
            for v, d in expected.items():
                assert actual[v] == pytest.approx(d)

    def test_unbounded_matches_full_dijkstra(self):
        road = _grid_road(6, 5)
        gt = GTree(road, leaf_size=5)
        expected = dijkstra(road, 7)
        actual = gt.range_query(7, float("inf"))
        assert set(actual) == set(expected)
        for v, d in expected.items():
            assert actual[v] == pytest.approx(d)

    def test_source_on_edge(self):
        road = _grid_road(6, 2)
        gt = GTree(road, leaf_size=5)
        u, v, w = next(iter(road.edges()))
        p = SpatialPoint.on_edge(u, v, w / 3)
        expected = bounded_dijkstra(road, p, 10.0)
        actual = gt.range_query(p, 10.0)
        assert set(actual) == set(expected)
        for x, d in expected.items():
            assert actual[x] == pytest.approx(d)

    def test_small_bound_stays_in_source_leaf(self):
        road = _grid_road(8, 1)
        gt = GTree(road, leaf_size=8)
        actual = gt.range_query(0, 1.0)
        expected = bounded_dijkstra(road, 0, 1.0)
        assert set(actual) == set(expected)

    def test_disconnected_component_unreachable(self):
        road = _grid_road(5, 3)
        road.add_vertex(999, (50.0, 50.0))
        road.add_vertex(998, (51.0, 50.0))
        road.add_edge(998, 999, 1.0)
        gt = GTree(road, leaf_size=5)
        result = gt.range_query(0, 100.0)
        assert 999 not in result and 998 not in result


class TestDistance:
    def test_matches_network_distance(self):
        road = _grid_road(6, 4)
        gt = GTree(road, leaf_size=5)
        rng = np.random.default_rng(0)
        vertices = sorted(road.vertices())
        for _ in range(10):
            a, b = rng.choice(vertices, 2)
            assert gt.distance(int(a), int(b)) == pytest.approx(
                network_distance(road, int(a), int(b))
            )

    def test_paper_road_distances(self):
        road = paper_road()
        gt = GTree(road, leaf_size=4)
        assert gt.distance(7, 6) == pytest.approx(7.0)
        assert gt.distance(3, 6) == pytest.approx(9.0)


class TestQueryDistanceFilter:
    def test_matches_dijkstra_backend(self):
        from repro.road.dijkstra import query_distances

        road = _grid_road(7, 6)
        gt = GTree(road, leaf_size=6)
        points = [SpatialPoint.at_vertex(0), SpatialPoint.at_vertex(30)]
        for bound in (5.0, 12.0):
            expected = query_distances(road, points, bound)
            actual = gt.query_distances(points, bound)
            assert set(actual) == set(expected)
            for v, d in expected.items():
                assert actual[v] == pytest.approx(d)


class TestReweighted:
    """``GTree.reweighted``: copy-on-write repair after weight changes."""

    @pytest.mark.parametrize("backend", ["python", "flat"])
    @settings(max_examples=25, deadline=None)
    @given(batches=reweight_batches())
    def test_repair_equals_fresh_build(self, backend, batches):
        road = _grid_road(7, 3)
        check_reweight_repair(
            road, GTree(road, leaf_size=6, backend=backend), batches
        )

    def test_grid_has_every_edge_kind(self):
        road = _grid_road(7, 3)
        groups = reweight_targets(road, GTree(road, leaf_size=6))
        assert all(groups[kind] for kind in REWEIGHT_KINDS)

    def test_only_the_lca_path_is_rebuilt(self):
        road = _grid_road(8, 0)
        gt = GTree(road, leaf_size=8)
        u, v = reweight_targets(road, gt)["intra_leaf"][0]
        road.add_edge(u, v, 0.5)
        repaired = gt.reweighted([(u, v)])
        path = set()
        idx = gt.leaf_of(u)
        while idx is not None:
            path.add(idx)
            idx = gt._nodes[idx].parent
        for old, new in zip(gt._nodes, repaired._nodes):
            assert (old is not new) == (old.index in path)
        assert repaired._leaf_of is gt._leaf_of
        assert repaired._border_nodes is gt._border_nodes

    def test_empty_batch_shares_every_node(self):
        road = _grid_road(5, 1)
        gt = GTree(road, leaf_size=5)
        repaired = gt.reweighted([])
        assert all(a is b for a, b in zip(gt._nodes, repaired._nodes))

    def test_unknown_edge_endpoint(self):
        gt = GTree(paper_road(), leaf_size=4)
        with pytest.raises(GraphError):
            gt.reweighted([(1, 999)])
