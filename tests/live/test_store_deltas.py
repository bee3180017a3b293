"""The append-only delta log beside a snapshot, and replay on load."""

import json

import pytest

from repro import MACEngine, MACRequest, PreferenceRegion
from repro.errors import SnapshotError
from repro.live import (
    add_social_edge,
    remove_social_edge,
    update_attributes,
    update_road_weight,
)
from repro.road.gtree import GTree
from repro.road.network import SpatialPoint
from repro.social.network import SocialNetwork
from repro.social.roadsocial import RoadSocialNetwork
from repro.store import DELTA_VERSION, append_delta, read_deltas
from repro.store.snapshot import snapshot_info

from tests.conftest import paper_attributes, paper_road, paper_social_graph

REGION = PreferenceRegion([0.1, 0.2], [0.5, 0.4])


def make_network(road_weights=()) -> RoadSocialNetwork:
    """The paper network, with ``(u, v, weight)`` road re-weights applied."""
    locations = {v: SpatialPoint.at_vertex(v) for v in range(1, 16)}
    road = paper_road()
    for u, v, w in road_weights:
        road.add_edge(u, v, w)
    return RoadSocialNetwork(
        road,
        SocialNetwork(paper_social_graph(), paper_attributes(), locations),
    )


def make_request(**knobs) -> MACRequest:
    knobs.setdefault("algorithm", "global")
    return MACRequest.make((2, 3, 6), 3, 9.0, REGION, **knobs)


@pytest.fixture
def snapshot(tmp_path):
    path = tmp_path / "snap"
    MACEngine(make_network()).save(path)
    return path


class TestAppendAndRead:
    def test_missing_log_is_depth_zero(self, snapshot):
        assert read_deltas(snapshot) == []
        assert snapshot_info(snapshot)["delta_depth"] == 0

    def test_append_assigns_gapless_sequence(self, snapshot):
        assert append_delta(snapshot, [add_social_edge(1, 4)]) == 1
        assert append_delta(
            snapshot, [{"op": "remove_social_edge", "u": 1, "v": 4}]
        ) == 2
        records = read_deltas(snapshot)
        assert [r["seq"] for r in records] == [1, 2]
        assert all(r["delta_version"] == DELTA_VERSION for r in records)
        assert records[0]["mutations"] == [
            {"op": "add_social_edge", "u": 1, "v": 4}
        ]
        assert snapshot_info(snapshot)["delta_depth"] == 2

    def test_append_requires_a_real_snapshot(self, tmp_path):
        with pytest.raises(SnapshotError):
            append_delta(tmp_path / "nowhere", [add_social_edge(1, 4)])


class TestReadValidation:
    def _write(self, snapshot, text):
        (snapshot / "deltas.jsonl").write_text(text)

    def test_corrupt_json_is_typed(self, snapshot):
        self._write(snapshot, "{not json\n")
        with pytest.raises(SnapshotError, match="corrupted delta log"):
            read_deltas(snapshot)

    def test_version_mismatch_is_typed(self, snapshot):
        self._write(snapshot, json.dumps(
            {"delta_version": 99, "seq": 1,
             "mutations": [{"op": "add_social_edge", "u": 1, "v": 4}]}
        ) + "\n")
        with pytest.raises(SnapshotError, match="version 99"):
            read_deltas(snapshot)

    def test_empty_mutations_is_typed(self, snapshot):
        self._write(snapshot, json.dumps(
            {"delta_version": DELTA_VERSION, "seq": 1, "mutations": []}
        ) + "\n")
        with pytest.raises(SnapshotError, match="no mutations"):
            read_deltas(snapshot)

    def test_sequence_gap_is_typed(self, snapshot):
        self._write(snapshot, json.dumps(
            {"delta_version": DELTA_VERSION, "seq": 5,
             "mutations": [{"op": "add_social_edge", "u": 1, "v": 4}]}
        ) + "\n")
        with pytest.raises(SnapshotError, match="seq"):
            read_deltas(snapshot)


class TestReplayOnLoad:
    def test_load_fast_forwards_through_the_log(self, snapshot):
        append_delta(snapshot, [add_social_edge(1, 4)])
        append_delta(snapshot, [
            remove_social_edge(2, 5),
            update_attributes(3, [9.5, 9.5, 9.5]),
        ])
        engine = MACEngine.load(snapshot, make_network())
        assert engine.delta_seq == 2
        graph = engine.network.social.graph
        assert graph.has_edge(1, 4) and not graph.has_edge(2, 5)

        def mutate(network):
            network.social.graph.add_edge(1, 4)
            network.social.graph.remove_edge(2, 5)
            network.social.set_attributes(3, (9.5, 9.5, 9.5))

        reference_network = make_network()
        mutate(reference_network)
        reference = MACEngine(reference_network)
        request = make_request()
        served, expected = engine.search(request), reference.search(request)
        assert served.htk_vertices == expected.htk_vertices
        assert served.communities() == expected.communities()

    def test_base_snapshot_is_never_rewritten(self, snapshot):
        digest_before = (snapshot / "manifest.json").read_bytes()
        append_delta(snapshot, [add_social_edge(1, 4)])
        MACEngine.load(snapshot, make_network())
        assert (snapshot / "manifest.json").read_bytes() == digest_before

    def test_replay_failure_names_the_seq(self, snapshot):
        # (2, 3) already exists in the base network: seq 1 cannot apply
        append_delta(snapshot, [add_social_edge(2, 3)])
        with pytest.raises(SnapshotError, match="seq 1"):
            MACEngine.load(snapshot, make_network())


class TestRoadWeightReplay:
    """Road re-weights replayed from the log repair the restored G-tree."""

    BATCHES = [
        [(6, 7, 20.0)],
        [(1, 2, 0.0), (9, 14, 1.5)],
    ]
    #: leaf_size 4 splits the 15-vertex road into a multi-level tree
    KNOBS = dict(use_gtree=True, gtree_leaf_size=4)

    @pytest.fixture(params=["python", "flat"])
    def gtree_snapshot(self, request, tmp_path):
        path = tmp_path / "snap"
        engine = MACEngine(make_network(), backend=request.param,
                           eager=True, **self.KNOBS)
        engine.search(make_request())
        engine.save(path)
        for batch in self.BATCHES:
            append_delta(path, [update_road_weight(*m) for m in batch])
        return path, request.param

    def mutated(self, backend) -> MACEngine:
        weights = [m for batch in self.BATCHES for m in batch]
        return MACEngine(make_network(weights), backend=backend,
                         eager=True, **self.KNOBS)

    @staticmethod
    def matrices(network) -> list:
        return [node.matrix for node in network.gtree._nodes]

    def test_replay_repairs_instead_of_rebuilding(
        self, gtree_snapshot, monkeypatch
    ):
        path, backend = gtree_snapshot
        monkeypatch.setattr(
            GTree, "__init__",
            lambda *a, **k: pytest.fail("G-tree rebuilt during replay"),
        )
        engine = MACEngine.load(path, make_network())
        request = make_request()
        served = engine.search(request)
        monkeypatch.undo()
        assert engine.delta_seq == len(self.BATCHES)
        reference = self.mutated(backend)
        assert self.matrices(engine.network) == self.matrices(
            reference.network
        )
        expected = reference.search(request)
        assert served.htk_vertices == expected.htk_vertices
        assert served.communities() == expected.communities()

    def test_save_after_repair_persists_repaired_matrices(
        self, gtree_snapshot, tmp_path
    ):
        path, backend = gtree_snapshot
        engine = MACEngine.load(path, make_network())
        resaved = tmp_path / "resaved"
        engine.save(resaved)
        weights = [m for batch in self.BATCHES for m in batch]
        reloaded = MACEngine.load(resaved, make_network(weights))
        assert reloaded.delta_seq == 0
        assert self.matrices(reloaded.network) == self.matrices(
            engine.network
        )
        assert self.matrices(reloaded.network) == self.matrices(
            self.mutated(backend).network
        )
