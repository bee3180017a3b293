"""`MACEngine.apply`: equivalence with rebuilds and footprint-scoped eviction."""

import sys
import threading

import pytest

from repro import MACEngine, MACRequest, PreferenceRegion
from repro.errors import MutationError
from repro.live import (
    add_social_edge,
    move_user,
    remove_social_edge,
    update_attributes,
    update_road_weight,
)
from repro.road.gtree import GTree
from repro.road.network import SpatialPoint
from repro.social.network import SocialNetwork
from repro.social.roadsocial import RoadSocialNetwork

from tests.conftest import paper_attributes, paper_road, paper_social_graph

REGION = PreferenceRegion([0.1, 0.2], [0.5, 0.4])

BACKENDS = ("python", "flat")


def make_network(mutate=None) -> RoadSocialNetwork:
    """The paper network, optionally with ``mutate(network)`` pre-applied."""
    locations = {v: SpatialPoint.at_vertex(v) for v in range(1, 16)}
    network = RoadSocialNetwork(
        paper_road(),
        SocialNetwork(paper_social_graph(), paper_attributes(), locations),
    )
    if mutate is not None:
        mutate(network)
    return network


def make_request(**knobs) -> MACRequest:
    knobs.setdefault("algorithm", "global")
    return MACRequest.make((2, 3, 6), 3, 9.0, REGION, **knobs)


def stable(result) -> tuple:
    return (
        result.htk_vertices,
        [sorted(entry.best.members) for entry in result.partitions],
    )


class TestEquivalence:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_social_edge_batch_matches_rebuild(self, backend):
        engine = MACEngine(make_network(), backend=backend)
        engine.search(make_request())  # warm every stage
        summary = engine.apply([
            add_social_edge(1, 4), remove_social_edge(2, 5),
        ])
        assert summary["applied"] == 2
        assert summary["by_kind"] == {
            "add_social_edge": 1, "remove_social_edge": 1,
        }
        assert summary["delta_seq"] == 1

        def mutate(network):
            network.social.graph.add_edge(1, 4)
            network.social.graph.remove_edge(2, 5)

        reference = MACEngine(make_network(mutate), backend=backend)
        request = make_request()
        assert stable(engine.search(request)) == stable(
            reference.search(request)
        )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_attribute_update_matches_rebuild(self, backend):
        engine = MACEngine(make_network(), backend=backend)
        engine.search(make_request())
        engine.apply([update_attributes(3, [9.5, 9.5, 9.5])])

        def mutate(network):
            network.social.set_attributes(3, (9.5, 9.5, 9.5))

        reference = MACEngine(make_network(mutate), backend=backend)
        request = make_request()
        assert stable(engine.search(request)) == stable(
            reference.search(request)
        )

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("use_gtree", [True, False])
    def test_road_weight_update_matches_rebuild(
        self, backend, use_gtree, monkeypatch
    ):
        # leaf_size 4 splits the 15-vertex road into a multi-level tree
        knobs = dict(backend=backend, use_gtree=use_gtree, gtree_leaf_size=4)
        engine = MACEngine(make_network(), **knobs)
        engine.search(make_request())
        assert engine.network.has_gtree == use_gtree
        builds = []
        init = GTree.__init__

        def counting_init(tree, *args, **kwargs):
            builds.append(args)
            init(tree, *args, **kwargs)

        monkeypatch.setattr(GTree, "__init__", counting_init)
        engine.apply([
            update_road_weight(6, 7, 20.0), update_road_weight(1, 2, 0.0),
        ])
        request = make_request()
        served = engine.search(request)
        assert builds == []  # repaired in place, never rebuilt
        assert engine.network.has_gtree == use_gtree
        monkeypatch.undo()

        def mutate(network):
            network.road.add_edge(6, 7, 20.0)
            network.road.add_edge(1, 2, 0.0)

        reference = MACEngine(make_network(mutate), **knobs)
        # rerouting 6-7 pushes v7's query distance past t: the filter
        # shrinks, so this really exercises the global eviction
        assert stable(served) == stable(reference.search(request))
        if use_gtree:
            fresh = reference.network.gtree
            repaired = engine.network.gtree
            assert [n.matrix for n in repaired._nodes] == [
                n.matrix for n in fresh._nodes
            ]

    def test_move_user_matches_rebuild(self):
        engine = MACEngine(make_network())
        engine.search(make_request())
        engine.apply([move_user(12, SpatialPoint.at_vertex(1))])

        def mutate(network):
            network.social.set_location(12, SpatialPoint.at_vertex(1))

        reference = MACEngine(make_network(mutate))
        request = make_request()
        assert stable(engine.search(request)) == stable(
            reference.search(request)
        )

    def test_wire_dicts_are_accepted(self):
        engine = MACEngine(make_network())
        summary = engine.apply([{"op": "add_social_edge", "u": 1, "v": 4}])
        assert summary["by_kind"] == {"add_social_edge": 1}
        assert engine.network.social.graph.has_edge(1, 4)


class TestFootprint:
    def test_disjoint_edge_keeps_everything_warm(self):
        engine = MACEngine(make_network())
        engine.search(make_request())
        # (12, 15): both endpoints outside the warm (Q, t=9) filter
        summary = engine.apply([add_social_edge(12, 15)])
        assert summary["evicted"] == 0
        again = engine.search(make_request())
        assert again.extra["engine"]["cache"] == {"result": "hit"}
        assert engine.telemetry().cache_evicted_by_mutation == 0

    def test_insert_repairs_warm_filter_in_place(self):
        engine = MACEngine(make_network())
        engine.search(make_request())
        summary = engine.apply([add_social_edge(1, 4)])
        assert summary["repaired_entries"] >= 1
        assert summary["evicted"] >= 1  # both endpoints are members
        again = engine.search(make_request())
        # downstream stages recompute, but the repaired filter stays warm
        assert again.extra["engine"]["cache"]["filter"] == "hit"

    def test_member_edge_delete_evicts(self):
        engine = MACEngine(make_network())
        engine.search(make_request())
        summary = engine.apply([remove_social_edge(2, 7)])
        assert summary["evicted"] >= 1
        again = engine.search(make_request())
        assert again.extra["engine"]["cache"].get("result") != "hit"

    def test_non_member_attribute_update_keeps_entries(self):
        engine = MACEngine(make_network())
        engine.search(make_request())
        summary = engine.apply([update_attributes(12, [0.5, 0.5, 0.5])])
        assert summary["evicted"] == 0
        again = engine.search(make_request())
        assert again.extra["engine"]["cache"] == {"result": "hit"}

    def test_member_attribute_update_evicts(self):
        engine = MACEngine(make_network())
        engine.search(make_request())
        summary = engine.apply([update_attributes(5, [0.5, 0.5, 0.5])])
        assert summary["evicted"] >= 1

    def test_move_and_road_weight_evict_globally(self):
        engine = MACEngine(make_network())
        engine.search(make_request())
        summary = engine.apply([move_user(12, SpatialPoint.at_vertex(1))])
        assert summary["evicted"] >= 1
        engine.search(make_request())
        summary = engine.apply([update_road_weight(11, 12, 2.0)])
        assert summary["evicted"] >= 1


class TestAtomicity:
    def test_rejected_batch_leaves_everything_untouched(self):
        engine = MACEngine(make_network())
        engine.search(make_request())
        with pytest.raises(MutationError, match="mutation 1"):
            engine.apply([
                add_social_edge(1, 4),
                add_social_edge(2, 3),  # already exists
            ])
        assert not engine.network.social.graph.has_edge(1, 4)
        assert engine.delta_seq == 0
        assert engine.telemetry().mutations == 0
        again = engine.search(make_request())
        assert again.extra["engine"]["cache"] == {"result": "hit"}

    def test_empty_batch_is_rejected(self):
        with pytest.raises(MutationError, match="batch is empty"):
            MACEngine(make_network()).apply([])


class TestBuildRacingApply:
    """A stage build that overlaps a batch answers its caller, uncached.

    The racing build is parked on an event mid-flight (no sleeps), the
    batch runs to completion, then the build is released.  Its caller is
    ordered before the batch; every later query must match a fresh
    engine over the mutated network.
    """

    def race(self, engine, request, block_on, batch, monkeypatch,
             during=None):
        entered, release = threading.Event(), threading.Event()
        owner, name = block_on
        real = getattr(owner, name)

        def blocking(*args, **kwargs):
            out = real(*args, **kwargs)
            entered.set()
            assert release.wait(10)
            return out

        monkeypatch.setattr(owner, name, blocking)
        answers = []
        racer = threading.Thread(
            target=lambda: answers.append(engine.search(request))
        )
        racer.start()
        assert entered.wait(10)
        engine.apply(batch)
        monkeypatch.undo()
        if during is not None:
            during()
        release.set()
        racer.join(10)
        assert not racer.is_alive() and len(answers) == 1
        return answers[0]

    def test_filter_build_racing_road_weight(self, monkeypatch):
        engine = MACEngine(make_network())
        request = make_request()
        early = self.race(
            engine, request,
            (engine.network, "query_distance_filter"),
            [update_road_weight(6, 7, 20.0)], monkeypatch,
        )
        before = MACEngine(make_network()).search(request)
        assert stable(early) == stable(before)  # ordered before the batch

        def mutate(network):
            network.road.add_edge(6, 7, 20.0)

        reference = MACEngine(make_network(mutate))
        assert stable(engine.search(request)) == stable(
            reference.search(request)
        )
        assert stable(reference.search(request)) != stable(before)

    def test_filter_build_racing_social_edge_repair(self, monkeypatch):
        import repro.engine.engine as engine_module

        engine = MACEngine(make_network(), backend="python")
        warm = make_request()
        engine.search(warm)  # (Q, t=9): repaired in place by the batch
        racing = MACRequest.make((2, 3, 6), 3, 10.0, REGION,
                                 algorithm="global")
        self.race(
            engine, racing, (engine_module, "core_decomposition"),
            [add_social_edge(1, 4)], monkeypatch,
        )

        def mutate(network):
            network.social.graph.add_edge(1, 4)

        reference = MACEngine(make_network(mutate), backend="python")
        for request in (warm, racing):
            assert stable(engine.search(request)) == stable(
                reference.search(request)
            )

    @pytest.mark.parametrize("start, end, sibling_first", [
        # H^t_k shrinks 7 -> 5: the parked request, holding the old
        # core, must not use the post-batch graph a sibling cached.
        (7.0, 20.0, True),
        # H^t_k grows 5 -> 7: the graph the parked request builds from
        # its old core lacks new members and must not be cached.
        (20.0, 7.0, False),
    ])
    def test_dominance_built_from_a_core_read_before_the_batch(
        self, start, end, sibling_first, monkeypatch
    ):
        def weight(w):
            return lambda network: network.road.add_edge(6, 7, w)

        engine = MACEngine(make_network(weight(start)))
        request = make_request()
        # Another result key with the same (Q, k, t, R) dominance key.
        sibling = make_request(algorithm="local")
        early = self.race(
            engine, request, (engine, "_prepared_core"),
            [update_road_weight(6, 7, end)], monkeypatch,
            during=(lambda: engine.search(sibling)) if sibling_first else None,
        )
        before = MACEngine(make_network(weight(start))).search(request)
        assert stable(early) == stable(before)
        reference = MACEngine(make_network(weight(end)))
        for req in (request, sibling):
            assert stable(engine.search(req)) == stable(
                reference.search(req)
            )

    def test_anytime_result_racing_a_batch_is_not_cached(self, monkeypatch):
        engine = MACEngine(make_network())
        request = make_request(anytime=True, deadline=60.0)
        self.race(
            engine, request,
            (engine.network, "query_distance_filter"),
            [update_road_weight(6, 7, 20.0)], monkeypatch,
        )
        again = engine.search(request)
        assert again.extra["engine"]["cache"]["result"] == "miss"


    def test_stress_searches_against_batches(self):
        """Searches race batches; no search fails, nothing stale is cached.

        Probabilistic: each round gives the four searchers a fresh
        engine to race against the same four batches.
        """
        knobs = dict(use_gtree=True, gtree_leaf_size=4)
        requests = [
            MACRequest.make((2, 3, 6), 3, t, REGION, algorithm="global")
            for t in (9.0, 10.0, 12.0)
        ]
        batches = [
            [update_road_weight(6, 7, 20.0), add_social_edge(1, 4)],
            [update_road_weight(1, 2, 0.0)],
            [remove_social_edge(1, 4), update_road_weight(6, 7, 7.0)],
            [update_road_weight(2, 3, 1.0), add_social_edge(1, 4)],
        ]

        def mutate(network):
            for u, v, w in ((6, 7, 7.0), (1, 2, 0.0), (2, 3, 1.0)):
                network.road.add_edge(u, v, w)
            network.social.graph.add_edge(1, 4)

        reference = MACEngine(make_network(mutate), **knobs)
        expected = [stable(reference.search(r)) for r in requests]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _round in range(10):
                engine = MACEngine(make_network(), **knobs)
                errors = self.hammer(engine, requests, batches)
                assert errors == []
                assert [stable(engine.search(r)) for r in requests] == expected
        finally:
            sys.setswitchinterval(interval)

    @staticmethod
    def hammer(engine, requests, batches) -> list:
        """Apply ``batches`` while four threads search; their errors."""
        done = threading.Event()
        errors = []

        def searcher(offset):
            i = offset
            while not done.is_set():
                try:
                    engine.search(requests[i % len(requests)])
                except Exception as exc:  # returned to the caller
                    errors.append(exc)
                    return
                i += 1

        threads = [
            threading.Thread(target=searcher, args=(n,)) for n in range(4)
        ]
        try:
            for thread in threads:
                thread.start()
            for batch in batches:
                engine.apply(batch)
        finally:
            done.set()
            for thread in threads:
                thread.join(30)
        assert not any(thread.is_alive() for thread in threads)
        return errors


class TestTelemetry:
    def test_counters_and_delta_seq(self):
        engine = MACEngine(make_network())
        engine.apply([add_social_edge(1, 4)])
        engine.apply([
            remove_social_edge(1, 4), update_attributes(3, [1.0, 1.0, 1.0]),
        ])
        assert engine.delta_seq == 2
        tel = engine.telemetry()
        assert tel.mutations == 3
        assert tel.mutations_by_kind == {
            "add_social_edge": 1,
            "remove_social_edge": 1,
            "update_attributes": 1,
        }

    def test_reset_preserves_delta_seq(self):
        engine = MACEngine(make_network())
        engine.apply([add_social_edge(1, 4)])
        engine.reset_telemetry()
        assert engine.telemetry().mutations == 0
        # delta_seq is state (snapshot replay depth), not a counter
        assert engine.delta_seq == 1
