"""Local search (Algorithms 3-5) tests: Expand invariants, the paper's
Verify walkthrough, soundness, and the LS/GS ratio experiment in miniature."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.api import gs_nc, ls_nc, ls_topj
from repro.core.local_search import LocalSearch, expand
from repro.core.peeling import (
    cascade_delete,
    nc_mac_at,
    restrict_to_query_component,
    top_j_at,
)
from repro.dominance.graph import DominanceGraph
from repro.errors import QueryError
from repro.geometry.region import PreferenceRegion
from repro.graph.core import k_core_containing, peel_to_k_core
from repro.kernels.search import search_flatgraph

from tests.conftest import (
    paper_attributes,
    paper_social_graph,
    random_graph,
)

H1 = frozenset({2, 3, 6, 7})
H3 = frozenset({2, 3, 4, 5, 6})


@pytest.fixture
def paper_setup(paper_region):
    htk = paper_social_graph().subgraph(range(1, 8))
    attrs = {v: x for v, x in paper_attributes().items() if v <= 7}
    gd = DominanceGraph(attrs, paper_region)
    return htk, gd


class TestExpand:
    def test_candidates_are_k_cores_containing_q(self, paper_setup):
        htk, gd = paper_setup
        for strategy in ("eq3", "eq4"):
            for members in expand(htk, gd, [2, 3, 6], 3, strategy=strategy):
                sub = htk.subgraph(members)
                assert {2, 3, 6} <= members
                assert sub.min_degree() >= 3
                assert sub.is_connected()

    def test_candidates_grow(self, paper_setup):
        htk, gd = paper_setup
        sizes = [len(c) for c in expand(htk, gd, [2, 3, 6], 3)]
        assert sizes == sorted(sizes)

    def test_unknown_strategy(self, paper_setup):
        htk, gd = paper_setup
        with pytest.raises(QueryError):
            expand(htk, gd, [2], 3, strategy="nope")

    def test_max_candidates_respected(self, paper_setup):
        htk, gd = paper_setup
        out = expand(htk, gd, [2], 2, max_candidates=2)
        assert len(out) <= 2


class TestVerifyPaperWalkthrough:
    """Section VI-B: H1 is valid on R1; H3 on R2 ∪ R3; H4 is invalid."""

    def test_h1_and_h3_certified(self, paper_setup, paper_region):
        htk, gd = paper_setup
        ls = LocalSearch(htk, gd, [2, 3, 6], 3, paper_region)
        found = {e.best.members for e in ls.search_nc()}
        assert found == {H1, H3}

    def test_h4_rejected(self, paper_setup, paper_region):
        """H4 = {v1,v2,v3,v6,v7} is a 3-core but never a non-contained
        MAC inside R (its partition falls outside R)."""
        htk, gd = paper_setup
        h4 = frozenset({1, 2, 3, 6, 7})
        assert htk.subgraph(h4).min_degree() >= 3  # sanity: promising
        ls = LocalSearch(htk, gd, [2, 3, 6], 3, paper_region)
        assert ls._verify_candidate(h4) == []

    def test_bound_pair_v4_v5(self, paper_setup):
        """v4 and v5 are bound to each other w.r.t. H1 (Corollary 3(3)):
        each survives only with the other present."""
        htk, gd = paper_setup
        ls = LocalSearch(htk, gd, [2, 3, 6], 3, gd.region)
        h1 = ls._bits.mask(H1)
        assert not ls._survives_alone(4, h1)
        assert not ls._survives_alone(5, h1)

    def test_partition_weights_agree_with_oracle(
        self, paper_setup, paper_region
    ):
        htk, gd = paper_setup
        ls = LocalSearch(htk, gd, [2, 3, 6], 3, paper_region)
        for entry in ls.search_nc():
            w = entry.sample_weight()
            scores = {v: gd.score_at(v, w) for v in htk.vertices()}
            assert entry.best.members == nc_mac_at(htk, [2, 3, 6], 3, scores)


class TestSoundness:
    """LS never reports a community that GS would not (at its sample
    weight) — certification keeps it sound though incomplete."""

    @pytest.mark.parametrize("seed", range(6))
    def test_ls_subset_of_gs(self, seed):
        rng = np.random.default_rng(seed + 31)
        graph = random_graph(14, 0.45, seed=seed * 11 + 2)
        q = [sorted(graph.vertices())[0]]
        htk = k_core_containing(graph, q, 3)
        if htk is None:
            pytest.skip("no k-core")
        region = PreferenceRegion([0.25, 0.25], [0.40, 0.40])
        attrs = {v: rng.uniform(0, 10, 3) for v in htk.vertices()}
        gd = DominanceGraph(attrs, region)
        from repro.core.global_search import GlobalSearch

        gs_found = {
            e.best.members
            for e in GlobalSearch(htk, gd, q, 3, region).search_nc()
        }
        ls = LocalSearch(htk, gd, q, 3, region)
        ls_found = {e.best.members for e in ls.search_nc()}
        assert ls_found <= gs_found
        assert ls_found, "LS must find at least one NC-MAC"

    @pytest.mark.parametrize("seed", range(3))
    def test_ls_topj_matches_oracle_at_sample(self, seed):
        rng = np.random.default_rng(seed)
        graph = random_graph(13, 0.5, seed=seed * 3 + 8)
        q = [sorted(graph.vertices())[0]]
        htk = k_core_containing(graph, q, 3)
        if htk is None:
            pytest.skip("no k-core")
        region = PreferenceRegion([0.25, 0.25], [0.40, 0.40])
        attrs = {v: rng.uniform(0, 10, 3) for v in htk.vertices()}
        gd = DominanceGraph(attrs, region)
        ls = LocalSearch(htk, gd, q, 3, region)
        for entry in ls.search_topj(3):
            w = entry.sample_weight()
            scores = {v: gd.score_at(v, w) for v in htk.vertices()}
            expected = top_j_at(htk, q, 3, scores, 3)
            assert [c.members for c in entry.communities] == expected


class TestEndToEndAPI:
    def test_ls_nc_paper_network(self, paper_network, paper_region):
        res = ls_nc(paper_network, [2, 3, 6], 3, 9.0, paper_region)
        assert {e.best.members for e in res.partitions} == {H1, H3}
        assert res.stats.candidates > 0

    def test_ls_matches_gs_on_paper_network(
        self, paper_network, paper_region
    ):
        """The miniature Fig. 12 experiment: ratio 100% here."""
        gs = gs_nc(paper_network, [2, 3, 6], 3, 9.0, paper_region)
        ls = ls_nc(paper_network, [2, 3, 6], 3, 9.0, paper_region)
        assert ls.nc_communities() == gs.nc_communities()

    def test_ls_topj_paper_network(self, paper_network, paper_region):
        res = ls_topj(paper_network, [2, 3, 6], 3, 9.0, paper_region, j=2)
        w = np.array([0.15, 0.3])
        entry = res.entry_at(w)
        assert entry is not None
        assert entry.communities[0].members == H1
        assert entry.communities[1].members == frozenset(range(2, 8))

    def test_strategies_equally_sound(self, paper_network, paper_region):
        for strategy in ("eq3", "eq4"):
            res = ls_nc(
                paper_network, [2, 3, 6], 3, 9.0, paper_region,
                strategy=strategy,
            )
            assert {e.best.members for e in res.partitions} == {H1, H3}


class TestBitsetVerify:
    """The bitset view that Verify probes agrees with the dict-graph
    references it replaced: ``k_core_containing`` on a subgraph copy,
    ``cascade_delete`` + ``restrict_to_query_component``, and the Gd
    subset sweeps — on random graphs, vertex subsets, Q and k, for the
    python (bitset) and flat (row mask) probes alike."""

    REGION = PreferenceRegion([0.25, 0.25], [0.40, 0.40])

    def make(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(6, 18))
        graph = random_graph(n, float(rng.uniform(0.2, 0.7)), seed=seed)
        attrs = {v: rng.uniform(0, 10, 3) for v in graph.vertices()}
        gd = DominanceGraph(attrs, self.REGION)
        return rng, graph, gd

    def search(self, graph, gd, query, k, flat):
        view = search_flatgraph(graph) if flat else None
        return LocalSearch(graph, gd, query, k, self.REGION, flat=view)

    @staticmethod
    def subset(rng, vertices):
        keep = rng.random(len(vertices)) < rng.uniform(0.3, 1.0)
        return [v for v, kept in zip(vertices, keep) if kept]

    @pytest.mark.parametrize("flat", [False, True])
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_kcore_probe_matches_dict_subgraph(self, seed, flat):
        rng, graph, gd = self.make(seed)
        vertices = sorted(graph.vertices())
        k = int(rng.integers(1, 5))
        query = list(rng.choice(vertices, int(rng.integers(1, 3)), False))
        ls = self.search(graph, gd, query, k, flat)
        for _ in range(4):
            chosen = self.subset(rng, vertices)
            core = ls._kcore_members(ls._bits.mask(chosen))
            expected = k_core_containing(
                graph.subgraph(chosen), query, k, backend="python"
            )
            if expected is None:
                assert core is None
            else:
                assert ls._bits.members(core) == sorted(expected.vertices())

    @pytest.mark.parametrize("flat", [False, True])
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_certify_matches_cascade_delete(self, seed, flat):
        rng, graph, gd = self.make(seed)
        k = int(rng.integers(1, 5))
        core = peel_to_k_core(graph, k, backend="python")
        while core.num_vertices == 0 and k > 1:
            k -= 1
            core = peel_to_k_core(graph, k, backend="python")
        if core.num_vertices == 0:
            return  # an edgeless graph has no candidate to certify
        start = sorted(core.vertices())[int(rng.integers(core.num_vertices))]
        members = frozenset(core.component_of(start))
        query = [start]
        if len(members) > 2 and rng.random() < 0.5:
            query.append(sorted(members - {start})[0])
        ls = self.search(graph, gd, query, k, flat)
        for u in sorted(members - set(query)):
            sub = graph.subgraph(members)
            deleted = cascade_delete(sub, u, k)
            breaks = bool(deleted & set(query)) or \
                restrict_to_query_component(sub, query) is None
            certified = ls._certify_fast(
                ls._root, ls._bits.mask(members), [u]
            )
            assert certified == breaks
            # Every candidate is a connected k-core containing Q, so the
            # bound-vertex test is one popcount; check it against the
            # probe it short-cuts.
            for v in sorted(set(graph.vertices()) - members):
                alone = k_core_containing(
                    graph.subgraph(members | {v}), query, k,
                    backend="python",
                )
                assert ls._survives_alone(v, ls._bits.mask(members)) == (
                    alone is not None and v in alone
                )

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_mask_sweeps_match_gd(self, seed):
        rng, graph, gd = self.make(seed)
        vertices = sorted(graph.vertices())
        bits = self.search(graph, gd, vertices[:1], 1, False)._bits
        for _ in range(4):
            chosen = self.subset(rng, vertices)
            mask = bits.mask(chosen)
            assert bits.members(bits.leaves(mask)) == gd.leaves_within(chosen)
            assert bits.members(bits.tops(mask)) == gd.tops_within(chosen)
            flags = gd.has_descendant_in(set(chosen))
            assert bits.members(bits.dominators(mask)) == [
                v for v in vertices if flags[v]
            ]
