"""Algorithms 3-5: the local search framework (LS-T / LS-NC).

``Expand`` (Algorithm 4) grows candidate communities from the vicinity of
Q with a best-first frontier; the vertex priority is Eq. 3
(``f = lambda * f2 + f3``, degree-into-H plus dominance-layer) or Eq. 4
(``f = zeta * f1 + f3``, min-degree-gain plus layer).  Whenever the grown
induced subgraph is a connected k-core containing Q it is snapshotted as
a candidate.

``Verify`` (Algorithm 5) screens candidates with Corollary 2 (an outside
leaf of Gd must exist; an outside r-dominator of a member must be
recursively deletable), computes *bound* outside vertices and *anchors*
(Lemma 8), partitions R by the competitor half-spaces between the bottom
layer of Ge and the (bound-adjusted) top layer of Gc plus the anchor
comparisons (Corollary 3), and finally certifies each sub-cell by running
the exact peeling oracle at the cell's interior point.  Certification
keeps LS sound for its sampled weight while staying incomplete exactly
like the paper's local search (the Fig. 12 ratio experiment).

Every Verify test reduces to "the connected k-ĉore containing Q of
H^t_k[S]" for some vertex set S, or to a Gd sweep (leaves, tops,
r-dominators of S).  One search builds a bitset view of H^t_k once
(:class:`_BitView`): bit i is the i-th smallest vertex id, S is a Python
``int``, adjacency and the Gd descendant/ancestor closures are ``int``
masks, so a sweep is a few big-int operations per member and a python
k-ĉore probe peels with ``(adj[i] & S).bit_count() < k`` instead of
copying a dict subgraph.  The flat backend keeps its CSR probes: bit i
is also row i of the flat view, so a mask converts to a row mask with
one ``unpackbits``.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterable

import numpy as np

from repro.deadline import Deadline
from repro.dominance.graph import DominanceGraph
from repro.errors import QueryError
from repro.geometry.cell import Cell
from repro.geometry.partition_tree import PartitionTree
from repro.geometry.region import PreferenceRegion
from repro.graph.adjacency import AdjacencyGraph
from repro.kernels.flatgraph import FlatGraph
from repro.kernels.search import k_core_containing_rows
from repro.core.global_search import SearchStats
from repro.core.peeling import deletion_chain
from repro.core.query import Community, PartitionEntry

#: Eq. 3 / Eq. 4 constants, as used in the paper's experiments.
ZETA = 100
LAMBDA = 10


class _UnionFind:
    """Tiny union-find for the Q-connectivity snapshot check."""

    def __init__(self) -> None:
        self.parent: dict[int, int] = {}

    def add(self, v: int) -> None:
        self.parent.setdefault(v, v)

    def find(self, v: int) -> int:
        root = v
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[v] != root:
            self.parent[v], v = root, self.parent[v]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def expand(
    htk: AdjacencyGraph,
    gd: DominanceGraph,
    query: Iterable[int],
    k: int,
    strategy: str = "eq3",
    max_candidates: int = 24,
    max_vertices: int | None = None,
    deadline: Deadline | None = None,
    flat: FlatGraph | None = None,
    anytime: bool = False,
) -> list[frozenset[int]]:
    """Algorithm 4: candidate communities around Q, smallest first.

    ``strategy`` selects the priority function: ``"eq3"`` (degree-driven,
    Eq. 3) or ``"eq4"`` (min-degree-gain-driven, Eq. 4).  The frontier is
    a push-style best-first queue (the Andersen et al. PPR-push idiom):
    adding a member *pushes* priority increments to its neighbors instead
    of recomputing scores from scratch, so good communities surface
    early.  ``flat`` selects the array-backed implementation (a
    :func:`~repro.kernels.search.search_flatgraph` view of ``htk``);
    both paths visit vertices in the identical order — neighbor pushes
    happen in sorted order, stale entries re-enter the heap with their
    original tie-break counter — so the candidate stream is
    bit-identical across backends.  With ``anytime`` set, deadline
    expiry stops the expansion and returns the candidates found so far
    instead of raising.
    """
    if strategy not in ("eq3", "eq4"):
        raise QueryError(f"unknown expand strategy {strategy!r}")
    if flat is not None:
        return _expand_flat(
            flat, gd, query, k, strategy, max_candidates,
            max_vertices, deadline, anytime,
        )
    q = sorted(set(query))
    members: set[int] = set(q)
    degree_in = {v: 0 for v in q}
    uf = _UnionFind()
    for v in q:
        uf.add(v)
    for v in q:
        for u in htk.neighbors(v):
            if u in members:
                degree_in[v] += 1
                uf.union(v, u)
    zeta = max(ZETA, gd.max_layer() + 1)

    def f3(v: int) -> int:
        return zeta - gd.layer(v)

    def priority(v: int) -> float:
        gain = sum(1 for u in htk.neighbors(v) if u in members)
        if strategy == "eq3":
            return LAMBDA * gain + f3(v)
        # Eq. 4: f1 is 1 when adding v raises the current minimum degree.
        current_min = min(degree_in[m] for m in members)
        joined_min = min(
            min(
                degree_in[m] + (1 if v in htk.neighbors(m) else 0)
                for m in members
            ),
            gain,
        )
        f1 = 1 if joined_min > current_min else 0
        return zeta * f1 + f3(v)

    counter = 0
    heap: list[tuple[float, int, int]] = []
    in_heap: set[int] = set()

    def push(v: int) -> None:
        nonlocal counter
        counter += 1
        heapq.heappush(heap, (-priority(v), counter, v))
        in_heap.add(v)

    for v in q:
        for u in sorted(htk.neighbors(v)):
            if u not in members and u not in in_heap:
                push(u)

    candidates: list[frozenset[int]] = []
    budget = max_vertices if max_vertices is not None else htk.num_vertices
    deficient = sum(1 for v in members if degree_in[v] < k)
    while heap and len(candidates) < max_candidates and len(members) <= budget:
        if deadline is not None:
            if anytime:
                if deadline.expired():
                    break
            else:
                deadline.check("local expand")
        neg_p, _count, v = heapq.heappop(heap)
        if v in members:
            continue
        current_p = -priority(v)
        if current_p < neg_p:  # stale priority: degree grew since push
            heapq.heappush(heap, (current_p, _count, v))
            continue
        members.add(v)
        uf.add(v)
        degree_in[v] = 0
        for u in sorted(htk.neighbors(v)):
            if u in members:
                if degree_in[u] == k - 1:
                    deficient -= 1
                degree_in[u] += 1
                degree_in[v] += 1
                uf.union(v, u)
            elif u not in in_heap:
                push(u)
        if degree_in[v] < k:
            deficient += 1
        if deficient == 0:
            roots = {uf.find(x) for x in q}
            if len(roots) == 1:
                candidates.append(frozenset(members))
    return candidates


def _expand_flat(
    fg: FlatGraph,
    gd: DominanceGraph,
    query: Iterable[int],
    k: int,
    strategy: str,
    max_candidates: int,
    max_vertices: int | None,
    deadline: Deadline | None,
    anytime: bool,
) -> list[frozenset[int]]:
    """Array-backed Expand over a row-sorted CSR view of H^t_k.

    The push idiom pays off here: ``gain[r]`` (member neighbors of row
    r) is maintained incrementally by one increment per pushed edge, so
    a priority read is O(1) for Eq. 3 instead of a neighbor scan —
    recomputation at pop time (the lazy-stale check) becomes an array
    lookup.  Row order equals ascending id order and the CSR rows are
    pre-sorted, so heap contents match the reference path exactly.
    """
    q = sorted(set(query))
    n = fg.n
    indptr, indices, ids = fg.indptr, fg.indices, fg.ids
    qrows = fg.rows_of(q)
    member = np.zeros(n, bool)
    member[qrows] = True
    degree_in = np.zeros(n, np.int64)
    gain = np.zeros(n, np.int64)
    uf = _UnionFind()
    for r in qrows:
        uf.add(r)
    for r in qrows:
        for u in indices[indptr[r]:indptr[r + 1]].tolist():
            if member[u]:
                degree_in[r] += 1
                uf.union(r, u)
            else:
                gain[u] += 1
    zeta = max(ZETA, gd.max_layer() + 1)
    layer = np.fromiter((gd.layer(v) for v in ids), np.int64, count=n)
    # Members as a preallocated fill buffer: ``member_buf[:size]`` is
    # the live member-row array, appended to in O(1) (rebuilding an
    # ndarray per add is quadratic in community size).
    member_buf = np.empty(n, np.int64)
    member_buf[: len(qrows)] = qrows
    size = len(qrows)
    scratch = np.zeros(n, bool)

    def priority(r: int) -> int:
        g = int(gain[r])
        if strategy == "eq3":
            return LAMBDA * g + zeta - int(layer[r])
        member_arr = member_buf[:size]
        current_min = int(degree_in[member_arr].min())
        nbr = indices[indptr[r]:indptr[r + 1]]
        mn = nbr[member[nbr]]
        scratch[mn] = True
        joined = degree_in[member_arr] + scratch[member_arr]
        scratch[mn] = False
        joined_min = min(int(joined.min()), g)
        f1 = 1 if joined_min > current_min else 0
        return zeta * f1 + zeta - int(layer[r])

    counter = 0
    heap: list[tuple[int, int, int]] = []
    in_heap = np.zeros(n, bool)

    def push(r: int) -> None:
        nonlocal counter
        counter += 1
        heapq.heappush(heap, (-priority(r), counter, r))
        in_heap[r] = True

    for r in qrows:
        for u in indices[indptr[r]:indptr[r + 1]].tolist():
            if not member[u] and not in_heap[u]:
                push(u)

    candidates: list[frozenset[int]] = []
    member_ids: set[int] = set(q)
    budget = max_vertices if max_vertices is not None else n
    deficient = sum(1 for r in qrows if degree_in[r] < k)
    while heap and len(candidates) < max_candidates and size <= budget:
        if deadline is not None:
            if anytime:
                if deadline.expired():
                    break
            else:
                deadline.check("local expand")
        neg_p, _count, r = heapq.heappop(heap)
        if member[r]:
            continue
        current_p = -priority(r)
        if current_p < neg_p:  # stale priority: degree grew since push
            heapq.heappush(heap, (current_p, _count, r))
            continue
        member[r] = True
        uf.add(r)
        member_buf[size] = r
        member_ids.add(ids[r])
        size += 1
        for u in indices[indptr[r]:indptr[r + 1]].tolist():
            if member[u]:
                if degree_in[u] == k - 1:
                    deficient -= 1
                degree_in[u] += 1
                degree_in[r] += 1
                uf.union(r, u)
            else:
                gain[u] += 1
                if not in_heap[u]:
                    push(u)
        if degree_in[r] < k:
            deficient += 1
        if deficient == 0:
            roots = {uf.find(x) for x in qrows}
            if len(roots) == 1:
                candidates.append(frozenset(member_ids))
    return candidates


def _bit_indices(mask: int) -> list[int]:
    """Set bit positions of ``mask``, ascending.

    Few bits: peel the lowest set bit off a Python int.  Many: one
    ``unpackbits`` over the int's bytes (the peel loop costs a big-int
    operation per bit, quadratic on dense masks of long cores).
    """
    if mask.bit_count() > 24:
        raw = mask.to_bytes((mask.bit_length() + 7) // 8, "little")
        return np.flatnonzero(
            np.unpackbits(np.frombuffer(raw, np.uint8), bitorder="little")
        ).tolist()
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class _BitView:
    """H^t_k and its Gd closures as ``int`` bitmasks, built once per search.

    Bit i stands for ``ids[i]``, the i-th smallest vertex id — the row
    order of :func:`~repro.kernels.search.search_flatgraph` too, so
    :meth:`rows` / :meth:`from_rows` convert to and from a flat row mask.
    ``adj[i]`` holds the H^t_k neighbors of ``ids[i]``; ``below[i]`` /
    ``above[i]`` its strict Gd descendants / ancestors within H^t_k
    (closed through every Gd vertex, in one pass over the topological
    ``gd.order`` each).
    """

    def __init__(self, htk: AdjacencyGraph, gd: DominanceGraph) -> None:
        ids = sorted(htk.vertices())
        self.ids = ids
        self.n = len(ids)
        self.index = {v: i for i, v in enumerate(ids)}
        self.bit = {v: 1 << i for i, v in enumerate(ids)}
        self.full = (1 << self.n) - 1
        bit = self.bit
        self.adj = [sum(bit[u] for u in htk.neighbors(v)) for v in ids]
        self.below = self._closure(reversed(gd.order), gd.children)
        self.above = self._closure(gd.order, gd.parents)

    def _closure(self, order, arcs) -> list[int]:
        bit = self.bit
        closed: dict[int, int] = {}
        for v in order:
            m = 0
            for u in arcs[v]:
                m |= closed[u] | bit.get(u, 0)
            closed[v] = m
        return [closed[v] for v in self.ids]

    def mask(self, vertices: Iterable[int]) -> int:
        """Mask of distinct ``vertices``."""
        bit = self.bit
        return sum(bit[v] for v in vertices)

    def adj_of(self, v: int) -> int:
        return self.adj[self.index[v]]

    def members(self, mask: int) -> list[int]:
        """Vertex ids of ``mask``, ascending."""
        ids = self.ids
        return [ids[i] for i in _bit_indices(mask)]

    @staticmethod
    def _union(closures: list[int], mask: int) -> int:
        out = 0
        for i in _bit_indices(mask):
            out |= closures[i]
        return out

    def dominators(self, mask: int) -> int:
        """Vertices r-dominating some vertex of ``mask``."""
        return self._union(self.above, mask)

    def leaves(self, mask: int) -> int:
        """Bottom layer of Gd[mask] (``gd.leaves_within``)."""
        return mask & ~self.dominators(mask)

    def tops(self, mask: int) -> int:
        """Top layer of Gd[mask] (``gd.tops_within``)."""
        return mask & ~self._union(self.below, mask)

    def kcore(self, mask: int, qmask: int, k: int) -> int | None:
        """The connected k-ĉore of H^t_k[mask] containing ``qmask``.

        Peels ``deg < k`` with a stack (a vertex is pushed once, when its
        degree first drops below k), stops as soon as a query vertex
        goes, then grows Q's component a BFS level at a time.
        """
        if mask & qmask != qmask:
            return None
        adj = self.adj
        live = _bit_indices(mask)
        degrees = [(adj[i] & mask).bit_count() for i in live]
        deg = dict(zip(live, degrees))
        stack = [i for i, d in zip(live, degrees) if d < k]
        while stack:
            i = stack.pop()
            b = 1 << i
            if b & qmask:
                return None
            mask ^= b
            for j in _bit_indices(adj[i] & mask):
                d = deg[j] - 1
                deg[j] = d
                if d == k - 1:
                    stack.append(j)
        seen = frontier = qmask & -qmask
        while frontier:
            reach = 0
            for i in _bit_indices(frontier):
                reach |= adj[i]
            frontier = reach & mask & ~seen
            seen |= frontier
        if seen & qmask != qmask:
            return None
        return seen

    def rows(self, mask: int) -> np.ndarray:
        """Boolean row mask of the flat view."""
        raw = mask.to_bytes((self.n + 7) // 8, "little")
        return np.unpackbits(
            np.frombuffer(raw, np.uint8), count=self.n, bitorder="little"
        ).view(bool)

    def from_rows(self, rows: np.ndarray) -> int:
        packed = np.packbits(rows, bitorder="little")
        return int.from_bytes(packed.tobytes(), "little")


class LocalSearch:
    """Algorithms 3-5 over a prepared H^t_k and its r-dominance graph."""

    def __init__(
        self,
        htk: AdjacencyGraph,
        gd: DominanceGraph,
        query: Iterable[int],
        k: int,
        region: PreferenceRegion,
        strategy: str = "eq3",
        max_candidates: int = 24,
        certification: str = "fast",
        deadline: Deadline | None = None,
        flat: FlatGraph | None = None,
        anytime: bool = False,
    ) -> None:
        if certification not in ("fast", "chain"):
            raise QueryError(f"unknown certification {certification!r}")
        self.htk = htk
        self.gd = gd
        self.query = tuple(sorted(set(query)))
        self.query_set = set(self.query)
        self.k = k
        self.region = region
        self.strategy = strategy
        self.max_candidates = max_candidates
        #: "fast" checks only the candidate's own subgraph at the cell's
        #: interior point (the paper's Verify); "chain" re-runs the exact
        #: full-graph peeling oracle there (sound per sample, used by the
        #: validation tests).
        self.certification = certification
        #: Optional request-wide budget; exceeded => DeadlineExceeded.
        #: Checked per expand step, per threshold probe, and per
        #: candidate verification.
        self.deadline = deadline
        #: Optional CSR view of ``htk`` (same vertex set) — the "flat"
        #: search backend: expand, the k-ĉore probes, and the peeling
        #: certifications run over int row arrays with batch degree
        #: updates; the python backend probes the bitset view instead.
        self.flat = flat
        self._qrows: list[int] = [] if flat is None else flat.rows_of(
            self.query
        )
        #: Anytime mode: deadline expiry stops the search and returns
        #: the certified entries found so far (``partial`` set) instead
        #: of raising.
        self.anytime = anytime
        self.partial = False
        self.stats = SearchStats()
        self._all = frozenset(htk.vertices())
        # Per-search invariants of Verify, shared by every candidate
        # (a Cell is immutable, so clipping never alters the root).
        self._bits = _BitView(htk, gd)
        self._qmask = self._bits.mask(self.query)
        self._all_leaves = self._bits.leaves(self._bits.full)
        self._root = Cell.from_region(region)

    def _checkpoint(self, stage: str) -> bool:
        """Deadline gate: True means "stop here" (anytime expiry).

        Without anytime this raises :class:`DeadlineExceeded` exactly
        like the direct ``deadline.check`` calls it replaces.
        """
        if self.deadline is None:
            return False
        if self.anytime:
            if self.deadline.expired():
                self.partial = True
                return True
            return False
        self.deadline.check(stage)
        return False

    def _kcore_members(self, mask: int) -> int | None:
        """Mask of the connected k-ĉore of H^t_k[mask] around Q.

        The one k-core probe every Verify helper reduces to: a bitset
        peel on the python path, a row-mask peel on the flat path.
        ``None`` when no such core exists (including Q ⊄ mask).
        """
        if self.flat is None:
            return self._bits.kcore(mask, self._qmask, self.k)
        comp = k_core_containing_rows(
            self.flat, self._bits.rows(mask), self._qrows, self.k
        )
        return None if comp is None else self._bits.from_rows(comp)

    # ------------------------------------------------------------------
    # Corollary 2 / Lemma 8 machinery (vertex sets are bitmasks)
    # ------------------------------------------------------------------
    def _survives_alone(self, v: int, members: int) -> bool:
        """Does v survive in the k-ĉore of H^t_k[VH ∪ {v}] containing Q?

        If it does, v can never be deleted (it is not score-deletable while
        it r-dominates a member, and it is structurally safe even when all
        other outside vertices are gone) — Corollary 2(2).  If it does not,
        v is *bound*: it dies by cascade regardless of its score.

        Every candidate VH is a connected k-core containing Q, so peeling
        VH ∪ {v} can only remove v, and with k >= 1 a surviving v has a
        neighbor in VH, hence in Q's component: one popcount answers it.
        """
        return (self._bits.adj_of(v) & members).bit_count() >= self.k

    def _effective_tops(
        self, outside: int, members: int
    ) -> tuple[list[int], int] | None:
        """Top layer of Gc after discarding bound vertices (Corollary 3(2)).

        Returns ``(tops, bound)`` — the constraint-carrying top vertices
        and the mask discarded as bound — or None when Corollary 2(2)
        rejects the candidate: an outside r-dominator of a member can
        never be deleted (it is not score-deletable while its dominee
        remains in H, and it survives structurally even with every other
        outside vertex gone).
        """
        bits = self._bits
        for v in bits.members(bits.dominators(members) & outside):
            if self._survives_alone(v, members):
                return None
        pool = outside
        bound_all = 0
        while True:
            tops = bits.members(bits.tops(pool))
            bound = [t for t in tops if not self._survives_alone(t, members)]
            if not bound:
                return tops, bound_all
            bound_mask = bits.mask(bound)
            bound_all |= bound_mask
            pool &= ~bound_mask
            if not pool:
                return [], bound_all

    def _has_mutual_support(self, members: int, bound: int) -> bool:
        """Corollary 3(3) situation: bound vertices that keep each other
        alive (e.g. the paper's v4/v5 against H1).

        Each bound vertex dies once *all* other outside vertices are gone,
        but a cluster of them may survive collectively — then one cluster
        member must be score-deleted first, a disjunctive condition the
        convex clip cell cannot express.  Such candidates are certified
        with the exact chain oracle instead.
        """
        if not bound:
            return False
        core = self._kcore_members(members | bound)
        return core is not None and bool(core & bound)

    def _anchors(self, members: int, leaves: list[int]) -> list[int]:
        """Lemma 8: non-Q leaves of Ge whose removal keeps a k-ĉore ⊇ Q."""
        bit = self._bits.bit
        return [
            v for v in leaves
            if v not in self.query_set
            and self._kcore_members(members & ~bit[v]) is not None
        ]

    # ------------------------------------------------------------------
    def _certify_chain(self, cell: Cell, members: frozenset[int]) -> bool:
        """Exact full-graph chain at the cell's interior point."""
        w = cell.interior_point()
        scores = {v: self.gd.score_at(v, w) for v in self._all}
        chain, _batches = deletion_chain(
            self.htk, self.query, self.k, scores, flat=self.flat
        )
        return frozenset(chain[-1]) == members

    def _certify_fast(
        self, cell: Cell, members: int, ge_leaves: list[int]
    ) -> bool:
        """Local non-containment check at the cell's interior point.

        Reachability of H (all of Gc deleted first) is vouched for by the
        Corollary-3 half-spaces already clipped into the cell; what
        remains is Definition 6: deleting H's smallest-score member must
        destroy the k-ĉore around Q.  The minimum of H is attained at a
        bottom-layer vertex of Ge, so only those are inspected.  H is a
        k-core, so the k-core of H - {u} is what the cascade delete of u
        leaves; there is no k-ĉore ⊇ Q exactly when that cascade takes a
        query vertex (Corollary 1(2)) or splits Q apart.
        """
        w = cell.interior_point()
        u = min(
            ge_leaves, key=lambda v: (self.gd.score_at(v, w), v)
        )
        if u in self.query_set:
            return True  # Corollary 1(1)
        return self._kcore_members(members & ~self._bits.bit[u]) is None

    def _verify_candidate(
        self, members: frozenset[int]
    ) -> list[tuple[Cell, frozenset[int]]]:
        """Algorithm 5 for one candidate: certified (cell, members)."""
        bits = self._bits
        inside = bits.mask(members)
        outside = bits.full & ~inside
        mutual_support = False
        if outside:
            # Corollary 2(1): deletion must start at an outside leaf of Gd.
            if not self._all_leaves & outside:
                return []
            analyzed = self._effective_tops(outside, inside)
            if analyzed is None:
                return []
            tops, bound = analyzed
            mutual_support = self._has_mutual_support(inside, bound)
        else:
            tops = []  # candidate is H^t_k itself: only anchors matter
        ge_leaves = bits.members(bits.leaves(inside))
        anchors = self._anchors(inside, ge_leaves)
        # Corollary 3: H is valid where every bottom-layer member of Ge
        # scores above every (bound-adjusted) top of Gc, and no anchor is
        # the community minimum.  Each condition is one half-space, so the
        # validity region is a single convex cell — clip instead of
        # building an arrangement.
        cell = self._root
        non_anchor_leaves = [u for u in ge_leaves if u not in anchors]
        for u in ge_leaves:
            for a in tops:
                cell = cell.with_constraint(self.gd.halfspace(u, a))
                self.stats.halfspaces_inserted += 1
                if cell.is_empty():
                    return []
        for a in anchors:
            for u in non_anchor_leaves:
                cell = cell.with_constraint(self.gd.halfspace(a, u))
                self.stats.halfspaces_inserted += 1
                if cell.is_empty():
                    return []
        if mutual_support or self.certification == "chain":
            # Disjunctive reachability (Corollary 3(3)): the fast local
            # check cannot see which cluster member breaks first — use
            # the exact oracle for this (rare) shape, as "chain" does
            # for every candidate.
            certified = self._certify_chain(cell, members)
        else:
            certified = self._certify_fast(cell, inside, ge_leaves)
        if certified:
            return [(cell, members)]
        return []

    # ------------------------------------------------------------------
    def _threshold_candidates(
        self, per_probe: int = 6, step: int = 2
    ) -> list[frozenset[int]]:
        """Candidates from score-threshold prefixes at R's pivot/corners.

        At a fixed weight w the MAC chain consists of the communities
        ``k-ĉore_Q({v : S(v) >= θ})`` for decreasing thresholds θ (every
        score-peeled vertex is gone once the global minimum passes its
        score).  Sorting the vertices by score once and taking k-ĉores of
        growing prefixes therefore reproduces the chain *bottom-up*,
        without peeling — each probe costs O((n/step) · m) worst case but
        stops after ``per_probe`` candidates, keeping the search local.
        """
        probes = [self.region.pivot()]
        probes.extend(self.region.corners())
        bit = self._bits.bit
        out: list[int] = []
        seen_rankings: set[tuple[int, ...]] = set()
        for w in probes:
            if self._checkpoint("local threshold probing"):
                break
            ranked = sorted(
                self._all,
                key=lambda v: (-self.gd.score_at(v, w), v),
            )
            signature = tuple(ranked)
            if signature in seen_rankings:
                continue  # small regions often rank identically everywhere
            seen_rankings.add(signature)
            # prefix[size] is the mask of the ``size`` best-scored vertices.
            prefix = [0]
            for v in ranked:
                prefix.append(prefix[-1] | bit[v])

            # Existence of the prefix k-ĉore is monotone in the prefix
            # size: binary-search the smallest feasible prefix, then walk
            # upward collecting the chain communities bottom-up.
            lo, hi = self.k + 1, len(ranked)
            if self._kcore_members(prefix[hi]) is None:
                continue
            while lo < hi:
                mid = (lo + hi) // 2
                if self._kcore_members(prefix[mid]) is None:
                    lo = mid + 1
                else:
                    hi = mid
            found = 0
            previous: int | None = None
            for size in range(lo, len(ranked) + step, step):
                if self._checkpoint("local threshold probing"):
                    return [frozenset(self._bits.members(m)) for m in out]
                core = self._kcore_members(prefix[min(size, len(ranked))])
                if core is None:
                    continue
                if core != previous:
                    previous = core
                    if core not in out:
                        out.append(core)
                    found += 1
                    if found >= per_probe:
                        break
        return [frozenset(self._bits.members(m)) for m in out]

    def search_nc(self) -> list[PartitionEntry]:
        """Problem 2 via local search: non-contained MACs with partitions."""
        candidates = expand(
            self.htk,
            self.gd,
            self.query,
            self.k,
            strategy=self.strategy,
            max_candidates=self.max_candidates,
            deadline=self.deadline,
            flat=self.flat,
            anytime=self.anytime,
        )
        for extra in self._threshold_candidates():
            if extra not in candidates:
                candidates.append(extra)
        if self._all not in candidates:
            candidates.append(self._all)
        self.stats.candidates = len(candidates)
        entries: list[PartitionEntry] = []
        claimed: list[frozenset[int]] = []
        for members in candidates:
            if members in claimed:
                continue
            if self._checkpoint("local verify"):
                break
            claimed.append(members)
            for cell, found in self._verify_candidate(members):
                entries.append(PartitionEntry(cell, [Community(found)]))
        if self.partial and not entries:
            # Anytime fallback: H^t_k itself is a feasible community
            # for all of R (a connected k-core containing Q), just not
            # certified non-contained — return it as the best-so-far.
            entries.append(
                PartitionEntry(
                    self._root, [Community(self._all, partial=True)]
                )
            )
        self.stats.partitions = len(entries)
        return entries

    def search_topj(self, j: int) -> list[PartitionEntry]:
        """Problem 1 via local search.

        For each certified cell the top-j chain is reconstructed by
        re-running the bounded oracle at the cell's interior point after
        refining the cell by the half-spaces among the outside top layers
        (the "up-bottom" generalization at the end of Section VI-B); the
        work grows with j through the extra refinement levels.
        """
        if j < 1:
            raise QueryError(f"j must be >= 1, got {j}")
        base = self.search_nc()
        bits = self._bits
        entries: list[PartitionEntry] = []
        for entry in base:
            if self.partial and entry.best.partial:
                # Anytime fallback entry: its chain was never peeled;
                # pass it through rather than paying for a full oracle
                # run after the budget is already gone.
                entries.append(entry)
                continue
            members = entry.best.members
            refine: list = []
            # Peel up to j-1 dominance layers off Gc, collecting pairwise
            # half-spaces per layer (score order inside a layer decides
            # which vertex returns first).
            pool = bits.full & ~bits.mask(members)
            for _level in range(j - 1):
                if not pool:
                    break
                top_mask = bits.tops(pool)
                tops = bits.members(top_mask)
                for i, u in enumerate(tops):
                    for v in tops[i + 1 :]:
                        refine.append(self.gd.halfspace(u, v))
                pool &= ~top_mask
            tree = PartitionTree(entry.cell)
            for h in refine:
                tree.insert(h)
                self.stats.halfspaces_inserted += 1
            for cell in tree.leaves():
                if self._checkpoint("local top-j refinement"):
                    # Anytime: the certified NC community still stands
                    # for this cell; report it as the chain's (partial)
                    # best instead of dropping the cell.
                    entries.append(
                        PartitionEntry(
                            cell, [Community(members, partial=True)]
                        )
                    )
                    continue
                w = cell.interior_point()
                scores = {v: self.gd.score_at(v, w) for v in self._all}
                chain, _batches = deletion_chain(
                    self.htk, self.query, self.k, scores,
                    max_batches=j - 1, flat=self.flat,
                )
                communities = [
                    Community(c) for c in reversed(chain[-j:])
                ]
                entries.append(PartitionEntry(cell, communities))
        self.stats.partitions = len(entries)
        return entries
