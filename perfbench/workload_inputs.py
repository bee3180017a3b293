"""Seeded input generation for the three workloads.

Everything a run sends to the program is drawn here, before any timing:
the request mixes, the order in which clients issue them, and the
churn workload's fresh queries, hot set and mutation batches.  The same
workload seed gives the same inputs (see ``QUERY_SEED`` for what it does
not vary).  Query sets come from the dataset's own
``suggest_query`` (the paper's protocol: drawn from the social k-core
until the (k,t)-core is non-empty), which costs tens of milliseconds a
call, so it is paid here and never inside a timed window.
"""

from __future__ import annotations

import itertools

import numpy as np

from benchlib import DIMENSIONS
from repro import MACRequest, PreferenceRegion
from repro.errors import DatasetError
from repro.service.protocol import request_to_wire

K_VALUES = (4, 5, 6)
QUERY_SIZES = (1, 2, 4)
SIGMAS = (0.005, 0.01, 0.05)
TOPJ = 5

HIT_REQUESTS = 40
POOL_REQUESTS = 48
POOL_QUERIES_PER_COMBO = 3
#: The served working sets and the churn workload's query sets and hot
#: set are drawn with this fixed seed; the workload seed draws the
#: request order, the t of fresh queries and the mutation batches.
#: A search's cost depends so much on its query set that working sets
#: drawn per seed moved the pool's mean cost by 2x between seeds, and
#: one seed's hit working set read 15% below the others in every run.
QUERY_SEED = 0
#: |H^t_k| band of the pool mix: where python and flat search trade places.
POOL_HTK_RANGE = (16, 60)

CHURN_K = (3, 4, 5, 6)
CHURN_QUERY_SIZES = (1, 2)
CHURN_QUERIES_PER_COMBO = 6
CHURN_HOT = 8
CHURN_T_RANGE = (1.0, 3.0)
#: |H^t_k| cap at the largest t: several hundred vertices, but no query
#: set whose core covers a quarter of the graph and alone sets the tail.
CHURN_HTK_MAX = 400
#: One block of churn steps, shuffled per block: three fresh queries, two
#: hot-set revisits, one mutation batch (about 1/2, 1/3 and 1/6).
CHURN_BLOCK = ("fresh", "fresh", "fresh", "hot", "hot", "mutate")
MUTATION_MIX = (
    ("add_social_edge", 0.3),
    ("remove_social_edge", 0.3),
    ("update_attributes", 0.2),
    ("move_user", 0.1),
    ("update_road_weight", 0.1),
)


def default_t(ds, scale: float) -> float:
    """The dataset's registry ``t`` scaled by the road extent (CLI default)."""
    return ds.default_t * scale ** 0.5


def region(sigma: float) -> PreferenceRegion:
    center = [0.9 / DIMENSIONS] * (DIMENSIONS - 1)
    return PreferenceRegion.centered(center, sigma)


def _queries(ds, rng, t, combos, per_combo, htk_range=None, htk_t=None,
             attempts=40):
    """``per_combo`` suggested query sets per ``(k, |Q|)`` combination.

    With ``htk_range``, only query sets whose |H^t_k| at ``htk_t``
    (default ``t``) lies in the range are kept.
    """
    out = []
    for k, size in combos:
        found = 0
        for _ in range(attempts):
            if found == per_combo:
                break
            try:
                query = ds.suggest_query(
                    size, k=k, t=t, seed=int(rng.integers(1 << 30))
                )
            except DatasetError:
                continue
            if htk_range is not None:
                core = ds.network.maximal_kt_core(
                    query, k, t if htk_t is None else htk_t)
                htk = 0 if core is None else core.num_vertices
                if not htk_range[0] <= htk <= htk_range[1]:
                    continue
            out.append((query, k))
            found += 1
    if not out:
        raise DatasetError("no satisfiable query sets for the request mix")
    return out


def hit_requests(ds, scale: float) -> list[MACRequest]:
    """The 40-request working set of ``hit-threads`` (fits the result cache).

    18 query sets (two per k and |Q|), each asked for its non-contained
    answer under two or three of the sigmas.  Only non-contained answers:
    the service layer's cost grows with the answer's size, and top-j
    answers at the head of the Zipf order would dominate it.
    """
    t = default_t(ds, scale)
    queries = _queries(
        ds, np.random.default_rng(QUERY_SEED), t,
        itertools.product(K_VALUES, QUERY_SIZES), 2,
    )
    requests = []
    for i in range(HIT_REQUESTS):
        query, k = queries[i % len(queries)]
        sigma = SIGMAS[(i // len(queries) + i) % len(SIGMAS)]
        requests.append(MACRequest.make(query, k, t, region(sigma)))
    return requests


def pool_requests(ds, scale: float) -> list[MACRequest]:
    """The 48 base requests of ``search-pool`` (|H^t_k| in band).

    24 query sets, each asked twice: once with ``algorithm="auto"`` (GS
    on these core sizes) and once with ``"local"``.  Sigma and the
    problem (nc or top-j) rotate over the query sets so that every
    (sigma, problem) pair appears four times per algorithm.
    """
    t = default_t(ds, scale)
    queries = _queries(
        ds, np.random.default_rng(QUERY_SEED), t,
        itertools.product(K_VALUES, QUERY_SIZES), POOL_QUERIES_PER_COMBO,
        POOL_HTK_RANGE,
    )[:POOL_REQUESTS // 2]
    shapes = list(itertools.product(SIGMAS, ("nc", "topj")))
    requests = []
    for i, (query, k) in enumerate(queries):
        for a, algorithm in enumerate(("auto", "local")):
            sigma, problem = shapes[(i + a * len(shapes) // 2) % len(shapes)]
            requests.append(MACRequest.make(
                query, k, t, region(sigma), problem=problem,
                j=TOPJ if problem == "topj" else 1, algorithm=algorithm,
            ))
    return requests


def zipf_order(rng, items: int, length: int) -> list:
    """Request indices drawn Zipf-like: request r has weight 1 / (r+1)."""
    weights = 1.0 / np.arange(1, items + 1)
    draws = rng.choice(items, size=length, p=weights / weights.sum())
    return [int(d) for d in draws]


def shuffled_cycles(rng, items: int, length: int) -> list:
    """Every request once per cycle, each cycle in a fresh random order."""
    out: list[int] = []
    while len(out) < length:
        out.extend(int(i) for i in rng.permutation(items))
    return out[:length]


# ----------------------------------------------------------------------
# churn-engine
# ----------------------------------------------------------------------
class _MutationModel:
    """The network state mutation batches are generated against.

    Batches are drawn in order and each is applied to this model, so
    every batch is valid against the network as the earlier batches
    left it: removals name existing edges, additions absent ones.
    """

    def __init__(self, network, rng) -> None:
        self.rng = rng
        self.users = sorted(network.social.graph.vertices())
        self.edges = sorted(
            (min(u, v), max(u, v)) for u, v in network.social.graph.edges()
        )
        self.edge_set = set(self.edges)
        self.road_edges = sorted(network.road.edges())
        self.road_vertices = sorted(network.road.vertices())
        self.attributes = network.social.attribute

    def _user(self) -> int:
        return self.users[int(self.rng.integers(len(self.users)))]

    def add_social_edge(self) -> dict:
        while True:
            u, v = self._user(), self._user()
            key = (min(u, v), max(u, v))
            if u != v and key not in self.edge_set:
                self.edge_set.add(key)
                self.edges.append(key)
                return {"op": "add_social_edge", "u": u, "v": v}

    def remove_social_edge(self) -> dict:
        i = int(self.rng.integers(len(self.edges)))
        key = self.edges[i]
        self.edges[i] = self.edges[-1]
        self.edges.pop()
        self.edge_set.discard(key)
        return {"op": "remove_social_edge", "u": key[0], "v": key[1]}

    def update_attributes(self) -> dict:
        donor = self._user()
        return {
            "op": "update_attributes",
            "user": self._user(),
            "attributes": [float(x) for x in self.attributes(donor)],
        }

    def move_user(self) -> dict:
        v = self.road_vertices[int(self.rng.integers(len(self.road_vertices)))]
        point = {"u": v, "v": None, "offset": 0.0}
        return {"op": "move_user", "user": self._user(), "point": point}

    def update_road_weight(self) -> dict:
        i = int(self.rng.integers(len(self.road_edges)))
        u, v, w = self.road_edges[i]
        w = float(w) * float(self.rng.uniform(0.8, 1.25))
        self.road_edges[i] = (u, v, w)
        return {"op": "update_road_weight", "u": u, "v": v, "weight": w}

    def batch(self) -> tuple[str, list[dict]]:
        kinds = [k for k, _ in MUTATION_MIX]
        probs = np.array([p for _, p in MUTATION_MIX])
        kind = kinds[int(self.rng.choice(len(kinds), p=probs / probs.sum()))]
        size = 1
        if kind in ("add_social_edge", "remove_social_edge"):
            size = int(self.rng.integers(1, 4))
        elif kind == "update_attributes":
            size = int(self.rng.integers(1, 3))
        return kind, [getattr(self, kind)() for _ in range(size)]


def churn_inputs(ds, rng, scale: float, blocks: int) -> dict:
    """Hot set plus ``blocks`` shuffled blocks of churn steps (wire form).

    Fresh queries cycle through a pool of suggested query sets (each
    cycle in a new order) and draw a new ``t`` in ``[1, 3] x`` the
    default each time, so every fresh ``(Q, t)`` misses all stage caches.
    """
    t0 = default_t(ds, scale)
    pool = _queries(
        ds, np.random.default_rng(QUERY_SEED), t0,
        itertools.product(CHURN_K, CHURN_QUERY_SIZES),
        CHURN_QUERIES_PER_COMBO, htk_range=(1, CHURN_HTK_MAX),
        htk_t=t0 * CHURN_T_RANGE[1],
    )
    hot_pool = [(q, k) for q, k in pool if k in K_VALUES]
    stride = max(1, len(hot_pool) // CHURN_HOT)
    hot = [
        request_to_wire(MACRequest.make(query, k, t0, region(0.01)))
        for query, k in hot_pool[::stride][:CHURN_HOT]
    ]
    model = _MutationModel(ds.network, rng)
    steps: list[dict] = []
    fresh_order = shuffled_cycles(rng, len(pool), 3 * blocks)
    hot_next = 0
    for _ in range(blocks):
        for kind in rng.permutation(CHURN_BLOCK):
            if kind == "fresh":
                query, k = pool[fresh_order.pop()]
                t = t0 * float(rng.uniform(*CHURN_T_RANGE))
                steps.append({"op": "query", "request": request_to_wire(
                    MACRequest.make(query, k, t, region(0.01))
                )})
            elif kind == "hot":
                steps.append({"op": "query", "hot": hot_next % len(hot)})
                hot_next += 1
            else:
                mkind, batch = model.batch()
                steps.append({"op": "mutate", "kind": mkind, "batch": batch})
    return {"hot": hot, "steps": steps}
