"""The metric catalogue and the per-layer computations.

Each per-layer metric names the end-to-end metric it should move and the
workload on which it should move it (``GLOSSARY.md`` explains each).  A
traced run reports every per-layer metric on every workload; a layer
that a workload never reaches reports 0.
"""

from __future__ import annotations

from benchlib import median, percentile, share

#: name -> (unit, better): what a user of the system sees.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "throughput_ops_s": ("ops/s", "higher"),
    "latency_p50_ms": ("ms", "lower"),
    "latency_p99_ms": ("ms", "lower"),
    "rss_mb": ("MB", "lower"),
}

HIT, POOL, CHURN = "hit-threads", "search-pool", "churn-engine"
#: The workloads ``BENCHMARK.json`` gates on.  ``hit-threads`` runs on
#: demand only: on a shared 2-vCPU machine its latency follows the
#: host's vCPU wake-up latency more than the program (GLOSSARY.md).
GATED = (POOL, CHURN)
SERVED = f"{HIT}, {POOL}"
ALL = f"{HIT}, {POOL}, {CHURN}"

#: name -> (unit, layer, end-to-end metric it should move, workload).
PER_LAYER = {
    "service.self_ms.p50": (
        "ms", "service", "latency_p50_ms, throughput_ops_s", SERVED),
    "service.executor_ms.p50": ("ms", "service", "latency_p50_ms", SERVED),
    "service.rejected": ("count", "service", "error_rate", SERVED),
    "service.shed": ("count", "service", "error_rate", SERVED),
    "service.degraded": ("count", "service", "error_rate", SERVED),
    "pool.self_ms.p50": ("ms", "pool", "latency_p50_ms", POOL),
    "pool.worker_busy_share": ("share", "pool", "throughput_ops_s", POOL),
    "pool.workers_effective": ("count", "pool", "throughput_ops_s", POOL),
    "pool.spill_share": ("share", "pool", "latency_p99_ms, error_rate", POOL),
    "pool.hedges": ("count", "pool", "latency_p99_ms, error_rate", POOL),
    "pool.restarts": ("count", "pool", "latency_p99_ms, error_rate", POOL),
    "engine.self_ms.p50": ("ms", "engine", "latency_p50_ms", f"{HIT}, {CHURN}"),
    "engine.result_cache.hit_rate": (
        "share", "engine", "latency_p50_ms", f"{HIT}, {CHURN}"),
    "engine.filter_cache.hit_rate": (
        "share", "engine", "latency_p50_ms", CHURN),
    "engine.core_cache.hit_rate": ("share", "engine", "latency_p50_ms", CHURN),
    "engine.dominance_cache.hit_rate": (
        "share", "engine", "latency_p50_ms", CHURN),
    "engine.flat_share": ("share", "engine", "latency_p50_ms", POOL),
    "engine.global_share": ("share", "engine", "latency_p50_ms", POOL),
    "road.filter_ms.p50": ("ms", "road", "latency_p50_ms", CHURN),
    "road.filter_vertices.p50": ("count", "road", "latency_p50_ms", CHURN),
    "graph.core_ms.p50": ("ms", "graph", "latency_p50_ms", CHURN),
    "graph.htk_vertices.p50": ("count", "graph", "latency_p50_ms", CHURN),
    "dominance.build_ms.p50": ("ms", "dominance", "latency_p99_ms", CHURN),
    "dominance.build_ms.p99": ("ms", "dominance", "latency_p99_ms", CHURN),
    "dominance.arcs_per_vertex": (
        "count", "dominance", "latency_p99_ms", CHURN),
    "search.global_ms.p50": (
        "ms", "core", "latency_p50_ms, throughput_ops_s", POOL),
    "search.local_ms.p50": (
        "ms", "core", "latency_p50_ms, throughput_ops_s", POOL),
    "search.tasks.p50": (
        "count", "core", "latency_p50_ms, throughput_ops_s", POOL),
    "search.candidates.p50": (
        "count", "core", "latency_p50_ms, throughput_ops_s", POOL),
    "search.yield": ("share", "core", "latency_p50_ms, throughput_ops_s", POOL),
    "live.add_edge_ms.p50": ("ms", "live", "mutation_p50_ms", CHURN),
    "live.remove_edge_ms.p50": ("ms", "live", "mutation_p50_ms", CHURN),
    "live.remove_edge_ms.p90": ("ms", "live", "mutation_p90_ms", CHURN),
    "live.attributes_ms.p50": ("ms", "live", "mutation_p50_ms", CHURN),
    "live.move_ms.p50": ("ms", "live", "mutation_p50_ms, mutation_p90_ms",
                         CHURN),
    "live.road_weight_ms.p50": (
        "ms", "live", "mutation_p50_ms, mutation_p90_ms", CHURN),
    "live.evicted_per_batch": ("count", "live", "latency_p50_ms", CHURN),
    "live.repaired_per_batch": ("count", "live", "latency_p50_ms", CHURN),
    "mutation_p50_ms": ("ms", "live", "throughput_ops_s", CHURN),
    "mutation_p90_ms": ("ms", "live", "throughput_ops_s", CHURN),
    "setup.dataset_s": ("s", "datasets", "setup_s", ALL),
    "setup.snapshot_load_s": ("s", "store", "setup_s", SERVED),
    "setup.index_build_s": ("s", "engine", "setup_s", CHURN),
    "setup.pool_fork_s": ("s", "pool", "setup_s", POOL),
    "setup.warm_s": ("s", "engine", "setup_s", ALL),
    "store.snapshot_mb": ("MB", "store", "rss_mb", SERVED),
    "error_rate": ("share", "all", "(gate: must be 0)", ALL),
    "trace.overhead": ("ratio", "trace", "(tracing cost)", ALL),
}

#: Per-layer metrics where a larger value is the better one.
HIGHER_IS_BETTER = {
    "pool.worker_busy_share",
    "pool.workers_effective",
    "engine.result_cache.hit_rate",
    "engine.filter_cache.hit_rate",
    "engine.core_cache.hit_rate",
    "engine.dominance_cache.hit_rate",
    "search.yield",
}

#: Mutation kinds -> the ``live.*`` metric prefix of their batches.
LIVE_KINDS = {
    "add_social_edge": "live.add_edge_ms",
    "remove_social_edge": "live.remove_edge_ms",
    "update_attributes": "live.attributes_ms",
    "move_user": "live.move_ms",
    "update_road_weight": "live.road_weight_ms",
}


def ms(span: dict) -> float:
    return (span["end"] - span["start"]) * 1e3


def answer_metrics(answers: list[dict]) -> dict:
    """Engine and search metrics from per-request answer counters."""
    out = {}
    if answers:
        out["engine.self_ms.p50"] = median([
            (a["elapsed"] - sum(a["timings"].get(s, 0.0) for s in
                                ("filter", "core", "dominance", "search")))
            * 1e3
            for a in answers
        ])
        out["engine.flat_share"] = share(
            sum(a["backend"] == "flat" for a in answers), len(answers))
        out["engine.global_share"] = share(
            sum(a["algorithm"] == "global" for a in answers), len(answers))
        out["graph.htk_vertices.p50"] = median([a["htk"] for a in answers])
    searched = [a for a in answers if a["result_cache"] != "hit"
                and a["algorithm"] in ("global", "local")]
    for algorithm in ("global", "local"):
        out[f"search.{algorithm}_ms.p50"] = median([
            a["timings"]["search"] * 1e3
            for a in searched if a["algorithm"] == algorithm
        ])
    # GS does its work in peeling tasks, LS in expanded candidates.
    gs = [a for a in searched if a["algorithm"] == "global"]
    out["search.tasks.p50"] = median([a["tasks"] for a in gs])
    out["search.yield"] = share(sum(a["partitions"] for a in gs),
                                sum(a["tasks"] for a in gs))
    out["search.candidates.p50"] = median(
        [a["candidates"] for a in searched if a["algorithm"] == "local"])
    return out


def cache_hit_rates(before: dict, after: dict) -> dict:
    """Stage and result cache hit rates over a window (telemetry deltas)."""
    out = {}
    for cache, name in (("result", "result_cache"), ("filter", "filter_cache"),
                        ("core", "core_cache"), ("dominance", "dominance_cache")):
        hits = after[cache]["hits"] - before[cache]["hits"]
        misses = after[cache]["misses"] - before[cache]["misses"]
        out[f"engine.{name}.hit_rate"] = share(hits, hits + misses)
    return out


def stage_metrics(spans: list[dict]) -> dict:
    """Road, graph, dominance and live metrics from in-process spans."""
    by_name: dict[str, list[dict]] = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)
    out = {}
    road = by_name.get("road.filter", [])
    out["road.filter_ms.p50"] = median([ms(s) for s in road])
    out["road.filter_vertices.p50"] = median(
        [s["attrs"]["vertices"] for s in road])
    out["graph.core_ms.p50"] = median(
        [ms(s) for s in by_name.get("graph.core", [])])
    dom = by_name.get("dominance.build", [])
    out["dominance.build_ms.p50"] = median([ms(s) for s in dom])
    out["dominance.build_ms.p99"] = percentile([ms(s) for s in dom], 99.0)
    out["dominance.arcs_per_vertex"] = share(
        sum(s["attrs"]["arcs"] for s in dom),
        sum(s["attrs"]["vertices"] for s in dom))
    applies = by_name.get("live.apply", [])
    for kind, prefix in LIVE_KINDS.items():
        times = [ms(s) for s in applies if kind in s["attrs"]["by_kind"]]
        out[f"{prefix}.p50"] = median(times)
        if kind == "remove_social_edge":
            out[f"{prefix}.p90"] = percentile(times, 90.0)
    if applies:
        out["live.evicted_per_batch"] = share(
            sum(s["attrs"]["evicted"] for s in applies), len(applies))
        out["live.repaired_per_batch"] = share(
            sum(s["attrs"]["repaired"] for s in applies), len(applies))
    return out


def complete(per_layer: dict) -> dict:
    """Every catalogued per-layer metric, 0 where the layer was not reached."""
    return {name: float(per_layer.get(name, 0.0)) for name in PER_LAYER}
