"""Tracing from outside the program: spans around public calls.

Nothing in ``src/`` is instrumented.  At runtime, in its own processes,
the benchmark replaces a public function or method of a layer with a
wrapper that records a span (name, start, end, parent span, request id)
and calls through.  Spans stay in memory and are written out once, when
the process ends.  The request id is the ``MACRequest.label`` the load
generator puts on every request, so spans of one request can be joined
across the client and server processes.

Layer boundaries wrapped (module names give the layers):

* ``service`` -- ``ServiceClient.search`` (client process) and the
  executor's ``search_wire`` (server process, both executors);
* ``pool`` -- ``PoolExecutor.search_wire``; stage times inside forked
  workers come from the reply's ``engine.timings``;
* ``engine`` -- ``MACEngine.search`` and ``MACEngine.apply`` (``live``);
* ``road`` -- ``RoadSocialNetwork.query_distance_filter``;
* ``graph``/``kernels`` -- core decomposition as the engine calls it;
* ``dominance`` -- ``DominanceGraph`` construction;
* ``core`` -- ``GlobalSearch``/``LocalSearch`` ``search_nc``/``search_topj``;
* ``store`` and set-up -- dataset generation, snapshot load, pool fork.
"""

from __future__ import annotations

import functools
import json
import threading
import time


class SpanRecorder:
    """In-memory span store with a per-thread parent stack."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.active = True
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, rid=None) -> dict:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if rid is None and parent is not None:
            rid = parent["rid"]
        span = {
            "name": name,
            "rid": rid,
            "parent": None if parent is None else parent["id"],
            "attrs": {},
        }
        with self._lock:
            span["id"] = len(self.spans)
            self.spans.append(span)
        stack.append(span)
        span["start"] = time.perf_counter()
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack().pop()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def wrap(recorder: SpanRecorder, owner, attr: str, name: str,
         rid=None, attrs=None) -> None:
    """Replace ``owner.attr`` with a span-recording wrapper.

    ``rid(args, kwargs)`` extracts the request id; ``attrs(args, kwargs,
    out)`` returns counters recorded on the span after the call returns
    (computed outside the timed interval).
    """
    original = getattr(owner, attr)
    static = isinstance(owner.__dict__.get(attr), (classmethod, staticmethod))

    @functools.wraps(original)
    def traced(*args, **kwargs):
        if not recorder.active:
            return original(*args, **kwargs)
        span = recorder.open(name, None if rid is None else rid(args, kwargs))
        try:
            out = original(*args, **kwargs)
        finally:
            recorder.close(span)
        if attrs is not None:
            span["attrs"] = attrs(args, kwargs, out)
        return out

    setattr(owner, attr, staticmethod(traced) if static else traced)


# ----------------------------------------------------------------------
# what a span records about an engine answer
# ----------------------------------------------------------------------
def answer_attrs(wire: dict) -> dict:
    """Counters of one answer in wire form (a reply or ``result_to_wire``)."""
    engine = wire.get("engine", {})
    stats = wire.get("stats", {})
    return {
        "elapsed": wire.get("elapsed", 0.0),
        "result_cache": engine.get("cache", {}).get("result"),
        "timings": engine.get("timings", {}),
        "algorithm": engine.get("algorithm"),
        "backend": engine.get("backend"),
        "htk": wire.get("htk_vertices", 0),
        "tasks": stats.get("tasks", 0),
        "candidates": stats.get("candidates", 0),
        "partitions": len(wire.get("partitions", ())),
    }


def engine_answer_attrs(result) -> dict:
    """The same counters, read off an in-process ``MACSearchResult``."""
    engine = result.extra.get("engine", {})
    return {
        "elapsed": result.elapsed,
        "result_cache": engine.get("cache", {}).get("result"),
        "timings": engine.get("timings", {}),
        "algorithm": engine.get("algorithm"),
        "backend": engine.get("backend"),
        "htk": result.htk_vertices,
        "tasks": result.stats.tasks,
        "candidates": result.stats.candidates,
        "partitions": len(result.partitions),
    }


def _label(args, _kwargs):
    return args[1].label


# ----------------------------------------------------------------------
# installers, one per process role
# ----------------------------------------------------------------------
def install_client(recorder: SpanRecorder) -> None:
    from repro.service import ServiceClient

    wrap(recorder, ServiceClient, "search", "client.search", rid=_label)


def install_server(recorder: SpanRecorder) -> None:
    """Set-up, executor and pool spans of a ``repro serve`` process."""
    import repro.datasets
    from repro.engine.engine import MACEngine
    from repro.pool import PoolExecutor, WorkerPool
    from repro.service.executor import EngineExecutor

    wrap(recorder, repro.datasets, "load_dataset", "setup.dataset")
    wrap(recorder, MACEngine, "load", "setup.snapshot_load")
    wrap(recorder, WorkerPool, "start", "setup.pool_fork")
    for executor in (EngineExecutor, PoolExecutor):
        wrap(recorder, executor, "search_wire", "executor.search_wire",
             rid=_label, attrs=lambda _a, _k, out: answer_attrs(out))


def install_engine(recorder: SpanRecorder) -> None:
    """Engine, road, graph, dominance, search and live spans (in-process)."""
    import repro.engine.engine as engine_mod
    from repro.social.roadsocial import RoadSocialNetwork

    wrap(recorder, engine_mod.MACEngine, "search", "engine.search",
         rid=_label, attrs=lambda _a, _k, out: engine_answer_attrs(out))
    wrap(recorder, engine_mod.MACEngine, "apply", "live.apply",
         attrs=lambda _a, _k, out: {
             "by_kind": out["by_kind"],
             "evicted": out["evicted"],
             "repaired": out["repaired_entries"],
         })
    wrap(recorder, RoadSocialNetwork, "query_distance_filter", "road.filter",
         attrs=lambda _a, _k, out: {"vertices": len(out)})
    for fn in ("core_numbers", "core_decomposition"):
        wrap(recorder, engine_mod, fn, "graph.core")
    wrap(recorder, engine_mod, "DominanceGraph", "dominance.build",
         attrs=lambda _a, _k, gd: {
             "vertices": gd.num_vertices, "arcs": gd.num_arcs(),
         })
    for searcher, name in (("GlobalSearch", "search.global"),
                           ("LocalSearch", "search.local")):
        cls = type(searcher, (getattr(engine_mod, searcher),), {})
        for method in ("search_nc", "search_topj"):
            wrap(recorder, cls, method, name)
        setattr(engine_mod, searcher, cls)
