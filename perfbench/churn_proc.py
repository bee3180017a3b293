"""The ``churn-engine`` process: one thread using ``MACEngine`` as a library.

Sets the engine up (dataset, eager G-tree, hot-set warm-up) one or more
times, then runs the generated steps in order for a fixed number of
seconds: queries through ``MACEngine.search`` and mutation batches
through ``MACEngine.apply``.  Afterwards, untimed, it re-issues the hot
set so the benchmark can check the answers against a fresh engine built
over the mutated network.  With ``--trace`` the span wrappers are
installed after set-up and record only the timed steps.

    python perfbench/churn_proc.py --input in.json --output out.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from benchlib import (
    DATASET,
    DATASET_SEED,
    DIMENSIONS,
    engine_result_digest,
    pss_mb,
)
from repro import MACEngine, datasets
from repro.errors import ReproError
from repro.service.protocol import request_from_wire, telemetry_to_wire
from spans import SpanRecorder, install_engine


def _setup(scale: float, hot: list) -> tuple[MACEngine, dict]:
    start = time.perf_counter()
    ds = datasets.load_dataset(
        DATASET, scale=scale, seed=DATASET_SEED, dimensions=DIMENSIONS
    )
    loaded = time.perf_counter()
    engine = MACEngine(ds.network, eager=True)
    built = time.perf_counter()
    for request in hot:
        engine.search(request)
    done = time.perf_counter()
    return engine, {
        "total": done - start,
        "dataset": loaded - start,
        "index_build": built - loaded,
        "warm": done - built,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--input", required=True)
    parser.add_argument("--output", required=True)
    parser.add_argument("--setups", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    with open(args.input) as fh:
        spec = json.load(fh)
    hot = [request_from_wire(w) for w in spec["hot"]]
    steps = [
        ("query", hot[s["hot"]] if "hot" in s
         else request_from_wire(s["request"]))
        if s["op"] == "query" else (s["kind"], s["batch"])
        for s in spec["steps"]
    ]
    setups = []
    for _ in range(args.setups):
        engine, times = _setup(spec["scale"], hot)
        setups.append(times)

    recorder = SpanRecorder() if args.trace else None
    if recorder is not None:
        install_engine(recorder)
    before = telemetry_to_wire(engine.telemetry())["caches"]
    queries, mutations, done_at, errors = [], [], [], []
    executed = 0
    start = time.perf_counter()
    deadline = start + spec["seconds"]
    for kind, payload in steps:
        t0 = time.perf_counter()
        if t0 >= deadline:
            break
        try:
            if kind == "query":
                engine.search(payload)
            else:
                engine.apply(payload)
        except ReproError as exc:
            errors.append(f"step {executed}: {type(exc).__name__}: {exc}")
        t1 = time.perf_counter()
        done_at.append(t1 - start)
        if kind == "query":
            queries.append((t1 - start, (t1 - t0) * 1e3))
        else:
            mutations.append((t1 - t0) * 1e3)
        executed += 1
    window = time.perf_counter() - start
    memory_mb = pss_mb([os.getpid()])
    after = telemetry_to_wire(engine.telemetry())["caches"]
    if recorder is not None:
        recorder.active = False
    out = {
        "setups": setups,
        "window_s": window,
        "executed": executed,
        "memory_mb": memory_mb,
        "exhausted": executed == len(steps),
        "done_at": done_at,
        "query_samples": queries,
        "mutation_ms": mutations,
        "errors": errors,
        "caches_before": before,
        "caches_after": after,
        "hot_digests": [engine_result_digest(engine.search(r)) for r in hot],
        "spans": recorder.spans if recorder is not None else [],
    }
    with open(args.output, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
