"""Closed-loop load generator: one process, one thread per connection.

Each thread owns one keep-alive ``ServiceClient`` and sends its next
request only after the previous reply arrived (callers block on their
replies), for a fixed number of seconds.  Every request carries a
unique ``label`` -- the request id spans are joined on; labels are not
part of a request's identity, so they never defeat the result cache.

Usage (the benchmark starts it; the input file holds generated inputs)::

    python perfbench/loadgen.py --port P --input in.json --output out.json
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import threading
import time

from benchlib import service_result_digest
from repro.service import ServiceClient
from repro.service.protocol import request_from_wire
from spans import SpanRecorder, install_client

#: ``unique`` requests get a fresh ``time_budget`` per call: it is part
#: of the result-cache identity but far above any search time here, so
#: each call misses the result cache while computing the same answer.
UNIQUE_BUDGET = 3600.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--input", required=True)
    parser.add_argument("--output", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--cpu", type=int, default=None,
                        help="pin this process to one CPU")
    args = parser.parse_args(argv)
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})
    with open(args.input) as fh:
        spec = json.load(fh)
    requests = [request_from_wire(w) for w in spec["requests"]]
    orders = spec["orders"]
    unique = spec["mode"] == "unique"
    threads = len(orders)
    recorder = SpanRecorder() if args.trace else None
    if recorder is not None:
        install_client(recorder)

    clients = [ServiceClient(port=args.port) for _ in orders]
    for client in clients:
        client.healthz()  # open the keep-alive connection before timing
    per_thread = [
        {"samples": [], "observed": {}, "errors": [], "end": 0.0}
        for _ in orders
    ]
    barrier = threading.Barrier(threads + 1)
    window = [0.0, 0.0]  # start, deadline

    def worker(tid: int) -> None:
        client, order, out = clients[tid], orders[tid], per_thread[tid]
        samples, observed = out["samples"], out["observed"]
        barrier.wait()
        origin, deadline = window
        n = 0
        while time.perf_counter() < deadline:
            idx = order[n % len(order)]
            fields = {"label": f"t{tid}-{n}"}
            if unique:
                fields["time_budget"] = UNIQUE_BUDGET + tid + threads * n
            request = dataclasses.replace(requests[idx], **fields)
            sent = time.perf_counter()
            try:
                result = client.search(request)
            except Exception as exc:
                # The loop must keep offering load; the failure is
                # reported and fails the run.
                out["errors"].append(f"{type(exc).__name__}: {exc}")
                result = None
            done = time.perf_counter()
            n += 1
            if result is None:
                continue
            samples.append((done - origin, (done - sent) * 1e3))
            seen = observed.setdefault(idx, {})
            digest = service_result_digest(result)
            seen[digest] = seen.get(digest, 0) + 1
        out["end"] = time.perf_counter()

    pool = [
        threading.Thread(target=worker, args=(i,), name=f"load-{i}")
        for i in range(threads)
    ]
    for t in pool:
        t.start()
    window[0] = time.perf_counter()
    window[1] = window[0] + spec["seconds"]
    barrier.wait()
    for t in pool:
        t.join()
    for client in clients:
        client.close()
    observed: dict = {}
    for out in per_thread:
        for idx, seen in out["observed"].items():
            merged = observed.setdefault(str(idx), {})
            for digest, count in seen.items():
                merged[digest] = merged.get(digest, 0) + count
    result = {
        "window_s": max(out["end"] for out in per_thread) - window[0],
        "samples": sorted(x for out in per_thread for x in out["samples"]),
        "errors": [e for out in per_thread for e in out["errors"]],
        "observed": observed,
        "spans": recorder.spans if recorder is not None else [],
    }
    with open(args.output, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
