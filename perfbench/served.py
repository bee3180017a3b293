"""The served workloads: ``hit-threads`` and ``search-pool``.

Three processes take part.  This one (the orchestrator) generates the
inputs and reference answers, builds the snapshot, starts the server and
the load generator, reads the server's memory after the window, and
checks every answer.  The server is the real ``repro serve`` (``serve_proc.py``); the
load generator (``loadgen.py``) is a separate closed-loop client
process, so load generation never competes with the server for its GIL.
"""

from __future__ import annotations

import dataclasses
import json
import os
import queue
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import metrics as M
import workload_inputs as inputs
from benchlib import (
    BENCH_DIR,
    DATASET,
    DATASET_SEED,
    DIMENSIONS,
    ROOT,
    check_answers,
    child_env,
    engine_result_digest,
    median,
    nproc,
    process_tree,
    pss_mb,
    service_result_digest,
    share,
    stop_process,
    window_stats,
)
from repro import MACEngine, datasets
from repro.service import ServiceClient
from repro.service.protocol import request_to_wire

#: Closed-loop client threads, one keep-alive connection each.
CLIENT_THREADS = 2
#: ``search-pool`` worker processes (sized for nproc = 2).
POOL_WORKERS = 2
#: Server boots per untraced run; ``setup_s`` is their median.
SETUPS = 3
READY_TIMEOUT = 120.0
_BANNER = re.compile(r"serving on http://([\d.]+):(\d+)")


class Server:
    """One ``repro serve`` child process, ready once its banner printed."""

    def __init__(self, argv: list[str], log: Path) -> None:
        self._log = open(log, "w")
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "serve_proc.py"), *argv],
            cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
            stderr=self._log, text=True, start_new_session=True,
        )
        self._lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(
            target=self._read, name="server-stdout", daemon=True
        )
        self._reader.start()
        self.port = self._await_banner()

    def _read(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def _await_banner(self) -> int:
        deadline = time.monotonic() + READY_TIMEOUT
        while True:
            try:
                line = self._lines.get(
                    timeout=max(0.0, deadline - time.monotonic()))
            except queue.Empty:
                line = None
            if line is None:
                self.stop()
                raise RuntimeError("server exited or timed out before ready")
            match = _BANNER.search(line)
            if match:
                return int(match.group(2))

    def stop(self) -> None:
        stop_process(self.proc)
        self._reader.join(timeout=10.0)
        self.proc.stdout.close()
        self._log.close()


def _prepare(workload: str, seed: int, scale: float, tmp: Path,
             seconds: float) -> dict:
    """Inputs, reference answers and the snapshot, all before timing."""
    rng = np.random.default_rng(seed)
    ds = datasets.load_dataset(
        DATASET, scale=scale, seed=DATASET_SEED, dimensions=DIMENSIONS
    )
    hit = workload == M.HIT
    base = (inputs.hit_requests(ds, scale) if hit
            else inputs.pool_requests(ds, scale))
    # Reference answers from the python kernels with plain Dijkstra: the
    # independent path the served answers are checked against.
    ref = MACEngine(ds.network, backend="python", use_gtree=False,
                    result_cache_size=0)
    reference = {
        str(i): engine_result_digest(ref.search(r)) for i, r in enumerate(base)
    }
    # The snapshot `repro index build --warm` would write: G-tree, road
    # CSR and every base request's stages.  The pool serves it mmap'd,
    # so it is stored uncompressed there.
    engine = MACEngine(ds.network, use_gtree=True, eager=True)
    for request in base:
        engine.warm(request)
    snapshot = tmp / "snapshot"
    engine.save(snapshot, compress=hit)
    length = max(1000, int(seconds * 4000))
    order = inputs.zipf_order if hit else inputs.shuffled_cycles
    spec = {
        "requests": [request_to_wire(r) for r in base],
        "orders": [order(rng, len(base), length)
                   for _ in range(CLIENT_THREADS)],
        "mode": "same" if hit else "unique",
        "seconds": seconds,
    }
    (tmp / "load.json").write_text(json.dumps(spec))
    snapshot_mb = sum(
        p.stat().st_size for p in snapshot.rglob("*") if p.is_file()
    ) / 2**20
    return {"base": base, "reference": reference, "snapshot": snapshot,
            "snapshot_mb": snapshot_mb}


def _cpus(workload: str) -> tuple[int, int] | None:
    """CPUs of (server, load generator) for ``hit-threads``, else None.

    The thread executor's request path is a chain of thread wake-ups
    under one GIL, sensitive to where the scheduler puts the server's
    and the client's threads; pinned, neither migrates mid-run.  The
    pool is not pinned: its workers must spread over the CPUs.
    """
    allowed = sorted(os.sched_getaffinity(0))
    if workload != M.HIT or len(allowed) < 2:
        return None
    return allowed[0], allowed[1]


def _serve_argv(workload: str, scale: float, snapshot: Path) -> list[str]:
    argv = ["serve", "--dataset", DATASET, "--scale", str(scale),
            "--seed", str(DATASET_SEED), "--dimensions", str(DIMENSIONS),
            "--snapshot", str(snapshot), "--port", "0"]
    if workload == M.POOL:
        argv += ["--worker-processes", str(POOL_WORKERS)]
    return argv


def _boot(workload, scale, prep, tmp, tag, spans=None):
    """Start a server and warm it; returns (server, setup_s, warm_s, failed)."""
    argv = _serve_argv(workload, scale, prep["snapshot"])
    if spans is not None:
        argv = ["--spans", str(spans), *argv]
    cpus = _cpus(workload)
    if cpus is not None:
        argv = ["--cpu", str(cpus[0]), *argv]
    start = time.monotonic()
    server = Server(argv, tmp / f"server-{tag}.log")
    warm_start = time.monotonic()
    failed = 0
    try:
        with ServiceClient(port=server.port) as client:
            for i, request in enumerate(prep["base"]):
                result = client.search(
                    dataclasses.replace(request, label=f"warm-{i}"))
                if service_result_digest(result) != prep["reference"][str(i)]:
                    failed += 1
    except BaseException:
        server.stop()
        raise
    done = time.monotonic()
    return server, done - start, done - warm_start, failed


def _metrics(port: int) -> dict:
    with ServiceClient(port=port) as client:
        return client.metrics()


def _drive(server: Server, workload: str, tmp: Path, tag: str, trace: bool,
           seconds: float) -> tuple[dict, dict, dict, float]:
    """One timed closed-loop window against a warm server."""
    before = _metrics(server.port)
    out = tmp / f"load-{tag}.out.json"
    argv = [sys.executable, str(BENCH_DIR / "loadgen.py"),
            "--port", str(server.port), "--input", str(tmp / "load.json"),
            "--output", str(out)]
    if trace:
        argv.append("--trace")
    cpus = _cpus(workload)
    if cpus is not None:
        argv += ["--cpu", str(cpus[1])]
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                            start_new_session=True)
    try:
        proc.wait(timeout=seconds + 120.0)
    finally:
        stop_process(proc)
    if proc.returncode != 0:
        raise RuntimeError(f"load generator exited with {proc.returncode}")
    # Memory once the window is over: sampling during it would stall the
    # server (reading smaps takes the target's memory-map lock).
    memory_mb = pss_mb(process_tree(server.proc.pid))
    after = _metrics(server.port)
    return json.loads(out.read_text()), before, after, memory_mb


def _outcome(load: dict, prep: dict) -> dict:
    _checked, mismatched, mismatches = check_answers(
        prep["reference"], load["observed"])
    samples = load["samples"]
    errors = len(load["errors"])
    stats = window_stats([at for at, _ in samples], samples,
                         load["window_s"])
    return {
        "attempted": len(samples) + errors,
        "failed": errors + mismatched,
        "notes": load["errors"][:3] + mismatches[:3],
        **stats,
    }


def _delta(before: dict, after: dict, *path) -> float:
    a, b = after, before
    for key in path:
        a, b = a.get(key, {}), b.get(key, {})
    return (a or 0) - (b or 0)


def _layers(load, server_spans, before, after, prep, workload, window,
            warm_s) -> dict:
    timed = [s for s in server_spans if s["name"] == "executor.search_wire"
             and str(s["rid"]).startswith("t")]
    by_rid = {s["rid"]: s for s in timed}
    client = [s for s in load["spans"] if s["rid"] in by_rid]
    out = M.answer_metrics([s["attrs"] for s in timed])
    out["service.self_ms.p50"] = median(
        [M.ms(c) - M.ms(by_rid[c["rid"]]) for c in client])
    out["service.executor_ms.p50"] = median([M.ms(s) for s in timed])
    out["service.rejected"] = _delta(before, after, "service", "rejected")
    out["service.shed"] = (
        _delta(before, after, "degradation", "shed_expired")
        + _delta(before, after, "degradation", "shed_predicted"))
    out["service.degraded"] = _delta(
        before, after, "degradation", "brownout_degraded")
    out.update(M.cache_hit_rates(before["engine"]["caches"],
                                 after["engine"]["caches"]))
    if workload == M.POOL:
        out["pool.self_ms.p50"] = median(
            [M.ms(s) - s["attrs"]["elapsed"] * 1e3 for s in timed])
        out["pool.worker_busy_share"] = share(
            sum(s["attrs"]["elapsed"] for s in timed), POOL_WORKERS * window)
        out["pool.workers_effective"] = min(POOL_WORKERS, nproc())
        dispatched = sum(
            _delta(before, after, "pool", "dispatched", kind)
            for kind in ("affinity", "spill", "failover"))
        out["pool.spill_share"] = share(
            _delta(before, after, "pool", "dispatched", "spill"), dispatched)
        out["pool.hedges"] = _delta(before, after, "pool", "hedges")
        out["pool.restarts"] = _delta(before, after, "pool", "restarts")
        forks = [M.ms(s) / 1e3 for s in server_spans
                 if s["name"] == "setup.pool_fork"]
        out["setup.pool_fork_s"] = sum(forks)
    for name in ("dataset", "snapshot_load"):
        out[f"setup.{name}_s"] = sum(
            M.ms(s) / 1e3 for s in server_spans
            if s["name"] == f"setup.{name}")
    out["setup.warm_s"] = warm_s
    out["store.snapshot_mb"] = prep["snapshot_mb"]
    return out


def run(workload: str, seed: int, seconds: float, trace: bool, scale: float,
        tmp: Path) -> dict:
    prep = _prepare(workload, seed, scale, tmp, seconds)
    setups, boot_failed = [], 0
    server = None
    try:
        for i in range(1 if trace else SETUPS):
            if server is not None:
                server.stop()
            server, setup_s, _warm, failed = _boot(
                workload, scale, prep, tmp, f"plain-{i}")
            setups.append(setup_s)
            boot_failed += failed
        load, _before, _after, memory_mb = _drive(
            server, workload, tmp, "plain", False, seconds)
    finally:
        if server is not None:
            server.stop()
    plain = _outcome(load, prep)
    attempted = plain["attempted"] + len(prep["base"]) * len(setups)
    failed = plain["failed"] + boot_failed
    result = {
        "attempted": attempted,
        "failed": failed,
        "notes": plain["notes"],
        "end_to_end": {
            "setup_s": median(setups),
            "throughput_ops_s": plain["throughput"],
            "latency_p50_ms": plain["p50"],
            "latency_p99_ms": plain["p99"],
            "rss_mb": memory_mb,
        },
    }
    if not trace:
        return result
    spans_path = tmp / "server-spans.json"
    server, _setup, warm_s, failed = _boot(
        workload, scale, prep, tmp, "traced", spans=spans_path)
    try:
        traced_load, before, after, _memory = _drive(
            server, workload, tmp, "traced", True, seconds)
    finally:
        server.stop()
    traced = _outcome(traced_load, prep)
    result["attempted"] += traced["attempted"] + len(prep["base"])
    result["failed"] += traced["failed"] + failed
    server_spans = json.loads(spans_path.read_text())
    layers = _layers(traced_load, server_spans, before, after, prep,
                     workload, traced_load["window_s"], warm_s)
    layers["error_rate"] = share(result["failed"], result["attempted"])
    layers["trace.overhead"] = share(traced["p50"], plain["p50"])
    result["per_layer"] = layers
    return result
