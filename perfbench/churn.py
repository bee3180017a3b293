"""The ``churn-engine`` workload: library use with live mutations.

The orchestrator generates the hot set and the step list, runs
``churn_proc.py`` (the library caller) in a child process, and
afterwards checks the live engine's hot-set answers against a fresh
python-backend engine built over the same dataset with the same
executed mutation batches applied.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
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
    child_env,
    engine_result_digest,
    median,
    percentile,
    share,
    stop_process,
    window_stats,
)
from repro import MACEngine, datasets
from repro.errors import ReproError
from repro.service.protocol import request_from_wire

#: Engine set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: Step blocks generated per measured second: more than the engine can
#: run, so a window never runs out of inputs.
BLOCKS_PER_SECOND = 100


def _child(tmp: Path, tag: str, setups: int, trace: bool,
           seconds: float) -> dict:
    out = tmp / f"churn-{tag}.out.json"
    argv = [sys.executable, str(BENCH_DIR / "churn_proc.py"),
            "--input", str(tmp / "churn.json"), "--output", str(out),
            "--setups", str(setups)]
    if trace:
        argv.append("--trace")
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                            start_new_session=True)
    try:
        proc.wait(timeout=seconds + 150.0)
    finally:
        stop_process(proc)
    if proc.returncode != 0:
        raise RuntimeError(f"churn process exited with {proc.returncode}")
    return json.loads(out.read_text())


def _check(spec: dict, scale: float, run: dict) -> tuple[int, list]:
    """Hot-set answers of the live engine vs a fresh python engine.

    The fresh engine runs over a regenerated dataset to which exactly
    the mutation batches the child executed were applied, in order.
    A batch the reference rejects is itself a failure.
    """
    ds = datasets.load_dataset(
        DATASET, scale=scale, seed=DATASET_SEED, dimensions=DIMENSIONS
    )
    applier = MACEngine(ds.network, backend="python", use_gtree=False,
                        result_cache_size=0)
    failed, notes = 0, []
    for i, step in enumerate(spec["steps"][:run["executed"]]):
        if step["op"] != "mutate":
            continue
        try:
            applier.apply(step["batch"])
        except ReproError as exc:
            failed += 1
            notes.append(f"reference rejected step {i}: {exc}")
    ref = MACEngine(ds.network, backend="python", use_gtree=False,
                    result_cache_size=0)
    for i, wire in enumerate(spec["hot"]):
        want = engine_result_digest(ref.search(request_from_wire(wire)))
        if run["hot_digests"][i] != want:
            failed += 1
            notes.append({"hot": i, "got": run["hot_digests"][i],
                          "want": want})
    return failed, notes


def _tally(spec, scale, run) -> tuple[int, int, list]:
    failed, notes = _check(spec, scale, run)
    attempted = run["executed"] + len(spec["hot"])
    return attempted, failed + len(run["errors"]), run["errors"][:3] + notes


def _layers(run: dict, plain: dict) -> dict:
    spans = run["spans"]
    answers = [s["attrs"] for s in spans if s["name"] == "engine.search"]
    out = M.answer_metrics(answers)
    out.update(M.stage_metrics(spans))
    out.update(M.cache_hit_rates(run["caches_before"], run["caches_after"]))
    out["mutation_p50_ms"] = median(plain["mutation_ms"])
    out["mutation_p90_ms"] = percentile(plain["mutation_ms"], 90.0)
    setup = run["setups"][-1]
    out["setup.dataset_s"] = setup["dataset"]
    out["setup.index_build_s"] = setup["index_build"]
    out["setup.warm_s"] = setup["warm"]
    return out


def run(seed: int, seconds: float, trace: bool, scale: float,
        tmp: Path) -> dict:
    rng = np.random.default_rng(seed)
    ds = datasets.load_dataset(
        DATASET, scale=scale, seed=DATASET_SEED, dimensions=DIMENSIONS
    )
    blocks = math.ceil(seconds * BLOCKS_PER_SECOND)
    spec = inputs.churn_inputs(ds, rng, scale, blocks)
    spec.update(scale=scale, seconds=seconds)
    (tmp / "churn.json").write_text(json.dumps(spec))

    plain = _child(tmp, "plain", 1 if trace else SETUPS, False, seconds)
    attempted, failed, notes = _tally(spec, scale, plain)
    if plain["exhausted"]:
        notes.append("step list exhausted before the window ended")
    stats = window_stats(plain["done_at"], plain["query_samples"],
                         plain["window_s"])
    result = {
        "attempted": attempted,
        "failed": failed,
        "notes": notes,
        "end_to_end": {
            "setup_s": median([s["total"] for s in plain["setups"]]),
            "throughput_ops_s": stats["throughput"],
            "latency_p50_ms": stats["p50"],
            "latency_p99_ms": stats["p99"],
            "rss_mb": plain["memory_mb"],
        },
    }
    if not trace:
        return result
    traced = _child(tmp, "traced", 1, True, seconds)
    t_attempted, t_failed, t_notes = _tally(spec, scale, traced)
    result["attempted"] += t_attempted
    result["failed"] += t_failed
    result["notes"] += t_notes
    layers = _layers(traced, plain)
    layers["error_rate"] = share(result["failed"], result["attempted"])
    layers["trace.overhead"] = share(
        median([ms for _, ms in traced["query_samples"]]),
        median([ms for _, ms in plain["query_samples"]]))
    result["per_layer"] = layers
    return result
