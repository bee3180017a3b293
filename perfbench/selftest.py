"""Tests of the benchmark itself: smoke runs, the answer checker, the
catalogue, and refusal to run without a source tree.

Kept out of the default test collection (the smoke runs boot servers
and take about a minute); run from the repository root with
``python -m pytest perfbench/selftest.py -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import benchlib
import metrics as M

RUN = benchlib.BENCH_DIR / "run.py"
WORKLOADS = (M.HIT, M.POOL, M.CHURN)
SMOKE_SCALE = "0.1"


def _run(*argv, cwd=benchlib.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(RUN), *argv], cwd=cwd, capture_output=True,
        text=True, timeout=300,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_end_to_end(workload):
    result = _result(_run("--workload", workload, "--seed", "3",
                          "--seconds", "1", "--trace", "0",
                          "--scale", SMOKE_SCALE))
    assert set(result["metrics"]) == set(M.END_TO_END)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == M.END_TO_END[name][0]
        assert metric["value"] > 0, name


def test_smoke_traced_reports_every_layer():
    result = _result(_run("--workload", M.CHURN, "--seed", "3",
                          "--seconds", "1", "--trace", "1",
                          "--scale", SMOKE_SCALE))
    assert set(result["metrics"]) == set(M.PER_LAYER)
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert values["error_rate"] == 0
    assert values["trace.overhead"] > 0
    assert values["road.filter_ms.p50"] > 0
    assert values["dominance.build_ms.p50"] > 0


def test_refuses_without_source_tree(tmp_path):
    shutil.copytree(benchlib.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(benchlib.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", M.HIT,
         "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _tiny_answer():
    benchlib.use_source_tree()
    from repro import MACEngine, datasets
    from repro.service.protocol import result_from_wire, result_to_wire
    from workload_inputs import hit_requests

    ds = datasets.load_dataset(benchlib.DATASET, scale=0.05,
                               seed=benchlib.DATASET_SEED)
    request = hit_requests(ds, 0.05)[0]
    result = MACEngine(ds.network).search(request)
    assert result.partitions, "the checker test needs a non-empty answer"
    return result, result_from_wire(json.loads(json.dumps(
        result_to_wire(result))))


def test_checker_accepts_a_faithful_response():
    engine_result, served = _tiny_answer()
    reference = {"0": benchlib.engine_result_digest(engine_result)}
    observed = {"0": {benchlib.service_result_digest(served): 7}}
    assert benchlib.check_answers(reference, observed)[:2] == (7, 0)


def test_checker_counts_a_tampered_response_as_failed():
    engine_result, served = _tiny_answer()
    reference = {"0": benchlib.engine_result_digest(engine_result)}
    faithful = benchlib.service_result_digest(served)
    community = served.partitions[0].communities[0]
    served.partitions[0].communities[0] = frozenset(
        sorted(community)[1:] if len(community) > 1 else {-1})
    tampered = benchlib.service_result_digest(served)
    assert tampered != faithful
    observed = {"0": {faithful: 5, tampered: 1}}
    checked, failed, mismatches = benchlib.check_answers(reference, observed)
    assert (checked, failed) == (6, 1)
    assert mismatches[0]["got"] == tampered


def test_checker_fails_answers_without_reference():
    assert benchlib.check_answers({}, {"9": {"x": 2}})[:2] == (2, 2)


def test_inputs_repeat_for_a_seed():
    benchlib.use_source_tree()
    import numpy as np
    from repro import datasets
    from workload_inputs import churn_inputs

    ds = datasets.load_dataset(benchlib.DATASET, scale=0.05,
                               seed=benchlib.DATASET_SEED)
    one = churn_inputs(ds, np.random.default_rng(11), 0.05, 5)
    two = churn_inputs(ds, np.random.default_rng(11), 0.05, 5)
    assert one == two
    assert len(one["steps"]) == 5 * 6


def test_benchmark_json_matches_the_catalogue():
    spec = json.loads((benchlib.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(M.GATED)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]
            } == M.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]
            } == {
        name: (row[0], "higher" if name in M.HIGHER_IS_BETTER else "lower")
        for name, row in M.PER_LAYER.items()}
    assert Path(benchlib.ROOT / spec["command"][1]) == RUN
