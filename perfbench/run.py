"""End-to-end, layer-by-layer benchmark of MAC community search.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload search-pool --seed 1 --seconds 30 --trace 0

Workloads (``GLOSSARY.md`` says why each exists):

* ``search-pool``  -- ``repro serve --worker-processes 2`` on an mmap'd
  snapshot; every request unique, so each runs the search;
* ``churn-engine`` -- ``MACEngine`` used in-process: fresh queries, a
  hot set, and live mutation batches;
* ``hit-threads``  -- ``repro serve`` on the thread executor from a
  snapshot; Zipf-repeated requests, every timed one a result-cache hit.
  Not in ``BENCHMARK.json``: run it on demand (see ``GLOSSARY.md``).

``--trace 0`` measures and prints the end-to-end metrics; ``--trace 1``
runs an untraced and a traced window and prints the per-layer metrics.
Every answer is checked; a wrong answer, a typed error or a rejected
mutation batch makes the run fail (exit status 1).  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import benchlib  # noqa: E402
import metrics as M  # noqa: E402

WORKLOADS = (M.POOL, M.CHURN, M.HIT)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=benchlib.SCALE,
        help=f"dataset scale (default {benchlib.SCALE}; smaller only for "
             f"smoke tests)",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not benchlib.source_available():
        print(f"error: no source tree at {benchlib.SRC}; run from the root "
              f"of a checkout", file=sys.stderr)
        return 2
    benchlib.use_source_tree()
    import churn
    import served

    scratch = benchlib.ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        if args.workload == M.CHURN:
            result = churn.run(args.seed, args.seconds, bool(args.trace),
                               args.scale, tmp)
        else:
            result = served.run(args.workload, args.seed, args.seconds,
                                bool(args.trace), args.scale, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass  # another run is using it

    env = benchlib.environment(args.workload, args.seed, args.scale)
    print("environment " + json.dumps(env, sort_keys=True))
    if not env["parallel"]:
        print("note: nproc < 2, so pool.workers_effective is 1 and the pool "
              "numbers measure no parallel scaling")
    for note in result["notes"]:
        print(f"failure: {note}")
    metrics = {}
    if args.trace:
        for name, value in M.complete(result["per_layer"]).items():
            unit, layer, moves, workload = M.PER_LAYER[name]
            metrics[name] = {"value": value, "unit": unit}
            print(f"{name:34s} {value:14.6f} {unit:6s} [{layer}] "
                  f"moves {moves} on {workload}")
    else:
        for name, value in result["end_to_end"].items():
            unit, better = M.END_TO_END[name]
            metrics[name] = {"value": value, "unit": unit}
            print(f"{name:34s} {value:14.6f} {unit:6s} ({better} is better)")
    correct = result["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
