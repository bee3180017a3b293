"""Size-sweep benchmark of the search dispatch: flat vs python vs auto.

The engine's ``"auto"`` backend picks the GS/LS compute path from
|H^t_k|, the maximal connected (k,t)-core being searched, using the
crossover table in ``repro.kernels.backend``.  This bench is where those
crossovers come from.  It sweeps |H^t_k| buckets from 16 to >= 2048
vertices on ``fl+yelp`` at scale 0.5 (the end-to-end benchmark's
dataset), growing ``t`` to reach the larger cores, and times each
warm search three ways: ``backend="flat"``, ``backend="python"`` and
``backend="auto"``.  Each query set gets one of the end-to-end
benchmark's region sides (rotating) and is searched for both the
non-contained (nc) and the top-5 problem.

Protocol: every request's stages (range filter, core, dominance graph,
and for flat the search CSR view) are built outside the timed window,
so the timed call is the search.  Each bucket's stages are built once,
saved as an index snapshot and served from a fresh engine loaded from
it (result cache off), the way ``repro serve --snapshot`` serves them.
That gives all three modes the same H^t_k adjacency layout -- the python
searchers' speed moves by several percent with the order in which a
core's vertices were inserted, which differs between the flat and
python core extractions -- and keeps the stages of earlier buckets out
of the process's heap.  The three modes are interleaved within each
repeat (fast searches get more repeats), and a search's time is its
best repeat (as ``timeit`` advises: the minimum is the least noisy
estimate of the path's own cost on a shared machine).  All three modes
must return the same communities.  A bucket's time per mode is the sum
over its query sets and both problems.

Emits ``BENCH_dispatch.json``: per-bucket times and the ratio of the
faster forced backend to ``auto``, the per-query points, and for each
algorithm the crossover the sweep measured next to the constant in
``AUTO_FLAT_MIN_VERTICES``.  A full run asserts that ``auto`` is at
least 0.95x the faster backend in every bucket; ``--quick`` (the CI
smoke mode) records only.

Run from this directory::

    PYTHONPATH=../src python bench_dispatch.py [--quick]
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

from repro import MACEngine, MACRequest, PreferenceRegion, datasets
from repro.errors import DatasetError
from repro.kernels.backend import AUTO_FLAT_MIN_VERTICES

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_dispatch.json"

DATASET = "fl+yelp"
SCALE = 0.5
DIMENSIONS = 3
#: The end-to-end benchmark's region sides and top-j; each query set
#: gets one sigma (rotating) and is searched for both problems.
SIGMAS = (0.005, 0.01, 0.05)
PROBLEMS = (("nc", 1), ("topj", 5))

#: Lower edges of the |H^t_k| buckets; the last bucket is open-ended.
BUCKETS = (16, 32, 64, 128, 256, 512, 1024, 2048)
#: Cores above this are left out (the largest this dataset reaches at
#: the swept t is ~2900 vertices).
HTK_MAX = 3200

K_VALUES = (3, 4, 5, 6)
QUERY_SIZES = (1, 2, 4)
#: ``t`` as a multiple of the dataset's default (scaled by road extent).
T_FACTORS = (0.5, 1.0, 1.5, 2.0, 3.0, 5.0, 6.0, 8.0, 10.0, 12.0)

ALGORITHMS = ("global", "local")
MODES = ("flat", "python", "auto")

#: Fast searches repeat until the three modes together have run this
#: long (at most ``MAX_REPEATS`` rounds), so their best is not noise.
MIN_SECONDS = 0.5
MAX_REPEATS = 200

#: Acceptance gate of a full run: auto / faster forced backend.
MIN_AUTO_RATIO = 0.95


def bucket_of(htk: int) -> int | None:
    """Lower edge of the bucket holding ``htk`` (None below the sweep)."""
    edges = [b for b in BUCKETS if b <= htk]
    return edges[-1] if edges and htk <= HTK_MAX else None


def bucket_label(edge: int) -> str:
    i = BUCKETS.index(edge)
    if i + 1 == len(BUCKETS):
        return f">={edge}"
    return f"{edge}-{BUCKETS[i + 1] - 1}"


def collect_queries(ds, per_bucket: int) -> dict[int, list]:
    """Up to ``per_bucket`` distinct (Q, k, t) per |H^t_k| bucket."""
    t0 = ds.default_t * SCALE ** 0.5
    found: dict[int, list] = {b: [] for b in BUCKETS}
    seen = set()
    grid = itertools.product(range(6), T_FACTORS, K_VALUES, QUERY_SIZES)
    for seed, factor, k, size in grid:
        if all(len(v) >= per_bucket for v in found.values()):
            break
        t = t0 * factor
        try:
            query = ds.suggest_query(size, k=k, t=t, seed=seed)
        except DatasetError:
            continue
        core = ds.network.maximal_kt_core(query, k, t)
        htk = 0 if core is None else core.num_vertices
        edge = bucket_of(htk)
        if edge is None or len(found[edge]) >= per_bucket:
            continue
        # One query set per core: a larger t often reaches the same core.
        key = (frozenset(core.graph.vertices()), k)
        if key not in seen:
            seen.add(key)
            found[edge].append((query, k, t, htk))
    return found


def region_for(index: int) -> PreferenceRegion:
    center = [0.9 / DIMENSIONS] * (DIMENSIONS - 1)
    return PreferenceRegion.centered(center, SIGMAS[index % len(SIGMAS)])


def time_query(engine, query, k, t, region, algorithm, problem, j,
               repeats) -> dict:
    """Best warm search seconds per mode, plus the path auto took."""
    requests = {
        mode: MACRequest.make(
            query, k, t, region, algorithm=algorithm, problem=problem, j=j,
            backend=mode,
        )
        for mode in MODES
    }
    answers = {}
    for mode, request in requests.items():
        engine.warm(request)
        result = engine.search(request)
        answers[mode] = result.communities()
        if mode == "auto":
            auto_path = result.extra["engine"]["search_backend"]
    assert answers["flat"] == answers["python"] == answers["auto"], (
        f"{algorithm}-{problem}: backends disagree on Q={query} k={k} t={t}"
    )
    samples: dict[str, list[float]] = {mode: [] for mode in MODES}
    spent = 0.0
    gc.collect()
    gc.disable()  # as timeit does: no collector pauses inside samples
    try:
        rounds = 0
        while rounds < repeats or (
            spent < MIN_SECONDS and rounds < MAX_REPEATS
        ):
            # Rotate the order so no mode always runs after another.
            for mode in MODES[rounds % 3:] + MODES[:rounds % 3]:
                request = requests[mode]
                start = time.perf_counter()
                engine.search(request)
                elapsed = time.perf_counter() - start
                samples[mode].append(elapsed)
                spent += elapsed
            rounds += 1
    finally:
        gc.enable()
    out = {mode: min(s) for mode, s in samples.items()}
    out["auto_path"] = auto_path
    return out


def bucket_engine(network, found, path: Path) -> MACEngine:
    """A fresh engine serving the bucket's warmed stages from a snapshot."""
    builder = MACEngine(network, use_gtree=False, result_cache_size=0)
    for i, (query, k, t, _htk) in enumerate(found):
        for mode in MODES:
            builder.warm(MACRequest.make(
                query, k, t, region_for(i), backend=mode
            ))
    builder.save(path)
    return MACEngine.load(path, network, result_cache_size=0)


def measured_crossover(points: list[dict]) -> int:
    """The |H^t_k| threshold that minimizes the sweep's total search time.

    Python below the threshold, flat at or above it; candidates are the
    sizes the sweep measured (plus "never flat"), ties go to the smaller.
    """
    sizes = sorted({p["htk"] for p in points})
    sizes.append(sizes[-1] + 1)
    return min(sizes, key=lambda threshold: sum(
        p["flat_s"] if p["htk"] >= threshold else p["python_s"]
        for p in points
    ))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="one query per bucket, few repeats, no assertion (CI smoke)",
    )
    parser.add_argument("--per-bucket", type=int, default=None)
    parser.add_argument("--repeats", type=int, default=None)
    parser.add_argument(
        "--output", type=Path, default=OUTPUT,
        help=f"result JSON path (default {OUTPUT})",
    )
    args = parser.parse_args(argv)
    per_bucket = args.per_bucket or (1 if args.quick else 10)
    repeats = args.repeats or (3 if args.quick else 5)

    ds = datasets.load_dataset(
        DATASET, scale=SCALE, dimensions=DIMENSIONS, seed=7
    )
    queries = collect_queries(ds, per_bucket)

    points = {algorithm: [] for algorithm in ALGORITHMS}
    buckets = {algorithm: {} for algorithm in ALGORITHMS}
    tmp = Path(tempfile.mkdtemp(prefix="bench_dispatch-"))
    try:
        for edge, found in queries.items():
            if not found:
                continue
            engine = bucket_engine(ds.network, found, tmp / str(edge))
            for algorithm in ALGORITHMS:
                sums = dict.fromkeys(MODES, 0.0)
                for i, (query, k, t, htk) in enumerate(found):
                    for problem, j in PROBLEMS:
                        timed = time_query(
                            engine, query, k, t, region_for(i), algorithm,
                            problem, j, repeats,
                        )
                        for mode in MODES:
                            sums[mode] += timed[mode]
                        points[algorithm].append({
                            "htk": htk, "k": k, "problem": problem,
                            "sigma": SIGMAS[i % len(SIGMAS)],
                            "flat_s": timed["flat"],
                            "python_s": timed["python"],
                            "auto_s": timed["auto"],
                            "auto_path": timed["auto_path"],
                        })
                buckets[algorithm][bucket_label(edge)] = {
                    "queries": len(found),
                    "flat_s": sums["flat"],
                    "python_s": sums["python"],
                    "auto_s": sums["auto"],
                    "auto_vs_best": min(sums["flat"], sums["python"])
                    / sums["auto"],
                }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    results = {
        "dataset": DATASET,
        "scale": SCALE,
        "dimensions": DIMENSIONS,
        "sigmas": SIGMAS,
        "problems": [f"{p} (j={j})" for p, j in PROBLEMS],
        "repeats": repeats,
        "quick": args.quick,
        "crossover": {
            algorithm: {
                "constant": AUTO_FLAT_MIN_VERTICES[algorithm],
                "measured": measured_crossover(points[algorithm]),
            }
            for algorithm in ALGORITHMS
        },
        "buckets": buckets,
        "points": points,
    }

    print(f"== dispatch: {DATASET} scale={SCALE} repeats={repeats}")
    for algorithm in ALGORITHMS:
        cross = results["crossover"][algorithm]
        print(f"{algorithm}: crossover constant {cross['constant']}, "
              f"measured {cross['measured']}")
        for label, entry in buckets[algorithm].items():
            print(
                f"  |H|{label:>9s}  flat {entry['flat_s'] * 1e3:8.2f}ms  "
                f"python {entry['python_s'] * 1e3:8.2f}ms  "
                f"auto {entry['auto_s'] * 1e3:8.2f}ms  "
                f"auto/best {entry['auto_vs_best']:.2f}  "
                f"({entry['queries']} queries)"
            )

    args.output.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {args.output}")

    if not args.quick:
        for algorithm in ALGORITHMS:
            assert len(buckets[algorithm]) == len(BUCKETS), (
                f"{algorithm}: sweep left buckets empty: "
                f"{sorted(buckets[algorithm])}"
            )
            for label, entry in buckets[algorithm].items():
                assert entry["auto_vs_best"] >= MIN_AUTO_RATIO, (
                    f"{algorithm} |H^t_k| {label}: auto at "
                    f"{entry['auto_vs_best']:.2f}x the faster backend "
                    f"(floor {MIN_AUTO_RATIO})"
                )
        print(f"asserted: auto >= {MIN_AUTO_RATIO}x the faster backend "
              f"in every |H^t_k| bucket")
    return 0


if __name__ == "__main__":
    sys.exit(main())
