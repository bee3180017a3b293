"""Shared pieces of the end-to-end benchmark.

The benchmark runs from the root of a source checkout: ``src/`` holds the
``repro`` package under test and ``perfbench/`` (this directory) holds
the benchmark.  Every helper here is import-safe: importing starts no
thread or process and touches no file.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: The paper's largest bundled pairing at half scale: 4000 users,
#: 2640 road vertices, d = 3 attributes, G-tree on (road >= 2048).
DATASET = "fl+yelp"
SCALE = 0.5
DATASET_SEED = 7
DIMENSIONS = 3


def source_available() -> bool:
    """True when the checkout holds the package the benchmark measures."""
    return (SRC / "repro" / "__init__.py").is_file()


def use_source_tree() -> None:
    """Make ``import repro`` resolve to the checkout's ``src/``."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict:
    """Environment for benchmark child processes (same source tree)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), str(BENCH_DIR), env.get("PYTHONPATH")) if p
    )
    return env


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-linux
        return os.cpu_count() or 1


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0 for an empty sample)."""
    if not len(values):
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 50.0)


def share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


#: Operations a slice needs to average over the workload's mix of cheap
#: and costly operations.
SLICE_OPS = 200
#: Samples a latency slice needs before its p99 has ten samples beyond it.
TAIL_SAMPLES = 1000


def window_stats(done_at: list, latencies: list, window_s: float) -> dict:
    """Throughput and latency percentiles of one timed window.

    ``done_at`` holds the completion time (seconds from the window's
    start) of every completed operation; ``latencies`` holds
    ``(done_at, ms)`` pairs of the operations whose latency is reported.
    The window is cut into slices of at least one second and
    ``SLICE_OPS`` operations.  On a shared machine,
    neighbours take CPU time in bursts of a fraction of a second to
    minutes, so each statistic is read from the better slices: the
    throughput is the upper quartile of the per-slice throughputs, the
    p50 the lower quartile of the per-slice medians.  The p99 slices are
    long enough to hold ``TAIL_SAMPLES`` latencies each (one slice when
    the window has fewer), and the p99 is the lower quartile of theirs.
    A change that slows every request moves all slices alike.
    """
    def sliced(values, n):
        buckets = [[] for _ in range(n)]
        for at, value in values:
            buckets[min(n - 1, int(at / window_s * n))].append(value)
        return buckets

    n = max(1, min(int(window_s), len(done_at) // SLICE_OPS))
    per_slice = [len(b) for b in sliced([(at, 1) for at in done_at], n)]
    p50s = [median(b) for b in sliced(latencies, n) if b]
    tail = max(1, min(n, len(latencies) // TAIL_SAMPLES))
    p99s = [percentile(b, 99.0) for b in sliced(latencies, tail) if b]
    return {
        "throughput": percentile(per_slice, 75.0) * n / window_s,
        "p50": percentile(p50s, 25.0),
        "p99": percentile(p99s, 25.0),
    }


# ----------------------------------------------------------------------
# memory of the serving side
# ----------------------------------------------------------------------
def _children(pid: int) -> list[int]:
    out: list[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return out
    for tid in tasks:
        try:
            text = Path(f"/proc/{pid}/task/{tid}/children").read_text()
        except OSError:
            continue
        out.extend(int(c) for c in text.split())
    return out


def process_tree(pid: int) -> list[int]:
    """``pid`` and all its descendants (e.g. a server and its workers)."""
    seen, stack = [], [pid]
    while stack:
        p = stack.pop()
        seen.append(p)
        stack.extend(_children(p))
    return seen


def pss_mb(pids) -> float:
    """Summed proportional set size: shared pages are counted once."""
    total_kb = 0
    for pid in pids:
        try:
            text = Path(f"/proc/{pid}/smaps_rollup").read_text()
        except OSError:
            continue
        for line in text.splitlines():
            if line.startswith("Pss:"):
                total_kb += int(line.split()[1])
                break
    return total_kb / 1024.0


# ----------------------------------------------------------------------
# environment stamp
# ----------------------------------------------------------------------
def _git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable"


def source_digest() -> str:
    """Content hash of ``src/`` (identifies the code when git is absent)."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment(workload: str, seed: int, scale: float) -> dict:
    import numpy

    cpus = nproc()
    return {
        "workload": workload,
        "seed": seed,
        "dataset": DATASET,
        "scale": scale,
        "dataset_seed": DATASET_SEED,
        "nproc": cpus,
        "parallel": cpus >= 2,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(),
        "source_digest": source_digest(),
    }


# ----------------------------------------------------------------------
# answers and the checker
# ----------------------------------------------------------------------
def answer_digest(htk_vertices: int, partitions) -> str:
    """Canonical digest of an answer.

    ``partitions`` yields, per partition of R, the communities best
    first (each an iterable of user ids).  Partition order is not part
    of the answer; the rank order inside a partition is.
    """
    canon = sorted(
        tuple(tuple(sorted(int(v) for v in c)) for c in communities)
        for communities in partitions
    )
    blob = json.dumps([int(htk_vertices), canon], separators=(",", ":"))
    return hashlib.sha1(blob.encode()).hexdigest()


def engine_result_digest(result) -> str:
    """Digest of an in-process ``MACSearchResult``."""
    return answer_digest(
        result.htk_vertices,
        ([c.members for c in e.communities] for e in result.partitions),
    )


def service_result_digest(result) -> str:
    """Digest of a client-side ``ServiceResult``."""
    return answer_digest(
        result.htk_vertices, (p.communities for p in result.partitions)
    )


def check_answers(reference: dict, observed: dict) -> tuple[int, int, list]:
    """Compare observed answer digests with the reference answers.

    ``reference`` maps a request key to its expected digest;
    ``observed`` maps a request key to ``{digest: times_seen}``.
    Returns ``(checked, failed, mismatches)`` where every response whose
    digest differs from the reference (or whose key has no reference)
    counts as failed.
    """
    checked = failed = 0
    mismatches = []
    for key, seen in observed.items():
        want = reference.get(key)
        for digest, count in seen.items():
            checked += count
            if digest != want:
                failed += count
                mismatches.append(
                    {"key": key, "got": digest, "want": want, "count": count}
                )
    return checked, failed, mismatches


# ----------------------------------------------------------------------
# child processes
# ----------------------------------------------------------------------
def stop_process(proc: subprocess.Popen, timeout: float = 20.0) -> None:
    """SIGTERM, wait, then kill the process group; always reaps."""
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            pass
    try:
        os.killpg(proc.pid, 9)
    except (ProcessLookupError, PermissionError):
        pass
    proc.wait()
