"""Sharded-runtime benchmark: speedup vs. the sequential engine.

Runs the chapter-4 core workload (the Table 4.1 filter groups under the
RG and PS algorithms, replicated across seeds) once sequentially and
once per shard count, verifying that the sharded runs' decided outputs
are identical to the sequential run before reporting throughput.

Usable two ways:

* ``python -m pytest benchmarks/bench_runtime.py`` — correctness +
  speedup assertions (the >=1.5x-at-4-shards assertion is skipped on
  machines with fewer than 4 CPUs, where hardware parallelism does not
  exist to be measured);
* ``python benchmarks/bench_runtime.py`` — prints the shards/wall-ms/
  speedup table.

Script mode also writes a ``BENCH_runtime.json`` trajectory artifact —
one ``{"size", "shards", "wall_s", "speedup"}`` row per shard count —
so successive CI runs accumulate a perf history to diff against.

Environment knobs (also used by the CI bench-smoke job):
``BENCH_RUNTIME_TUPLES`` (trace length, default 2000),
``BENCH_RUNTIME_REPLICAS`` (workload copies, default 3),
``BENCH_RUNTIME_SHARDS`` (comma list, default ``1,2,4,8``),
``BENCH_RUNTIME_JSON`` (artifact path, default ``BENCH_runtime.json``;
set empty to skip writing),
``BENCH_RUNTIME_REQUIRE_SPEEDUP`` (default ``1``; set ``0`` on noisy
shared runners to report the measured speedup without failing on it —
correctness/determinism is always enforced).
"""

from __future__ import annotations

import json
import os
import sys
import time

try:
    import repro  # noqa: F401  (already importable when installed)
except ImportError:  # pragma: no cover - script mode from a source checkout
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import pytest

from repro.experiments.configs import TABLE_4_1_GROUPS
from repro.obs.sysinfo import platform_info
from repro.runtime.sharded import run_sequential, run_tasks
from repro.runtime.tasks import EngineConfig, GroupTask
from repro.sources.namos import namos_trace

N_TUPLES = int(os.environ.get("BENCH_RUNTIME_TUPLES", "2000"))
REPLICAS = int(os.environ.get("BENCH_RUNTIME_REPLICAS", "3"))
SHARD_COUNTS = [
    int(part)
    for part in os.environ.get("BENCH_RUNTIME_SHARDS", "1,2,4,8").split(",")
    if part.strip()
]

_ALGORITHMS = {"RG": "region", "PS": "per_candidate_set"}


def chapter4_workload(n_tuples: int = N_TUPLES, replicas: int = REPLICAS) -> list[GroupTask]:
    """Table 4.1 groups x {RG, PS} x ``replicas`` seeded traces."""
    tasks = []
    for replica in range(replicas):
        trace = namos_trace(n=n_tuples, seed=7 + replica)
        for group_name, specs in TABLE_4_1_GROUPS.items():
            for variant, algorithm in _ALGORITHMS.items():
                tasks.append(
                    GroupTask.build(
                        key=f"{group_name}/{variant}/s{replica}",
                        specs=specs,
                        stream=trace,
                        config=EngineConfig(algorithm=algorithm),
                    )
                )
    return tasks


def _timed(fn):
    started = time.perf_counter()
    result = fn()
    return (time.perf_counter() - started) * 1e3, result


# ---------------------------------------------------------------------------
# pytest entry points
# ---------------------------------------------------------------------------
def test_sharded_output_equals_sequential():
    """Shard-merge determinism on the chapter-4 core workload."""
    tasks = chapter4_workload(n_tuples=min(N_TUPLES, 800), replicas=1)
    reference = run_sequential(tasks).canonical()
    for executor in ("serial", "thread", "process"):
        for shards in (2, 4):
            run = run_tasks(tasks, shards=shards, executor=executor)
            assert run.canonical() == reference, (executor, shards)


def test_speedup_at_4_shards():
    """>=1.5x throughput at 4 process shards vs. the sequential engine."""
    tasks = chapter4_workload()
    sequential_ms, reference = _timed(lambda: run_sequential(tasks))
    sharded_ms, run = _timed(lambda: run_tasks(tasks, shards=4, executor="process"))
    assert run.canonical() == reference.canonical()
    speedup = sequential_ms / sharded_ms
    print(
        f"\n4-shard speedup: {speedup:.2f}x "
        f"(sequential {sequential_ms:.0f} ms, sharded {sharded_ms:.0f} ms, "
        f"executor={run.executor})"
    )
    cpus = os.cpu_count() or 1
    if cpus < 4 or run.executor != "process":
        pytest.skip(
            f"no hardware parallelism to measure (cpus={cpus}, "
            f"executor={run.executor}); speedup was {speedup:.2f}x"
        )
    if os.environ.get("BENCH_RUNTIME_REQUIRE_SPEEDUP", "1") == "0":
        pytest.skip(f"speedup assertion disabled by env; measured {speedup:.2f}x")
    assert speedup >= 1.5, f"expected >=1.5x at 4 shards, measured {speedup:.2f}x"


# ---------------------------------------------------------------------------
# script mode
# ---------------------------------------------------------------------------
def main() -> int:
    tasks = chapter4_workload()
    total_inputs = sum(len(task.tuples) for task in tasks)
    print(
        f"chapter-4 core workload: {len(tasks)} group tasks, "
        f"{total_inputs} input tuples, {os.cpu_count()} CPUs"
    )
    sequential_ms, reference = _timed(lambda: run_sequential(tasks))
    canonical = reference.canonical()
    throughput = total_inputs / (sequential_ms / 1e3)
    print(f"{'shards':>7} {'executor':>9} {'wall ms':>9} {'speedup':>8} {'tuples/s':>10}")
    print(f"{'seq':>7} {'serial':>9} {sequential_ms:>9.0f} {1.0:>8.2f} {throughput:>10.0f}")
    rows = []
    for shards in SHARD_COUNTS:
        wall_ms, run = _timed(lambda: run_tasks(tasks, shards=shards, executor="process"))
        matches = run.canonical() == canonical
        speedup = sequential_ms / wall_ms
        throughput = total_inputs / (wall_ms / 1e3)
        flag = "" if matches else "  OUTPUT MISMATCH!"
        print(
            f"{shards:>7} {run.executor:>9} {wall_ms:>9.0f} "
            f"{speedup:>8.2f} {throughput:>10.0f}{flag}"
        )
        rows.append(
            {
                "size": total_inputs,
                "shards": shards,
                "wall_s": round(wall_ms / 1e3, 4),
                "speedup": round(speedup, 3),
                "platform": platform_info(),
            }
        )
        if not matches:
            return 1
    artifact = os.environ.get("BENCH_RUNTIME_JSON", "BENCH_runtime.json")
    if artifact:
        with open(artifact, "w", encoding="utf-8") as stream:
            json.dump(rows, stream, indent=2)
            stream.write("\n")
        print(f"trajectory written to {artifact}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
