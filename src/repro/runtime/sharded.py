"""Sharded parallel execution of independent filter groups.

The :class:`ShardedRuntime` partitions a workload of :class:`GroupTask`s
across N shards by stable key hash and runs each shard's tasks on a
worker, with three interchangeable executors:

* ``"process"`` — one OS process per shard via
  :class:`concurrent.futures.ProcessPoolExecutor`; true parallelism.
* ``"thread"`` — one thread per shard; useful where process pools are
  unavailable (sandboxes) and as a determinism cross-check.
* ``"serial"`` — the single-process batched fallback: shards run one
  after another in shard order, in the calling process.

All three produce identical decided outputs and emissions for the same
workload (group keys never span shards, and each group's engine is fresh
per run), so results stay deterministic and comparable to the plain
sequential engine.  If a preferred executor cannot be created or dies —
process pools are routinely forbidden in sandboxes — the runtime falls
back ``process → thread → serial`` and records what actually ran.
"""

from __future__ import annotations

import atexit
import time
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence

from repro.core.engine import EngineResult
from repro.runtime.merge import CombinedResult, canonical_result, combine
from repro.runtime.partition import PLACEMENTS, partition_tasks
from repro.runtime.tasks import EXECUTORS, GroupTask
from repro.runtime.worker import run_shard

__all__ = ["ShardedResult", "ShardedRuntime", "run_tasks", "run_sequential"]

#: Fallback order when a preferred executor cannot run.
_FALLBACK = {"process": "thread", "thread": "serial"}


@dataclass
class ShardedResult:
    """Everything produced by one sharded run."""

    #: Per-group engine results, in workload (task) order.
    results: dict[str, EngineResult]
    #: Group key to shard index.
    assignment: dict[str, int]
    shards: int
    #: Executor that actually ran (after any fallback).
    executor: str
    requested_executor: str
    wall_ms: float
    #: Worker-measured wall-clock per non-empty shard.
    shard_wall_ms: dict[int, float] = field(default_factory=dict)

    @cached_property
    def combined(self) -> CombinedResult:
        """Merged decisions/emissions/metrics across every group."""
        return combine(self.results)

    def canonical(self) -> dict[str, dict]:
        """Comparable per-group view (see :func:`canonical_result`)."""
        return {key: canonical_result(result) for key, result in self.results.items()}

    def __getitem__(self, key: str) -> EngineResult:
        return self.results[key]


class ShardedRuntime:
    """Partition a workload by group key and run it on N shards."""

    def __init__(self, shards: int = 1, executor: str = "process", placement: str = "balanced"):
        if shards < 1:
            raise ValueError("shards must be at least 1")
        if executor not in EXECUTORS:
            raise ValueError(f"unknown executor {executor!r}; expected {EXECUTORS}")
        if placement not in PLACEMENTS:
            raise ValueError(f"unknown placement {placement!r}; expected {PLACEMENTS}")
        self.shards = shards
        self.executor = executor
        self.placement = placement

    # ------------------------------------------------------------------
    def run(self, tasks: Sequence[GroupTask]) -> ShardedResult:
        keys = [task.key for task in tasks]
        if len(set(keys)) != len(keys):
            raise ValueError(f"group keys must be unique, got {keys}")
        started = time.perf_counter()

        buckets = partition_tasks(tasks, self.shards, placement=self.placement)
        assignment = {
            task.key: index for index, bucket in enumerate(buckets) for task in bucket
        }
        occupied = [(index, bucket) for index, bucket in enumerate(buckets) if bucket]

        executor = self.executor
        outcome: Optional[dict[int, tuple[float, list[tuple[str, EngineResult]]]]] = None
        while outcome is None:
            try:
                outcome = _execute(executor, occupied)
            except (OSError, ImportError, BrokenProcessPool) as error:
                fallback = _FALLBACK.get(executor)
                if fallback is None:
                    raise
                # Process pools are unavailable in some sandboxes; degrade
                # gracefully rather than failing the run.
                import warnings

                warnings.warn(
                    f"{executor!r} executor unavailable ({error!r}); "
                    f"falling back to {fallback!r}",
                    RuntimeWarning,
                    stacklevel=2,
                )
                executor = fallback

        by_key = {
            key: result
            for _, (_, shard_results) in sorted(outcome.items())
            for key, result in shard_results
        }
        results = {key: by_key[key] for key in keys}
        shard_wall_ms = {index: wall for index, (wall, _) in sorted(outcome.items())}
        wall_ms = (time.perf_counter() - started) * 1e3
        return ShardedResult(
            results=results,
            assignment=assignment,
            shards=self.shards,
            executor=executor,
            requested_executor=self.executor,
            wall_ms=wall_ms,
            shard_wall_ms=shard_wall_ms,
        )


# Worker pools are expensive to create — a process pool respawns (and on
# spawn-start platforms, re-imports) its workers — and experiment loops
# call run_group once per group per repeat.  run_shard is a pure function
# of its payloads, so pools are safely reusable: cache them per
# (executor kind, worker count) for the life of the interpreter, and
# drop a pool that breaks so the fallback chain starts fresh.
_POOLS: dict[tuple[str, int], Executor] = {}


def _pool_for(executor: str, workers: int) -> Executor:
    key = (executor, workers)
    pool = _POOLS.get(key)
    if pool is None:
        pool_cls = ProcessPoolExecutor if executor == "process" else ThreadPoolExecutor
        pool = pool_cls(max_workers=workers)
        _POOLS[key] = pool
    return pool


def _discard_pool(executor: str, workers: int) -> None:
    pool = _POOLS.pop((executor, workers), None)
    if pool is not None:
        pool.shutdown(wait=False, cancel_futures=True)


@atexit.register
def _shutdown_pools() -> None:  # pragma: no cover - interpreter teardown
    for pool in _POOLS.values():
        pool.shutdown(wait=False, cancel_futures=True)
    _POOLS.clear()


def _execute(
    executor: str, occupied: list[tuple[int, list[GroupTask]]]
) -> dict[int, tuple[float, list[tuple[str, EngineResult]]]]:
    """Run every non-empty shard under the named executor."""
    if executor == "serial":
        return {
            index: run_shard([task.to_payload() for task in bucket])
            for index, bucket in occupied
        }
    payloads = {
        index: [task.to_payload() for task in bucket] for index, bucket in occupied
    }
    workers = max(1, len(occupied))
    try:
        pool = _pool_for(executor, workers)
        futures = {index: pool.submit(run_shard, batch) for index, batch in payloads.items()}
        return {index: future.result() for index, future in futures.items()}
    except Exception:
        # A broken or unusable pool must not be reused by later runs.
        _discard_pool(executor, workers)
        raise


def run_tasks(
    tasks: Sequence[GroupTask], shards: int = 1, executor: str = "process"
) -> ShardedResult:
    """Convenience wrapper: run a workload on a fresh runtime."""
    return ShardedRuntime(shards=shards, executor=executor).run(tasks)


def run_sequential(tasks: Sequence[GroupTask]) -> ShardedResult:
    """Reference run: every task in order, one process, one shard."""
    return ShardedRuntime(shards=1, executor="serial").run(tasks)
