"""Shard worker: build an engine from a task and run it.

The module-level :func:`run_shard` is the process-pool entry point; it
must stay importable (no closures) so it pickles by reference.  Filters
are re-parsed from their spec strings inside the worker, which keeps the
payload small and avoids shipping stateful filter objects across the
process boundary.
"""

from __future__ import annotations

import time

from repro.core.engine import EngineResult
from repro.filters.spec import parse_group
from repro.runtime.tasks import GroupTask, engine_from_config

__all__ = ["run_task", "run_shard"]


def run_task(task: GroupTask) -> EngineResult:
    """Run one group's engine over its stream, start to finish."""
    engine = engine_from_config(parse_group(list(task.specs)), task.config)
    return engine.run(task.tuples)


def run_shard(payloads: list[tuple]) -> tuple[float, list[tuple[str, EngineResult]]]:
    """Process-pool entry point: run every task payload of one shard.

    Returns the shard's wall-clock milliseconds and the per-key results
    in task order.
    """
    started = time.perf_counter()
    results = []
    for payload in payloads:
        task = GroupTask.from_payload(payload)
        results.append((task.key, run_task(task)))
    wall_ms = (time.perf_counter() - started) * 1e3
    return wall_ms, results
