"""Property tests: shard-merge determinism (hypothesis).

The central guarantee of the sharded runtime is that partitioning a
workload by group key changes *where* engines run but never *what* they
decide: for any seeded synthetic workload and any shard count/executor,
the merged decided outputs and emissions equal the sequential run's.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core.tuples import Trace
from repro.experiments.configs import dc_specs_from_statistics
from repro.runtime.partition import shard_for_key
from repro.runtime.sharded import run_sequential, run_tasks
from repro.runtime.tasks import EngineConfig, GroupTask
from tests.conftest import random_walk_values

ALGORITHMS = ("region", "per_candidate_set", "self_interested")


def _workload(seed: int, n_groups: int, n_tuples: int) -> list[GroupTask]:
    """Seeded synthetic workload: one random-walk stream per group."""
    tasks = []
    for group in range(n_groups):
        trace = Trace.from_values(
            random_walk_values(n_tuples, seed=seed * 31 + group, scale=1.0),
            attribute="value",
        )
        specs = dc_specs_from_statistics(
            trace, "value", multipliers=[1.0 + 0.5 * group, 2.0]
        )
        config = EngineConfig(algorithm=ALGORITHMS[group % len(ALGORITHMS)])
        tasks.append(
            GroupTask.build(
                key=f"g{group}/seed{seed}", specs=specs, stream=trace, config=config
            )
        )
    return tasks


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_groups=st.integers(min_value=1, max_value=4),
    shards=st.integers(min_value=1, max_value=8),
    executor=st.sampled_from(["serial", "thread"]),
)
def test_sharded_output_equals_sequential(seed, n_groups, shards, executor):
    """Sharded and sequential runs emit identical decided outputs."""
    tasks = _workload(seed, n_groups, n_tuples=60)
    reference = run_sequential(tasks)
    run = run_tasks(tasks, shards=shards, executor=executor)
    assert run.canonical() == reference.canonical()
    # The merged view is consistent with the per-group results either way.
    assert run.combined.input_count == n_groups * 60
    assert run.combined.output_count == reference.combined.output_count


@settings(max_examples=25, deadline=None)
@given(
    key=st.text(min_size=0, max_size=40),
    shards=st.integers(min_value=1, max_value=64),
)
def test_shard_assignment_is_a_stable_function(key, shards):
    index = shard_for_key(key, shards)
    assert 0 <= index < shards
    assert index == shard_for_key(key, shards)


def test_process_executor_equals_sequential_on_seeded_workload():
    """One non-hypothesis process-pool check (pools are slow to spawn)."""
    tasks = _workload(seed=424242, n_groups=3, n_tuples=120)
    reference = run_sequential(tasks)
    run = run_tasks(tasks, shards=3, executor="process")
    assert run.canonical() == reference.canonical()
