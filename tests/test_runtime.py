"""Tests for the sharded parallel runtime (repro.runtime)."""

from __future__ import annotations

import pytest

from repro.core.tuples import StreamTuple, Trace
from repro.experiments.configs import TABLE_4_1_GROUPS
from repro.experiments.harness import (
    get_parallelism,
    run_group,
    set_parallelism,
    variant_from_name,
)
from repro.runtime.merge import canonical_result, combine
from repro.runtime.partition import (
    HashRing,
    partition_keyed_stream,
    partition_tasks,
    shard_for_key,
)
from repro.runtime.sharded import ShardedRuntime, run_sequential, run_tasks
from repro.runtime.tasks import EngineConfig, GroupTask
from repro.runtime.worker import run_task
from repro.sources.namos import namos_trace
from tests.conftest import make_tuples


def _chapter4_tasks(n_tuples: int = 300, algorithms=("region", "per_candidate_set")):
    trace = namos_trace(n=n_tuples, seed=7)
    return [
        GroupTask.build(
            key=f"{group_name}/{algorithm}",
            specs=specs,
            stream=trace,
            config=EngineConfig(algorithm=algorithm),
        )
        for group_name, specs in TABLE_4_1_GROUPS.items()
        for algorithm in algorithms
    ]


# ---------------------------------------------------------------------------
# Partitioning
# ---------------------------------------------------------------------------
class TestPartition:
    def test_shard_for_key_is_stable_and_bounded(self):
        for key in ("DC_Fluoro", "DC_Hybrid", "group/42", ""):
            for shards in (1, 2, 4, 8):
                index = shard_for_key(key, shards)
                assert 0 <= index < shards
                assert index == shard_for_key(key, shards)

    def test_single_shard_takes_everything(self):
        tasks = _chapter4_tasks(n_tuples=50)
        buckets = partition_tasks(tasks, 1)
        assert len(buckets) == 1 and len(buckets[0]) == len(tasks)

    @pytest.mark.parametrize("placement", ["balanced", "hashed"])
    def test_every_task_lands_on_exactly_one_shard(self, placement):
        tasks = _chapter4_tasks(n_tuples=50)
        buckets = partition_tasks(tasks, 4, placement=placement)
        keys = [task.key for bucket in buckets for task in bucket]
        assert sorted(keys) == sorted(task.key for task in tasks)

    def test_balanced_placement_spreads_load_evenly(self):
        tasks = _chapter4_tasks(n_tuples=50)  # 6 tasks
        buckets = partition_tasks(tasks, 4)
        sizes = sorted(len(bucket) for bucket in buckets)
        assert sizes == [1, 1, 2, 2]

    def test_invalid_shard_count(self):
        with pytest.raises(ValueError, match="at least 1"):
            shard_for_key("k", 0)
        with pytest.raises(ValueError, match="at least 1"):
            partition_tasks([], 0)

    def test_invalid_placement(self):
        with pytest.raises(ValueError, match="unknown placement"):
            partition_tasks([], 2, placement="gravitational")

    def test_keyed_stream_demux_preserves_order(self):
        items = make_tuples([1.0, 2.0, 3.0, 4.0])
        keyed = [("a", items[0]), ("b", items[1]), ("a", items[2]), ("b", items[3])]
        streams = partition_keyed_stream(keyed)
        assert [t.seq for t in streams["a"]] == [0, 2]
        assert [t.seq for t in streams["b"]] == [1, 3]


# ---------------------------------------------------------------------------
# Consistent-hash ring
# ---------------------------------------------------------------------------
class TestHashRing:
    KEYS = [f"source-{i}" for i in range(400)]

    def test_placement_is_deterministic_and_bounded(self):
        a = HashRing(range(5))
        b = HashRing(range(5))
        owners = a.assignment(self.KEYS)
        assert owners == b.assignment(self.KEYS)
        assert set(owners.values()) <= set(range(5))

    def test_incremental_build_equals_fresh_build(self):
        fresh = HashRing(range(6))
        grown = HashRing()
        for member in range(6):
            grown.add(member)
        assert fresh.assignment(self.KEYS) == grown.assignment(self.KEYS)
        # add() is idempotent.
        grown.add(3)
        assert fresh.assignment(self.KEYS) == grown.assignment(self.KEYS)

    def test_adding_a_member_moves_few_keys_and_only_to_it(self):
        ring = HashRing(range(5))
        before = ring.assignment(self.KEYS)
        ring.add(5)
        after = ring.assignment(self.KEYS)
        moved = [k for k in self.KEYS if before[k] != after[k]]
        # Everything that moved went to the newcomer, nothing shuffled
        # between survivors...
        assert all(after[k] == 5 for k in moved)
        # ...and the volume is ~1/N of the keys (generous 3x slack for
        # virtual-replica variance).
        assert len(moved) <= 3 * len(self.KEYS) / 6

    def test_removing_a_member_moves_only_its_keys(self):
        ring = HashRing(range(6))
        before = ring.assignment(self.KEYS)
        ring.remove(2)
        after = ring.assignment(self.KEYS)
        for key in self.KEYS:
            if before[key] == 2:
                assert after[key] != 2
            else:
                assert after[key] == before[key]

    def test_leave_and_rejoin_restores_the_original_placement(self):
        ring = HashRing(range(4))
        before = ring.assignment(self.KEYS)
        ring.remove(1)
        ring.add(1)
        assert ring.assignment(self.KEYS) == before

    def test_empty_ring_owns_nothing(self):
        ring = HashRing()
        assert ring.owner("anything") is None
        assert len(ring) == 0
        ring.remove("ghost")  # no-op, no error

    def test_replicas_spread_load(self):
        ring = HashRing(range(4), replicas=64)
        counts = {m: 0 for m in range(4)}
        for key, owner in ring.assignment(self.KEYS).items():
            counts[owner] += 1
        # No member starves or hogs: within 4x of even share.
        share = len(self.KEYS) / 4
        assert all(share / 4 <= c <= 4 * share for c in counts.values())

    def test_invalid_replicas(self):
        with pytest.raises(ValueError):
            HashRing(replicas=0)


# ---------------------------------------------------------------------------
# Task model
# ---------------------------------------------------------------------------
class TestGroupTask:
    def test_payload_round_trip(self):
        task = _chapter4_tasks(n_tuples=20)[0]
        rebuilt = GroupTask.from_payload(task.to_payload())
        assert rebuilt.key == task.key
        assert rebuilt.specs == task.specs
        assert rebuilt.config == task.config
        assert [t.seq for t in rebuilt.tuples] == [t.seq for t in task.tuples]
        assert rebuilt.tuples[3].values == task.tuples[3].values

    def test_engine_config_validation(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            EngineConfig(algorithm="magic")
        with pytest.raises(ValueError, match="unknown output"):
            EngineConfig(output="holographic")
        with pytest.raises(ValueError, match="batch_size"):
            EngineConfig(batch_size=0)

    def test_run_task_matches_direct_engine(self):
        task = _chapter4_tasks(n_tuples=200)[0]
        direct = run_task(task)
        again = run_task(task)
        assert canonical_result(direct) == canonical_result(again)


# ---------------------------------------------------------------------------
# Sharded execution and merge
# ---------------------------------------------------------------------------
class TestShardedRuntime:
    def test_rejects_duplicate_keys(self):
        task = _chapter4_tasks(n_tuples=20)[0]
        with pytest.raises(ValueError, match="unique"):
            run_sequential([task, task])

    def test_rejects_unknown_executor(self):
        with pytest.raises(ValueError, match="unknown executor"):
            ShardedRuntime(executor="quantum")

    @pytest.mark.parametrize("executor", ["serial", "thread", "process"])
    @pytest.mark.parametrize("shards", [2, 4])
    def test_sharded_equals_sequential_chapter4(self, executor, shards):
        """The acceptance property: shard-merge output == sequential output."""
        tasks = _chapter4_tasks(n_tuples=250)
        reference = run_sequential(tasks).canonical()
        run = run_tasks(tasks, shards=shards, executor=executor)
        assert run.canonical() == reference

    def test_results_preserve_workload_order(self):
        tasks = _chapter4_tasks(n_tuples=60)
        run = run_tasks(tasks, shards=3, executor="serial")
        assert list(run.results) == [task.key for task in tasks]

    def test_hashed_placement_matches_shard_for_key(self):
        tasks = _chapter4_tasks(n_tuples=60)
        run = ShardedRuntime(shards=3, executor="serial", placement="hashed").run(tasks)
        for task in tasks:
            assert run.assignment[task.key] == shard_for_key(task.key, 3)

    def test_hashed_placement_output_equals_sequential(self):
        tasks = _chapter4_tasks(n_tuples=100)
        reference = run_sequential(tasks).canonical()
        run = ShardedRuntime(shards=3, executor="serial", placement="hashed").run(tasks)
        assert run.canonical() == reference

    def test_cuts_and_output_strategies_survive_sharding(self):
        trace = namos_trace(n=250, seed=11)
        tasks = [
            GroupTask.build(
                key=name,
                specs=TABLE_4_1_GROUPS["DC_Tmpr"],
                stream=trace,
                config=config,
            )
            for name, config in (
                ("rg+c", EngineConfig(algorithm="region", constraint_ms=120.0)),
                ("ps-batched", EngineConfig(algorithm="per_candidate_set", output="batched", batch_size=50)),
                ("si", EngineConfig(algorithm="self_interested")),
            )
        ]
        reference = run_sequential(tasks).canonical()
        run = run_tasks(tasks, shards=2, executor="process")
        assert run.canonical() == reference
        assert run.results["rg+c"].cuts_triggered >= 0

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_shared_decisions_survive_sharding(self, executor):
        """Duplicate specs: co-owners' rows hold one decision object,
        which the process executor pickles back row by row."""
        specs = TABLE_4_1_GROUPS["DC_Tmpr"]
        tasks = [
            GroupTask.build(
                key=f"dup/{output}",
                specs=[spec for spec in specs for _ in range(3)],
                stream=namos_trace(n=250, seed=11),
                config=EngineConfig(algorithm="region", output=output, batch_size=20),
            )
            for output in ("region", "pcs", "batched")
        ]
        reference = run_sequential(tasks)
        run = run_tasks(tasks, shards=2, executor=executor)
        assert run.canonical() == reference.canonical()
        for key, result in run.results.items():
            rows = list(result.decisions.values())
            assert len(rows) == 3 * len(specs) and all(rows)
            assert rows[0] == rows[1] == rows[2] != rows[3]
            assert canonical_result(result) == canonical_result(reference.results[key])

    def test_combined_metrics_sum_over_groups(self):
        tasks = _chapter4_tasks(n_tuples=150)
        run = run_sequential(tasks)
        combined = run.combined
        assert combined.input_count == sum(r.input_count for r in run.results.values())
        assert combined.output_count == sum(r.output_count for r in run.results.values())
        assert combined.transmissions == len(combined.emissions)
        assert 0.0 < combined.oi_ratio <= 1.0

    def test_combined_emissions_are_time_ordered(self):
        tasks = _chapter4_tasks(n_tuples=150)
        combined = run_sequential(tasks).combined
        stamps = [emission.emit_ts for _, emission in combined.emissions]
        assert stamps == sorted(stamps)

    def test_combine_empty(self):
        combined = combine({})
        assert combined.input_count == 0
        assert combined.oi_ratio == 0.0
        assert combined.mean_latency_ms == 0.0


# ---------------------------------------------------------------------------
# Harness and CLI wiring
# ---------------------------------------------------------------------------
class TestHarnessWiring:
    def test_variant_to_engine_config(self):
        config = variant_from_name("RG+C").to_engine_config(constraint_ms=42.0)
        assert config.algorithm == "region"
        assert config.constraint_ms == 42.0
        config = variant_from_name("PS(B)-200").to_engine_config()
        assert config.output == "batched" and config.batch_size == 200
        assert config.constraint_ms is None

    def test_run_group_sharded_equals_sequential(self):
        trace = namos_trace(n=250, seed=7)
        specs = TABLE_4_1_GROUPS["DC_Hybrid"]
        sequential = run_group("g", specs, trace)
        sharded = run_group("g", specs, trace, shards=4, executor="thread")
        assert set(sequential.results) == set(sharded.results)
        for variant in sequential.results:
            assert canonical_result(sequential.results[variant]) == canonical_result(
                sharded.results[variant]
            ), variant

    def test_set_parallelism_default_applies(self):
        try:
            set_parallelism(2, "serial")
            assert get_parallelism() == (2, "serial")
            trace = namos_trace(n=120, seed=7)
            run = run_group("g", TABLE_4_1_GROUPS["DC_Tmpr"], trace)
            assert set(run.results) == {"RG", "RG+C", "PS", "PS+C", "SI"}
        finally:
            set_parallelism(1, "process")

    def test_set_parallelism_rejects_bad_values(self):
        with pytest.raises(ValueError, match="at least 1"):
            set_parallelism(0)
        with pytest.raises(ValueError, match="unknown executor"):
            set_parallelism(2, "processes")
        assert get_parallelism() == (1, "process")

    def test_cli_shards_flag(self, capsys):
        from repro.experiments.cli import main

        try:
            assert main(["run", "table_4_2", "--shards", "2", "--executor", "serial"]) == 0
        finally:
            set_parallelism(1, "process")
        assert "Filter type notations" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# Keyed-stream end to end
# ---------------------------------------------------------------------------
def test_keyed_stream_to_sharded_run():
    """Demultiplex one interleaved keyed stream, then shard by group key."""
    base = namos_trace(n=200, seed=3)
    keyed = []
    for item in base:
        keyed.append(("even" if item.seq % 2 == 0 else "odd", item))
    streams = partition_keyed_stream(keyed)
    # Rebuild per-group time-ordered traces (Trace validates ordering).
    tasks = [
        GroupTask.build(
            key=key,
            specs=["DC1(tmpr4, 0.0620, 0.0310)", "DC1(tmpr4, 0.0310, 0.0155)"],
            stream=Trace(
                StreamTuple(seq=i, timestamp=t.timestamp, values=t.values)
                for i, t in enumerate(items)
            ),
        )
        for key, items in streams.items()
    ]
    reference = run_sequential(tasks).canonical()
    run = run_tasks(tasks, shards=2, executor="process")
    assert run.canonical() == reference
    assert set(run.results) == {"even", "odd"}
