"""Sharded, parallel execution layer over the group-aware engines.

The paper's engines coordinate one *group* of filters over one stream;
groups never share state.  This package scales that model out: a
workload of independent :class:`GroupTask`s is partitioned by group key
across N worker shards (process, thread or serial executors), each shard
runs a fresh engine per group, and the per-shard
:class:`~repro.core.engine.EngineResult`s are merged into one consistent
result whose decided outputs are identical to a sequential run.
"""
