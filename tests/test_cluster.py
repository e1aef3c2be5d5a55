"""Cross-process source sharding: determinism, supervision, backpressure.

Three contracts:

* **partition invariance** (hypothesis, in-process): sources are
  independent, so *any* assignment of sources to broker instances —
  driven through the same interleaved offer/churn script — delivers
  byte-identical per-subscriber streams to the single-broker run;
* **drain + respawn**: killing a worker process mid-stream respawns it,
  re-registers its sources, re-subscribes its sessions, and the
  router-side stream keeps delivering (a gap, never a teardown);
* **router backpressure isolation**: a stalled subscriber on one worker
  blocks only that worker's sources' producers; the other worker's
  producers keep their pace.
"""

from __future__ import annotations

import asyncio

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.tuples import StreamTuple
from repro.obs.telemetry import Telemetry
from repro.runtime.partition import HashRing
from repro.runtime.tasks import EngineConfig
from repro.service.broker import DisseminationService, ServiceConfig
from repro.service.cluster import ClusterConfig, ClusterService
from repro.sources import random_walk_trace

SOURCES = ("part-a", "part-b", "part-c")
SPECS = (
    "DC1(temp, 1.5, 0.75)",
    "DC1(temp, 3.0, 1.5)",
    "DC2(temp, 0.8, 0.4)",
)


def _two_sources_on_distinct_shards(workers: int = 2) -> tuple[str, str]:
    """Source names the cluster's ring places on different workers."""
    ring = HashRing(range(workers))
    by_shard: dict[int, str] = {}
    index = 0
    while len(by_shard) < 2:
        name = f"shardsrc{index}"
        by_shard.setdefault(int(ring.owner(name)), name)
        index += 1
    return tuple(by_shard[k] for k in sorted(by_shard))[:2]


# ---------------------------------------------------------------------------
# Partition invariance (in-process property)
# ---------------------------------------------------------------------------
def _broker(algorithm: str, sources: list[str]) -> DisseminationService:
    service = DisseminationService(
        ServiceConfig(
            engine=EngineConfig(algorithm=algorithm),
            batch_max_items=1,
            batch_max_delay_ms=1e9,
            queue_capacity=10_000,
        )
    )
    for name in sources:
        service.add_source(name)
    return service


async def _run_partitioned(
    algorithm: str, assignment: tuple[int, ...], trace
) -> dict[str, list[int]]:
    """Replay the fixed offer/churn script over a source partitioning.

    ``assignment[i]`` names the broker instance serving ``SOURCES[i]``;
    the single-broker baseline is ``assignment == (0, 0, 0)``.
    """
    groups: dict[int, list[str]] = {}
    for source, group in zip(SOURCES, assignment):
        groups.setdefault(group, []).append(source)
    services = {
        group: _broker(algorithm, sources) for group, sources in groups.items()
    }
    owner = {
        source: services[group]
        for group, sources in groups.items()
        for source in sources
    }
    delivered: dict[str, list[int]] = {}
    consumers: list[asyncio.Task] = []

    async def drain(app: str, session) -> None:
        async for batch in session.batches():
            delivered[app].extend(item.seq for item in batch.items)

    async def attach(app: str, source: str, spec: str) -> None:
        session = await owner[source].subscribe(app, source, spec)
        delivered[app] = []
        consumers.append(asyncio.create_task(drain(app, session)))

    for source in SOURCES:
        await attach(f"{source}.x", source, SPECS[0])
        await attach(f"{source}.y", source, SPECS[1])
    for index, item in enumerate(trace):
        # Fixed churn script, interleaved at the same offer positions in
        # every partitioning (each event targets one source's broker).
        if index == 25:
            await owner[SOURCES[0]].re_filter(f"{SOURCES[0]}.x", SPECS[2])
        if index == 40:
            await owner[SOURCES[1]].unsubscribe(f"{SOURCES[1]}.y")
        if index == 55:
            await attach(f"{SOURCES[2]}.late", SOURCES[2], SPECS[2])
        source = SOURCES[index % len(SOURCES)]
        await owner[source].offer(source, item)
    for service in services.values():
        await service.close()
    await asyncio.gather(*consumers)
    return delivered


@settings(max_examples=12, deadline=None)
@given(
    assignment=st.tuples(
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=2),
    ),
    algorithm=st.sampled_from(["region", "per_candidate_set"]),
)
def test_any_source_partitioning_delivers_identical_streams(
    assignment, algorithm
):
    trace = random_walk_trace(n=90, seed=11, attribute="temp")

    async def run():
        baseline = await _run_partitioned(algorithm, (0, 0, 0), trace)
        partitioned = await _run_partitioned(algorithm, assignment, trace)
        return baseline, partitioned

    baseline, partitioned = asyncio.run(run())
    assert partitioned == baseline


async def _run_migrated(
    algorithm: str, moves: frozenset[int], trace
) -> dict[str, list[int]]:
    """Replay the fixed script, live-migrating ``SOURCES[0]`` mid-stream.

    At every offer index in ``moves`` the source is exported from its
    current broker and imported into a brand-new one (subscriptions
    re-attached first, in their recorded order), so two moves exercise
    the export of a restored checkpoint.  Per-app streams
    accumulate across brokers; transparency means the concatenation
    equals the unmigrated baseline byte for byte.
    """
    services = [_broker(algorithm, list(SOURCES))]
    owner: dict[str, DisseminationService] = {
        source: services[0] for source in SOURCES
    }
    delivered: dict[str, list[int]] = {}
    consumers: list[asyncio.Task] = []

    async def drain(app: str, session) -> None:
        async for batch in session.batches():
            delivered[app].extend(item.seq for item in batch.items)

    async def attach(app: str, source: str, spec: str) -> None:
        session = await owner[source].subscribe(app, source, spec)
        delivered.setdefault(app, [])
        consumers.append(asyncio.create_task(drain(app, session)))

    async def migrate() -> None:
        moving = SOURCES[0]
        state = await owner[moving].export_source(moving)
        target = _broker(algorithm, [moving])
        services.append(target)
        owner[moving] = target
        # Subscriptions re-attach before the import, in export order,
        # with whatever spec each app had at the hand-off (a re-filtered
        # app migrates with its current filter).
        for app, spec in state["subscriptions"]:
            await attach(app, moving, spec)
        await target.import_source(moving, state)

    for source in SOURCES:
        await attach(f"{source}.x", source, SPECS[0])
        await attach(f"{source}.y", source, SPECS[1])
    for index, item in enumerate(trace):
        if index in moves:
            await migrate()
        if index == 25:
            await owner[SOURCES[0]].re_filter(f"{SOURCES[0]}.x", SPECS[2])
        if index == 40:
            await owner[SOURCES[1]].unsubscribe(f"{SOURCES[1]}.y")
        if index == 55:
            await attach(f"{SOURCES[2]}.late", SOURCES[2], SPECS[2])
        source = SOURCES[index % len(SOURCES)]
        await owner[source].offer(source, item)
    for service in services:
        await service.close()
    await asyncio.gather(*consumers)
    return delivered


@settings(max_examples=12, deadline=None)
@given(
    move_at=st.integers(min_value=0, max_value=89),
    second_move=st.integers(min_value=0, max_value=89),
    algorithm=st.sampled_from(["region", "per_candidate_set"]),
)
def test_live_migration_at_any_point_is_stream_transparent(
    move_at, second_move, algorithm
):
    trace = random_walk_trace(n=90, seed=11, attribute="temp")

    async def run():
        baseline = await _run_partitioned(algorithm, (0, 0, 0), trace)
        migrated = await _run_migrated(
            algorithm, frozenset({move_at, second_move}), trace
        )
        return baseline, migrated

    baseline, migrated = asyncio.run(run())
    assert migrated == baseline


# ---------------------------------------------------------------------------
# Real worker fleet (subprocesses)
# ---------------------------------------------------------------------------
def _tuples(start: int, count: int, value: float = 0.0) -> list[StreamTuple]:
    return [
        StreamTuple(
            seq=seq,
            timestamp=float(seq) * 10.0,
            values={"value": float(seq) + value},
        )
        for seq in range(start, start + count)
    ]


#: A chatty spec: decides (nearly) every offered tuple immediately.
_CHATTY = "DC1(value, 0.0001, 0.00005)"


def test_worker_crash_drains_respawns_and_stream_continues():
    source_a, source_b = _two_sources_on_distinct_shards()

    async def run():
        cluster = ClusterService(
            ClusterConfig(
                workers=2,
                sources=(source_a, source_b),
                batch_max_items=1,
                health_interval_s=0.25,
            )
        )
        await cluster.start()
        try:
            session = await cluster.subscribe(f"{source_a}.app", source_a, _CHATTY)
            received: list[int] = []

            async def consume():
                async for batch in session.batches():
                    received.extend(item.seq for item in batch.items)

            consumer = asyncio.create_task(consume())
            for item in _tuples(0, 10):
                await cluster.offer(source_a, item)
            for _ in range(200):
                if len(received) >= 5:
                    break
                await asyncio.sleep(0.05)
            assert received, "no pre-crash deliveries"
            pre_crash = len(received)

            victim = cluster._workers[cluster.shard_of(source_a)]
            victim.process.kill()
            # The supervisor must notice, respawn and re-subscribe.
            for _ in range(600):
                if victim.respawns >= 1 and victim.ready.is_set():
                    break
                await asyncio.sleep(0.05)
            assert victim.respawns >= 1 and victim.ready.is_set(), (
                victim.respawns,
                victim.ready.is_set(),
            )
            # The other worker never blinked.
            assert await cluster.offer(source_b, _tuples(0, 1)[0]) >= 0
            # Post-respawn offers flow to the SAME session object.
            for item in _tuples(100, 10):
                await cluster.offer(source_a, item)
            for _ in range(600):
                if any(seq >= 100 for seq in received):
                    break
                await asyncio.sleep(0.05)
            assert any(seq >= 100 for seq in received), received
            assert not session.closed
            final = await cluster.snapshot()
            assert final["workers"][victim.index]["respawns"] >= 1
            await cluster.close()
            await asyncio.wait_for(consumer, timeout=30)
            return pre_crash, received

        except BaseException:
            await cluster.close()
            raise

    pre_crash, received = asyncio.run(run())
    assert len(received) >= pre_crash


def test_slow_worker_throttles_only_its_sources_producers():
    source_a, source_b = _two_sources_on_distinct_shards()

    async def run():
        cluster = ClusterService(
            ClusterConfig(
                workers=2,
                sources=(source_a, source_b),
                queue_capacity=2,
                batch_max_items=1,
                overflow="block",
            )
        )
        await cluster.start()
        try:
            # Subscribe on A's worker and never consume: its bounded
            # queue fills, the worker's block policy withholds ingest
            # acks, and A's producer must stall.
            session = await cluster.subscribe(f"{source_a}.lag", source_a, _CHATTY)
            progress = {"a": 0}

            async def produce_a():
                for item in _tuples(0, 30):
                    await cluster.offer(source_a, item)
                    progress["a"] += 1

            stalled = asyncio.create_task(produce_a())
            # B's producer shares the router but not the worker: all 30
            # offers must complete while A is wedged.
            for item in _tuples(0, 30, value=0.5):
                await asyncio.wait_for(
                    cluster.offer(source_b, item), timeout=30
                )
            await asyncio.sleep(0.3)
            assert not stalled.done(), "producer A never hit backpressure"
            assert progress["a"] < 30
            # Unstick: dismiss the laggard's subscription; the worker's
            # queue drains and the blocked offer completes.
            session.end_local("router_closed")
            await asyncio.wait_for(stalled, timeout=60)
            assert progress["a"] == 30
            # A locally-closed session must still unsubscribe on the
            # worker — otherwise the app name stays poisoned there and
            # re-subscribing it is refused until a respawn.
            await cluster.unsubscribe(f"{source_a}.lag")
            fresh = await cluster.subscribe(
                f"{source_a}.lag", source_a, _CHATTY
            )
            assert not fresh.closed
        finally:
            await cluster.close()

    asyncio.run(run())

# ---------------------------------------------------------------------------
# Live migration / warm standby / elasticity (real subprocess fleets)
# ---------------------------------------------------------------------------
async def _baseline_stream(offers: list[StreamTuple], spec: str) -> list[int]:
    """What one app subscribed with ``spec`` sees from an unmigrated,
    uncrashed single broker fed ``offers`` — the byte-identity oracle."""
    service = _broker("region", ["oracle"])
    session = await service.subscribe("oracle.app", "oracle", spec)
    delivered: list[int] = []

    async def drain():
        async for batch in session.batches():
            delivered.extend(item.seq for item in batch.items)

    consumer = asyncio.create_task(drain())
    for item in offers:
        await service.offer("oracle", item)
    await service.close()
    await consumer
    return delivered


async def _settled(received: list[int], *, quiet_s: float = 0.4) -> None:
    """Wait until the received stream stops growing for ``quiet_s``."""
    last = -1
    stable_since = None
    for _ in range(400):
        if len(received) != last:
            last = len(received)
            stable_since = asyncio.get_running_loop().time()
        elif asyncio.get_running_loop().time() - stable_since >= quiet_s:
            return
        await asyncio.sleep(0.05)


def test_live_migration_moves_source_without_subscriber_teardown():
    source_a, source_b = _two_sources_on_distinct_shards()
    offers = _tuples(0, 30)

    async def run():
        expected = await _baseline_stream(offers, _CHATTY)
        cluster = ClusterService(
            ClusterConfig(
                workers=2,
                sources=(source_a, source_b),
                batch_max_items=1,
                health_interval_s=0.25,
            )
        )
        await cluster.start()
        try:
            session = await cluster.subscribe(
                f"{source_a}.app", source_a, _CHATTY
            )
            received: list[int] = []

            async def consume():
                async for batch in session.batches():
                    received.extend(item.seq for item in batch.items)

            consumer = asyncio.create_task(consume())
            for item in offers[:15]:
                await cluster.offer(source_a, item)
            old_shard = cluster.shard_of(source_a)
            target = cluster.shard_of(source_b)
            result = await cluster.migrate_source(source_a, target)
            assert result["moved"] and result["exact"], result
            assert cluster.shard_of(source_a) == target != old_shard
            # The session survived the move and keeps delivering.
            assert not session.closed
            for item in offers[15:]:
                await cluster.offer(source_a, item)
            await cluster.close()
            await asyncio.wait_for(consumer, timeout=30)
            kinds = [e["event"] for e in cluster.telemetry.events.tail(200)] \
                if cluster.telemetry else []
            return received, expected, kinds
        except BaseException:
            await cluster.close()
            raise

    received, expected, kinds = asyncio.run(run())
    # The checkpoint carries the open state: the migrated stream is
    # byte-identical to the unmigrated oracle — no gap, no repeat, no
    # teardown.
    assert received == expected
    if kinds:
        assert "migration_start" in kinds and "migration_complete" in kinds


def test_standby_adoption_splices_stream_with_zero_gap():
    offers = _tuples(0, 30)

    async def run():
        expected = await _baseline_stream(offers, _CHATTY)
        cluster = ClusterService(
            ClusterConfig(
                workers=1,
                standby=1,
                sources=("solo",),
                batch_max_items=1,
                health_interval_s=0.25,
            )
        )
        await cluster.start()
        try:
            session = await cluster.subscribe("solo.app", "solo", _CHATTY)
            received: list[int] = []

            async def consume():
                async for batch in session.batches():
                    received.extend(item.seq for item in batch.items)

            consumer = asyncio.create_task(consume())
            for item in offers[:15]:
                await cluster.offer("solo", item)
            await _settled(received)
            primary = cluster._primary(0)
            standby = cluster._standby_for(0)
            assert standby is not None, "standby never armed"
            assert "solo" not in standby.stale_sources
            old_pid = primary.process.pid
            standby_pid = standby.process.pid
            primary.process.kill()
            # Healed = the slot runs a *different* process and is ready
            # again (ready alone is not enough: it only drops once the
            # monitor sights the death).
            for _ in range(600):
                process = primary.process
                if (
                    process is not None
                    and process.pid != old_pid
                    and primary.ready.is_set()
                ):
                    break
                await asyncio.sleep(0.05)
            assert primary.ready.is_set(), "slot never healed"
            assert primary.process.pid == standby_pid
            # Healed by adoption, not respawn: the standby's process was
            # promoted into the primary slot.
            assert primary.respawns == 0
            for item in offers[15:]:
                await cluster.offer("solo", item)
            assert not session.closed
            await cluster.close()
            await asyncio.wait_for(consumer, timeout=30)
            return received, expected
        except BaseException:
            await cluster.close()
            raise

    received, expected = asyncio.run(run())
    # The splice drops exactly the already-delivered prefix: the stream
    # across the failover equals the uncrashed oracle — zero gap, zero
    # duplicates, zero teardown.
    assert received == expected


def test_standby_rearmed_from_a_checkpoint_splices_with_zero_gap():
    """A standby armed mid-stream — ``snapshot_source`` on the primary,
    ``import_source`` on the standby, across real processes — holds the
    primary's open state: the failover after it splices exactly."""
    offers = _tuples(0, 40)
    spec = "DC1(value, 6.0, 3.0)"  # sets of a few tuples stay open

    async def run():
        expected = await _baseline_stream(offers, spec)
        telemetry = Telemetry()
        cluster = ClusterService(
            ClusterConfig(
                workers=1,
                standby=1,
                sources=("solo",),
                batch_max_items=1,
                health_interval_s=0.25,
            ),
            telemetry=telemetry,
        )
        await cluster.start()
        try:
            session = await cluster.subscribe("solo.app", "solo", spec)
            received: list[int] = []

            async def consume():
                async for batch in session.batches():
                    received.extend(item.seq for item in batch.items)

            consumer = asyncio.create_task(consume())
            for item in offers[:17]:
                await cluster.offer("solo", item)
            await _settled(received)
            primary = cluster._primary(0)
            standby = cluster._standby_for(0)
            assert standby is not None, "standby never came up"
            # Drop the mirror armed from birth and arm it again from the
            # primary's checkpoint, 17 offers in.
            cluster._mark_stale(standby, "solo")
            cluster._schedule_arm(standby)
            await asyncio.wait_for(standby.arm_task, 30)
            assert "solo" not in standby.stale_sources
            for item in offers[17:25]:
                await cluster.offer("solo", item)
            await _settled(received)
            old_pid = primary.process.pid
            primary.process.kill()
            for _ in range(600):
                process = primary.process
                if process is not None and process.pid != old_pid and primary.ready.is_set():
                    break
                await asyncio.sleep(0.05)
            assert primary.ready.is_set(), "slot never healed"
            for item in offers[25:]:
                await cluster.offer("solo", item)
            await cluster.close()
            await asyncio.wait_for(consumer, timeout=30)
            return received, expected, telemetry.events.since()
        except BaseException:
            await cluster.close()
            raise

    received, expected, events = asyncio.run(run())
    armed = [e for e in events if e["kind"] == "standby_armed"]
    adopted = [e for e in events if e["kind"] == "standby_adopt"]
    assert armed and armed[0]["sources"] == 1
    assert [(e["worker"], e["spliced"], e["cold"]) for e in adopted] == [(0, 1, 0)]
    assert received == expected and len(expected) > 3


def test_add_and_remove_worker_rebalance_via_live_migration():
    async def run():
        cluster = ClusterService(
            ClusterConfig(
                workers=2,
                sources=SOURCES,
                batch_max_items=1,
                health_interval_s=0.25,
            )
        )
        await cluster.start()
        try:
            session = await cluster.subscribe(
                f"{SOURCES[0]}.app", SOURCES[0], _CHATTY
            )
            received: list[int] = []

            async def consume():
                async for batch in session.batches():
                    received.extend(item.seq for item in batch.items)

            consumer = asyncio.create_task(consume())
            for item in _tuples(0, 10):
                await cluster.offer(SOURCES[0], item)
            index = await cluster.add_worker()
            assert index == 2
            ring_owner = {s: int(cluster._ring.owner(s)) for s in SOURCES}
            # Every source sits where the grown ring says it should.
            assert {s: cluster.shard_of(s) for s in SOURCES} == ring_owner
            for item in _tuples(10, 10):
                await cluster.offer(SOURCES[0], item)
            removed = await cluster.remove_worker()
            assert removed == index
            assert all(cluster.shard_of(s) in (0, 1) for s in SOURCES)
            for item in _tuples(20, 10):
                await cluster.offer(SOURCES[0], item)
            assert not session.closed
            await cluster.close()
            await asyncio.wait_for(consumer, timeout=30)
            return received
        except BaseException:
            await cluster.close()
            raise

    received = asyncio.run(run())
    # Streams survived two rebalances; the chatty spec decides nearly
    # every offer, so deliveries kept flowing across both moves.
    assert received and received == sorted(received)
