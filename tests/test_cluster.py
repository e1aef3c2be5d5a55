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
import json
import os
import signal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cuts import RuntimePredictor
from repro.core.tuples import StreamTuple
from repro.obs.telemetry import Telemetry
from repro.qos.controller import DegradationConfig
from repro.qos.spec import DegradationPolicy, QualitySpec
from repro.runtime.partition import HashRing
from repro.runtime.tasks import EngineConfig
from repro.service.broker import DisseminationService, ServiceConfig
from repro.service.cluster import _REARM_TUPLES, ClusterConfig, ClusterService
from repro.transport.client import GatewayError
from repro.transport.protocol import MAX_FRAME_BYTES
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
            # Unstick: close the laggard's queue, as a gateway does for
            # a dead connection; the worker's queue drains and the
            # blocked offer completes.
            await session.queue.close()
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
# Live migration / failover / elasticity (real subprocess fleets)
# ---------------------------------------------------------------------------
async def _baseline_stream(
    offers: list[StreamTuple], spec: str, *, refilter_at: int = -1
) -> list[int]:
    """What one app subscribed with ``spec`` sees from an unmigrated,
    uncrashed single broker fed ``offers`` — the byte-identity oracle
    (re-filtered to the same spec before offer ``refilter_at``)."""
    service = _broker("region", ["oracle"])
    session = await service.subscribe("oracle.app", "oracle", spec)
    delivered: list[int] = []

    async def drain():
        async for batch in session.batches():
            delivered.extend(item.seq for item in batch.items)

    consumer = asyncio.create_task(drain())
    for index, item in enumerate(offers):
        if index == refilter_at:
            await service.re_filter("oracle.app", spec)
        await service.offer("oracle", item)
    await service.close()
    await consumer
    return delivered


def _rearms(telemetry: Telemetry) -> float:
    return telemetry.registry.get("repro_cluster_failover_rearms_total").value


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
        telemetry = Telemetry()
        cluster = ClusterService(
            ClusterConfig(
                workers=2,
                sources=(source_a, source_b),
                batch_max_items=1,
                health_interval_s=0.25,
            ),
            telemetry=telemetry,
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
            return received, expected, [e["kind"] for e in telemetry.events.since()]
        except BaseException:
            await cluster.close()
            raise

    received, expected, kinds = asyncio.run(run())
    # The checkpoint carries the open state: the migrated stream is
    # byte-identical to the unmigrated oracle — no gap, no repeat, no
    # teardown.
    assert received == expected
    assert "migration_start" in kinds and "migration_complete" in kinds


def test_failover_rearmed_from_a_checkpoint_splices_with_zero_gap():
    """A failover record re-armed mid-stream — ``snapshot_source`` on the
    primary after a same-spec ``re_filter`` — and the tail kept since
    restore the primary's state on the respawned process, across real
    processes: the failover after it splices exactly."""
    offers = _tuples(0, 40)
    spec = "DC1(value, 6.0, 3.0)"  # sets of a few tuples stay open

    async def run():
        expected = await _baseline_stream(offers, spec, refilter_at=17)
        telemetry = Telemetry()
        cluster = ClusterService(
            ClusterConfig(
                workers=1,
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
            # Re-arm from the primary's checkpoint, 17 offers in.
            rearms = _rearms(telemetry)
            await cluster.re_filter("solo.app", spec)
            assert _rearms(telemetry) == rearms + 1
            for item in offers[17:25]:
                await cluster.offer("solo", item)
            await _settled(received)
            old_pid = primary.process.pid
            primary.process.kill()
            await _healed(primary, old_pid)
            for item in offers[25:]:
                await cluster.offer("solo", item)
            await cluster.close()
            await asyncio.wait_for(consumer, timeout=30)
            return received, expected, telemetry.events.since()
        except BaseException:
            await cluster.close()
            raise

    received, expected, events = asyncio.run(run())
    armed = [e for e in events if e["kind"] == "failover_armed"]
    assert armed and armed[0]["source"] == "solo"
    assert _respawns(events) == [(0, 1, 0)]
    assert received == expected and len(expected) > 3


# ---------------------------------------------------------------------------
# Failover from the router's checkpoint + tail, wherever the primary dies
# ---------------------------------------------------------------------------
_FAILOVER_APPS = (("solo.wide", "DC1(value, 6.0, 3.0)"), ("solo.narrow", "DC1(value, 3.0, 1.5)"))
_FAILOVER_CHUNK = 64
#: An app whose reservoir keeps every tuple open, so the source's image
#: grows with the stream: about 75 bytes a tuple.
_HOARD_APP = ("solo.keep", "RS(2, 1000000)")
#: The frame bound of the large-image cases; their images pass 4x it.
_SMALL_FRAME_BYTES = 64 * 1024
#: One app per overflow policy besides ``block``, and one with a ladder:
#: ``(app, spec, subscribe knobs)``.  None overflows or steps.
_POLICY_APPS = (
    ("solo.fresh", "DC1(value, 6.0, 3.0)", {"overflow": "drop_oldest"}),
    ("solo.strict", "DC1(value, 3.0, 1.5)", {"overflow": "disconnect"}),
    (
        "solo.ladder",
        "DC1(value, 4.0, 2.0)",
        {
            "degradation": DegradationPolicy(
                "solo.ladder",
                (
                    QualitySpec("solo.ladder", "DC1(value, 4.0, 2.0)"),
                    QualitySpec("solo.ladder", "DC1(value, 12.0, 6.0)"),
                ),
            ),
            # Depth never reaches a 10 000-batch bound; the other
            # signals are off.
            "degradation_config": DegradationConfig(
                queue_high_ratio=1.0, drop_rate_per_s=0.0, flush_wait_ms=None
            ),
        },
    ),
)


@pytest.fixture
def fixed_solve_times(tmp_path, monkeypatch):
    """The fixed-time ``RuntimePredictor`` of ``test_checkpoint``, here and
    in every worker process the cluster starts (through a
    ``sitecustomize`` on their ``PYTHONPATH``): timely cuts then depend
    on the stream alone, not on how long this machine took to solve."""
    (tmp_path / "sitecustomize.py").write_text(
        "from repro.core.cuts import RuntimePredictor\n"
        "_observe = RuntimePredictor.observe\n"
        "RuntimePredictor.observe = (\n"
        "    lambda self, size, ms: _observe(self, size, 3.0)\n"
        ")\n"
    )
    monkeypatch.setenv(
        "PYTHONPATH",
        os.pathsep.join(p for p in (str(tmp_path), os.environ.get("PYTHONPATH")) if p),
    )
    observe = RuntimePredictor.observe
    monkeypatch.setattr(
        RuntimePredictor, "observe", lambda self, size, ms: observe(self, size, 3.0)
    )


def _failover_script(tuples: int, *, ticks: bool) -> list:
    """``offer_many`` item lists of a sawtooth (sets keep opening and
    closing), with a tick (a float) after each one when ``ticks`` — 8 ms
    past its last tuple, short of the next, and late enough for a
    timely cut of its own."""
    items = [
        StreamTuple(seq=seq, timestamp=seq * 10.0, values={"value": float(seq % 24)})
        for seq in range(tuples)
    ]
    script: list = []
    for start in range(0, tuples, _FAILOVER_CHUNK):
        chunk = items[start : start + _FAILOVER_CHUNK]
        script.append(chunk)
        if ticks:
            script.append(chunk[-1].timestamp + 8.0)
    return script


async def _failover_oracle(
    script: list, constraint_ms, apps=_FAILOVER_APPS
) -> dict[str, list[int]]:
    service = DisseminationService(
        ServiceConfig(
            engine=EngineConfig(algorithm="region", constraint_ms=constraint_ms),
            batch_max_items=1,
            batch_max_delay_ms=1e9,
            queue_capacity=10_000,
        )
    )
    service.add_source("solo")
    received: dict[str, list[int]] = {}
    consumers = []
    for app, spec in apps:
        session = await service.subscribe(app, "solo", spec)
        consumers.append(asyncio.create_task(_consume(session, received.setdefault(app, []))))
    for step in script:
        if isinstance(step, float):
            await service.tick(step)
        elif isinstance(step, str):
            await service.unsubscribe(step)
        else:
            await service.offer_many("solo", step)
    await service.close()
    await asyncio.gather(*consumers)
    return received


async def _consume(session, into: list[int], gate: asyncio.Event | None = None) -> None:
    """Drain ``session`` into ``into``; while ``gate`` is clear, take
    nothing more."""
    async for batch in session.batches():
        into.extend(item.seq for item in batch.items)
        if gate is not None:
            await gate.wait()


async def _until(condition, what: str, timeout_s: float = 30.0) -> None:
    """Poll ``condition`` until it holds."""
    deadline = asyncio.get_running_loop().time() + timeout_s
    while not condition():
        if asyncio.get_running_loop().time() > deadline:
            raise AssertionError(f"never {what}")
        await asyncio.sleep(0.01)


async def _healed(worker, old_pid: int) -> None:
    """Wait until the slot runs a different, ready process."""
    await _until(
        lambda: worker.process is not None
        and worker.process.pid != old_pid
        and worker.ready.is_set(),
        "healed",
    )


def _respawns(events) -> list[tuple]:
    """``(worker, spliced, cold)`` of every ``worker_respawn`` event."""
    return [
        (e["worker"], e["spliced"], e["cold"])
        for e in events
        if e["kind"] == "worker_respawn"
    ]


@pytest.mark.parametrize(
    "kill",
    [
        "after_rearm",
        "mid_tail",
        "offer_in_flight",
        "second_kill",
        "constrained",
        "lagging",
        "policies",
        "connection_lost",
        "large_image",
    ],
)
def test_failover_splices_wherever_the_primary_dies(kill, request):
    """SIGKILL the worker at a chosen point of a real-process run: right
    after a re-arm (empty tail), mid-tail, with an ``offer_many`` in
    flight (its frame is retried, not raised), twice in a row, under a
    time constraint with ticks in the tail, with one app's consumer
    paused, so the router's read loop is parked putting to that app's
    full queue (resumed once the respawn is under way), mid-tail with a
    ``drop_oldest``, a ``disconnect`` and a laddered app, mid-tail by
    its router connection alone (the process lives on; the supervisor
    kills it), and at a frame bound a quarter of the source's image.
    The fleet has no flag but its size: every delivered stream equals
    the uncrashed run's, and each respawn splices every app."""
    constrained = kill == "constrained"
    if constrained:
        request.getfixturevalue("fixed_solve_times")
    constraint_ms = 30.0 if constrained else None
    large = kill == "large_image"
    # The large image's record is taken at its fourth re-arm.
    arms = 4 if large else 1
    script = _failover_script(arms * _REARM_TUPLES + 8 * _FAILOVER_CHUNK, ticks=constrained)
    per_arm = _REARM_TUPLES // _FAILOVER_CHUNK * (2 if constrained else 1)
    # Kill after script[:at] has run (the re-arm fires inside the step
    # that fills the tail).
    at = per_arm if kill == "after_rearm" else arms * per_arm + 2
    kills = [at, at + 3] if kill == "second_kill" else [at]

    if kill == "policies":
        # Bounds no burst of the script can fill.
        apps = [(a, s, {**knobs, "queue_capacity": 10_000}) for a, s, knobs in _POLICY_APPS]
    else:
        apps = [(app, spec, {}) for app, spec in _FAILOVER_APPS]
        if kill == "lagging":
            # The lagging app's queue holds one batch, so a pause fills
            # it at once.
            apps[1] = (*apps[1][:2], {"queue_capacity": 1})
        if large:
            apps.append((*_HOARD_APP, {}))

    async def run():
        expected = await _failover_oracle(script, constraint_ms, [a[:2] for a in apps])
        telemetry = Telemetry()
        cluster = ClusterService(
            ClusterConfig(
                workers=1,
                sources=("solo",),
                batch_max_items=1,
                constraint_ms=constraint_ms,
                health_interval_s=0.25,
                max_frame_bytes=_SMALL_FRAME_BYTES if large else MAX_FRAME_BYTES,
            ),
            telemetry=telemetry,
        )
        await cluster.start()
        try:
            received: dict[str, list[int]] = {}
            consumers = []
            gate = asyncio.Event()
            gate.set()
            lagging = None
            for app, spec, knobs in apps:
                laggard = kill == "lagging" and app == apps[1][0]
                session = await cluster.subscribe(app, "solo", spec, **knobs)
                if laggard:
                    lagging = session.queue
                consumers.append(
                    asyncio.create_task(
                        _consume(session, received.setdefault(app, []), gate if laggard else None)
                    )
                )
            rearms = _rearms(telemetry)
            primary = cluster._primary(0)
            for index, step in enumerate(script):
                if isinstance(step, float):
                    await cluster.tick(step)
                    continue
                if index not in kills:
                    await cluster.offer_many("solo", step)
                    continue
                old_pid = primary.process.pid
                if kill == "offer_in_flight":
                    # Frozen first, so the frame is written but never acked.
                    os.kill(old_pid, signal.SIGSTOP)
                    in_flight = asyncio.create_task(cluster.offer_many("solo", step))
                    await asyncio.sleep(0.1)
                    assert not in_flight.done()
                    primary.process.kill()
                    assert isinstance(await in_flight, int)
                elif kill == "lagging":
                    gate.clear()
                    in_flight = asyncio.create_task(cluster.offer_many("solo", step))
                    await _until(
                        lambda: lagging.pending == lagging.capacity and lagging._putters,
                        "parked a put on the paused app's full queue",
                    )
                    primary.process.kill()
                    await _until(
                        lambda: primary.process.pid != old_pid, "started the respawn"
                    )
                    gate.set()
                    assert isinstance(await in_flight, int)
                elif kill == "connection_lost":
                    primary.client._writer.transport.abort()
                    assert isinstance(await cluster.offer_many("solo", step), int)
                else:
                    if large:
                        assert _rearms(telemetry) >= rearms + arms
                        image = json.dumps(cluster._records["solo"].state)
                        assert len(image) >= 4 * _SMALL_FRAME_BYTES
                    if kill == "after_rearm":
                        assert _rearms(telemetry) == rearms + 1
                    primary.process.kill()
                    await cluster.offer_many("solo", step)
                await _healed(primary, old_pid)
            await cluster.close()
            await asyncio.wait_for(asyncio.gather(*consumers), timeout=30)
            return received, expected, telemetry.events.since()
        except BaseException:
            await cluster.close()
            raise

    received, expected, events = asyncio.run(run())
    assert _respawns(events) == [(0, len(apps), 0)] * len(kills)
    if kill == "connection_lost":
        deaths = [e for e in events if e["kind"] == "worker_death"]
        assert [e.get("reason") for e in deaths] == ["connection_lost"]
    for app, _spec, _knobs in apps:
        assert len(expected[app]) > 100 or app == _HOARD_APP[0]
        assert received[app] == expected[app], app


def test_close_relays_a_workers_final_flush_to_a_slow_consumer():
    """The hoarding app holds every decision until the source closes, so
    the worker's final flush is the whole stream; a consumer taking a
    few milliseconds a batch still gets all of it, because the router
    relays what the worker wrote before it exited."""
    script = _failover_script(_REARM_TUPLES, ticks=False)
    apps = (*_FAILOVER_APPS, _HOARD_APP)

    async def slow(session, into: list[int]) -> None:
        async for batch in session.batches():
            into.extend(item.seq for item in batch.items)
            await asyncio.sleep(0.003)

    async def run():
        expected = await _failover_oracle(script, None, apps)
        cluster = ClusterService(
            ClusterConfig(workers=1, sources=("solo",), batch_max_items=1)
        )
        await cluster.start()
        try:
            received: dict[str, list[int]] = {}
            consumers = [
                asyncio.create_task(
                    slow(await cluster.subscribe(app, "solo", spec), received.setdefault(app, []))
                )
                for app, spec in apps
            ]
            for step in script:
                await cluster.offer_many("solo", step)
        finally:
            await cluster.close()
        await asyncio.wait_for(asyncio.gather(*consumers), timeout=30)
        return received, expected

    received, expected = asyncio.run(run())
    for app, _spec in apps:
        assert received[app] == expected[app], app
    assert len(received[_FAILOVER_APPS[1][0]]) > 300


# ---------------------------------------------------------------------------
# Migration is a failover without a death (real processes)
# ---------------------------------------------------------------------------
async def _subscribe_apps(cluster, source: str):
    """Subscribe ``_FAILOVER_APPS`` to ``source``; returns their received
    streams and consumer tasks."""
    received: dict[str, list[int]] = {}
    consumers = []
    for app, spec in _FAILOVER_APPS:
        session = await cluster.subscribe(app, source, spec)
        consumers.append(
            asyncio.create_task(_consume(session, received.setdefault(app, [])))
        )
    return received, consumers


def test_a_large_image_migrates_exactly():
    """At a frame bound a quarter of the source's image, the source
    arms, re-arms and migrates with ``exact=True``, and every stream
    equals a single broker's."""
    source_a, source_b = _two_sources_on_distinct_shards()
    script = _failover_script(4 * _REARM_TUPLES + 8 * _FAILOVER_CHUNK, ticks=False)
    apps = (*_FAILOVER_APPS, _HOARD_APP)
    moved_at = len(script) - 4

    async def run():
        expected = await _failover_oracle(script, None, apps)
        telemetry = Telemetry()
        cluster = ClusterService(
            ClusterConfig(
                workers=2,
                sources=(source_a, source_b),
                batch_max_items=1,
                health_interval_s=60.0,
                max_frame_bytes=_SMALL_FRAME_BYTES,
            ),
            telemetry=telemetry,
        )
        await cluster.start()
        try:
            received: dict[str, list[int]] = {}
            consumers = []
            for app, spec in apps:
                session = await cluster.subscribe(app, source_a, spec)
                consumers.append(
                    asyncio.create_task(_consume(session, received.setdefault(app, [])))
                )
            rearms = _rearms(telemetry)
            for step in script[:moved_at]:
                await cluster.offer_many(source_a, step)
            assert _rearms(telemetry) >= rearms + 4
            result = await cluster.migrate_source(source_a, 1)
            image = json.dumps(cluster._records[source_a].state)
            for step in script[moved_at:]:
                await cluster.offer_many(source_a, step)
            await cluster.close()
            await asyncio.wait_for(asyncio.gather(*consumers), timeout=30)
            return result, len(image), received, expected
        except BaseException:
            await cluster.close()
            raise

    result, image_bytes, received, expected = asyncio.run(run())
    assert result == {"source": source_a, "moved": True, "exact": True, "worker": 1}
    assert image_bytes >= 4 * _SMALL_FRAME_BYTES
    for app, _spec in apps:
        assert len(expected[app]) > 100 or app == _HOARD_APP[0]
        assert received[app] == expected[app], app


def test_migration_from_a_dead_exporter_fails_over_exactly():
    """The source's primary is SIGKILLed and the supervisor has not seen
    it yet, so the export fails: the migration fails over instead, from
    the router's checkpoint + tail — a frame that failed with the dead
    primary included — and every stream equals the uncrashed run's."""
    source_a, source_b = _two_sources_on_distinct_shards()
    script = _failover_script(6 * _FAILOVER_CHUNK, ticks=False)

    async def run():
        expected = await _failover_oracle(script, None)
        cluster = ClusterService(
            ClusterConfig(
                workers=2,
                sources=(source_a, source_b),
                batch_max_items=1,
                health_interval_s=60.0,
            )
        )
        await cluster.start()
        try:
            received, consumers = await _subscribe_apps(cluster, source_a)
            for step in script[:3]:
                await cluster.offer_many(source_a, step)
            primary = cluster._primary(0)
            primary.process.kill()
            await primary.process.wait()
            assert primary.ready.is_set()  # unnoticed
            in_flight = asyncio.create_task(cluster.offer_many(source_a, script[3]))
            record = cluster._records[source_a]
            for _ in range(200):
                if record.retries:
                    break
                await asyncio.sleep(0.01)
            assert record.retries, "the frame never failed with the primary"
            result = await cluster.migrate_source(source_a, 1)
            assert isinstance(await in_flight, int)
            for step in script[4:]:
                await cluster.offer_many(source_a, step)
            await cluster.close()
            await asyncio.wait_for(asyncio.gather(*consumers), timeout=30)
            return result, received, expected
        except BaseException:
            await cluster.close()
            raise

    result, received, expected = asyncio.run(run())
    assert result == {"source": source_a, "moved": True, "exact": True, "worker": 1}
    for app, _spec in _FAILOVER_APPS:
        assert len(expected[app]) > 50
        assert received[app] == expected[app], app


def test_migration_onto_a_covered_shard_splices_when_the_target_dies():
    """A migration's export is the landed source's failover record, so
    killing the target splices every app from that record plus the tail
    kept since."""
    source_a, source_b = _two_sources_on_distinct_shards()
    script = _failover_script(6 * _FAILOVER_CHUNK, ticks=False)

    async def run():
        expected = await _failover_oracle(script, None)
        telemetry = Telemetry()
        cluster = ClusterService(
            ClusterConfig(
                workers=2,
                sources=(source_a, source_b),
                batch_max_items=1,
                health_interval_s=0.25,
            ),
            telemetry=telemetry,
        )
        await cluster.start()
        try:
            received, consumers = await _subscribe_apps(cluster, source_b)
            for step in script[:2]:
                await cluster.offer_many(source_b, step)
            result = await cluster.migrate_source(source_b, 0)
            for step in script[2:4]:
                await cluster.offer_many(source_b, step)
            tail = cluster._records[source_b].tuples
            primary = cluster._primary(0)
            old_pid = primary.process.pid
            primary.process.kill()
            await cluster.offer_many(source_b, script[4])
            await _healed(primary, old_pid)
            for step in script[5:]:
                await cluster.offer_many(source_b, step)
            await cluster.close()
            await asyncio.wait_for(asyncio.gather(*consumers), timeout=30)
            return result, tail, received, expected, telemetry.events.since()
        except BaseException:
            await cluster.close()
            raise

    result, tail, received, expected, events = asyncio.run(run())
    assert result["exact"] and result["worker"] == 0
    assert tail == 2 * _FAILOVER_CHUNK
    assert _respawns(events) == [(0, len(_FAILOVER_APPS), 0)]
    for app, _spec in _FAILOVER_APPS:
        assert received[app] == expected[app], app


def test_migration_racing_a_respawn_of_its_old_shard_leaves_the_source_alone():
    """A respawn's ``_reattach_shard`` lists its shard's sources before
    it takes their locks; a migration holding one of those locks moves
    that source away meanwhile (failing over from the record: its
    exporter is the dead process), and an unsubscribe queued behind it
    re-arms the source's record on the target.  The respawn re-checks
    placement and skips the source: re-attaching it on the new process
    would reset the record's ``shipped`` offsets, and the target's
    failover would then splice the remaining app short."""
    source_a, source_b = _two_sources_on_distinct_shards()
    narrow = _FAILOVER_APPS[1][0]
    chunks = _failover_script(4 * _FAILOVER_CHUNK, ticks=False)
    script = chunks[:2] + [narrow] + chunks[2:]

    async def run():
        expected = await _failover_oracle(script, None)
        telemetry = Telemetry()
        cluster = ClusterService(
            ClusterConfig(
                workers=2,
                sources=(source_a, source_b),
                batch_max_items=1,
                health_interval_s=0.25,
            ),
            telemetry=telemetry,
        )
        await cluster.start()
        try:
            received, consumers = await _subscribe_apps(cluster, source_a)
            for step in chunks[:2]:
                await cluster.offer_many(source_a, step)
            lock = cluster._source_lock(source_a)
            launch = cluster._launch
            race = {}

            async def launch_then_race(worker):
                # One shot: the respawn's process is up, its re-attach
                # is next, and the migration and unsubscribe go first.
                del cluster._launch
                await launch(worker)
                race["migration"] = asyncio.create_task(
                    cluster.migrate_source(source_a, 1)
                )
                await asyncio.sleep(0)
                assert lock.locked()
                race["unsubscribe"] = asyncio.create_task(cluster.unsubscribe(narrow))
                await asyncio.sleep(0)
                assert not race["unsubscribe"].done()  # queued on the source lock

            cluster._launch = launch_then_race
            old = cluster._primary(0)
            old.process.kill()
            await old.process.wait()
            assert await cluster.heal_worker(0) == "respawned"
            result = await race["migration"]
            await race["unsubscribe"]
            await cluster.offer_many(source_a, chunks[2])
            target = cluster._primary(1)
            old_pid = target.process.pid
            target.process.kill()
            await cluster.offer_many(source_a, chunks[3])
            await _healed(target, old_pid)
            await cluster.close()
            await asyncio.wait_for(asyncio.gather(*consumers), timeout=30)
            return result, received, expected, telemetry.events.since()
        except BaseException:
            await cluster.close()
            raise

    result, received, expected, events = asyncio.run(run())
    assert result["exact"] and result["worker"] == 1
    assert _respawns(events) == [(0, 0, 0), (1, 1, 0)]
    for app, _spec in _FAILOVER_APPS:
        assert received[app] == expected[app], app


def test_lost_slot_fails_its_waiting_callers_at_once():
    """A slot that spends its respawn budget is lost: an ``offer`` parked
    waiting for it and an ``offer_many`` that was in flight when it died
    (its frame waiting in the tail for a replay) both fail with "lost"
    as soon as the slot is declared lost, not at the reattach timeout."""
    script = _failover_script(2 * _FAILOVER_CHUNK, ticks=False)

    async def run():
        telemetry = Telemetry()
        cluster = ClusterService(
            ClusterConfig(
                workers=1,
                sources=("solo",),
                batch_max_items=1,
                health_interval_s=0.25,
            ),
            telemetry=telemetry,
        )
        await cluster.start()
        try:
            received, consumers = await _subscribe_apps(cluster, "solo")
            await cluster.offer_many("solo", script[0])

            async def refuse(worker):
                raise RuntimeError("no replacement process")

            cluster._launch = refuse
            primary = cluster._primary(0)
            # Frozen first, so the frame is written but never acked.
            os.kill(primary.process.pid, signal.SIGSTOP)
            in_flight = asyncio.create_task(cluster.offer_many("solo", script[1]))
            await asyncio.sleep(0.1)
            assert not in_flight.done()
            primary.process.kill()
            for _ in range(200):
                if not primary.ready.is_set():
                    break
                await asyncio.sleep(0.01)
            parked = asyncio.create_task(cluster.offer("solo", script[1][0]))
            await asyncio.sleep(0.05)
            assert not parked.done()
            for _ in range(400):
                if primary.failed:
                    break
                await asyncio.sleep(0.01)
            assert primary.failed, "the slot was never declared lost"
            errors = await asyncio.wait_for(
                asyncio.gather(in_flight, parked, return_exceptions=True), timeout=5
            )
            records = dict(cluster._records)
            await cluster.close()
            await asyncio.wait_for(asyncio.gather(*consumers), timeout=30)
            return errors, records, telemetry.events.since()
        except BaseException:
            await cluster.close()
            raise

    errors, records, events = asyncio.run(run())
    for error in errors:
        assert isinstance(error, RuntimeError) and "lost" in str(error), error
    assert records == {}
    assert [e["worker"] for e in events if e["kind"] == "worker_lost"] == [0]


def test_per_source_tick_cuts_only_that_source():
    """``tick(now_ms, source)`` reaches the worker as a per-source tick:
    its timely cut closes that source's open sets and no other's."""
    sources = ("tick-a", "tick-b")

    async def run():
        cluster = ClusterService(
            ClusterConfig(
                workers=1,
                sources=sources,
                batch_max_items=1,
                constraint_ms=50.0,
                health_interval_s=0.25,
            )
        )
        await cluster.start()
        try:
            received: dict[str, list[int]] = {}
            consumers = []
            for source in sources:
                session = await cluster.subscribe(
                    f"{source}.app", source, "DC1(value, 6.0, 3.0)"
                )
                consumers.append(
                    asyncio.create_task(_consume(session, received.setdefault(source, [])))
                )
            for item in _tuples(0, 4):
                for source in sources:
                    await cluster.offer(source, item)
            counts = []
            for source in sources:
                await _settled(received["tick-a"])
                await _settled(received["tick-b"])
                counts.append({s: len(received[s]) for s in sources})
                assert await cluster.tick(10_000.0, source) > 0
            await _settled(received["tick-a"])
            await _settled(received["tick-b"])
            counts.append({s: len(received[s]) for s in sources})
            with pytest.raises(GatewayError) as refused:
                await cluster._primary(0).client.tick(1.0, "tick-nope")
            await cluster.close()
            await asyncio.wait_for(asyncio.gather(*consumers), timeout=30)
            return counts, refused.value.code
        except BaseException:
            await cluster.close()
            raise

    counts, code = asyncio.run(run())
    before, after_a, after_b = counts
    assert after_a["tick-a"] > before["tick-a"]
    assert after_a["tick-b"] == before["tick-b"]
    assert after_b["tick-b"] > after_a["tick-b"]
    assert code == "bad_request"


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
