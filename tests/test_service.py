"""Unit tests for the live dissemination service (broker layer)."""

from __future__ import annotations

import asyncio
import types

import pytest

from repro.core.engine import GroupAwareEngine
from repro.core.output import PerCandidateSetOutput
from repro.core.tuples import StreamTuple, Trace
from repro.filters.spec import parse_filter
from repro.runtime.merge import canonical_result
from repro.runtime.tasks import EngineConfig
from repro.service.batching import Batch, MicroBatcher
from repro.service.broker import DisseminationService, ServiceConfig
from repro.service.loadgen import decided_map
from repro.service.session import DeliveryQueue, SessionDisconnected
from repro.sources import random_walk_trace

SPECS = [
    ("app0", "DC1(temp, 2.0, 1.0)"),
    ("app1", "DC1(temp, 3.0, 1.5)"),
    ("app2", "DC1(temp, 4.4, 2.0)"),
]


@types.coroutine
def _one_pass():
    """Yield to the event loop once: every ready task takes one step."""
    yield


async def _passes(n: int = 3) -> None:
    for _ in range(n):
        await _one_pass()


def _batch(seq: int = 0) -> Batch:
    return Batch(
        items=(StreamTuple(seq, float(seq), {"v": 1}),),
        first_staged_ms=0,
        flushed_ms=0,
    )


def _trace(n=400, seed=3) -> Trace:
    return random_walk_trace(n=n, seed=seed, attribute="temp")


def _reference(algorithm: str, trace: Trace, specs=SPECS):
    filters = [parse_filter(spec, name=app) for app, spec in specs]
    return GroupAwareEngine(filters, algorithm=algorithm).run(trace)


async def _spin_up(
    algorithm="region",
    *,
    batch_max_items=1,
    output="region",
    specs=SPECS,
    record_epochs=False,
    **session_kwargs,
):
    """``record_epochs`` only for the tests whose oracle is the epochs'
    own decision log; everything else runs the log-free default."""
    service = DisseminationService(
        ServiceConfig(
            engine=EngineConfig(algorithm=algorithm, output=output),
            batch_max_items=batch_max_items,
            record_epochs=record_epochs,
        )
    )
    service.add_source("src")
    sessions = {}
    for app, spec in specs:
        sessions[app] = await service.subscribe(
            app, "src", spec, queue_capacity=10_000, **session_kwargs
        )
    return service, sessions


class TestBatchEquivalence:
    """Fixed trace + static subscriptions == the batch engine, bit for bit."""

    @pytest.mark.parametrize("algorithm", ["region", "per_candidate_set"])
    def test_decided_outputs_identical(self, algorithm):
        trace = _trace()

        async def run():
            service, sessions = await _spin_up(algorithm, record_epochs=True)
            await service.feed("src", trace)
            epochs = (await service.close())["src"]
            return epochs, sessions

        epochs, sessions = asyncio.run(run())
        assert len(epochs) == 1
        reference = _reference(algorithm, trace)
        assert canonical_result(epochs[0]) == canonical_result(reference)

    @pytest.mark.parametrize("algorithm", ["region", "per_candidate_set"])
    def test_sessions_receive_batch_outputs(self, algorithm):
        trace = _trace(seed=5)

        async def run():
            service, sessions = await _spin_up(algorithm)
            await service.feed("src", trace)
            await service.close()
            return {
                app: [
                    item.seq
                    for batch in session.queue.drain_nowait()
                    for item in batch.items
                ]
                for app, session in sessions.items()
            }

        delivered = asyncio.run(run())
        reference = _reference(algorithm, trace)
        for app, _ in SPECS:
            assert set(delivered[app]) == {
                t.seq for t in reference.outputs_for(app)
            }

    @pytest.mark.parametrize(
        "algorithm, specs",
        [
            ("per_candidate_set", SPECS),
            # A stateful filter decides per candidate set under either algorithm.
            ("region", SPECS[:2] + [("app2", "SDC(temp, 2.5, 1.0)")]),
        ],
    )
    def test_pcs_output_is_delivered_live_not_at_close(self, algorithm, specs):
        """``(Pcs)`` releases a decision the moment it is made; the broker
        routes only what an engine step returns, so those emissions
        must come back from ``process`` and not wait for the cutover."""
        trace = _trace(seed=5)

        async def run():
            service, sessions = await _spin_up(algorithm, output="pcs", specs=specs)
            await service.feed("src", trace)
            live = {
                app: [i.seq for b in s.queue.drain_nowait() for i in b.items]
                for app, s in sessions.items()
            }
            await service.close()
            tails = {
                app: [i.seq for b in s.queue.drain_nowait() for i in b.items]
                for app, s in sessions.items()
            }
            return live, tails

        live, tails = asyncio.run(run())
        reference = GroupAwareEngine(
            [parse_filter(spec, name=app) for app, spec in specs],
            algorithm=algorithm,
            output_strategy=PerCandidateSetOutput(),
        ).run(trace)
        early = [app for app, _ in specs if algorithm != "region" or app == "app2"]
        for app in early:
            assert len(live[app]) > 10 and len(tails[app]) <= 1
        for app, _ in specs:
            assert live[app] + tails[app] == [
                e.item.seq for e in reference.emissions if app in e.recipients
            ]

    def test_ticks_do_not_change_decisions(self):
        trace = _trace(seed=8)

        async def run():
            service, _ = await _spin_up("region", record_epochs=True)
            for index, item in enumerate(trace):
                await service.offer("src", item)
                if index % 25 == 0:
                    # Tick ahead of the stream clock: may emit earlier,
                    # must never decide differently.
                    await service.tick(item.timestamp + 5.0)
            return (await service.close())["src"]

        epochs = asyncio.run(run())
        assert len(epochs) == 1
        assert decided_map(epochs[0]) == decided_map(_reference("region", trace))


class TestBackpressure:
    def test_block_policy_blocks_producer_until_consumed(self):
        async def run():
            queue = DeliveryQueue(capacity=1, policy="block")
            batch = Batch(items=(StreamTuple(0, 0.0, {"v": 1}),), first_staged_ms=0, flushed_ms=0)
            await queue.put(batch)
            producer = asyncio.create_task(queue.put(batch))
            await _passes()
            assert not producer.done()  # backpressure: producer parked
            await queue.get()
            await asyncio.wait_for(producer, timeout=1.0)
            assert producer.done()

        asyncio.run(run())

    def test_close_wakes_a_parked_producer_and_a_parked_consumer(self):
        async def run():
            full = DeliveryQueue(capacity=1, policy="block")
            await full.put(_batch(0))
            producer = asyncio.create_task(full.put(_batch(1)))
            empty = DeliveryQueue(capacity=1, policy="block")
            consumer = asyncio.create_task(empty.get())
            await _passes()
            assert not producer.done() and not consumer.done()
            await full.close()
            await empty.close()
            await _passes()
            # The parked put is discarded (returned as not enqueued); the
            # queued batch still drains before the end of the stream.
            assert producer.done() and producer.result().items[0].seq == 1
            assert consumer.done()
            with pytest.raises(StopAsyncIteration):
                consumer.result()
            assert (await full.get()).items[0].seq == 0
            with pytest.raises(StopAsyncIteration):
                await full.get()

        asyncio.run(run())

    def test_drained_waits_for_the_consumer_to_take_every_batch(self):
        """What a snapshot reply waits on: the consumer's last ``get``,
        and what it does with that batch before its next ``await``,
        come first.  Closing the queue releases the wait."""

        async def run():
            queue = DeliveryQueue(capacity=4, policy="block")
            await asyncio.wait_for(queue.drained(), 1.0)  # empty: at once
            await queue.put(_batch(0))
            await queue.put(_batch(1))
            waiter = asyncio.create_task(queue.drained())
            await _passes()
            assert not waiter.done()
            taken: list[int] = []

            async def consume():
                while True:
                    taken.append((await queue.get()).items[0].seq)
                    await _passes()

            consumer = asyncio.create_task(consume())
            await asyncio.wait_for(waiter, 1.0)
            seen = list(taken)
            consumer.cancel()
            stuck = DeliveryQueue(capacity=1, policy="block")
            await stuck.put(_batch(2))
            released = asyncio.create_task(stuck.drained())
            await _passes()
            assert not released.done()
            await stuck.close()
            await asyncio.wait_for(released, 1.0)
            return seen

        assert asyncio.run(run()) == [0, 1]

    def test_drop_oldest_wakes_the_consumer(self):
        async def run():
            queue = DeliveryQueue(capacity=1, policy="drop_oldest")
            consumer = asyncio.create_task(queue.get())
            await _passes()
            assert not consumer.done()
            # Two puts before the consumer runs: the second evicts the
            # first, and the consumer wakes to the fresh one.
            assert await queue.put(_batch(0)) is None
            dropped = await queue.put(_batch(1))
            assert dropped.items[0].seq == 0
            await _passes()
            assert consumer.done() and consumer.result().items[0].seq == 1
            assert queue.depth == 0

        asyncio.run(run())

    def test_a_cancelled_getter_passes_its_wake_up_on(self):
        async def run():
            queue = DeliveryQueue(capacity=4, policy="block")
            first = asyncio.create_task(queue.get())
            second = asyncio.create_task(queue.get())
            await _passes()
            await queue.put(_batch(7))  # wakes ``first``, which has not run
            first.cancel()
            await _passes()
            assert first.cancelled()
            assert second.done() and second.result().items[0].seq == 7

        asyncio.run(run())

    def test_a_cancelled_putter_passes_its_wake_up_on(self):
        async def run():
            queue = DeliveryQueue(capacity=1, policy="block")
            await queue.put(_batch(0))
            first = asyncio.create_task(queue.put(_batch(1)))
            second = asyncio.create_task(queue.put(_batch(2)))
            await _passes()
            assert (await queue.get()).items[0].seq == 0  # wakes ``first``
            first.cancel()
            await _passes()
            assert first.cancelled()
            assert second.done() and second.result() is None
            assert [b.items[0].seq for b in queue.drain_nowait()] == [2]

        asyncio.run(run())

    def test_drop_oldest_bounds_queue_and_counts_drops(self):
        trace = _trace(n=500, seed=2)

        async def run():
            service = DisseminationService(
                ServiceConfig(engine=EngineConfig(algorithm="region"), batch_max_items=1)
            )
            service.add_source("src")
            session = await service.subscribe(
                "app0", "src", "DC1(temp, 1.0, 0.5)",
                queue_capacity=4, overflow="drop_oldest",
            )
            max_depth = 0
            for item in trace:  # no consumer at all
                await service.offer("src", item)
                max_depth = max(max_depth, session.queue.depth)
            await service.close()
            snapshot = service.snapshot()
            return session, max_depth, snapshot

        session, max_depth, snapshot = asyncio.run(run())
        assert max_depth <= 4  # broker memory stays bounded
        assert session.stats.dropped_tuples > 0
        [session_snap] = snapshot.sessions
        assert session_snap.dropped_tuples == session.stats.dropped_tuples
        assert snapshot.dropped_tuples > 0

    def test_disconnect_policy_closes_and_unsubscribes(self):
        trace = _trace(n=500, seed=4)

        async def run():
            service, sessions = await _spin_up(
                "region", overflow="disconnect",
            )
            victim = sessions["app0"]
            # Shrink one session's queue after the fact is not possible;
            # re-subscribe it with a tiny queue instead.
            await service.unsubscribe("app0")
            victim = await service.subscribe(
                "app0", "src", dict(SPECS)["app0"],
                queue_capacity=1, overflow="disconnect",
            )
            for item in trace:
                await service.offer("src", item)
            snapshot = service.snapshot()
            await service.close()
            return victim, snapshot

        victim, snapshot = asyncio.run(run())
        assert victim.disconnected
        assert victim.queue.closed
        # The broker reaped the session: only two live sessions remain.
        assert snapshot.session_count == 2
        assert all(s.app_name != "app0" for s in snapshot.sessions)


class TestDynamicSubscriptions:
    def test_refilter_mid_stream_changes_outputs(self):
        trace = _trace(n=600, seed=9)

        async def run():
            service = DisseminationService(
                ServiceConfig(
                    engine=EngineConfig(algorithm="region"),
                    batch_max_items=1,
                    record_epochs=True,
                )
            )
            service.add_source("src")
            session = await service.subscribe(
                "app0", "src", "DC1(temp, 8.0, 4.0)", queue_capacity=10_000
            )
            for item in trace[:300]:
                await service.offer("src", item)
            before = session.stats.delivered_tuples + session.queue.depth
            await session.re_filter("DC1(temp, 0.5, 0.25)")  # much tighter
            for item in trace[300:]:
                await service.offer("src", item)
            epochs = (await service.close())["src"]
            return session, epochs

        session, epochs = asyncio.run(run())
        assert len(epochs) == 2  # one per subscription epoch
        assert session.spec == "DC1(temp, 0.5, 0.25)"
        # The tighter filter passes far more tuples in the second epoch.
        first, second = epochs
        assert len(second.decisions["app0"]) > len(first.decisions["app0"])

    def test_unsubscribed_app_receives_nothing_more(self):
        trace = _trace(n=400, seed=12)

        async def run():
            service, sessions = await _spin_up("region")
            for item in trace[:200]:
                await service.offer("src", item)
            await service.unsubscribe("app1")
            delivered_at_unsub = sessions["app1"].stats.enqueued_batches
            for item in trace[200:]:
                await service.offer("src", item)
            await service.close()
            return sessions["app1"], delivered_at_unsub, service

        session, delivered_at_unsub, service = asyncio.run(run())
        assert session.queue.closed
        assert session.stats.enqueued_batches == delivered_at_unsub
        assert service.subscriptions("src") == [
            (app, spec) for app, spec in SPECS if app != "app1"
        ]

    def test_subscribe_duplicate_app_rejected(self):
        async def run():
            service, _ = await _spin_up("region")
            with pytest.raises(ValueError, match="already subscribed"):
                await service.subscribe("app0", "src", "DC1(temp, 1.0, 0.5)")
            await service.close()

        asyncio.run(run())


class TestOneEnginePerSource:
    @pytest.mark.parametrize(
        "option",
        [{"shards": 2}, {"max_group_size": 1}, {"partition_attributes": True}],
        ids=lambda option: next(iter(option)),
    )
    def test_live_regrouping_options_are_gone(self, option):
        # A live source's subscribers are one filter group on one engine;
        # the paper's regrouping strategies are repro.adaptive.regroup's.
        with pytest.raises(TypeError):
            ServiceConfig(**option)


class TestQueueAndBatcher:
    def test_disconnect_queue_raises_on_overflow(self):
        async def run():
            queue = DeliveryQueue(capacity=1, policy="disconnect")
            batch = Batch(items=(), first_staged_ms=0, flushed_ms=0)
            await queue.put(batch)
            with pytest.raises(SessionDisconnected):
                await queue.put(batch)

        asyncio.run(run())

    def test_batcher_size_bound(self):
        batcher = MicroBatcher(max_items=3, max_delay_ms=1e9)
        items = [StreamTuple(i, float(i), {"v": i}) for i in range(7)]
        flushed = [batcher.stage(item, item.timestamp) for item in items]
        batches = [b for b in flushed if b is not None]
        assert [len(b) for b in batches] == [3, 3]
        assert batcher.pending == 1
        tail = batcher.flush(99.0)
        assert tail is not None and len(tail) == 1

    def test_batcher_latency_bound(self):
        batcher = MicroBatcher(max_items=100, max_delay_ms=50.0)
        assert batcher.stage(StreamTuple(0, 0.0, {}), 0.0) is None
        assert not batcher.due(49.0)
        assert batcher.due(50.0)
        batch = batcher.flush(50.0)
        assert batch is not None
        assert batch.batching_delay_ms == 50.0

    def test_snapshot_serializes(self):
        async def run():
            service, _ = await _spin_up("region")
            await service.feed("src", _trace(n=50))
            snapshot = service.snapshot()
            await service.close()
            return snapshot

        snapshot = asyncio.run(run())
        payload = snapshot.to_dict()
        assert payload["session_count"] == 3
        assert payload["offered"] == 50
        assert isinstance(payload["sessions"], list)
        import json

        json.dumps(payload)  # must be JSON-serializable as-is


class TestReviewRegressions:
    def test_failed_subscribe_leaves_source_serving(self):
        """A rejected subscribe must not strand the source without engines."""
        trace = _trace(n=100, seed=13)

        async def run():
            service, sessions = await _spin_up("region", record_epochs=True)
            for item in trace[:50]:
                await service.offer("src", item)
            with pytest.raises(ValueError, match="malformed filter spec"):
                await service.subscribe("newcomer", "src", "DC1(temp, 1.0")
            for item in trace[50:]:
                await service.offer("src", item)
            epochs = (await service.close())["src"]
            return epochs

        epochs = asyncio.run(run())
        # The failed subscribe never cut the engine over: one epoch,
        # identical to the batch run.
        assert len(epochs) == 1
        reference = _reference("region", trace)
        assert canonical_result(epochs[0]) == canonical_result(reference)

    def test_invalid_session_override_leaves_source_serving(self):
        """Bad per-session knobs must fail before any churn, and a retry
        with valid knobs must not be refused as already subscribed."""
        trace = _trace(n=100, seed=17)

        async def run():
            service, sessions = await _spin_up("region", record_epochs=True)
            for item in trace[:50]:
                await service.offer("src", item)
            with pytest.raises(ValueError, match="capacity"):
                await service.subscribe(
                    "newcomer", "src", "DC1(temp, 1.0, 0.5)", queue_capacity=0
                )
            with pytest.raises(ValueError, match="overflow policy"):
                await service.subscribe(
                    "newcomer", "src", "DC1(temp, 1.0, 0.5)", overflow="explode"
                )
            for item in trace[50:]:
                await service.offer("src", item)
            # The retry must succeed: the failed attempts left nothing
            # registered under the app's name.
            await service.subscribe("newcomer", "src", "DC1(temp, 1.0, 0.5)")
            epochs = (await service.close())["src"]
            return epochs

        epochs = asyncio.run(run())
        # The failed subscribes never cut the engine over: the whole trace
        # lands in one epoch (closed by the successful retry), identical
        # to the batch run over the original subscription set.
        assert len(epochs) == 1
        reference = _reference("region", trace)
        assert canonical_result(epochs[0]) == canonical_result(reference)

    def test_partial_cutover_failure_records_no_phantom_epoch(self):
        """If the engine fails to finish mid-cutover, the epoch list must
        stay untouched — no epoch whose tail emissions were never routed
        — and the source must keep serving."""
        trace = _trace(n=120, seed=23)

        async def run():
            service = DisseminationService(
                ServiceConfig(
                    engine=EngineConfig(algorithm="region"),
                    record_epochs=True,
                )
            )
            service.add_source("src")
            for app, spec in SPECS[:2]:
                await service.subscribe(app, "src", spec, queue_capacity=10_000)
            for item in trace[:60]:
                await service.offer("src", item)
            service._sources["src"].engine.finish = lambda: (
                _ for _ in ()
            ).throw(RuntimeError("boom"))
            with pytest.raises(RuntimeError, match="boom"):
                await service.subscribe(
                    "newcomer", "src", "DC1(temp, 1.0, 0.5)", queue_capacity=10_000
                )
            epochs_after_failure = len(service.results("src"))
            # The rebuilt engine keeps serving, and the retry succeeds.
            for item in trace[60:]:
                await service.offer("src", item)
            await service.subscribe(
                "newcomer", "src", "DC1(temp, 1.0, 0.5)", queue_capacity=10_000
            )
            epochs = (await service.close())["src"]
            return epochs_after_failure, epochs

        epochs_after_failure, epochs = asyncio.run(run())
        assert epochs_after_failure == 0
        # The one epoch is the successful retry's cutover (the post-retry
        # epoch is cut at close with nothing fed).
        assert len(epochs) == 1

    def test_failed_refilter_rolls_back_and_keeps_serving(self):
        """A cutover failure mid-re_filter must restore the old spec and
        leave the source with live engines, and a retry must succeed."""
        trace = _trace(n=80, seed=19)
        new_spec = "DC1(temp, 9.0, 4.5)"

        async def run():
            service, sessions = await _spin_up("region")
            for item in trace[:40]:
                await service.offer("src", item)
            # Inject a cutover failure: finishing the live engine raises.
            engine = service._sources["src"].engine
            engine.finish = lambda: (_ for _ in ()).throw(RuntimeError("boom"))
            with pytest.raises(RuntimeError, match="boom"):
                await service.re_filter("app0", new_spec)
            specs_after_failure = dict(service.subscriptions("src"))
            # The rebuilt engines serve the rest of the trace...
            for item in trace[40:]:
                await service.offer("src", item)
            # ...and a retry (fresh engines, no injected fault) succeeds.
            await service.re_filter("app0", new_spec)
            specs_after_retry = dict(service.subscriptions("src"))
            await service.close()
            return specs_after_failure, specs_after_retry

        specs_after_failure, specs_after_retry = asyncio.run(run())
        assert specs_after_failure["app0"] == SPECS[0][1]
        assert specs_after_retry["app0"] == new_spec

    def test_add_source_of_a_live_source_raises_and_keeps_its_sessions(self):
        """Re-advertising a source must not replace its state: the
        subscribers it has would be orphaned (never fed, never closed,
        their names still taken)."""
        trace = _trace(n=100, seed=29)

        async def run():
            service, sessions = await _spin_up("region", record_epochs=True)
            for item in trace[:50]:
                await service.offer("src", item)
            with pytest.raises(ValueError, match="already advertised"):
                service.add_source("src")
            kept = service.subscriptions("src"), service.session_count()
            staged = sum(s.stats.staged_tuples for s in sessions.values())
            for item in trace[50:]:
                await service.offer("src", item)
            epochs = (await service.close())["src"]
            staged_after = sum(s.stats.staged_tuples for s in sessions.values())
            return kept, staged, staged_after, epochs

        (subscriptions, session_count), staged, staged_after, epochs = (
            asyncio.run(run())
        )
        assert subscriptions == SPECS
        assert session_count == len(SPECS)
        # The sessions kept receiving, from the one epoch they were in.
        assert staged_after > staged
        assert len(epochs) == 1
        reference = _reference("region", trace)
        assert canonical_result(epochs[0]) == canonical_result(reference)

    def test_unsubscribe_flushes_staged_batch(self):
        """Detach must not vanish decided-but-staged tuples uncounted."""
        trace = _trace(n=300, seed=9)

        async def run():
            service, sessions = await _spin_up(
                "region", batch_max_items=10_000, batch_max_delay_ms=1e9
            )
            for item in trace[:150]:
                await service.offer("src", item)
            session = sessions["app0"]
            staged_before = session.batcher.pending
            await service.unsubscribe("app0")
            queued = sum(len(b) for b in session.queue.drain_nowait())
            await service.close()
            return session, staged_before, queued

        session, staged_before, queued = asyncio.run(run())
        assert staged_before > 0
        assert session.batcher.pending == 0
        # Every staged tuple is accounted for: enqueued toward the
        # consumer or counted as dropped — never silently lost.
        assert queued + session.stats.dropped_tuples == session.stats.staged_tuples

    def test_snapshot_shows_live_cuts(self):
        """Timely cuts must appear in snapshots before any cutover/close."""
        trace = _trace(n=300, seed=11)

        async def run():
            service = DisseminationService(
                ServiceConfig(
                    engine=EngineConfig(algorithm="region", constraint_ms=30.0)
                )
            )
            service.add_source("src")
            for app, spec in SPECS:
                await service.subscribe(app, "src", spec, queue_capacity=10_000)
            for item in trace:
                await service.offer("src", item)
            live = service.snapshot().cuts_triggered
            await service.close()
            return live, service.snapshot().cuts_triggered

        live, final = asyncio.run(run())
        assert live > 0
        assert live == final

    def test_tick_counts_once_across_sources(self):
        """One tick() call is one tick, however many sources it sweeps."""

        async def run():
            service = DisseminationService(ServiceConfig())
            service.add_source("a")
            service.add_source("b")
            await service.tick(100.0)
            snapshot = service.snapshot()
            await service.close()
            return snapshot

        snapshot = asyncio.run(run())
        assert snapshot.ticks == 1

    def test_retired_sessions_keep_their_counters(self):
        """Unsubscribed sessions' delivered/dropped stay in the totals."""
        trace = _trace(n=400, seed=21)

        async def run():
            service, sessions = await _spin_up("region")
            for item in trace[:200]:
                await service.offer("src", item)
            before = service.snapshot().delivered_tuples + sum(
                s.queue.depth for s in sessions.values()
            )
            await service.unsubscribe("app0")
            for item in trace[200:]:
                await service.offer("src", item)
            await service.close()
            return sessions["app0"], service.snapshot()

        session, snapshot = asyncio.run(run())
        assert session.stats.enqueued_batches > 0
        retired = [s for s in snapshot.retired if s.app_name == "app0"]
        assert len(retired) == 1
        assert retired[0].enqueued_batches == session.stats.enqueued_batches
        # Broker-wide totals include the retired session's contribution.
        live_delivered = sum(s.delivered_tuples for s in snapshot.sessions)
        assert snapshot.delivered_tuples == live_delivered + retired[0].delivered_tuples


class TestWallClockDecideLatency:
    def test_decide_latency_is_sub_tick_wall_clock(self):
        """Decide percentiles come from perf_counter_ns end to end, not
        from stream timestamps: a 10 ms-interval trace whose decides run
        in microseconds must NOT report p50 pinned at the tick size."""

        async def run():
            service = DisseminationService(ServiceConfig())
            service.add_source("src")
            await service.subscribe(
                "app0",
                "src",
                "DC1(value, 0.0001, 0.00005)",
                queue_capacity=10_000,
            )
            for seq in range(200):
                await service.offer(
                    "src",
                    StreamTuple(
                        seq=seq,
                        timestamp=float(seq) * 10.0,
                        values={"value": float(seq)},
                    ),
                )
            snapshot = service.snapshot()
            window = service.decide_window()
            await service.close()
            return snapshot, window

        snapshot, window = asyncio.run(run())
        assert window, "decides must populate the latency window"
        assert snapshot.decide_p99_ms >= snapshot.decide_p50_ms > 0.0
        # Same-process decides complete far inside one 10 ms tick; the
        # old stream-time measurement could not express that.
        assert snapshot.decide_p50_ms < 10.0
