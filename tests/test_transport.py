"""Tests for the networked dissemination gateway (wire + server + client)."""

from __future__ import annotations

import asyncio
import json
import socket

import pytest

from repro.core.engine import GroupAwareEngine
from repro.core.tuples import StreamTuple
from repro.filters.spec import parse_filter
from repro.runtime.tasks import EngineConfig
from repro.service.broker import DisseminationService, ServiceConfig
from repro.service.loadgen import decided_map
from repro.sources import random_walk_trace
from repro.service.batching import Batch
from repro.transport.client import GatewayClient, GatewayError, RemoteSubscription
from repro.transport.http import SnapshotHTTP
from repro.transport.protocol import (
    PROTOCOL_VERSION,
    FrameDecoder,
    FrameTooLarge,
    ProtocolError,
    encode_frame,
    tuple_from_wire,
    tuple_to_wire,
)
from repro.transport.server import GatewayServer

SPECS = [
    ("app0", "DC1(temp, 2.0, 1.0)"),
    ("app1", "DC1(temp, 3.0, 1.5)"),
]

#: Tiny delta: nearly every tuple is decided for delivery.
CHATTY_SPEC = "DC1(temp, 0.0001, 0.00005)"


def _trace(n=200, seed=3):
    return random_walk_trace(n=n, seed=seed, attribute="temp")


def _service(algorithm="region", **overrides) -> DisseminationService:
    service = DisseminationService(
        ServiceConfig(
            engine=EngineConfig(algorithm=algorithm),
            batch_max_items=overrides.pop("batch_max_items", 1),
            **overrides,
        )
    )
    service.add_source("src")
    return service


# ---------------------------------------------------------------------------
# Wire protocol (sans-io)
# ---------------------------------------------------------------------------
class TestProtocol:
    def test_roundtrip_single_frame(self):
        frame = {"t": "ensure_source", "source": "src", "seq": 1}
        decoder = FrameDecoder()
        assert decoder.feed(encode_frame(frame)) == [frame]

    def test_split_frame_reassembly(self):
        """Byte-by-byte delivery still yields exactly one frame."""
        frame = {"t": "snapshot", "seq": 42}
        payload = encode_frame(frame)
        decoder = FrameDecoder()
        collected = []
        for i in range(len(payload)):
            collected.extend(decoder.feed(payload[i : i + 1]))
        assert collected == [frame]
        assert decoder.buffered == 0

    def test_coalesced_frames(self):
        """Several frames in one chunk come back in order."""
        frames = [{"t": "tick", "now_ms": float(i)} for i in range(5)]
        blob = b"".join(encode_frame(f) for f in frames)
        decoder = FrameDecoder()
        assert decoder.feed(blob) == frames

    def test_split_across_frame_boundary(self):
        a, b = {"t": "a"}, {"t": "b"}
        blob = encode_frame(a) + encode_frame(b)
        decoder = FrameDecoder()
        head, tail = blob[:7], blob[7:]
        first = decoder.feed(head)
        second = decoder.feed(tail)
        assert first + second == [a, b]

    def test_oversized_frame_rejected_from_header(self):
        decoder = FrameDecoder(max_frame_bytes=64)
        frame = {"t": "subscribe", "spec": "x" * 200}
        with pytest.raises(FrameTooLarge):
            decoder.feed(encode_frame(frame))

    def test_oversized_frame_rejected_on_encode(self):
        with pytest.raises(FrameTooLarge):
            encode_frame({"t": "x", "pad": "y" * 100}, max_frame_bytes=32)

    def test_undecodable_body_rejected(self):
        import struct

        blob = struct.pack(">I", 4) + b"\xff\xfe\xfd\xfc"
        with pytest.raises(ProtocolError):
            FrameDecoder().feed(blob)

    def test_frame_must_be_tagged_object(self):
        import struct

        blob = struct.pack(">I", 4) + b'"ok"'
        with pytest.raises(ProtocolError):
            FrameDecoder().feed(blob)

    def test_tuple_codec_roundtrip(self):
        item = StreamTuple(seq=9, timestamp=90.0, values={"temp": 1.5, "ph": 7.0})
        again = tuple_from_wire(json.loads(json.dumps(tuple_to_wire(item))))
        assert again.seq == item.seq
        assert again.timestamp == item.timestamp
        assert again.values == item.values

    def test_malformed_tuple_payload(self):
        with pytest.raises(ProtocolError):
            tuple_from_wire({"seq": 1})  # no ts/values


# ---------------------------------------------------------------------------
# End-to-end over a real localhost socket
# ---------------------------------------------------------------------------
async def _with_gateway(service, coro, **server_kwargs):
    gateway = GatewayServer(service, **server_kwargs)
    await gateway.start()
    try:
        return await coro(gateway)
    finally:
        await gateway.shutdown()


class TestGatewayEndToEnd:
    @pytest.mark.parametrize("algorithm", ["region", "per_candidate_set"])
    def test_wire_outputs_equal_batch_engine(self, algorithm):
        """The acceptance bar: a trace driven through GatewayClient over
        a real socket decides byte-identically to the batch engine."""
        trace = _trace()

        async def run():
            service = _service(algorithm, record_epochs=True)
            gateway = GatewayServer(service)
            await gateway.start()
            client = await GatewayClient.connect("127.0.0.1", gateway.port)
            delivered = {app: [] for app, _ in SPECS}

            async def consume(sub, sink):
                async for batch in sub.batches():
                    sink.extend(item.seq for item in batch.items)

            consumers = []
            for app, spec in SPECS:
                sub = await client.subscribe(
                    app, "src", spec, queue_capacity=10_000
                )
                consumers.append(
                    asyncio.create_task(consume(sub, delivered[app]))
                )
            for item in trace:
                await client.ingest("src", item)
            epochs = (await service.close())["src"]
            await asyncio.gather(*consumers)
            await client.close()
            await gateway.shutdown()
            return epochs, delivered

        epochs, delivered = asyncio.run(run())
        filters = [parse_filter(spec, name=app) for app, spec in SPECS]
        reference = GroupAwareEngine(filters, algorithm=algorithm).run(trace)
        assert len(epochs) == 1
        assert decided_map(epochs[0]) == decided_map(reference)
        # Delivered per-app streams are the reference decisions flattened.
        want = {
            app: [seq for row in rows for seq in row]
            for app, rows in decided_map(reference).items()
        }
        assert delivered == want

    def test_snapshot_and_tick_over_wire(self):
        async def run():
            service = _service()

            async def body(gateway):
                client = await GatewayClient.connect("127.0.0.1", gateway.port)
                await client.subscribe("app0", "src", SPECS[0][1])
                for item in _trace(n=40):
                    await client.ingest("src", item)
                emissions = await client.tick(10_000.0)
                snapshot = await client.snapshot()
                await client.close()
                return emissions, snapshot

            return await _with_gateway(service, body)

        emissions, snapshot = asyncio.run(run())
        assert emissions >= 0
        assert snapshot["offered"] == 40
        assert snapshot["session_count"] == 1
        assert snapshot["decide_p99_ms"] >= snapshot["decide_p50_ms"] >= 0.0

    def test_ensure_source_and_unknown_source(self):
        async def run():
            service = _service()

            async def body(gateway):
                client = await GatewayClient.connect("127.0.0.1", gateway.port)
                assert await client.ensure_source("fresh") is True
                assert await client.ensure_source("fresh") is False
                with pytest.raises(GatewayError):
                    await client.ingest(
                        "nope", StreamTuple(seq=0, timestamp=0.0, values={})
                    )
                # The connection survives a bad request...
                assert (await client.snapshot())["offered"] == 0
                # ...and a refused fire-and-forget (the error reply has
                # reply_to=null and must not be treated as fatal).
                await client.ingest(
                    "nope",
                    StreamTuple(seq=1, timestamp=1.0, values={}),
                    ack=False,
                )
                assert (await client.snapshot())["offered"] == 0
                await client.close()

            await _with_gateway(service, body)

        asyncio.run(run())

    def test_auth_token_required(self):
        async def run():
            service = _service()
            gateway = GatewayServer(service, auth_token="sekrit")
            await gateway.start()
            with pytest.raises(GatewayError) as info:
                await GatewayClient.connect("127.0.0.1", gateway.port)
            assert info.value.code == "auth"
            client = await GatewayClient.connect(
                "127.0.0.1", gateway.port, token="sekrit"
            )
            assert client.server_sources == ("src",)
            await client.close()
            await gateway.shutdown()

        asyncio.run(run())

    def test_oversized_wire_frame_closes_connection(self):
        async def run():
            service = _service()
            gateway = GatewayServer(service, max_frame_bytes=512)
            await gateway.start()
            client = await GatewayClient.connect("127.0.0.1", gateway.port)
            with pytest.raises((ConnectionError, FrameTooLarge)):
                # Encoded client-side below the client's own limit, but
                # past the server's: the server must reject and close.
                await client.ingest(
                    "src",
                    StreamTuple(seq=0, timestamp=0.0, values={"temp": 0.0}),
                    pad_bytes=4096,
                )
            await client.close()
            await gateway.shutdown()

        asyncio.run(run())

    def test_qos_profile_resolves_session_limits(self):
        """A handshake QoS profile shapes the server-side session."""

        async def run():
            service = _service(
                batch_max_items=8, queue_capacity=16, batch_max_delay_ms=50.0
            )

            async def body(gateway):
                client = await GatewayClient.connect("127.0.0.1", gateway.port)
                await client.subscribe(
                    "app0",
                    "src",
                    SPECS[0][1],
                    qos={"latency_tolerance_ms": 40.0, "priority": 2},
                )
                session = service._sources["src"].sessions["app0"]
                await client.close()
                return (
                    session.queue.capacity,
                    session.queue.policy,
                    session.batcher.max_delay_ms,
                )

            return await _with_gateway(service, body)

        capacity, policy, delay = asyncio.run(run())
        assert capacity == 64  # 16 doubled per priority level
        assert policy == "drop_oldest"  # latency-bounded prefers fresh
        assert delay == 10.0  # a quarter of the 40 ms tolerance


class TestConnectionTeardown:
    def test_abrupt_disconnect_reclaims_sessions(self):
        """Killing the socket mid-delivery leaks no session and leaves
        the broker serving."""

        async def run():
            service = _service()
            gateway = GatewayServer(service)
            await gateway.start()
            client = await GatewayClient.connect("127.0.0.1", gateway.port)
            sub = await client.subscribe("app0", "src", CHATTY_SPEC)
            consumed: list[int] = []

            async def consume():
                async for batch in sub.batches():
                    consumed.extend(item.seq for item in batch.items)

            consumer = asyncio.create_task(consume())
            for item in _trace(n=20):
                await client.ingest("src", item)
            assert service.subscriptions("src")
            # Abort without bye/unsubscribe: simulated crash mid-delivery.
            client._writer.transport.abort()
            await consumer
            for _ in range(200):
                if not service.subscriptions("src"):
                    break
                await asyncio.sleep(0.01)
            subscriptions = service.subscriptions("src")
            session_count = service.session_count()
            # The broker keeps serving a fresh subscriber afterwards.
            fresh = await GatewayClient.connect("127.0.0.1", gateway.port)
            await fresh.subscribe("app1", "src", SPECS[1][1])
            await fresh.close()
            await client.close(send_bye=False)
            await gateway.shutdown()
            return subscriptions, session_count

        subscriptions, session_count = asyncio.run(run())
        assert subscriptions == []
        assert session_count == 0

    def test_slow_consumer_disconnect_policy_closes_socket(self):
        """An overflowing ``disconnect`` session drops the TCP
        connection, not just the broker-side queue."""

        async def run():
            service = _service()
            gateway = GatewayServer(service, sndbuf_bytes=2048)
            await gateway.start()
            # Raw subscriber that never reads after the handshake, with a
            # minimal receive buffer so kernel buffering cannot hide the
            # stall from the server's pump.
            raw = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            raw.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 1)
            raw.setblocking(False)
            loop = asyncio.get_running_loop()
            await loop.sock_connect(raw, ("127.0.0.1", gateway.port))
            reader, writer = await asyncio.open_connection(sock=raw)
            writer.write(encode_frame({"t": "hello", "v": PROTOCOL_VERSION, "seq": 1}))
            writer.write(
                encode_frame(
                    {
                        "t": "subscribe",
                        "seq": 2,
                        "app": "laggard",
                        "source": "src",
                        "spec": CHATTY_SPEC,
                        "queue_capacity": 1,
                        "overflow": "disconnect",
                        "batch_max_items": 1,
                    }
                )
            )
            await writer.drain()
            # Feed enough chatty traffic to flood the tiny buffers.
            feeder = await GatewayClient.connect("127.0.0.1", gateway.port)
            disconnected = False
            for index, item in enumerate(_trace(n=6000, seed=11)):
                try:
                    await asyncio.wait_for(
                        feeder.ingest("src", item), timeout=5.0
                    )
                except GatewayError:
                    # offer() may observe the reaped session mid-detach.
                    pass
                if index % 50 == 0 and not service.subscriptions("src"):
                    disconnected = True
                    break
            for _ in range(200):
                if not service.subscriptions("src"):
                    disconnected = True
                    break
                await asyncio.sleep(0.01)
            # The server must have closed the laggard's socket: reading
            # (which we never did) now finds EOF after the error frames.
            eof = False
            try:
                while True:
                    chunk = await asyncio.wait_for(reader.read(65536), timeout=5.0)
                    if not chunk:
                        eof = True
                        break
            except (ConnectionError, asyncio.TimeoutError):
                eof = True  # reset counts: the transport is gone
            writer.close()
            await feeder.close()
            snapshot = service.snapshot()
            await gateway.shutdown()
            return disconnected, eof, snapshot

        disconnected, eof, snapshot = asyncio.run(run())
        assert disconnected, "session was never reaped"
        assert eof, "socket stayed open after disconnect-policy overflow"
        retired = {s.app_name: s for s in snapshot.retired}
        assert retired["laggard"].disconnected is True
        assert retired["laggard"].dropped_tuples > 0

    def test_dead_connection_cannot_unsubscribe_reregistered_app(self):
        """conn1 subscribes then unsubscribes 'A'; conn2 re-registers
        'A'; conn1's later teardown must not tear down conn2's session."""

        async def run():
            service = _service()
            gateway = GatewayServer(service)
            await gateway.start()
            conn1 = await GatewayClient.connect("127.0.0.1", gateway.port)
            sub1 = await conn1.subscribe("A", "src", SPECS[0][1])
            await conn1.unsubscribe("A")
            async for _ in sub1.batches():
                pass
            conn2 = await GatewayClient.connect("127.0.0.1", gateway.port)
            sub2 = await conn2.subscribe("A", "src", CHATTY_SPEC)
            received: list[int] = []

            async def consume():
                async for batch in sub2.batches():
                    received.extend(item.seq for item in batch.items)

            consumer = asyncio.create_task(consume())
            # conn1 goes away (clean bye) — conn2's session must survive.
            await conn1.close()
            await asyncio.sleep(0.05)
            alive = service.subscriptions("src")
            for item in _trace(n=10):
                await conn2.ingest("src", item)
            await conn2.unsubscribe("A")
            await consumer
            await conn2.close()
            await gateway.shutdown()
            return alive, received, sub2.closed_reason

        alive, received, reason = asyncio.run(run())
        assert [app for app, _ in alive] == ["A"]
        assert received, "conn2's stream was torn down by conn1's exit"
        assert reason == "unsubscribed"

    def test_shutdown_breaks_block_policy_wedge(self):
        """SIGTERM-path shutdown must not hang when a block-policy
        consumer wedges its pump while a producer's offer holds the
        source lock blocked on the full queue."""

        async def run():
            service = _service()
            gateway = GatewayServer(service, sndbuf_bytes=2048)
            await gateway.start()
            # Subscriber that never reads after the handshake.
            raw = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            raw.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 1)
            raw.setblocking(False)
            loop = asyncio.get_running_loop()
            await loop.sock_connect(raw, ("127.0.0.1", gateway.port))
            reader, writer = await asyncio.open_connection(sock=raw)
            writer.write(
                encode_frame({"t": "hello", "v": PROTOCOL_VERSION, "seq": 1})
            )
            writer.write(
                encode_frame(
                    {
                        "t": "subscribe",
                        "seq": 2,
                        "app": "wedge",
                        "source": "src",
                        "spec": CHATTY_SPEC,
                        "queue_capacity": 1,
                        "overflow": "block",
                        "batch_max_items": 1,
                    }
                )
            )
            await writer.drain()
            feeder = await GatewayClient.connect("127.0.0.1", gateway.port)

            async def flood():
                for item in _trace(n=3000, seed=13):
                    await feeder.ingest("src", item)

            flood_task = asyncio.create_task(flood())
            # Wait until an offer is genuinely wedged: the queue stays
            # full AND delivery makes no progress for ~200 ms (a full
            # queue alone is transient while the pump still drains).
            last_delivered = -1
            stable = 0
            for _ in range(2000):
                wedged = service._sources["src"].sessions.get("wedge")
                if wedged is not None:
                    delivered = wedged.stats.delivered_tuples
                    if (
                        delivered == last_delivered
                        and wedged.queue.depth >= wedged.queue.capacity
                    ):
                        stable += 1
                        if stable >= 20:
                            break
                    else:
                        stable = 0
                    last_delivered = delivered
                await asyncio.sleep(0.01)
            assert stable >= 20, "flood never wedged the pump"
            assert not flood_task.done()
            terminal = await asyncio.wait_for(
                gateway.shutdown(drain_timeout_s=0.5), timeout=20
            )
            flood_task.cancel()
            try:
                await flood_task
            except (asyncio.CancelledError, ConnectionError, GatewayError):
                pass
            writer.close()
            await feeder.close(send_bye=False)
            return terminal

        terminal = asyncio.run(run())
        # The point is that shutdown RETURNED (no deadlock); the wedged
        # session was declared dead to break the producer's blocked put.
        everyone = terminal["sessions"] + terminal["retired"]
        wedge = [s for s in everyone if s["app_name"] == "wedge"]
        assert wedge and wedge[0]["disconnected"] is True

    def test_unsubscribe_sends_closed_and_ends_stream(self):
        async def run():
            service = _service()

            async def body(gateway):
                client = await GatewayClient.connect("127.0.0.1", gateway.port)
                sub = await client.subscribe("app0", "src", SPECS[0][1])
                await client.unsubscribe("app0")
                batches = [b async for b in sub.batches()]
                await client.close()
                return batches, sub.closed_reason

            return await _with_gateway(service, body)

        batches, reason = asyncio.run(run())
        assert batches == []
        assert reason == "unsubscribed"


# ---------------------------------------------------------------------------
# A batch too large for one frame
# ---------------------------------------------------------------------------
class TestFrameTooLarge:
    #: Room for a control frame, an 8-tuple ingest frame and a one-tuple
    #: batch, not for a 32-tuple batch.
    MAX_FRAME_BYTES = 320

    @pytest.mark.parametrize("behind", ["broker", "router"])
    def test_an_oversized_batch_retires_only_the_apps_it_names(self, behind):
        """The app whose batch encodes past ``max_frame_bytes`` gets
        ``closed reason=frame_too_large``; its neighbour on the same
        connection keeps receiving, and the app name can be subscribed
        again — behind a broker and behind a cluster router alike."""
        trace = _trace(n=128)

        async def run():
            if behind == "broker":
                service = _service()
            else:
                from repro.service.cluster import ClusterConfig, ClusterService

                service = ClusterService(ClusterConfig(workers=1, sources=("src",)))
                await service.start()
            gateway = GatewayServer(service, max_frame_bytes=self.MAX_FRAME_BYTES)
            await gateway.start()
            client = await GatewayClient.connect("127.0.0.1", gateway.port)
            received: dict[str, list[int]] = {}

            async def consume(name, sub):
                async for batch in sub.batches():
                    received.setdefault(name, []).extend(i.seq for i in batch.items)

            async def subscribe(name, app, items):
                sub = await client.subscribe(
                    app, "src", CHATTY_SPEC, queue_capacity=1000,
                    batch_max_items=items, batch_max_delay_ms=1e9,
                )
                return sub, asyncio.create_task(consume(name, sub))

            async def ingest(start, stop):
                for first in range(start, stop, 8):
                    await client.ingest_many("src", trace[first : first + 8])

            async def until(condition):
                for _ in range(1000):
                    if condition():
                        return
                    await asyncio.sleep(0.01)
                raise AssertionError("timed out")

            try:
                big, big_done = await subscribe("big", "big", 32)
                await subscribe("small", "small", 1)
                await ingest(0, 64)
                await asyncio.wait_for(big_done, 10)
                await ingest(64, 96)
                await until(lambda: max(received.get("small", [-1])) >= 64)
                again, _ = await subscribe("again", "big", 1)
                await ingest(96, 128)
                await until(lambda: received.get("again"))
                return big.closed_reason, again.closed_reason, received
            finally:
                await client.close()
                await gateway.shutdown()
                if behind == "router":
                    await service.close()

        reason, again_reason, received = asyncio.run(run())
        assert reason == "frame_too_large"
        assert again_reason is None
        assert "big" not in received  # its first batch was the oversized one
        small = received["small"]
        assert small == sorted(set(small)) and small[-1] >= 96
        assert min(received["again"]) >= 96


    def test_an_oversized_reply_is_refused_and_the_connection_keeps_serving(self):
        """A snapshot past the bound (here grown by a few hundred retired
        sessions) is refused with ``frame_too_large``; the connection
        keeps serving and its live subscription keeps receiving."""
        bound = 32 * 1024
        trace = _trace(n=20)

        async def run():
            service = _service()

            async def body(gateway):
                client = await GatewayClient.connect("127.0.0.1", gateway.port)
                live = await client.subscribe("live", "src", CHATTY_SPEC)

                async def collect():
                    return [item.seq async for batch in live.batches() for item in batch.items]

                received = asyncio.create_task(collect())
                for index in range(300):
                    await client.subscribe(f"churn{index}", "src", CHATTY_SPEC)
                    await client.unsubscribe(f"churn{index}")
                with pytest.raises(GatewayError) as refused:
                    await client.snapshot()
                await client.ingest_many("src", trace)
                await client.unsubscribe("live")
                created = await client.ensure_source("src")
                await client.close()
                return refused.value.code, await received, created

            return await _with_gateway(service, body, max_frame_bytes=bound)

        code, received, created = asyncio.run(run())
        assert code == "frame_too_large"
        assert received and received == sorted(set(received))
        assert created is False


# ---------------------------------------------------------------------------
# Client-side subscription buffer
# ---------------------------------------------------------------------------
class TestRemoteSubscription:
    def test_a_stream_closed_on_a_full_buffer_yields_every_batch(self):
        """A connection that dies while the consumer lags a full window
        behind still hands over every batch that arrived, in order."""

        async def run():
            sub = RemoteSubscription("app0", "src", CHATTY_SPEC, capacity=2)
            batches = [
                Batch(items=(item,), first_staged_ms=0.0, flushed_ms=0.0)
                for item in _trace(n=2)
            ]
            for batch in batches:
                await sub._push(batch)
            sub._close("connection_closed")
            return batches, [batch async for batch in sub.batches()]

        sent, received = asyncio.run(run())
        assert received == sent


    def test_a_drain_failure_leaves_no_unretrieved_future(self):
        """The connection ends between a request's write and its drain:
        the caller gets ``ConnectionError`` and the failed reply future
        is retrieved, so the loop's exception handler hears nothing."""
        import gc

        async def run():
            loop = asyncio.get_running_loop()
            heard = []
            loop.set_exception_handler(lambda _loop, context: heard.append(context))

            async def body(gateway):
                client = await GatewayClient.connect("127.0.0.1", gateway.port)

                async def failing_drain():
                    client._fail_all("connection_closed")
                    raise ConnectionResetError("reset mid-drain")

                client._writer.drain = failing_drain
                try:
                    await client.snapshot()
                except ConnectionError as exc:
                    raised = type(exc)
                else:
                    raised = None
                gc.collect()
                await client.close(send_bye=False)
                return raised

            raised = await _with_gateway(_service(), body)
            gc.collect()
            return raised, heard

        raised, heard = asyncio.run(run())
        assert raised is ConnectionResetError
        assert heard == []


# ---------------------------------------------------------------------------
# Source-state staging (export_pull / import_chunk)
# ---------------------------------------------------------------------------
class TestMigrationStaging:
    #: Every offer stays in the reservoir's open window: one checkpoint
    #: row per offered tuple.
    SPEC = "RS(2, 1000)"

    def test_an_exported_stream_ends_as_migrated_after_its_last_batch(self):
        """``export_source`` ends each detached stream with the non-final
        ``migrated`` reason, after every batch its ``shipped`` counts,
        and its reply follows that end."""

        async def run():
            service = _service()

            async def body(gateway):
                client = await GatewayClient.connect("127.0.0.1", gateway.port)
                sub = await client.subscribe("app0", "src", CHATTY_SPEC)
                for item in _trace(n=10):
                    await client.ingest("src", item)
                state = await client.export_source("src")
                reason = sub.closed_reason
                received = [
                    item.seq async for batch in sub.batches() for item in batch.items
                ]
                await client.close()
                return state, received, reason

            return await _with_gateway(service, body)

        state, received, reason = asyncio.run(run())
        assert reason == "migrated"
        assert len(received) == state["shipped"]["app0"] > 0

    def test_a_puller_that_disconnects_mid_pull_leaves_nothing(self):
        async def run():
            service = _service()

            async def body(gateway):
                client = await GatewayClient.connect("127.0.0.1", gateway.port)
                await client.subscribe("app0", "src", self.SPEC)
                for item in _trace(n=40):
                    await client.ingest("src", item)
                (conn,) = gateway._connections
                reply = await client._request(
                    {"t": "snapshot_source", "source": "src", "count": 50}
                )
                pull = await client._request(
                    {"t": "export_pull", "source": "src", "offset": 50, "count": 5}
                )
                await client._request(
                    {"t": "import_chunk", "source": "src", "chunk": "{", "done": False}
                )
                staged = (conn.export_stash["src"], conn.import_stash["src"])
                await client.close(send_bye=False)
                await asyncio.wait_for(asyncio.gather(*gateway._handlers), 10)
                return reply, pull, staged, conn, gateway

            return await _with_gateway(service, body)

        reply, pull, (text, slices), conn, gateway = asyncio.run(run())
        assert len(reply["chunk"]) == 50 and not reply["done"]
        assert pull["chunk"] == text[50:55] and not pull["done"]
        assert len(json.loads(text)["checkpoint"][-1]) == 40
        assert slices == ["{"]
        assert conn.export_stash == {} and conn.import_stash == {}
        assert not gateway._connections

    def test_an_overlong_import_is_refused_and_the_connection_keeps_serving(self):
        """An image one element too long, a malformed tuple row, a slice
        that is not a string, a text that is not JSON and a checkpoint
        that is not a list are each refused with ``bad_request``; a
        refused slice drops its import, and the connection keeps
        serving until the well-formed state imports."""

        async def run():
            service = _service()

            async def body(gateway):
                client = await GatewayClient.connect("127.0.0.1", gateway.port)
                (conn,) = gateway._connections
                await client.subscribe("app0", "src", self.SPEC)
                for item in _trace(n=10):
                    await client.ingest("src", item)
                state = await client.export_source("src")
                await client.ensure_source("src")
                await client.subscribe("app0", "src", self.SPEC)
                checkpoint = state["checkpoint"]
                bad_row = [*checkpoint[:-1], [[1, 10.0, 5, 0.5]]]
                refused = []
                for bad in (
                    {**state, "checkpoint": [*checkpoint, []]},
                    {**state, "checkpoint": bad_row},
                    {**state, "checkpoint": 7},
                ):
                    with pytest.raises(GatewayError) as error:
                        await client.import_source("src", bad)
                    refused.append(error.value.code)
                await client._request(
                    {"t": "import_chunk", "source": "src", "chunk": "{", "done": False}
                )
                for chunk in (5, "{nope"):
                    with pytest.raises(GatewayError) as error:
                        await client._request(
                            {"t": "import_chunk", "source": "src", "chunk": chunk, "done": True}
                        )
                    refused.append(error.value.code)
                stash = dict(conn.import_stash)
                restored = await client.import_source("src", state)
                snapshot = await client.snapshot()
                await client.close()
                return refused, stash, restored, len(checkpoint[-1]), snapshot

            return await _with_gateway(service, body)

        refused, stash, restored, rows, snapshot = asyncio.run(run())
        assert refused == ["bad_request"] * 5
        assert stash == {}
        assert restored == rows == 10
        assert snapshot["sources"] == ["src"]

    def test_a_large_image_round_trips_between_two_gateways(self):
        """A state four times the frame bound leaves one gateway in
        slices and enters another the same way; the target's own
        snapshot is the exported image again."""
        bound = 64 * 1024
        trace = [
            StreamTuple(seq=seq, timestamp=seq * 10.0, values={"temp": float(seq % 24)})
            for seq in range(4500)
        ]

        async def run():
            services = [_service(), _service()]
            gateways = [GatewayServer(s, max_frame_bytes=bound) for s in services]
            for gateway in gateways:
                await gateway.start()
            clients = [
                await GatewayClient.connect("127.0.0.1", g.port, max_frame_bytes=bound)
                for g in gateways
            ]
            try:
                source, target = clients
                for client in clients:
                    await client.subscribe("keep", "src", "RS(2, 1000000)")
                    await client.subscribe("app0", "src", SPECS[0][1])
                for first in range(0, len(trace), 64):
                    await source.ingest_many("src", trace[first : first + 64])
                state = await source.export_source("src")
                restored = await target.import_source("src", state)
                again = await target.snapshot_source("src")
                return state, restored, again
            finally:
                for client in clients:
                    await client.close()
                for gateway in gateways:
                    await gateway.shutdown()

        state, restored, again = asyncio.run(run())
        assert len(json.dumps(state)) >= 4 * bound
        assert restored == len(state["checkpoint"][-1]) > 4000
        assert again["checkpoint"] == state["checkpoint"]
        assert (again["fed"], again["offered"]) == (state["fed"], state["offered"])


# ---------------------------------------------------------------------------
# HTTP snapshot endpoint
# ---------------------------------------------------------------------------
async def _fetch(port: int, path: str) -> tuple[str, dict]:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(
        f"GET {path} HTTP/1.1\r\nHost: localhost\r\n\r\n".encode("ascii")
    )
    await writer.drain()
    raw = await reader.read()
    writer.close()
    head, _, body = raw.partition(b"\r\n\r\n")
    status = head.split(b"\r\n", 1)[0].decode("ascii")
    return status, json.loads(body)


class TestSnapshotHTTP:
    def test_healthz_snapshot_and_404(self):
        async def run():
            service = _service()
            http = SnapshotHTTP(service)
            await http.start()
            await service.subscribe("app0", "src", SPECS[0][1])
            for item in _trace(n=30):
                await service.offer("src", item)
            health = await _fetch(http.port, "/healthz")
            snap = await _fetch(http.port, "/snapshot")
            missing = await _fetch(http.port, "/nope")
            post_reader, post_writer = await asyncio.open_connection(
                "127.0.0.1", http.port
            )
            post_writer.write(b"POST /snapshot HTTP/1.1\r\n\r\n")
            await post_writer.drain()
            post_raw = await post_reader.read()
            post_writer.close()
            await http.close()
            await service.close()
            return health, snap, missing, post_raw

        health, snap, missing, post_raw = asyncio.run(run())
        assert health[0] == "HTTP/1.1 200 OK"
        assert health[1]["status"] == "ok"
        assert health[1]["sources"] == ["src"]
        assert snap[0] == "HTTP/1.1 200 OK"
        assert snap[1]["offered"] == 30
        assert "decide_p99_ms" in snap[1] and "decide_p50_ms" in snap[1]
        assert missing[0] == "HTTP/1.1 404 Not Found"
        assert post_raw.startswith(b"HTTP/1.1 405")


class TestAdaptiveIngest:
    def test_grows_additively_under_steady_acks(self):
        from repro.transport.client import AdaptiveIngest

        control = AdaptiveIngest(16)
        assert control.size == 1
        for _ in range(40):
            control.observe(control.size, 0.001 * control.size)
        assert control.size == 16  # reached max, one step per ack
        assert control.backoffs == 0
        # Trajectory records every change, starting from the floor.
        sizes = [size for _, size in control.trajectory]
        assert sizes[0] == 1 and sizes[-1] == 16
        assert sizes == sorted(sizes)

    def test_halves_on_latency_spike_and_recovers(self):
        from repro.transport.client import AdaptiveIngest

        control = AdaptiveIngest(16)
        for _ in range(20):
            control.observe(control.size, 0.001 * control.size)
        assert control.size == 16
        # A block-policy stall: per-tuple ack latency explodes.
        control.observe(16, 2.0)
        assert control.size == 8
        assert control.backoffs == 1
        control.observe(8, 2.0)
        assert control.size == 4
        # Healthy acks grow it back one step at a time.
        for _ in range(30):
            control.observe(control.size, 0.001 * control.size)
        assert control.size == 16

    def test_bounds_and_validation(self):
        from repro.transport.client import AdaptiveIngest

        control = AdaptiveIngest(4, min_size=2)
        for _ in range(10):
            control.observe(control.size, 0.0005 * control.size)
        assert control.size == 4
        for _ in range(10):
            control.observe(control.size, 5.0)
        assert control.size == 2  # never below min_size
        control.observe(0, 1.0)  # nonsense observations are ignored
        control.observe(4, -1.0)
        assert control.size == 2
        with pytest.raises(ValueError):
            AdaptiveIngest(0)
        with pytest.raises(ValueError):
            AdaptiveIngest(4, min_size=8)
        with pytest.raises(ValueError):
            AdaptiveIngest(4, backoff_ratio=1.0)

    def test_early_fast_fluke_fades_via_baseline_decay(self):
        from repro.transport.client import AdaptiveIngest

        control = AdaptiveIngest(16, backoff_ratio=2.0, baseline_decay=1.05)
        control.observe(1, 0.0001)  # one unrepresentatively fast ack
        # Steady-state acks are 10x slower; without decay every one of
        # them would read as congestion and pin the size at the floor.
        for _ in range(80):
            control.observe(control.size, 0.001 * control.size)
        assert control.size > 8
