"""Overflow policies and degradation ladders behind a gateway.

Two contracts:

* **a dead subscriber never wedges its source** — a subscriber
  connection reset while a put is parked on its full ``block`` queue
  (a broker's offer, or a cluster router's relay of a worker stream):
  the gateway closes the dead connection's queues before it
  unsubscribes them, so the parked put completes, the source keeps
  serving its other subscriber and shutdown returns;
* **the queue the subscriber drains decides** — behind a
  ``ClusterService`` the router runs each app's overflow policy and
  degradation ladder at its own queue: a ``disconnect`` app is closed
  and reaped there, and a ladder steps there, survives a SIGKILL of
  the worker spliced, and orders its ``qos_update`` pushes before the
  ack of a client ``re_filter``.
"""

from __future__ import annotations

import asyncio
import socket
import struct

import pytest

from repro.core.tuples import StreamTuple
from repro.obs.telemetry import Telemetry
from repro.qos.controller import DegradationConfig, policy_to_profile
from repro.qos.spec import DegradationPolicy, QualitySpec
from repro.service.broker import DisseminationService, ServiceConfig
from repro.service.cluster import ClusterConfig, ClusterService
from repro.transport.client import GatewayClient
from repro.transport.protocol import PROTOCOL_VERSION, FrameDecoder, encode_frame
from repro.transport.server import GatewayServer

#: Passes every tuple of :func:`_items` (its values climb by 1).
CHATTY = "DC1(value, 0.5, 0.25)"
LEVELS = (CHATTY, "DC1(value, 4.0, 2.0)", "DC1(value, 16.0, 8.0)")


def _items(start: int, count: int) -> list[StreamTuple]:
    return [
        StreamTuple(seq=seq, timestamp=seq * 10.0, values={"value": float(seq)})
        for seq in range(start, start + count)
    ]


async def _until(condition, what: str, timeout_s: float = 30.0) -> None:
    """Poll ``condition`` until it holds."""
    deadline = asyncio.get_running_loop().time() + timeout_s
    while not condition():
        if asyncio.get_running_loop().time() > deadline:
            raise AssertionError(f"never {what}")
        await asyncio.sleep(0.01)


async def _service(front: str, telemetry=None):
    if front == "broker":
        service = DisseminationService(ServiceConfig(batch_max_items=1))
        service.add_source("src")
        return service
    cluster = ClusterService(
        ClusterConfig(
            workers=1, sources=("src",), batch_max_items=1, health_interval_s=0.25
        ),
        telemetry=telemetry,
    )
    await cluster.start()
    return cluster


def _queue(service, app: str):
    """The queue ``app``'s subscriber drains: the broker's session's or
    the router's."""
    if isinstance(service, ClusterService):
        return service._apps[app].queue
    return service._src("src").sessions[app].queue


async def _raw_subscriber(port: int, app: str, **knobs):
    """A subscriber connection with a one-byte receive buffer that reads
    nothing unless asked, so the gateway's socket toward it fills at
    once; it offers the ``qos`` feature."""
    raw = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    raw.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 1)
    raw.setblocking(False)
    await asyncio.get_running_loop().sock_connect(raw, ("127.0.0.1", port))
    reader, writer = await asyncio.open_connection(sock=raw)
    writer.write(
        encode_frame(
            {"t": "hello", "v": PROTOCOL_VERSION, "seq": 1, "features": ["qos"]}
        )
    )
    subscribe = {"t": "subscribe", "seq": 2, "app": app, "source": "src"}
    writer.write(encode_frame({**subscribe, "spec": CHATTY, "batch_max_items": 1, **knobs}))
    await writer.drain()
    return reader, writer


async def _read_until(reader, decoder: FrameDecoder, frames: list, stop) -> None:
    """Append every frame read to ``frames`` until one satisfies ``stop``
    or the connection ends."""
    while not any(stop(frame) for frame in frames):
        try:
            chunk = await asyncio.wait_for(reader.read(1 << 16), timeout=10)
        except ConnectionError:
            return
        if not chunk:
            return
        frames.extend(decoder.feed(chunk))


async def _neighbour(port: int):
    """A subscriber on a connection of its own that keeps up; returns
    its client, the seqs it received and its consumer task."""
    client = await GatewayClient.connect("127.0.0.1", port)
    sub = await client.subscribe(
        "neighbour", "src", CHATTY, queue_capacity=10_000, batch_max_items=1
    )
    got: list[int] = []

    async def consume():
        async for batch in sub.batches():
            got.extend(item.seq for item in batch.items)

    return client, got, asyncio.create_task(consume())


async def _close_all(gateway, service, *clients) -> None:
    """Bounded teardown: at a wedged parent each step may hang."""
    for client in clients:
        if client is not None:
            await client.close(send_bye=False)
    for step in (gateway.shutdown(drain_timeout_s=1), service.close()):
        try:
            await asyncio.wait_for(step, timeout=30)
        except (asyncio.TimeoutError, RuntimeError):
            pass


@pytest.mark.parametrize("front", ["broker", "router"])
def test_a_reset_subscriber_never_wedges_its_source(front):
    """Reset a laggard's connection (``queue_capacity=1``, ``block``)
    while a put is parked on its full queue: the ingest in flight
    completes, 200 more are ingested, the neighbour receives them, and
    the gateway shuts down."""

    async def run():
        service = await _service(front)
        gateway = GatewayServer(service, sndbuf_bytes=2048)
        await gateway.start()
        neighbour = feeder = None
        try:
            reader, writer = await _raw_subscriber(
                gateway.port, "laggard", queue_capacity=1, overflow="block"
            )
            await _until(
                lambda: "laggard" in dict(service.subscriptions("src")), "subscribed"
            )
            neighbour, got, _consumer = await _neighbour(gateway.port)
            feeder = await GatewayClient.connect("127.0.0.1", gateway.port)
            queue = _queue(service, "laggard")
            fed = [0, False]  # next seq, stop

            async def feed():
                while not fed[1]:
                    await feeder.ingest_many("src", _items(fed[0], 1))
                    fed[0] += 1

            feeding = asyncio.create_task(feed())
            await _until(
                lambda: queue.pending >= queue.capacity and queue._putters,
                "parked a put on the laggard's full queue",
            )
            fed[1] = True
            sock = writer.transport.get_extra_info("socket")
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            writer.transport.abort()  # RST, not FIN
            await asyncio.wait_for(feeding, timeout=10)
            before = len(got)
            await asyncio.wait_for(
                feeder.ingest_many("src", _items(fed[0], 200)), timeout=10
            )
            await _until(lambda: len(got) >= before + 199, "fed the neighbour")
            await asyncio.wait_for(gateway.shutdown(drain_timeout_s=1), timeout=30)
        finally:
            await _close_all(gateway, service, neighbour, feeder)

    asyncio.run(run())


def test_a_routed_disconnect_app_is_closed_and_reaped_at_the_router():
    """A ``disconnect`` app whose router queue overflows: its connection
    gets ``closed reason=overflow_disconnect`` and ends, its neighbour
    keeps receiving, the merged snapshot counts the router's drops, and
    the app name subscribes again — its worker registration is gone."""

    async def run():
        cluster = await _service("router")
        gateway = GatewayServer(cluster, sndbuf_bytes=2048)
        await gateway.start()
        neighbour = feeder = again = None
        try:
            reader, writer = await _raw_subscriber(
                gateway.port, "laggard", queue_capacity=1, overflow="disconnect"
            )
            await _until(
                lambda: "laggard" in dict(cluster.subscriptions("src")), "subscribed"
            )
            session = cluster._apps["laggard"]
            neighbour, got, _consumer = await _neighbour(gateway.port)
            feeder = await GatewayClient.connect("127.0.0.1", gateway.port)
            seq = 0
            while not session.disconnected:
                assert seq < 20_000, "the laggard never overflowed"
                await asyncio.wait_for(feeder.ingest_many("src", _items(seq, 8)), 10)
                seq += 8
            # The put marked it; the next dispatch tails reap it.
            before = len(got)
            await asyncio.wait_for(feeder.ingest_many("src", _items(seq, 50)), 10)
            await _until(lambda: len(got) >= before + 49, "fed the neighbour")
            frames: list = []
            await _read_until(reader, FrameDecoder(), frames, lambda f: False)
            writer.close()
            snapshot = await cluster.snapshot()
            again = await GatewayClient.connect("127.0.0.1", gateway.port)
            await again.subscribe("laggard", "src", CHATTY)
            return frames, snapshot
        finally:
            await _close_all(gateway, cluster, neighbour, feeder, again)

    frames, snapshot = asyncio.run(run())
    closed = [f for f in frames if f.get("t") == "closed"]
    assert closed == [{"t": "closed", "app": "laggard", "reason": "overflow_disconnect"}]
    assert snapshot["dropped_tuples"] > 0


def test_a_routed_ladder_steps_at_the_router_and_survives_a_kill():
    """A laddered ``drop_oldest`` app whose consumer is paused: the
    router's queue fills and the router steps the app down to the last
    level (a re-filter at the worker, re-armed).  A SIGKILL then
    respawns the worker at the degraded spec, spliced, from a record
    armed at that spec.  A client ``re_filter`` acks after both
    ``qos_update`` pushes, detaches the ladder, and none follows."""
    policy = DegradationPolicy(
        "ladder", tuple(QualitySpec("ladder", spec) for spec in LEVELS)
    )
    config = DegradationConfig(
        queue_high_ratio=0.5,
        drop_rate_per_s=0.0,
        flush_wait_ms=None,
        interval_s=0.001,
        cooldown_s=0.0,
        healthy_window_s=60.0,
    )
    chosen = "DC1(value, 9.0, 4.5)"

    async def run():
        telemetry = Telemetry()
        cluster = await _service("router", telemetry)
        gateway = GatewayServer(cluster, sndbuf_bytes=2048)
        await gateway.start()
        feeder = None
        try:
            reader, writer = await _raw_subscriber(
                gateway.port,
                "ladder",
                queue_capacity=2,
                overflow="drop_oldest",
                degradation=policy_to_profile(policy, config=config),
            )
            await _until(
                lambda: "ladder" in dict(cluster.subscriptions("src")), "subscribed"
            )
            session = cluster._apps["ladder"]
            feeder = await GatewayClient.connect("127.0.0.1", gateway.port)
            seq = 0
            while session.degradation_level < len(LEVELS) - 1:
                assert seq < 20_000, "the router never stepped the app down"
                await asyncio.wait_for(feeder.ingest_many("src", _items(seq, 8)), 10)
                seq += 8
            armed = cluster._records["src"].state["subscriptions"]
            primary = cluster._primary(0)
            old_pid = primary.process.pid
            primary.process.kill()
            await asyncio.wait_for(feeder.ingest_many("src", _items(seq, 8)), 30)
            seq += 8
            await _until(
                lambda: primary.process.pid != old_pid and primary.ready.is_set(),
                "healed",
            )
            rows = (await cluster.snapshot())["sessions"]
            writer.write(
                encode_frame({"t": "re_filter", "seq": 3, "app": "ladder", "spec": chosen})
            )
            await writer.drain()
            frames: list = []
            decoder = FrameDecoder()
            acked = lambda seq: lambda f: f.get("t") == "ok" and f.get("reply_to") == seq
            await _read_until(reader, decoder, frames, acked(3))
            after_ack = (session.degradation, session.spec)
            await asyncio.wait_for(feeder.ingest_many("src", _items(seq, 50)), 10)
            writer.write(encode_frame({"t": "unsubscribe", "seq": 4, "app": "ladder"}))
            await writer.drain()
            await _read_until(reader, decoder, frames, acked(4))
            writer.close()
            return armed, rows, frames, after_ack, telemetry.events.since()
        finally:
            await _close_all(gateway, cluster, feeder)

    armed, rows, frames, after_ack, events = asyncio.run(run())
    assert armed == [["ladder", LEVELS[-1]]]
    assert [(e["spliced"], e["cold"]) for e in events if e["kind"] == "worker_respawn"] == [(1, 0)]
    assert [r["spec"] for r in rows if r["app_name"] == "ladder"] == [LEVELS[-1]]
    kinds = [
        (f["t"], f.get("level"), f.get("reply_to"))
        for f in frames
        if f["t"] == "qos_update" or f.get("reply_to") in (3, 4)
    ]
    assert kinds == [
        ("qos_update", 1, None),
        ("qos_update", 2, None),
        ("ok", None, 3),
        ("ok", None, 4),
    ]
    assert after_ack == (None, chosen)
