"""The gateway's corked writer, against a fake transport.

No sockets and no sleeps: a recording transport stands in for the
socket, and the server-level tests feed a connection's whole input as
one ``StreamReader`` chunk and await the handler to its end, so every
assertion is over a complete, deterministic write log.
"""

from __future__ import annotations

import asyncio

from repro.core.tuples import StreamTuple
from repro.obs.telemetry import Telemetry
from repro.qos.spec import DegradationPolicy, QualitySpec
from repro.qos.controller import DegradationConfig, policy_to_profile
from repro.runtime.tasks import EngineConfig
from repro.service.broker import DisseminationService, ServiceConfig
from repro.service.batching import Batch
from repro.transport.codec import BinaryEncoder
from repro.transport.protocol import (
    FEATURE_QOS,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    FrameDecoder,
    batch_from_wire,
    encode_frame,
    pack_header,
)
from repro.transport.server import GatewayServer, _Connection, _TransportMetrics


class _FakeTransport:
    """Records every write/close/abort in order; never touches a socket."""

    def __init__(self, high: int = 1 << 16):
        self.high = high
        self.log: list[tuple] = []
        self.closing = False

    def get_write_buffer_limits(self) -> tuple[int, int]:
        return (self.high // 4, self.high)

    def is_closing(self) -> bool:
        return self.closing

    def write(self, data) -> None:
        self.log.append(("write", bytes(data)))

    def close(self) -> None:
        self.log.append(("close",))
        self.closing = True

    def abort(self) -> None:
        self.log.append(("abort",))
        self.closing = True

    @property
    def writes(self) -> list[bytes]:
        return [entry[1] for entry in self.log if entry[0] == "write"]


class _FakeWriter:
    """The slice of ``asyncio.StreamWriter`` the gateway uses."""

    def __init__(self, transport: _FakeTransport):
        self.transport = transport

    def get_extra_info(self, name: str):
        return None

    def write(self, data) -> None:
        self.transport.write(data)

    async def drain(self) -> None:
        return None

    def close(self) -> None:
        self.transport.close()

    async def wait_closed(self) -> None:
        return None


async def _next_pass() -> None:
    """Return once every callback already scheduled on the loop has run."""
    loop = asyncio.get_running_loop()
    done = loop.create_future()
    loop.call_soon(done.set_result, None)
    await done


def _connection(transport: _FakeTransport, *, metrics=None):
    return _Connection(
        asyncio.StreamReader(),
        _FakeWriter(transport),
        MAX_FRAME_BYTES,
        BinaryEncoder(),
        metrics=metrics,
    )


def _batch(first_seq: int, names: tuple[str, ...], n: int = 2) -> Batch:
    items = tuple(
        StreamTuple(
            seq=seq,
            timestamp=float(seq),
            values={name: float(seq) + 0.5 for name in names},
        )
        for seq in range(first_seq, first_seq + n)
    )
    return Batch(items=items, first_staged_ms=1.0, flushed_ms=2.0)


def _decided_bytes(encoder, app: str, batch: Batch) -> bytes:
    """One decided frame as the uncorked writer put it on the wire."""
    pieces, total = encoder.decided_pieces(
        app, batch, max_frame_bytes=MAX_FRAME_BYTES
    )
    return pack_header(total) + b"".join(pieces)


class TestCorkedConnection:
    def test_one_pass_is_one_write_of_the_frames_in_order(self):
        async def run():
            transport = _FakeTransport()
            conn = _connection(transport)
            ack = {"t": "ok", "reply_to": 7, "emissions": 3}
            closed = {"t": "closed", "app": "a", "reason": "unsubscribed"}
            first, second = _batch(0, ("temp",)), _batch(2, ("temp", "hum"))
            await conn.send(ack)
            conn.post_decided(("a",), first)
            conn.post_decided(("b",), second)
            await conn.send_quiet(closed)
            before_flush = list(transport.log)
            await _next_pass()
            reference = BinaryEncoder()
            expected = b"".join(
                [
                    encode_frame(ack),
                    _decided_bytes(reference, "a", first),
                    _decided_bytes(reference, "b", second),
                    encode_frame(closed),
                ]
            )
            return before_flush, transport.log, expected

        before_flush, log, expected = asyncio.run(run())
        assert before_flush == []
        assert log == [("write", expected)]

    def test_later_passes_flush_again(self):
        async def run():
            transport = _FakeTransport()
            conn = _connection(transport)
            await conn.send({"t": "ok", "reply_to": 1})
            await _next_pass()
            await _next_pass()  # an idle pass writes nothing
            await conn.send({"t": "ok", "reply_to": 2})
            await conn.send({"t": "ok", "reply_to": 3})
            await _next_pass()
            return transport.writes

        writes = asyncio.run(run())
        assert writes == [
            encode_frame({"t": "ok", "reply_to": 1}),
            encode_frame({"t": "ok", "reply_to": 2})
            + encode_frame({"t": "ok", "reply_to": 3}),
        ]

    def test_byte_threshold_flushes_within_the_pass(self):
        """A transport with a 2 KiB high-water mark (``sndbuf_bytes``)
        sees its bytes as soon as 2 KiB are corked, not a pass later."""

        async def run():
            transport = _FakeTransport(high=2048)
            conn = _connection(transport)
            frame = {"t": "ok", "reply_to": 1, "pad": "x" * 500}
            size = len(encode_frame(frame))
            sent = 0
            while not transport.writes:
                await conn.send(frame)
                sent += 1
                assert sent * size < 2048 + size, "threshold never tripped"
            early = list(transport.writes)
            await conn.send(frame)  # the remainder rides the scheduled flush
            await _next_pass()
            return size, sent, early, transport.writes

        size, sent, early, writes = asyncio.run(run())
        assert (sent - 1) * size < 2048 <= sent * size
        assert [len(w) for w in early] == [sent * size]
        assert [len(w) for w in writes] == [sent * size, size]

    def test_default_threshold_is_64_kib(self):
        async def run():
            transport = _FakeTransport(high=1 << 20)
            conn = _connection(transport)
            frame = {"t": "ok", "reply_to": 1, "pad": "x" * 8000}
            size = len(encode_frame(frame))
            for _ in range((1 << 16) // size):
                conn.post(frame)
            held = list(transport.writes)
            conn.post(frame)
            return held, transport.writes, size

        held, writes, size = asyncio.run(run())
        assert held == []
        assert [len(w) for w in writes] == [((1 << 16) // size + 1) * size]

    def test_name_delta_precedes_first_use_of_the_id(self):
        """Frames corked in one pass: whichever encodes first carries
        the attribute-name delta, and the peer decodes the single write
        in order without ever meeting an undefined id."""

        async def run():
            transport = _FakeTransport()
            conn = _connection(transport)
            batches = [
                ("a", _batch(0, ("temp",))),
                ("b", _batch(0, ("temp", "hum"))),
                ("a", _batch(2, ("hum", "wind"))),
            ]
            for app, batch in batches:
                conn.post_decided((app,), batch)
            await _next_pass()
            return batches, transport.writes

        batches, writes = asyncio.run(run())
        assert len(writes) == 1
        frames = FrameDecoder().feed(writes[0])
        assert [(f["t"], f["apps"]) for f in frames] == [
            ("decided", [app]) for app, _ in batches
        ]
        for frame, (_, batch) in zip(frames, batches):
            assert batch_from_wire(frame).items == batch.items

    def test_close_flushes_first(self):
        async def run():
            transport = _FakeTransport()
            conn = _connection(transport)
            await conn.send({"t": "bye", "reason": "shutdown"})
            conn.close()
            await _next_pass()  # the scheduled flush finds nothing left
            return transport.log

        assert asyncio.run(run()) == [
            ("write", encode_frame({"t": "bye", "reason": "shutdown"})),
            ("close",),
        ]

    def test_abort_flushes_first(self):
        async def run():
            transport = _FakeTransport()
            conn = _connection(transport)
            await conn.send({"t": "error", "code": "auth"})
            conn.abort()
            conn.abort()  # already closing: neither writes nor aborts again
            await _next_pass()
            return transport.log

        assert asyncio.run(run()) == [
            ("write", encode_frame({"t": "error", "code": "auth"})),
            ("abort",),
        ]

    def test_socket_writes_counted_per_flush_frames_per_frame(self):
        async def run():
            telemetry = Telemetry()
            transport = _FakeTransport()
            conn = _connection(
                transport, metrics=_TransportMetrics(telemetry)
            )
            for seq in range(5):
                await conn.send({"t": "ok", "reply_to": seq})
            await _next_pass()
            conn.count_in(100, 2)
            return telemetry.registry.render(), sum(map(len, transport.writes))

        text, nbytes = asyncio.run(run())
        lines = text.splitlines()
        assert "repro_transport_socket_writes_total 1" in lines
        assert (
            'repro_transport_frames_total{direction="out"} 5'
            in lines
        )
        assert (
            f'repro_transport_bytes_total{{direction="out"}} '
            f"{nbytes}" in lines
        )
        assert (
            'repro_transport_frames_total{direction="in"} 2'
            in lines
        )


# ---------------------------------------------------------------------------
# Through GatewayServer's own connection handler
# ---------------------------------------------------------------------------
LEVELS = (
    "DC1(temp, 0.5, 0.25)",
    "DC1(temp, 4.0, 2.0)",
    "DC1(temp, 16.0, 8.0)",
)


def _service() -> DisseminationService:
    service = DisseminationService(
        ServiceConfig(engine=EngineConfig(algorithm="region"), batch_max_items=1)
    )
    service.add_source("src")
    return service


async def _serve_one_chunk(gateway: GatewayServer, frames: list):
    """Run one connection whose whole input arrives as a single read.

    ``frames`` holds control frames as dicts and tuple frames as the
    binary bodies an encoder returned."""
    reader = asyncio.StreamReader()
    reader.feed_data(
        b"".join(
            encode_frame(frame)
            if isinstance(frame, dict)
            else pack_header(len(frame)) + frame
            for frame in frames
        )
    )
    reader.feed_eof()
    transport = _FakeTransport()
    await gateway._handle(reader, _FakeWriter(transport))
    return transport


class TestGatewayOverFakeTransport:
    def test_auth_error_reply_is_written_before_the_abort(self):
        async def run():
            gateway = GatewayServer(_service(), auth_token="s3cret")
            hello = {"t": "hello", "v": PROTOCOL_VERSION, "seq": 1}
            return (await _serve_one_chunk(gateway, [hello])).log

        log = asyncio.run(run())
        assert [entry[0] for entry in log][:2] == ["write", "abort"]
        (reply,) = FrameDecoder().feed(log[0][1])
        assert (reply["t"], reply["code"], reply["reply_to"]) == (
            "error",
            "auth",
            1,
        )

    def test_qos_update_precedes_the_re_filter_ack(self):
        """Ingest and the client's re_filter arrive in one read, so no
        event-loop pass separates the server's degradation pushes from
        the ack: the order on the wire is the order of encoding."""

        async def run():
            service = _service()
            gateway = GatewayServer(service)
            policy = DegradationPolicy(
                app_name="app0",
                levels=tuple(QualitySpec("app0", spec) for spec in LEVELS),
            )
            config = DegradationConfig(
                queue_high_ratio=0.0,  # every evaluation reads as stressed
                drop_rate_per_s=0.0,
                flush_wait_ms=None,
                interval_s=1e-9,
                cooldown_s=0.0,
                healthy_window_s=0.05,
            )
            frames = [
                {
                    "t": "hello",
                    "v": PROTOCOL_VERSION,
                    "seq": 1,
                    "features": [FEATURE_QOS],
                },
                {
                    "t": "subscribe",
                    "seq": 2,
                    "app": "app0",
                    "source": "src",
                    "spec": LEVELS[0],
                    "degradation": policy_to_profile(policy, config=config),
                    "queue_capacity": 64,
                    "overflow": "drop_oldest",
                },
            ]
            encoder = BinaryEncoder()
            frames += [
                encoder.ingest_body(
                    "src",
                    StreamTuple(
                        seq=seq,
                        timestamp=float(seq),
                        values={"temp": float(seq % 7)},
                    ),
                )
                for seq in range(12)
            ]
            frames.append(
                {
                    "t": "re_filter",
                    "seq": 3,
                    "app": "app0",
                    "spec": "DC1(temp, 9.0, 4.5)",
                }
            )
            transport = await _serve_one_chunk(gateway, frames)
            await service.close()
            return transport.writes

        writes = asyncio.run(run())
        sent = FrameDecoder().feed(b"".join(writes))
        kinds = [
            "re_filter_ack" if frame.get("reply_to") == 3 else frame["t"]
            for frame in sent
        ]
        assert kinds.count("re_filter_ack") == 1
        ack_at = kinds.index("re_filter_ack")
        pushes = [i for i, kind in enumerate(kinds) if kind == "qos_update"]
        assert len(pushes) == len(LEVELS) - 1, kinds
        assert max(pushes) < ack_at, kinds
        assert sent[ack_at]["t"] == "ok"
