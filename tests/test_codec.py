"""Tests for the binary wire codec: golden bytes, handshake, fan-out.

Three layers of assurance:

* **golden bytes** — the tuple frames and a JSON control frame serialize
  to exact, hand-derived byte strings (the wire format is a contract,
  not an implementation detail) and round-trip through the sans-io
  decoder, which refuses every malformed shape with a typed error;
* **handshake** — protocol v6 negotiates nothing about the body format:
  tuple frames are binary, a v1 to v5 hello is refused, and a tuple
  frame in a JSON body, or a v2 single-tuple ``ingest`` body, ends that
  connection and no other;
* **wire equivalence** — a verified loadgen run over the wire is
  batch-equivalent for both decide algorithms and delivers exactly what
  the same run delivers in process.
"""

from __future__ import annotations

import asyncio
import json
import struct

import pytest

from repro.core.tuples import StreamTuple
from repro.service.batching import Batch
from repro.service.broker import DisseminationService, ServiceConfig
from repro.service.loadgen import LoadGenConfig, run_loadgen
from repro.transport.client import GatewayClient
from repro.transport.codec import (
    BinaryEncoder,
    NameTable,
    SegmentCache,
    make_encoder,
)
from repro.transport.protocol import (
    PROTOCOL_VERSION,
    FrameDecoder,
    FrameTooLarge,
    ProtocolError,
    batch_from_wire,
    encode_frame,
    pack_header,
)
from repro.transport.server import GatewayServer


def _item(seq=7, ts=120.0, **values) -> StreamTuple:
    return StreamTuple(seq=seq, timestamp=ts, values=values or {"temp": 21.5})


def _decode_body(body: bytes, decoder: FrameDecoder | None = None) -> dict:
    decoder = decoder or FrameDecoder()
    frames = decoder.feed(pack_header(len(body)) + body)
    assert len(frames) == 1
    return frames[0]


# ---------------------------------------------------------------------------
# Golden bytes
# ---------------------------------------------------------------------------
class TestGoldenBytes:
    def test_json_frame_exact_bytes(self):
        frame = {"t": "tick", "now_ms": 5.0, "seq": 1}
        expected = b'{"t":"tick","now_ms":5.0,"seq":1}'
        assert encode_frame(frame) == struct.pack(">I", len(expected)) + expected

    def test_binary_ingest_body_exact_bytes(self):
        encoder = BinaryEncoder()
        body = encoder.ingest_body("src", _item(seq=3, ts=30.0, temp=1.5), seq=9)
        expected = (
            b"\x02"  # tag: ingest_batch (one tuple is a batch of one)
            b"\x0a"  # request seq 9 encoded as varint(9+1)
            b"\x03src"  # source
            b"\x00"  # pad length 0
            b"\x01\x00\x04temp"  # names delta: 1 entry, id 0 -> "temp"
            b"\x01"  # one tuple
            b"\x13"  # its record takes 19 bytes
            b"\x03"  # tuple seq 3
            + struct.pack("<d", 30.0)
            + b"\x01"  # one attribute
            b"\x00"  # name id 0
            + struct.pack("<d", 1.5)
        )
        assert body == expected

    def test_binary_second_frame_omits_announced_names(self):
        encoder = BinaryEncoder()
        first = encoder.ingest_body("src", _item(seq=1, ts=10.0, temp=1.0))
        second = encoder.ingest_body("src", _item(seq=2, ts=20.0, temp=2.0))
        assert b"temp" in first
        assert b"temp" not in second  # the id alone is on the wire now
        decoder = FrameDecoder()
        one = _decode_body(first, decoder)
        two = _decode_body(second, decoder)
        assert one["tuples"][0].values == {"temp": 1.0}
        assert two["tuples"][0].values == {"temp": 2.0}

    def test_binary_roundtrip_multi_attribute(self):
        encoder = BinaryEncoder()
        item = _item(seq=12345, ts=99.5, temp=21.5, humidity=0.33)
        frame = _decode_body(encoder.ingest_body("src", item, pad_bytes=11))
        assert frame["t"] == "ingest_batch"
        assert frame["source"] == "src"
        (decoded,) = frame["tuples"]
        assert isinstance(decoded, StreamTuple)
        assert decoded.seq == 12345
        assert decoded.timestamp == 99.5
        assert decoded.values == {"temp": 21.5, "humidity": 0.33}
        assert "seq" not in frame  # no request seq was attached

    def test_binary_ingest_batch_roundtrip(self):
        encoder = BinaryEncoder()
        items = [_item(seq=i, ts=10.0 * (i + 1), temp=float(i)) for i in range(5)]
        frame = _decode_body(
            encoder.ingest_batch_body("s1", items, seq=4, pad_bytes=3)
        )
        assert frame["t"] == "ingest_batch"
        assert frame["seq"] == 4
        assert [t.seq for t in frame["tuples"]] == [0, 1, 2, 3, 4]
        assert [t.values["temp"] for t in frame["tuples"]] == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_decided_pieces_roundtrip(self):
        batch = Batch(
            items=tuple(
                _item(seq=i, ts=10.0 * (i + 1), temp=1.0 + i) for i in range(3)
            ),
            first_staged_ms=10.0,
            flushed_ms=30.0,
        )
        pieces, total = BinaryEncoder().decided_pieces(
            "app0", batch, max_frame_bytes=1 << 20
        )
        body = b"".join(pieces)
        assert len(body) == total
        frame = _decode_body(body)
        assert frame["t"] == "decided"
        assert frame["apps"] == ["app0"]
        assert frame["first_staged_ms"] == 10.0
        assert frame["flushed_ms"] == 30.0
        decoded = batch_from_wire(frame)
        assert [t.seq for t in decoded.items] == [0, 1, 2]
        assert [t.values["temp"] for t in decoded.items] == [1.0, 2.0, 3.0]

    def test_unknown_binary_tag_rejected(self):
        with pytest.raises(ProtocolError):
            _decode_body(b"\x7f\x00\x00")

    def test_truncated_binary_body_rejected(self):
        encoder = BinaryEncoder()
        body = encoder.ingest_body("src", _item())
        with pytest.raises(ProtocolError):
            _decode_body(body[:-3])

    def test_trailing_bytes_rejected(self):
        # A body is exactly one frame; what follows it is not ignored.
        body = BinaryEncoder().ingest_body("src", _item(), seq=0)
        with pytest.raises(ProtocolError, match="trailing bytes"):
            _decode_body(body + b"\xff\xfe garbage")
        batch = Batch(items=(_item(),), first_staged_ms=1.0, flushed_ms=1.0)
        pieces, _ = BinaryEncoder().decided_pieces(
            "app", batch, max_frame_bytes=1 << 20
        )
        with pytest.raises(ProtocolError, match="trailing bytes"):
            _decode_body(b"".join(pieces) + b"\x00")

    def test_name_id_rebind_rejected(self):
        # A sender's table is append-only: id 0 cannot become another
        # name mid-connection.  Announcing it again as the same name is
        # legal (a refused oversized frame re-sends its delta).
        decoder = FrameDecoder()
        announces_temp = BinaryEncoder().ingest_body("src", _item())
        _decode_body(announces_temp, decoder)
        again = _decode_body(BinaryEncoder().ingest_body("src", _item(seq=8)), decoder)
        assert again["tuples"][0].values == {"temp": 21.5}
        rebinds = BinaryEncoder().ingest_body("src", _item(seq=9, other=1.0))
        with pytest.raises(ProtocolError, match="rebinds attribute id 0"):
            _decode_body(rebinds, decoder)

    @pytest.mark.parametrize("kind", ["ingest_batch", "decided"])
    def test_json_tuple_frame_rejected(self, kind):
        # Tuple frames are binary; JSON carries the control plane only.
        with pytest.raises(ProtocolError, match="frames are binary"):
            FrameDecoder().feed(encode_frame({"t": kind, "source": "src"}))

    def test_make_encoder_takes_only_binary(self):
        assert isinstance(make_encoder("binary"), BinaryEncoder)
        with pytest.raises(ValueError, match="unknown codec"):
            make_encoder("json")

    def test_unannounced_name_id_rejected(self):
        # A fresh decoder never saw the names delta of a previous
        # connection; referencing the id must fail loudly, whether the
        # records are built or only checked.
        encoder = BinaryEncoder()
        encoder.ingest_body("src", _item())  # announces "temp"
        second = encoder.ingest_body("src", _item(seq=8))
        with pytest.raises(ProtocolError, match="unannounced attribute id 0"):
            list(_decode_body(second, FrameDecoder())["tuples"])
        with pytest.raises(ProtocolError, match="unannounced attribute id 0"):
            _decode_body(second, FrameDecoder())["tuples"].seqs

    def test_control_frames_encode_as_json_dumps_does(self):
        # encode_frame keeps one JSONEncoder; its bytes are json.dumps'.
        samples = [
            {"t": "ok", "reply_to": 7, "emissions": 3},
            {"t": "hello", "v": PROTOCOL_VERSION, "features": ["trace", "qos"]},
            {"t": "welcome", "reply_to": 1, "sources": ["s\u00e9", "b"]},
            {"t": "error", "code": "protocol", "message": 'a "quoted"\nline'},
            {"t": "snapshot", "snapshot": {"p50": 1.25, "none": None, "ok": True}},
            {"t": "ok", "chunk": '{"checkpoint":[1,"a\\"b"]}', "done": False},
            {"t": "ok", "nan": float("nan"), "big": 10**20, "neg": -0.0},
        ]
        for frame in samples:
            body = json.dumps(frame, separators=(",", ":")).encode("utf-8")
            assert encode_frame(frame) == pack_header(len(body)) + body

    def test_frames_before_a_malformed_one_come_out_first(self):
        good = BinaryEncoder().ingest_body("src", _item(), seq=0)
        wire = pack_header(len(good)) + good + pack_header(2) + b"\x7f\x00"
        frames = FrameDecoder().frames(wire)
        assert next(frames)["t"] == "ingest_batch"
        with pytest.raises(ProtocolError, match="unknown binary frame tag"):
            next(frames)

    def test_json_and_binary_interleave_on_one_decoder(self):
        encoder = BinaryEncoder()
        binary = encoder.ingest_body("src", _item())
        json_frame = encode_frame({"t": "tick", "now_ms": 1.0})
        decoder = FrameDecoder()
        frames = decoder.feed(
            pack_header(len(binary)) + binary + json_frame
        )
        assert [f["t"] for f in frames] == ["ingest_batch", "tick"]


# ---------------------------------------------------------------------------
# Encode-once machinery
# ---------------------------------------------------------------------------
class TestEncodeOnce:
    def test_segment_cache_keys_on_identity(self):
        # Two sources may reuse the same seq; equality is seq-only, so
        # the cache must not serve one source's bytes for the other's.
        cache = SegmentCache(capacity=8)
        encoder = BinaryEncoder(cache=cache)
        a = StreamTuple(seq=1, timestamp=1.0, values={"x": 1.0})
        b = StreamTuple(seq=1, timestamp=1.0, values={"x": 2.0})
        seg_a = encoder.tuple_segment(a)
        seg_b = encoder.tuple_segment(b)
        assert seg_a.data != seg_b.data
        assert encoder.tuple_segment(a) is seg_a  # hit
        assert cache.hits == 1

    def test_segment_cache_lru_eviction(self):
        cache = SegmentCache(capacity=2)
        encoder = BinaryEncoder(cache=cache)
        items = [_item(seq=i) for i in range(3)]
        segments = [encoder.tuple_segment(item) for item in items]
        assert len(cache) == 2
        # items[0] was evicted; re-encoding produces a fresh segment.
        assert encoder.tuple_segment(items[0]) is not segments[0]

    def test_shared_fanout_reuses_segments_across_batches(self):
        table, cache = NameTable(), SegmentCache()
        first_conn = BinaryEncoder(table=table, cache=cache)
        second_conn = BinaryEncoder(table=table, cache=cache)
        item = _item(seq=5, ts=50.0)
        batch = Batch(items=(item,), first_staged_ms=50.0, flushed_ms=50.0)
        pieces_a, _ = first_conn.decided_pieces(
            "a", batch, max_frame_bytes=1 << 20
        )
        pieces_b, _ = second_conn.decided_pieces(
            "b", batch, max_frame_bytes=1 << 20
        )
        # The tuple segment bytes are the same object on both
        # connections — encoded once, fanned out by reference.
        assert pieces_a[-1] is pieces_b[-1]
        assert cache.hits >= 1

    def test_a_groups_members_on_one_connection_share_one_frame(self):
        encoder = BinaryEncoder()
        batches = [
            Batch(
                items=tuple(
                    _item(seq=i, ts=10.0 * i, temp=float(i))
                    for i in range(first, first + 3)
                ),
                first_staged_ms=0.0,
                flushed_ms=20.0,
            )
            for first in (0, 3)
        ]
        # Refused oversized: nothing is committed.
        with pytest.raises(FrameTooLarge):
            encoder.decided_frame(("a", "b"), batches[0], max_frame_bytes=8)
        # One frame per batch, naming both members.
        bodies = [
            b"".join(
                encoder.decided_frame(("a", "b"), b, max_frame_bytes=1 << 20)[0]
            )
            for b in batches
        ]
        decoder = FrameDecoder()
        frames = [_decode_body(body, decoder) for body in bodies]
        assert [f["apps"] for f in frames] == [["a", "b"], ["a", "b"]]
        assert [[t.seq for t in batch_from_wire(f).items] for f in frames] == [
            [0, 1, 2], [3, 4, 5]
        ]
        # The name delta went out once, with the first frame.
        assert b"temp" in bodies[0] and b"temp" not in bodies[1]
        # A one-app frame is the same body with one name in the header.
        one = b"".join(
            BinaryEncoder().decided_pieces("a", batches[0], max_frame_bytes=1 << 20)[0]
        )
        assert one == bodies[0].replace(b"\x02\x01a\x01b", b"\x01\x01a", 1)

    def test_a_groups_members_on_one_connection_are_decoded_once(self):
        encoder = BinaryEncoder()
        shared = Batch(
            items=(_item(seq=1, temp=1.0), _item(seq=2, temp=2.0)),
            first_staged_ms=0.0,
            flushed_ms=5.0,
        )

        def body(apps, batch, traces=None):
            pieces, _ = encoder.decided_frame(
                apps, batch, max_frame_bytes=1 << 20, traces=traces
            )
            return b"".join(pieces)

        decoder = FrameDecoder()
        frame = _decode_body(body(("a", "b", "c"), shared), decoder)
        assert frame["apps"] == ["a", "b", "c"]
        assert [(t.seq, t.values) for t in frame["items"]] == [
            (1, {"temp": 1.0}), (2, {"temp": 2.0})
        ]
        traced = _decode_body(body(("d",), shared, traces={1: [(0, 9)]}), decoder)
        assert list(traced["items"]) == list(frame["items"])
        assert traced["traces"] == {1: [(0, 9)]}
        # A frame must name an app, and is exactly one body long.
        nameless = bytearray(body(("e",), shared))
        nameless[1:4] = b"\x00"
        with pytest.raises(ProtocolError, match="names no app"):
            _decode_body(bytes(nameless), decoder)
        with pytest.raises(ProtocolError, match="trailing bytes"):
            _decode_body(body(("e",), shared) + b"\x00", decoder)

    def test_decided_pieces_has_only_the_shared_path(self):
        batch = Batch(items=(_item(),), first_staged_ms=1.0, flushed_ms=1.0)
        with pytest.raises(ValueError, match="shared=False"):
            BinaryEncoder().decided_pieces(
                "a", batch, max_frame_bytes=1 << 20, shared=False
            )

    def test_oversized_ingest_does_not_commit_names(self):
        # A client-side FrameTooLarge must not desync the connection's
        # announced-id state: the refused frame never reached the
        # server, so the next frame has to carry the names delta again.
        encoder = BinaryEncoder()
        with pytest.raises(FrameTooLarge):
            encoder.ingest_body("src", _item(), pad_bytes=256, max_frame_bytes=64)
        with pytest.raises(FrameTooLarge):
            encoder.ingest_batch_body(
                "src", [_item(seq=i) for i in range(9)], max_frame_bytes=32
            )
        frame = _decode_body(
            encoder.ingest_body("src", _item(), max_frame_bytes=1 << 20)
        )
        assert frame["tuples"][0].values == {"temp": 21.5}

    def test_oversized_ingest_many_leaves_connection_usable(self):
        async def run():
            service = DisseminationService()
            service.add_source("src")
            server = GatewayServer(service)
            await server.start()
            client = await GatewayClient.connect("127.0.0.1", server.port)
            items = [_item(seq=i, ts=10.0 * (i + 1)) for i in range(4)]
            with pytest.raises(FrameTooLarge):
                await client.ingest_many(
                    "src", items, pad_bytes=2 * 1024 * 1024
                )
            # The refused frame must not have poisoned the name table:
            # a normal ingest on the same connection still decodes.
            emissions = await client.ingest("src", items[0])
            await client.close()
            await server.shutdown()
            return emissions

        assert asyncio.run(run()) is not None

    def test_oversized_decided_does_not_commit_names(self):
        encoder = BinaryEncoder()
        item = _item(seq=1, ts=1.0)
        batch = Batch(items=(item,), first_staged_ms=1.0, flushed_ms=1.0)
        with pytest.raises(FrameTooLarge):
            encoder.decided_pieces("app", batch, max_frame_bytes=8)
        # The refused frame never reached the peer: the next (fitting)
        # frame must still carry the names delta.
        pieces, _ = encoder.decided_pieces(
            "app", batch, max_frame_bytes=1 << 20
        )
        assert b"temp" in b"".join(pieces)


# ---------------------------------------------------------------------------
# Handshake (protocol v2: nothing about the body format is negotiated)
# ---------------------------------------------------------------------------
def _split_bodies(data: bytes) -> list[bytes]:
    """Raw frame bodies in ``data`` (which must end on a frame boundary)."""
    bodies = []
    while data:
        (size,) = struct.unpack(">I", data[:4])
        bodies.append(data[4 : 4 + size])
        data = data[4 + size :]
    return bodies


async def _read_until_closed(reader: asyncio.StreamReader) -> bytes:
    data = b""
    while chunk := await asyncio.wait_for(reader.read(1 << 16), timeout=5.0):
        data += chunk
    return data


class TestNegotiation:
    def test_binary_negotiated_end_to_end(self):
        async def run():
            service = DisseminationService(ServiceConfig(batch_max_items=4))
            service.add_source("src")
            server = GatewayServer(service)
            await server.start()
            client = await GatewayClient.connect("127.0.0.1", server.port)
            sub = await client.subscribe(
                "app", "src", "DC1(temp, 0.001, 0.0005)"
            )
            delivered: list[int] = []

            async def consume():
                async for batch in sub.batches():
                    delivered.extend(t.seq for t in batch.items)

            task = asyncio.create_task(consume())
            for i in range(12):
                await client.ingest(
                    "src",
                    StreamTuple(
                        seq=i, timestamp=10.0 * (i + 1), values={"temp": float(i)}
                    ),
                )
            await client.tick(1000.0)
            await asyncio.sleep(0.05)
            await client.unsubscribe("app")
            await task
            features = client.features
            await client.close()
            await server.shutdown()
            return features, delivered

        features, delivered = asyncio.run(run())
        assert features == ["qos"]  # what the hello still negotiates
        assert delivered  # decided tuples crossed the wire

    def test_hello_without_codecs_gets_binary_decided(self):
        async def run():
            service = DisseminationService(ServiceConfig(batch_max_items=1))
            service.add_source("src")
            server = GatewayServer(service)
            await server.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            encoder = BinaryEncoder()
            writer.write(
                encode_frame({"t": "hello", "v": PROTOCOL_VERSION, "seq": 1})
                + encode_frame(
                    {
                        "t": "subscribe",
                        "seq": 2,
                        "app": "app",
                        "source": "src",
                        "spec": "DC1(temp, 0.001, 0.0005)",
                    }
                )
            )
            for i in range(4):
                body = encoder.ingest_body(
                    "src", _item(seq=i, ts=10.0 * (i + 1), temp=float(i))
                )
                writer.write(pack_header(len(body)) + body)
            writer.write(encode_frame({"t": "tick", "now_ms": 1000.0, "seq": 3}))
            await writer.drain()
            # The pumps deliver once the read loop idles: wait for a
            # decided frame before saying bye.
            data = b""
            while b"\x03app" not in data:
                data += await asyncio.wait_for(reader.read(1 << 16), timeout=5.0)
            writer.write(encode_frame({"t": "bye"}))
            await writer.drain()
            data += await _read_until_closed(reader)
            writer.close()
            await writer.wait_closed()
            await server.shutdown()
            return data

        bodies = _split_bodies(asyncio.run(run()))
        frames = FrameDecoder().feed(
            b"".join(pack_header(len(body)) + body for body in bodies)
        )
        welcome = frames[0]
        assert welcome["t"] == "welcome"
        assert welcome["v"] == PROTOCOL_VERSION == 6
        assert "codec" not in welcome
        decided = [
            body for body, frame in zip(bodies, frames) if frame["t"] == "decided"
        ]
        assert decided
        assert all(body[0] == 0x03 for body in decided)  # the binary tag
        assert all(
            body[0] == 0x7B
            for body, frame in zip(bodies, frames)
            if frame["t"] != "decided"
        )

    @pytest.mark.parametrize(
        "version", [1, 2, 3, 4, 5], ids=["v1", "v2", "v3", "v4", "v5"]
    )
    def test_old_hello_is_refused(self, version):
        # v1 peers may send JSON tuple frames, v2 peers single-tuple
        # ``ingest`` frames, v3 peers read one app per ``decided`` frame,
        # v4 peers tuple records without their byte length, v5 peers
        # a source's state as checkpoint rows; none survives the
        # handshake.
        async def run():
            service = DisseminationService()
            service.add_source("src")
            server = GatewayServer(service)
            await server.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            writer.write(
                encode_frame(
                    {"t": "hello", "v": version, "codecs": ["json"], "seq": 1}
                )
            )
            await writer.drain()
            data = await _read_until_closed(reader)
            writer.close()
            await writer.wait_closed()
            await server.shutdown()
            return FrameDecoder().feed(data)

        (reply,) = asyncio.run(run())
        assert reply["t"] == "error"
        assert reply["code"] == "version"
        assert reply["reply_to"] == 1

    @pytest.mark.parametrize(
        "case",
        [
            "json_ingest",
            "json_ingest_batch",
            "json_decided",
            "trailing_bytes",
            "name_rebind",
            "v2_ingest",
            "v2_ingest_traced",
        ],
    )
    def test_malformed_tuple_frame_closes_that_connection_only(self, case):
        wire_tuple = {"seq": 0, "ts": 10.0, "values": {"temp": 1.0}}

        def framed(body: bytes) -> bytes:
            return pack_header(len(body)) + body

        # Protocol v2's single-tuple ingest body after its tag and
        # request seq: source, pad, names delta, one tuple, no count.
        v2_ingest = (
            b"\x03src\x00\x01\x00\x04temp\x00"
            + struct.pack("<d", 10.0)
            + b"\x01\x00"
            + struct.pack("<d", 1.0)
        )
        if case == "json_ingest":
            bad = encode_frame(
                {"t": "ingest", "source": "src", "tuple": wire_tuple, "seq": 2}
            )
        elif case == "json_ingest_batch":
            bad = encode_frame(
                {"t": "ingest_batch", "source": "src", "tuples": [wire_tuple]}
            )
        elif case == "json_decided":
            bad = encode_frame(
                {
                    "t": "decided",
                    "app": "app",
                    "items": [wire_tuple],
                    "first_staged_ms": 10.0,
                    "flushed_ms": 10.0,
                }
            )
        elif case == "trailing_bytes":
            bad = framed(
                BinaryEncoder().ingest_body("src", _item(), seq=0)
                + b"\xff\xfe garbage"
            )
        elif case == "name_rebind":
            bad = framed(BinaryEncoder().ingest_body("src", _item())) + framed(
                BinaryEncoder().ingest_body("src", _item(seq=8, other=1.0))
            )
        elif case == "v2_ingest":
            bad = framed(b"\x01\x03" + v2_ingest)
        else:
            # Traced: the same layout plus one (stage, ns) pair.
            bad = framed(b"\x11\x03" + v2_ingest + b"\x01\x00\x05")

        async def run():
            service = DisseminationService()
            service.add_source("src")
            server = GatewayServer(service)
            await server.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            writer.write(
                encode_frame({"t": "hello", "v": PROTOCOL_VERSION, "seq": 1})
            )
            decoder = FrameDecoder()
            replies = decoder.feed(
                await asyncio.wait_for(reader.read(1 << 16), timeout=5.0)
            )
            writer.write(bad)
            await writer.drain()
            replies += decoder.feed(await _read_until_closed(reader))
            writer.close()
            await writer.wait_closed()
            # The server is still serving: a well-formed peer is welcome.
            client = await GatewayClient.connect("127.0.0.1", server.port)
            emissions = await client.ingest("src", _item(seq=1, ts=20.0))
            await client.close()
            await server.shutdown()
            return replies, emissions

        replies, emissions = asyncio.run(run())
        assert [frame["t"] for frame in replies] == ["welcome", "error"]
        # A JSON "ingest" is no frame type at all any more.
        expected = "unknown_type" if case == "json_ingest" else "protocol"
        assert replies[-1]["code"] == expected
        assert emissions is not None

    @pytest.mark.parametrize("writes", [1, 2], ids=["one_write", "two_writes"])
    def test_a_valid_frame_before_a_malformed_one_is_served(self, writes):
        """What the gateway does with bytes does not depend on how they
        were split into reads: the acked frame in front of a malformed
        one is offered and acked before the error ends the connection."""

        def framed(body: bytes) -> bytes:
            return pack_header(len(body)) + body

        encoder = BinaryEncoder()
        good = framed(encoder.ingest_body("src", _item(), seq=1))
        bad = framed(encoder.ingest_body("src", _item(seq=8), seq=2) + b"\xff")

        async def run():
            service = DisseminationService()
            service.add_source("src")
            server = GatewayServer(service)
            await server.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            writer.write(
                encode_frame({"t": "hello", "v": PROTOCOL_VERSION, "seq": 1})
            )
            decoder = FrameDecoder()
            replies = decoder.feed(
                await asyncio.wait_for(reader.read(1 << 16), timeout=5.0)
            )
            if writes == 1:
                writer.write(good + bad)
            else:
                writer.write(good)
                await writer.drain()
                replies += decoder.feed(
                    await asyncio.wait_for(reader.read(1 << 16), timeout=5.0)
                )
                writer.write(bad)
            await writer.drain()
            replies += decoder.feed(await _read_until_closed(reader))
            writer.close()
            await writer.wait_closed()
            offered = service.snapshot().offered
            await server.shutdown()
            return replies, offered

        replies, offered = asyncio.run(run())
        assert [(f["t"], f.get("reply_to")) for f in replies] == [
            ("welcome", 1),
            ("ok", 1),
            ("error", None),
        ]
        assert replies[-1]["code"] == "protocol"
        assert offered == 1


# ---------------------------------------------------------------------------
# Wire equivalence
# ---------------------------------------------------------------------------
class TestCrossCodecEquivalence:
    @pytest.mark.parametrize("algorithm", ["region", "per_candidate_set"])
    def test_verify_passes_and_streams_match(self, algorithm):
        def summary(transport: str) -> dict:
            return run_loadgen(
                LoadGenConfig(
                    rate=400.0,
                    duration_s=1.0,
                    size="tiny",
                    mode="closed",
                    algorithm=algorithm,
                    transport=transport,
                    ingest_batch=4,
                    verify=True,
                    # The totals below compare only if both runs offered
                    # the whole trace, however slow the machine is.
                    drain_trace=True,
                )
            )

        by_transport = {name: summary(name) for name in ("inproc", "tcp")}
        for name, result in by_transport.items():
            assert "codec" not in result, result
            assert result["clean_shutdown"] is True, (name, result)
            assert result["equivalent_to_batch"] is True, (name, result)
        # Same trace, same schedule, with the binary wire in between or
        # not: the delivered totals must agree exactly.
        assert (
            by_transport["inproc"]["delivered_tuples"]
            == by_transport["tcp"]["delivered_tuples"]
        )
        assert (
            by_transport["inproc"]["decided_emissions"]
            == by_transport["tcp"]["decided_emissions"]
        )


# ---------------------------------------------------------------------------
# Batched ingest
# ---------------------------------------------------------------------------
class TestBatchedIngest:
    def test_offer_many_matches_sequential_offers(self):
        from repro.service.loadgen import decided_map

        items = [
            StreamTuple(seq=i, timestamp=10.0 * (i + 1), values={"temp": float(i % 5)})
            for i in range(40)
        ]

        async def run(batched: bool):
            service = DisseminationService(
                ServiceConfig(batch_max_items=4, record_epochs=True)
            )
            service.add_source("src")
            session = await service.subscribe("app", "src", "DC1(temp, 2.0, 1.0)")

            async def drain():
                async for _ in session.batches():
                    pass

            task = asyncio.create_task(drain())
            if batched:
                for start in range(0, len(items), 7):
                    await service.offer_many("src", items[start : start + 7])
            else:
                for item in items:
                    await service.offer("src", item)
            epochs = (await service.close())["src"]
            await task
            return [decided_map(epoch) for epoch in epochs]

        assert asyncio.run(run(True)) == asyncio.run(run(False))

    def test_loadgen_ingest_batch_verifies_inproc(self):
        summary = run_loadgen(
            LoadGenConfig(
                rate=400.0,
                duration_s=1.0,
                size="tiny",
                mode="closed",
                ingest_batch=8,
                verify=True,
            )
        )
        assert summary["equivalent_to_batch"] is True, summary
        assert summary["clean_shutdown"] is True, summary
