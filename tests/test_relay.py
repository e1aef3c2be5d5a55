"""The cluster router relays tuple records as bytes.

Protocol v5 gives every tuple frame the byte length of its record
section, so a decoded frame's records stay one undecoded
:class:`~repro.transport.codec.TupleRecords` view.  Four contracts:

* **equivalence** (Hypothesis) — what a subscriber receives through the
  router's two hops (ingest forward, decided fan-out), relaying records
  as bytes wherever the name tables agree, equals what the decode ->
  encode path delivers: tuples, trace pairs and the router's stamps,
  under arbitrary read splits, with two producers whose tables intern
  the attributes in opposite orders;
* **relay or fall back** — agreeing tables forward the record bytes as
  they came and build no tuple; a disagreeing table re-encodes; each
  learned id is checked once, never per tuple;
* **refusal** — a malformed record in the 5th tuple fails its whole
  frame with a typed error before any tuple is offered or forwarded;
* **no encode on the router** — through a 2-worker, cluster-relay
  shaped run the router's segment cache never misses.
"""

from __future__ import annotations

import asyncio

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.tuples import StreamTuple
from repro.obs.parse import parse_exposition
from repro.obs.telemetry import Telemetry
from repro.obs.trace import STAGE_ROUTER_REASSEMBLY, STAGE_SESSION_QUEUE, stage_id
from repro.runtime.partition import HashRing
from repro.service.batching import Batch
from repro.service.broker import DisseminationService
from repro.service.cluster import ClusterConfig, ClusterService
from repro.transport.client import GatewayClient
from repro.transport.codec import (
    BinaryEncoder,
    NameTable,
    SegmentCache,
    _put_varint,
)
from repro.transport.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    FrameDecoder,
    ProtocolError,
    batch_from_wire,
    encode_frame,
    pack_header,
)
from repro.transport.server import GatewayServer

_ATTRS = ("a", "b", "c")
_SID_REASSEMBLY = stage_id(STAGE_ROUTER_REASSEMBLY)
_SID_QUEUE = stage_id(STAGE_SESSION_QUEUE)


def _encoder(order=_ATTRS) -> BinaryEncoder:
    """An encoder whose table interns ``order`` first."""
    table = NameTable()
    for name in order:
        table.intern(name)
    return BinaryEncoder(table)


def _framed(body: bytes) -> bytes:
    return pack_header(len(body)) + body


def _feed(decoder: FrameDecoder, wire: bytes, cuts=(1 << 16,)) -> list[dict]:
    """Decode ``wire`` fed in chunks of the sizes ``cuts`` cycles through."""
    frames: list[dict] = []
    pos = index = 0
    while pos < len(wire):
        size = cuts[index % len(cuts)]
        frames += decoder.feed(wire[pos : pos + size])
        pos += size
        index += 1
    return frames


def _one(body: bytes, decoder: FrameDecoder | None = None) -> dict:
    (frame,) = (decoder or FrameDecoder()).feed(_framed(body))
    return frame


def _rows(items) -> list:
    return [(t.seq, t.timestamp, tuple(t.values.items())) for t in items]


# ---------------------------------------------------------------------------
# Equivalence: relay vs decode -> encode, through both router hops
# ---------------------------------------------------------------------------
class _Hops:
    """One path through the router's two hops, relaying records as
    bytes (``relay=True``) or decoding and re-encoding them.

    Producers -> router (a decoder per producer connection) -> a
    connection per worker -> each worker answers every ingest frame
    with one ``decided`` batch of the same tuples -> router (a decoder
    per worker connection) -> the router's stamps -> one subscriber
    connection -> what the subscriber decodes.
    """

    def __init__(self, relay: bool, orders, cuts):
        self.relay = relay
        self.cuts = cuts
        self.producers = [_encoder(order) for order in orders]
        self.router_in = [FrameDecoder() for _ in orders]
        self.to_worker = [BinaryEncoder(), BinaryEncoder()]
        self.worker_in = [FrameDecoder(), FrameDecoder()]
        self.worker_out = [BinaryEncoder(), BinaryEncoder()]
        self.router_back = [FrameDecoder(), FrameDecoder()]
        self.front_cache = SegmentCache()
        self.front = BinaryEncoder(NameTable(), self.front_cache)
        self.subscriber = FrameDecoder()
        self.received: list = []

    def _records(self, records):
        return records if self.relay else tuple(records)

    def send(self, producer: int, worker: int, source: str, items, traces):
        body = self.producers[producer].ingest_batch_body(
            source, items, seq=len(self.received), traces=traces
        )
        (frame,) = _feed(self.router_in[producer], _framed(body), self.cuts)
        records = frame["tuples"]
        records.seqs  # the router's framing check
        forward = self.to_worker[worker].ingest_batch_body(
            source, self._records(records), traces=frame.get("traces")
        )
        (arrived,) = _feed(self.worker_in[worker], _framed(forward), self.cuts)
        batch = Batch(tuple(arrived["tuples"]), 1.0, 2.0)
        pieces, _ = self.worker_out[worker].decided_frame(
            (f"app-{source}",),
            batch,
            max_frame_bytes=MAX_FRAME_BYTES,
            traces=arrived.get("traces"),
        )
        (back,) = _feed(
            self.router_back[worker], _framed(b"".join(pieces)), self.cuts
        )
        batch = batch_from_wire(back, relay=self.relay)
        if batch.traces is not None:
            # The router's stamps (reassembly at the put, the queue
            # dwell at the pump's take), at fixed instants.
            batch = Batch.with_traces(batch, (0, batch.traces[1]))
            batch = batch.stamped(_SID_REASSEMBLY, 700).stamped(_SID_QUEUE, 900)
        pieces, _ = self.front.decided_frame(
            back["apps"],
            batch,
            max_frame_bytes=MAX_FRAME_BYTES,
            traces=batch.traces[1] if batch.traces is not None else None,
        )
        (out,) = _feed(self.subscriber, _framed(b"".join(pieces)), self.cuts)
        delivered = batch_from_wire(out)
        self.received.append(
            (
                out["apps"],
                _rows(delivered.items),
                dict(delivered.traces[1]) if delivered.traces else None,
            )
        )


_value = st.floats(allow_nan=False, width=64)


@st.composite
def _frames(draw):
    """Frames of 1-5 tuples with 1-3 attributes, some traced."""
    frames = []
    seq = draw(st.integers(min_value=0, max_value=1 << 40))
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        items = []
        for _ in range(draw(st.integers(min_value=1, max_value=5))):
            names = draw(st.permutations(_ATTRS))[
                : draw(st.integers(min_value=1, max_value=3))
            ]
            items.append(
                StreamTuple(
                    seq=seq,
                    timestamp=draw(st.floats(0.0, 1e9)),
                    values={name: draw(_value) for name in names},
                )
            )
            seq += draw(st.integers(min_value=1, max_value=300))
        traces = None
        if draw(st.booleans()):
            traces = {
                item.seq: ((1, draw(st.integers(0, 1 << 20))),)
                for item in items
                if draw(st.booleans())
            } or None
        frames.append((items, traces))
    return frames


@settings(max_examples=60, deadline=None)
@given(
    frames=st.lists(_frames(), min_size=2, max_size=2),
    schedule=st.lists(st.booleans(), min_size=12, max_size=12),
    workers=st.tuples(st.integers(0, 1), st.integers(0, 1)),
    cuts=st.lists(st.integers(min_value=1, max_value=97), min_size=1, max_size=5),
)
def test_relayed_streams_equal_the_decode_encode_path(frames, schedule, workers, cuts):
    orders = (_ATTRS, _ATTRS[::-1])
    paths = [_Hops(relay, orders, cuts) for relay in (True, False)]
    pending = [list(frames[0]), list(frames[1])]
    turns = iter(schedule)
    while pending[0] or pending[1]:
        producer = int(next(turns, False)) if pending[0] and pending[1] else (
            0 if pending[0] else 1
        )
        items, traces = pending[producer].pop(0)
        for path in paths:
            path.send(producer, workers[producer], f"s{producer}", items, traces)
    relayed, reencoded = paths
    assert relayed.received == reencoded.received
    # What the producers sent, in their order, is what arrived.
    sent = {
        f"s{p}": [_rows(items) for items, _ in frames[p]] for p in (0, 1)
    }
    got = {f"s{p}": [] for p in (0, 1)}
    for apps, rows, _ in relayed.received:
        got[apps[0][len("app-") :]].append(rows)
    assert got == sent
    # The relay path encoded a segment only for what could not relay.
    assert relayed.front_cache.misses <= reencoded.front_cache.misses


# ---------------------------------------------------------------------------
# Relay or fall back
# ---------------------------------------------------------------------------
def _tuples(count: int) -> list[StreamTuple]:
    return [
        StreamTuple(
            seq=seq,
            timestamp=10.0 * seq,
            values={name: float(seq + i) for i, name in enumerate(_ATTRS)},
        )
        for seq in range(count)
    ]


def test_agreeing_tables_forward_the_record_bytes_as_they_came():
    sent = _encoder().ingest_batch_body("src", _tuples(4))
    records = _one(sent)["tuples"]
    assert records.data in sent
    forward = BinaryEncoder().ingest_batch_body("src", records)
    assert forward.endswith(records.data)
    cache = SegmentCache()
    pieces, _ = BinaryEncoder(NameTable(), cache).decided_frame(
        ("app",), Batch(records, 0.0, 1.0), max_frame_bytes=MAX_FRAME_BYTES
    )
    assert pieces[1] is records.data
    assert (cache.hits, cache.misses) == (0, 0)
    assert records._tuples is None, "a relay built tuples"
    assert _rows(_one(forward)["tuples"]) == _rows(_tuples(4))


def test_a_disagreeing_table_reencodes():
    records = _one(_encoder().ingest_batch_body("src", _tuples(3)))["tuples"]
    reversed_table = _encoder(_ATTRS[::-1])
    forward = reversed_table.ingest_batch_body("src", records)
    assert records.data not in forward
    assert records._tuples is not None
    assert _rows(_one(forward)["tuples"]) == _rows(_tuples(3))


def test_each_learned_id_is_checked_once(monkeypatch):
    calls = []
    adopt = NameTable.adopt

    def counting(self, nid, name):
        calls.append((nid, name))
        return adopt(self, nid, name)

    monkeypatch.setattr(NameTable, "adopt", counting)
    producer, router_in, to_worker = _encoder(), FrameDecoder(), BinaryEncoder()
    for start in range(0, 40, 8):
        batch = _tuples(start + 8)[start:]
        records = _one(producer.ingest_batch_body("src", batch), router_in)["tuples"]
        to_worker.ingest_batch_body("src", records)
        assert records._tuples is None
    assert calls == [(0, "a"), (1, "b"), (2, "c")]


# ---------------------------------------------------------------------------
# Refusal
# ---------------------------------------------------------------------------
def _bad_frame(kind: str) -> bytes:
    """An ``ingest_batch`` body of 6 tuples whose 5th record is malformed."""
    encoder = _encoder()
    head = bytearray(b"\x02\x02\x03src\x00\x03\x00\x01a\x01\x01b\x02\x01c\x06")
    records = []
    for item in _tuples(6):
        out = bytearray()
        encoder._encode_tuple(out, item)
        records.append(out)
    fifth = records[4]
    if kind == "truncated":
        del fifth[-3:]  # its last value is 5 bytes long
    else:
        fifth[9] += 1  # one attribute more than it holds
    data = b"".join(records)
    _put_varint(head, len(data))
    return bytes(head) + data


@pytest.mark.parametrize("kind", ["truncated", "oversized"])
def test_a_malformed_fifth_record_fails_its_frame(kind):
    records = _one(_bad_frame(kind))["tuples"]
    assert len(records) == 6
    with pytest.raises(ProtocolError):
        records.seqs
    with pytest.raises(ProtocolError):
        list(records)


class _RecordingClient:
    def __init__(self):
        self.forwarded = []

    async def ingest_many(self, source, items, **kwargs):
        self.forwarded.append(items)
        return 0


@pytest.mark.parametrize("kind", ["truncated", "oversized"])
def test_the_router_forwards_nothing_of_a_malformed_frame(kind):
    async def run():
        cluster = ClusterService(ClusterConfig(workers=1, sources=("src",)))
        cluster._sources["src"] = 0
        worker = cluster._workers[0]
        worker.client = _RecordingClient()
        worker.ready.set()
        with pytest.raises(ProtocolError):
            await cluster.offer_many("src", _one(_bad_frame(kind))["tuples"])
        good = _one(_encoder().ingest_batch_body("src", _tuples(6)))["tuples"]
        await cluster.offer_many("src", good)
        return worker.client.forwarded, good

    forwarded, good = asyncio.run(run())
    assert forwarded == [good]  # the view itself, undecoded
    assert good._tuples is None


@pytest.mark.parametrize("kind", ["truncated", "oversized"])
def test_the_broker_offers_nothing_of_a_malformed_frame(kind):
    async def run():
        service = DisseminationService()
        service.add_source("src")
        server = GatewayServer(service)
        await server.start()
        reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
        writer.write(encode_frame({"t": "hello", "v": PROTOCOL_VERSION, "seq": 1}))
        writer.write(_framed(_bad_frame(kind)))
        await writer.drain()
        data = b""
        while chunk := await asyncio.wait_for(reader.read(1 << 16), timeout=5.0):
            data += chunk
        writer.close()
        await writer.wait_closed()
        offered = service.snapshot().offered
        await server.shutdown()
        return FrameDecoder().feed(data), offered

    replies, offered = asyncio.run(run())
    assert [(f["t"], f.get("code")) for f in replies] == [
        ("welcome", None),
        ("error", "protocol"),
    ]
    assert offered == 0


def test_ingest_is_acked_in_binary():
    from repro.transport.codec import encode_ingest_ack

    wire = encode_ingest_ack(300, 7)
    assert wire == pack_header(4) + b"\x04\xac\x02\x07"
    assert FrameDecoder().feed(wire) == [
        {"t": "ok", "reply_to": 300, "emissions": 7}
    ]


# ---------------------------------------------------------------------------
# No encode on the router
# ---------------------------------------------------------------------------
def _sources_on_both_shards(per_shard: int) -> list[str]:
    ring = HashRing(range(2))
    by_shard: dict[int, list[str]] = {0: [], 1: []}
    index = 0
    while min(map(len, by_shard.values())) < per_shard:
        name = f"relay{index}"
        shard = by_shard[int(ring.owner(name))]
        if len(shard) < per_shard:
            shard.append(name)
        index += 1
    return by_shard[0] + by_shard[1]


def test_the_router_encodes_nothing_it_relays():
    """Cluster-relay's shape, small: four sources on two workers, two
    producer connections, two subscribers per source, 16-tuple frames,
    traced.  Every subscriber gets what it would get in process, and
    the router's segment cache is never consulted."""
    sources = _sources_on_both_shards(2)
    spec = "DC1(a, 0.5, 0.25)"
    frames = 6

    async def deliver(service, producers) -> dict:
        got: dict[str, list] = {}

        async def consume(app, stream):
            async for batch in stream:
                got[app].extend(_rows(batch.items))

        tasks = []
        for source in sources:
            for k in range(2):
                app = f"{source}.{k}"
                got[app] = []
                sub = await service.subscribe(app, source, spec, queue_capacity=10_000)
                stream = sub.batches()
                tasks.append(asyncio.create_task(consume(app, stream)))
        for n in range(frames):
            for i, source in enumerate(sources):
                batch = _tuples(16 * (n + 1))[16 * n :]
                await producers[i % 2](source, batch)
        return got, tasks

    async def in_process():
        service = DisseminationService()
        for source in sources:
            service.add_source(source)

        def producer(source, batch):
            return service.offer_many(source, batch)

        got, tasks = await deliver(service, [producer, producer])
        await service.close()
        await asyncio.gather(*tasks)
        return got

    async def routed():
        tele = Telemetry(sample_period=4)
        cluster = ClusterService(
            ClusterConfig(workers=2, sources=tuple(sources)), telemetry=tele
        )
        await cluster.start()
        gateway = GatewayServer(cluster, telemetry=tele)
        await gateway.start()
        clients = [
            await GatewayClient.connect(
                "127.0.0.1", gateway.port, telemetry=Telemetry(sample_period=4)
            )
            for _ in range(3)
        ]
        try:
            producers = [
                (lambda source, batch, c=c: c.ingest_many(source, batch))
                for c in clients[:2]
            ]
            got, tasks = await deliver(clients[2], producers)
            await cluster.close()
            await asyncio.wait_for(asyncio.gather(*tasks), timeout=30)
            return got, parse_exposition(tele.registry.render())
        finally:
            for client in clients:
                await client.close()
            await gateway.shutdown()
            await cluster.close()

    expected = asyncio.run(in_process())
    got, metrics = asyncio.run(routed())
    assert got == expected
    assert sum(map(len, got.values())) > 0
    assert metrics.value("repro_transport_segment_cache_misses_total") == 0
    assert metrics.value("repro_transport_segment_cache_hits_total") == 0
    assert metrics.value("repro_stage_latency_ms_count", stage="router_forward")


# ---------------------------------------------------------------------------
# One decided frame per front link
# ---------------------------------------------------------------------------
def test_the_router_writes_one_frame_per_front_link(monkeypatch):
    """Three apps of one sharing class behind a one-worker cluster, two
    on one subscriber connection and one on another: each ``decided``
    frame of the worker (one frame naming all three) leaves the router
    as one frame per connection, naming that connection's apps — and
    every app receives what it would from a single broker."""
    import repro.transport.client as client_module
    from repro.transport.server import _Connection

    spec = "DC1(a, 0.5, 0.25)"
    apps = {"app0": 0, "app1": 0, "app2": 1}  # app -> subscriber connection
    worker_frames = []
    front_frames = []
    decode = client_module.batch_from_wire
    post_decided = _Connection.post_decided

    def counting_decode(frame, *, relay=False):
        if relay:
            worker_frames.append(tuple(frame["apps"]))
        return decode(frame, relay=relay)

    def counting_post(self, names, batch, **kwargs):
        front_frames.append((id(self), tuple(names)))
        return post_decided(self, names, batch, **kwargs)

    async def deliver(subscribe_for, ingest) -> dict:
        got = {app: [] for app in apps}

        async def consume(app, stream):
            async for batch in stream:
                got[app].extend(_rows(batch.items))

        tasks = []
        for app in apps:
            sub = await subscribe_for(app)(app, "src", spec, queue_capacity=10_000)
            tasks.append(asyncio.create_task(consume(app, sub.batches())))
        for n in range(4):
            await ingest("src", _tuples(16 * (n + 1))[16 * n :])
        return got, tasks

    async def in_process():
        service = DisseminationService()
        service.add_source("src")
        got, tasks = await deliver(lambda app: service.subscribe, service.offer_many)
        await service.close()
        await asyncio.gather(*tasks)
        return got

    async def routed():
        cluster = ClusterService(ClusterConfig(workers=1, sources=("src",)))
        await cluster.start()
        gateway = GatewayServer(cluster)
        await gateway.start()
        clients = [await GatewayClient.connect("127.0.0.1", gateway.port) for _ in range(3)]
        try:
            got, tasks = await deliver(
                lambda app: clients[apps[app]].subscribe, clients[2].ingest_many
            )
            await cluster.close()
            await asyncio.wait_for(asyncio.gather(*tasks), timeout=30)
            return got
        finally:
            for client in clients:
                await client.close()
            await gateway.shutdown()
            await cluster.close()

    expected = asyncio.run(in_process())
    monkeypatch.setattr(client_module, "batch_from_wire", counting_decode)
    monkeypatch.setattr(_Connection, "post_decided", counting_post)
    got = asyncio.run(routed())
    assert got == expected
    assert sum(map(len, got.values())) > 0
    assert worker_frames and set(worker_frames) == {("app0", "app1", "app2")}
    assert len(front_frames) == 2 * len(worker_frames)
    by_connection = {}
    for conn, names in front_frames:
        by_connection.setdefault(conn, set()).add(names)
    assert sorted(map(sorted, by_connection.values())) == [
        [("app0", "app1")], [("app2",)]
    ]
