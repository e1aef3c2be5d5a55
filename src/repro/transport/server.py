"""TCP gateway: the dissemination broker behind real sockets.

:class:`GatewayServer` accepts TCP connections speaking the
length-prefixed protocol of :mod:`repro.transport.protocol` and
bridges them onto a live :class:`~repro.service.broker.DisseminationService`:

* **ingest producers** send ``ingest_batch`` frames of N ≥ 1 tuples;
  each is offered to the broker *inline* in the connection's read loop,
  so a ``block`` overflow policy on any subscriber propagates as
  backpressure all the way to the producer's socket (the server simply
  stops reading further frames until the offer completes);
* **subscribers** send ``subscribe``; the server attaches a session
  (a broker's :class:`~repro.service.session.SubscriberSession`, a
  cluster router's :class:`~repro.service.cluster.ClusterSession`)
  whose batches wait on the connection's one
  :class:`~repro.service.session.DeliveryLink`, and the connection's
  one *pump* task writes each batch once, as one ``decided`` frame
  naming every app on the connection it is for.  The pump awaits
  ``drain()`` on the socket, so a remote reader that stops consuming
  fills the kernel buffers, stalls the pump, and lets each session's
  bound on the link apply its overflow policy — ``drop_oldest`` drops
  server-side, ``disconnect`` reaps the session *and closes the
  socket*;
* a connection may do both at once, and many connections multiplex onto
  one broker.

Connection teardown — a clean ``bye``, an abrupt reset, or EOF — always
reclaims the connection's subscriptions: sessions are unsubscribed from
the broker (which final-flushes their batchers), so a vanished client
never leaks filter-group state.

:meth:`GatewayServer.shutdown` is the graceful path used by ``repro
serve`` on SIGINT/SIGTERM: stop accepting, close the service (cutover +
final-flush of every session batcher), let the pumps drain the closing
batches onto the sockets, send ``bye``, and return a terminal snapshot.
"""

from __future__ import annotations

import asyncio
import json
import socket
import time
from typing import Optional

from repro.obs.telemetry import Telemetry
from repro.obs.trace import STAGE_SESSION_QUEUE, STAGE_SOCKET_WRITE
from repro.qos.controller import policy_from_profile
from repro.qos.spec import QualitySpec
from repro.service.broker import DisseminationService
from repro.service.session import DeliveryLink
from repro.transport.codec import (
    BinaryEncoder,
    NameTable,
    SegmentCache,
    encode_ingest_ack,
)
from repro.transport.protocol import (
    FEATURE_QOS,
    FEATURE_TRACE,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    FrameDecoder,
    FrameTooLarge,
    ProtocolError,
    encode_frame,
    negotiate_features,
    pack_header,
    state_slice_chars,
    traces_from_wire,
)

__all__ = ["GatewayServer", "service_snapshot_dict"]

#: Read-chunk size for the per-connection frame loop.
_READ_CHUNK = 1 << 16

#: Most bytes a connection corks before flushing without waiting for the
#: end of the event-loop pass; a transport with a lower write high-water
#: mark (``sndbuf_bytes``) flushes at that mark instead.
_CORK_MAX_BYTES = 1 << 16

#: Tuples the server-wide encode-once segment cache holds.
_SEGMENT_CACHE_SIZE = 4096


class _TransportMetrics:
    """Shared transport-layer instrument handles for all connections."""

    def __init__(self, telemetry: Telemetry):
        registry = telemetry.registry
        self.frames = registry.counter(
            "repro_transport_frames_total",
            "Wire frames by direction.",
            ("direction",),
        )
        self.bytes = registry.counter(
            "repro_transport_bytes_total",
            "Wire bytes by direction.",
            ("direction",),
        )
        self.socket_writes = registry.counter(
            "repro_transport_socket_writes_total",
            "Transport writes: one per flush of a connection's corked "
            "outbound frames.",
        )
        self.stall = registry.counter(
            "repro_transport_backpressure_stall_seconds_total",
            "Cumulative time writes spent awaiting socket drain.",
        )
        self.connections = registry.gauge(
            "repro_transport_connections", "Open gateway connections."
        )


async def service_snapshot_dict(service) -> dict:
    """A service's snapshot as a plain dict, whatever its surface.

    ``DisseminationService.snapshot`` is sync and returns a dataclass;
    the cluster router's is a coroutine returning an already-merged
    dict.  Every front end (gateway, HTTP) funnels through here.
    """
    snapshot = service.snapshot()
    if asyncio.iscoroutine(snapshot):
        snapshot = await snapshot
    return snapshot if isinstance(snapshot, dict) else snapshot.to_dict()


class _BadRequest(Exception):
    """A well-framed request the service refused; reply, keep serving."""


def _field(frame: dict, name: str):
    try:
        return frame[name]
    except KeyError:
        raise _BadRequest(
            f"frame {frame.get('t')!r} is missing field {name!r}"
        ) from None


def _slice_count(conn: "_Connection", frame: dict) -> int:
    """The state slice length a request asks for (``count``), within
    what the connection's frame bound carries."""
    count = int(_field(frame, "count"))
    return max(1, min(count, state_slice_chars(conn.max_frame_bytes)))


class _Connection:
    """Per-socket state: the corked writer, the delivery link and the
    subscriptions it carries.

    Outbound frames are never written one by one.  Every write site
    appends its encoded bytes to one FIFO and a single ``call_soon``
    flush hands whatever the current event-loop pass queued — an ack,
    the decided frames of every pump that woke, a control reply — to
    the transport in one ``write``.  Encoding and queueing happen with
    no ``await`` in between, so frames reach the wire in the order they
    were encoded: a binary attribute-name delta precedes the first
    frame that uses the id, and a ``qos_update`` pushed under the
    source lock precedes the ack of a later ``re_filter``.
    """

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        max_frame_bytes: int,
        encoder: BinaryEncoder,
        metrics: Optional[_TransportMetrics] = None,
    ):
        self.reader = reader
        self.writer = writer
        self.max_frame_bytes = max_frame_bytes
        #: Encodes this connection's ``decided`` frames; control frames
        #: are JSON (:func:`encode_frame`).
        self.encoder = encoder
        #: Features agreed in the hello.
        self.features: list[str] = []
        self.metrics = metrics
        if metrics is not None:
            # Metric children resolved once, not per frame.
            self._frames_in = metrics.frames.labels("in")
            self._bytes_in = metrics.bytes.labels("in")
            self._frames_out = metrics.frames.labels("out")
            self._bytes_out = metrics.bytes.labels("out")
        #: The link this connection's sessions share.
        self.link = DeliveryLink()
        #: The link's pump, and frame-too-large retirements.
        self.tasks: set[asyncio.Task] = set()
        #: Live subscriptions, by their queue.
        self.sessions: dict[object, object] = {}
        #: Source-state staging, per source: the JSON text of an export
        #: or snapshot awaiting ``export_pull``, and the slices of an
        #: import awaiting its ``done`` one.  They belong to the
        #: connection that opened them and go with it.
        self.export_stash: dict[str, str] = {}
        self.import_stash: dict[str, list[str]] = {}
        self.peer = writer.get_extra_info("peername")
        self._loop = asyncio.get_running_loop()
        self._corked: list[bytes] = []
        self._corked_bytes = 0
        self._flush_scheduled = False
        # Flushing at the transport's own high-water mark keeps a
        # slow consumer's backpressure as prompt as uncorked writes.
        self._cork_limit = min(
            _CORK_MAX_BYTES, writer.transport.get_write_buffer_limits()[1]
        )

    def spawn(self, coro) -> None:
        """Run ``coro`` as one of this connection's tasks."""
        task = asyncio.ensure_future(coro)
        self.tasks.add(task)
        task.add_done_callback(self.tasks.discard)

    def count_in(self, nbytes: int, nframes: int) -> None:
        """Account one read chunk and the frames it completed."""
        if self.metrics is not None:
            self._bytes_in.inc(nbytes)
            if nframes:
                self._frames_in.inc(nframes)

    # ------------------------------------------------------------------
    # Corked writer
    # ------------------------------------------------------------------
    def _corked_frame(self, nbytes: int) -> None:
        """Account one frame just appended to the FIFO; arrange its flush."""
        if self.metrics is not None:
            self._frames_out.inc()
            self._bytes_out.inc(nbytes)
        self._corked_bytes += nbytes
        if self._corked_bytes >= self._cork_limit:
            self.flush()
        elif not self._flush_scheduled:
            self._flush_scheduled = True
            self._loop.call_soon(self.flush)

    def flush(self) -> None:
        """Hand everything corked so far to the transport in one write."""
        self._flush_scheduled = False
        corked = self._corked
        if not corked:
            return
        data = b"".join(corked)
        corked.clear()
        self._corked_bytes = 0
        self.writer.write(data)
        if self.metrics is not None:
            self.metrics.socket_writes.inc()

    async def _drain(self) -> None:
        """Drain the socket, charging wait time to the stall counter."""
        if self.metrics is None:
            await self.writer.drain()
            return
        started = time.perf_counter()
        await self.writer.drain()
        self.metrics.stall.inc(time.perf_counter() - started)

    def post(self, frame: dict) -> None:
        """Cork one control frame without awaiting the socket.

        For callers that may not await (the QoS listener runs under the
        source lock); everything else goes through :meth:`send`.
        """
        payload = encode_frame(frame, max_frame_bytes=self.max_frame_bytes)
        self._corked.append(payload)
        self._corked_frame(len(payload))

    async def send(self, frame: dict) -> None:
        """Cork one frame, then honour the socket's backpressure."""
        self.post(frame)
        await self._drain()

    async def send_ingest_ack(self, seq: int, emissions: int) -> None:
        """Cork the binary ``ok`` of an ``ingest_batch``, then honour
        the socket's backpressure."""
        payload = encode_ingest_ack(seq, emissions)
        self._corked.append(payload)
        self._corked_frame(len(payload))
        await self._drain()

    def post_decided(self, apps, batch, *, traces=None) -> None:
        """Cork one decided frame naming ``apps``, without awaiting.

        The body pieces are the per-tuple segments shared with every
        other connection this batch's tuples went to; they are corked by
        reference and copied once, by the flush that joins them with
        everything else bound for this socket.
        """
        pieces, total = self.encoder.decided_frame(
            apps,
            batch,
            max_frame_bytes=self.max_frame_bytes,
            traces=traces,
        )
        self._corked.append(pack_header(total))
        self._corked.extend(pieces)
        self._corked_frame(total + 4)

    async def send_quiet(self, frame: dict) -> None:
        """Best-effort send on teardown paths (peer may be gone)."""
        try:
            await self.send(frame)
        except (ConnectionError, RuntimeError):
            pass

    def close(self) -> None:
        """Flush what is corked, then close the transport gracefully."""
        self.export_stash.clear()
        self.import_stash.clear()
        self.flush()
        self.writer.close()

    def abort(self) -> None:
        transport = self.writer.transport
        if transport is not None and not transport.is_closing():
            # A reply corked this very pass (an auth or version error)
            # must reach the socket before the transport is dropped.
            self.flush()
            transport.abort()


class GatewayServer:
    """Asyncio TCP front end for one dissemination service.

    ``service`` is usually a :class:`DisseminationService`; any object
    with the same async data-path surface works — the multi-process
    router (:class:`repro.service.cluster.ClusterService`) plugs in
    here, which is what makes the front tier reusable: client
    connections, subscriptions and decided fan-out are identical whether
    one broker or N worker processes sit behind them.  ``snapshot()``,
    ``close()`` and ``add_source()`` may be coroutines on such services;
    the dispatch paths await them when they are.
    """

    def __init__(
        self,
        service: DisseminationService,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        auth_token: Optional[str] = None,
        max_frame_bytes: int = MAX_FRAME_BYTES,
        sndbuf_bytes: Optional[int] = None,
        telemetry: Optional[Telemetry] = None,
    ):
        self.service = service
        self.host = host
        self._requested_port = port
        self.auth_token = auth_token
        self.max_frame_bytes = max_frame_bytes
        #: Shrink each connection's socket send buffer (tests and
        #: benchmarks use this to make slow-consumer backpressure kick in
        #: after kilobytes instead of megabytes of kernel buffering).
        self.sndbuf_bytes = sndbuf_bytes
        # Encode-once state shared by every connection: one sender-side
        # attribute-name table (binary ids are global to the server) and
        # one segment cache.
        self._name_table = NameTable()
        self._segment_cache = SegmentCache(_SEGMENT_CACHE_SIZE)
        self._server: Optional[asyncio.base_events.Server] = None
        self._connections: set[_Connection] = set()
        self._handlers: set[asyncio.Task] = set()
        self._shutting_down = False
        self.telemetry = telemetry
        self._metrics: Optional[_TransportMetrics] = None
        if telemetry is not None:
            self._metrics = _TransportMetrics(telemetry)
            cache = self._segment_cache
            cache_hits = telemetry.registry.counter(
                "repro_transport_segment_cache_hits_total",
                "Encode-once segment cache hits.",
            ).labels()
            cache_misses = telemetry.registry.counter(
                "repro_transport_segment_cache_misses_total",
                "Encode-once segment cache misses.",
            ).labels()

            def _collect_cache() -> None:
                cache_hits.value = float(cache.hits)
                cache_misses.value = float(cache.misses)

            telemetry.registry.register_collector(_collect_cache)

    async def _snapshot_dict(self) -> dict:
        return await service_snapshot_dict(self.service)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def port(self) -> int:
        """The bound port (resolves an ephemeral ``port=0`` after start)."""
        if self._server is None:
            return self._requested_port
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        if self._server is not None:
            raise RuntimeError("gateway already started")
        self._server = await asyncio.start_server(
            self._on_connection, self.host, self._requested_port
        )

    async def shutdown(
        self, *, reason: str = "shutdown", drain_timeout_s: float = 5.0
    ) -> dict:
        """Graceful stop; returns the terminal service snapshot dict.

        Order matters: the service closes *first* (cutover of every live
        engine plus a final flush of every session batcher into its
        queue), so the still-running pumps drain those closing batches
        onto the sockets before the connections are dismissed with
        ``bye``.  A pump wedged on an unresponsive peer is given
        ``drain_timeout_s`` and then cancelled — shutdown never hangs on
        a dead consumer.
        """
        self._shutting_down = True
        if self._server is not None:
            # Stop accepting, but do NOT await wait_closed() yet: since
            # Python 3.12.1 it waits for every connection handler to
            # finish, and ours only finish after the teardown below.
            self._server.close()
        # service.close() can wedge: a producer's inline offer may hold a
        # source lock while blocked on a full `block`-policy queue whose
        # pump is stalled against an unresponsive reader.  Give the
        # close a drain window; on timeout, declare every *full* gateway
        # session dead (close its queue, waking the blocked producer and
        # releasing the lock) and let the close finish.  Idle sessions
        # keep their queues open and still get their final flush.
        close_task = asyncio.ensure_future(self.service.close())
        done, _ = await asyncio.wait({close_task}, timeout=drain_timeout_s)
        if close_task not in done:
            for conn in list(self._connections):
                for session in list(conn.sessions.values()):
                    queue = session.queue
                    if not queue.closed and queue.depth >= queue.capacity:
                        session.disconnected = True
                        await queue.close()
        await close_task
        for conn in list(self._connections):
            # Every session is closed: the pump ends after their ends.
            conn.link.close()
            pumps = [task for task in conn.tasks if not task.done()]
            wedged = False
            if pumps:
                _, pending = await asyncio.wait(
                    pumps, timeout=drain_timeout_s
                )
                for task in pending:
                    task.cancel()
                wedged = bool(pending)
            if wedged:
                # The peer stopped reading: its socket buffers are full,
                # so a polite bye (or a graceful close waiting to flush)
                # would block forever.  Drop the transport.
                conn.abort()
                continue
            try:
                await asyncio.wait_for(
                    conn.send_quiet({"t": "bye", "reason": reason}),
                    timeout=drain_timeout_s,
                )
            except asyncio.TimeoutError:
                conn.abort()
                continue
            conn.close()
        if self._handlers:
            await asyncio.gather(*self._handlers, return_exceptions=True)
        if self._server is not None:
            await self._server.wait_closed()
        return await self._snapshot_dict()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.ensure_future(self._handle(reader, writer))
        self._handlers.add(task)
        task.add_done_callback(self._handlers.discard)

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        if self.sndbuf_bytes is not None:
            sock = writer.get_extra_info("socket")
            if sock is not None:
                sock.setsockopt(
                    socket.SOL_SOCKET, socket.SO_SNDBUF, self.sndbuf_bytes
                )
            writer.transport.set_write_buffer_limits(high=self.sndbuf_bytes)
        # After the buffer limits: the connection sizes its cork by them.
        conn = _Connection(
            reader,
            writer,
            self.max_frame_bytes,
            BinaryEncoder(self._name_table, self._segment_cache),
            metrics=self._metrics,
        )
        if self._metrics is not None:
            self._metrics.connections.inc()
        self._connections.add(conn)
        conn.spawn(self._pump(conn))
        try:
            await self._serve_connection(conn)
        except ProtocolError as exc:
            await conn.send_quiet(
                {"t": "error", "code": exc.code, "message": str(exc)}
            )
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            if self._metrics is not None:
                self._metrics.connections.dec()
            self._connections.discard(conn)
            await self._reap(conn)
            conn.close()
            try:
                await conn.writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    async def _serve_connection(self, conn: _Connection) -> None:
        decoder = FrameDecoder(max_frame_bytes=self.max_frame_bytes)
        greeted = False
        while True:
            # Deliberately no flush here: an ack leaves with the pass
            # that also ran the pumps.  Released earlier, acks let a
            # closed-loop producer keep this loop (read() does not yield
            # while input is buffered) and starve delivery — measured as
            # +31% delivery p50 and an unsaturated server on decide-heavy.
            data = await conn.reader.read(_READ_CHUNK)
            if not data:
                return
            nframes = 0
            try:
                for frame in decoder.frames(data):
                    nframes += 1
                    if not greeted:
                        if not await self._greet(conn, frame):
                            return
                        greeted = True
                        continue
                    if frame.get("t") == "bye":
                        return
                    await self._dispatch(conn, frame)
            finally:
                conn.count_in(len(data), nframes)

    async def _greet(self, conn: _Connection, frame: dict) -> bool:
        seq = frame.get("seq")
        if frame.get("t") != "hello":
            raise ProtocolError("the first frame must be 'hello'")
        if frame.get("v") != PROTOCOL_VERSION:
            await conn.send_quiet(
                {
                    "t": "error",
                    "reply_to": seq,
                    "code": "version",
                    "message": f"server speaks v{PROTOCOL_VERSION}, "
                    f"client offered {frame.get('v')!r}",
                }
            )
            return False
        if self.auth_token is not None and frame.get("token") != self.auth_token:
            await conn.send_quiet(
                {
                    "t": "error",
                    "reply_to": seq,
                    "code": "auth",
                    "message": "bad or missing auth token",
                }
            )
            return False
        offered_features = frame.get("features")
        if offered_features is not None and (
            not isinstance(offered_features, list)
            or not all(isinstance(name, str) for name in offered_features)
        ):
            raise ProtocolError("hello 'features' must be a list of strings")
        features = negotiate_features(offered_features)
        await conn.send(
            {
                "t": "welcome",
                "reply_to": seq,
                "v": PROTOCOL_VERSION,
                "server": "repro-gateway",
                "sources": list(self.service.sources()),
                "features": features,
            }
        )
        conn.features = features
        return True

    # ------------------------------------------------------------------
    # Request dispatch
    # ------------------------------------------------------------------
    async def _dispatch(self, conn: _Connection, frame: dict) -> None:
        kind = frame.get("t")
        seq = frame.get("seq")
        try:
            if kind == "ingest_batch":
                await self._on_ingest_batch(conn, frame, seq)
            elif kind == "subscribe":
                await self._on_subscribe(conn, frame, seq)
            elif kind == "unsubscribe":
                await self.service.unsubscribe(_field(frame, "app"))
                await conn.send({"t": "ok", "reply_to": seq})
            elif kind == "re_filter":
                await self.service.re_filter(
                    _field(frame, "app"), _field(frame, "spec")
                )
                await conn.send({"t": "ok", "reply_to": seq})
            elif kind == "tick":
                source = frame.get("source")
                if source is not None and (
                    not isinstance(source, str)
                    or not self.service.has_source(source)
                ):
                    raise _BadRequest(f"tick names unknown source {source!r}")
                emissions = await self.service.tick(
                    float(_field(frame, "now_ms")), source
                )
                if seq is not None:
                    await conn.send(
                        {"t": "ok", "reply_to": seq, "emissions": emissions}
                    )
            elif kind == "snapshot":
                snapshot = await self._snapshot_dict()
                if frame.get("window") and hasattr(self.service, "decide_window"):
                    # Raw latency window for cross-process percentile
                    # merging (a router cannot merge percentiles).
                    snapshot = {
                        **snapshot,
                        "decide_window_ms": list(self.service.decide_window()),
                    }
                await conn.send(
                    {
                        "t": "snapshot",
                        "reply_to": seq,
                        "snapshot": snapshot,
                    }
                )
            elif kind in ("export_source", "snapshot_source"):
                await self._send_source_state(conn, frame, seq)
            elif kind == "export_pull":
                name = _field(frame, "source")
                text = conn.export_stash.get(name)
                if text is None:
                    raise _BadRequest(f"no export of {name!r} to pull")
                offset = int(_field(frame, "offset"))
                await self._send_slice(
                    conn, seq, name, text, offset, _slice_count(conn, frame)
                )
            elif kind == "import_chunk":
                await self._on_import_chunk(conn, frame, seq)
            elif kind == "ensure_source":
                name = _field(frame, "source")
                created = not self.service.has_source(name)
                if created:
                    result = self.service.add_source(name)
                    if asyncio.iscoroutine(result):
                        await result
                await conn.send(
                    {"t": "ok", "reply_to": seq, "created": created}
                )
            else:
                raise ProtocolError(
                    f"unknown frame type {kind!r}", code="unknown_type"
                )
        except FrameTooLarge as exc:
            # A reply past the bound (a snapshot of a long-lived
            # broker): refuse the request, not the connection.
            await conn.send(
                {
                    "t": "error",
                    "reply_to": seq,
                    "code": exc.code,
                    "message": str(exc),
                }
            )
        except (
            _BadRequest,
            KeyError,
            ValueError,
            TypeError,
            AttributeError,
            RuntimeError,
        ) as exc:
            # Includes mistyped payloads (float() of a list, a string
            # where the qos object belongs): reply and keep serving
            # rather than tearing down every subscription on the socket.
            message = str(exc) or repr(exc)
            await conn.send(
                {
                    "t": "error",
                    "reply_to": seq,
                    "code": "bad_request",
                    "message": message,
                }
            )

    def _open_traces(self, frame: dict, source: str, records) -> None:
        """Open traces for sampled tuples before they reach the broker.

        The bag entry carries any ``(stage, ns)`` pairs accumulated by
        upstream hops (client, router) off the wire frame; the broker
        closes the ``ingest_recv`` stage at admission.
        """
        tele = self.telemetry
        if tele is None or not tele.tracer.enabled:
            return
        if isinstance(self.service, DisseminationService):
            # A broker builds every tuple before its first offer anyway.
            seqs = [item.seq for item in records]
        else:
            # A relay never builds them: its framing check has the seqs.
            seqs = records.seqs
        sampled = [seq for seq in seqs if tele.tracer.sampled(source, seq)]
        if not sampled:
            return
        carried = traces_from_wire(frame)
        recv_ns = time.perf_counter_ns()
        for seq in sampled:
            tele.bag.begin((source, seq), recv_ns, carried.get(seq))

    async def _send_source_state(self, conn: _Connection, frame: dict, seq) -> None:
        """Reply with the first slice of a source's portable state.

        ``export_source`` detaches the source (migration), and its reply
        follows the end of each detached stream on this connection;
        ``snapshot_source`` copies it non-destructively (a cluster
        router's failover record), and its reply follows every
        ``decided`` frame this connection's sessions of the source were
        shipped before it.  Either way the caller holds each stream up
        to the state's ``shipped`` offsets when the reply arrives.  The
        state is JSON-encoded once; what the first slice leaves waits
        in the connection's stash for ``export_pull``.
        """
        name = _field(frame, "source")
        count = _slice_count(conn, frame)
        if frame["t"] == "export_source":
            state = await self.service.export_source(name)
        else:
            state = await self.service.snapshot_source(name)
        # The pump has written what the state counts (and, for an
        # export, each detached stream's end) once it took it all.
        await conn.link.drained()
        text = json.dumps(state, separators=(",", ":"))
        conn.export_stash[name] = text
        await self._send_slice(conn, seq, name, text, 0, count)

    @staticmethod
    async def _send_slice(
        conn: _Connection, seq, name: str, text: str, offset: int, count: int
    ) -> None:
        """Reply with ``count`` characters of ``text`` from ``offset``;
        the last slice drops the stash."""
        chunk = text[offset : offset + count]
        done = offset + len(chunk) >= len(text)
        if done:
            conn.export_stash.pop(name, None)
        await conn.send({"t": "ok", "reply_to": seq, "chunk": chunk, "done": done})

    async def _on_import_chunk(self, conn: _Connection, frame: dict, seq) -> None:
        """Stage one slice of a source's state; the ``done`` slice
        imports the joined text.  A refused slice drops the import."""
        name = _field(frame, "source")
        staged = conn.import_stash.pop(name, [])
        chunk = _field(frame, "chunk")
        if not isinstance(chunk, str):
            raise _BadRequest("import_chunk 'chunk' must be a string")
        staged.append(chunk)
        if not frame.get("done"):
            conn.import_stash[name] = staged
            await conn.send({"t": "ok", "reply_to": seq})
            return
        try:
            state = json.loads("".join(staged))
        except ValueError as exc:
            raise _BadRequest(f"the state of {name!r} is not JSON: {exc}") from None
        if not isinstance(state, dict) or not isinstance(
            state.get("checkpoint"), (list, type(None))
        ):
            raise _BadRequest(
                f"the state of {name!r} needs a 'checkpoint' list or null"
            )
        restored = await self.service.import_source(name, state)
        await conn.send({"t": "ok", "reply_to": seq, "restored": restored})

    async def _on_ingest_batch(
        self, conn: _Connection, frame: dict, seq
    ) -> None:
        # Inline: a block-policy stall anywhere in the batch pauses this
        # connection's read loop, so backpressure reaches the producer.
        source = _field(frame, "source")
        # Binary-only frame: its records, undecoded (TupleRecords).  A
        # broker builds every tuple before its first offer; a cluster
        # router forwards the bytes.
        records = _field(frame, "tuples")
        self._open_traces(frame, source, records)
        emissions = await self.service.offer_many(source, records)
        if seq is not None:
            await conn.send_ingest_ack(seq, emissions)

    async def _on_subscribe(
        self, conn: _Connection, frame: dict, seq
    ) -> None:
        app = _field(frame, "app")
        spec = _field(frame, "spec")
        qos_profile = frame.get("qos")
        qos: Optional[QualitySpec] = None
        if qos_profile is not None:
            tolerance = qos_profile.get("latency_tolerance_ms")
            qos = QualitySpec(
                app_name=app,
                filter_spec=spec,
                latency_tolerance_ms=(
                    float(tolerance) if tolerance is not None else None
                ),
                priority=int(qos_profile.get("priority", 0)),
            )
        ladder = frame.get("degradation")
        degradation = None
        degradation_config = None
        if ladder is not None:
            # Malformed profiles raise ValueError, which _dispatch turns
            # into a bad_request reply instead of a socket teardown.
            degradation, degradation_config = policy_from_profile(ladder, app)
        session = await self.service.subscribe(
            app,
            _field(frame, "source"),
            spec,
            queue_capacity=frame.get("queue_capacity"),
            overflow=frame.get("overflow"),
            batch_max_items=frame.get("batch_max_items"),
            batch_max_delay_ms=frame.get("batch_max_delay_ms"),
            qos=qos,
            degradation=degradation,
            degradation_config=degradation_config,
            link=conn.link,
        )
        if degradation is not None and FEATURE_QOS in conn.features:
            # Invoked synchronously under the source lock: cork the
            # push, never await on the listener path.  Corked there, it
            # precedes every frame encoded after the lock is released —
            # the ack of a client re_filter included.
            def _push_qos(update: dict, conn=conn) -> None:
                conn.post({"t": "qos_update", **update})

            session.qos_listener = _push_qos
        conn.sessions[session.queue] = session
        await conn.send({"t": "ok", "reply_to": seq, **session.bounds})

    # ------------------------------------------------------------------
    # Delivery pump
    # ------------------------------------------------------------------
    async def _pump(self, conn: _Connection) -> None:
        """Write the connection's delivery link's items onto the socket.

        Each batch is one ``decided`` frame naming every app it is for;
        each ended app gets its ``closed`` frame after its last batch.
        The pump takes everything queued at once and drains the socket
        once per take: a remote reader that stops consuming stalls the
        pump, the apps' pending batches pile up to their bounds, and
        their overflow policies take over — the socket inherits the
        broker's backpressure semantics.
        """
        tele = self.telemetry
        observe = tele is not None
        link = conn.link
        try:
            while True:
                try:
                    items = await link.take()
                except StopAsyncIteration:
                    return
                for batch, queues in items:
                    if batch is None:
                        if self._end_stream(conn, queues[0]):
                            return
                        continue
                    wire_traces = None
                    write_start_ns = 0
                    if observe and batch.traces is not None:
                        tmap = batch.traces[1]
                        # Stamped with its queue dwell last, on every
                        # trace, as it was taken.
                        dwell = next(iter(tmap.values()))[-1][1]
                        for _ in queues:
                            tele.observe_stage(STAGE_SESSION_QUEUE, dwell)
                        if FEATURE_TRACE in conn.features:
                            wire_traces = tmap
                        write_start_ns = time.perf_counter_ns()
                    try:
                        conn.post_decided(
                            [queue.app for queue in queues],
                            batch,
                            traces=wire_traces,
                        )
                    except ProtocolError:
                        await self._too_large(conn, queues)
                        continue
                    if write_start_ns:
                        # Encode + cork, once per app it names; the flush
                        # that writes it follows within one loop pass, so
                        # this stage is histogram-only (never rides the
                        # wire).
                        dur = time.perf_counter_ns() - write_start_ns
                        for _ in queues:
                            tele.observe_stage(STAGE_SOCKET_WRITE, dur)
                await conn._drain()
        except (ConnectionError, RuntimeError):
            # Socket died mid-delivery; the handler's teardown reclaims
            # the subscriptions (and the broker re-counts the loss).
            # Nothing will take from the link again: release a request
            # waiting for it to drain.
            link.close()

    def _end_stream(self, conn: _Connection, queue) -> bool:
        """Cork one ended app's ``closed`` frame (its subscription is over:
        unsubscribe, export, shutdown or overflow); True when that closed
        the connection.

        Forgetting the session means a later teardown of this connection
        cannot unsubscribe a re-registered app of the same name now
        owned by someone else.
        """
        session = conn.sessions.pop(queue, None)
        if session is None:
            return False  # retired for its frame size
        if session.disconnected:
            reason = "overflow_disconnect"
        elif self._shutting_down:
            reason = "shutdown"
        elif session.migrated:
            reason = "migrated"
        else:
            reason = "unsubscribed"
        conn.post({"t": "closed", "app": session.app_name, "reason": reason})
        if session.disconnected:
            # The disconnect overflow policy means it: drop the socket,
            # not just the session, so the laggard notices immediately.
            conn.close()
            return True
        return False

    async def _too_large(self, conn: _Connection, queues) -> None:
        """End the apps of a batch that encodes past ``max_frame_bytes``.

        It cannot be delivered whole; end the subscriptions honestly
        rather than dropping it silently.  Their queues close at once
        (a producer blocked on one of them holds the source lock, and
        waking it is what lets the unsubscribe take that lock); the
        unsubscribe and the ``closed`` frame follow in a task of their
        own, so this pump keeps serving the connection's other apps.
        """
        for queue in queues:
            session = conn.sessions.pop(queue, None)
            if session is None:
                continue
            session.disconnected = True
            queue.drain_nowait()
            await queue.close()
            conn.spawn(self._retire_too_large(conn, session.app_name))

    async def _retire_too_large(self, conn: _Connection, app: str) -> None:
        try:
            await self.service.unsubscribe(app)
        except (KeyError, RuntimeError):
            pass
        await conn.send_quiet(
            {"t": "closed", "app": app, "reason": "frame_too_large"}
        )

    async def _reap(self, conn: _Connection) -> None:
        """Reclaim a dead connection's subscriptions and pump tasks.

        The open sessions' queues close first, as in :meth:`_too_large`:
        a producer parked on a full ``block`` queue of theirs holds the
        source lock that the unsubscribes take, and nothing reads the
        link any more to wake it.
        """
        conn.abort()
        if not self._shutting_down:
            # Sessions closed already ended; their pump just never said so.
            live = [s for s in conn.sessions.values() if not s.queue.closed]
            for session in live:
                await session.queue.close()
            for session in live:
                try:
                    await self.service.unsubscribe(session.app_name)
                except (KeyError, RuntimeError):
                    # Already detached (broker-side disconnect) or the
                    # service closed underneath us.
                    pass
        conn.link.close()
        if conn.tasks:
            await asyncio.gather(*conn.tasks, return_exceptions=True)
