"""TCP gateway: the dissemination broker behind real sockets.

:class:`GatewayServer` accepts TCP connections speaking the
length-prefixed protocol of :mod:`repro.transport.protocol` and
bridges them onto a live :class:`~repro.service.broker.DisseminationService`:

* **ingest producers** send ``ingest`` frames; each is offered to the
  broker *inline* in the connection's read loop, so a ``block`` overflow
  policy on any subscriber propagates as backpressure all the way to the
  producer's socket (the server simply stops reading further frames
  until the offer completes);
* **subscribers** send ``subscribe``; the server attaches a
  :class:`~repro.service.session.SubscriberSession` and starts a *pump*
  task that forwards every delivered batch as a ``decided`` frame.  The
  pump awaits ``drain()`` on the socket, so a remote reader that stops
  consuming fills the kernel buffers, stalls the pump, and lets the
  session's bounded queue apply its overflow policy — ``drop_oldest``
  drops server-side, ``disconnect`` reaps the session *and closes the
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
import socket
import time
from typing import Optional

from repro.obs.telemetry import Telemetry
from repro.obs.trace import (
    STAGE_SESSION_QUEUE,
    STAGE_SOCKET_WRITE,
    stage_id,
)
from repro.qos.controller import policy_from_profile
from repro.qos.spec import QualitySpec
from repro.service.broker import DisseminationService
from repro.service.session import SubscriberSession
from repro.transport.codec import BinaryEncoder, NameTable, SegmentCache
from repro.transport.protocol import (
    FEATURE_QOS,
    FEATURE_TRACE,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    FrameDecoder,
    ProtocolError,
    encode_frame,
    negotiate_features,
    pack_header,
    traces_from_wire,
    tuple_from_wire,
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

_SID_SESSION_QUEUE = stage_id(STAGE_SESSION_QUEUE)


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


def _row_from_wire(row) -> list:
    """One checkpoint tuple-table row, ``[seq, timestamp, name, value,
    ...]``, checked and coerced as an ingested tuple would be."""
    try:
        seq, timestamp, *pairs = row
        names = pairs[::2]
        if len(pairs) % 2 or not all(isinstance(name, str) for name in names):
            raise ValueError("a row is seq, timestamp, then name/value pairs")
        out = [int(seq), float(timestamp)]
        for name, value in zip(names, pairs[1::2]):
            out += (name, float(value))
    except (TypeError, ValueError, OverflowError) as exc:
        raise _BadRequest(f"malformed checkpoint row: {exc}") from None
    return out


class _Import:
    """One connection's inbound source state, between ``import_begin``
    (which announces the tuple-table rows) and ``import_commit``."""

    __slots__ = ("expected", "rows")

    def __init__(self, expected: int):
        self.expected = expected
        self.rows: list[list] = []


class _Connection:
    """Per-socket state: the corked writer and owned subscriptions.

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
        self.pumps: dict[str, asyncio.Task] = {}
        self.sessions: dict[str, SubscriberSession] = {}
        #: Live-migration staging, per source: exported tuple tables
        #: awaiting ``export_pull`` and imports awaiting their commit.
        #: They belong to the connection that opened them and go with it.
        self.export_stash: dict[str, list] = {}
        self.import_stash: dict[str, _Import] = {}
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

    async def send_decided(self, app: str, batch, *, traces=None) -> None:
        """Fan one decided batch out as header + shared body pieces.

        The pieces are the per-tuple segments shared by every session
        this batch's tuples fanned out to; they are corked by reference
        and copied once, by the flush that joins them with everything
        else bound for this socket.
        """
        pieces, total = self.encoder.decided_pieces(
            app,
            batch,
            max_frame_bytes=self.max_frame_bytes,
            traces=traces,
        )
        self._corked.append(pack_header(total))
        self._corked.extend(pieces)
        self._corked_frame(total + 4)
        await self._drain()

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
            pumps = [task for task in conn.pumps.values() if not task.done()]
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
            frames = decoder.feed(data)
            conn.count_in(len(data), len(frames))
            for frame in frames:
                if not greeted:
                    if not await self._greet(conn, frame):
                        return
                    greeted = True
                    continue
                if frame.get("t") == "bye":
                    return
                await self._dispatch(conn, frame)

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
            if kind == "ingest":
                await self._on_ingest(conn, frame, seq)
            elif kind == "ingest_batch":
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
            elif kind == "export_source":
                await self._send_source_state(
                    conn,
                    seq,
                    _field(frame, "source"),
                    destructive=True,
                )
            elif kind == "snapshot_source":
                await self._send_source_state(
                    conn,
                    seq,
                    _field(frame, "source"),
                    destructive=False,
                )
            elif kind == "export_pull":
                name = _field(frame, "source")
                offset = int(_field(frame, "offset"))
                count = max(1, int(_field(frame, "count")))
                rows = conn.export_stash.get(name, [])
                chunk = rows[offset : offset + count]
                done = offset + len(chunk) >= len(rows)
                if done:
                    conn.export_stash.pop(name, None)
                await conn.send(
                    {"t": "ok", "reply_to": seq, "rows": chunk, "done": done}
                )
            elif kind == "import_begin":
                rows = int(_field(frame, "rows"))
                if rows < 0:
                    raise _BadRequest(f"import_begin announces {rows} rows")
                conn.import_stash[_field(frame, "source")] = _Import(rows)
                await conn.send({"t": "ok", "reply_to": seq})
            elif kind == "import_chunk":
                self._on_import_chunk(conn, frame)
                await conn.send({"t": "ok", "reply_to": seq})
            elif kind == "import_commit":
                await self._on_import_commit(conn, frame, seq)
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

    def _open_traces(self, frame: dict, source: str, items) -> None:
        """Open traces for sampled tuples before they reach the broker.

        The bag entry carries any ``(stage, ns)`` pairs accumulated by
        upstream hops (client, router) off the wire frame; the broker
        closes the ``ingest_recv`` stage at admission.
        """
        tele = self.telemetry
        if tele is None or not tele.tracer.enabled:
            return
        sampled = [
            item for item in items if tele.tracer.sampled(source, item.seq)
        ]
        if not sampled:
            return
        carried = traces_from_wire(frame)
        recv_ns = time.perf_counter_ns()
        for item in sampled:
            tele.bag.begin(
                (source, item.seq), recv_ns, carried.get(item.seq)
            )

    async def _send_source_state(
        self, conn: _Connection, seq, name: str, *, destructive: bool
    ) -> None:
        """Reply with a source's portable state; tuple table chunked.

        ``export_source`` detaches the source (migration);
        ``snapshot_source`` copies it non-destructively (a cluster
        router's failover checkpoint), and its reply follows every
        ``decided`` frame this connection's sessions of the source were
        shipped before it, so the caller holds each stream up to the
        state's ``shipped`` offsets when the reply arrives.  Either way
        the reply carries the state with the checkpoint minus its tuple
        table (the last element, and the one part that can exceed a
        frame), whose length is ``rows``; the caller streams the table
        with ``export_pull`` until ``done``.
        """
        if destructive:
            state = await self.service.export_source(name)
        else:
            state = await self.service.snapshot_source(name)
            for session in list(conn.sessions.values()):
                if session.source_name == name:
                    await session.queue.drained()
        checkpoint = state["checkpoint"]
        rows: list = []
        if checkpoint is not None:
            rows = checkpoint[-1]
            state["checkpoint"] = checkpoint[:-1]
        if rows:
            conn.export_stash[name] = rows
        state["rows"] = len(rows)
        state["subscriptions"] = [list(sub) for sub in state["subscriptions"]]
        await conn.send({"t": "ok", "reply_to": seq, "state": state})

    @staticmethod
    def _on_import_chunk(conn: _Connection, frame: dict) -> None:
        """Stage tuple-table rows, never more than ``import_begin``
        announced: an import that overruns is dropped and refused."""
        name = _field(frame, "source")
        pending = conn.import_stash.get(name)
        if pending is None:
            raise _BadRequest(f"no import in progress for source {name!r}")
        rows = _field(frame, "rows")
        if not isinstance(rows, list):
            raise _BadRequest("import_chunk 'rows' must be a list")
        if len(pending.rows) + len(rows) > pending.expected:
            del conn.import_stash[name]
            raise _BadRequest(
                f"import of {name!r} announced {pending.expected} rows, "
                f"got {len(pending.rows) + len(rows)}"
            )
        pending.rows.extend(_row_from_wire(row) for row in rows)

    async def _on_import_commit(
        self, conn: _Connection, frame: dict, seq
    ) -> None:
        name = _field(frame, "source")
        pending = conn.import_stash.pop(name, None)
        if pending is None:
            raise _BadRequest(f"no import in progress for source {name!r}")
        if len(pending.rows) != pending.expected:
            raise _BadRequest(
                f"import of {name!r} announced {pending.expected} rows, "
                f"got {len(pending.rows)}"
            )
        checkpoint = frame.get("checkpoint")
        if checkpoint is not None:
            if not isinstance(checkpoint, list):
                raise _BadRequest("import_commit 'checkpoint' must be a list")
            checkpoint = [*checkpoint, pending.rows]
        restored = await self.service.import_source(
            name,
            {
                "checkpoint": checkpoint,
                "fed": int(frame.get("fed", 0)),
                "offered": int(frame.get("offered", 0)),
            },
        )
        await conn.send({"t": "ok", "reply_to": seq, "restored": restored})

    async def _on_ingest(
        self, conn: _Connection, frame: dict, seq
    ) -> None:
        source = _field(frame, "source")
        item = tuple_from_wire(_field(frame, "tuple"))
        self._open_traces(frame, source, (item,))
        emissions = await self.service.offer(source, item)
        if seq is not None:
            await conn.send(
                {"t": "ok", "reply_to": seq, "emissions": emissions}
            )

    async def _on_ingest_batch(
        self, conn: _Connection, frame: dict, seq
    ) -> None:
        # Inline like single ingest: a block-policy stall anywhere in the
        # batch pauses this connection's read loop, so batched producers
        # inherit the same backpressure semantics.
        source = _field(frame, "source")
        items = [tuple_from_wire(t) for t in _field(frame, "tuples")]
        self._open_traces(frame, source, items)
        emissions = await self.service.offer_many(source, items)
        if seq is not None:
            await conn.send(
                {"t": "ok", "reply_to": seq, "emissions": emissions}
            )

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
        degradation_level = 0
        degradation_config = None
        if ladder is not None:
            # Malformed profiles raise ValueError, which _dispatch turns
            # into a bad_request reply instead of a socket teardown.
            degradation, degradation_level, degradation_config = (
                policy_from_profile(ladder, app)
            )
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
            degradation_level=degradation_level,
            degradation_config=degradation_config,
        )
        if degradation is not None and FEATURE_QOS in conn.features:
            # Invoked synchronously under the source lock: cork the
            # push, never await on the listener path.  Corked there, it
            # precedes every frame encoded after the lock is released —
            # the ack of a client re_filter included.
            def _push_qos(update: dict, conn=conn) -> None:
                conn.post({"t": "qos_update", **update})

            session.qos_listener = _push_qos
        conn.sessions[app] = session
        conn.pumps[app] = asyncio.ensure_future(
            self._pump(conn, app, session)
        )
        await conn.send(
            {
                "t": "ok",
                "reply_to": seq,
                "queue_capacity": session.queue.capacity,
                "overflow": session.queue.policy,
                "batch_max_items": session.batcher.max_items,
                "batch_max_delay_ms": session.batcher.max_delay_ms,
            }
        )

    # ------------------------------------------------------------------
    # Delivery pumps
    # ------------------------------------------------------------------
    async def _pump(
        self, conn: _Connection, app: str, session: SubscriberSession
    ) -> None:
        """Forward one session's delivered batches onto the socket.

        ``conn.send_decided`` awaits ``drain()``: a remote reader that
        stops consuming eventually stalls this pump, the session queue fills,
        and the overflow policy takes over — the socket inherits the
        broker's backpressure semantics.
        """
        oversized = False
        tele = self.telemetry
        try:
            async for batch in session.batches():
                wire_traces = None
                write_start_ns = 0
                if tele is not None:
                    notes = session.pop_traces(batch)
                    if notes is not None:
                        enqueue_ns, tmap = notes
                        now_ns = time.perf_counter_ns()
                        qdur = now_ns - enqueue_ns
                        tele.observe_stage(STAGE_SESSION_QUEUE, qdur)
                        for pairs in tmap.values():
                            pairs.append((_SID_SESSION_QUEUE, qdur))
                        if FEATURE_TRACE in conn.features:
                            wire_traces = tmap
                        write_start_ns = now_ns
                try:
                    await conn.send_decided(app, batch, traces=wire_traces)
                    if write_start_ns:
                        # Encode + cork + drain for the whole decided
                        # frame (the flush that writes it follows within
                        # one loop pass); measured after the fact, so this
                        # stage is histogram-only (never rides the wire).
                        tele.observe_stage(
                            STAGE_SOCKET_WRITE,
                            time.perf_counter_ns() - write_start_ns,
                        )
                except ProtocolError:
                    # The batch encodes past max_frame_bytes and cannot
                    # be delivered whole; end the subscription honestly
                    # rather than dropping it silently (or dying and
                    # leaving a full queue to wedge the broker).
                    oversized = True
                    break
        except (ConnectionError, RuntimeError):
            # Socket died mid-delivery; the handler's teardown reclaims
            # the subscription (and the broker re-counts the loss).
            return
        # The subscription is over (unsubscribe, shutdown, overflow or an
        # oversized batch below): forget it, so a later teardown of this
        # connection cannot unsubscribe a re-registered app of the same
        # name now owned by someone else.  Guard against a re-subscribe
        # having already replaced the entries.
        if conn.sessions.get(app) is session:
            del conn.sessions[app]
        if conn.pumps.get(app) is asyncio.current_task():
            del conn.pumps[app]
        if oversized:
            # Close the queue before unsubscribing: a producer blocked on
            # this full queue holds the source lock, and waking it (its
            # put is discarded and drop-counted) is what lets the
            # unsubscribe acquire that lock.
            session.disconnected = True
            await session.queue.close()
            try:
                await self.service.unsubscribe(app)
            except (KeyError, RuntimeError):
                pass
            await conn.send_quiet(
                {"t": "closed", "app": app, "reason": "frame_too_large"}
            )
            return
        if session.disconnected:
            reason = "overflow_disconnect"
        elif self._shutting_down:
            reason = "shutdown"
        else:
            reason = "unsubscribed"
        await conn.send_quiet({"t": "closed", "app": app, "reason": reason})
        if session.disconnected:
            # The disconnect overflow policy means it: drop the socket,
            # not just the session, so the laggard notices immediately.
            conn.close()

    async def _reap(self, conn: _Connection) -> None:
        """Reclaim a dead connection's subscriptions and pump tasks."""
        conn.abort()
        for app in list(conn.pumps):
            if self._shutting_down:
                continue
            try:
                await self.service.unsubscribe(app)
            except (KeyError, RuntimeError):
                # Already detached (broker-side disconnect) or the
                # service closed underneath us.
                pass
        if conn.pumps:
            await asyncio.gather(
                *conn.pumps.values(), return_exceptions=True
            )
            conn.pumps.clear()
