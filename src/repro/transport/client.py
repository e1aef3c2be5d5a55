"""Asyncio client for the dissemination gateway.

:class:`GatewayClient` speaks the :mod:`repro.transport.protocol` wire
format over one TCP connection, multiplexing request/response calls
(``ingest``, ``subscribe``, ``tick``, ``snapshot``, ...) with unsolicited
``decided`` delivery frames.  Subscriptions come back as
:class:`RemoteSubscription` objects whose :meth:`~RemoteSubscription.batches`
iterator mirrors the in-process
:meth:`~repro.service.session.SubscriberSession.batches` — the load
generator, the tests and the examples drive either side of the socket
through the same shape.

Backpressure: each subscription buffers at most ``queue_capacity``
batches client-side.  When a consumer stops draining, the read loop
blocks putting the next batch, the client stops reading the socket, the
kernel windows fill, and the *server's* session queue applies its
overflow policy — slow consumption propagates across the wire instead of
ballooning client memory.  (This also means one wedged consumer stalls
the whole connection, acks included; give independent consumers their
own connections.)
"""

from __future__ import annotations

import asyncio
import itertools
import time
from typing import AsyncIterator, Mapping, Optional, Sequence, Union

from repro.core.tuples import StreamTuple
from repro.obs.telemetry import Telemetry
from repro.obs.trace import STAGE_INGEST_SEND, stage_id
from repro.qos.controller import DegradationConfig, policy_to_profile
from repro.qos.spec import DegradationPolicy, QualitySpec
from repro.service.batching import Batch
from repro.transport.codec import BinaryEncoder
from repro.transport.protocol import (
    FEATURE_QOS,
    FEATURE_TRACE,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    FrameDecoder,
    FrameTooLarge,
    ProtocolError,
    batch_from_wire,
    encode_frame,
    pack_header,
    traces_from_wire,
)

__all__ = [
    "AdaptiveIngest",
    "GatewayError",
    "RemoteSubscription",
    "GatewayClient",
]

_READ_CHUNK = 1 << 16

#: Checkpoint tuple-table rows per frame while streaming a live-migration
#: transfer (kept well under MAX_FRAME_BYTES at typical tuple widths).
_MIGRATION_CHUNK = 1024

_SID_INGEST_SEND = stage_id(STAGE_INGEST_SEND)


class AdaptiveIngest:
    """AIMD sizing of ingest batches from observed ack latency.

    A fixed ``--ingest-batch`` knob forces one batch size onto every
    broker state: too small and the per-frame overhead dominates, too
    large and a loaded broker holds the ack (and the producer's staged
    tuples) for whole scheduling quanta.  This controller replaces the
    fixed knob with the classic congestion-control shape:

    * **additive increase** — while an ack's per-tuple latency stays
      within ``backoff_ratio`` of the best per-tuple latency seen, grow
      the next batch by one tuple (up to ``max_size``);
    * **multiplicative decrease** — an ack slower than that bound halves
      the batch size (down to ``min_size``), so a broker entering
      backpressure (a ``block``-policy stall, a saturated worker) sheds
      staging latency within a few acks.

    The latency baseline inflates by ``baseline_decay`` per observation,
    so one unrepresentatively fast ack early in a run cannot poison the
    backoff threshold forever.  ``trajectory`` records every size change
    as ``(observation_index, new_size)`` — run manifests persist it so a
    sweep can show how the controller settled.
    """

    def __init__(
        self,
        max_size: int,
        *,
        min_size: int = 1,
        backoff_ratio: float = 2.0,
        baseline_decay: float = 1.02,
        trajectory_limit: int = 512,
        events=None,
    ):
        if min_size < 1:
            raise ValueError("min_size must be at least 1")
        if max_size < min_size:
            raise ValueError("max_size must be at least min_size")
        if backoff_ratio <= 1.0:
            raise ValueError("backoff_ratio must exceed 1.0")
        if baseline_decay < 1.0:
            raise ValueError("baseline_decay must be at least 1.0")
        self.min_size = min_size
        self.max_size = max_size
        self.backoff_ratio = backoff_ratio
        self.baseline_decay = baseline_decay
        self.size = min_size
        self.observations = 0
        self.backoffs = 0
        self._best_per_tuple_s: Optional[float] = None
        self._trajectory: list[tuple[int, int]] = [(0, min_size)]
        self._trajectory_limit = trajectory_limit
        #: Optional :class:`repro.obs.events.EventLog`: every size change
        #: is emitted as an ``adaptive_resize`` event.
        self._events = events

    def observe(self, batch_len: int, ack_latency_s: float) -> None:
        """Feed one acked flush; adjusts :attr:`size` for the next one."""
        if batch_len < 1 or ack_latency_s < 0.0:
            return
        self.observations += 1
        per_tuple = ack_latency_s / batch_len
        best = self._best_per_tuple_s
        if best is None:
            best = per_tuple
        else:
            best = min(best * self.baseline_decay, per_tuple)
        self._best_per_tuple_s = best
        previous = self.size
        if per_tuple > self.backoff_ratio * best:
            self.size = max(self.min_size, self.size // 2)
            self.backoffs += 1
        else:
            self.size = min(self.max_size, self.size + 1)
        if self.size != previous:
            if len(self._trajectory) < self._trajectory_limit:
                self._trajectory.append((self.observations, self.size))
            if self._events is not None:
                self._events.emit(
                    "adaptive_resize",
                    observation=self.observations,
                    size=self.size,
                    previous=previous,
                )

    @property
    def trajectory(self) -> list[tuple[int, int]]:
        """Size changes as ``(observation_index, new_size)`` pairs."""
        return list(self._trajectory)


class GatewayError(Exception):
    """An ``error`` frame from the server, surfaced to the caller."""

    def __init__(self, code: str, message: str):
        super().__init__(f"[{code}] {message}")
        self.code = code
        self.message = message


class RemoteSubscription:
    """Client-side view of one app's subscription on the gateway."""

    def __init__(self, app: str, source: str, spec: str, capacity: int = 0):
        self.app = app
        self.source = source
        self.spec = spec
        #: Why the server closed this subscription (None while live).
        self.closed_reason: Optional[str] = None
        #: Server-resolved session bounds echoed by the subscribe reply
        #: (queue_capacity / overflow / batch_max_items /
        #: batch_max_delay_ms); the cluster router re-subscribes crashed
        #: workers' sessions with exactly these.
        self.resolved: dict = {}
        #: ``capacity=0`` means unbounded — used for the one-round-trip
        #: window before the server echoes the resolved queue bound.
        self._queue: asyncio.Queue[Optional[Batch]] = asyncio.Queue(
            maxsize=max(0, capacity)
        )
        #: Space signal for the (single-producer) read loop: set whenever
        #: the consumer pops or the stream ends, so a push blocked on a
        #: full buffer can always be released by :meth:`close_local` —
        #: ``asyncio.Queue`` alone has no close, and a putter parked on
        #: a queue whose consumer is gone would wait forever.
        self._space = asyncio.Event()
        #: Set when the client has removed this subscription from its
        #: registry (server ``closed`` frame or connection death) — a
        #: re-subscribe of the same app waits on it so a late ``closed``
        #: frame lands on this object, never on the replacement.
        self._removed = asyncio.Event()
        self._ended = False
        #: Sampled per-tuple stage traces off decided frames, keyed by
        #: tuple seq: ``{seq: [(stage_id, dur_ns), ...]}``.  Bounded
        #: (oldest evicted); the load generator reads this after a run to
        #: build its per-stage latency summary.
        self.stage_traces: dict[int, list] = {}
        self._trace_noted_ns: dict[int, int] = {}
        self._stage_traces_max = 4096
        #: Server-driven degradation state: the active level (updated by
        #: ``qos_update`` frames), every update received (in order), and
        #: an optional synchronous callback invoked per update — the
        #: cluster router uses it to forward worker-side transitions to
        #: the end subscriber.
        self.degradation_level: int = 0
        self.qos_updates: list[dict] = []
        self.on_qos_update = None

    def _note_traces(self, traces: dict) -> None:
        """Fold one decided frame's trace map into the bounded store."""
        store = self.stage_traces
        noted = self._trace_noted_ns
        now_ns = time.perf_counter_ns()
        for seq, pairs in traces.items():
            while len(store) >= self._stage_traces_max and seq not in store:
                evicted = next(iter(store))
                del store[evicted]
                noted.pop(evicted, None)
            store[seq] = pairs
            noted[seq] = now_ns

    def claim_trace(self, seq: int):
        """Remove and return ``(pairs, noted_ns)`` for one tuple.

        ``noted_ns`` is the local ``perf_counter_ns`` at which the
        decided frame carrying the trace was decoded — the cluster
        router uses it to measure its reassembly stage.
        """
        pairs = self.stage_traces.pop(seq, None)
        if pairs is None:
            return None
        return pairs, self._trace_noted_ns.pop(seq, 0)

    def _resize(self, capacity: int) -> None:
        """Adopt the server-resolved bound without dropping anything.

        Batches the read loop buffered before the subscribe reply
        arrived (they can share one TCP read with the ``ok``) transfer
        into the new queue; the bound stretches to hold them all.
        """
        buffered: list[Optional[Batch]] = []
        while True:
            try:
                buffered.append(self._queue.get_nowait())
            except asyncio.QueueEmpty:
                break
        self._queue = asyncio.Queue(
            maxsize=max(1, capacity, len(buffered))
        )
        for item in buffered:
            self._queue.put_nowait(item)
        # A push blocked against the old bound re-reads self._queue on
        # its next attempt.
        self._space.set()

    @property
    def buffered(self) -> int:
        """Client-side batches waiting for the consumer."""
        return self._queue.qsize()

    def close_local(self, reason: str) -> None:
        """End the stream from this side (no wire traffic).

        The cluster router uses this to dismiss a worker subscription it
        no longer wants (shutdown wedge-breaking, lost workers) without
        waiting for a ``closed`` frame that may never come.
        """
        self._close(reason)

    def __aiter__(self) -> AsyncIterator[Batch]:
        return self.batches()

    async def batches(self) -> AsyncIterator[Batch]:
        """Yield delivered batches until the server closes the stream."""
        while True:
            if self._ended and self._queue.empty():
                return
            batch = await self._queue.get()
            self._space.set()
            if batch is None:
                return
            yield batch

    async def items(self) -> AsyncIterator[StreamTuple]:
        async for batch in self.batches():
            for item in batch.items:
                yield item

    # -- read-loop side -------------------------------------------------
    async def _push(self, batch: Batch) -> None:
        """Buffer one delivered batch, blocking while the consumer lags.

        The blocking wait is interruptible by :meth:`close_local` via
        the space event, so a subscription dismissed while its buffer is
        full (router shutdown, lost worker) releases the read loop
        instead of wedging the whole connection behind a consumer that
        will never pop again.
        """
        while not self._ended:
            try:
                self._queue.put_nowait(batch)
                return
            except asyncio.QueueFull:
                self._space.clear()
                await self._space.wait()

    def _close(self, reason: str) -> None:
        """End the stream without ever blocking (teardown paths).

        A full buffer gets no end-of-stream sentinel: its consumer is not
        parked, and :meth:`batches` ends once it has drained the buffer.
        Either way every batch that arrived is yielded, in order, before
        the stream ends — what a cluster router's failover splice counts
        on.
        """
        if self._ended:
            return
        self._ended = True
        self.closed_reason = reason
        # Release a read loop blocked on a full buffer (it re-checks
        # _ended and drops the batch).
        self._space.set()
        try:
            self._queue.put_nowait(None)
        except asyncio.QueueFull:
            pass


class GatewayClient:
    """One authenticated gateway connection (use :meth:`connect`)."""

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        *,
        max_frame_bytes: int = MAX_FRAME_BYTES,
        telemetry: Optional[Telemetry] = None,
    ):
        self._reader = reader
        self._writer = writer
        self._max_frame_bytes = max_frame_bytes
        #: Optional telemetry bundle: enables the trace feature offer,
        #: client-side ``ingest_send`` stage measurement, and local stage
        #: histograms.
        self.telemetry = telemetry
        #: Features confirmed by the server's welcome.
        self.features: list[str] = []
        self._seq = itertools.count(1)
        self._pending: dict[int, asyncio.Future] = {}
        self._subscriptions: dict[str, RemoteSubscription] = {}
        self._read_task: Optional[asyncio.Task] = None
        self._closed = False
        #: Set once the read loop ends; requests after that would wait
        #: forever on a reply nobody can deliver.
        self._dead_reason: Optional[str] = None
        #: Populated from the server's welcome frame.
        self.server_sources: tuple[str, ...] = ()
        #: Encodes this connection's ``ingest`` / ``ingest_batch`` frames.
        self._encoder = BinaryEncoder()

    # ------------------------------------------------------------------
    # Connection lifecycle
    # ------------------------------------------------------------------
    @classmethod
    async def connect(
        cls,
        host: str,
        port: int,
        *,
        token: Optional[str] = None,
        max_frame_bytes: int = MAX_FRAME_BYTES,
        telemetry: Optional[Telemetry] = None,
    ) -> "GatewayClient":
        """Open and authenticate one gateway connection."""
        reader, writer = await asyncio.open_connection(host, port)
        client = cls(
            reader, writer, max_frame_bytes=max_frame_bytes, telemetry=telemetry
        )
        client._read_task = asyncio.ensure_future(client._read_loop())
        hello: dict = {"t": "hello", "v": PROTOCOL_VERSION}
        # qos (server-pushed degradation updates) costs nothing to
        # receive, so it is always offered; trace only makes sense with
        # a telemetry bundle to record into.
        features = [FEATURE_QOS]
        if telemetry is not None:
            features.insert(0, FEATURE_TRACE)
        hello["features"] = features
        if token is not None:
            hello["token"] = token
        try:
            welcome = await client._request(hello)
        except BaseException:
            await client.close(send_bye=False)
            raise
        client.server_sources = tuple(welcome.get("sources", ()))
        confirmed = welcome.get("features")
        if isinstance(confirmed, list):
            client.features = [f for f in confirmed if isinstance(f, str)]
        return client

    async def close(self, *, send_bye: bool = True) -> None:
        """Tear the connection down; live subscriptions end locally."""
        if self._closed:
            return
        self._closed = True
        if send_bye:
            try:
                self._write({"t": "bye"})
                await self._writer.drain()
            except (ConnectionError, RuntimeError):
                pass
        self._writer.close()
        if self._read_task is not None:
            self._read_task.cancel()
            try:
                await self._read_task
            except (asyncio.CancelledError, ConnectionError):
                pass
        self._fail_all("connection_closed")
        try:
            await self._writer.wait_closed()
        except (ConnectionError, asyncio.CancelledError):
            pass

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------
    def _write(self, frame: Mapping) -> None:
        self._writer.write(
            encode_frame(frame, max_frame_bytes=self._max_frame_bytes)
        )

    def _write_body(self, body: bytes) -> None:
        """Write one pre-encoded binary frame body (the hot paths)."""
        if len(body) > self._max_frame_bytes:
            raise FrameTooLarge(len(body), self._max_frame_bytes)
        self._writer.write(pack_header(len(body)) + body)

    def _trace_start(self, source: str, seq: int) -> int:
        """``perf_counter_ns`` at ingest entry when ``seq`` is sampled
        and the trace feature was negotiated; 0 otherwise."""
        tele = self.telemetry
        if (
            tele is None
            or not tele.tracer.enabled
            or FEATURE_TRACE not in self.features
            or not tele.tracer.sampled(source, seq)
        ):
            return 0
        return time.perf_counter_ns()

    def _send_trace(self, start_ns: int):
        """Close the client-side ``ingest_send`` stage for one tuple."""
        if not start_ns:
            return None
        dur = time.perf_counter_ns() - start_ns
        self.telemetry.observe_stage(STAGE_INGEST_SEND, dur)
        return [(_SID_INGEST_SEND, dur)]

    def _send_traces(self, start_ns: int, seqs: list):
        """Same, shared across every sampled tuple of one batch frame."""
        if not start_ns or not seqs:
            return None
        dur = time.perf_counter_ns() - start_ns
        self.telemetry.observe_stage(STAGE_INGEST_SEND, dur)
        return {seq: [(_SID_INGEST_SEND, dur)] for seq in seqs}

    def _check_alive(self) -> None:
        if self._closed:
            raise ConnectionError("gateway client is closed")
        if self._dead_reason is not None:
            raise ConnectionError(
                f"gateway connection closed ({self._dead_reason})"
            )

    async def _request(self, frame: dict) -> dict:
        def write(seq: int) -> None:
            frame["seq"] = seq
            self._write(frame)

        return await self._roundtrip(write)

    async def _roundtrip(self, write) -> dict:
        """Allocate a request seq, write via ``write(seq)``, await reply."""
        self._check_alive()
        seq = next(self._seq)
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending[seq] = future
        try:
            write(seq)
            await self._writer.drain()
            reply = await future
        finally:
            self._pending.pop(seq, None)
        if reply.get("t") == "error":
            raise GatewayError(
                reply.get("code", "unknown"), reply.get("message", "")
            )
        return reply

    async def ensure_source(self, source: str) -> bool:
        """Register ``source`` on the broker if absent; True if created."""
        reply = await self._request({"t": "ensure_source", "source": source})
        return bool(reply.get("created"))

    async def ingest(
        self,
        source: str,
        item: StreamTuple,
        *,
        ack: bool = True,
        pad_bytes: int = 0,
        adapt: Optional[AdaptiveIngest] = None,
        trace: Optional[list] = None,
    ) -> Optional[int]:
        """Offer one tuple to the broker across the wire.

        With ``ack=True`` (default) the call resolves when the broker has
        *processed* the tuple and returns the emission count — the same
        completion semantics as the in-process ``offer``.  ``ack=False``
        is fire-and-forget (the frame is written and drained, nothing
        more).  ``pad_bytes`` attaches throwaway payload so the wire
        frame approximates a configured tuple size.  ``adapt`` feeds the
        measured ack latency to an :class:`AdaptiveIngest` controller
        (acked sends only).
        ``trace`` attaches explicit ``(stage_id, dur_ns)`` pairs instead
        of the client-measured ``ingest_send`` stage — the cluster
        router uses it to forward a trace carried from the producer.
        """
        encoder = self._encoder
        limit = self._max_frame_bytes
        trace_start_ns = 0 if trace is not None else self._trace_start(
            source, item.seq
        )
        if ack:
            started = time.perf_counter() if adapt is not None else 0.0
            reply = await self._roundtrip(
                lambda seq: self._write_body(
                    encoder.ingest_body(
                        source,
                        item,
                        seq=seq,
                        pad_bytes=pad_bytes,
                        max_frame_bytes=limit,
                        trace=(trace if trace is not None
                               else self._send_trace(trace_start_ns)),
                    )
                )
            )
            if adapt is not None:
                adapt.observe(1, time.perf_counter() - started)
            return reply.get("emissions")
        self._check_alive()
        self._write_body(
            encoder.ingest_body(
                source,
                item,
                pad_bytes=pad_bytes,
                max_frame_bytes=limit,
                trace=(trace if trace is not None
                       else self._send_trace(trace_start_ns)),
            )
        )
        await self._writer.drain()
        return None

    async def ingest_many(
        self,
        source: str,
        items: Sequence[StreamTuple],
        *,
        ack: bool = True,
        pad_bytes: int = 0,
        adapt: Optional[AdaptiveIngest] = None,
        traces: Optional[dict] = None,
    ) -> Optional[int]:
        """Offer many tuples in one ``ingest_batch`` frame.

        One frame, one (optional) ack, one broker lock acquisition for
        the whole batch — the per-tuple wire and scheduling overhead is
        amortized across ``len(items)``.  Returns the summed emission
        count when ``ack=True``.  ``adapt`` feeds the measured ack
        latency to an :class:`AdaptiveIngest` controller so the *next*
        batch is sized from how this one fared.  ``traces`` attaches an
        explicit ``{seq: pairs}`` trace map (cluster forward path)
        instead of the client-measured ``ingest_send`` stage.
        """
        if not items:
            return 0 if ack else None
        encoder = self._encoder
        limit = self._max_frame_bytes
        sampled_seqs: list[int] = []
        trace_start_ns = 0
        tele = self.telemetry
        if (
            traces is None
            and tele is not None
            and tele.tracer.enabled
            and FEATURE_TRACE in self.features
        ):
            sampled_seqs = [
                item.seq
                for item in items
                if tele.tracer.sampled(source, item.seq)
            ]
            if sampled_seqs:
                trace_start_ns = time.perf_counter_ns()
        if ack:
            started = time.perf_counter() if adapt is not None else 0.0
            reply = await self._roundtrip(
                lambda seq: self._write_body(
                    encoder.ingest_batch_body(
                        source,
                        items,
                        seq=seq,
                        pad_bytes=pad_bytes,
                        max_frame_bytes=limit,
                        traces=(traces if traces is not None
                                else self._send_traces(
                                    trace_start_ns, sampled_seqs)),
                    )
                )
            )
            if adapt is not None:
                adapt.observe(len(items), time.perf_counter() - started)
            return reply.get("emissions")
        self._check_alive()
        self._write_body(
            encoder.ingest_batch_body(
                source,
                items,
                pad_bytes=pad_bytes,
                max_frame_bytes=limit,
                traces=(traces if traces is not None
                        else self._send_traces(trace_start_ns, sampled_seqs)),
            )
        )
        await self._writer.drain()
        return None

    async def tick(self, now_ms: float, source: Optional[str] = None) -> int:
        """Advance the broker's timer (timely cuts, latency flushes) for
        every source, or for ``source`` alone."""
        frame: dict = {"t": "tick", "now_ms": now_ms}
        if source is not None:
            frame["source"] = source
        reply = await self._request(frame)
        return int(reply.get("emissions", 0))

    async def snapshot(self, *, window: bool = False) -> dict:
        """The live service snapshot as a plain dict.

        ``window=True`` asks the server to attach its raw decide-latency
        sliding window (``decide_window_ms``) so a front-tier router can
        merge several workers' windows into one honest percentile.
        """
        frame: dict = {"t": "snapshot"}
        if window:
            frame["window"] = True
        reply = await self._request(frame)
        return reply["snapshot"]

    async def export_source(self, source: str) -> dict:
        """Detach ``source`` on the server; returns its portable state.

        The checkpoint's tuple table can exceed one frame, so it streams
        back in ``export_pull`` chunks and is put back in place: the
        returned state is what
        :meth:`~repro.service.broker.DisseminationService.export_source`
        returned on the server, ready to feed :meth:`import_source` on
        another gateway unchanged.
        """
        reply = await self._request({"t": "export_source", "source": source})
        return await self._pull_source_state(source, reply)

    async def snapshot_source(self, source: str) -> dict:
        """Copy ``source``'s portable state without detaching it.

        The non-destructive sibling of :meth:`export_source` — the
        failover checkpoint a cluster router keeps of a serving primary.
        """
        reply = await self._request(
            {"t": "snapshot_source", "source": source}
        )
        return await self._pull_source_state(source, reply)

    async def _pull_source_state(self, source: str, reply: dict) -> dict:
        state = dict(reply["state"])
        total = int(state.pop("rows", 0))
        rows: list = []
        while len(rows) < total:
            pull = await self._request(
                {
                    "t": "export_pull",
                    "source": source,
                    "offset": len(rows),
                    "count": _MIGRATION_CHUNK,
                }
            )
            chunk = list(pull.get("rows") or ())
            rows.extend(chunk)
            if pull.get("done") or not chunk:
                break
        if state.get("checkpoint") is not None:
            state["checkpoint"] = [*state["checkpoint"], rows]
        return state

    async def import_source(self, source: str, state: dict) -> int:
        """Stream an exported source's state into this gateway's broker.

        ``source`` must already exist on the target with the migrated
        subscriptions re-attached in their original order.  The
        checkpoint's tuple table goes in ``import_chunk`` rows (their
        count announced by ``import_begin``), the rest with
        ``import_commit``; returns the number of open tuples restored.
        """
        checkpoint = state.get("checkpoint")
        rows = [] if checkpoint is None else checkpoint[-1]
        await self._request(
            {"t": "import_begin", "source": source, "rows": len(rows)}
        )
        for start in range(0, len(rows), _MIGRATION_CHUNK):
            await self._request(
                {
                    "t": "import_chunk",
                    "source": source,
                    "rows": rows[start : start + _MIGRATION_CHUNK],
                }
            )
        reply = await self._request(
            {
                "t": "import_commit",
                "source": source,
                "checkpoint": None if checkpoint is None else checkpoint[:-1],
                "fed": int(state.get("fed", 0)),
                "offered": int(state.get("offered", 0)),
            }
        )
        return int(reply.get("restored", 0))

    async def subscribe(
        self,
        app: str,
        source: str,
        spec: str,
        *,
        qos: Union[QualitySpec, Mapping, None] = None,
        degradation: Union[DegradationPolicy, Mapping, None] = None,
        degradation_level: int = 0,
        degradation_config: Optional[DegradationConfig] = None,
        queue_capacity: Optional[int] = None,
        overflow: Optional[str] = None,
        batch_max_items: Optional[int] = None,
        batch_max_delay_ms: Optional[float] = None,
    ) -> RemoteSubscription:
        """Attach a subscriber; decided batches flow back on this socket.

        ``qos`` carries the application's quality profile to the broker
        (``latency_tolerance_ms`` / ``priority`` — see
        :func:`repro.qos.spec.session_limits`); the explicit keyword
        bounds override whatever the profile resolves to.

        ``degradation`` hands the server a whole fallback ladder (a
        :class:`~repro.qos.spec.DegradationPolicy` or an already-built
        wire profile): under overload the server steps this session down
        the ladder instead of dropping or disconnecting it, announcing
        each transition with a ``qos_update`` frame (reflected in the
        returned subscription's ``degradation_level`` / ``qos_updates``
        and its ``on_qos_update`` callback).  ``spec`` must equal the
        active level's filter spec.
        """
        existing = self._subscriptions.get(app)
        if existing is not None:
            if not existing._ended:
                raise ValueError(f"app {app!r} is already subscribed here")
            # The old subscription ended, but the server's `closed`
            # frame may still be in flight (its pump writes and its
            # request replies are ordered independently — an
            # unsubscribe ack can overtake the closed frame).  Wait for
            # the slot to clear so the late frame cannot close the
            # replacement; a locally-closed stream whose frame never
            # comes costs this wait exactly once, then the slot is
            # reclaimed for good.
            try:
                await asyncio.wait_for(existing._removed.wait(), timeout=5.0)
            except asyncio.TimeoutError:
                pass
            if self._subscriptions.get(app) is existing:
                del self._subscriptions[app]
                existing._removed.set()
        frame: dict = {
            "t": "subscribe",
            "app": app,
            "source": source,
            "spec": spec,
        }
        if qos is not None:
            if isinstance(qos, QualitySpec):
                profile: dict = {
                    "latency_tolerance_ms": qos.latency_tolerance_ms,
                    "priority": qos.priority,
                }
            else:
                profile = dict(qos)
            frame["qos"] = profile
        if degradation is not None:
            if isinstance(degradation, DegradationPolicy):
                ladder = policy_to_profile(
                    degradation,
                    level=degradation_level,
                    config=degradation_config,
                )
            else:
                ladder = dict(degradation)
                if degradation_level:
                    ladder["level"] = degradation_level
            frame["degradation"] = ladder
        for key, value in (
            ("queue_capacity", queue_capacity),
            ("overflow", overflow),
            ("batch_max_items", batch_max_items),
            ("batch_max_delay_ms", batch_max_delay_ms),
        ):
            if value is not None:
                frame[key] = value
        # Register before the request: the first decided frame can be on
        # the wire the moment the server replies ok.  Without an explicit
        # capacity the queue starts unbounded for the one round trip
        # until the server echoes the resolved bound.
        subscription = RemoteSubscription(
            app, source, spec, capacity=queue_capacity or 0
        )
        if degradation is not None:
            subscription.degradation_level = int(
                frame["degradation"].get("level", 0)
            )
        self._subscriptions[app] = subscription
        try:
            reply = await self._request(frame)
        except BaseException:
            self._subscriptions.pop(app, None)
            raise
        # The server echoes the resolved bounds; mirror the capacity so
        # client-side buffering matches the session's queue bound, and
        # keep the full set for callers that re-subscribe elsewhere.
        subscription.resolved = {
            key: reply.get(key)
            for key in (
                "queue_capacity",
                "overflow",
                "batch_max_items",
                "batch_max_delay_ms",
            )
        }
        resolved = reply.get("queue_capacity")
        if queue_capacity is None and isinstance(resolved, int) and resolved >= 1:
            subscription._resize(resolved)
        return subscription

    async def unsubscribe(self, app: str) -> None:
        await self._request({"t": "unsubscribe", "app": app})

    async def re_filter(self, app: str, spec: str) -> None:
        await self._request({"t": "re_filter", "app": app, "spec": spec})
        if app in self._subscriptions:
            self._subscriptions[app].spec = spec

    # ------------------------------------------------------------------
    # Read loop
    # ------------------------------------------------------------------
    async def _read_loop(self) -> None:
        decoder = FrameDecoder(max_frame_bytes=self._max_frame_bytes)
        reason = "connection_closed"
        try:
            while True:
                data = await self._reader.read(_READ_CHUNK)
                if not data:
                    break
                for frame in decoder.feed(data):
                    if frame.get("t") == "bye":
                        reason = frame.get("reason", "bye")
                        return
                    await self._on_frame(frame)
        except ProtocolError:
            reason = "protocol_error"
        except (ConnectionError, asyncio.CancelledError):
            raise
        finally:
            self._fail_all(reason)

    async def _on_frame(self, frame: dict) -> None:
        kind = frame.get("t")
        reply_to = frame.get("reply_to")
        if reply_to is not None:
            future = self._pending.get(reply_to)
            if future is not None and not future.done():
                future.set_result(frame)
            return
        if kind == "decided":
            subscription = self._subscriptions.get(frame.get("app"))
            if subscription is not None:
                if "traces" in frame:
                    subscription._note_traces(traces_from_wire(frame))
                # This put blocks when the consumer lags, intentionally
                # pausing the read loop (see the module docstring).
                await subscription._push(batch_from_wire(frame))
        elif kind == "qos_update":
            subscription = self._subscriptions.get(frame.get("app"))
            if subscription is not None:
                level = frame.get("level")
                if isinstance(level, int):
                    subscription.degradation_level = level
                spec = frame.get("spec")
                if isinstance(spec, str):
                    subscription.spec = spec
                update = {
                    key: frame.get(key)
                    for key in (
                        "app",
                        "source",
                        "action",
                        "level",
                        "spec",
                        "signal",
                        "value",
                        "threshold",
                    )
                }
                subscription.qos_updates.append(update)
                callback = subscription.on_qos_update
                if callback is not None:
                    callback(update)
        elif kind == "closed":
            subscription = self._subscriptions.pop(frame.get("app"), None)
            if subscription is not None:
                subscription._close(frame.get("reason", "closed"))
                subscription._removed.set()
        elif kind == "error":
            if "reply_to" in frame:
                # A refused fire-and-forget request (seq-less ingest/tick
                # gets an error with reply_to=null): the server kept the
                # connection; there is no future to fail and no reason to
                # kill our side either.
                return
            # Truly unsolicited server error (protocol violation
            # verdict): surface it by failing everything; the connection
            # is dead.
            raise ProtocolError(
                frame.get("message", "server error"),
                code=frame.get("code", "protocol"),
            )

    def _fail_all(self, reason: str) -> None:
        self._dead_reason = reason
        for future in list(self._pending.values()):
            if not future.done():
                future.set_exception(
                    ConnectionError(f"gateway connection closed ({reason})")
                )
        self._pending.clear()
        for app in list(self._subscriptions):
            subscription = self._subscriptions.pop(app)
            subscription._close(reason)
            subscription._removed.set()
