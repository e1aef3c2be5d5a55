"""The load generator: one process, one event loop, ``GatewayClient`` only.

Subscriptions ride the ingest connections, so a workload never opens
more connections than it has lanes to keep busy.  Every frame's send
(or due) time is stamped per lane; a subscriber's receipt time minus
that stamp is the delivery latency of each tuple the frame carried.
"""

from __future__ import annotations

import asyncio
import time
from array import array
from dataclasses import dataclass, field
from typing import Optional

from repro.transport.client import GatewayClient, GatewayError

from harness.workloads import ATTRIBUTE, ChurnOp, Inputs, SourceInput

__all__ = [
    "WINDOW_S",
    "AppSink",
    "Lane",
    "Phase",
    "Sample",
    "Session",
    "SpanRecorder",
    "drive",
]

_HOST = "127.0.0.1"

#: A set-up or a drain is over once no subscriber has received anything
#: for this long.
_QUIET_S = 0.03

#: The measured phase is also recorded in windows of this length.
WINDOW_S = 1.0

#: Frames kept in flight while warming up an open-loop workload.
_OPEN_LOOP_WARMUP_INFLIGHT = 8

_DRAIN_TIMEOUT_S = 60.0

_OP_ERRORS = (GatewayError, ConnectionError, ValueError)


class SpanRecorder:
    """In-memory spans of the traced pass, written out when the run ends.

    One span per client call and per delivered batch; every span of one
    ingest frame carries that frame's identifier, and the frame's own
    span is the parent of its deliveries.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []

    def add(
        self,
        name: str,
        start_s: float,
        end_s: float,
        trace_id: str,
        parent: Optional[str] = None,
    ) -> None:
        self.spans.append((name, start_s, end_s, trace_id, parent))

    def to_json(self) -> list[dict]:
        return [
            {
                "name": name,
                "start_ns": int(start * 1e9),
                "end_ns": int(end * 1e9),
                "trace_id": trace_id,
                "parent": parent,
            }
            for name, start, end, trace_id, parent in self.spans
        ]


# repr=False on the big containers: asyncio.run() formats the main
# task (result included) when it restores signal handlers, and a default
# dataclass repr of a session walks every tuple of the run.
@dataclass(repr=False)
class Lane:
    """One source's frames and their send stamps, on one connection."""

    source: SourceInput
    client: GatewayClient
    frame_tuples: int
    pad_bytes: int
    frames: list
    #: ``stamps[f]``: when frame ``f`` was written (closed loop) or due
    #: (open loop), ``time.perf_counter`` seconds.
    stamps: list
    warmup_frames: int
    cursor: int = 0

    def frame_id(self, frame: int) -> str:
        return f"{self.source.name}#{frame}"


@dataclass(frozen=True)
class Sample:
    """Cumulative counters at one instant of the measured phase."""

    at: float
    #: Tuples whose ingest frame has been acknowledged.
    acked_tuples: int
    #: CPU seconds per server process, read from outside.
    server_cpu_s: dict
    #: Latency samples taken so far, per app.
    delivered: dict


@dataclass
class Phase:
    """What the generator observes while a run is in progress."""

    #: Latencies are sampled only while the measured phase is running.
    active: bool = False
    last_receipt: float = 0.0
    ack_s: list = field(default_factory=list)
    op_s: list = field(default_factory=list)
    late_s: list = field(default_factory=list)
    samples: list = field(default_factory=list)
    acked_tuples: int = 0
    frames_attempted: int = 0
    frames_failed: int = 0
    ops_attempted: int = 0
    ops_failed: int = 0
    errors: list = field(default_factory=list)
    #: Open loop: frames sent and not yet acknowledged, at each send.
    backlog_max: int = 0
    backlog_at_end: int = 0
    started: float = 0.0
    ended: float = 0.0

    def fail(self, what: str, exc: BaseException) -> None:
        if len(self.errors) < 8:
            self.errors.append(f"{what}: {exc!r}")


class AppSink:
    """One subscriber's delivered stream and latency samples."""

    __slots__ = ("app", "lane", "seqs", "values", "latencies")

    def __init__(self, app: str, lane: Lane):
        self.app = app
        self.lane = lane
        self.seqs = array("q")
        self.values = array("d")
        self.latencies: list = []


@dataclass(repr=False)
class Session:
    """Everything a set-up leaves behind for the measured phase."""

    inputs: Inputs
    clients: list
    lanes: list
    sinks: dict
    consumers: list
    phase: Phase
    recorder: Optional[SpanRecorder]


async def _consume(subscription, sink: AppSink, phase: Phase, recorder) -> None:
    lane = sink.lane
    base = lane.source.warmup
    per_frame = lane.frame_tuples
    stamps = lane.stamps
    async for batch in subscription.batches():
        now = time.perf_counter()
        seqs = [item.seq for item in batch.items]
        sink.seqs.extend(seqs)
        sink.values.extend([item.values[ATTRIBUTE] for item in batch.items])
        phase.last_receipt = now
        if phase.active:
            sink.latencies.extend(
                [now - stamps[s // per_frame] for s in seqs if s >= base]
            )
            if recorder is not None:
                frame = lane.frame_id(seqs[0] // per_frame)
                recorder.add(
                    "client.deliver", now, time.perf_counter(), frame, parent=frame
                )


async def _send_frame(lane: Lane, index: int, phase: Phase, recorder) -> None:
    """One acknowledged ingest round trip (the frame is already stamped)."""
    frame = lane.frames[index]
    started = time.perf_counter()
    phase.frames_attempted += 1
    try:
        if lane.frame_tuples == 1:
            await lane.client.ingest(
                lane.source.name, frame[0], pad_bytes=lane.pad_bytes
            )
            call = "client.ingest"
        else:
            await lane.client.ingest_many(
                lane.source.name, frame, pad_bytes=lane.pad_bytes
            )
            call = "client.ingest_many"
    except _OP_ERRORS as exc:
        phase.frames_failed += 1
        phase.fail(f"ingest frame {index}", exc)
        return
    ended = time.perf_counter()
    if phase.active:
        phase.acked_tuples += len(frame)
        phase.ack_s.append(ended - started)
        if recorder is not None:
            recorder.add(call, started, ended, lane.frame_id(index))


async def _closed_loop_worker(lane: Lane, end: int, phase: Phase, recorder) -> None:
    """Send the lane's next unsent frame, wait for its ack, repeat.

    ``inflight`` of these per lane keep that many frames outstanding;
    each takes its frame index and writes the frame without an
    intervening ``await``, so frames reach the wire in index order.
    """
    while lane.cursor < end:
        index = lane.cursor
        lane.cursor = index + 1
        lane.stamps[index] = time.perf_counter()
        await _send_frame(lane, index, phase, recorder)


async def _closed_loop(session: Session, inflight: int, *, warmup: bool) -> None:
    workers = []
    for lane in session.lanes:
        end = lane.warmup_frames if warmup else len(lane.frames)
        workers += [
            _closed_loop_worker(lane, end, session.phase, session.recorder)
            for _ in range(inflight)
        ]
    await asyncio.gather(*workers)


async def _control_op(session: Session, op: ChurnOp) -> None:
    """One control operation, timed from its frame write to its reply."""
    phase = session.phase
    # A new subscriber rides the (single) ingest connection.
    sink = session.sinks.get(op.app)
    lane = sink.lane if sink is not None else session.lanes[0]
    client = lane.client
    started = time.perf_counter()
    phase.ops_attempted += 1
    try:
        if op.kind == "re_filter":
            await client.re_filter(op.app, op.spec)
        elif op.kind == "subscribe":
            await _subscribe(session, lane, op.app, op.spec)
        else:
            await client.unsubscribe(op.app)
    except _OP_ERRORS as exc:
        phase.ops_failed += 1
        phase.fail(f"{op.kind}({op.app})", exc)
        return
    ended = time.perf_counter()
    if phase.active:
        phase.op_s.append(ended - started)
        if session.recorder is not None:
            session.recorder.add(
                f"client.{op.kind}", started, ended, f"op@{op.at}:{op.app}"
            )


async def _open_loop(session: Session) -> None:
    """Send each tuple when it is due, whatever the server is doing.

    Frames and control operations are all started as tasks, in schedule
    order; a task runs up to its frame write before the next one starts,
    so wire order is schedule order and the delivered streams repeat.
    """
    (lane,) = session.lanes
    phase = session.phase
    rate = session.inputs.workload.tuples_per_second
    ops = iter(session.inputs.ops)
    pending_op = next(ops, None)
    outstanding: set = set()
    first = lane.warmup_frames
    origin = time.perf_counter() + 0.01
    for index in range(first, len(lane.frames)):
        measured_index = index - first
        while pending_op is not None and pending_op.at == measured_index:
            task = asyncio.ensure_future(_control_op(session, pending_op))
            outstanding.add(task)
            task.add_done_callback(outstanding.discard)
            pending_op = next(ops, None)
        due = origin + measured_index / rate
        # Always yield, even when behind: acks and deliveries are
        # handled on this same loop.
        await asyncio.sleep(max(0.0, due - time.perf_counter()))
        lane.stamps[index] = due
        phase.late_s.append(time.perf_counter() - due)
        task = asyncio.ensure_future(
            _send_frame(lane, index, phase, session.recorder)
        )
        outstanding.add(task)
        task.add_done_callback(outstanding.discard)
        phase.backlog_max = max(phase.backlog_max, len(outstanding))
    phase.backlog_at_end = len(outstanding)
    if outstanding:
        await asyncio.gather(*list(outstanding))


async def _subscribe(session: Session, lane: Lane, app: str, spec: str) -> None:
    subscription = await lane.client.subscribe(app, lane.source.name, spec)
    sink = AppSink(app, lane)
    session.sinks[app] = sink
    session.consumers.append(
        asyncio.ensure_future(
            _consume(subscription, sink, session.phase, session.recorder)
        )
    )


async def _quiesce(phase: Phase) -> None:
    phase.last_receipt = max(phase.last_receipt, time.perf_counter())
    while time.perf_counter() - phase.last_receipt < _QUIET_S:
        await asyncio.sleep(0.005)


async def _setup(inputs: Inputs, port: int, recorder) -> Session:
    workload = inputs.workload
    clients = [
        await GatewayClient.connect(_HOST, port)
        for _ in range(workload.connections)
    ]
    session = Session(
        inputs=inputs,
        clients=clients,
        lanes=[],
        sinks={},
        consumers=[],
        phase=Phase(),
        recorder=recorder,
    )
    per_frame = workload.frame_tuples
    for index, src in enumerate(inputs.sources):
        frames = [
            src.items[start : start + per_frame]
            for start in range(0, len(src.items), per_frame)
        ]
        lane = Lane(
            source=src,
            client=clients[index * workload.connections // workload.sources],
            frame_tuples=per_frame,
            pad_bytes=workload.pad_bytes,
            frames=frames,
            stamps=[0.0] * len(frames),
            warmup_frames=src.warmup // per_frame,
        )
        session.lanes.append(lane)
        for app, spec in src.apps:
            await _subscribe(session, lane, app, spec)
    await _closed_loop(
        session,
        workload.inflight or _OPEN_LOOP_WARMUP_INFLIGHT,
        warmup=True,
    )
    await _quiesce(session.phase)
    return session


def _sample(session: Session, probe) -> None:
    session.phase.samples.append(
        Sample(
            at=time.perf_counter(),
            acked_tuples=session.phase.acked_tuples,
            server_cpu_s=probe("sample"),
            delivered={
                app: len(sink.latencies) for app, sink in session.sinks.items()
            },
        )
    )


async def _sample_windows(session: Session, probe) -> None:
    while True:
        await asyncio.sleep(WINDOW_S)
        _sample(session, probe)


async def _measure(session: Session, probe) -> None:
    """The measured phase: from the first frame to the last ack."""
    phase = session.phase
    workload = session.inputs.workload
    probe("begin")
    phase.started = time.perf_counter()
    phase.active = True
    _sample(session, probe)
    sampler = asyncio.ensure_future(_sample_windows(session, probe))
    try:
        if workload.loop == "closed":
            await _closed_loop(session, workload.inflight, warmup=False)
        else:
            await _open_loop(session)
    finally:
        sampler.cancel()
    _sample(session, probe)
    phase.ended = time.perf_counter()
    phase.active = False
    probe("end")
    await asyncio.gather(sampler, return_exceptions=True)


async def _drain(session: Session) -> None:
    """Unsubscribe every app (the broker's final flush), then hang up."""
    await _quiesce(session.phase)
    for app in session.inputs.final_apps():
        client = session.sinks[app].lane.client
        session.phase.ops_attempted += 1
        try:
            await client.unsubscribe(app)
        except _OP_ERRORS as exc:
            session.phase.ops_failed += 1
            session.phase.fail(f"final unsubscribe({app})", exc)
    await asyncio.wait_for(
        asyncio.gather(*session.consumers), timeout=_DRAIN_TIMEOUT_S
    )


async def _close(session: Session) -> None:
    for task in session.consumers:
        task.cancel()
    await asyncio.gather(*session.consumers, return_exceptions=True)
    for client in session.clients:
        await client.close()


async def drive(inputs: Inputs, port: int, *, probe, recorder=None, measure=True):
    """Set up against a ready server; optionally measure and drain.

    ``probe(event)`` is called synchronously at ``"ready"`` (set-up and
    warm-up complete), ``"begin"`` and ``"end"`` (either side of the
    measured phase) so the caller can read clocks and ``/proc`` at
    exactly those points, and at every ``"sample"``, where it returns
    the server processes' CPU seconds.  Returns the :class:`Session`.
    """
    session = await _setup(inputs, port, recorder)
    try:
        probe("ready")
        if measure:
            await _measure(session, probe)
            await _drain(session)
    finally:
        await _close(session)
    return session
