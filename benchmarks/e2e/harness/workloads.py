"""The four workloads, their seeded inputs and their reference outputs.

Everything a run sends is fixed by ``(workload, seed, seconds)``: the
tuple sequence, the filter specs, the positions and arguments of the
control operations.  ``schedule_digest`` fingerprints all of it, and a
golden file applies to a run only when the digests agree.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import struct
import sys
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from repro.core.tuples import StreamTuple
from repro.experiments.configs import dc_specs_from_statistics
from repro.filters import parse_filter
from repro.runtime.tasks import EngineConfig
from repro.service.broker import (
    DisseminationService,
    ServiceConfig,
    engine_from_config,
)
from repro.sources import CATALOG

__all__ = [
    "ATTRIBUTE",
    "GOLDEN_DIR",
    "GOLDEN_SEEDS",
    "WARMUP_TUPLES",
    "WORKLOADS",
    "ChurnOp",
    "Inputs",
    "SourceInput",
    "Workload",
    "apply_op",
    "build_inputs",
    "engine_config",
    "golden_path",
    "load_golden",
    "reference_digests",
    "reference_streams",
    "service_config",
    "stream_digest",
    "write_golden",
]

#: Tuples sent (and waited for) before anything is measured; they are
#: part of ``setup_s`` and of no other metric.
WARMUP_TUPLES = 8192

#: Attribute of the ``random_walk`` source every filter reads.
ATTRIBUTE = "value"

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "golden"

#: Seeds with a committed golden; any other seed computes its reference
#: after the timed phase.
GOLDEN_SEEDS = (7, 1013)

_SOURCE = "random_walk"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: "closed": each lane keeps ``inflight`` ingest frames outstanding;
    #: "open": one frame per tuple, sent when due at ``tuples_per_second``.
    loop: str
    sources: int
    #: Subscribers per source.
    subscribers: int
    frame_tuples: int
    pad_bytes: int
    #: Frames in flight per source (closed loop only).
    inflight: int
    connections: int
    #: ``serve --workers`` (1 = single in-process broker).
    workers: int
    #: Per source.  Closed loop: the offered rate seen on the reference
    #: container, used only to turn ``--seconds`` into a fixed tuple
    #: count.  Open loop: the schedule itself.
    tuples_per_second: int
    #: One control operation every this many tuples (0 = none).
    churn_every: int = 0

    def measured_tuples(self, seconds: float, scale: float = 1.0) -> int:
        """Measured tuples per source: whole frames, at least one."""
        frames = round(self.tuples_per_second * seconds * scale / self.frame_tuples)
        return max(1, frames) * self.frame_tuples

    def warmup_tuples(self, scale: float = 1.0) -> int:
        """Warm-up tuples per source: whole frames, at least one."""
        frames = int(WARMUP_TUPLES * scale / self.sources / self.frame_tuples)
        return max(1, frames) * self.frame_tuples


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="decide-heavy",
            why="32 subscribers on one source, 64-tuple frames: core's group "
            "decide dominates and the wire tier does little",
            loop="closed",
            sources=1,
            subscribers=32,
            frame_tuples=64,
            pad_bytes=0,
            inflight=2,
            connections=1,
            workers=1,
            tuples_per_second=4000,
        ),
        Workload(
            name="wire-heavy",
            why="2 subscribers, one padded 1 KiB tuple per frame: per-frame "
            "transport, codec and socket cost dominates, core does little",
            loop="closed",
            sources=1,
            subscribers=2,
            frame_tuples=1,
            pad_bytes=1024,
            inflight=8,
            connections=1,
            workers=1,
            tuples_per_second=9000,
        ),
        Workload(
            name="cluster-relay",
            why="8 sources behind serve --workers 2: the only workload where "
            "the cluster router forwards ingest and re-encodes decided batches",
            loop="closed",
            sources=8,
            subscribers=2,
            frame_tuples=16,
            pad_bytes=0,
            inflight=1,
            connections=2,
            workers=2,
            tuples_per_second=1250,
        ),
        Workload(
            name="paced-churn",
            why="open loop at a fixed rate with a re_filter/subscribe/"
            "unsubscribe every 100 tuples: engine rebuilds beside steady "
            "decides, latency not a function of throughput",
            loop="open",
            sources=1,
            subscribers=8,
            frame_tuples=1,
            pad_bytes=64,
            inflight=0,
            connections=1,
            workers=1,
            tuples_per_second=2000,
            churn_every=100,
        ),
    )
}


@dataclass(frozen=True)
class ChurnOp:
    #: Sent after measured tuple ``at - 1`` and before measured tuple ``at``.
    at: int
    kind: str  # "re_filter" | "subscribe" | "unsubscribe"
    app: str
    spec: Optional[str] = None


@dataclass(repr=False)
class SourceInput:
    name: str
    #: Warm-up tuples followed by the measured tuples, one trace.
    items: list[StreamTuple]
    warmup: int
    #: Initial ``(app, spec)`` subscriptions, in subscribe order.
    apps: list[tuple[str, str]]

    @property
    def measured(self) -> int:
        return len(self.items) - self.warmup


@dataclass(repr=False)
class Inputs:
    workload: Workload
    seed: int
    seconds: float
    scale: float
    sources: list[SourceInput]
    ops: list[ChurnOp] = field(default_factory=list)
    schedule_digest: str = ""

    @property
    def measured_tuples(self) -> int:
        return sum(src.measured for src in self.sources)

    @property
    def warmup_tuples(self) -> int:
        return sum(src.warmup for src in self.sources)

    def final_apps(self) -> list[str]:
        """Apps still subscribed once every op has run, in subscribe order."""
        live = [app for src in self.sources for app, _ in src.apps]
        for op in self.ops:
            if op.kind == "subscribe":
                live.append(op.app)
            elif op.kind == "unsubscribe":
                live.remove(op.app)
        return live


def engine_config() -> EngineConfig:
    """The decide configuration every workload's server runs."""
    return EngineConfig(algorithm="region")


def service_config() -> ServiceConfig:
    """In-process mirror of the ``serve`` flags the harness passes."""
    return ServiceConfig(
        engine=engine_config(),
        batch_max_items=8,
        batch_max_delay_ms=50.0,
        queue_capacity=16,
        overflow="block",
        seed=7,
    )


def _source_name(workload: Workload, index: int) -> str:
    return _SOURCE if workload.sources == 1 else f"{_SOURCE}-{index}"


def _app_name(workload: Workload, source: int, subscriber: int) -> str:
    if workload.sources == 1:
        return f"app{subscriber}"
    return f"s{source}.app{subscriber}"


def _churn_ops(
    workload: Workload, src: SourceInput, trace
) -> list[ChurnOp]:
    """re_filter(app0) -> subscribe(extraN) -> unsubscribe(extraN), cycling.

    Every extra subscriber gets a name of its own, so no operation ever
    has to wait for an earlier one's ``closed`` frame before its own
    frame is written: wire order is schedule order, whatever the timing.
    """
    tightened, extra_spec = dc_specs_from_statistics(trace, ATTRIBUTE, [0.8, 1.7])
    first_app, first_spec = src.apps[0]
    ops: list[ChurnOp] = []
    for k, at in enumerate(
        range(workload.churn_every, src.measured, workload.churn_every)
    ):
        round_index, step = divmod(k, 3)
        if step == 0:
            spec = tightened if round_index % 2 == 0 else first_spec
            ops.append(ChurnOp(at, "re_filter", first_app, spec))
        elif step == 1:
            ops.append(ChurnOp(at, "subscribe", f"extra{round_index}", extra_spec))
        else:
            ops.append(ChurnOp(at, "unsubscribe", f"extra{round_index}"))
    return ops


def _schedule_digest(inputs: Inputs) -> str:
    digest = hashlib.blake2b(digest_size=16)
    pack = struct.Struct("<qdd").pack
    for src in inputs.sources:
        digest.update(
            json.dumps([src.name, src.warmup, src.apps]).encode("utf-8")
        )
        for item in src.items:
            digest.update(pack(item.seq, item.timestamp, item.values[ATTRIBUTE]))
    digest.update(
        json.dumps(
            [[op.at, op.kind, op.app, op.spec] for op in inputs.ops]
        ).encode("utf-8")
    )
    return digest.hexdigest()


def build_inputs(
    workload: Workload, seed: int, seconds: float, scale: float = 1.0
) -> Inputs:
    """Generate one run's complete input from its seed."""
    warmup = workload.warmup_tuples(scale)
    total = warmup + workload.measured_tuples(seconds, scale)
    multipliers = [1.0 + 0.5 * (i % 4) for i in range(workload.subscribers)]
    sources = []
    ops: list[ChurnOp] = []
    for index in range(workload.sources):
        # Disjoint seed ranges per --seed, so neighbouring seeds share
        # no source stream.
        trace = CATALOG.make(_SOURCE, n=total, seed=seed * 64 + index)
        specs = dc_specs_from_statistics(trace, ATTRIBUTE, multipliers)
        src = SourceInput(
            name=_source_name(workload, index),
            items=list(trace),
            warmup=warmup,
            apps=[
                (_app_name(workload, index, i), spec)
                for i, spec in enumerate(specs)
            ],
        )
        sources.append(src)
        if workload.churn_every:
            ops.extend(_churn_ops(workload, src, trace))
    inputs = Inputs(workload, seed, seconds, scale, sources, ops)
    inputs.schedule_digest = _schedule_digest(inputs)
    return inputs


# ---------------------------------------------------------------------------
# Delivered-stream digests
# ---------------------------------------------------------------------------
def stream_digest(seqs: array, values: array) -> str:
    """Order-sensitive BLAKE2 digest of one app's delivered stream
    (sequence numbers and attribute values, little-endian)."""
    if sys.byteorder == "big":
        seqs, values = array("q", seqs), array("d", values)
        seqs.byteswap()
        values.byteswap()
    digest = hashlib.blake2b(digest_size=16)
    digest.update(seqs.tobytes())
    digest.update(values.tobytes())
    return digest.hexdigest()


def _digest_items(items) -> dict:
    seqs = array("q", [item.seq for item in items])
    values = array("d", [item.values[ATTRIBUTE] for item in items])
    return {"count": len(seqs), "blake2b": stream_digest(seqs, values)}


# ---------------------------------------------------------------------------
# Reference computations
# ---------------------------------------------------------------------------
def _batch_reference(src: SourceInput) -> dict[str, list[StreamTuple]]:
    """What the batch engine decides for one churn-free source."""
    filters = [parse_filter(spec, name=app) for app, spec in src.apps]
    result = engine_from_config(filters, engine_config()).run(src.items)
    return {
        app: [item for decision in result.decisions.get(app, ()) for item in decision.tuples]
        for app, _ in src.apps
    }


async def apply_op(service, op: ChurnOp, subscribe, unsubscribe) -> None:
    """One control operation against an in-process broker.  ``subscribe``
    and ``unsubscribe`` are the caller's: attaching a consumer, and
    detaching, differ between the reference and the layer replay."""
    if op.kind == "re_filter":
        await service.re_filter(op.app, op.spec)
    elif op.kind == "subscribe":
        await subscribe(op.app, op.spec)
    else:
        await unsubscribe(op.app)


async def _service_reference(inputs: Inputs) -> dict[str, list[StreamTuple]]:
    """An in-process broker driven with the identical tuple/op sequence."""
    (src,) = inputs.sources
    service = DisseminationService(service_config())
    service.add_source(src.name)
    streams: dict[str, list[StreamTuple]] = {}
    sessions: dict = {}
    consumers: list[asyncio.Task] = []

    async def consume(app: str, session) -> None:
        sink = streams.setdefault(app, [])
        async for batch in session.batches():
            sink.extend(batch.items)

    async def subscribe(app: str, spec: str) -> None:
        session = await service.subscribe(app, src.name, spec)
        sessions[app] = session
        consumers.append(asyncio.ensure_future(consume(app, session)))

    async def settled() -> None:
        # A detaching session's last batch is enqueued without waiting
        # and is lost if its queue is full; the server's pumps keep the
        # queues short, here the consumers must be given the chance.
        while any(session.queue.depth for session in sessions.values()):
            await asyncio.sleep(0)

    async def unsubscribe(app: str) -> None:
        await settled()
        await service.unsubscribe(app)
        del sessions[app]

    for app, spec in src.apps:
        await subscribe(app, spec)
    for item in src.items[: src.warmup]:
        await service.offer(src.name, item)
    ops = iter(inputs.ops)
    pending = next(ops, None)
    for index, item in enumerate(src.items[src.warmup :]):
        while pending is not None and pending.at == index:
            await apply_op(service, pending, subscribe, unsubscribe)
            pending = next(ops, None)
        await service.offer(src.name, item)
    for app in inputs.final_apps():
        await unsubscribe(app)
    dropped = service.snapshot().dropped_tuples
    await service.close()
    await asyncio.gather(*consumers)
    if dropped:
        raise RuntimeError(f"reference computation dropped {dropped} tuples")
    return streams


def reference_streams(inputs: Inputs) -> dict[str, list[StreamTuple]]:
    """Per-app delivered streams the server must reproduce exactly."""
    if inputs.ops:
        return asyncio.run(_service_reference(inputs))
    streams: dict[str, list[StreamTuple]] = {}
    for src in inputs.sources:
        streams.update(_batch_reference(src))
    return streams


def reference_digests(inputs: Inputs) -> dict[str, dict]:
    return {
        app: _digest_items(items)
        for app, items in sorted(reference_streams(inputs).items())
    }


# ---------------------------------------------------------------------------
# Golden files
# ---------------------------------------------------------------------------
def golden_path(workload: str, seed: int, directory: Path = GOLDEN_DIR) -> Path:
    return directory / f"{workload}.seed-{seed}.json"


def write_golden(inputs: Inputs, directory: Path = GOLDEN_DIR) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    path = golden_path(inputs.workload.name, inputs.seed, directory)
    payload = {
        "workload": inputs.workload.name,
        "seed": inputs.seed,
        "seconds": inputs.seconds,
        "scale": inputs.scale,
        "warmup_tuples": inputs.warmup_tuples,
        "measured_tuples": inputs.measured_tuples,
        "schedule_digest": inputs.schedule_digest,
        "apps": reference_digests(inputs),
    }
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return path


def load_golden(
    inputs: Inputs, directory: Path = GOLDEN_DIR
) -> Optional[dict[str, dict]]:
    """The committed per-app digests for exactly these inputs, if any."""
    path = golden_path(inputs.workload.name, inputs.seed, directory)
    if not path.is_file():
        return None
    payload = json.loads(path.read_text())
    if payload.get("schedule_digest") != inputs.schedule_digest:
        return None
    return payload["apps"]
