"""The traced pass and the per-layer budget.

Two things happen when a run is traced.  First the workload is repeated
with the span recorder on (one span per client call and per delivered
batch), which also yields the tracing overhead.  Then a fixed prefix of
the same inputs is replayed *in this process* through each layer's
public functions, one layer at a time, each replay under a span named
after the layer.  The layers nest by the work they contain --

    gateway > broker > core > filters        (and gateway > codec)

-- ``DisseminationService.offer_many`` runs the engine's decide, which
runs the filters' own processing -- so a layer's self time is its
span's duration minus its children's.  Every ``*_us_per_tuple`` is per
*offered* tuple, so the rows add up against the end-to-end
``server_cpu_us_per_tuple``.

A layer whose public function no longer exists is reported as skipped
with the reason; the run goes on.
"""

from __future__ import annotations

import asyncio
import json
import time
from pathlib import Path
from typing import Callable, Optional

from harness import measure, stats
from harness.workloads import (
    Inputs,
    SourceInput,
    apply_op,
    engine_config,
    service_config,
)

__all__ = ["PER_LAYER", "REPLAY_TUPLES", "LayerReplay", "traced_report"]

#: Tuples of the first source replayed through each layer.
REPLAY_TUPLES = 16384

#: The per-layer metrics every workload reports (BENCHMARK.json's
#: ``per_layer``): name -> (unit, better).  Metrics that exist on one
#: workload only (``gen.late_*``, ``*.churn_op_*``, ``cluster.*``) are
#: printed and written to the manifest but are not in this list.
PER_LAYER = {
    "gen.cpu_util": ("ratio", "lower"),
    "gen.cpu_us_per_tuple": ("us", "lower"),
    "host.spin_ms_before": ("ms", "lower"),
    "host.spin_ms_after": ("ms", "lower"),
    "server.cpu_util": ("ratio", "higher"),
    "server.cpu_growth_ratio": ("ratio", "lower"),
    "server.rss_growth_kb_per_ktuple": ("kB/ktuple", "lower"),
    "client.ack_ms_p50": ("ms", "lower"),
    "client.ack_ms_p90": ("ms", "lower"),
    "e2e.delivery_ms_p90": ("ms", "lower"),
    "e2e.delivery_ms_p99": ("ms", "lower"),
    "e2e.delivery_samples": ("count", "higher"),
    "core.decide_us_per_tuple": ("us", "lower"),
    "core.decisions": ("count", "higher"),
    "core.outputs": ("count", "lower"),
    "filters.self_interested_us_per_tuple": ("us", "lower"),
    "core.coordination_us_per_tuple": ("us", "lower"),
    "filters.parse_us_per_spec": ("us", "lower"),
    "codec.encode_ingest_us_per_tuple": ("us", "lower"),
    "codec.decode_ingest_us_per_tuple": ("us", "lower"),
    "codec.ingest_bytes_per_tuple": ("B", "lower"),
    "codec.encode_decided_us_per_tuple": ("us", "lower"),
    "codec.decode_decided_us_per_tuple": ("us", "lower"),
    "codec.decided_bytes_per_tuple": ("B", "lower"),
    "batching.stage_us_per_tuple": ("us", "lower"),
    "session.queue_us_per_batch": ("us", "lower"),
    "broker.offer_us_per_tuple": ("us", "lower"),
    "broker.self_us_per_tuple": ("us", "lower"),
    "obs.telemetry_us_per_tuple": ("us", "lower"),
    "gateway.self_cpu_us_per_tuple": ("us", "lower"),
    "budget.sum_us_per_tuple": ("us", "lower"),
    "budget.residual_share": ("ratio", "lower"),
    "trace.overhead_share": ("ratio", "lower"),
}


class LayerReplay:
    """Layer spans and skip reasons of one in-process replay."""

    def __init__(self, src: SourceInput, inputs: Inputs):
        self.src = src
        self.items = src.items[:REPLAY_TUPLES]
        self.tuples = len(self.items)
        self.workload = inputs.workload
        self.ops = [op for op in inputs.ops if src.warmup + op.at < self.tuples]
        #: name -> (start_ns, end_ns)
        self.spans: dict[str, tuple[int, int]] = {}
        self.skipped: dict[str, str] = {}
        self.metrics: dict[str, tuple] = {}

    def timed(self, name: str, work: Callable[[], object]):
        started = time.perf_counter_ns()
        result = work()
        self.spans[name] = (started, time.perf_counter_ns())
        return result

    def us(self, name: str) -> Optional[float]:
        """A span's duration per offered tuple, in microseconds."""
        span = self.spans.get(name)
        return None if span is None else (span[1] - span[0]) / 1e3 / self.tuples

    def probe(self, name: str, layer: Callable[["LayerReplay"], None]) -> None:
        """Run one layer's replay; a layer whose public surface is gone
        (import, attribute or signature) is skipped, not fatal."""
        try:
            layer(self)
        except (ImportError, AttributeError, TypeError, NameError) as exc:
            self.skipped[name] = f"{type(exc).__name__}: {exc}"

    def fresh_filters(self):
        from repro.filters import parse_filter

        return [parse_filter(spec, name=app) for app, spec in self.src.apps]

    def frames(self) -> list:
        per_frame = self.workload.frame_tuples
        return [
            self.items[start : start + per_frame]
            for start in range(0, self.tuples, per_frame)
        ]


# ---------------------------------------------------------------------------
# One function per layer
# ---------------------------------------------------------------------------
def _filters_parse(replay: LayerReplay) -> None:
    from repro.filters import parse_filter

    specs = [spec for _, spec in replay.src.apps] + [
        op.spec for op in replay.ops if op.spec is not None
    ]
    repeats = max(1, 2048 // len(specs))
    started = time.perf_counter_ns()
    for _ in range(repeats):
        for spec in specs:
            parse_filter(spec)
    elapsed = time.perf_counter_ns() - started
    replay.metrics["filters.parse_us_per_spec"] = (
        elapsed / 1e3 / (repeats * len(specs)),
        "us",
    )


def _filters_alone(replay: LayerReplay) -> None:
    from repro.core.engine import SelfInterestedEngine

    engine = SelfInterestedEngine(replay.fresh_filters())
    replay.timed("filters", lambda: engine.run(replay.items))
    replay.metrics["filters.self_interested_us_per_tuple"] = (
        replay.us("filters"),
        "us",
    )


def _core_decide(replay: LayerReplay) -> None:
    from repro.service.broker import engine_from_config

    engine = engine_from_config(replay.fresh_filters(), engine_config())
    result = replay.timed("core", lambda: engine.run(replay.items))
    replay.result = result
    replay.metrics.update(
        {
            "core.decide_us_per_tuple": (replay.us("core"), "us"),
            "core.decisions": (
                sum(len(rows) for rows in result.decisions.values()),
                "count",
            ),
            "core.outputs": (result.output_count, "count"),
        }
    )


def _batching(replay: LayerReplay) -> None:
    """Stage the decided emissions exactly as the broker routes them;
    the batches, in flush order, feed the codec and session replays."""
    from repro.service.batching import MicroBatcher

    cfg = service_config()
    batchers = {
        app: MicroBatcher(cfg.batch_max_items, cfg.batch_max_delay_ms)
        for app, _ in replay.src.apps
    }
    batches: list = []

    def stage_all() -> None:
        for emission in replay.result.emissions:
            for app in sorted(emission.recipients):
                batch = batchers[app].stage(emission.item, emission.emit_ts)
                if batch is not None:
                    batches.append((app, batch))
        for app, batcher in batchers.items():
            batch = batcher.flush(0.0)
            if batch is not None:
                batches.append((app, batch))

    replay.timed("batching", stage_all)
    replay.batches = batches
    replay.metrics["batching.stage_us_per_tuple"] = (replay.us("batching"), "us")


def _codec_ingest(replay: LayerReplay) -> None:
    from repro.transport.codec import make_encoder
    from repro.transport.protocol import FrameDecoder, pack_header

    encoder = make_encoder("binary")
    source = replay.src.name
    pad = replay.workload.pad_bytes
    frames = replay.frames()

    def encode() -> list:
        if replay.workload.frame_tuples == 1:
            return [
                encoder.ingest_body(source, frame[0], seq=i, pad_bytes=pad)
                for i, frame in enumerate(frames)
            ]
        return [
            encoder.ingest_batch_body(source, frame, seq=i, pad_bytes=pad)
            for i, frame in enumerate(frames)
        ]

    bodies = replay.timed("codec.encode_ingest", encode)
    wire = [pack_header(len(body)) + body for body in bodies]
    decoder = FrameDecoder()

    def decode() -> None:
        for chunk in wire:
            decoder.feed(chunk)

    replay.timed("codec.decode_ingest", decode)
    replay.metrics.update(
        {
            "codec.encode_ingest_us_per_tuple": (
                replay.us("codec.encode_ingest"),
                "us",
            ),
            "codec.decode_ingest_us_per_tuple": (
                replay.us("codec.decode_ingest"),
                "us",
            ),
            "codec.ingest_bytes_per_tuple": (
                sum(len(chunk) for chunk in wire) / replay.tuples,
                "B",
            ),
        }
    )


def _codec_decided(replay: LayerReplay) -> None:
    from repro.transport.codec import NameTable, SegmentCache, make_encoder
    from repro.transport.protocol import (
        MAX_FRAME_BYTES,
        FrameDecoder,
        batch_from_wire,
        pack_header,
    )

    # One connection carries every subscription, as in the workloads.
    encoder = make_encoder("binary", table=NameTable(), cache=SegmentCache())

    def encode() -> list:
        return [
            encoder.decided_pieces(
                app, batch, max_frame_bytes=MAX_FRAME_BYTES, shared=True
            )
            for app, batch in replay.batches
        ]

    encoded = replay.timed("codec.encode_decided", encode)
    wire = [pack_header(total) + b"".join(pieces) for pieces, total in encoded]
    decoder = FrameDecoder()

    def decode() -> None:
        for chunk in wire:
            for frame in decoder.feed(chunk):
                batch_from_wire(frame)

    replay.timed("codec.decode_decided", decode)
    replay.metrics.update(
        {
            "codec.encode_decided_us_per_tuple": (
                replay.us("codec.encode_decided"),
                "us",
            ),
            "codec.decode_decided_us_per_tuple": (
                replay.us("codec.decode_decided"),
                "us",
            ),
            "codec.decided_bytes_per_tuple": (
                sum(len(chunk) for chunk in wire) / replay.tuples,
                "B",
            ),
        }
    )


def _session_queue(replay: LayerReplay) -> None:
    from repro.service.session import DeliveryQueue

    cfg = service_config()
    batches = [batch for _, batch in replay.batches]

    async def through_queue() -> None:
        queue = DeliveryQueue(cfg.queue_capacity, cfg.overflow)
        for batch in batches:
            await queue.put(batch)
            await queue.get()

    replay.timed("session", lambda: asyncio.run(through_queue()))
    start, end = replay.spans["session"]
    replay.metrics["session.queue_us_per_batch"] = (
        (end - start) / 1e3 / max(1, len(batches)),
        "us",
    )


async def _drive_broker(replay: LayerReplay, telemetry) -> tuple[int, list[float]]:
    """Offer the replay frames to an in-process broker whose sessions are
    drained as fast as they fill.  Returns nanoseconds spent in offers
    and the seconds each control operation took."""
    from repro.service.broker import DisseminationService

    src = replay.src
    service = DisseminationService(service_config(), telemetry=telemetry)
    service.add_source(src.name)
    consumers: list[asyncio.Task] = []

    async def drain(session) -> None:
        async for _ in session.batches():
            pass

    async def subscribe(app: str, spec: str) -> None:
        session = await service.subscribe(app, src.name, spec)
        consumers.append(asyncio.ensure_future(drain(session)))

    for app, spec in src.apps:
        await subscribe(app, spec)
    ops = iter(replay.ops)
    pending = next(ops, None)
    op_s: list[float] = []
    offer_ns = 0
    single = replay.workload.frame_tuples == 1
    for frame in replay.frames():
        first_measured = frame[0].seq - src.warmup
        while pending is not None and pending.at == first_measured:
            started = time.perf_counter()
            await apply_op(service, pending, subscribe, service.unsubscribe)
            op_s.append(time.perf_counter() - started)
            pending = next(ops, None)
        started_ns = time.perf_counter_ns()
        if single:
            await service.offer(src.name, frame[0])
        else:
            await service.offer_many(src.name, frame)
        offer_ns += time.perf_counter_ns() - started_ns
    await service.close()
    await asyncio.gather(*consumers)
    return offer_ns, op_s


def _broker(replay: LayerReplay) -> None:
    from repro.obs.telemetry import Telemetry

    anchor = time.perf_counter_ns()
    plain_ns, _ = asyncio.run(_drive_broker(replay, None))
    replay.spans["broker.plain"] = (anchor, anchor + plain_ns)
    anchor = time.perf_counter_ns()
    observed_ns, op_s = asyncio.run(_drive_broker(replay, Telemetry()))
    # The server runs with telemetry on, so this is the broker span.
    replay.spans["broker"] = (anchor, anchor + observed_ns)
    replay.metrics.update(
        {
            "broker.offer_us_per_tuple": (replay.us("broker"), "us"),
            "obs.telemetry_us_per_tuple": (
                replay.us("broker") - replay.us("broker.plain"),
                "us",
            ),
        }
    )
    if op_s:
        replay.metrics["broker.churn_op_ms_p50"] = (
            stats.percentile(sorted(op_s), 50.0) * 1e3,
            "ms",
        )


_LAYERS = (
    ("filters.parse", _filters_parse),
    ("filters", _filters_alone),
    ("core", _core_decide),
    ("batching", _batching),
    ("codec.ingest", _codec_ingest),
    ("codec.decided", _codec_decided),
    ("session", _session_queue),
    ("broker", _broker),
)


def _budget(replay: LayerReplay, server_cpu_us: float) -> tuple[dict, dict]:
    """Self times by the nesting rule, and what they leave unexplained."""
    us = replay.us
    metrics: dict[str, tuple] = {}

    def minus(a: Optional[float], *rest: Optional[float]) -> Optional[float]:
        if a is None or any(r is None for r in rest):
            return None
        return a - sum(rest)

    coordination = minus(us("core"), us("filters"))
    broker_self = minus(us("broker.plain"), us("core"))
    obs = minus(us("broker"), us("broker.plain"))
    codec = None
    if us("codec.decode_ingest") is not None and us("codec.encode_decided") is not None:
        # The server's side of the wire: it decodes ingest, encodes decided.
        codec = us("codec.decode_ingest") + us("codec.encode_decided")
    metrics["core.coordination_us_per_tuple"] = (coordination, "us")
    metrics["broker.self_us_per_tuple"] = (broker_self, "us")
    metrics["gateway.self_cpu_us_per_tuple"] = (
        minus(server_cpu_us, us("broker")),
        "us",
    )
    self_times = {
        "filters": us("filters"),
        "core": coordination,
        "broker": broker_self,
        "obs": obs,
        "codec": codec,
    }
    known = [value for value in self_times.values() if value is not None]
    total = sum(known)
    self_times["gateway (residual: sockets, framing, asyncio, relay)"] = (
        server_cpu_us - total
    )
    metrics["budget.sum_us_per_tuple"] = (total, "us")
    metrics["budget.residual_share"] = (1.0 - total / server_cpu_us, "ratio")
    return metrics, self_times


def traced_report(
    inputs: Inputs, plan, untraced: measure.Pass, golden_dir, out_dir: Path
) -> dict:
    """Traced pass + layer replay.  ``untraced`` is the pass whose
    end-to-end numbers are being reported (tracing off)."""
    traced = measure.measured_pass(inputs, plan, traced=True)
    verdict = measure.verify(traced, golden_dir)
    untraced_tps = untraced.delivered_in_phase / untraced.wall_s
    traced_tps = traced.delivered_in_phase / traced.wall_s
    overhead = 1.0 - traced_tps / untraced_tps

    replay = LayerReplay(inputs.sources[0], inputs)
    for name, layer in _LAYERS:
        replay.probe(name, layer)

    server_cpu_us = untraced.server_cpu_us_per_tuple
    metrics = dict(replay.metrics)
    budget_metrics, self_times = _budget(replay, server_cpu_us)
    metrics.update(budget_metrics)
    metrics["trace.overhead_share"] = (overhead, "ratio")
    ranked = sorted(
        ((value, name) for name, value in self_times.items() if value is not None),
        reverse=True,
    )
    lines = [
        f"  layer budget over a {replay.tuples}-tuple replay "
        f"(us per offered tuple; end to end {server_cpu_us:.1f})"
    ]
    for value, name in ranked:
        lines.append(f"    {name:<56} {value:>9.2f}  {value / server_cpu_us:>6.1%}")
    lines.append(
        "    top three by self time: "
        + ", ".join(name.split(" ")[0] for _, name in ranked[:3])
    )
    lines.append(
        f"    traced pass: delivered_tps {traced_tps:.1f} vs {untraced_tps:.1f} "
        f"untraced, overhead {overhead:+.1%}, "
        f"{len(traced.session.recorder.spans)} spans, correct={verdict['correct']}"
    )
    for name, reason in replay.skipped.items():
        lines.append(f"    skipped {name}: {reason}")

    out_dir.mkdir(exist_ok=True)
    trace_path = out_dir / f"{inputs.workload.name}.trace.json"
    trace_path.write_text(
        json.dumps(
            {
                "workload": inputs.workload.name,
                "seed": inputs.seed,
                "layer_spans": [
                    {"name": name, "start_ns": start, "end_ns": end}
                    for name, (start, end) in replay.spans.items()
                ],
                "layer_nesting": {
                    "filters": "core",
                    "core": "broker",
                    "broker.plain": "broker",
                    "broker": "gateway",
                    "codec.decode_ingest": "gateway",
                    "codec.encode_decided": "gateway",
                },
                "spans": traced.session.recorder.to_json(),
            }
        )
    )
    lines.append(f"    trace: {trace_path}")
    return {
        "metrics": metrics,
        "text": "\n".join(lines),
        "summary": {
            "replay_tuples": replay.tuples,
            "self_us_per_tuple": self_times,
            "top_three": [name for _, name in ranked[:3]],
            "skipped": replay.skipped,
            "traced_pass": {
                "correct": verdict["correct"],
                "delivered_tps": traced_tps,
                "spans": len(traced.session.recorder.spans),
                "warnings": measure.validity_flags(
                    traced, measure.run_level_metrics(traced)
                )[1],
            },
            "trace_file": str(trace_path),
        },
    }
