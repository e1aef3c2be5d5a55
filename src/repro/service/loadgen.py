"""Open- and closed-loop load generation against the live broker.

Replays a synthetic source trace (volcano, fire, cow, NAMOS, ...) into a
:class:`~repro.service.broker.DisseminationService` at a target
tuples/sec, with optional subscriber-churn schedules, and emits the
reproducibility-harness artifacts the related curv-embedding repo uses
for long-running systems: a ``metrics.jsonl`` stream of periodic
snapshots plus a ``summary.json`` run manifest (deterministic seeds,
config echo, totals, decide-latency percentiles, clean-shutdown flag).

Two offered-load models:

* **open loop** — arrivals follow the schedule regardless of service
  speed: each offer is a fire-and-forget task (bounded by
  ``max_in_flight``; excess arrivals are counted as *shed*), so queueing
  delay shows up as in-flight growth, the honest way to measure an
  overloaded broker;
* **closed loop** — each arrival awaits the previous offer, so a
  ``block`` overflow policy throttles the generator to the slowest
  consumer (end-to-end backpressure).

Two transports, one run loop:

* ``transport="inproc"`` — offers are plain broker calls (the PR-2
  mode);
* ``transport="tcp"`` — every offer, subscription, tick and snapshot
  crosses a real localhost socket through
  :class:`~repro.transport.client.GatewayClient`.  By default the run
  self-hosts a :class:`~repro.transport.server.GatewayServer` on an
  ephemeral port; ``connect="host:port"`` targets an already-running
  ``repro serve`` instead (whose engine algorithm must match
  ``algorithm`` for verification to be meaningful).

``verify=True`` replays the offered prefix through a fresh batch engine
built from the final subscription set afterwards and records whether
the live decided outputs match (exact equality for churn-free runs).
When the broker is in-process (including the self-hosted TCP server)
the comparison is decision-by-decision; against an external server the
per-app *delivered* tuple streams are compared to the flattened batch
reference, which is exact for churn-free, drop-free runs.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import asdict, dataclass, field, replace
from hashlib import blake2s
from pathlib import Path
from typing import Optional, Sequence

from repro.core.engine import EngineResult
from repro.core.tuples import StreamTuple, Trace
from repro.experiments.configs import dc_specs_from_statistics
from repro.filters.spec import parse_filter
from repro.metrics.summary import quantile
from repro.obs.telemetry import DEFAULT_SAMPLE_PERIOD, Telemetry
from repro.obs.trace import stage_name
from repro.runtime.tasks import EngineConfig, engine_from_config
from repro.service.broker import DisseminationService, ServiceConfig
from repro.sources import CATALOG

__all__ = [
    "SIZES",
    "LOADGEN_SOURCES",
    "TRANSPORTS",
    "ChurnEvent",
    "LoadGenConfig",
    "default_churn",
    "make_trace",
    "run_loadgen",
    "decided_map",
]

#: Subscriber-count presets.
SIZES = {"tiny": 2, "small": 8, "medium": 32}

#: Catalog sources whose generators take plain ``(n, seed)`` kwargs.
LOADGEN_SOURCES = ("random_walk", "sine", "namos", "volcano", "fire", "cow")

#: How offered tuples reach the broker.
TRANSPORTS = ("inproc", "tcp")


@dataclass(frozen=True)
class ChurnEvent:
    """One scheduled subscription change, ``at_s`` seconds into the run."""

    at_s: float
    op: str  # "subscribe" | "unsubscribe" | "re_filter"
    app: str
    spec: Optional[str] = None

    def __post_init__(self) -> None:
        if self.op not in ("subscribe", "unsubscribe", "re_filter"):
            raise ValueError(f"unknown churn op {self.op!r}")
        if self.op in ("subscribe", "re_filter") and self.spec is None:
            raise ValueError(f"churn op {self.op!r} needs a filter spec")


@dataclass(frozen=True)
class LoadGenConfig:
    """One load-generation run, fully determined by this config + seeds."""

    source: str = "random_walk"
    size: str = "tiny"
    rate: float = 500.0
    duration_s: float = 2.0
    mode: str = "open"  # "open" | "closed"
    algorithm: str = "region"
    constraint_ms: Optional[float] = None
    seed: int = 7
    queue_capacity: int = 16
    overflow: str = "block"
    batch_max_items: int = 8
    batch_max_delay_ms: float = 50.0
    consumer_delay_ms: float = 0.0
    metrics_interval_s: float = 0.25
    max_in_flight: int = 4096
    churn: tuple[ChurnEvent, ...] = field(default_factory=tuple)
    out_dir: Optional[str] = None
    verify: bool = False
    #: "inproc" offers straight to the broker; "tcp" drives everything
    #: through a GatewayClient over a real localhost socket.
    transport: str = "inproc"
    #: "host:port" of an external gateway (tcp only); None self-hosts.
    connect: Optional[str] = None
    #: Simulated payload bytes per tuple: over TCP, padding attached to
    #: each ingest frame so wire throughput reflects the configured tuple
    #: size; in the broker, the QoS controller's egress estimate.
    tuple_size_bytes: int = 64
    #: Tuples per ingest frame (tcp) / ``offer_many`` call (inproc).  1
    #: offers one tuple per frame; larger values batch arrivals,
    #: amortizing per-tuple wire and lock overhead.
    ingest_batch: int = 1
    #: Adaptive (AIMD) ingest batching — the default when
    #: ``ingest_batch > 1``: the knob becomes the *maximum* batch size
    #: and an :class:`~repro.transport.client.AdaptiveIngest` controller
    #: sizes each flush from observed ack latency; the summary records
    #: the size trajectory.  ``False`` restores the fixed-size knob.
    adaptive_batch: bool = True
    #: Independent source streams.  1 replays ``source`` exactly as
    #: before; N > 1 replays N seeded variants (``source-0`` ...
    #: ``source-N-1``), each with its own subscriber set, feeder task
    #: and (over TCP) its own gateway connection — the shape a sharded
    #: broker tier needs to show any parallelism.
    sources: int = 1
    #: Self-hosted broker worker processes (tcp only, ``connect=None``):
    #: > 1 builds a :mod:`repro.service.cluster` fleet behind the
    #: self-hosted gateway instead of one in-process broker.
    workers: int = 1
    #: Stage-trace roughly one in N tuples (deterministic on the tuple
    #: key, so client, gateway and broker all sample the same tuples).
    #: The sampled traces feed the summary's ``stage_latency`` block;
    #: 0 disables telemetry entirely (no registry, no traces, no
    #: event log — the overhead-gate baseline).
    trace_sample: int = DEFAULT_SAMPLE_PERIOD
    #: Offer the *entire* trace even when ``duration_s`` elapses first.
    #: Duration-bounded runs offer however much fit in the wall budget —
    #: fine for throughput cells, but a determinism comparison across
    #: runs (e.g. delivered-stream digests across worker counts) needs
    #: identical offered sets, which only a full-trace replay gives.
    drain_trace: bool = False
    #: Run a :class:`~repro.obs.watch.Watchtower` alongside the run
    #: (telemetry permitting): the summary gains a ``health`` block and
    #: ``--out`` manifests a ``health.json`` verdict file.
    watch: bool = True
    #: Watchtower poll cadence.
    watch_interval_s: float = 1.0
    #: Piecewise-constant load shape: ``(duration_s, rate_multiplier)``
    #: segments applied to ``rate`` in order (flash crowds, diurnal
    #: swells, correlated bursts).  Past the profile's total duration
    #: the base rate resumes; ``()`` keeps the historic constant rate.
    rate_profile: tuple[tuple[float, float], ...] = ()
    #: Server-side degradation ladder: coarser filter specs (level 1,
    #: 2, ... below each subscriber's own level-0 spec) every
    #: subscriber subscribes with.  Under overload the broker walks
    #: sessions down this ladder instead of dropping them, and the
    #: summary gains a ``qos`` block recording the transitions.
    degradation_levels: tuple[str, ...] = ()
    #: :class:`~repro.qos.controller.DegradationConfig` overrides (a
    #: plain kwargs dict, so the config stays JSON-round-trippable).
    degradation_config: Optional[dict] = None

    def __post_init__(self) -> None:
        if self.source not in LOADGEN_SOURCES:
            raise ValueError(
                f"unknown loadgen source {self.source!r}; "
                f"expected one of {LOADGEN_SOURCES}"
            )
        if self.size not in SIZES:
            raise ValueError(f"unknown size {self.size!r}; expected {sorted(SIZES)}")
        if self.mode not in ("open", "closed"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.rate <= 0.0:
            raise ValueError("rate must be positive")
        if self.duration_s <= 0.0:
            raise ValueError("duration_s must be positive")
        if self.transport not in TRANSPORTS:
            raise ValueError(
                f"unknown transport {self.transport!r}; expected {TRANSPORTS}"
            )
        if self.connect is not None:
            if self.transport != "tcp":
                raise ValueError("connect= requires transport='tcp'")
            _, _, port_text = self.connect.rpartition(":")
            if not port_text.isdigit():
                raise ValueError(
                    f"connect= must be 'host:port', got {self.connect!r}"
                )
        if self.tuple_size_bytes < 0:
            raise ValueError("tuple_size_bytes must be non-negative")
        if self.ingest_batch < 1:
            raise ValueError("ingest_batch must be at least 1")
        if self.sources < 1:
            raise ValueError("sources must be at least 1")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        if self.workers > 1:
            if self.transport != "tcp":
                raise ValueError("workers > 1 requires transport='tcp'")
            if self.connect is not None:
                raise ValueError(
                    "workers > 1 self-hosts a cluster; it cannot target "
                    "an external server (drop connect=)"
                )
        if self.trace_sample < 0:
            raise ValueError("trace_sample must be non-negative (0 disables)")
        if self.churn and self.sources != 1:
            raise ValueError(
                "churn schedules name single-stream apps; use sources=1"
            )
        if self.drain_trace and self.mode != "closed":
            raise ValueError(
                "drain_trace promises an identical offered set across "
                "runs; open-loop shedding breaks that — use mode='closed'"
            )
        if self.watch_interval_s <= 0:
            raise ValueError("watch_interval_s must be positive")
        for i, segment in enumerate(self.rate_profile):
            if len(segment) != 2:
                raise ValueError(
                    f"rate_profile[{i}] must be (duration_s, multiplier)"
                )
            duration, multiplier = segment
            if duration <= 0 or multiplier <= 0:
                raise ValueError(
                    f"rate_profile[{i}] needs positive duration and "
                    f"multiplier, got {segment!r}"
                )
        if self.degradation_config is not None and not self.degradation_levels:
            raise ValueError(
                "degradation_config needs degradation_levels to apply to"
            )
        if self.degradation_levels and self.verify:
            raise ValueError(
                "degradation re-filters sessions mid-run, so the batch "
                "reference cannot match; use delivered digests instead "
                "of verify="
            )


class _RateSchedule:
    """Arrival pacing under a piecewise-constant rate profile.

    Maps tuple index → offer time (:meth:`time_for`) and elapsed time →
    expected offered count (:meth:`count_until`); the two are inverses.
    With an empty profile both reduce to the historic constant-rate
    arithmetic (``index / rate``), exactly.
    """

    def __init__(self, rate: float, profile) -> None:
        self.rate = rate
        #: ``(start_s, end_s, segment_rate, count_before)`` per segment.
        self._segments: list[tuple[float, float, float, float]] = []
        t = 0.0
        count = 0.0
        for duration, multiplier in profile:
            segment_rate = rate * multiplier
            self._segments.append((t, t + duration, segment_rate, count))
            count += segment_rate * duration
            t += duration
        self._tail_start = t
        self._tail_count = count

    def time_for(self, index: int) -> float:
        """Seconds into the run at which tuple ``index`` is due."""
        for start, end, segment_rate, before in self._segments:
            if index < before + segment_rate * (end - start):
                return start + (index - before) / segment_rate
        return self._tail_start + (index - self._tail_count) / self.rate

    def count_until(self, t_s: float) -> float:
        """Tuples due in the first ``t_s`` seconds."""
        total = 0.0
        for start, end, segment_rate, _ in self._segments:
            if t_s <= start:
                return total
            total += segment_rate * (min(t_s, end) - start)
        if t_s > self._tail_start:
            total += self.rate * (t_s - self._tail_start)
        return total


def _rate_schedule(config: LoadGenConfig) -> _RateSchedule:
    return _RateSchedule(config.rate, config.rate_profile)


def make_trace(config: LoadGenConfig, stream: int = 0) -> Trace:
    """The deterministic input trace a config replays (seeded, sized).

    ``stream`` selects one of the config's independent source streams
    (each stream reseeds the generator with ``seed + stream``, so the
    streams are distinct but every run of the config replays the same
    set).  Sizing integrates the rate profile, so a flash-crowd shape
    has the whole surge's tuples to offer.
    """
    n = max(16, int(_rate_schedule(config).count_until(config.duration_s)))
    return CATALOG.make(config.source, n=n, seed=config.seed + stream)


def _source_names(config: LoadGenConfig) -> list[str]:
    """Broker source names, one per stream (stable across worker counts:
    the cluster's hash placement keys on exactly these strings)."""
    if config.sources == 1:
        return [config.source]
    return [f"{config.source}-{i}" for i in range(config.sources)]


def _app_name(config: LoadGenConfig, stream: int, subscriber: int) -> str:
    """Subscriber app names; single-stream keeps the historic ``appN``."""
    if config.sources == 1:
        return f"app{subscriber}"
    return f"s{stream}.app{subscriber}"


def _subscriber_specs(config: LoadGenConfig, trace: Trace) -> list[str]:
    """Recipe-derived DC specs, one per subscriber, over the first attribute."""
    attribute = trace.attributes[0]
    count = SIZES[config.size]
    multipliers = [1.0 + 0.5 * (i % 4) for i in range(count)]
    return dc_specs_from_statistics(trace, attribute, multipliers)


def default_churn(
    config: LoadGenConfig, trace: Optional[Trace] = None
) -> tuple[ChurnEvent, ...]:
    """A representative schedule: re-filter early, subscribe, unsubscribe."""
    if trace is None:
        trace = make_trace(config)
    attribute = trace.attributes[0]
    tightened = dc_specs_from_statistics(trace, attribute, [0.8, 1.7])
    d = config.duration_s
    events = [
        ChurnEvent(at_s=0.4 * d, op="re_filter", app="app0", spec=tightened[0]),
        ChurnEvent(at_s=0.5 * d, op="subscribe", app="app-late", spec=tightened[1]),
    ]
    if SIZES[config.size] >= 2:
        events.append(ChurnEvent(at_s=0.7 * d, op="unsubscribe", app="app1"))
    return tuple(sorted(events, key=lambda e: e.at_s))


def _stream_digest(seqs: Sequence[int]) -> str:
    """Order-sensitive digest of one delivered seq stream.

    Two runs delivered byte-identical streams to an app iff their
    digests (and counts) match — the cross-worker-count determinism
    check compares these across independent processes, where comparing
    the raw lists would mean shipping them around.
    """
    digest = blake2s(digest_size=16)
    for seq in seqs:
        digest.update(seq.to_bytes(8, "big", signed=True))
    return digest.hexdigest()


def decided_map(result: EngineResult) -> dict[str, list[tuple[int, ...]]]:
    """Per-filter decided tuple seqs, in decision order (tick-invariant)."""
    return {
        name: [tuple(item.seq for item in d.tuples) for d in decided]
        for name, decided in result.decisions.items()
    }


def _merge_decided(epochs: Sequence[EngineResult]) -> dict[str, list[tuple[int, ...]]]:
    merged: dict[str, list[tuple[int, ...]]] = {}
    for epoch in epochs:
        for name, rows in decided_map(epoch).items():
            merged.setdefault(name, []).extend(rows)
    return merged


def _batch_reference(
    subscriptions: Sequence[tuple[str, str]],
    items: Sequence[StreamTuple],
    engine_cfg: EngineConfig,
) -> EngineResult:
    """The batch engine's verdict on the same trace and final group.

    Built from the same :class:`EngineConfig` the live service runs:
    with ``constraint_ms`` set the service takes timely cuts, so an
    unconstrained reference would legitimately diverge and flag a
    correct run as non-equivalent.
    """
    filters = [parse_filter(spec, name=app) for app, spec in subscriptions]
    return engine_from_config(filters, engine_cfg).run(items)


def _dead_snapshot() -> dict:
    """Summary-shaped zeros for a run whose broker became unreachable."""
    return {
        "dropped_tuples": 0,
        "decided_emissions": 0,
        "decide_p50_ms": 0.0,
        "decide_p99_ms": 0.0,
        "regroups": 0,
        "ticks": 0,
        "cuts_triggered": 0,
    }


async def _consume(
    handle,
    delay_ms: float,
    sink: Optional[list[int]] = None,
    stages: Optional[dict] = None,
    gate: Optional[asyncio.Event] = None,
) -> int:
    """Drain one subscription (in-process session or remote).

    ``sink`` collects the delivered tuple seqs — only external-server
    verification reads them, so every other mode passes ``None`` and a
    long run does not retain one int per delivered tuple.  ``stages``
    (``{stage_id: [dur_ns, ...]}``) accumulates the sampled stage
    traces that reach this subscriber, feeding the summary's
    ``stage_latency`` block.  ``gate`` (set = flowing) is the chaos
    harness's stalled-reader valve: while cleared, this consumer stops
    taking batches and backpressure does whatever the overflow policy
    says.
    """
    total = 0
    async for batch in handle.batches():
        total += len(batch)
        if sink is not None:
            sink.extend(item.seq for item in batch.items)
        if stages is not None and batch.traces is not None:
            for pairs in batch.traces[1].values():
                for sid, dur in pairs:
                    stages.setdefault(sid, []).append(dur)
        if delay_ms > 0.0:
            await asyncio.sleep(delay_ms / 1000.0)
        if gate is not None and not gate.is_set():
            await gate.wait()
    return total


def _stage_latency_summary(stages: dict) -> dict:
    """Per-stage p50/p99 (ms) from the run's sampled stage traces."""
    block: dict[str, dict] = {}
    for sid in sorted(stages):
        durs = stages[sid]
        block[stage_name(sid)] = {
            "count": len(durs),
            "p50_ms": round(quantile(durs, 0.50) / 1e6, 6),
            "p99_ms": round(quantile(durs, 0.99) / 1e6, 6),
        }
    return block


def _reconcile_stage_latency(block: Optional[dict], snapshot: dict) -> None:
    """Telemetry-honesty check: two independent latency measurements of
    the same interval must agree.

    The ``decide`` stage trace times arrival→emission per *sampled*
    tuple; the snapshot's ``decide_p50_ms`` is the percentile over
    *every* decide in the window.  Same quantity, different instruments
    — a large residual means one of them is lying (a stage boundary
    moved, a unit slipped, sampling went biased).  The residual is
    surfaced in the summary's ``stage_latency`` block; tolerance is
    generous (sampled percentiles over few tuples are noisy) because
    this is a sanity bound, not a benchmark.
    """
    if not block:
        return
    decide = block.get("decide")
    e2e_p50 = snapshot.get("decide_p50_ms") or 0.0
    if decide is None or decide.get("count", 0) < 5 or e2e_p50 <= 0:
        return
    stage_p50 = decide["p50_ms"]
    residual = stage_p50 - e2e_p50
    tolerance = max(5.0, 0.75 * e2e_p50)
    block["reconciliation"] = {
        "decide_p50_ms": e2e_p50,
        "stage_decide_p50_ms": stage_p50,
        "residual_ms": round(residual, 6),
        "tolerance_ms": round(tolerance, 6),
        "within_tolerance": abs(residual) <= tolerance,
    }


# ---------------------------------------------------------------------------
# Transport drivers: one run loop, two ways to reach the broker
# ---------------------------------------------------------------------------
def _broker_service(
    config: LoadGenConfig,
    engine_cfg: EngineConfig,
    tick_cuts: bool,
    sources: Sequence[str],
    telemetry: Optional[Telemetry] = None,
) -> DisseminationService:
    service = DisseminationService(
        ServiceConfig(
            engine=engine_cfg,
            batch_max_items=config.batch_max_items,
            batch_max_delay_ms=config.batch_max_delay_ms,
            queue_capacity=config.queue_capacity,
            overflow=config.overflow,
            tick_cuts=tick_cuts,
            tuple_size_bytes=config.tuple_size_bytes,
            # Only verification reads the engines' epochs back.
            record_epochs=config.verify,
        ),
        telemetry=telemetry,
    )
    for name in sources:
        service.add_source(name)
    return service


async def _close_out(service: DisseminationService, sources: Sequence[str]):
    """Shared in-process close-out: ``(epochs by source, final snapshot
    dict, final subscriptions by source)`` — the subscriptions read
    before the close, straight from the broker (which may have detached
    disconnect-policy laggards the run loop never saw leave)."""
    subscriptions = {name: service.subscriptions(name) for name in sources}
    epochs_all = await service.close()
    epochs = {name: epochs_all[name] for name in sources}
    return epochs, service.snapshot().to_dict(), subscriptions


class _InProcDriver:
    """Offers and churn as plain broker calls (no sockets)."""

    def __init__(
        self,
        config: LoadGenConfig,
        engine_cfg: EngineConfig,
        tick_cuts: bool,
        sources: Sequence[str],
        telemetry: Optional[Telemetry] = None,
    ):
        self.sources = list(sources)
        self.service = _broker_service(
            config, engine_cfg, tick_cuts, self.sources, telemetry
        )

    async def start(self) -> None:
        pass

    async def attach(
        self,
        source: str,
        app: str,
        spec: str,
        degradation=None,
        degradation_config=None,
    ):
        return await self.service.subscribe(
            app,
            source,
            spec,
            degradation=degradation,
            degradation_config=degradation_config,
        )

    async def unsubscribe(self, app: str) -> None:
        await self.service.unsubscribe(app)

    async def re_filter(self, app: str, spec: str) -> None:
        await self.service.re_filter(app, spec)

    async def offer(
        self, source: str, items: Sequence[StreamTuple], adapt=None
    ) -> None:
        if adapt is None:
            await self.service.offer_many(source, items)
            return
        started = time.perf_counter()
        await self.service.offer_many(source, items)
        adapt.observe(len(items), time.perf_counter() - started)

    async def tick(self, now_ms: float) -> None:
        await self.service.tick(now_ms)

    async def snapshot(self) -> dict:
        return self.service.snapshot().to_dict()

    async def finish(self, live_apps: Sequence[str]):
        """Close out the run; returns ``(epochs by source or None, final
        snapshot dict, final subscriptions by source or None)``."""
        return await _close_out(self.service, self.sources)

    async def cleanup(self) -> None:
        pass


class _TcpDriver:
    """Everything — offers, churn, ticks, snapshots — over sockets.

    One gateway connection *per source stream*: the gateway dispatches a
    connection's frames inline (that is what carries backpressure), so
    parallel streams need parallel connections to let a sharded backend
    actually overlap their decides.  With ``workers > 1`` the
    self-hosted backend is a :class:`repro.service.cluster.ClusterService`
    fleet instead of one in-process broker.
    """

    def __init__(
        self,
        config: LoadGenConfig,
        engine_cfg: EngineConfig,
        tick_cuts: bool,
        sources: Sequence[str],
        telemetry: Optional[Telemetry] = None,
    ):
        self.config = config
        self.sources = list(sources)
        self.own_server = config.connect is None
        self.service: Optional[DisseminationService] = None
        self.cluster = None
        self.gateway = None
        self.clients: dict[str, object] = {}
        self.control = None
        self._app_client: dict[str, object] = {}
        self._engine_cfg = engine_cfg
        self._tick_cuts = tick_cuts
        #: Shared with the self-hosted backend *and* every client: one
        #: process, one registry — the client-side ``ingest_send`` stage
        #: and the broker's stages land in the same histograms.
        self.telemetry = telemetry

    async def start(self) -> None:
        from repro.transport.client import GatewayClient
        from repro.transport.server import GatewayServer

        config = self.config
        if self.own_server:
            if config.workers > 1:
                from repro.service.cluster import ClusterConfig, ClusterService

                self.cluster = ClusterService(
                    ClusterConfig(
                        workers=config.workers,
                        sources=tuple(self.sources),
                        algorithm=config.algorithm,
                        constraint_ms=config.constraint_ms,
                        queue_capacity=config.queue_capacity,
                        overflow=config.overflow,
                        batch_max_items=config.batch_max_items,
                        batch_max_delay_ms=config.batch_max_delay_ms,
                        tick_cuts=self._tick_cuts,
                    ),
                    telemetry=self.telemetry,
                )
                await self.cluster.start()
                backend = self.cluster
            else:
                self.service = _broker_service(
                    config,
                    self._engine_cfg,
                    self._tick_cuts,
                    self.sources,
                    self.telemetry,
                )
                backend = self.service
            self.gateway = GatewayServer(
                backend,
                host="127.0.0.1",
                port=0,
                telemetry=self.telemetry,
            )
        try:
            if self.own_server:
                await self.gateway.start()
                host, port = "127.0.0.1", self.gateway.port
            else:
                host, _, port_text = config.connect.rpartition(":")
                host = host or "127.0.0.1"
                port = int(port_text)
            for source in self.sources:
                client = await GatewayClient.connect(
                    host, port, telemetry=self.telemetry
                )
                await client.ensure_source(source)
                self.clients[source] = client
            self.control = self.clients[self.sources[0]]
        except BaseException:
            # A failure after the worker fleet came up must not strand
            # its subprocesses; tear down whatever exists (shutting the
            # gateway down closes the backend, cluster included).
            await self.cleanup()
            raise

    async def attach(
        self,
        source: str,
        app: str,
        spec: str,
        degradation=None,
        degradation_config=None,
    ):
        client = self.clients[source]
        subscription = await client.subscribe(
            app,
            source,
            spec,
            queue_capacity=self.config.queue_capacity,
            overflow=self.config.overflow,
            batch_max_items=self.config.batch_max_items,
            batch_max_delay_ms=self.config.batch_max_delay_ms,
            degradation=degradation,
            degradation_config=degradation_config,
        )
        self._app_client[app] = client
        return subscription

    async def unsubscribe(self, app: str) -> None:
        await self._app_client.pop(app, self.control).unsubscribe(app)

    async def re_filter(self, app: str, spec: str) -> None:
        await self._app_client.get(app, self.control).re_filter(app, spec)

    async def offer(
        self, source: str, items: Sequence[StreamTuple], adapt=None
    ) -> None:
        # One frame, one ack (the in-process completion semantics: the
        # call resolves when the broker has processed the tuples),
        # padded per tuple so wire bytes reflect the configured size.
        await self.clients[source].ingest_many(
            source,
            items,
            pad_bytes=self.config.tuple_size_bytes * len(items),
            adapt=adapt,
        )

    async def tick(self, now_ms: float) -> None:
        await self.control.tick(now_ms)

    async def snapshot(self) -> dict:
        return await self.control.snapshot()

    async def finish(self, live_apps: Sequence[str]):
        from repro.transport.client import GatewayError

        if self.own_server and self.cluster is None:
            # Same-process server: close it directly and verify against
            # the engines' own epoch record, exactly like inproc.
            return await _close_out(self.service, self.sources)
        # External server or worker fleet: the engines' epochs are not
        # reachable, but a pre-teardown snapshot records which of OUR
        # sessions the broker really holds (the falsifiable half of
        # churn verification); then unsubscribe (final-flushing each
        # session's batcher toward us) so the delivered streams are
        # complete, and snapshot once more for the summary totals.
        # Foreign subscribers on the same source are excluded from the
        # record — though note that their presence changes the filter
        # group, so external --verify is only meaningful when this
        # loadgen's subscribers are the source's only ones.
        ours = set(live_apps)
        pre = await self.control.snapshot()
        subscriptions: dict[str, list[tuple[str, str]]] = {
            source: [] for source in self.sources
        }
        for row in pre["sessions"]:
            if row["source_name"] in subscriptions and row["app_name"] in ours:
                subscriptions[row["source_name"]].append(
                    (row["app_name"], row["spec"])
                )
        for app in live_apps:
            try:
                await self._app_client.get(app, self.control).unsubscribe(app)
            except GatewayError:
                # Already gone server-side (e.g. disconnect-policy reap).
                pass
        return None, await self.control.snapshot(), subscriptions

    async def cleanup(self) -> None:
        for client in self.clients.values():
            await client.close()
        if self.gateway is not None:
            await self.gateway.shutdown()


@dataclass
class _Feed:
    """One source stream's replay state."""

    index: int
    source: str
    trace: Trace
    specs: list[str]
    dt_ms: float
    controller: Optional[object] = None
    offered: list[StreamTuple] = field(default_factory=list)
    pending: list[StreamTuple] = field(default_factory=list)
    #: Timestamp of the last tuple the service has *processed* for this
    #: stream (see the tick-clock clamp below).
    processed_ts: float = 0.0
    #: Set when this stream's feeder died on a transport error: it will
    #: never offer again, so it must stop clamping the tick clock for
    #: the surviving streams.
    failed: bool = False


async def _run_async(
    config: LoadGenConfig,
    on_record=None,
    *,
    chaos=None,
    watch_rules=None,
    collect_digests: bool = False,
) -> dict:
    names = _source_names(config)
    schedule = _rate_schedule(config)
    feeds: list[_Feed] = []
    for index, source in enumerate(names):
        trace = make_trace(config, stream=index)
        feeds.append(
            _Feed(
                index=index,
                source=source,
                trace=trace,
                specs=_subscriber_specs(config, trace),
                dt_ms=(
                    trace[1].timestamp - trace[0].timestamp
                    if len(trace) > 1
                    else 10.0
                ),
            )
        )
    engine_cfg = EngineConfig(
        algorithm=config.algorithm, constraint_ms=config.constraint_ms
    )
    # Under verification a constrained run must restrict timely cuts to
    # arrivals: a tick-fired cut between two arrivals can legitimately
    # decide differently from the batch reference (GroupAwareEngine.tick).
    tick_cuts = not (config.verify and config.constraint_ms is not None)
    tele = (
        Telemetry(sample_period=config.trace_sample)
        if config.trace_sample > 0
        else None
    )
    driver_cls = _TcpDriver if config.transport == "tcp" else _InProcDriver
    driver = driver_cls(config, engine_cfg, tick_cuts, names, tele)
    await driver.start()
    if config.adaptive_batch and config.ingest_batch > 1:
        # Lazy import: the service package must not import transport at
        # module load (circular import).
        from repro.transport.client import AdaptiveIngest

        for feed in feeds:
            feed.controller = AdaptiveIngest(
                config.ingest_batch,
                events=tele.events if tele is not None else None,
            )
    # Mid-run transport failures (a dying external server, a reaped
    # session) must degrade into a summary with recorded errors and a
    # cleaned-up driver, not a crash that leaks tasks and sockets.
    recoverable: tuple = (ConnectionError, OSError)
    if config.transport == "tcp":
        from repro.transport.client import GatewayError

        recoverable = (ConnectionError, OSError, GatewayError)

    #: Insertion-ordered (app -> (source, spec)), mirroring the broker's
    #: session dicts so the verification references group filters
    #: identically.
    live: dict[str, tuple[str, str]] = {}
    consumers: dict[str, asyncio.Task] = {}
    delivered_seqs: dict[str, list[int]] = {}
    #: Sampled stage durations pooled across every subscriber:
    #: ``{stage_id: [dur_ns, ...]}``.
    stage_samples: dict[int, list[int]] = {}

    # Delivered-seq collection feeds the external/cluster verify branch
    # and the cross-run stream digests; in-process runs verify against
    # engine epochs and skip the retention.  ``collect_digests`` forces
    # it on any transport — scenario verdicts want per-app delivered
    # digests even where verify= is unavailable (degradation re-filters
    # make the batch reference unmatchable).
    collect_seqs = (
        config.verify and config.transport == "tcp"
    ) or collect_digests

    #: Per-app consumer pause gates (set = flowing); the chaos
    #: harness's stall_reader op clears and restores these.
    gates: dict[str, asyncio.Event] = {}
    #: Applied qos transitions in arrival order (server-pushed level
    #: changes; the summary's ``qos`` block folds these).
    qos_transitions: list[dict] = []

    def _ladder(app: str, spec: str):
        from repro.qos.controller import DegradationConfig
        from repro.qos.spec import DegradationPolicy, QualitySpec

        policy = DegradationPolicy(
            app,
            tuple(
                QualitySpec(app, level_spec)
                for level_spec in (spec, *config.degradation_levels)
            ),
        )
        knobs = (
            DegradationConfig(**config.degradation_config)
            if config.degradation_config
            else None
        )
        return policy, knobs

    async def attach(source: str, app: str, spec: str) -> None:
        if config.degradation_levels:
            policy, knobs = _ladder(app, spec)
            handle = await driver.attach(
                source, app, spec, degradation=policy, degradation_config=knobs
            )

            def on_update(update: dict, _app=app) -> None:
                qos_transitions.append(
                    {
                        "t_s": round(time.perf_counter() - started, 4),
                        **update,
                    }
                )

            handle.qos_listener = on_update
        else:
            handle = await driver.attach(source, app, spec)
        live[app] = (source, spec)
        sink = delivered_seqs.setdefault(app, []) if collect_seqs else None
        gate = gates.setdefault(app, asyncio.Event())
        gate.set()
        consumers[app] = asyncio.create_task(
            _consume(
                handle,
                config.consumer_delay_ms,
                sink,
                stage_samples if tele is not None else None,
                gate,
            )
        )

    for feed in feeds:
        for subscriber, spec in enumerate(feed.specs):
            await attach(
                feed.source, _app_name(config, feed.index, subscriber), spec
            )

    # In-run health analysis: a Watchtower polling the same surfaces an
    # external scraper would (the cluster merge when one is self-hosted),
    # emitting verdict transitions into the run's event log.
    watchtower = None
    watch_task: Optional[asyncio.Task] = None
    if tele is not None and config.watch:
        from repro.obs.watch import LocalProbe, Watchtower

        backend = getattr(driver, "cluster", None) or getattr(
            driver, "service", None
        )
        tower_kwargs: dict = {"interval_s": config.watch_interval_s}
        if watch_rules is not None:
            # The file's [watch] settings win over the config's default.
            tower_kwargs.update(
                rules=watch_rules.rules, slos=watch_rules.slos,
                **watch_rules.watch,
            )
        watchtower = Watchtower(
            LocalProbe(tele, service=backend),
            events=tele.events,
            **tower_kwargs,
        )
        watch_task = asyncio.create_task(watchtower.run())

    chaos_task: Optional[asyncio.Task] = None
    if chaos is not None and chaos:
        from repro.service.chaos import ChaosContext

        chaos_ctx = ChaosContext(
            cluster=getattr(driver, "cluster", None),
            gates=gates,
            emit=(tele.events.emit if tele is not None else None),
        )
        chaos_task = asyncio.create_task(chaos.run(chaos_ctx))

    records: list[dict] = []
    in_flight: set[asyncio.Task] = set()
    shed = 0
    started = time.perf_counter()
    ingest_batch = config.ingest_batch
    #: Open-loop offers that failed on a recoverable transport error —
    #: expected during a chaos fault window (a killed worker fails
    #: ingest until its respawn), so they are counted and sampled
    #: instead of left as unretrieved task exceptions.
    offer_failures: dict = {"count": 0, "sample": []}

    async def offer_batch(feed: _Feed, batch: Sequence[StreamTuple]) -> None:
        await driver.offer(feed.source, batch, adapt=feed.controller)
        feed.processed_ts = max(feed.processed_ts, batch[-1].timestamp)

    async def offer_tracked(feed: _Feed, batch: Sequence[StreamTuple]) -> None:
        try:
            await offer_batch(feed, batch)
        except recoverable as exc:
            offer_failures["count"] += 1
            if len(offer_failures["sample"]) < 3:
                offer_failures["sample"].append(repr(exc))

    def take_pending(feed: _Feed) -> list[StreamTuple]:
        batch = feed.pending[:]
        feed.pending.clear()
        return batch

    def dispatch_pending(feed: _Feed) -> None:
        """Fire-and-track the staged batch (open-loop mode)."""
        if not feed.pending:
            return
        task = asyncio.create_task(offer_tracked(feed, take_pending(feed)))
        in_flight.add(task)
        task.add_done_callback(in_flight.discard)

    async def flush_pending(feed: _Feed) -> None:
        """Offer the staged batch inline (closed-loop and boundaries)."""
        if feed.pending:
            await offer_batch(feed, take_pending(feed))

    def stream_now() -> float:
        # Extrapolate stream time from the wall clock, but never run
        # more than one inter-arrival interval ahead of any stream's
        # last *processed* tuple (not merely task-scheduled): ticking
        # past an unprocessed arrival's timestamp could close a region a
        # lagging tuple would still join (see GroupAwareEngine.tick).
        # Under a rate profile the due-count integral replaces the
        # constant-rate product (they agree when the profile is empty).
        wall = (
            schedule.count_until(time.perf_counter() - started)
            * feeds[0].dt_ms
        )
        # Failed feeds never offer again; including them would freeze
        # the clock (and every healthy stream's timely cuts) forever.
        caps = [
            feed.processed_ts + feed.dt_ms for feed in feeds if not feed.failed
        ]
        return min(wall, *caps) if caps else wall

    stop_metrics = asyncio.Event()

    async def metrics_loop() -> None:
        while not stop_metrics.is_set():
            try:
                await asyncio.wait_for(
                    stop_metrics.wait(), timeout=config.metrics_interval_s
                )
            except asyncio.TimeoutError:
                pass
            await driver.tick(stream_now())
            snapshot = await driver.snapshot()
            record = {
                "t_s": round(time.perf_counter() - started, 4),
                "in_flight": len(in_flight),
                "shed": shed,
                **snapshot,
            }
            records.append(record)
            if on_record is not None:
                on_record(record)

    metrics_task = asyncio.create_task(metrics_loop())

    pending_churn = sorted(config.churn, key=lambda e: e.at_s)
    churn_applied: list[dict] = []

    async def apply_due_churn(elapsed: float) -> None:
        # Churn schedules are single-stream (validated in the config):
        # events always target feed 0's source.
        if not (pending_churn and pending_churn[0].at_s <= elapsed):
            return
        # Staged tuples must precede the subscription change, exactly as
        # they would have with per-tuple offers.
        if config.mode == "closed":
            await flush_pending(feeds[0])
        else:
            dispatch_pending(feeds[0])
        while pending_churn and pending_churn[0].at_s <= elapsed:
            event = pending_churn.pop(0)
            if event.op == "subscribe":
                await attach(feeds[0].source, event.app, event.spec)
            elif event.op == "unsubscribe":
                await driver.unsubscribe(event.app)
                live.pop(event.app, None)
            else:
                await driver.re_filter(event.app, event.spec)
                live[event.app] = (feeds[0].source, event.spec)
            churn_applied.append(asdict(event))

    errors: list[str] = []
    deadline = started + config.duration_s

    async def run_feed(feed: _Feed) -> None:
        """Replay one source stream at the target rate.

        Every stream runs its own instance of this loop concurrently
        (its own pacing, staging and — over TCP — connection), so a
        sharded backend can overlap their decides; a recoverable
        transport failure stops this stream and is recorded without
        tearing the others down.
        """
        nonlocal shed
        try:
            for index, item in enumerate(feed.trace):
                now = time.perf_counter()
                if now >= deadline and not config.drain_trace:
                    break
                target = started + schedule.time_for(index)
                if target > now:
                    await asyncio.sleep(target - now)
                    if time.perf_counter() >= deadline and not config.drain_trace:
                        break
                if feed.index == 0:
                    await apply_due_churn(time.perf_counter() - started)
                limit = (
                    feed.controller.size
                    if feed.controller is not None
                    else ingest_batch
                )
                if config.mode == "closed":
                    feed.offered.append(item)
                    feed.pending.append(item)
                    if len(feed.pending) >= limit:
                        await flush_pending(feed)
                else:
                    if len(in_flight) >= config.max_in_flight:
                        shed += 1
                        continue
                    feed.offered.append(item)
                    feed.pending.append(item)
                    if len(feed.pending) >= limit:
                        dispatch_pending(feed)
            # The feed's tail may be staged but unsent; offer it before
            # the in-flight gather so "offered" means offered.
            if config.mode == "closed":
                await flush_pending(feed)
            else:
                dispatch_pending(feed)
        except recoverable as exc:
            errors.append(repr(exc))
            feed.pending.clear()
            feed.failed = True

    await asyncio.gather(*(run_feed(feed) for feed in feeds))

    if in_flight:
        offer_results = await asyncio.gather(
            *list(in_flight), return_exceptions=True
        )
        errors.extend(repr(r) for r in offer_results if isinstance(r, BaseException))
    if offer_failures["count"] and chaos is None:
        # Without a fault schedule there is nothing that legitimizes
        # failed offers: surface them as run errors (one line, sampled)
        # exactly like an inline transport failure would have been.
        errors.append(
            f"{offer_failures['count']} open-loop offers failed "
            f"(first: {offer_failures['sample'][0]})"
        )
    # Late-scheduled churn (at_s near or past the feed's end) still runs
    # before shutdown; anything genuinely beyond the horizon is reported.
    if not errors:
        try:
            await apply_due_churn(time.perf_counter() - started)
        except recoverable as exc:
            errors.append(repr(exc))
    if chaos_task is not None and not chaos_task.done():
        # Let in-flight fault windows close (they restore SIGCONT /
        # consumer gates in their finally blocks), bounded by the
        # schedule's own horizon so a mis-sized schedule cannot hang
        # the run.
        horizon = max(
            (op.at_s + op.duration_s for op in chaos.ops), default=0.0
        )
        grace = max(0.0, horizon - (time.perf_counter() - started)) + 1.0
        try:
            await asyncio.wait_for(chaos_task, timeout=grace)
        except asyncio.TimeoutError:
            chaos_task.cancel()
    if chaos_task is not None:
        try:
            await chaos_task
        except asyncio.CancelledError:
            pass
        except Exception as exc:  # chaos must never sink the summary
            errors.append(repr(exc))
    stop_metrics.set()
    try:
        await metrics_task
    except recoverable as exc:
        errors.append(repr(exc))
    if watch_task is not None:
        watch_task.cancel()
        try:
            await watch_task
        except asyncio.CancelledError:
            pass
        except recoverable as exc:
            errors.append(repr(exc))
    if watchtower is not None:
        # One last poll over the run's full counters, while the backend
        # (and any worker fleet) is still alive to answer.
        try:
            await watchtower.poll()
        except recoverable as exc:
            errors.append(repr(exc))

    try:
        epochs, final_snapshot, broker_subscriptions = await driver.finish(
            list(live)
        )
    except recoverable as exc:
        errors.append(repr(exc))
        epochs, final_snapshot, broker_subscriptions = None, _dead_snapshot(), None
        for handle in consumers.values():
            handle.cancel()
    if broker_subscriptions is not None:
        subs_by_source = broker_subscriptions
    else:
        subs_by_source = {feed.source: [] for feed in feeds}
        for app, (source, spec) in live.items():
            subs_by_source.setdefault(source, []).append((app, spec))
    final_subscriptions = [
        pair for feed in feeds for pair in subs_by_source.get(feed.source, [])
    ]
    consumer_results = await asyncio.gather(
        *consumers.values(), return_exceptions=True
    )
    errors.extend(
        repr(r)
        for r in consumer_results
        if isinstance(r, BaseException)
        and not isinstance(r, asyncio.CancelledError)
    )
    if tele is not None:
        # Self-hosted cluster: fold the workers' structured events into
        # the run's log while they are still alive to answer.
        pull = getattr(getattr(driver, "cluster", None), "pull_events", None)
        if pull is not None:
            try:
                await pull()
            except recoverable as exc:
                errors.append(repr(exc))
    try:
        await driver.cleanup()
    except recoverable as exc:
        errors.append(repr(exc))
    wall_s = time.perf_counter() - started
    delivered_total = sum(
        r for r in consumer_results if isinstance(r, int)
    )

    equivalent: Optional[bool] = None
    if config.verify:
        stream_ok: list[bool] = []
        for feed in feeds:
            subscriptions = subs_by_source.get(feed.source, [])
            reference = _batch_reference(
                subscriptions, feed.offered, engine_cfg
            )
            want = decided_map(reference)
            if epochs is not None:
                live_map = _merge_decided(epochs.get(feed.source, []))
                if config.churn:
                    # Churn cuts epochs over mid-stream; only the final
                    # subscription set's presence is checkable, not
                    # equality.
                    stream_ok.append(
                        set(live_map) >= {app for app, _ in subscriptions}
                    )
                else:
                    stream_ok.append(live_map == want)
            elif config.churn:
                # External server: the broker's actual session set
                # (pre-teardown snapshot) must match the churn
                # schedule's outcome.
                stream_ok.append(
                    dict(subscriptions)
                    == {
                        app: spec
                        for app, (source, spec) in live.items()
                        if source == feed.source
                    }
                )
            else:
                # External server or worker fleet: the engines are out
                # of reach, but with a drop-free policy the delivered
                # stream per app must equal the reference's decided
                # tuples, flattened in order — this is also what makes
                # worker counts comparable (sources are independent, so
                # any source→worker partitioning must deliver identical
                # per-subscriber streams).
                flattened = {
                    app: [seq for row in rows for seq in row]
                    for app, rows in want.items()
                }
                stream_ok.append(
                    {app: delivered_seqs.get(app, []) for app in flattened}
                    == flattened
                )
        equivalent = all(stream_ok)

    delivered_digest: Optional[dict] = None
    if collect_seqs:
        delivered_digest = {
            app: {
                "count": len(seqs),
                "blake2s": _stream_digest(seqs),
            }
            for app, seqs in sorted(delivered_seqs.items())
        }

    qos_block: Optional[dict] = None
    if config.degradation_levels:
        max_level: dict[str, int] = {}
        final_level: dict[str, int] = {}
        first_degrade_s: Optional[float] = None
        recovered_at_s: Optional[float] = None
        degraded = recovered = 0
        for update in qos_transitions:
            app = str(update.get("app"))
            level = int(update.get("level", 0))
            max_level[app] = max(max_level.get(app, 0), level)
            final_level[app] = level
            if update.get("action") == "degrade":
                degraded += 1
                if first_degrade_s is None:
                    first_degrade_s = update["t_s"]
            else:
                recovered += 1
            if level == 0 and update.get("action") == "recover":
                recovered_at_s = update["t_s"]
        fully_recovered = bool(final_level) and all(
            lvl == 0 for lvl in final_level.values()
        )
        qos_block = {
            "levels": len(config.degradation_levels) + 1,
            "degraded_events": degraded,
            "recovered_events": recovered,
            "max_level": max(max_level.values(), default=0),
            "max_level_by_app": dict(sorted(max_level.items())),
            "final_level_by_app": dict(sorted(final_level.items())),
            #: Overload-to-calm round trip: first degrade to the last
            #: recover-to-0 (None while any session is still degraded
            #: or nothing ever tripped).
            "recovery_time_s": (
                round(recovered_at_s - first_degrade_s, 4)
                if first_degrade_s is not None
                and recovered_at_s is not None
                and fully_recovered
                else None
            ),
            "transitions": qos_transitions,
        }

    summary = {
        "schema": "repro-loadgen/v1",
        "config": {
            **asdict(replace(config, churn=())),
            "churn": [asdict(event) for event in config.churn],
            # Tuple-typed fields as lists, so the in-memory summary is
            # byte-identical to its JSON round trip (summary.json).
            "rate_profile": [list(seg) for seg in config.rate_profile],
            "degradation_levels": list(config.degradation_levels),
        },
        "transport": config.transport,
        "ingest_batch": config.ingest_batch,
        "adaptive_batch": feeds[0].controller is not None,
        "ingest_batch_trajectory": (
            {feed.source: feed.controller.trajectory for feed in feeds}
            if feeds[0].controller is not None
            else None
        ),
        "ingest_batch_final": (
            {feed.source: feed.controller.size for feed in feeds}
            if feeds[0].controller is not None
            else None
        ),
        "workers": config.workers,
        "source_streams": names,
        "trace_tuples": sum(len(feed.trace) for feed in feeds),
        "offered": sum(len(feed.offered) for feed in feeds),
        "shed": shed,
        "offered_rate_tps": (
            sum(len(feed.offered) for feed in feeds) / wall_s
            if wall_s > 0
            else 0.0
        ),
        "wall_s": round(wall_s, 4),
        "delivered_tuples": delivered_total,
        "dropped_tuples": final_snapshot["dropped_tuples"],
        "decided_emissions": final_snapshot["decided_emissions"],
        "decide_latency_ms": {
            "p50": final_snapshot["decide_p50_ms"],
            "p99": final_snapshot["decide_p99_ms"],
        },
        "regroups": final_snapshot["regroups"],
        "ticks": final_snapshot["ticks"],
        "cuts_triggered": final_snapshot["cuts_triggered"],
        #: Per-stage p50/p99 from the sampled traces (None when
        #: telemetry is off; stages appear as their samples do — an
        #: inproc run has no wire stages to report).
        "stage_latency": (
            _stage_latency_summary(stage_samples) if tele is not None else None
        ),
        #: Latest Watchtower report (None when telemetry/watch is off).
        "health": (
            watchtower.report.to_dict()
            if watchtower is not None and watchtower.report is not None
            else None
        ),
        "events_captured": len(tele.events) if tele is not None else 0,
        #: Server-driven degradation outcome (None without a ladder).
        "qos": qos_block,
        #: What the chaos schedule actually injected (None without one).
        "chaos_applied": list(chaos.applied) if chaos is not None else None,
        #: Open-loop offers lost to recoverable transport errors (the
        #: expected cost of a fault window; errors-proper without chaos).
        "offer_failures": offer_failures["count"],
        "offer_failure_sample": list(offer_failures["sample"]),
        "churn_applied": churn_applied,
        "churn_unapplied": [asdict(event) for event in pending_churn],
        "final_subscriptions": [list(pair) for pair in final_subscriptions],
        "equivalent_to_batch": equivalent,
        "delivered_digest": delivered_digest,
        "errors": errors,
        "clean_shutdown": not errors and not in_flight,
    }
    _reconcile_stage_latency(summary["stage_latency"], final_snapshot)
    records.append({"t_s": round(wall_s, 4), "final": True, **final_snapshot})

    if config.out_dir is not None:
        out = Path(config.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        with (out / "metrics.jsonl").open("w", encoding="utf-8") as stream:
            for record in records:
                stream.write(json.dumps(record) + "\n")
        (out / "summary.json").write_text(
            json.dumps(summary, indent=2) + "\n", encoding="utf-8"
        )
        if tele is not None:
            (out / "events.jsonl").write_text(
                tele.events.to_jsonl(), encoding="utf-8"
            )
        if summary["health"] is not None:
            (out / "health.json").write_text(
                json.dumps(summary["health"], indent=2) + "\n",
                encoding="utf-8",
            )
    return summary


def run_loadgen(
    config: LoadGenConfig,
    on_record=None,
    *,
    chaos=None,
    watch_rules=None,
    collect_digests: bool = False,
) -> dict:
    """Run one load-generation session to completion (blocking wrapper).

    ``on_record`` is called with each periodic metrics record as it is
    captured (``loadgen --progress`` prints these live).  ``chaos`` (a
    :class:`~repro.service.chaos.ChaosSchedule`) injects scheduled
    faults into the run; ``watch_rules`` (a
    :class:`~repro.obs.rulesfile.RulesConfig`) replaces the in-run
    Watchtower's stock rules/SLOs and settings; ``collect_digests``
    records per-app delivered-stream digests regardless of ``verify=``
    (the scenario harness's evidence of intact delivery).
    """
    return asyncio.run(
        _run_async(
            config,
            on_record=on_record,
            chaos=chaos,
            watch_rules=watch_rules,
            collect_digests=collect_digests,
        )
    )
