"""Watchtower: streaming health analysis over ``/metrics`` + ``/events``.

The read-only half of the self-healing loop.  A :class:`Watchtower`
polls one probe — :class:`HttpProbe` against a live gateway/cluster or
:class:`LocalProbe` against an in-process :class:`Telemetry` — and each
poll:

1. parses the Prometheus exposition (:mod:`repro.obs.parse`),
2. cursors new structured events,
3. reduces both to scalar *signals* via the streaming detectors in
   :mod:`repro.obs.detect` (counter rates, queue-depth MAD scores,
   interval stage-p99 vs warmup baseline, stall ratios, flap windows,
   per-worker imbalance),
4. grades the signals with declarative rules and SLO burn windows
   (:mod:`repro.obs.slo`) into a :class:`HealthReport`.

Verdict *transitions* are emitted back into the event log as
``anomaly_*`` / ``slo_*`` events and handed to the optional
:attr:`Watchtower.on_transitions` callback — the edge-triggered input
the remediation loop (:mod:`repro.service.remediate`) subscribes to.
The Watchtower itself never actuates anything: detect and report only.
"""

from __future__ import annotations

import asyncio
import inspect
import json
import time
from typing import Iterable, Optional, Sequence

from repro.obs.detect import (
    BucketDelta,
    EventWindow,
    MadDetector,
    P99Baseline,
    RateTracker,
)
from repro.obs.parse import Exposition, parse_exposition, quantile_from_buckets
from repro.obs.slo import (
    CRITICAL,
    HealthReport,
    Rule,
    SloWindow,
    Verdict,
    default_rules,
    default_slos,
    worst,
)

__all__ = [
    "HttpProbe",
    "LocalProbe",
    "Watchtower",
    "format_report",
]

#: Event kinds the Watchtower itself produces; excluded from analysis so
#: a verdict about worker death is never re-read as evidence of one.
_OWN_EVENT_PREFIXES = ("anomaly_", "slo_", "watch_")

#: Event kinds counted as a worker dying (matches cluster.py emissions).
_DEATH_KINDS = ("worker_death", "worker_lost")

#: Minimum interval sample count before a stage p99 is trusted at all.
_MIN_P99_SAMPLES = 20

#: Absolute stage-latency floor (ms): a regression on a sub-5ms stage is
#: scheduler jitter, not a pathology worth a verdict.
_P99_FLOOR_MS = 5.0


class HttpProbe:
    """Scrape ``/metrics`` and cursor ``/events`` from a live server."""

    def __init__(self, host: str, port: int, *, timeout_s: float = 2.0):
        self.host = host
        self.port = port
        self.timeout_s = timeout_s

    async def get(self, path: str) -> Optional[bytes]:
        """The body of a ``200`` reply to ``GET path``; ``None`` on any
        other status or any failure to connect, send or read in time."""
        try:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(self.host, self.port),
                timeout=self.timeout_s,
            )
        except (OSError, asyncio.TimeoutError):
            return None
        try:
            writer.write(
                f"GET {path} HTTP/1.1\r\n"
                f"Host: {self.host}\r\nConnection: close\r\n\r\n".encode(
                    "ascii"
                )
            )
            await writer.drain()
            response = await asyncio.wait_for(
                reader.read(), timeout=self.timeout_s
            )
            head, _, body = response.partition(b"\r\n\r\n")
            if b" 200 " not in head.split(b"\r\n", 1)[0]:
                return None
            return body
        except (OSError, asyncio.TimeoutError):
            return None
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass

    async def metrics(self) -> Optional[str]:
        body = await self.get("/metrics")
        return body.decode("utf-8", "replace") if body is not None else None

    async def events(self, since: int) -> list[dict]:
        body = await self.get(f"/events?since={since}")
        if not body:
            return []
        records: list[dict] = []
        for line in body.decode("utf-8", "replace").splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(record, dict):
                records.append(record)
        return records


class LocalProbe:
    """Probe an in-process telemetry bundle (no sockets).

    When ``service`` exposes the gateway/cluster observability surface
    (``metrics_text`` / ``pull_events``) it is used — so a cluster's
    merged fleet exposition and folded events are analyzed, exactly as
    an HTTP scraper would see them.  Otherwise the registry is rendered
    directly.
    """

    def __init__(self, telemetry, service=None):
        self.telemetry = telemetry
        self.service = service

    async def metrics(self) -> Optional[str]:
        service = self.service
        if service is not None and hasattr(service, "metrics_text"):
            text = service.metrics_text()
            if inspect.isawaitable(text):
                text = await text
            return text
        return self.telemetry.registry.render()

    async def events(self, since: int) -> list[dict]:
        service = self.service
        if service is not None and hasattr(service, "pull_events"):
            pulled = service.pull_events()
            if inspect.isawaitable(pulled):
                await pulled
        return self.telemetry.events.since(since)


class Watchtower:
    """Periodic health analysis: scrape → signals → verdicts → report.

    Stateless rules over stateful detectors: every poll produces a full
    :class:`HealthReport` (kept as :attr:`report`), and only status
    *transitions* emit ``anomaly_*``/``slo_*`` events into ``events``.
    """

    def __init__(
        self,
        probe,
        *,
        rules: Optional[Sequence[Rule]] = None,
        slos: Optional[Sequence[SloWindow]] = None,
        interval_s: float = 1.0,
        events=None,
        decide_p99_target_ms: float = 500.0,
        death_window_s: float = 30.0,
        flap_window_s: float = 60.0,
        clock=time.time,
    ):
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        self.probe = probe
        self.rules = list(rules) if rules is not None else default_rules()
        self.slos = list(slos) if slos is not None else default_slos()
        self.interval_s = interval_s
        self.events = events
        self.decide_p99_target_ms = decide_p99_target_ms
        self.clock = clock
        self.report: Optional[HealthReport] = None
        self.polls = 0
        self._events_cursor = 0
        self._rates = RateTracker()
        self._buckets = BucketDelta()
        self._queue_scores: dict[tuple[str, str], MadDetector] = {}
        self._stage_baselines: dict[str, P99Baseline] = {}
        self._deaths = EventWindow(death_window_s)
        self._respawns = EventWindow(flap_window_s)
        self._flap_window_s = flap_window_s
        self._last_status: dict[str, str] = {}
        #: Optional edge-trigger hook: called once per poll with the
        #: list of ``(verdict, previous_status)`` transitions (only
        #: verdicts whose status changed).  The remediation loop's
        #: subscription point.
        self.on_transitions = None

    # -- event ingestion -----------------------------------------------
    def _ingest_events(self, records: Iterable[dict]) -> int:
        """Feed fresh events into the flap windows; returns fresh count."""
        fresh = 0
        for record in records:
            rid = int(record.get("id", 0))
            if rid <= self._events_cursor:
                continue
            self._events_cursor = max(self._events_cursor, rid)
            kind = str(record.get("kind", ""))
            if kind.startswith(_OWN_EVENT_PREFIXES):
                continue
            fresh += 1
            ts = float(record.get("ts", self.clock()))
            if kind in _DEATH_KINDS:
                self._deaths.add(ts)
            elif kind == "worker_respawn":
                self._respawns.add(ts)
        return fresh

    # -- signal derivation ---------------------------------------------
    def _derive_signals(self, expo: Exposition, now: float) -> dict:
        signals: dict[str, float] = {}
        rates = self._rates

        def counter(signal: str, family: str, **labels) -> Optional[float]:
            total = expo.total(family, **labels)
            rate, delta = rates.rate_and_delta(signal, total, now)
            if rate is not None:
                signals[f"{signal}_rate"] = round(rate, 3)
            return delta

        offered_delta = counter("offered", "repro_broker_offered_tuples_total")
        decided_delta = counter(
            "decided", "repro_broker_decided_emissions_total"
        )
        drops_delta = counter(
            "drops", "repro_session_overflow_dropped_tuples_total"
        )
        counter("events_dropped", "repro_events_dropped_total")

        if decided_delta is not None and drops_delta is not None:
            emitted = decided_delta + drops_delta
            if emitted > 0:
                signals["overflow_drop_ratio"] = round(
                    drops_delta / emitted, 6
                )

        stall_rate, _ = rates.rate_and_delta(
            "stall",
            expo.total("repro_transport_backpressure_stall_seconds_total"),
            now,
        )
        if stall_rate is not None:
            # Seconds stalled per second of wall clock, summed across
            # connections — clamp for the single-connection reading.
            signals["backpressure_stall_ratio"] = round(
                min(stall_rate, 1.0), 4
            )

        # Worker liveness from the cluster gauge (absent on one gateway).
        alive_samples = expo.samples("repro_cluster_worker_alive")
        if alive_samples:
            down = sum(1 for s in alive_samples if s.value < 0.5)
            signals["workers_down"] = float(down)
            signals["workers_alive"] = float(len(alive_samples) - down)

        signals["worker_deaths_recent"] = float(self._deaths.count(now))
        signals["worker_respawns_per_min"] = round(
            self._respawns.count(now) * (60.0 / self._flap_window_s), 3
        )

        # Session queue high-water anomaly, scored per (worker, app)
        # series against its own history.
        score_max = None
        depth_max = None
        for sample in expo.samples("repro_session_queue_depth_high_water"):
            key = (sample.label("worker", ""), sample.label("app", ""))
            detector = self._queue_scores.get(key)
            if detector is None:
                detector = self._queue_scores[key] = MadDetector(
                    window=120, min_samples=8, min_scale=8.0
                )
            score = detector.update(sample.value)
            score_max = score if score_max is None else max(score_max, score)
            depth_max = (
                sample.value
                if depth_max is None
                else max(depth_max, sample.value)
            )
        if score_max is not None:
            signals["queue_depth_score_max"] = round(score_max, 3)
            signals["queue_depth_max"] = depth_max

        # Interval stage p99s: difference the cumulative histograms, then
        # regress each stage against its own warmup baseline.
        regression_max = None
        for stage in expo.label_values(
            "repro_stage_latency_ms_bucket", "stage"
        ):
            cumulative = expo.histogram_buckets(
                "repro_stage_latency_ms", stage=stage
            )
            interval = self._buckets.delta(("stage", stage), cumulative)
            total = max(interval.values(), default=0.0)
            if total < _MIN_P99_SAMPLES:
                continue
            p99 = quantile_from_buckets(interval, 0.99)
            if p99 is None:
                continue
            if stage == "decide":
                signals["decide_p99_ms"] = round(p99, 3)
            if p99 < _P99_FLOOR_MS:
                continue
            baseline = self._stage_baselines.get(stage)
            if baseline is None:
                baseline = self._stage_baselines[stage] = P99Baseline(
                    warmup=5, min_baseline=_P99_FLOOR_MS
                )
            ratio = baseline.update(p99)
            if ratio is not None:
                regression_max = (
                    ratio
                    if regression_max is None
                    else max(regression_max, ratio)
                )
        if regression_max is not None:
            signals["stage_p99_regression_max"] = round(regression_max, 3)

        # Per-worker ingest imbalance (informational; single-source runs
        # are legitimately lopsided, so no default rule grades this).
        per_worker: dict[str, float] = {}
        for sample in expo.samples("repro_broker_offered_tuples_total"):
            label = sample.label("worker")
            if label is not None and label != "router":
                per_worker[label] = per_worker.get(label, 0.0) + sample.value
        if len(per_worker) >= 2:
            deltas = [
                d
                for d in (
                    rates.rate_and_delta(
                        ("offered_w", w), v, now
                    )[1]
                    for w, v in sorted(per_worker.items())
                )
                if d is not None
            ]
            mean = sum(deltas) / len(deltas) if deltas else 0.0
            if mean > 0:
                signals["worker_offered_imbalance"] = round(
                    max(deltas) / mean, 3
                )

        if offered_delta is not None:
            signals["offered_delta"] = offered_delta
        if decided_delta is not None:
            signals["decided_delta"] = decided_delta
        return signals

    # -- SLO feeding ----------------------------------------------------
    def _observe_slos(self, signals: dict, now: float) -> None:
        for slo in self.slos:
            if slo.signal == "decide_p99_ms":
                p99 = signals.get("decide_p99_ms")
                if p99 is None:
                    continue
                bad = 1.0 if p99 > self.decide_p99_target_ms else 0.0
                # Weight by the interval's decide volume, not by polls:
                # a violating poll that decided 10k tuples burns 10k
                # units of budget, while an idle violating poll barely
                # registers.  Floor at one unit so a quiet interval
                # still contributes an observation.
                weight = max(signals.get("decided_delta") or 0.0, 1.0)
                slo.observe(now, weight * (1.0 - bad), weight * bad)
            elif slo.signal == "overflow_drop_ratio":
                ratio = signals.get("overflow_drop_ratio")
                if ratio is None:
                    continue
                delta = signals.get("offered_delta") or 0.0
                # Weight by interval volume so a storm poll dominates.
                weight = max(delta, 1.0)
                slo.observe(now, weight * (1.0 - ratio), weight * ratio)
            else:
                value = signals.get(slo.signal)
                if value is not None and 0.0 <= value <= 1.0:
                    slo.observe(now, 1.0 - value, value)

    # -- verdict emission ----------------------------------------------
    def _emit_transitions(self, verdicts: Sequence[Verdict]) -> None:
        transitions: list[tuple[Verdict, str]] = []
        for verdict in verdicts:
            previous = self._last_status.get(verdict.name, "ok")
            self._last_status[verdict.name] = verdict.status
            if verdict.status == previous:
                continue
            transitions.append((verdict, previous))
            if self.events is None:
                continue
            kind = (
                verdict.name
                if verdict.name.startswith("slo_")
                else f"anomaly_{verdict.name}"
            )
            self.events.emit(
                kind,
                status=verdict.status,
                previous=previous,
                signal=verdict.signal,
                value=verdict.value,
                threshold=verdict.threshold,
                detail=verdict.detail or None,
            )
        if transitions and self.on_transitions is not None:
            self.on_transitions(transitions)

    # -- polling --------------------------------------------------------
    async def poll(self) -> HealthReport:
        """One analysis cycle; always yields (and stores) a report."""
        now = self.clock()
        self.polls += 1
        text = await self.probe.metrics()
        verdicts: list[Verdict] = []
        signals: dict = {}
        expo: Optional[Exposition] = None
        if text is None:
            verdicts.append(
                Verdict(
                    name="scrape_failed",
                    status=CRITICAL,
                    signal="scrape",
                    detail="could not fetch /metrics from the probe target",
                )
            )
        else:
            try:
                expo = parse_exposition(text)
            except ValueError as exc:
                verdicts.append(
                    Verdict(
                        name="scrape_failed",
                        status=CRITICAL,
                        signal="scrape",
                        detail=f"unparseable exposition: {exc}",
                    )
                )
        records = await self.probe.events(self._events_cursor)
        self._ingest_events(records)
        if expo is not None:
            signals = self._derive_signals(expo, now)
            self._observe_slos(signals, now)
            for rule in self.rules:
                verdict = rule.evaluate(signals)
                if verdict is not None:
                    verdicts.append(verdict)
            for slo in self.slos:
                verdict = slo.evaluate(now)
                if verdict is not None:
                    verdicts.append(verdict)
        self._emit_transitions(verdicts)
        self.report = HealthReport(
            ts=now,
            poll=self.polls,
            status=worst([v.status for v in verdicts]),
            verdicts=verdicts,
            signals=signals,
        )
        return self.report

    async def run(self, *, polls: Optional[int] = None) -> None:
        """Poll forever (or ``polls`` times); cancellation-safe."""
        done = 0
        while polls is None or done < polls:
            await self.poll()
            done += 1
            if polls is not None and done >= polls:
                break
            await asyncio.sleep(self.interval_s)


def format_report(report: HealthReport) -> str:
    """Human-readable one-screen rendering for ``repro watch``."""
    lines = [
        f"[{time.strftime('%H:%M:%S', time.localtime(report.ts))}] "
        f"poll {report.poll}  status={report.status.upper()}  "
        + "  ".join(f"{k}={v}" for k, v in sorted(report.counts().items()))
    ]
    for verdict in report.verdicts:
        marker = {"ok": " ", "warn": "!", "critical": "X"}.get(
            verdict.status, "?"
        )
        value = "-" if verdict.value is None else f"{verdict.value:g}"
        bound = (
            ""
            if verdict.threshold is None
            else f" (threshold {verdict.threshold:g})"
        )
        lines.append(
            f"  {marker} {verdict.name:<24} {verdict.status:<8} "
            f"{verdict.signal}={value}{bound}"
        )
    interesting = (
        "offered_rate",
        "decided_rate",
        "decide_p99_ms",
        "overflow_drop_ratio",
        "workers_alive",
        "queue_depth_max",
    )
    shown = {k: report.signals[k] for k in interesting if k in report.signals}
    if shown:
        lines.append(
            "  signals: "
            + "  ".join(f"{k}={v:g}" for k, v in shown.items())
        )
    return "\n".join(lines)
