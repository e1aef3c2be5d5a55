"""Watchtower tests: parser round-trips, detectors, rules, endpoints.

Layers, in dependency order:

* exposition parsing round-trips everything the registry renders —
  every family kind, escaped label values, merged multi-worker text
  with the router's duplicate-label relabel quirk;
* each streaming detector on synthetic series (flat → quiet,
  step/spike → fires, recovery → clears);
* declarative rules and SLO burn windows grading signal dicts;
* a live in-process Watchtower: healthy → ok, induced overflow storm →
  critical with the evidence series named, edge-triggered verdict
  events, scrape failure handling;
* the ``/health/report`` HTTP surface and the cluster router's scrape
  cache / events-fold throttle;
* loadgen integration (``health`` block, ``health.json``, stage-latency
  reconciliation) and a real 2-worker cluster where a SIGKILLed worker
  must drive a critical verdict within the poll interval.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.obs.telemetry import Telemetry
from repro.obs.detect import (
    BucketDelta,
    EventWindow,
    MadDetector,
    P99Baseline,
    RateTracker,
)
from repro.obs.metrics import (
    MetricsRegistry,
    merge_expositions,
    relabel_exposition,
)
from repro.obs.parse import parse_exposition, quantile_from_buckets
from repro.obs.slo import (
    HealthReport,
    Rule,
    SloWindow,
    Verdict,
    default_rules,
    worst,
)
from repro.obs.watch import HttpProbe, LocalProbe, Watchtower, format_report
from repro.service.broker import DisseminationService
from repro.transport.http import SnapshotHTTP

_SRC = str(Path(__file__).resolve().parent.parent / "src")


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (_SRC, env.get("PYTHONPATH")) if p
    )
    return env


async def _fetch(port: int, path: str) -> tuple[str, bytes]:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(
        f"GET {path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n".encode()
    )
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    head, _, body = raw.partition(b"\r\n\r\n")
    return head.split(b"\r\n", 1)[0].decode(), body


class _FakeClock:
    """Deterministic clock the tests advance by hand."""

    def __init__(self, start: float = 1000.0):
        self.now = start

    def __call__(self) -> float:
        return self.now


# ---------------------------------------------------------------------------
# Exposition parser
# ---------------------------------------------------------------------------
class TestExpositionParser:
    def test_round_trips_every_family_kind(self):
        registry = MetricsRegistry()
        registry.counter("jobs_total", "Jobs processed.").inc(3.5)
        frames = registry.counter("frames_total", "Frames.", ("dir",))
        frames.labels("in").inc(7)
        frames.labels("out").inc(2)
        registry.gauge("depth", "Queue depth.").set(4)
        hist = registry.histogram(
            "lat_ms", "Latency.", buckets=(1.0, 10.0, 100.0)
        )
        hist.labels().observe(0.5)
        hist.labels().observe(5.0)
        hist.labels().observe(500.0)

        expo = parse_exposition(registry.render())
        assert expo.family("jobs_total").kind == "counter"
        assert expo.family("jobs_total").help == "Jobs processed."
        assert expo.value("jobs_total") == 3.5
        assert expo.value("frames_total", dir="in") == 7.0
        assert expo.total("frames_total") == 9.0
        assert expo.family("depth").kind == "gauge"
        assert expo.value("depth") == 4.0
        # Histogram children live under the declared base family.
        assert expo.family("lat_ms").kind == "histogram"
        assert expo.family("lat_ms_bucket") is None
        assert expo.histogram_count("lat_ms") == 3.0
        assert expo.histogram_sum("lat_ms") == pytest.approx(505.5)
        buckets = expo.histogram_buckets("lat_ms")
        assert buckets[1.0] == 1.0
        assert buckets[float("inf")] == 3.0
        # The +Inf sample lands in the overflow bucket; the quantile
        # answers with the largest finite bound.
        assert expo.histogram_quantile("lat_ms", 0.99) == 100.0

    def test_escaped_label_values_round_trip(self):
        registry = MetricsRegistry()
        counter = registry.counter("oddities_total", "Odd.", ("name",))
        nasty = 'a"b\\c\nd,e}f{g'
        counter.labels(nasty).inc(2)
        expo = parse_exposition(registry.render())
        (sample,) = expo.samples("oddities_total")
        assert sample.label("name") == nasty
        assert sample.value == 2.0
        assert sample.matches({"name": nasty})

    def test_merged_multi_worker_exposition(self):
        def worker_render(offered: float, p: float) -> str:
            tele = Telemetry()
            tele.registry.counter(
                "repro_broker_offered_tuples_total", "Tuples."
            ).inc(offered)
            tele.observe_stage("decide", int(p * 1e6))
            return tele.registry.render()

        merged = merge_expositions(
            [
                relabel_exposition(worker_render(10, 5.0), {"worker": "0"}),
                relabel_exposition(worker_render(30, 15.0), {"worker": "1"}),
            ]
        )
        expo = parse_exposition(merged)
        assert expo.total("repro_broker_offered_tuples_total") == 40.0
        assert expo.value(
            "repro_broker_offered_tuples_total", worker="1"
        ) == 30.0
        assert sorted(
            expo.label_values("repro_broker_offered_tuples_total", "worker")
        ) == ["0", "1"]
        # Cross-worker histogram merge: cumulative bucket sums stay
        # cumulative, and the count reflects both workers.
        assert expo.histogram_count(
            "repro_stage_latency_ms", stage="decide"
        ) == 2.0
        # Ambiguous single-value reads must refuse, not guess.
        with pytest.raises(ValueError):
            expo.value("repro_broker_offered_tuples_total")

    def test_duplicate_label_resolves_last_wins(self):
        # The router relabel prepends worker="router" in front of an
        # existing worker="0" on its own cluster families; the slot
        # index (last) must win.
        text = 'alive{worker="router",worker="0"} 1\n'
        expo = parse_exposition(text)
        (sample,) = expo.samples("alive")
        assert sample.label("worker") == "0"
        assert sample.matches({"worker": "0"})
        assert not sample.matches({"worker": "router"})

    def test_unparseable_sample_line_raises(self):
        with pytest.raises(ValueError):
            parse_exposition("jobs_total\n")
        with pytest.raises(ValueError):
            parse_exposition('jobs_total{dir="in} 1\n')

    def test_quantile_edge_cases(self):
        assert quantile_from_buckets({}, 0.5) is None
        assert quantile_from_buckets({1.0: 0.0, float("inf"): 0.0}, 0.5) is None
        # All mass in +Inf: answer with the largest finite bound.
        assert (
            quantile_from_buckets({1.0: 0.0, float("inf"): 5.0}, 0.5) == 1.0
        )
        # Linear interpolation inside the winning bucket.
        assert quantile_from_buckets(
            {10.0: 100.0, float("inf"): 100.0}, 0.5
        ) == pytest.approx(5.0)


# ---------------------------------------------------------------------------
# Streaming detectors
# ---------------------------------------------------------------------------
class TestDetectors:
    def test_rate_tracker_rates_and_reset(self):
        tracker = RateTracker()
        assert tracker.rate("k", 100.0, 10.0) is None  # no baseline yet
        assert tracker.rate("k", 150.0, 20.0) == pytest.approx(5.0)
        # Counter reset (worker respawn): the new absolute value is the
        # delta, never a negative rate.
        rate, delta = tracker.rate_and_delta("k", 30.0, 30.0)
        assert delta == 30.0
        assert rate == pytest.approx(3.0)

    def test_mad_detector_flat_step_recovery(self):
        detector = MadDetector(window=16, min_samples=4, min_scale=1.0)
        scores = [detector.update(10.0 + (i % 2) * 0.5) for i in range(12)]
        assert all(s < 2.0 for s in scores)  # flat-ish history stays quiet
        spike = detector.update(100.0)
        assert spike > 20.0  # step fires on arrival
        # Recovery: the new level refills the window and scores decay.
        settled = [detector.update(100.0) for _ in range(16)]
        assert settled[-1] < 2.0

    def test_p99_baseline_warmup_and_regression(self):
        baseline = P99Baseline(warmup=3, min_baseline=1.0)
        assert baseline.update(10.0) is None
        assert baseline.update(12.0) is None
        assert baseline.update(11.0) is None  # warmup complete: median 11
        assert baseline.baseline == 11.0
        assert baseline.update(33.0) == pytest.approx(3.0)
        assert baseline.update(11.0) == pytest.approx(1.0)  # clears

    def test_p99_baseline_floor_prevents_microsecond_blowups(self):
        baseline = P99Baseline(warmup=1, min_baseline=5.0)
        assert baseline.update(0.001) is None
        assert baseline.update(10.0) == pytest.approx(2.0)  # /5.0, not /0.001

    def test_event_window_slides(self):
        window = EventWindow(window_s=10.0)
        window.add(100.0)
        window.add(105.0)
        assert window.count(106.0) == 2
        assert window.count(112.0) == 1  # the 100.0 event aged out
        assert window.count(200.0) == 0

    def test_bucket_delta_intervals_and_reset(self):
        tracker = BucketDelta()
        first = tracker.delta("k", {1.0: 5.0, float("inf"): 10.0})
        assert first == {1.0: 5.0, float("inf"): 10.0}
        second = tracker.delta("k", {1.0: 7.0, float("inf"): 20.0})
        assert second == {1.0: 2.0, float("inf"): 10.0}
        # Shrinking counts = restarted worker: report the new snapshot.
        reset = tracker.delta("k", {1.0: 1.0, float("inf"): 2.0})
        assert reset == {1.0: 1.0, float("inf"): 2.0}


# ---------------------------------------------------------------------------
# Rules, SLO windows, reports
# ---------------------------------------------------------------------------
class TestRulesAndSlo:
    def test_rule_grades_and_abstains(self):
        rule = Rule("r", signal="x", warn=1.0, critical=5.0, series=("s",))
        assert rule.evaluate({}) is None  # absent signal: abstain
        assert rule.evaluate({"x": 0.5}).status == "ok"
        warned = rule.evaluate({"x": 2.0})
        assert (warned.status, warned.threshold) == ("warn", 1.0)
        fired = rule.evaluate({"x": 9.0})
        assert (fired.status, fired.threshold) == ("critical", 5.0)
        assert fired.evidence["series"] == ["s"]

    def test_rule_less_than_op_and_validation(self):
        floor = Rule("floor", signal="alive", warn=2.0, op="<")
        assert floor.evaluate({"alive": 3.0}).status == "ok"
        assert floor.evaluate({"alive": 1.0}).status == "warn"
        with pytest.raises(ValueError):
            Rule("bad", signal="x", warn=1.0, op=">=")
        with pytest.raises(ValueError):
            Rule("no-bounds", signal="x")

    def test_slo_window_burn_and_recovery(self):
        slo = SloWindow(
            "slo_x",
            signal="x",
            objective=0.9,
            window_s=10.0,
            warn_burn=1.0,
            critical_burn=3.0,
        )
        assert slo.evaluate(0.0) is None  # nothing observed yet
        slo.observe(1.0, good=99.0, bad=1.0)  # 1% errors, 10% budget
        assert slo.evaluate(1.0).status == "ok"
        # One storm observation dominates the window immediately.
        slo.observe(2.0, good=10.0, bad=90.0)
        fired = slo.evaluate(2.0)
        assert fired.status == "critical"
        assert fired.value > 3.0
        assert fired.evidence["bad"] == 91.0
        # The storm ages out of the window and the verdict clears.
        slo.observe(13.0, good=100.0, bad=0.0)
        assert slo.evaluate(13.0).status == "ok"

    def test_worst_and_report_rollup(self):
        assert worst([]) == "ok"
        assert worst(["ok", "warn", "ok"]) == "warn"
        assert worst(["warn", "critical"]) == "critical"
        report = HealthReport(
            ts=1.0,
            poll=3,
            status="warn",
            verdicts=[
                Verdict("a", "ok", "x"),
                Verdict("b", "warn", "y", value=2.0),
            ],
            signals={"x": 1.0},
        )
        payload = report.to_dict()
        assert payload["schema"] == "repro-health/v1"
        assert payload["counts"] == {"ok": 1, "warn": 1, "critical": 0}
        assert [v["name"] for v in payload["verdicts"]] == ["a", "b"]
        assert report.firing[0].name == "b"


# ---------------------------------------------------------------------------
# Watchtower over an in-process probe
# ---------------------------------------------------------------------------
class TestWatchtowerInProc:
    def _tower(self, tele: Telemetry, clock: _FakeClock) -> Watchtower:
        return Watchtower(
            LocalProbe(tele), events=tele.events, clock=clock
        )

    def test_healthy_polls_stay_ok(self):
        async def run():
            tele = Telemetry()
            clock = _FakeClock()
            tower = self._tower(tele, clock)
            reports = []
            for _ in range(3):
                reports.append(await tower.poll())
                clock.now += 1.0
            return reports

        reports = asyncio.run(run())
        assert all(r.status == "ok" for r in reports)
        assert all(not r.firing for r in reports)
        # A rendering exists for the CLI view.
        assert "status=OK" in format_report(reports[-1])

    def test_overflow_storm_goes_critical_with_evidence(self):
        async def run():
            tele = Telemetry()
            decided = tele.registry.counter(
                "repro_broker_decided_emissions_total", "Decided."
            )
            drops = tele.registry.counter(
                "repro_session_overflow_dropped_tuples_total",
                "Dropped.",
                ("policy",),
            )
            clock = _FakeClock()
            tower = self._tower(tele, clock)
            decided.inc(100)
            await tower.poll()  # baseline
            clock.now += 1.0
            decided.inc(100)
            drops.labels("drop_oldest").inc(50)  # 33% of emissions dropped
            storm = await tower.poll()
            clock.now += 1.0
            decided.inc(100)  # storm over: drops stop
            calm = await tower.poll()
            return storm, calm, tele.events.since(0)

        storm, calm, events = asyncio.run(run())
        assert storm.status == "critical"
        by_name = {v.name: v for v in storm.verdicts}
        fired = by_name["overflow_drops"]
        assert fired.status == "critical"
        assert fired.value == pytest.approx(1 / 3, abs=1e-3)
        assert (
            "repro_session_overflow_dropped_tuples_total"
            in fired.evidence["series"]
        )
        # The instant rule clears the poll after drops stop (the SLO
        # window legitimately keeps burning).
        assert by_name["overflow_drops"].status == "critical"
        calm_by_name = {v.name: v for v in calm.verdicts}
        assert calm_by_name["overflow_drops"].status == "ok"
        # Edge-triggered: the transition emitted exactly one anomaly
        # event, and the recovery emitted the transition back.
        anomalies = [
            e for e in events if e["kind"] == "anomaly_overflow_drops"
        ]
        assert [e["status"] for e in anomalies] == ["critical", "ok"]

    def test_own_verdict_events_are_not_evidence(self):
        async def run():
            tele = Telemetry()
            clock = _FakeClock()
            tower = self._tower(tele, clock)
            # A verdict-shaped event about worker death must not feed
            # the death window (no anomaly feedback loop).
            tele.events.emit("anomaly_worker_death_seen", status="critical")
            tele.events.emit("slo_decide_p99", status="warn")
            return await tower.poll()

        report = asyncio.run(run())
        assert report.signals["worker_deaths_recent"] == 0.0
        assert report.status == "ok"

    def test_worker_death_event_fires_and_ages_out(self):
        async def run():
            tele = Telemetry()
            # Events carry wall-clock stamps, so the fake clock must
            # start at wall time for the window arithmetic to line up.
            clock = _FakeClock(time.time())
            tower = self._tower(tele, clock)
            await tower.poll()
            tele.events.emit("worker_death", worker=1, returncode=-9)
            dead = await tower.poll()
            clock.now += 60.0  # past the 30s death window
            recovered = await tower.poll()
            return dead, recovered

        dead, recovered = asyncio.run(run())
        assert dead.status == "critical"
        fired = {v.name: v for v in dead.verdicts}["worker_death_seen"]
        assert "event:worker_death" in fired.evidence["series"]
        assert recovered.status == "ok"

    def test_scrape_failure_is_a_critical_verdict(self):
        class DeadProbe:
            async def metrics(self):
                return None

            async def events(self, since):
                return []

        async def run():
            tower = Watchtower(DeadProbe(), clock=_FakeClock())
            return await tower.poll()

        report = asyncio.run(run())
        assert report.status == "critical"
        assert report.verdicts[0].name == "scrape_failed"

    def test_queue_depth_step_scores_anomalous(self):
        async def run():
            tele = Telemetry()
            gauge = tele.registry.gauge(
                "repro_session_queue_depth_high_water", "HW.", ("app",)
            )
            clock = _FakeClock()
            tower = self._tower(tele, clock)
            gauge.labels("app0").set(4)
            for _ in range(10):  # fill the MAD history with a flat level
                await tower.poll()
                clock.now += 1.0
            flat = tower.report.signals["queue_depth_score_max"]
            gauge.labels("app0").set(400)
            spiked = await tower.poll()
            return flat, spiked

        flat, spiked = asyncio.run(run())
        assert flat == 0.0
        assert spiked.signals["queue_depth_score_max"] > 12.0
        assert {v.name: v for v in spiked.verdicts}[
            "queue_depth_anomaly"
        ].status == "critical"


# ---------------------------------------------------------------------------
# /health/report endpoint
# ---------------------------------------------------------------------------
class TestHealthEndpoint:
    def test_404_without_watchtower_and_report_with(self):
        async def run():
            tele = Telemetry()
            service = DisseminationService(telemetry=tele)
            bare = SnapshotHTTP(service, telemetry=tele)
            await bare.start()
            status_bare, _ = await _fetch(bare.port, "/health/report")
            await bare.close()

            tower = Watchtower(LocalProbe(tele), events=tele.events)
            http = SnapshotHTTP(service, telemetry=tele, watchtower=tower)
            await http.start()
            # No background poll has run: the endpoint polls on demand.
            status, body = await _fetch(http.port, "/health/report")
            await http.close()
            return status_bare, status, json.loads(body)

        status_bare, status, payload = asyncio.run(run())
        assert "404" in status_bare
        assert "200" in status
        assert payload["schema"] == "repro-health/v1"
        assert payload["status"] in ("ok", "warn", "critical")
        assert isinstance(payload["verdicts"], list)


# ---------------------------------------------------------------------------
# Cluster fleet reads: every request reads the live workers
# ---------------------------------------------------------------------------
class TestClusterFleetReads:
    def _cluster(self):
        from repro.service.cluster import ClusterConfig, ClusterService

        return ClusterService(
            ClusterConfig(workers=2, sources=("s0", "s1")),
            telemetry=Telemetry(),
        )

    def test_every_metrics_request_rescrapes(self):
        async def run():
            cluster = self._cluster()
            worker_tele = Telemetry()
            offered = worker_tele.registry.counter(
                "repro_broker_offered_tuples_total", "Tuples."
            )
            offered.inc(11)
            worker_http = SnapshotHTTP(
                DisseminationService(), telemetry=worker_tele
            )
            await worker_http.start()
            cluster._workers[0].http_port = worker_http.port
            await cluster.metrics_text()
            offered.inc(100)
            second = await cluster.metrics_text()
            await worker_http.close()
            return second

        second = asyncio.run(run())
        assert 'repro_broker_offered_tuples_total{worker="0"} 111' in second

    def test_every_events_pull_folds(self):
        async def run():
            cluster = self._cluster()
            worker_tele = Telemetry()
            worker_tele.events.emit("overflow_disconnect", app="app7")
            worker_http = SnapshotHTTP(
                DisseminationService(), telemetry=worker_tele
            )
            await worker_http.start()
            cluster._workers[0].http_port = worker_http.port
            await cluster.pull_events()
            worker_tele.events.emit("worker_thing", n=2)
            await cluster.pull_events()
            folded = cluster.telemetry.events.since(0)
            await worker_http.close()
            return folded

        folded = asyncio.run(run())
        assert [e["kind"] for e in folded] == [
            "overflow_disconnect",
            "worker_thing",
        ]
        assert all(e["worker"] == 0 for e in folded)


# ---------------------------------------------------------------------------
# HttpProbe
# ---------------------------------------------------------------------------
class TestHttpProbe:
    def test_cancel_while_closing_propagates(self, monkeypatch):
        """A cancel that lands while the probe waits for its connection
        to close must cancel the read, not be swallowed into a result."""

        async def run():
            closing = asyncio.Event()

            async def park(self):
                closing.set()
                await asyncio.get_running_loop().create_future()

            async def reply(reader, writer):
                await reader.readuntil(b"\r\n\r\n")
                writer.write(b"HTTP/1.1 200 OK\r\n\r\nok")
                writer.close()

            server = await asyncio.start_server(reply, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            monkeypatch.setattr(asyncio.StreamWriter, "wait_closed", park)
            task = asyncio.ensure_future(HttpProbe("127.0.0.1", port).get("/"))
            await asyncio.wait_for(closing.wait(), timeout=5.0)
            task.cancel()
            await asyncio.wait({task}, timeout=1.0)
            monkeypatch.undo()
            server.close()
            await server.wait_closed()
            return task

        task = asyncio.run(run())
        assert task.done()
        assert task.cancelled()


# ---------------------------------------------------------------------------
# Bounded event log overrun counter
# ---------------------------------------------------------------------------
class TestEventsDropped:
    def test_ring_eviction_counts_and_exports(self):
        tele = Telemetry(event_capacity=4)
        for i in range(7):
            tele.events.emit("tick", n=i)
        assert tele.events.dropped == 3
        assert len(tele.events) == 4
        expo = parse_exposition(tele.registry.render())
        assert expo.value("repro_events_dropped_total") == 3.0
        # Ids keep increasing across eviction; the cursor gap is the
        # reader-visible droppage signal.
        assert [e["n"] for e in tele.events.since(0)] == [3, 4, 5, 6]


# ---------------------------------------------------------------------------
# Loadgen integration: health manifest + reconciliation
# ---------------------------------------------------------------------------
class TestLoadgenHealth:
    def test_healthy_run_reports_ok_and_writes_health_json(self, tmp_path):
        from repro.service.loadgen import LoadGenConfig, run_loadgen

        summary = run_loadgen(
            LoadGenConfig(
                rate=300.0,
                duration_s=1.5,
                size="tiny",
                mode="closed",
                trace_sample=4,
                watch_interval_s=0.2,
                out_dir=str(tmp_path),
            )
        )
        assert summary["clean_shutdown"], summary["errors"]
        health = summary["health"]
        assert health is not None
        # Acceptance: a healthy steady-state run produces zero
        # warn/critical verdicts.
        assert health["status"] == "ok", health
        assert health["counts"]["warn"] == 0
        assert health["counts"]["critical"] == 0
        on_disk = json.loads((tmp_path / "health.json").read_text())
        assert on_disk["schema"] == "repro-health/v1"
        assert on_disk["status"] == "ok"
        # Telemetry honesty: both decide-latency instruments agree.
        reconciliation = summary["stage_latency"].get("reconciliation")
        assert reconciliation is not None
        assert reconciliation["within_tolerance"], reconciliation

    def test_overflow_storm_run_fires_critical_overflow_verdict(self):
        from repro.service.loadgen import LoadGenConfig, run_loadgen

        summary = run_loadgen(
            LoadGenConfig(
                rate=2000.0,
                duration_s=1.5,
                size="small",
                mode="open",
                queue_capacity=4,
                overflow="drop_oldest",
                consumer_delay_ms=50.0,
                trace_sample=64,
                watch_interval_s=0.2,
            )
        )
        assert summary["dropped_tuples"] > 0, summary
        health = summary["health"]
        assert health is not None
        storm = [
            v
            for v in health["verdicts"]
            if v["name"] in ("overflow_drops", "slo_overflow_drops")
            and v["status"] == "critical"
        ]
        assert storm, health["verdicts"]
        assert any(
            "repro_session_overflow_dropped_tuples_total"
            in v["evidence"]["series"]
            for v in storm
        )

    def test_rules_file_watch_settings_reach_the_run(self):
        # The [watch] table configures the in-run Watchtower too, not
        # only its rules and SLOs: an unmeetable decide target (and the
        # file's poll interval, under the config's 1 s default) must
        # turn the decide SLO critical.
        from repro.obs.rulesfile import rules_config_from_dict
        from repro.service.loadgen import LoadGenConfig, run_loadgen

        rules = rules_config_from_dict(
            {"watch": {"interval_s": 0.2, "decide_p99_target_ms": 1e-9}}
        )
        summary = run_loadgen(
            LoadGenConfig(
                rate=300.0,
                duration_s=1.5,
                size="tiny",
                mode="closed",
                trace_sample=1,
            ),
            watch_rules=rules,
        )
        assert summary["clean_shutdown"], summary["errors"]
        verdicts = {v["name"]: v for v in summary["health"]["verdicts"]}
        assert verdicts["slo_decide_p99"]["status"] == "critical", verdicts

    def test_no_watch_opts_out(self):
        from repro.service.loadgen import LoadGenConfig, run_loadgen

        summary = run_loadgen(
            LoadGenConfig(
                rate=200.0, duration_s=1.0, size="tiny", watch=False
            )
        )
        assert summary["health"] is None

    def test_default_rules_cover_the_documented_signals(self):
        names = {rule.name for rule in default_rules()}
        assert {
            "worker_dead",
            "worker_death_seen",
            "overflow_drops",
            "backpressure_stall",
            "queue_depth_anomaly",
            "stage_p99_regression",
        } <= names


# ---------------------------------------------------------------------------
# End-to-end: real 2-worker cluster, kill a worker, watch it go critical
# ---------------------------------------------------------------------------
def _start_serve(*extra_args: str) -> tuple[subprocess.Popen, int, int]:
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.experiments",
            "serve",
            "--port",
            "0",
            "--http-port",
            "0",
            *extra_args,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=_env(),
        # Its own process group, so _stop_serve can see (and, if it must,
        # kill) the workers a router spawned, not just the router.
        start_new_session=True,
    )
    deadline = time.monotonic() + 60
    line = ""
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if "listening on" in line:
            break
        if proc.poll() is not None:
            raise AssertionError(f"serve exited early: {line}")
    assert ", http on " in line, f"no ready line: {line!r}"
    parts = line.strip().split(", http on ")
    port = int(parts[0].rsplit(":", 1)[1])
    http_port = int(parts[1].rsplit(":", 1)[1])
    return proc, port, http_port


def _stop_serve(proc: subprocess.Popen) -> None:
    """SIGTERM, so a router takes its workers down with it (SIGKILLing
    it strands them), then assert nothing of the tree is left."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
    deadline = time.monotonic() + 20
    while time.monotonic() < deadline:
        proc.poll()  # reap the router: a zombie still holds the group
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)
    os.killpg(proc.pid, signal.SIGKILL)
    proc.wait(timeout=10)
    raise AssertionError("serve tree outlived SIGTERM and had to be killed")


class TestWatchClusterEndToEnd:
    def test_killed_worker_drives_critical_verdict_within_seconds(self):
        proc, _port, http_port = _start_serve(
            "--workers",
            "2",
            "--watch-interval",
            "0.25",
        )
        try:

            async def fetch_report() -> dict | None:
                try:
                    status, body = await _fetch(
                        http_port, "/health/report"
                    )
                except OSError:
                    return None
                return json.loads(body) if "200" in status else None

            async def drive() -> tuple[dict, dict, float]:
                probe = HttpProbe("127.0.0.1", http_port)
                healthy = None
                deadline = time.monotonic() + 30
                while time.monotonic() < deadline:
                    report = await fetch_report()
                    if (
                        report is not None
                        and report["status"] == "ok"
                        and report["signals"].get("workers_alive") == 2.0
                    ):
                        healthy = report
                        break
                    await asyncio.sleep(0.25)
                assert healthy is not None, "no healthy baseline verdict"
                events = await probe.events(0)
                pids = [
                    e["pid"]
                    for e in events
                    if e.get("kind") == "worker_spawn"
                ]
                assert pids, events
                killed_at = time.monotonic()
                os.kill(pids[0], signal.SIGKILL)
                critical = None
                deadline = killed_at + 5.0
                while time.monotonic() < deadline:
                    report = await fetch_report()
                    if report is not None and report["status"] == "critical":
                        critical = report
                        break
                    await asyncio.sleep(0.2)
                elapsed = time.monotonic() - killed_at
                assert critical is not None, "no critical verdict within 5s"
                return healthy, critical, elapsed

            healthy, critical, elapsed = asyncio.run(
                asyncio.wait_for(drive(), timeout=90)
            )
            assert healthy["counts"]["critical"] == 0
            fired = {
                v["name"]: v
                for v in critical["verdicts"]
                if v["status"] == "critical"
            }
            assert "worker_dead" in fired or "worker_death_seen" in fired, (
                fired,
                elapsed,
            )
            evidence = next(iter(fired.values()))["evidence"]["series"]
            assert evidence, critical
        finally:
            _stop_serve(proc)

    def test_repro_watch_cli_reaches_healthy_verdict(self, tmp_path):
        proc, _port, http_port = _start_serve("--watch-interval", "0")
        try:
            out_file = tmp_path / "health.json"
            watch = subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "repro.experiments",
                    "watch",
                    "--connect",
                    f"127.0.0.1:{http_port}",
                    "--polls",
                    "3",
                    "--interval",
                    "0.3",
                    "--json",
                    "--out",
                    str(out_file),
                    "--expect",
                    "ok",
                ],
                capture_output=True,
                text=True,
                env=_env(),
                timeout=60,
            )
            assert watch.returncode == 0, watch.stdout + watch.stderr
            lines = [
                json.loads(line)
                for line in watch.stdout.splitlines()
                if line.strip().startswith("{")
            ]
            assert len(lines) == 3
            assert all(r["schema"] == "repro-health/v1" for r in lines)
            final = json.loads(out_file.read_text())
            assert final["status"] == "ok"
        finally:
            _stop_serve(proc)


# ---------------------------------------------------------------------------
# Volume-weighted decide SLO + remediation hook
# ---------------------------------------------------------------------------
class TestDecideSloWeighting:
    def _tower(self, tele):
        return Watchtower(
            LocalProbe(tele), events=tele.events, clock=_FakeClock()
        )

    def test_budget_burns_by_decide_volume_not_by_polls(self):
        recorded = []

        class StubSlo:
            name = "slo_decide_p99"
            signal = "decide_p99_ms"

            def observe(self, now, good, bad):
                recorded.append((good, bad))

            def evaluate(self, now):
                return None

        tower = self._tower(Telemetry())
        tower.slos = [StubSlo()]
        tower.decide_p99_target_ms = 100.0
        # A violating poll that decided 1000 tuples burns 1000 units...
        tower._observe_slos(
            {"decide_p99_ms": 250.0, "decided_delta": 1000.0}, 0.0
        )
        # ...an idle violating poll burns the one-unit floor...
        tower._observe_slos({"decide_p99_ms": 250.0}, 1.0)
        # ...and a healthy busy poll credits its full volume.
        tower._observe_slos(
            {"decide_p99_ms": 50.0, "decided_delta": 500.0}, 2.0
        )
        assert recorded == [(0.0, 1000.0), (0.0, 1.0), (500.0, 0.0)]

    def test_decided_delta_signal_derived_from_counter(self):
        async def run():
            tele = Telemetry()
            decided = tele.registry.counter(
                "repro_broker_decided_emissions_total", "Decided."
            )
            tower = self._tower(tele)
            decided.inc(100)
            await tower.poll()  # baseline
            tower.clock.now += 1.0
            decided.inc(40)
            report = await tower.poll()
            return report

        report = asyncio.run(run())
        assert report.signals["decided_delta"] == 40.0


class TestTransitionHook:
    def test_hook_sees_each_edge_exactly_once(self):
        async def run():
            tele = Telemetry()
            decided = tele.registry.counter(
                "repro_broker_decided_emissions_total", "Decided."
            )
            drops = tele.registry.counter(
                "repro_session_overflow_dropped_tuples_total",
                "Dropped.",
                ("policy",),
            )
            clock = _FakeClock()
            tower = Watchtower(
                LocalProbe(tele), events=tele.events, clock=clock
            )
            captured = []
            tower.on_transitions = captured.extend
            decided.inc(100)
            await tower.poll()
            clock.now += 1.0
            decided.inc(100)
            drops.labels("drop_oldest").inc(50)
            await tower.poll()  # edge: ok -> critical
            clock.now += 1.0
            decided.inc(100)
            await tower.poll()  # edge: critical -> ok
            clock.now += 1.0
            decided.inc(100)
            await tower.poll()  # steady: no edge
            return captured

        captured = asyncio.run(run())
        edges = [
            (v.name, prev, v.status)
            for v, prev in captured
            if v.name == "overflow_drops"
        ]
        assert edges == [
            ("overflow_drops", "ok", "critical"),
            ("overflow_drops", "critical", "ok"),
        ]
