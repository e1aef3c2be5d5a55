"""Tests for the telemetry subsystem: metrics, traces, events, endpoints.

Four layers:

* the dependency-free metric registry and its Prometheus text rendering
  (escaping, labels, histogram bucket math, relabel/merge helpers);
* deterministic trace sampling and the bounded TraceBag/EventLog;
* the ``/metrics`` and ``/events`` HTTP surfaces (including the 405 and
  oversized-request 400 paths);
* end-to-end stage tracing across a real gateway socket, and the
  cluster router's fleet merge with a dead worker mid-scrape.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.obs.events import EventLog
from repro.obs.metrics import MetricsRegistry, merge_expositions, relabel_exposition
from repro.obs.sysinfo import platform_info
from repro.obs.telemetry import Telemetry
from repro.obs.trace import (
    STAGE_BATCH_FLUSH,
    STAGE_DECIDE,
    STAGE_INGEST_RECV,
    STAGE_INGEST_SEND,
    STAGE_ROUTER_FORWARD,
    STAGE_ROUTER_REASSEMBLY,
    STAGE_SESSION_QUEUE,
    STAGES,
    StageTracer,
    TraceBag,
    stage_id,
    stage_name,
)
from repro.runtime.tasks import EngineConfig
from repro.service.broker import DisseminationService, ServiceConfig
from repro.sources import random_walk_trace
from repro.transport.client import GatewayClient
from repro.transport.http import SnapshotHTTP
from repro.transport.server import GatewayServer

#: Nearly every tuple is decided for delivery.
CHATTY_SPEC = "DC1(temp, 0.0001, 0.00005)"


def _service(telemetry=None, **overrides) -> DisseminationService:
    service = DisseminationService(
        ServiceConfig(
            engine=EngineConfig(algorithm="region"),
            batch_max_items=overrides.pop("batch_max_items", 1),
            **overrides,
        ),
        telemetry=telemetry,
    )
    service.add_source("src")
    return service


# ---------------------------------------------------------------------------
# Metric registry + text exposition
# ---------------------------------------------------------------------------
class TestMetricsRegistry:
    def test_counter_gauge_render(self):
        registry = MetricsRegistry()
        c = registry.counter("jobs_total", "Jobs processed.")
        c.inc()
        c.inc(2.5)
        g = registry.gauge("depth", "Queue depth.")
        g.set(4)
        g.inc()
        g.dec(2)
        text = registry.render()
        assert "# HELP jobs_total Jobs processed." in text
        assert "# TYPE jobs_total counter" in text
        assert "jobs_total 3.5" in text
        assert "# TYPE depth gauge" in text
        assert "depth 3" in text

    def test_registering_same_family_twice_returns_it(self):
        registry = MetricsRegistry()
        a = registry.counter("x_total", "X.")
        b = registry.counter("x_total", "X.")
        assert a is b
        with pytest.raises(ValueError):
            registry.gauge("x_total", "X as a gauge.")

    def test_labeled_children_and_value_sum(self):
        registry = MetricsRegistry()
        c = registry.counter("frames_total", "Frames.", ("dir", "codec"))
        c.labels("in", "json").inc(3)
        c.labels("out", "binary").inc(4)
        assert c.value == 7.0
        text = registry.render()
        assert 'frames_total{dir="in",codec="json"} 3' in text
        assert 'frames_total{dir="out",codec="binary"} 4' in text

    def test_unlabeled_family_rejects_missing_labels(self):
        registry = MetricsRegistry()
        c = registry.counter("tagged_total", "Tagged.", ("tag",))
        with pytest.raises(ValueError):
            c.inc()  # family declared with labels: no default child
        c.labels("a").inc()
        assert c.value == 1.0

    def test_label_value_escaping(self):
        registry = MetricsRegistry()
        g = registry.gauge("weird", "Weird labels.", ("name",))
        g.labels('sp"am\\eggs\nham').set(1)
        text = registry.render()
        assert 'weird{name="sp\\"am\\\\eggs\\nham"} 1' in text

    def test_gauge_high_water(self):
        registry = MetricsRegistry()
        g = registry.gauge("hw", "High water.")
        g.max(5)
        g.max(3)
        assert g.value == 5.0

    def test_histogram_buckets_cumulative(self):
        registry = MetricsRegistry()
        h = registry.histogram("lat_ms", "Latency.", buckets=(1.0, 10.0))
        for value in (0.5, 0.7, 5.0, 50.0):
            h.observe(value)
        text = registry.render()
        assert 'lat_ms_bucket{le="1"} 2' in text
        assert 'lat_ms_bucket{le="10"} 3' in text
        assert 'lat_ms_bucket{le="+Inf"} 4' in text
        assert "lat_ms_sum 56.2" in text
        assert "lat_ms_count 4" in text

    def test_collectors_run_at_render(self):
        registry = MetricsRegistry()
        g = registry.gauge("pool", "Pool size.")
        state = {"n": 0}
        registry.register_collector(lambda: g.set(state["n"]))
        state["n"] = 7
        assert "pool 7" in registry.render()

    def test_relabel_exposition(self):
        text = (
            "# HELP a_total A.\n"
            "# TYPE a_total counter\n"
            "a_total 3\n"
            'b_total{x="1"} 4\n'
        )
        out = relabel_exposition(text, {"worker": "2"})
        assert "# HELP a_total A." in out  # comments untouched
        assert 'a_total{worker="2"} 3' in out
        assert 'b_total{worker="2",x="1"} 4' in out

    def test_merge_expositions_dedupes_headers(self):
        part = (
            "# HELP a_total A.\n# TYPE a_total counter\n"
            'a_total{worker="%s"} 1\n'
        )
        merged = merge_expositions([part % 0, part % 1])
        assert merged.count("# HELP a_total A.") == 1
        assert merged.count("# TYPE a_total counter") == 1
        assert 'a_total{worker="0"} 1' in merged
        assert 'a_total{worker="1"} 1' in merged

    def test_platform_info_shape(self):
        info = platform_info()
        assert info["cpu_count"] >= 1
        assert isinstance(info["python"], str)
        json.dumps(info)  # JSON-ready


# ---------------------------------------------------------------------------
# Deterministic sampling + trace accumulation
# ---------------------------------------------------------------------------
class TestStageTracer:
    def test_processes_agree_without_coordination(self):
        a, b = StageTracer(16), StageTracer(16)
        decisions = [a.sampled("volcano", seq) for seq in range(4096)]
        assert decisions == [b.sampled("volcano", seq) for seq in range(4096)]
        rate = sum(decisions) / len(decisions)
        assert 0.25 / 16 < rate < 4.0 / 16  # roughly 1/period

    def test_distinct_sources_sample_distinct_seqs(self):
        tracer = StageTracer(64)
        a = {seq for seq in range(8192) if tracer.sampled("fire", seq)}
        b = {seq for seq in range(8192) if tracer.sampled("cow", seq)}
        assert a and b and a != b

    def test_period_edges(self):
        assert not StageTracer(0).enabled
        assert not StageTracer(0).sampled("s", 1)
        always = StageTracer(1)
        assert all(always.sampled("s", seq) for seq in range(64))
        with pytest.raises(ValueError):
            StageTracer(-1)

    def test_stage_ids_round_trip(self):
        for index, name in enumerate(STAGES):
            assert stage_id(name) == index
            assert stage_name(index) == name
        assert stage_name(len(STAGES)) is None  # id from a newer peer


class TestTraceBag:
    def test_stamp_measures_since_mark(self):
        bag = TraceBag()
        bag.begin(("s", 1), 1000)
        assert bag.stamp(("s", 1), 2, 1500) == 500
        assert bag.stamp(("s", 1), 4, 1800) == 300  # mark advanced
        assert bag.pop(("s", 1)) == [(2, 500), (4, 300)]
        assert bag.pop(("s", 1)) is None

    def test_since_mark_does_not_mutate(self):
        bag = TraceBag()
        bag.begin(("s", 2), 1000)
        assert bag.since_mark(("s", 2), 1400) == 400
        assert bag.since_mark(("s", 2), 1600) == 600  # same mark

    def test_carried_pairs_seed_the_entry(self):
        bag = TraceBag()
        bag.begin(("s", 3), 500, carried=[(0, 120)])
        bag.stamp(("s", 3), 2, 700)
        assert bag.pop(("s", 3)) == [(0, 120), (2, 200)]

    def test_capacity_evicts_oldest(self):
        bag = TraceBag(capacity=2)
        for seq in range(3):
            bag.begin(("s", seq), seq)
        assert ("s", 0) not in bag
        assert ("s", 2) in bag
        assert bag.evicted == 1

    def test_unknown_keys_are_noops(self):
        bag = TraceBag()
        assert bag.stamp(("s", 9), 1, 100) is None
        assert bag.since_mark(("s", 9), 100) is None
        bag.add(("s", 9), 1, 5)  # silently ignored
        assert bag.peek(("s", 9)) is None


class TestEventLog:
    def test_ids_strictly_increase_and_since_pages(self):
        log = EventLog()
        for i in range(5):
            log.emit("tick", n=i)
        ids = [e["id"] for e in log.since(0)]
        assert ids == [1, 2, 3, 4, 5]
        assert [e["id"] for e in log.since(3)] == [4, 5]
        assert [e["id"] for e in log.since(3, limit=1)] == [4]
        assert log.since(5) == []
        assert log.last_id == 5

    def test_eviction_keeps_cursors_valid(self):
        log = EventLog(capacity=3)
        for i in range(10):
            log.emit("tick", n=i)
        remaining = log.since(0)
        assert [e["id"] for e in remaining] == [8, 9, 10]
        # A reader holding an evicted cursor just misses the gap.
        assert [e["id"] for e in log.since(5)] == [8, 9, 10]

    def test_ingest_preserves_origin_and_adds_extra(self):
        worker, router = EventLog(), EventLog()
        worker.emit("worker_death", returncode=-9)
        router.emit("router_start")
        count = router.ingest(worker.since(0), worker=3)
        assert count == 1
        folded = router.since(0)[-1]
        assert folded["kind"] == "worker_death"
        assert folded["origin_id"] == 1
        assert folded["worker"] == 3
        assert folded["id"] == 2  # fresh local id

    def test_none_fields_dropped_and_jsonl_parses(self):
        log = EventLog()
        log.emit("spawn", pid=12, port=None)
        lines = log.to_jsonl().strip().splitlines()
        records = [json.loads(line) for line in lines]
        assert records[0]["kind"] == "spawn" and records[0]["pid"] == 12
        assert "port" not in records[0]


class TestTelemetryBundle:
    def test_stage_observation_lands_in_histogram(self):
        tele = Telemetry(sample_period=1)
        tele.observe_stage(STAGE_DECIDE, 2_000_000)  # 2 ms
        tele.record_stage_pairs([(stage_id(STAGE_INGEST_SEND), 500_000)])
        text = tele.registry.render()
        assert 'repro_stage_latency_ms_count{stage="decide"} 1' in text
        assert 'repro_stage_latency_ms_count{stage="ingest_send"} 1' in text

    def test_disabled_sampler(self):
        tele = Telemetry(sample_period=0)
        assert not tele.tracer.enabled


# ---------------------------------------------------------------------------
# HTTP surfaces
# ---------------------------------------------------------------------------
async def _http_raw(port: int, request: bytes) -> bytes:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(request)
    await writer.drain()
    raw = await reader.read()
    writer.close()
    return raw


async def _http_get(port: int, path: str) -> tuple[str, dict, bytes]:
    raw = await _http_raw(
        port, f"GET {path} HTTP/1.1\r\nHost: x\r\n\r\n".encode("ascii")
    )
    head, _, body = raw.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return lines[0], headers, body


class TestObservabilityHTTP:
    def test_metrics_and_events_endpoints(self):
        async def run():
            tele = Telemetry(sample_period=4)
            service = _service(telemetry=tele)
            http = SnapshotHTTP(service, telemetry=tele)
            await http.start()
            await service.subscribe(
                "app0", "src", CHATTY_SPEC, queue_capacity=100
            )
            for item in random_walk_trace(n=20, seed=3, attribute="temp"):
                await service.offer("src", item)
            metrics = await _http_get(http.port, "/metrics")
            events_all = await _http_get(http.port, "/events")
            events_paged = await _http_get(http.port, "/events?since=1")
            await http.close()
            await service.close()
            return metrics, events_all, events_paged

        metrics, events_all, events_paged = asyncio.run(run())
        status, headers, body = metrics
        assert status == "HTTP/1.1 200 OK"
        assert headers["content-type"].startswith("text/plain")
        text = body.decode("utf-8")
        assert "repro_broker_offered_tuples_total 20" in text
        assert "# TYPE repro_broker_offered_tuples_total counter" in text
        assert "repro_broker_sessions 1" in text
        status, headers, body = events_all
        assert status == "HTTP/1.1 200 OK"
        assert headers["content-type"] == "application/x-ndjson"
        records = [json.loads(line) for line in body.decode().splitlines()]
        assert [r["id"] for r in records] == list(
            range(1, len(records) + 1)
        )
        assert records[0]["kind"] == "subscribe"
        assert records[0]["app"] == "app0"
        paged = [
            json.loads(line)
            for line in events_paged[2].decode().splitlines()
        ]
        assert [r["id"] for r in paged] == [r["id"] for r in records][1:]

    def test_disabled_telemetry_404s(self):
        async def run():
            service = _service()
            http = SnapshotHTTP(service)
            await http.start()
            metrics = await _http_get(http.port, "/metrics")
            events = await _http_get(http.port, "/events")
            await http.close()
            await service.close()
            return metrics, events

        metrics, events = asyncio.run(run())
        assert metrics[0] == "HTTP/1.1 404 Not Found"
        assert events[0] == "HTTP/1.1 404 Not Found"

    def test_non_get_gets_405(self):
        async def run():
            service = _service()
            http = SnapshotHTTP(service)
            await http.start()
            raw = await _http_raw(
                http.port, b"POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n"
            )
            await http.close()
            await service.close()
            return raw

        raw = asyncio.run(run())
        assert raw.startswith(b"HTTP/1.1 405")

    def test_oversized_requests_get_400(self):
        async def run():
            service = _service()
            http = SnapshotHTTP(service)
            await http.start()
            declared = await _http_raw(
                http.port,
                b"GET /healthz HTTP/1.1\r\nContent-Length: 99999\r\n\r\n",
            )
            runaway = await _http_raw(
                http.port,
                b"GET /healthz HTTP/1.1\r\n"
                + b"X-Pad: " + b"y" * 9000 + b"\r\n\r\n",
            )
            await http.close()
            await service.close()
            return declared, runaway

        declared, runaway = asyncio.run(run())
        assert declared.startswith(b"HTTP/1.1 400")
        assert runaway.startswith(b"HTTP/1.1 400")


# ---------------------------------------------------------------------------
# End-to-end stage tracing across a real socket
# ---------------------------------------------------------------------------
class TestTracedGateway:
    def test_stage_chain_rides_the_wire(self):
        """Every sampled tuple's decided frame carries the full local
        stage decomposition, each stage once — also for two apps of one
        sharing class, whose sessions share each flushed batch — and
        both processes' histograms fill in."""
        trace = random_walk_trace(n=40, seed=3, attribute="temp")

        async def run():
            server_tele = Telemetry(sample_period=1)
            client_tele = Telemetry(sample_period=1)
            service = _service(telemetry=server_tele)
            gateway = GatewayServer(service, telemetry=server_tele)
            await gateway.start()
            client = await GatewayClient.connect(
                "127.0.0.1", gateway.port, telemetry=client_tele
            )
            subs = [
                await client.subscribe(
                    app, "src", CHATTY_SPEC, queue_capacity=10_000
                )
                for app in ("app0", "app1")
            ]
            chains: dict[str, dict[int, tuple]] = {"app0": {}, "app1": {}}

            async def consume(sub):
                async for batch in sub.batches():
                    if batch.traces is not None:
                        chains[sub.app].update(batch.traces[1])

            consumers = [asyncio.create_task(consume(sub)) for sub in subs]
            for item in trace:
                await client.ingest("src", item)
            await service.close()
            await asyncio.gather(*consumers)
            await client.close()
            await gateway.shutdown()
            return chains, server_tele, client_tele

        chains, server_tele, client_tele = asyncio.run(run())
        assert chains["app0"], "no traces delivered"
        assert chains["app0"].keys() == chains["app1"].keys()
        want = [
            stage_id(stage)
            for stage in (
                STAGE_INGEST_SEND,
                STAGE_INGEST_RECV,
                STAGE_DECIDE,
                STAGE_BATCH_FLUSH,
                STAGE_SESSION_QUEUE,
            )
        ]
        for app, app_chains in chains.items():
            for seq, pairs in app_chains.items():
                assert [sid for sid, _ in pairs] == want, (app, seq, pairs)
                assert all(dur >= 0 for _, dur in pairs), (app, seq, pairs)
        server_text = server_tele.registry.render()
        assert 'repro_stage_latency_ms_count{stage="decide"}' in server_text
        # One queue dwell per session per traced (one-tuple) batch.
        dwells = 2 * len(chains["app0"])
        assert (
            f'repro_stage_latency_ms_count{{stage="session_queue"}} {dwells}'
            in server_text
        )
        assert "repro_transport_frames_total" in server_text
        assert "repro_broker_offered_tuples_total 40" in server_text
        client_text = client_tele.registry.render()
        assert (
            'repro_stage_latency_ms_count{stage="ingest_send"}'
            in client_text
        )

    def test_router_stages_ride_once_per_app(self):
        """Behind a 2-worker cluster, two apps of one sharing class get
        identical stage sequences: the router's forward and reassembly
        stages once each, a worker and a router queue dwell apiece."""
        from repro.core.tuples import StreamTuple
        from repro.service.cluster import ClusterConfig, ClusterService

        async def run():
            tele = Telemetry(sample_period=1)
            cluster = ClusterService(
                ClusterConfig(workers=2, sources=("src",), batch_max_items=1),
                telemetry=tele,
            )
            await cluster.start()
            gateway = GatewayServer(cluster, telemetry=tele)
            await gateway.start()
            client = await GatewayClient.connect(
                "127.0.0.1", gateway.port, telemetry=Telemetry(sample_period=1)
            )
            try:
                spec = "DC1(value, 0.0001, 0.00005)"
                # Room for the whole run: a failed consumer must not
                # stall the ingest loop behind a full buffer.
                subs = [
                    await client.subscribe(
                        app, "src", spec, queue_capacity=10_000
                    )
                    for app in ("app0", "app1")
                ]
                chains: dict[str, dict[int, tuple]] = {"app0": {}, "app1": {}}

                async def consume(sub):
                    async for batch in sub.batches():
                        if batch.traces is not None:
                            chains[sub.app].update(batch.traces[1])

                consumers = [asyncio.create_task(consume(sub)) for sub in subs]
                for seq in range(40):
                    await client.ingest(
                        "src",
                        StreamTuple(
                            seq=seq,
                            timestamp=seq * 10.0,
                            values={"value": float(seq)},
                        ),
                    )
                await cluster.close()
                await asyncio.wait_for(asyncio.gather(*consumers), timeout=30)
                return chains
            finally:
                await client.close()
                await gateway.shutdown()
                await cluster.close()

        chains = asyncio.run(run())
        assert chains["app0"], "no traces delivered"
        sequences = {
            app: {seq: [sid for sid, _ in pairs] for seq, pairs in app_chains.items()}
            for app, app_chains in chains.items()
        }
        assert sequences["app0"] == sequences["app1"]
        for stages in sequences["app0"].values():
            assert stages.count(stage_id(STAGE_ROUTER_FORWARD)) == 1, stages
            assert stages.count(stage_id(STAGE_ROUTER_REASSEMBLY)) == 1, stages

    def test_untraced_peers_negotiate_nothing(self):
        """A telemetry-less client speaks the PR-5 wire shape untouched
        and a traced server must not send it trace fields."""
        trace = random_walk_trace(n=20, seed=3, attribute="temp")

        async def run():
            service = _service(telemetry=Telemetry(sample_period=1))
            gateway = GatewayServer(
                service, telemetry=service.telemetry
            )
            await gateway.start()
            client = await GatewayClient.connect("127.0.0.1", gateway.port)
            # The qos feature is offered unconditionally (it needs no
            # telemetry); what a telemetry-less client must NOT get is
            # the trace feature.
            assert "trace" not in client.features
            sub = await client.subscribe(
                "app0", "src", CHATTY_SPEC, queue_capacity=10_000
            )
            delivered: list[int] = []
            traced: list = []

            async def consume():
                async for batch in sub.batches():
                    delivered.extend(item.seq for item in batch.items)
                    if batch.traces is not None:
                        traced.append(batch)

            consumer = asyncio.create_task(consume())
            for item in trace:
                await client.ingest("src", item)
            await service.close()
            await consumer
            await client.close()
            await gateway.shutdown()
            return delivered, traced

        delivered, traced = asyncio.run(run())
        assert delivered
        assert traced == []  # nothing rode the wire


# ---------------------------------------------------------------------------
# Cluster fleet merge (fake worker endpoints; no subprocesses)
# ---------------------------------------------------------------------------
class TestClusterObservabilityMerge:
    def test_metrics_merge_skips_dead_worker(self):
        from repro.service.cluster import ClusterConfig, ClusterService

        async def run():
            router_tele = Telemetry()
            cluster = ClusterService(
                ClusterConfig(workers=2, sources=("s0", "s1")),
                telemetry=router_tele,
            )
            # Worker 0 answers on a real (local) metrics endpoint;
            # worker 1 died mid-scrape (no reachable port).
            worker_tele = Telemetry()
            worker_tele.registry.counter(
                "repro_broker_offered_tuples_total", "Tuples."
            ).inc(11)
            worker_http = SnapshotHTTP(
                DisseminationService(), telemetry=worker_tele
            )
            await worker_http.start()
            cluster._workers[0].http_port = worker_http.port
            text = await cluster.metrics_text()
            await worker_http.close()
            return text

        text = asyncio.run(run())
        assert 'repro_cluster_worker_alive{worker="router",' in text
        assert (
            'repro_broker_offered_tuples_total{worker="0"} 11' in text
        )
        assert 'worker="1"' not in text.split("repro_broker_offered")[1]
        # One header block per family even though two expositions
        # contributed.
        assert text.count("# TYPE repro_broker_offered_tuples_total") == 1

    def test_event_folding_advances_cursor_and_skips_dead(self):
        from repro.service.cluster import ClusterConfig, ClusterService

        async def run():
            router_tele = Telemetry()
            # ttl=0: this test drives three back-to-back folds and wants
            # each to hit the worker, not the router's fold throttle.
            cluster = ClusterService(
                ClusterConfig(
                    workers=2, sources=("s0", "s1"), metrics_scrape_ttl_s=0.0
                ),
                telemetry=router_tele,
            )
            worker_tele = Telemetry()
            worker_tele.events.emit("overflow_disconnect", app="app7")
            worker_http = SnapshotHTTP(
                DisseminationService(), telemetry=worker_tele
            )
            await worker_http.start()
            cluster._workers[0].http_port = worker_http.port
            await cluster.pull_events()
            first = router_tele.events.since(0)
            await cluster.pull_events()  # cursor advanced: no duplicates
            second = router_tele.events.since(0)
            worker_tele.events.emit("worker_thing", n=2)
            await cluster.pull_events()
            third = router_tele.events.since(0)
            await worker_http.close()
            return first, second, third, cluster._workers[0].events_cursor

        first, second, third, cursor = asyncio.run(run())
        assert [e["kind"] for e in first] == ["overflow_disconnect"]
        assert first[0]["worker"] == 0
        assert first[0]["origin_id"] == 1
        assert second == first
        assert [e["kind"] for e in third] == [
            "overflow_disconnect",
            "worker_thing",
        ]
        assert cursor == 2
