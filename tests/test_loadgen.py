"""End-to-end tests for the load generator and its run manifests."""

from __future__ import annotations

import contextlib
import json

import pytest

from repro.service.loadgen import (
    TRANSPORTS,
    ChurnEvent,
    LoadGenConfig,
    _subscriber_specs,
    default_churn,
    make_trace,
    run_loadgen,
)


def _config(**overrides) -> LoadGenConfig:
    base = dict(
        source="random_walk",
        size="tiny",
        rate=400.0,
        duration_s=0.5,
        seed=7,
        metrics_interval_s=0.1,
    )
    base.update(overrides)
    return LoadGenConfig(**base)


class TestArtifacts:
    def test_writes_metrics_and_summary(self, tmp_path):
        out = tmp_path / "run"
        summary = run_loadgen(_config(out_dir=str(out)))

        lines = (out / "metrics.jsonl").read_text().strip().splitlines()
        assert lines, "metrics.jsonl must not be empty"
        for line in lines:
            record = json.loads(line)
            assert "offered" in record and "session_count" in record

        manifest = json.loads((out / "summary.json").read_text())
        assert manifest["schema"] == "repro-loadgen/v1"
        assert manifest["clean_shutdown"] is True
        assert manifest["config"]["seed"] == 7
        assert manifest["offered"] > 0
        assert manifest == summary

    def test_open_loop_verify_matches_batch(self):
        summary = run_loadgen(_config(verify=True))
        assert summary["equivalent_to_batch"] is True
        assert summary["delivered_tuples"] > 0
        assert summary["dropped_tuples"] == 0
        assert summary["clean_shutdown"] is True
        latency = summary["decide_latency_ms"]
        assert latency["p99"] >= latency["p50"] >= 0.0

    def test_closed_loop_verify_matches_batch(self):
        summary = run_loadgen(_config(mode="closed", verify=True))
        assert summary["equivalent_to_batch"] is True

    def test_per_candidate_set_verify_matches_batch(self):
        summary = run_loadgen(_config(algorithm="per_candidate_set", verify=True))
        assert summary["equivalent_to_batch"] is True

    def test_verify_with_time_constraint_matches_batch(self):
        """The batch reference must run the same timely-cut constraint as
        the live service, or correct runs flag as non-equivalent."""
        summary = run_loadgen(
            _config(mode="closed", constraint_ms=60.0, verify=True)
        )
        assert summary["cuts_triggered"] > 0
        assert summary["equivalent_to_batch"] is True


class TestChurnSchedules:
    def test_default_churn_applies_and_completes(self):
        config = _config(duration_s=0.6, mode="closed")
        trace = make_trace(config)
        from dataclasses import replace

        config = replace(config, churn=default_churn(config, trace), verify=True)
        summary = run_loadgen(config)
        assert summary["clean_shutdown"] is True
        assert len(summary["churn_applied"]) == len(config.churn)
        apps = [app for app, _ in summary["final_subscriptions"]]
        assert "app-late" in apps
        assert "app1" not in apps  # unsubscribed by the schedule
        assert summary["regroups"] >= len(config.churn)
        assert summary["equivalent_to_batch"] is True  # sessions match schedule

    def test_custom_churn_validation(self):
        with pytest.raises(ValueError, match="needs a filter spec"):
            ChurnEvent(at_s=0.1, op="re_filter", app="app0")
        with pytest.raises(ValueError, match="unknown churn op"):
            ChurnEvent(at_s=0.1, op="explode", app="app0")


class TestBackpressureUnderLoad:
    def test_slow_consumer_drop_oldest_reports_drops(self):
        summary = run_loadgen(
            _config(
                rate=800.0,
                overflow="drop_oldest",
                queue_capacity=2,
                consumer_delay_ms=40.0,
            )
        )
        assert summary["dropped_tuples"] > 0
        assert summary["clean_shutdown"] is True

    def test_slow_consumer_block_never_drops(self):
        summary = run_loadgen(
            _config(
                rate=800.0,
                mode="closed",
                overflow="block",
                queue_capacity=2,
                consumer_delay_ms=5.0,
            )
        )
        assert summary["dropped_tuples"] == 0
        assert summary["clean_shutdown"] is True


@contextlib.contextmanager
def _external_gateway(on_stop: str = "shutdown"):
    """A GatewayServer on a background thread (its own event loop).

    Yields ``(port, stop)``; ``stop()`` asks the server to wind down —
    gracefully (``on_stop="shutdown"``) or by aborting every connection
    mid-flight (``on_stop="abort"``, the simulated server death).
    """
    import asyncio
    import threading

    from repro.runtime.tasks import EngineConfig
    from repro.service.broker import DisseminationService, ServiceConfig
    from repro.transport.server import GatewayServer

    started = threading.Event()
    box: dict = {}

    def serve():
        async def main():
            service = DisseminationService(
                ServiceConfig(engine=EngineConfig(algorithm="region"))
            )
            gateway = GatewayServer(service)
            await gateway.start()
            box["port"] = gateway.port
            box["stop"] = asyncio.Event()
            box["loop"] = asyncio.get_running_loop()
            started.set()
            await box["stop"].wait()
            if on_stop == "abort":
                # Hard death: drop every connection, no goodbyes.
                for conn in list(gateway._connections):
                    conn.abort()
                gateway._server.close()
            else:
                await gateway.shutdown()

        asyncio.run(main())

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    assert started.wait(10)

    def stop():
        try:
            box["loop"].call_soon_threadsafe(box["stop"].set)
        except RuntimeError:
            pass  # server loop already gone

    try:
        yield box["port"], stop
    finally:
        stop()
        thread.join(timeout=10)


class TestTcpTransport:
    """The same run loop driven across a real localhost socket."""

    @pytest.mark.parametrize("algorithm", ["region", "per_candidate_set"])
    def test_tcp_verify_matches_batch(self, algorithm):
        summary = run_loadgen(
            _config(transport="tcp", algorithm=algorithm, verify=True)
        )
        assert summary["equivalent_to_batch"] is True
        assert summary["clean_shutdown"] is True
        assert summary["delivered_tuples"] > 0
        latency = summary["decide_latency_ms"]
        assert latency["p99"] >= latency["p50"] >= 0.0

    def test_tcp_closed_loop_with_churn(self, tmp_path):
        from dataclasses import replace

        config = _config(transport="tcp", mode="closed", duration_s=0.6)
        config = replace(config, churn=default_churn(config), verify=True)
        summary = run_loadgen(config)
        assert summary["clean_shutdown"] is True
        assert len(summary["churn_applied"]) == len(config.churn)
        assert summary["equivalent_to_batch"] is True  # sessions match schedule

    def test_tcp_writes_artifacts(self, tmp_path):
        out = tmp_path / "tcp-run"
        summary = run_loadgen(_config(transport="tcp", out_dir=str(out)))
        assert summary["transport"] == "tcp"
        assert (out / "metrics.jsonl").read_text().strip()
        manifest = json.loads((out / "summary.json").read_text())
        assert manifest["config"]["transport"] == "tcp"
        assert "codec" not in manifest and "codec" not in manifest["config"]

    def test_tcp_external_server_verify(self):
        """--connect mode: verification against delivered streams when
        the server's engines are out of reach."""
        with _external_gateway() as (port, _stop):
            summary = run_loadgen(
                _config(
                    transport="tcp",
                    connect=f"127.0.0.1:{port}",
                    mode="closed",
                    verify=True,
                )
            )
        assert summary["equivalent_to_batch"] is True
        assert summary["clean_shutdown"] is True
        assert summary["delivered_tuples"] > 0


    def test_tcp_server_dying_mid_run_degrades_to_error_summary(self):
        """A broker that vanishes mid-run yields a summary with recorded
        errors and clean_shutdown False — never a crash or leaked tasks."""
        import threading

        with _external_gateway(on_stop="abort") as (port, stop):
            killer = threading.Timer(0.5, stop)
            killer.start()
            try:
                summary = run_loadgen(
                    _config(
                        transport="tcp",
                        connect=f"127.0.0.1:{port}",
                        mode="closed",
                        duration_s=3.0,
                        rate=200.0,
                    )
                )
            finally:
                killer.cancel()
        assert summary["clean_shutdown"] is False
        assert summary["errors"], summary
        assert summary["offered"] > 0


class TestConfigValidation:
    def test_rejects_unknown_source(self):
        with pytest.raises(ValueError, match="unknown loadgen source"):
            _config(source="chlorine")

    def test_rejects_bad_size_and_mode(self):
        with pytest.raises(ValueError, match="unknown size"):
            _config(size="huge")
        with pytest.raises(ValueError, match="unknown mode"):
            _config(mode="sideways")

    def test_rejects_bad_transport_combinations(self):
        with pytest.raises(ValueError, match="unknown transport"):
            _config(transport="carrier-pigeon")
        with pytest.raises(ValueError, match="requires transport"):
            _config(connect="127.0.0.1:7787")
        with pytest.raises(ValueError, match="host:port"):
            _config(transport="tcp", connect="localhost")
        with pytest.raises(ValueError, match="host:port"):
            _config(transport="tcp", connect="127.0.0.1:")

    def test_rejects_non_positive_metrics_interval_and_in_flight(self):
        with pytest.raises(ValueError, match="metrics_interval_s"):
            _config(metrics_interval_s=0.0)
        with pytest.raises(ValueError, match="max_in_flight"):
            _config(max_in_flight=0)

    def test_subscriber_specs_follow_size(self):
        for size, count in (("tiny", 2), ("small", 8)):
            config = _config(size=size)
            specs = _subscriber_specs(config, make_trace(config))
            assert len(specs) == count


class TestStreamOracle:
    """``verify=`` compares what every subscriber received with the batch
    reference, whatever the transport."""

    @pytest.mark.parametrize("transport", ["inproc", "tcp"])
    def test_lost_batches_fail_verification(self, monkeypatch, transport):
        from repro.service.broker import DisseminationService

        ship = DisseminationService._ship

        async def lossy_ship(self, src, group, batch, final=()):
            if batch.items[0].seq % 7 == 3:
                return  # silently lost
            await ship(self, src, group, batch, final)

        monkeypatch.setattr(DisseminationService, "_ship", lossy_ship)
        summary = run_loadgen(
            _config(mode="closed", transport=transport, verify=True)
        )
        assert summary["equivalent_to_batch"] is False

    def test_inproc_and_tcp_deliver_identical_streams(self):
        digests = {}
        for transport in TRANSPORTS:
            summary = run_loadgen(
                _config(
                    mode="closed",
                    sources=2,
                    ingest_batch=8,
                    drain_trace=True,
                    verify=True,
                    transport=transport,
                )
            )
            assert summary["equivalent_to_batch"] is True, transport
            digests[transport] = summary["delivered_digest"]
        assert len(digests["inproc"]) == 4
        assert all(entry["count"] > 0 for entry in digests["inproc"].values())
        assert digests["inproc"] == digests["tcp"]


class TestMultiStream:
    def test_multi_source_inproc_verify(self):
        summary = run_loadgen(
            _config(mode="closed", sources=3, verify=True)
        )
        assert summary["equivalent_to_batch"] is True
        assert summary["clean_shutdown"] is True
        assert summary["source_streams"] == [
            "random_walk-0",
            "random_walk-1",
            "random_walk-2",
        ]
        # Each stream has its own subscriber set.
        apps = [app for app, _ in summary["final_subscriptions"]]
        assert len(apps) == len(set(apps)) == 3 * 2  # tiny = 2 per stream

    def test_multi_source_tcp_records_digests(self):
        summary = run_loadgen(
            _config(mode="closed", sources=2, transport="tcp", verify=True)
        )
        assert summary["equivalent_to_batch"] is True
        digest = summary["delivered_digest"]
        assert digest is not None and len(digest) == 4
        for entry in digest.values():
            assert entry["count"] >= 0 and len(entry["blake2s"]) == 32

    @pytest.mark.parametrize("algorithm", ["region", "per_candidate_set"])
    def test_worker_fleet_verifies_and_delivers_the_single_process_streams(
        self, algorithm
    ):
        """Sharding is semantics-free: a verified run delivers
        byte-identical per-subscriber streams whether one process or a
        2-worker fleet serves it."""
        digests = {}
        for workers in (1, 2):
            # drain_trace: digests compare only across runs that replayed
            # the identical offered set, whatever the wall budget.
            summary = run_loadgen(
                _config(
                    mode="closed",
                    algorithm=algorithm,
                    sources=2,
                    transport="tcp",
                    ingest_batch=8,
                    workers=workers,
                    verify=True,
                    drain_trace=True,
                )
            )
            assert summary["equivalent_to_batch"] is True, (workers, summary)
            assert summary["clean_shutdown"] is True, (workers, summary)
            digests[workers] = summary["delivered_digest"]
        assert digests[1] == digests[2]

    def test_adaptive_batching_records_trajectory(self):
        summary = run_loadgen(
            _config(mode="closed", transport="tcp", ingest_batch=8, verify=True)
        )
        assert summary["equivalent_to_batch"] is True
        assert summary["adaptive_batch"] is True
        trajectory = summary["ingest_batch_trajectory"]["random_walk"]
        assert trajectory[0] == [0, 1] or trajectory[0] == (0, 1)
        assert 1 <= summary["ingest_batch_final"]["random_walk"] <= 8
        # Back-to-back local acks are fast: the controller must have
        # grown past the floor at some point.
        assert any(size > 1 for _, size in trajectory)

    def test_fixed_batching_opt_out(self):
        summary = run_loadgen(
            _config(
                mode="closed",
                transport="tcp",
                ingest_batch=4,
                adaptive_batch=False,
                verify=True,
            )
        )
        assert summary["adaptive_batch"] is False
        assert summary["ingest_batch_trajectory"] is None
        assert summary["equivalent_to_batch"] is True

    def test_validation_rejects_bad_combinations(self):
        with pytest.raises(ValueError):
            _config(workers=2)  # cluster needs tcp
        with pytest.raises(ValueError):
            _config(workers=2, transport="tcp", connect="127.0.0.1:1")
        with pytest.raises(ValueError):
            _config(sources=0)
        with pytest.raises(ValueError):
            _config(
                sources=2,
                churn=(
                    ChurnEvent(at_s=0.1, op="unsubscribe", app="app0"),
                ),
            )
