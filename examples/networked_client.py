"""End-to-end networked dissemination: server, producer, two QoS tiers.

Starts a :class:`~repro.transport.server.GatewayServer` (plus the HTTP
snapshot endpoint) on ephemeral localhost ports, then drives it the way
a real deployment would — every interaction crosses a socket:

* an **ingest producer** connection replays a seeded volcano trace;
* an **operator console** subscriber with a relaxed QoS profile
  (best-effort latency, priority 0): broker-default batching, blocking
  backpressure;
* a **seismic alarm** subscriber with a strict profile (80 ms latency
  tolerance, priority 2): the QoS mapping caps its micro-batch delay at
  20 ms, quadruples its queue bound, and prefers fresh data
  (``drop_oldest``) over stalling the source.

Run it::

    PYTHONPATH=src python examples/networked_client.py
"""

from __future__ import annotations

import asyncio
import json

from repro.runtime.tasks import EngineConfig
from repro.service.broker import DisseminationService, ServiceConfig
from repro.sources import CATALOG
from repro.transport.client import GatewayClient
from repro.transport.http import SnapshotHTTP
from repro.transport.server import GatewayServer

SOURCE = "volcano"
SPEC_CONSOLE = "DC1(seis, 0.008, 0.004)"  # coarse: big changes only
SPEC_ALARM = "DC1(seis, 0.002, 0.001)"  # fine: small tremors too


async def consume(name: str, subscription, log: list[str]) -> int:
    total = 0
    async for batch in subscription.batches():
        total += len(batch)
        log.append(
            f"  [{name}] batch of {len(batch)} "
            f"(staged {batch.first_staged_ms:.0f} ms, "
            f"flushed {batch.flushed_ms:.0f} ms, "
            f"+{batch.batching_delay_ms:.0f} ms batching)"
        )
    return total


async def main() -> None:
    # --- server side: broker + gateway + snapshot endpoint ------------
    service = DisseminationService(
        ServiceConfig(engine=EngineConfig(algorithm="region"))
    )
    service.add_source(SOURCE)
    gateway = GatewayServer(service)
    await gateway.start()
    http = SnapshotHTTP(service)
    await http.start()
    print(f"gateway on 127.0.0.1:{gateway.port}, http on :{http.port}")

    # --- two subscribers with different QoS profiles ------------------
    subscribers = await GatewayClient.connect("127.0.0.1", gateway.port)
    console = await subscribers.subscribe(
        "console",
        SOURCE,
        SPEC_CONSOLE,
        qos={"priority": 0},  # best effort: broker defaults apply
    )
    alarm = await subscribers.subscribe(
        "alarm",
        SOURCE,
        SPEC_ALARM,
        qos={"latency_tolerance_ms": 80.0, "priority": 2},
    )
    log: list[str] = []
    console_task = asyncio.create_task(consume("console", console, log))
    alarm_task = asyncio.create_task(consume("alarm  ", alarm, log))

    # --- a separate producer connection replays the trace -------------
    producer = await GatewayClient.connect("127.0.0.1", gateway.port)
    trace = CATALOG.make(SOURCE, n=400, seed=7)
    for item in trace:
        await producer.ingest(SOURCE, item)
    await producer.tick(trace[-1].timestamp + 1000.0)  # flush latency-due

    # --- scrape the HTTP endpoint mid-run (async: an in-loop blocking
    # client such as urllib would deadlock against our own server) -----
    reader, writer = await asyncio.open_connection("127.0.0.1", http.port)
    writer.write(b"GET /snapshot HTTP/1.1\r\nHost: localhost\r\n\r\n")
    await writer.drain()
    raw = await reader.read()
    writer.close()
    snapshot = json.loads(raw.partition(b"\r\n\r\n")[2])
    print(
        f"/snapshot: offered={snapshot['offered']} "
        f"decided={snapshot['decided_emissions']} "
        f"p50={snapshot['decide_p50_ms']:.1f} ms "
        f"p99={snapshot['decide_p99_ms']:.1f} ms"
    )
    for session in snapshot["sessions"]:
        print(
            f"  session {session['app_name']}: policy={session['policy']} "
            f"queue={session['queue_depth']}/{session['queue_capacity']} "
            f"delivered={session['delivered_tuples']} "
            f"dropped={session['dropped_tuples']}"
        )

    # --- graceful teardown: flush, close, report ----------------------
    await producer.close()
    terminal = await gateway.shutdown()
    console_total, alarm_total = await asyncio.gather(console_task, alarm_task)
    await subscribers.close()
    await http.close()

    for line in log[:6]:
        print(line)
    if len(log) > 6:
        print(f"  ... {len(log) - 6} more batches")
    print(
        f"console received {console_total} tuples "
        f"(coarse filter, default QoS); "
        f"alarm received {alarm_total} tuples "
        f"(fine filter, 80 ms tolerance -> 20 ms batching cap)"
    )
    print(
        f"terminal snapshot: offered={terminal['offered']} "
        f"delivered={terminal['delivered_tuples']} "
        f"dropped={terminal['dropped_tuples']}"
    )


if __name__ == "__main__":
    asyncio.run(main())
