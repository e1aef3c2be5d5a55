"""Live dissemination: two subscribers, one re-filters mid-stream.

Demonstrates the asyncio broker (`repro.service`): a volcano seismic
feed streams into a `DisseminationService`; two applications consume
decided tuples concurrently from their bounded session queues; halfway
through, the second application tightens its filter at runtime (the
broker cuts the engine over and regroups), and the delivery rate change
is visible in its per-epoch counts.

Run with::

    PYTHONPATH=src python examples/live_dissemination.py
"""

from __future__ import annotations

import asyncio

from repro.runtime.tasks import EngineConfig
from repro.service.broker import DisseminationService, ServiceConfig
from repro.sources import volcano_trace


async def consume(name: str, session, log: list[str]) -> int:
    """Drain one session's queue; a real app would act on each batch."""
    total = 0
    async for batch in session.batches():
        total += len(batch)
        if len(log) < 8:  # keep the demo output short
            first = batch.items[0]
            log.append(
                f"  {name}: batch of {len(batch)} "
                f"(first seq={first.seq}, t={first.timestamp:.0f} ms)"
            )
    return total


async def main() -> None:
    trace = volcano_trace(n=2000, seed=13)
    service = DisseminationService(
        ServiceConfig(
            engine=EngineConfig(algorithm="region"),
            batch_max_items=4,
            queue_capacity=64,
            overflow="block",
            # A live broker keeps no per-decision log by default; this
            # demo reads the per-epoch decision counts back at the end.
            record_epochs=True,
        )
    )
    service.add_source("volcano")

    # Loose delta filter: only large seismic excursions pass.
    loose = await service.subscribe("quake-alarm", "volcano", "DC1(seis, 0.004, 0.002)")
    # Medium filter for a trend dashboard.
    dash = await service.subscribe("dashboard", "volcano", "DC1(seis, 0.002, 0.001)")

    log: list[str] = []
    consumers = [
        asyncio.create_task(consume("quake-alarm", loose, log)),
        asyncio.create_task(consume("dashboard", dash, log)),
    ]

    half = len(trace) // 2
    for item in trace[:half]:
        await service.offer("volcano", item)

    mid_snapshot = service.snapshot()
    print(f"first half : {mid_snapshot.decided_emissions} emissions decided")

    # The dashboard operator zooms in: re-filter at runtime.  The broker
    # flushes the open candidate state, regroups, and keeps serving.
    await dash.re_filter("DC1(seis, 0.0005, 0.00025)")
    print("dashboard re-filtered to DC1(seis, 0.0005, 0.00025)")

    for item in trace[half:]:
        await service.offer("volcano", item)

    await service.close()
    totals = await asyncio.gather(*consumers)

    print("\nsample deliveries:")
    for line in log:
        print(line)

    snapshot = service.snapshot()
    print(f"\nfinal      : {snapshot.decided_emissions} emissions decided, "
          f"p99 decide latency {snapshot.decide_p99_ms:.0f} ms")
    for name, total in zip(("quake-alarm", "dashboard"), totals):
        print(f"  {name:<12} received {total} tuples")
    epochs = service.results("volcano")
    dashboard_per_epoch = [len(e.decisions.get("dashboard", [])) for e in epochs]
    print(f"  dashboard decisions per epoch (loose -> tight): {dashboard_per_epoch}")


if __name__ == "__main__":
    asyncio.run(main())
