"""What a live source retains per offered tuple, counted not timed.

An in-process :class:`DisseminationService` with the default
``ServiceConfig()`` (no sockets, no sleeps, every subscriber drained) is
fed tuples built *fresh* for every call from plain rows and dropped
after the offer, as the wire decoder makes them — a pre-built trace
would hide whatever pins the offered tuples themselves.  After a warm
first part and a ``gc.collect()`` the rest's growth in
``sys.getallocatedblocks()`` and in ``len(gc.get_objects())`` — and, in
the long variant, in the bytes ``tracemalloc`` traces — is divided by
the tuples offered.  All three repeat exactly from run to run, so the
gates need no tolerance for noise.  ``tracemalloc`` starts before the
warm-up: started later, it would miss the arrival map's buffers and
count their release when the map is rebuilt.

Read on CPython 3.11.7 (x86-64 Linux), allocator blocks / GC-tracked
objects per offered tuple over the second 4 096 of 8 192: with broker
engines that logged every decision beside a journal entry pinning every
offered tuple, and today, with ``record=False`` engines and no journal:

=========================================  ==============  =============
group                                      logging         record=False
=========================================  ==============  =============
32 subscribers on 4 DC specs, 64 per call  11.15 / 4.60    1.48 / 0.00
2 subscribers on 2 DC specs, 1 per call    10.15 / 3.94    1.47 / 0.00
=========================================  ==============  =============

What is left is not per tuple for ever: the arrival map filling to its
cap (an ``int`` stamp and its share of the dict an offer, until 8 192;
≈ 83 traced bytes an offer).  Past that cap the count is 0.00 / 0.00,
which the long variant gates — and there the bytes too: 0.01 an offer.
The epoch journal the broker kept before engine checkpoints was a
single buffer, so no block count could see it; it held 33.1 traced
bytes an offer in that variant.

The object gate is interpreter-independent (nothing GC-tracked is kept).
The block gate of 4.0 leaves 2.5 blocks of headroom over the 3.11.7
reading for the 3.10–3.12 matrix, whose ``int``/``dict`` layouts differ
by less than a block per entry, and still fails the logging 10.15.
"""

import asyncio
import gc
import sys
import tracemalloc

from repro.core.tuples import StreamTuple
from repro.experiments.configs import dc_specs_from_statistics
from repro.obs.telemetry import Telemetry
from repro.service.broker import DisseminationService, ServiceConfig
import repro.service.broker as broker_module
from repro.sources import random_walk_trace


def _retained_per_tuple(
    subscribers: int,
    specs: int,
    frame: int,
    *,
    warm: int = 4096,
    measured: int = 4096,
    telemetry=None,
    traced: bool = False,
):
    """``((blocks, objects, bytes), open_state_bytes)``: what the
    measured part retained per offered tuple, and what the source's
    checkpoint packed to at its end.  ``bytes`` is ``None`` unless
    ``traced`` (``tracemalloc`` makes the run four times slower)."""
    trace = random_walk_trace(n=warm + measured, seed=7, attribute="v")
    distinct = dc_specs_from_statistics(trace, "v", [1.0 + 0.5 * i for i in range(specs)])
    rows = [(t.seq, t.timestamp, t.value("v")) for t in trace]
    del trace

    async def drain(session):
        async for _ in session.batches():
            pass

    async def run():
        service = DisseminationService(ServiceConfig(), telemetry=telemetry)
        service.add_source("src")
        consumers = [
            asyncio.create_task(
                drain(await service.subscribe(f"app{i}", "src", distinct[i % specs]))
            )
            for i in range(subscribers)
        ]

        async def feed(start, stop):
            for at in range(start, stop, frame):
                await service.offer_many(
                    "src",
                    [
                        StreamTuple.trusted(seq, ts, {"v": v})
                        for seq, ts, v in rows[at : min(at + frame, stop)]
                    ],
                )
                await asyncio.sleep(0)  # let the consumers empty their queues

        await feed(0, warm)
        gc.collect()
        blocks, objects = sys.getallocatedblocks(), len(gc.get_objects())
        held = tracemalloc.get_traced_memory()[0]
        await feed(warm, warm + measured)
        gc.collect()
        grown = (
            (sys.getallocatedblocks() - blocks) / measured,
            (len(gc.get_objects()) - objects) / measured,
            (tracemalloc.get_traced_memory()[0] - held) / measured if traced else None,
        )
        open_state_bytes = service.open_state_bytes()
        await service.close()
        await asyncio.gather(*consumers)
        return grown, open_state_bytes

    if not traced:
        return asyncio.run(run())
    tracemalloc.start()
    try:
        return asyncio.run(run())
    finally:
        tracemalloc.stop()


def test_shared_group_retains_little_per_offered_tuple():
    (blocks, objects, _), _ = _retained_per_tuple(subscribers=32, specs=4, frame=64)
    assert blocks <= 4.0 and objects <= 0.01, (blocks, objects)


def test_unshared_pair_retains_no_more_than_before():
    (blocks, objects, _), open_state_bytes = _retained_per_tuple(
        subscribers=2, specs=2, frame=1
    )
    assert blocks <= 4.0 and objects <= 0.01, (blocks, objects)
    # Two open DC sets of a few tuples each, whatever the stream length.
    assert 0 < open_state_bytes <= 2048


def test_past_both_caps_a_source_retains_nothing_per_offered_tuple():
    """Two arrival caps of warm-up take the arrival map through its
    first rebuild; the two caps measured after that are a whole number
    of the map's rebuild periods, so what it holds is the same at both
    ends — and nothing else grows with the stream."""
    cap = broker_module._ARRIVAL_TRACK_MAX
    telemetry = Telemetry(sample_period=0)
    (blocks, objects, traced), open_state_bytes = _retained_per_tuple(
        subscribers=2,
        specs=2,
        frame=64,
        warm=2 * cap,
        measured=2 * cap,
        telemetry=telemetry,
        traced=True,
    )
    assert abs(blocks) <= 0.01 and abs(objects) <= 0.01, (blocks, objects)
    assert abs(traced) <= 1.0, traced
    assert 0 < open_state_bytes <= 2048
    assert 'repro_broker_checkpoint_cutover_total{' not in telemetry.registry.render()
