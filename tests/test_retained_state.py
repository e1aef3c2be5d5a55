"""What a live source retains per offered tuple, counted not timed.

An in-process :class:`DisseminationService` (no sockets, no sleeps, every
subscriber drained) is fed a seeded trace; after a warm first half and a
``gc.collect()`` the second half's growth in ``sys.getallocatedblocks()``
and in ``len(gc.get_objects())`` is divided by the tuples offered.  Both
counts repeat exactly from run to run, so the gate needs no tolerance
for noise, only headroom for interpreter versions.

Read on CPython 3.11.7 (x86-64 Linux), blocks / GC-tracked objects per
offered tuple:

=========================================  ==============  =============
group                                      PR 15 (parent)  this change
=========================================  ==============  =============
32 subscribers on 4 DC specs, 64 per call  24.60 / 11.56   7.15 / 3.60
2 subscribers on 2 DC specs, 1 per call     7.81 /  3.40   6.15 / 2.94
=========================================  ==============  =============

The first row is ``decide-heavy``'s shape: before decisions carried
their owners, a shared candidate set left one ``Decision`` per owner and
one recipient ``frozenset`` per emission behind.  What is still retained
per tuple is the epoch journal entry, the arrival stamp, and one
``Decision``/``Emission`` per decided set/tuple in the engine's log
(ROADMAP item 2, "Flat cost").
"""

import asyncio
import gc
import sys

from repro.experiments.configs import dc_specs_from_statistics
from repro.service import DisseminationService, ServiceConfig
from repro.sources import random_walk_trace

_HALF = 4096


def _retained_per_tuple(subscribers: int, specs: int, frame: int) -> tuple[float, float]:
    trace = list(random_walk_trace(n=2 * _HALF, seed=7, attribute="v"))
    distinct = dc_specs_from_statistics(trace, "v", [1.0 + 0.5 * i for i in range(specs)])

    async def drain(session):
        async for _ in session.batches():
            pass

    async def run():
        service = DisseminationService(ServiceConfig())
        service.add_source("src")
        consumers = [
            asyncio.create_task(
                drain(await service.subscribe(f"app{i}", "src", distinct[i % specs]))
            )
            for i in range(subscribers)
        ]

        async def feed(items):
            for start in range(0, len(items), frame):
                await service.offer_many("src", items[start : start + frame])
                await asyncio.sleep(0)  # let the consumers empty their queues

        await feed(trace[:_HALF])
        gc.collect()
        blocks, objects = sys.getallocatedblocks(), len(gc.get_objects())
        await feed(trace[_HALF:])
        gc.collect()
        grown = (
            (sys.getallocatedblocks() - blocks) / _HALF,
            (len(gc.get_objects()) - objects) / _HALF,
        )
        await service.close()
        await asyncio.gather(*consumers)
        return grown

    return asyncio.run(run())


def test_shared_group_retains_little_per_offered_tuple():
    blocks, objects = _retained_per_tuple(subscribers=32, specs=4, frame=64)
    assert blocks <= 12.0 and objects <= 4.5, (blocks, objects)


def test_unshared_pair_retains_no_more_than_before():
    blocks, objects = _retained_per_tuple(subscribers=2, specs=2, frame=1)
    assert blocks <= 7.79 and objects <= 3.39, (blocks, objects)
