#!/usr/bin/env python3
"""Deterministic work counters for a fixed seeded prefix, per tuple.

    PYTHONPATH=src python tools/work_counters.py [--tuples 3000] [--seed 7]

Replays one seeded random-walk prefix in process through three layers
and reports, per offered tuple:

* ``opcodes`` — bytecode instructions the interpreter executed inside
  the measured calls (``sys.settrace`` with ``f_trace_opcodes``);
* ``blocks`` — growth of ``sys.getallocatedblocks()`` over the run, after
  ``gc.collect()``: what the layer retained;
* ``bytes`` — growth of the bytes ``tracemalloc`` traces over the run.

The layers: the batch engine recording its log (``record=True``), the
same engine as a live broker runs it (``record=False``),
``DisseminationService.offer`` — two subscribers on two distinct DC
specs, region algorithm, default ``ServiceConfig``, sessions emptied
after every offer — and the same offer path with four subscribers, two
on each spec (``broker_offer_shared``: two delivery groups of two).
Each of these readings repeats exactly from run to run on one
interpreter version (bytecode differs between versions), so a change of
a few opcodes is visible where wall-clock time cannot resolve 10 %.

``gateway_fanout`` is the whole server side of a loopback connection: a
thread runs a ``GatewayServer`` over a default broker, and only that
thread is traced, while a ``GatewayClient`` on the main thread holds
eight subscriptions (four on each spec: two delivery groups of four)
and sends the prefix as 16-tuple ``ingest_batch`` frames, one in flight
(each awaits its ack).  The event loop's own Python (selector, handle
scheduling) counts too, so this reading can move by a few dozen opcodes
between runs (194 over the 3 000 tuples, the most seen).

Opcodes do not see time spent inside C calls (``marshal.dumps``, dict
and set operations, ``sorted``, socket calls): a layer can get slower
with fewer opcodes.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import sys
import threading
import tracemalloc
from dataclasses import dataclass

from repro.core.engine import GroupAwareEngine
from repro.core.tuples import StreamTuple
from repro.experiments.configs import dc_specs_from_statistics
from repro.filters.spec import parse_filter
from repro.service.broker import DisseminationService, ServiceConfig
from repro.sources import random_walk_trace
from repro.transport.client import GatewayClient
from repro.transport.server import GatewayServer

LAYERS = (
    "engine_record",
    "engine_live",
    "broker_offer",
    "broker_offer_shared",
    "gateway_fanout",
)

#: ``gateway_fanout``: subscribers per spec, and tuples per ingest frame.
_FANOUT_COPIES = 4
_FANOUT_FRAME = 16

#: Delta multipliers (of the trace's mean step) of the two subscribers.
_DELTAS = (1.0, 1.5)


class OpcodeCounter:
    """Counts interpreted opcodes while entered; not reentrant."""

    def __init__(self) -> None:
        self.count = 0
        #: Opcodes count only while set (a thread traced from its start
        #: gates the window it reports).
        self.enabled = True

    def _call(self, frame, event, arg):
        if frame.f_code is _EXIT:
            return None  # the counter's own way out is not the layer's work
        frame.f_trace_opcodes = True
        return self._step

    def _step(self, frame, event, arg):
        if event == "opcode" and self.enabled:
            self.count += 1
        return self._step

    def __enter__(self) -> "OpcodeCounter":
        sys.settrace(self._call)
        return self

    def __exit__(self, *exc) -> None:
        sys.settrace(None)


_EXIT = OpcodeCounter.__exit__.__code__

@dataclass(frozen=True)
class Reading:
    layer: str
    tuples: int
    opcodes: int
    blocks: int
    bytes: int

    def per_tuple(self, total: int) -> float:
        return total / self.tuples


def _prefix(tuples: int, seed: int) -> tuple[list[tuple], list[str]]:
    trace = random_walk_trace(n=tuples, seed=seed, attribute="v")
    specs = dc_specs_from_statistics(trace, "v", list(_DELTAS))
    return [(t.seq, t.timestamp, t.value("v")) for t in trace], specs


def _fresh(rows):
    """Tuples built per call, as the wire decoder builds them."""
    return (StreamTuple.trusted(seq, ts, {"v": v}) for seq, ts, v in rows)


def _run_engine(rows, specs, record: bool, counter=None) -> GroupAwareEngine:
    filters = [parse_filter(spec, name=f"app{i}") for i, spec in enumerate(specs)]
    engine = GroupAwareEngine(filters, algorithm="region", record=record)
    for item in _fresh(rows):
        if counter is None:
            engine.process(item)
        else:
            with counter:
                engine.process(item)
    return engine


def _run_broker(rows, specs, counter=None, copies: int = 1) -> DisseminationService:
    async def run() -> DisseminationService:
        service = DisseminationService(ServiceConfig())
        service.add_source("src")
        sessions = [
            await service.subscribe(
                f"app{i}.{copy}" if copy else f"app{i}",
                "src",
                spec,
                queue_capacity=1 << 20,
            )
            for i, spec in enumerate(specs)
            for copy in range(copies)
        ]
        for item in _fresh(rows):
            if counter is None:
                await service.offer("src", item)
            else:
                with counter:
                    await service.offer("src", item)
            for session in sessions:
                session.queue.drain_nowait()
        return service

    return asyncio.run(run())


def _run_gateway(rows, specs, counter=None) -> DisseminationService:
    """Feed the prefix through a loopback gateway; counts the server
    thread's opcodes between the first frame and the last ack."""
    started = threading.Event()
    server: dict = {}

    def serve() -> None:
        async def main() -> None:
            service = DisseminationService(ServiceConfig())
            service.add_source("src")
            gateway = GatewayServer(service)
            await gateway.start()
            stop = asyncio.Event()
            server.update(
                port=gateway.port,
                loop=asyncio.get_running_loop(),
                stop=stop,
                service=service,
            )
            started.set()
            await stop.wait()
            await gateway.shutdown()

        if counter is not None:
            sys.settrace(counter._call)  # this thread only
        try:
            asyncio.run(main())
        finally:
            sys.settrace(None)

    async def drive() -> None:
        client = await GatewayClient.connect("127.0.0.1", server["port"])
        subscriptions = [
            await client.subscribe(
                f"app{i}.{copy}", "src", spec, queue_capacity=1 << 20
            )
            for i, spec in enumerate(specs)
            for copy in range(_FANOUT_COPIES)
        ]

        async def consume(subscription) -> None:
            async for _ in subscription.batches():
                pass

        consumers = [asyncio.ensure_future(consume(s)) for s in subscriptions]
        items = list(_fresh(rows))
        # The server idles in select() between requests, so the window
        # opens and closes while it runs no Python.
        if counter is not None:
            counter.enabled = True
        for first in range(0, len(items), _FANOUT_FRAME):
            await client.ingest_many("src", items[first : first + _FANOUT_FRAME])
        if counter is not None:
            counter.enabled = False
        await client.close()
        await asyncio.gather(*consumers)

    if counter is not None:
        counter.enabled = False
    thread = threading.Thread(target=serve, name="gateway")
    thread.start()
    started.wait()
    try:
        asyncio.run(drive())
    finally:
        server["loop"].call_soon_threadsafe(server["stop"].set)
        thread.join()
    return server["service"]


def _run(layer: str, rows, specs, counter=None):
    if layer == "gateway_fanout":
        return _run_gateway(rows, specs, counter)
    if layer == "broker_offer":
        return _run_broker(rows, specs, counter)
    if layer == "broker_offer_shared":
        return _run_broker(rows, specs, counter, copies=2)
    return _run_engine(rows, specs, layer == "engine_record", counter)


def count_opcodes(layer: str, tuples: int = 3000, seed: int = 7) -> int:
    """Opcodes ``layer`` executes over the prefix (all tuples together)."""
    counter = OpcodeCounter()
    _run(layer, *_prefix(tuples, seed), counter)
    return counter.count


def _measure(layer: str, rows, specs) -> Reading:
    counter = OpcodeCounter()
    _run(layer, rows, specs, counter)
    gc.collect()
    tracemalloc.start()
    blocks, traced = sys.getallocatedblocks(), tracemalloc.get_traced_memory()[0]
    kept = _run(layer, rows, specs)  # alive through the reading: what it holds is the point
    gc.collect()
    grown_blocks = sys.getallocatedblocks() - blocks
    grown_bytes = tracemalloc.get_traced_memory()[0] - traced
    tracemalloc.stop()
    del kept
    return Reading(layer, len(rows), counter.count, grown_blocks, grown_bytes)


def readings(tuples: int = 3000, seed: int = 7, layers=LAYERS) -> list[Reading]:
    rows, specs = _prefix(tuples, seed)
    return [_measure(layer, rows, specs) for layer in layers]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tuples", type=int, default=3000)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    print(
        f"# {args.tuples} tuples, seed {args.seed}, 2 DC specs, region; "
        f"CPython {sys.version.split()[0]}"
    )
    print(f"{'layer':<21}{'opcodes/tuple':>15}{'blocks/tuple':>14}{'bytes/tuple':>13}")
    for r in readings(args.tuples, args.seed):
        print(
            f"{r.layer:<21}{r.per_tuple(r.opcodes):>15.1f}"
            f"{r.per_tuple(r.blocks):>14.2f}{r.per_tuple(r.bytes):>13.1f}"
        )
    print(
        "# opcodes count interpreted bytecode only: time inside C calls "
        "(marshal.dumps, dict/set operations, sorted) is not seen"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
