"""Link queues: a gateway connection's subscribers share one queue.

Over one real ``GatewayServer`` connection, each group batch is queued
once for every app of the connection it is for, and leaves as one
``decided`` frame naming them all.  The oracle is the same script run in
process, where every session reads a queue of its own.  Through
subscribe orders with duplicate specs, per-app queue bounds, overflow
policies and batch bounds mixed on the one connection, an unsubscribe
and re-subscribe of one member mid-stream, a re-filter that moves a
member between sharing classes and an export -> import of the source:

* every app's delivered stream, and each of its sessions'
  ``shipped_tuples`` / ``dropped_tuples``, equal the reference's;
* each app's ``closed`` frame follows its last batch;
* the ``decided`` frames on the wire are the reference's group batches
  (one connection), not one per member.

Both sides are driven in lockstep, one ingest frame at a time: after
each, the reference's consumers take everything queued, and the wire
side waits until its client holds as many tuples per app.  So each
frame's batches meet queues the consumer has emptied, on both sides,
and the ``drop_oldest`` evictions a frame's burst forces happen alike.
``block`` and ``disconnect`` apps get room for the whole run: a put
that waits lets the consumer run mid-put, which a private queue and a
shared link do not schedule alike (a waiting member's group-mates'
copies go out during the wait on private queues, with the batch on a
shared one); ``tests/test_transport.py`` covers waiting and
disconnecting consumers.
"""

from __future__ import annotations

import asyncio
import re

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.service.broker import DisseminationService
from repro.sources import random_walk_trace
from repro.transport.client import GatewayClient
from repro.transport.server import GatewayServer

#: Two shareable specs and a stateful one (no sharing key).
SPECS = ("DC1(temp, 2.0, 1.0)", "DC1(temp, 3.0, 1.5)", "SDC(temp, 2.5, 1.0)")
TUPLES = 120
#: (overflow, queue_capacity); only ``drop_oldest`` is bounded tightly.
POLICIES = (
    ("block", 1 << 10),
    ("disconnect", 1 << 10),
    ("drop_oldest", 1),
    ("drop_oldest", 2),
    ("drop_oldest", 3),
)
#: How long the wire side may take to catch up with the reference.
_SETTLE_S = 10.0


class _RecordingService(DisseminationService):
    """The broker, remembering every session it builds, in order."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.built = []

    async def subscribe(self, *args, **kwargs):
        session = await super().subscribe(*args, **kwargs)
        self.built.append(session)
        return session


class _RecordingClient(GatewayClient):
    """A client logging the subscribes it sends and the delivery frames
    it reads, in order."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.log: list[tuple[str, tuple[str, ...]]] = []

    async def subscribe(self, app, *args, **kwargs):
        self.log.append(("subscribe", (app,)))
        return await super().subscribe(app, *args, **kwargs)

    async def _on_frame(self, frame):
        if frame.get("t") == "decided":
            self.log.append(("decided", tuple(frame["apps"])))
        elif frame.get("t") == "closed":
            self.log.append(("closed", (frame["app"],)))
        await super()._on_frame(frame)


class _Side:
    """One way of running the script; collects each app's stream."""

    def __init__(self) -> None:
        self.streams: dict[str, list[int]] = {}
        self.consumers: dict[str, asyncio.Task] = {}
        self.changed = asyncio.Event()

    def consume(self, app: str, batches) -> None:
        async def run() -> None:
            async for batch in batches:
                self.taken(batch)
                self.streams[app].extend(item.seq for item in batch.items)
                self.changed.set()

        self.streams.setdefault(app, [])
        self.consumers[app] = asyncio.ensure_future(run())

    def taken(self, batch) -> None:
        pass


class _Reference(_Side):
    """In process: every session reads a queue of its own."""

    def __init__(self) -> None:
        super().__init__()
        self.service = _RecordingService()
        self.service.add_source("src")
        self.sessions = {}
        #: Every batch object handed out: the group batches.
        self.batches: dict[int, object] = {}

    def taken(self, batch) -> None:
        self.batches[id(batch)] = batch

    async def subscribe(self, app, spec, knobs):
        (overflow, capacity), items, delay = knobs
        session = await self.service.subscribe(
            app,
            "src",
            spec,
            queue_capacity=capacity,
            overflow=overflow,
            batch_max_items=items,
            batch_max_delay_ms=delay,
        )
        self.sessions[app] = session
        self.consume(app, session.batches())

    async def ingest(self, items):
        await self.service.offer_many("src", items)

    async def unsubscribe(self, app):
        await self.service.unsubscribe(app)
        await self.consumers[app]

    async def re_filter(self, app, spec):
        await self.service.re_filter(app, spec)

    async def export(self):
        state = await self.service.export_source("src")
        await asyncio.gather(*self.consumers.values())
        self.service.add_source("src")
        return state

    async def import_(self, state):
        await self.service.import_source("src", state)

    async def settle(self):
        for session in self.sessions.values():
            await session.queue.drained()

    async def close(self):
        await self.service.close()
        await asyncio.gather(*self.consumers.values())


class _Wire(_Side):
    """Every app on one client connection to a real gateway."""

    async def start(self):
        self.service = _RecordingService()
        self.service.add_source("src")
        self.server = GatewayServer(self.service)
        await self.server.start()
        self.client = await _RecordingClient.connect("127.0.0.1", self.server.port)
        self.subscriptions = []

    async def subscribe(self, app, spec, knobs):
        (overflow, capacity), items, delay = knobs
        subscription = await self.client.subscribe(
            app,
            "src",
            spec,
            queue_capacity=capacity,
            overflow=overflow,
            batch_max_items=items,
            batch_max_delay_ms=delay,
        )
        self.subscriptions.append(subscription)
        self.consume(app, subscription.batches())

    async def ingest(self, items):
        await self.client.ingest_many("src", items)

    async def unsubscribe(self, app):
        await self.client.unsubscribe(app)
        # The consumer ends with the app's ``closed`` frame.
        await asyncio.wait_for(self.consumers[app], _SETTLE_S)

    async def re_filter(self, app, spec):
        await self.client.re_filter(app, spec)

    async def export(self):
        state = await self.client.export_source("src")
        await asyncio.wait_for(
            asyncio.gather(*self.consumers.values()), _SETTLE_S
        )
        await self.client.ensure_source("src")
        return state

    async def import_(self, state):
        await self.client.import_source("src", state)

    async def settle(self, expected: dict[str, int]):
        async def caught_up():
            while any(len(self.streams[app]) < n for app, n in expected.items()):
                self.changed.clear()
                await self.changed.wait()

        await asyncio.wait_for(caught_up(), _SETTLE_S)

    async def close(self):
        await self.server.shutdown()
        await asyncio.wait_for(
            asyncio.gather(*self.consumers.values()), _SETTLE_S
        )
        await self.client.close()


async def _run(trace, apps, ops, frame):
    reference, wire = _Reference(), _Wire()
    await wire.start()
    sides = (reference, wire)
    knobs: dict[str, tuple] = {}
    specs: dict[str, str] = {}

    async def settle():
        await reference.settle()
        await wire.settle({app: len(s) for app, s in reference.streams.items()})

    async def subscribe(app, spec):
        specs[app] = spec
        for side in sides:
            await side.subscribe(app, spec, knobs[app])

    for index, (spec, policy, items, delay) in enumerate(apps):
        knobs[f"a{index}"] = (POLICIES[policy], items, delay)
        await subscribe(f"a{index}", SPECS[spec])
    chunks = [trace[at : at + frame] for at in range(0, len(trace), frame)]
    for index, chunk in enumerate(chunks):
        for at, kind, pick, spec in ops:
            if at % len(chunks) != index:
                continue
            app = sorted(specs)[pick % len(specs)]
            if kind == "resubscribe":
                for side in sides:
                    await side.unsubscribe(app)
                await subscribe(app, specs[app])
            elif kind == "re_filter":
                specs[app] = SPECS[spec]
                for side in sides:
                    await side.re_filter(app, SPECS[spec])
            else:
                moved = [await side.export() for side in sides]
                for moved_app, moved_spec in moved[0]["subscriptions"]:
                    await subscribe(moved_app, moved_spec)
                for side, state in zip(sides, moved):
                    await side.import_(state)
            await settle()
        for side in sides:
            await side.ingest(chunk)
        await settle()
    for side in sides:
        await side.close()
    return reference, wire


def _counters(service):
    counters: dict[str, list[tuple[int, int]]] = {}
    for session in service.built:
        counters.setdefault(session.app_name, []).append(
            (session.stats.shipped_tuples, session.stats.dropped_tuples)
        )
    return counters


_app = st.tuples(
    st.integers(0, len(SPECS) - 1),
    st.integers(0, len(POLICIES) - 1),
    st.sampled_from((1, 1, 2, 4)),
    st.sampled_from((20.0, 1e9)),
)
_op = st.tuples(
    st.integers(0, TUPLES),
    st.sampled_from(("resubscribe", "re_filter", "migrate")),
    st.integers(0, 7),
    st.integers(0, len(SPECS) - 1),
)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 1 << 16),
    apps=st.lists(_app, min_size=2, max_size=6),
    ops=st.lists(_op, max_size=3),
    frame=st.integers(1, 12),
)
@example(  # one class of four on one connection, every policy, all moved
    seed=5,
    apps=[(0, 0, 1, 1e9), (0, 2, 1, 1e9), (0, 3, 1, 1e9), (0, 1, 1, 1e9)],
    ops=[(3, "resubscribe", 1, 0), (6, "migrate", 0, 0), (8, "re_filter", 2, 1)],
    frame=6,
)
def test_a_connection_multicasts_what_private_queues_deliver(seed, apps, ops, frame):
    trace = list(random_walk_trace(n=TUPLES, seed=seed, attribute="temp"))
    reference, wire = asyncio.run(_run(trace, apps, ops, frame))
    assert wire.streams == reference.streams
    assert _counters(wire.service) == _counters(reference.service)
    log = wire.client.log
    # One frame per group batch on the one connection.
    assert sum(kind == "decided" for kind, _ in log) == len(reference.batches)
    # Per app: each subscription's batches, then its closed frame.
    for app in reference.streams:
        events = "".join(
            kind[0] for kind, names in log if app in names
        )  # s(ubscribe), d(ecided), c(losed)
        assert re.fullmatch(r"(sd*c)+", events), (app, events)
    reasons = {subscription.closed_reason for subscription in wire.subscriptions}
    assert reasons <= {"unsubscribed", "migrated", "shutdown"}, reasons
