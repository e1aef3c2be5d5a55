"""Delivery groups: one batcher per sharing class and batch bounds.

The broker stages a decided tuple once per delivery group and ships the
one flushed batch into every member's queue.  The oracle is a test-only
broker that gives every session a batcher of its own (what the broker
did before sessions shared one): through subscribe orders with duplicate
specs, per-session batch bounds that split one sharing class into two
groups, re-filters that move a member between classes, unsubscribes,
export -> import mid-stream and a close with tuples still staged, every
app's delivered tuple stream must be the reference's, tuple for tuple.
Both share the broker's routing, so each stream must also be what the
emissions the engines released name that app in, read off the log.
"""

from __future__ import annotations

import asyncio

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.obs.telemetry import Telemetry
from repro.service.batching import MicroBatcher
from repro.service.broker import DisseminationService, ServiceConfig, _DeliveryGroup
from repro.sources import random_walk_trace

#: Two shareable specs and a stateful one (no sharing key; under the
#: region algorithm it also ends the sharing of equal specs around it).
SPECS = ("DC1(temp, 2.0, 1.0)", "DC1(temp, 3.0, 1.5)", "SDC(temp, 2.5, 1.0)")
TUPLES = 90


class _PerSessionBatchers(DisseminationService):
    """Reference: every session its own delivery group."""

    def _rebuild(self, src) -> None:
        super()._rebuild(src)
        singles = []
        for group in src.groups:
            for session in group.members:
                single = _DeliveryGroup(
                    MicroBatcher(session.batcher.max_items, session.batcher.max_delay_ms)
                )
                single.members.append(session)
                session.batcher = single.batcher
                singles.append(single)
        src.groups = singles


class _CheckedGroups(DisseminationService):
    """The broker under test, logging every emission it routes and
    asserting what its route memo relies on: every emission names all of
    a delivery group or none of it."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.routed = []

    async def _route(self, src, emissions, now) -> None:
        self.routed.extend(emissions)
        for emission in emissions:
            for group in src.groups:
                names = {session.app_name for session in group.members}
                assert names <= emission.recipients or not names & emission.recipients
        await super()._route(src, emissions, now)


async def _run(broker, trace, apps, ops):
    """Drive one broker through the script; returns every app's delivered
    stream, per final delivery group its members' shipped counts since
    the group formed, and the services in the order they served."""
    services = [broker()]
    knobs: dict[str, tuple[str, int, float]] = {}
    sessions = {}
    streams: dict[str, list[int]] = {}
    marks: dict[str, int] = {}

    def drain(app):
        for batch in sessions[app].queue.drain_nowait():
            streams[app].extend(item.seq for item in batch.items)

    def mark():
        for app in sessions:
            drain(app)
        marks.clear()
        marks.update({app: s.stats.shipped_tuples for app, s in sessions.items()})

    async def attach(app, spec, items, delay):
        knobs[app] = (spec, items, delay)
        sessions[app] = await services[-1].subscribe(
            app,
            "src",
            spec,
            queue_capacity=1 << 20,
            batch_max_items=items,
            batch_max_delay_ms=delay,
        )
        streams.setdefault(app, [])

    services[-1].add_source("src")
    for index, (spec, items, delay) in enumerate(apps):
        await attach(f"a{index}", SPECS[spec], items, delay)
    mark()
    fresh = 0
    for index, item in enumerate(trace):
        for at, kind, pick, (spec, items, delay) in ops:
            if at != index:
                continue
            live = sorted(sessions)
            if kind == "subscribe":
                await attach(f"n{fresh}", SPECS[spec], items, delay)
                fresh += 1
            elif kind == "migrate":
                state = await services[-1].export_source("src")
                for app in live:
                    drain(app)
                services.append(broker())
                services[-1].add_source("src")
                for app, moved_spec in state["subscriptions"]:
                    _, items_, delay_ = knobs[app]
                    await attach(app, moved_spec, items_, delay_)
                await services[-1].import_source("src", state)
            elif live and kind == "re_filter":
                app = live[pick % len(live)]
                await services[-1].re_filter(app, SPECS[spec])
                knobs[app] = (SPECS[spec],) + knobs[app][1:]
            elif live and kind == "unsubscribe":
                app = live[pick % len(live)]
                await services[-1].unsubscribe(app)
                drain(app)
                del sessions[app]
            mark()
        await services[-1].offer("src", item)
    await services[-1].close()
    for app in sessions:
        drain(app)
    shipped = [
        sorted(
            (session.app_name, session.stats.shipped_tuples - marks[session.app_name])
            for session in group.members
        )
        for group in services[-1]._sources["src"].groups
    ]
    return streams, shipped, services


_session = st.tuples(
    st.integers(0, len(SPECS) - 1),
    st.sampled_from((2, 3)),
    st.sampled_from((15.0, 1e9)),
)
_op = st.tuples(
    st.integers(1, TUPLES - 1),
    st.sampled_from(("subscribe", "re_filter", "unsubscribe", "migrate")),
    st.integers(0, 7),
    _session,
)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 1 << 16),
    apps=st.lists(_session, min_size=2, max_size=5),
    ops=st.lists(_op, max_size=4),
)
@example(  # one class of four, split by batch bounds, moved mid-stream
    seed=5,
    apps=[(0, 3, 1e9), (0, 3, 1e9), (0, 2, 1e9), (0, 3, 1e9)],
    ops=[(30, "migrate", 0, (0, 2, 1e9)), (60, "re_filter", 1, (1, 3, 1e9))],
)
def test_delivery_groups_deliver_what_per_session_batchers_do(seed, apps, ops):
    trace = list(random_walk_trace(n=TUPLES, seed=seed, attribute="temp"))
    streams, shipped, services = asyncio.run(_run(_CheckedGroups, trace, apps, ops))
    reference, _, _ = asyncio.run(_run(_PerSessionBatchers, trace, apps, ops))
    assert streams == reference
    routed = [emission for service in services for emission in service.routed]
    assert streams == {
        app: [e.item.seq for e in routed if app in e.recipients] for app in streams
    }
    for members in shipped:
        assert len({count for _, count in members}) == 1, members


def _groups(service):
    return [
        [session.app_name for session in group.members]
        for group in service._sources["src"].groups
    ]


def test_groups_split_by_bounds_and_follow_the_engines_classes():
    async def run():
        service = DisseminationService(ServiceConfig())
        service.add_source("src")
        for app, spec, items in (
            ("a", SPECS[0], 8),
            ("b", SPECS[1], 8),
            ("c", SPECS[0], 8),
            ("d", SPECS[0], 3),
        ):
            await service.subscribe(app, "src", spec, batch_max_items=items)
        split = _groups(service)
        # A stateful filter ends the engine's sharing of equal specs
        # around it, so "e" and "a" are two classes, two groups.
        await service.subscribe("s", "src", SPECS[2])
        await service.subscribe("e", "src", SPECS[0])
        after_stateful = _groups(service)
        await service.close()
        return split, after_stateful

    split, after_stateful = asyncio.run(run())
    assert split == [["a", "c"], ["d"], ["b"]]
    assert after_stateful == [["a", "c"], ["d"], ["b"], ["s"], ["e"]]


def test_close_ships_a_shared_batchers_staged_tuples_to_every_member():
    trace = list(random_walk_trace(n=TUPLES, seed=3, attribute="temp"))

    async def run():
        service = DisseminationService(
            ServiceConfig(batch_max_items=10_000, batch_max_delay_ms=1e9)
        )
        service.add_source("src")
        sessions = [
            await service.subscribe(app, "src", SPECS[0], queue_capacity=4)
            for app in ("x", "y", "z")
        ]
        for item in trace:
            await service.offer("src", item)
        (group,) = service._sources["src"].groups
        staged = group.batcher.pending
        await service.close()
        return staged, sessions

    staged, sessions = asyncio.run(run())
    assert staged > 0
    batches = []
    for session in sessions:
        assert session.batcher.pending == 0
        assert session.stats.staged_tuples == session.stats.shipped_tuples >= staged
        (batch,) = session.queue.drain_nowait()
        assert len(batch) == session.stats.shipped_tuples
        batches.append(batch)
    # One batch object, in every member's queue.
    assert all(batch is batches[0] for batch in batches)


def test_delivery_groups_gauge_reads_beside_sessions():
    telemetry = Telemetry(sample_period=0)
    exposition = []

    async def run():
        service = DisseminationService(ServiceConfig(), telemetry=telemetry)
        service.add_source("src")
        for app, spec in (("a", SPECS[0]), ("b", SPECS[1]), ("c", SPECS[0])):
            await service.subscribe(app, "src", spec)
        exposition.append(telemetry.registry.render())
        await service.close()

    asyncio.run(run())
    assert "repro_broker_sessions 3" in exposition[0]
    assert "repro_broker_delivery_groups 2" in exposition[0]
