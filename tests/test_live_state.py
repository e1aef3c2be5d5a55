"""What a live source keeps: epochs only on request, its open state as
a checkpoint it can ship, a bounded arrival map.

Everything here runs an in-process :class:`DisseminationService`: no
sockets, no subprocess, no sleeps.  The new paths have no runtime "off"
switch, so each is checked against an oracle that is independent of it —
the recording engines' own logs, the tuples the test offered, a count.
"""

from __future__ import annotations

import asyncio
import marshal
from dataclasses import replace
from fractions import Fraction

import pytest

from repro.core.cuts import RuntimePredictor
from repro.core.engine import GroupAwareEngine
from repro.core.tuples import StreamTuple
from repro.obs.telemetry import Telemetry
from repro.runtime.tasks import EngineConfig
from repro.service.broker import DisseminationService, ServiceConfig
import repro.service.broker as broker_module
from repro.sources import random_walk_trace

#: app2 shares app0's first stage until app0 re-filters.
SPECS = [
    ("app0", "DC1(temp, 2.0, 1.0)"),
    ("app1", "DC1(temp, 3.0, 1.5)"),
    ("app2", "DC1(temp, 2.0, 1.0)"),
]


@pytest.fixture
def clockless(monkeypatch):
    """Keep the measured greedy run time out of the timely-cut test, so
    two runs of one script cut at the same tuples."""
    monkeypatch.setattr(RuntimePredictor, "observe", lambda self, size, ms: None)


def _drained(sessions) -> dict[str, list[int]]:
    return {
        app: [item.seq for batch in s.queue.drain_nowait() for item in batch.items]
        for app, s in sessions.items()
    }


async def _churned_run(record_epochs, constraint_ms):
    """A seeded run with a re_filter, a subscribe and an unsubscribe
    mid-stream and a tick every seventh tuple."""
    trace = random_walk_trace(n=500, seed=31, attribute="temp")
    service = DisseminationService(
        ServiceConfig(
            engine=EngineConfig(algorithm="region", constraint_ms=constraint_ms),
            batch_max_items=1,
            record_epochs=record_epochs,
        )
    )
    service.add_source("src")
    sessions = {}

    async def attach(app, spec):
        sessions[app] = await service.subscribe(app, "src", spec, queue_capacity=10_000)

    for app, spec in SPECS:
        await attach(app, spec)
    for index, item in enumerate(trace):
        if index == 150:
            await service.re_filter("app0", "DC1(temp, 0.8, 0.4)")
        if index == 260:
            await attach("late", "DC1(temp, 1.2, 0.6)")
        if index == 390:
            await service.unsubscribe("app1")
        await service.offer("src", item)
        if index % 7 == 0:
            await service.tick(item.timestamp + 5.0)
    epochs = (await service.close())["src"]
    return _drained(sessions), service.snapshot(), epochs, service.results("src")


class TestEpochRecordingIsOptional:
    @pytest.mark.parametrize("constraint_ms", [None, 40.0])
    def test_streams_and_snapshot_do_not_depend_on_it(
        self, clockless, constraint_ms
    ):
        on_streams, on_snapshot, epochs, _ = asyncio.run(
            _churned_run(True, constraint_ms)
        )
        off_streams, off_snapshot, no_epochs, no_results = asyncio.run(
            _churned_run(False, constraint_ms)
        )
        assert no_epochs == [] and no_results == []
        assert off_streams == on_streams
        wall_clock = {"decide_p50_ms": 0.0, "decide_p99_ms": 0.0}
        assert replace(off_snapshot, **wall_clock) == replace(on_snapshot, **wall_clock)
        assert on_snapshot.decided_emissions > 100
        assert (on_snapshot.cuts_triggered > 0) == (constraint_ms is not None)
        # Every emission an engine logged — each cutover's tail among
        # them — reached its recipients exactly once: a session's
        # stream is its share of the logs, in order, nothing twice.
        assert len(epochs) >= 4
        for app, stream in on_streams.items():
            assert stream == [
                e.item.seq
                for epoch in epochs
                for e in epoch.emissions
                if app in e.recipients
            ]
            assert len(stream) > 10

    @pytest.mark.parametrize("unportable", [False, True], ids=["portable", "unportable"])
    def test_cuts_triggered_survives_export_source(self, unportable):
        """An exported source takes its engine with it — as a checkpoint,
        or by a cutover when its open state holds a value ``marshal``
        refuses; the cuts it fired stay counted either way."""
        trace = list(random_walk_trace(n=300, seed=11, attribute="temp"))
        if unportable:
            last = trace[-1]
            trace[-1] = StreamTuple(
                last.seq, last.timestamp, {"temp": Fraction(last.value("temp"))}
            )

        async def run():
            service = DisseminationService(
                ServiceConfig(engine=EngineConfig(algorithm="region", constraint_ms=30.0))
            )
            service.add_source("src")
            # The reservoir keeps every offer in its open window.
            for app, spec in SPECS + [("keep", "RS(2, 1000)")]:
                await service.subscribe(app, "src", spec, queue_capacity=10_000)
            for item in trace:
                await service.offer("src", item)
            before = service.snapshot().cuts_triggered
            state = await service.export_source("src")
            after = service.snapshot().cuts_triggered
            await service.close()
            return before, after, state

        before, after, state = asyncio.run(run())
        assert (state["checkpoint"][-1] == []) == unportable
        assert after == before > 0


async def _broker(specs=SPECS, telemetry=None):
    service = DisseminationService(ServiceConfig(), telemetry=telemetry)
    service.add_source("src")
    sessions = {
        app: await service.subscribe(app, "src", spec, queue_capacity=10_000)
        for app, spec in specs
    }
    return service, sessions


class TestCheckpointTransfer:
    def test_export_import_export_is_a_fixed_point(self):
        """Ticks, ``int`` and ``float`` values and several attributes:
        what a source exports, an importer restores and exports again
        unchanged — no engine step in between, and the streams carry on
        as if nothing moved."""
        items = [
            StreamTuple(seq, seq * 10.0, {"temp": seq * 0.75 % 7, "hum": 40 + seq % 3, "n": seq})
            for seq in range(240)
        ]

        async def run():
            first, before = await _broker()
            for item in items[:120]:
                await first.offer("src", item)
                if item.seq % 5 == 0:
                    await first.tick(item.timestamp + 2.5)
            exported = await first.export_source("src")
            second, after = await _broker()
            restored = await second.import_source("src", exported)
            again = await second.snapshot_source("src")
            for item in items[120:]:
                await second.offer("src", item)
            await first.close()
            await second.close()
            streams = _drained(before)
            for app, tail in _drained(after).items():
                streams[app] += tail
            return exported, restored, again, streams

        async def unmoved():
            service, sessions = await _broker()
            for item in items:
                await service.offer("src", item)
                if item.seq < 120 and item.seq % 5 == 0:
                    await service.tick(item.timestamp + 2.5)
            await service.close()
            return _drained(sessions)

        exported, restored, again, streams = asyncio.run(run())
        assert exported["checkpoint"] == again["checkpoint"]
        assert restored == len(exported["checkpoint"][-1]) > 0
        assert (exported["fed"], exported["offered"]) == (again["fed"], again["offered"])
        # What the exporter shipped, then what the importer did: the
        # unmoved run's streams, nothing lost and nothing twice.
        assert streams == asyncio.run(unmoved())
        assert all(len(stream) > 10 for stream in streams.values())

    def test_import_runs_no_engine_step(self, monkeypatch):
        steps = []
        for name in ("process", "tick", "drain"):
            step = getattr(GroupAwareEngine, name)
            monkeypatch.setattr(
                GroupAwareEngine,
                name,
                lambda self, *a, _step=step, _name=name, **k: (
                    steps.append(_name) or _step(self, *a, **k)
                ),
            )

        async def run():
            first, _ = await _broker()
            for item in random_walk_trace(n=200, seed=5, attribute="temp"):
                await first.offer("src", item)
            exported = await first.export_source("src")
            second, _ = await _broker()
            steps.clear()
            restored = await second.import_source("src", exported)
            return restored

        assert asyncio.run(run()) > 0
        assert steps == []

    def test_an_unportable_value_costs_one_counted_cutover_not_the_offer(self):
        """A value ``marshal`` refuses in the open state: the snapshot
        cuts the engine over (counted once, with its reason) and ships
        the fresh epoch, and the source keeps serving — its streams are
        those of a plain run that re-filtered at the same point."""
        plain = list(random_walk_trace(n=300, seed=5, attribute="temp"))
        at = 150
        odd = [
            StreamTuple(t.seq, t.timestamp, {"temp": Fraction(t.value("temp"))})
            if t.seq == at - 1
            else t
            for t in plain
        ]
        spec = "RS(2, 1000)"  # every offer stays in the open window

        async def run(items, unportable):
            telemetry = Telemetry(sample_period=0)
            service, sessions = await _broker([("app0", spec)], telemetry)
            state = None
            for item in items:
                if item.seq == at:
                    if unportable:
                        state = await service.snapshot_source("src")
                    else:
                        await service.re_filter("app0", spec)
                await service.offer("src", item)
            exposition = telemetry.registry.render()
            await service.close()
            events = [e for e in telemetry.events.since() if e["kind"] == "checkpoint_cutover"]
            return _drained(sessions)["app0"], state, exposition, events

        want, _, clean, no_events = asyncio.run(run(plain, False))
        got, state, exposition, events = asyncio.run(run(odd, True))
        assert got == want and len(got) > 2
        assert not no_events and "repro_broker_checkpoint_cutover_total{" not in clean
        assert state["checkpoint"] is not None and state["checkpoint"][-1] == []
        assert state["fed"] == 0 and state["offered"] == at
        assert [(e["source"], e["reason"]) for e in events] == [("src", "unportable")]
        assert 'repro_broker_checkpoint_cutover_total{reason="unportable"} 1' in exposition

    def test_open_state_bytes_gauge_reads_what_the_sources_hold(self):
        telemetry = Telemetry(sample_period=0)

        async def run():
            service, _ = await _broker(telemetry=telemetry)
            held = []
            for item in random_walk_trace(n=200, seed=5, attribute="temp"):
                await service.offer("src", item)
                held.append(service.open_state_bytes())
            engine = service._sources["src"].engine
            packed = len(marshal.dumps(engine.checkpoint()))
            exposition = telemetry.registry.render()
            await service.close()
            return held, packed, exposition

        held, packed, exposition = asyncio.run(run())
        assert held[-1] == packed > 0
        assert f"repro_broker_open_state_bytes {packed}" in exposition
        # Open state, not history: it rises and falls with the open sets.
        assert max(held) < 4 * min(held[20:])


class TestArrivalMapIsBounded:
    def test_three_caps_of_offers(self):
        """The map never exceeds its cap, is rebuilt once per half cap
        of offers (counted, not timed), and every emission — decided a
        few offers after its arrival, far inside the window a rebuild
        keeps — still finds its arrival stamp."""
        cap = broker_module._ARRIVAL_TRACK_MAX
        offers = 3 * cap

        async def run():
            service = DisseminationService(ServiceConfig(decide_window=offers))
            service.add_source("src")
            session = await service.subscribe("app0", "src", "DC1(v, 1.5, 0.75)")
            src = service._sources["src"]
            maps, largest, value = [src.arrivals_ns], 0, 0.0
            for seq in range(offers):
                value += 1.0 if seq % 3 else -1.7
                await service.offer("src", StreamTuple.trusted(seq, seq * 10.0, {"v": value}))
                session.queue.drain_nowait()
                largest = max(largest, len(src.arrivals_ns))
                if src.arrivals_ns is not maps[-1]:
                    maps.append(src.arrivals_ns)
            samples = len(service.decide_window())
            decided = service.snapshot().decided_emissions
            await service.close()
            return largest, len(maps) - 1, samples, decided

        largest, rebuilds, samples, decided = asyncio.run(run())
        assert largest == cap
        assert 0 < rebuilds <= offers // (cap // 2)
        assert samples == decided > offers // 10
