"""What a live source keeps: epochs only on request, a packed journal,
a bounded arrival map.

Everything here runs an in-process :class:`DisseminationService`: no
sockets, no subprocess, no sleeps.  The new paths have no runtime "off"
switch, so each is checked against an oracle that is independent of it —
the recording engines' own logs, the tuples the test offered, a count.
"""

from __future__ import annotations

import asyncio
from dataclasses import replace
from fractions import Fraction

import pytest

from repro.core.cuts import RuntimePredictor
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

    @pytest.mark.parametrize("journal_cap", [100_000, 50])
    def test_cuts_triggered_survives_export_source(self, journal_cap):
        """An exported source takes its engines with it (exactly, or by
        a cutover once the journal is lossy); the cuts they fired stay
        counted."""
        trace = random_walk_trace(n=300, seed=11, attribute="temp")

        async def run():
            service = DisseminationService(
                ServiceConfig(
                    engine=EngineConfig(algorithm="region", constraint_ms=30.0),
                    migration_journal_cap=journal_cap,
                )
            )
            service.add_source("src")
            for app, spec in SPECS:
                await service.subscribe(app, "src", spec, queue_capacity=10_000)
            for item in trace:
                await service.offer("src", item)
            before = service.snapshot().cuts_triggered
            state = await service.export_source("src")
            after = service.snapshot().cuts_triggered
            await service.close()
            return before, after, state["exact"]

        before, after, exact = asyncio.run(run())
        assert exact == (journal_cap > 300)
        assert after == before > 0


def _fields(journal):
    """Journal entries with everything ``StreamTuple.__eq__`` ignores."""
    return [
        (kind, payload)
        if kind == "t"
        else (
            kind,
            payload.seq,
            payload.timestamp,
            [(k, v, type(v)) for k, v in payload.values.items()],
        )
        for kind, payload in journal
    ]


def _journal_run(items, **config):
    """One subscriber fed ``items`` with telemetry on: its stream, the
    journal bytes held after each offer, the final exposition, a source
    snapshot and the ``journal_lossy`` events."""
    telemetry = Telemetry(sample_period=0)

    async def run():
        service = DisseminationService(ServiceConfig(**config), telemetry=telemetry)
        service.add_source("src")
        session = await service.subscribe(
            "app0", "src", "DC1(temp, 2.0, 1.0)", queue_capacity=10_000
        )
        held = []
        for item in items:
            await service.offer("src", item)
            held.append(service.journal_bytes())
        exposition = telemetry.registry.render()
        state = await service.snapshot_source("src")
        await service.close()
        return _drained({"app0": session})["app0"], held, exposition, state

    delivered, held, exposition, state = asyncio.run(run())
    events = [e for e in telemetry.events.since() if e["kind"] == "journal_lossy"]
    return delivered, held, exposition, state, events


class TestPackedJournal:
    def test_export_import_export_is_entry_for_entry(self):
        """Ticks, ``int`` and ``float`` values and several attributes
        come back out of the packed journal as they went in, and again
        after a replay re-packed them."""
        items = [
            StreamTuple(seq, seq * 10.0, {"temp": seq * 0.75, "hum": 40 + seq % 3, "n": seq})
            for seq in range(120)
        ]
        fed: list[tuple] = []

        async def broker():
            service = DisseminationService(ServiceConfig())
            service.add_source("src")
            for app, spec in SPECS[:2]:
                await service.subscribe(app, "src", spec, queue_capacity=10_000)
            return service

        async def run():
            first = await broker()
            for item in items:
                await first.offer("src", item)
                fed.append(("o", item))
                if item.seq % 5 == 0:
                    await first.tick(item.timestamp + 2.5)
                    fed.append(("t", item.timestamp + 2.5))
            exported = await first.export_source("src")
            second = await broker()
            replayed = await second.import_source("src", exported)
            again = await second.export_source("src")
            await first.close()
            await second.close()
            return exported, replayed, again

        exported, replayed, again = asyncio.run(run())
        assert exported["exact"] and again["exact"]
        assert replayed == len(fed) == len(exported["journal"])
        assert _fields(exported["journal"]) == _fields(fed)
        assert _fields(again["journal"]) == _fields(fed)

    def test_a_value_marshal_refuses_costs_exactness_not_the_offer(self):
        plain = list(random_walk_trace(n=200, seed=5, attribute="temp"))
        odd = [
            StreamTuple(t.seq, t.timestamp, {"temp": Fraction(t.value("temp"))})
            if t.seq == 80
            else t
            for t in plain
        ]
        want, _, _, exact_state, no_events = _journal_run(plain)
        delivered, held, exposition, state, events = _journal_run(odd)
        assert exact_state["exact"] and not no_events
        assert delivered == want and len(delivered) > 10
        assert not state["exact"] and state["journal"] == []
        assert held[79] > 0 and set(held[80:]) == {0}
        assert [(e["source"], e["reason"], e["entries"]) for e in events] == [
            ("src", "unportable", 80)
        ]
        assert 'repro_broker_journal_lossy_total{reason="unportable"} 1' in exposition
        assert "repro_broker_journal_bytes 0" in exposition

    def test_past_the_cap_is_counted_once_with_its_reason(self):
        items = list(random_walk_trace(n=200, seed=5, attribute="temp"))
        _, held, exposition, state, events = _journal_run(
            items, migration_journal_cap=64
        )
        assert not state["exact"] and state["journal"] == []
        assert held[63] > 0 and set(held[64:]) == {0}
        assert [(e["source"], e["reason"], e["entries"]) for e in events] == [
            ("src", "cap", 64)
        ]
        assert 'repro_broker_journal_lossy_total{reason="cap"} 1' in exposition

    def test_journal_bytes_gauge_reads_what_the_sources_hold(self):
        items = list(random_walk_trace(n=200, seed=5, attribute="temp"))
        _, held, exposition, _, _ = _journal_run(items)
        assert held == sorted(held) and held[-1] > 0
        assert f"repro_broker_journal_bytes {held[-1]}" in exposition
        # One attribute per tuple: the ceiling the README quotes.
        assert held[-1] / len(items) <= 48


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
