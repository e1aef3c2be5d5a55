"""Property tests for subscription churn on the live broker.

The contract under test: however a subscription set was arrived at —
any interleaving of subscribe / unsubscribe / re-filter events — the
service's decided outputs over a subsequently fed trace equal those of
a fresh batch engine built directly from the final subscription set.
"""

from __future__ import annotations

import asyncio

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import GroupAwareEngine
from repro.filters.spec import parse_filter
from repro.runtime.tasks import EngineConfig
from repro.service.broker import DisseminationService, ServiceConfig
from repro.service.loadgen import decided_map
from repro.sources import random_walk_trace

APPS = ("a", "b", "c", "d")
SPEC_CHOICES = (
    "DC1(temp, 1.5, 0.75)",
    "DC1(temp, 2.5, 1.25)",
    "DC1(temp, 4.0, 2.0)",
    "DC2(temp, 0.8, 0.4)",
)

#: One churn event: (app index, spec index or None for unsubscribe).
events = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=len(APPS) - 1),
        st.one_of(
            st.none(), st.integers(min_value=0, max_value=len(SPEC_CHOICES) - 1)
        ),
    ),
    min_size=1,
    max_size=12,
)


async def _apply_churn(service, ops) -> dict[str, str]:
    """Drive subscribe/re-filter/unsubscribe from the raw event list."""
    live: dict[str, str] = {}
    for app_index, spec_index in ops:
        app = APPS[app_index]
        if spec_index is None:
            if app in live:
                await service.unsubscribe(app)
                del live[app]
        else:
            spec = SPEC_CHOICES[spec_index]
            if app in live:
                await service.re_filter(app, spec)
            else:
                await service.subscribe(app, "src", spec, queue_capacity=10_000)
            live[app] = spec
    return live


@settings(max_examples=25, deadline=None)
@given(ops=events, algorithm=st.sampled_from(["region", "per_candidate_set"]))
def test_churn_interleaving_equals_fresh_engine(ops, algorithm):
    trace = random_walk_trace(n=120, seed=42, attribute="temp")

    async def run():
        service = DisseminationService(
            ServiceConfig(
                engine=EngineConfig(algorithm=algorithm),
                batch_max_items=1,
                record_epochs=True,
            )
        )
        service.add_source("src")
        final = await _apply_churn(service, ops)
        await service.feed("src", trace)
        epochs = (await service.close())["src"]
        return service.subscriptions("src"), final, epochs

    subscriptions, final, epochs = asyncio.run(run())
    assert dict(subscriptions) == final

    if not final:
        assert epochs == []
        return
    assert len(epochs) == 1  # churn before the feed → one engine epoch
    filters = [parse_filter(spec, name=app) for app, spec in subscriptions]
    reference = GroupAwareEngine(filters, algorithm=algorithm).run(trace)
    assert decided_map(epochs[0]) == decided_map(reference)


@settings(max_examples=10, deadline=None)
@given(
    ops=events,
    cut_at=st.integers(min_value=1, max_value=99),
)
def test_churn_mid_stream_keeps_serving(ops, cut_at):
    """Churn between tuples never wedges the broker or loses sessions."""
    trace = random_walk_trace(n=100, seed=7, attribute="temp")

    async def run():
        service = DisseminationService(
            ServiceConfig(engine=EngineConfig(algorithm="region"), batch_max_items=1)
        )
        service.add_source("src")
        await service.subscribe(
            "seed-app", "src", "DC1(temp, 2.0, 1.0)", queue_capacity=10_000
        )
        for item in trace[:cut_at]:
            await service.offer("src", item)
        final = await _apply_churn(service, ops)
        for item in trace[cut_at:]:
            await service.offer("src", item)
        snapshot = service.snapshot()
        await service.close()
        return final, snapshot

    final, snapshot = asyncio.run(run())
    expected_apps = set(final) | {"seed-app"}
    assert {s.app_name for s in snapshot.sessions} == expected_apps
    assert snapshot.offered == 100
