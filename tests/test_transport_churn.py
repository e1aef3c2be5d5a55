"""Property tests: subscription churn driven across a real socket.

Mirrors ``tests/test_service_churn.py``, but every subscribe /
unsubscribe / re-filter and every offered tuple crosses the TCP gateway
through a :class:`~repro.transport.client.GatewayClient`.  The contract
is unchanged: whatever interleaving arrived at the final subscription
set, a subsequently fed trace decides exactly as a fresh batch engine
built from that set.
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
from repro.transport.client import GatewayClient
from repro.transport.server import GatewayServer

APPS = ("a", "b", "c")
SPEC_CHOICES = (
    "DC1(temp, 1.5, 0.75)",
    "DC1(temp, 2.5, 1.25)",
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
    max_size=8,
)


async def _apply_churn_over_wire(client, ops) -> dict[str, str]:
    live: dict[str, str] = {}
    for app_index, spec_index in ops:
        app = APPS[app_index]
        if spec_index is None:
            if app in live:
                await client.unsubscribe(app)
                del live[app]
        else:
            spec = SPEC_CHOICES[spec_index]
            if app in live:
                await client.re_filter(app, spec)
            else:
                await client.subscribe(app, "src", spec, queue_capacity=10_000)
            live[app] = spec
    return live


@settings(max_examples=10, deadline=None)
@given(ops=events, algorithm=st.sampled_from(["region", "per_candidate_set"]))
def test_wire_churn_interleaving_equals_fresh_engine(ops, algorithm):
    trace = random_walk_trace(n=80, seed=42, attribute="temp")

    async def run():
        service = DisseminationService(
            ServiceConfig(
                engine=EngineConfig(algorithm=algorithm),
                batch_max_items=1,
                record_epochs=True,
            )
        )
        service.add_source("src")
        gateway = GatewayServer(service)
        await gateway.start()
        client = await GatewayClient.connect("127.0.0.1", gateway.port)
        final = await _apply_churn_over_wire(client, ops)
        for item in trace:
            await client.ingest("src", item)
        subscriptions = service.subscriptions("src")
        epochs = (await service.close())["src"]
        await client.close()
        await gateway.shutdown()
        return subscriptions, final, epochs

    subscriptions, final, epochs = asyncio.run(run())
    assert dict(subscriptions) == final

    if not final:
        assert epochs == []
        return
    assert len(epochs) == 1  # churn before the feed -> one engine epoch
    filters = [parse_filter(spec, name=app) for app, spec in subscriptions]
    reference = GroupAwareEngine(filters, algorithm=algorithm).run(trace)
    assert decided_map(epochs[0]) == decided_map(reference)
