"""Integration tests for server-initiated degradation.

Broker level: the controller drives the re-filter machinery under
overload and a client re-filter detaches it.  Wire level: ``qos_update``
pushes reach the remote subscription, and a server push racing an
in-flight client ``re_filter`` resolves in the client's favor (the
explicit spec choice wins and the automatic policy detaches).
"""

from __future__ import annotations

import asyncio

from repro.core.tuples import StreamTuple
from repro.qos.spec import DegradationPolicy, QualitySpec
from repro.qos.controller import DegradationConfig
from repro.runtime.tasks import EngineConfig
from repro.service.broker import DisseminationService, ServiceConfig
from repro.transport.client import GatewayClient
from repro.transport.server import GatewayServer

LEVELS = (
    "DC1(temp, 0.5, 0.25)",
    "DC1(temp, 4.0, 2.0)",
    "DC1(temp, 16.0, 8.0)",
)


def _policy(app="app0") -> DegradationPolicy:
    return DegradationPolicy(
        app_name=app,
        levels=tuple(QualitySpec(app, spec) for spec in LEVELS),
    )


def _config(**overrides) -> DegradationConfig:
    """Fast cadence for tests: evaluate every millisecond, no cooldown."""
    base = dict(
        interval_s=0.001,
        cooldown_s=0.0,
        healthy_window_s=0.05,
        flush_wait_ms=None,
        drop_rate_per_s=0.0,
    )
    base.update(overrides)
    return DegradationConfig(**base)


def _service(**overrides) -> DisseminationService:
    service = DisseminationService(
        ServiceConfig(
            engine=EngineConfig(algorithm="region"),
            batch_max_items=1,
            **overrides,
        )
    )
    service.add_source("src")
    return service


def _item(seq: int) -> StreamTuple:
    return StreamTuple(
        seq=seq, timestamp=float(seq), values={"temp": float(seq % 7)}
    )


async def _drive(service, *, count=40, start=0, delay=0.002) -> int:
    """Offer ``count`` tuples with enough spacing that the controller's
    1ms evaluation interval elapses between dispatches."""
    for seq in range(start, start + count):
        await service.offer("src", _item(seq))
        await asyncio.sleep(delay)
    return start + count


class TestBrokerDegradation:
    def test_overload_walks_the_ladder_and_notifies(self):
        """queue_high_ratio=0 makes every evaluation stressed: the broker
        must step the session down one level per evaluation to the
        ladder's bottom, announcing each transition to the listener."""

        async def run():
            service = _service()
            session = await service.subscribe(
                "app0",
                "src",
                LEVELS[0],
                queue_capacity=4,
                overflow="drop_oldest",
                degradation=_policy(),
                degradation_config=_config(queue_high_ratio=0.0),
            )
            updates = []
            session.qos_listener = updates.append
            await _drive(service)
            await service.close()
            return session, updates

        session, updates = asyncio.run(run())
        assert session.degradation is not None
        assert session.degradation.level == 2
        assert [u["action"] for u in updates] == ["degrade", "degrade"]
        assert [u["level"] for u in updates] == [1, 2]
        assert [u["spec"] for u in updates] == [LEVELS[1], LEVELS[2]]
        assert updates[0]["signal"] == "queue_depth"

    def test_recovery_probes_back_to_level_zero(self):
        """Once the stress clears, idle ticks drive the AIMD probes all
        the way back to the preferred level."""

        async def run():
            service = _service()
            session = await service.subscribe(
                "app0",
                "src",
                LEVELS[0],
                queue_capacity=4,
                overflow="drop_oldest",
                degradation=_policy(),
                degradation_config=_config(queue_high_ratio=0.5),
            )
            # Overload: nobody drains, a 4-deep queue fills fast.
            next_seq = await _drive(service)
            degraded_to = session.degradation.level
            # Clear the backlog; ticks alone must carry the recovery.
            session.queue.drain_nowait()
            for _ in range(200):
                await service.tick(float(next_seq))
                session.queue.drain_nowait()
                await asyncio.sleep(0.005)
                if session.degradation.level == 0:
                    break
            recovered_level = session.degradation.level
            trajectory = list(session.degradation.trajectory)
            await service.close()
            return degraded_to, recovered_level, trajectory

        degraded_to, recovered_level, trajectory = asyncio.run(run())
        assert degraded_to > 0
        assert recovered_level == 0
        assert ("recover", 0) == trajectory[-1]

    def test_client_re_filter_detaches_controller(self):
        """An explicit spec choice overrides the automatic policy: after
        re_filter the controller is gone and overload stops mutating the
        session's spec."""

        async def run():
            service = _service()
            session = await service.subscribe(
                "app0",
                "src",
                LEVELS[0],
                queue_capacity=4,
                overflow="drop_oldest",
                degradation=_policy(),
                degradation_config=_config(queue_high_ratio=0.0),
            )
            updates = []
            session.qos_listener = updates.append
            next_seq = await _drive(service, count=20)
            assert session.degradation is not None
            await service.re_filter("app0", "DC1(temp, 9.0, 4.5)")
            seen = len(updates)
            await _drive(service, count=20, start=next_seq)
            await service.close()
            return session, updates, seen

        session, updates, seen = asyncio.run(run())
        assert session.degradation is None
        assert len(updates) == seen  # no pushes after the detach
        assert session.spec == "DC1(temp, 9.0, 4.5)"


class TestWireDegradation:
    def test_qos_update_frames_reach_the_subscription(self):
        async def run():
            service = _service()
            gateway = GatewayServer(service)
            await gateway.start()
            client = await GatewayClient.connect("127.0.0.1", gateway.port)
            sub = await client.subscribe(
                "app0",
                "src",
                LEVELS[0],
                degradation=_policy(),
                degradation_config=_config(queue_high_ratio=0.0),
                queue_capacity=4,
                overflow="drop_oldest",
            )
            seen = []
            sub.qos_listener = seen.append

            async def consume():
                async for _ in sub.batches():
                    pass

            consumer = asyncio.ensure_future(consume())
            for seq in range(60):
                await client.ingest("src", _item(seq))
                await asyncio.sleep(0.002)
                if len(sub.qos_updates) >= 2:
                    break
            updates = list(sub.qos_updates)
            level, spec = sub.degradation_level, sub.spec
            await client.close()
            await gateway.shutdown()
            consumer.cancel()
            return updates, seen, level, spec

        updates, seen, level, spec = asyncio.run(run())
        assert [u["action"] for u in updates[:2]] == ["degrade", "degrade"]
        assert level == 2
        assert spec == LEVELS[2]
        assert seen == updates  # callback saw every frame, in order

    def test_server_push_racing_client_re_filter_client_wins(self):
        """A qos_update in flight while the client issues re_filter must
        not clobber the client's explicit spec: the server detaches the
        controller under the source lock before acking, so every push
        frame precedes the re_filter reply on the wire, and the client
        applies its own spec last."""

        async def run():
            service = _service()
            gateway = GatewayServer(service)
            await gateway.start()
            client = await GatewayClient.connect("127.0.0.1", gateway.port)
            sub = await client.subscribe(
                "app0",
                "src",
                LEVELS[0],
                degradation=_policy(),
                degradation_config=_config(queue_high_ratio=0.0),
                queue_capacity=4,
                overflow="drop_oldest",
            )

            async def consume():
                async for _ in sub.batches():
                    pass

            consumer = asyncio.ensure_future(consume())

            stop = asyncio.Event()

            async def pound():
                seq = 0
                while not stop.is_set():
                    await client.ingest("src", _item(seq), ack=False)
                    seq += 1
                    await asyncio.sleep(0.001)
                return seq

            pounder = asyncio.ensure_future(pound())
            # Wait until the server has actually pushed at least one
            # degradation step, so the race is live.
            for _ in range(500):
                if sub.qos_updates:
                    break
                await asyncio.sleep(0.002)
            assert sub.qos_updates, "server never degraded the session"
            await client.re_filter("app0", "DC1(temp, 9.0, 4.5)")
            spec_after_ack = sub.spec
            pushes_at_ack = len(sub.qos_updates)
            # Keep the overload running: no further pushes may arrive.
            await asyncio.sleep(0.1)
            stop.set()
            await pounder
            session = service._src("src").sessions["app0"]
            result = (
                spec_after_ack,
                sub.spec,
                len(sub.qos_updates) - pushes_at_ack,
                session.degradation,
            )
            await client.close()
            await gateway.shutdown()
            consumer.cancel()
            return result

        spec_after_ack, spec_final, late_pushes, controller = asyncio.run(run())
        assert spec_after_ack == "DC1(temp, 9.0, 4.5)"
        assert spec_final == "DC1(temp, 9.0, 4.5)"
        assert late_pushes == 0
        assert controller is None
