"""Remediation loop: proposers, verifier, risk gating, scheduling."""

import asyncio

import pytest

from repro.obs.events import EventLog
from repro.obs.slo import Verdict
from repro.service.remediate import (
    Action,
    RemediationLoop,
    RemediationPolicy,
    propose_heal,
    propose_rebalance,
    propose_scale,
    propose_shed,
)


def _edge(name, status="critical", previous="ok"):
    return (Verdict(name=name, status=status, signal="x"), previous)


def _worker(index, *, alive=True, ready=True, failed=False, sources=(), apps=()):
    return {
        "index": index,
        "alive": alive,
        "ready": ready,
        "failed": failed,
        "respawns": 0,
        "backoff_s": 0.0,
        "sources": list(sources),
        "apps": list(apps),
    }


class FakeCluster:
    """Control-plane double recording every actuation."""

    def __init__(self, fleet):
        self.fleet = fleet
        self.calls = []
        self.defer_death_handling = False

    def fleet_status(self):
        return self.fleet

    async def heal_worker(self, index):
        self.calls.append(("heal", index))
        # Healing makes the slot healthy for post-verification.
        for worker in self.fleet["workers"]:
            if worker["index"] == index:
                worker["alive"] = worker["ready"] = True
        return "respawned"

    async def migrate_source(self, source, to):
        self.calls.append(("migrate", source, to))
        self.fleet["sources"][source] = to
        return {"moved": True, "exact": True}

    async def add_worker(self):
        self.calls.append(("add",))
        return 9

    async def remove_worker(self):
        self.calls.append(("remove",))
        return 9

    async def unsubscribe(self, app):
        self.calls.append(("shed", app))
        for worker in self.fleet["workers"]:
            if app in worker["apps"]:
                worker["apps"].remove(app)


def _dead_worker_fleet():
    return {
        "workers": [
            _worker(0, alive=False, ready=False, sources=["s0"], apps=["a"]),
            _worker(1, sources=["s1"]),
        ],
        "sources": {"s0": 0, "s1": 1},
    }


# ---------------------------------------------------------------------------
# Proposers
# ---------------------------------------------------------------------------
def test_heal_proposes_one_respawn_per_dead_primary():
    actions = propose_heal(
        [_edge("worker_dead")], _dead_worker_fleet(), RemediationPolicy()
    )
    assert [(a.kind, a.target) for a in actions] == [("respawn", {"worker": 0})]
    # One slot of two: a failed respawn disturbs half the fleet.
    assert actions[0].blast_radius == 0.5


def test_heal_ignores_healthy_and_lost_slots():
    fleet = {
        "workers": [
            _worker(0),
            _worker(1, alive=False, ready=False, failed=True),
        ],
        "sources": {},
    }
    assert propose_heal([_edge("worker_dead")], fleet, RemediationPolicy()) == []


def test_rebalance_targets_lopsided_placement_only():
    policy = RemediationPolicy()
    even = {
        "workers": [_worker(0, sources=["a"]), _worker(1, sources=["b"])],
        "sources": {"a": 0, "b": 1},
    }
    assert propose_rebalance([_edge("queue_depth_anomaly", "warn")], even, policy) == []
    skewed = {
        "workers": [
            _worker(0, sources=["a", "b", "c"]),
            _worker(1, sources=[]),
        ],
        "sources": {"a": 0, "b": 0, "c": 0},
    }
    actions = propose_rebalance(
        [_edge("queue_depth_anomaly", "warn")], skewed, policy
    )
    assert [a.kind for a in actions] == ["migrate_source"]
    assert actions[0].target["to"] == 1


def test_scale_is_opt_in_and_respects_the_cap():
    fleet = {
        "workers": [_worker(0), _worker(1)],
        "sources": {},
    }
    edges = [_edge("slo_decide_p99")]
    assert propose_scale(edges, fleet, RemediationPolicy()) == []
    permissive = RemediationPolicy(allow_scale=True, max_workers=2)
    assert propose_scale(edges, fleet, permissive) == []
    roomy = RemediationPolicy(allow_scale=True, max_workers=4)
    actions = propose_scale(edges, fleet, roomy)
    assert [a.kind for a in actions] == ["add_worker"]


def test_shed_is_opt_in():
    fleet = {
        "workers": [_worker(0, apps=["laggard", "ok"])],
        "sources": {},
    }
    edges = [_edge("overflow_drops")]
    assert propose_shed(edges, fleet, RemediationPolicy()) == []
    actions = propose_shed(
        edges, fleet, RemediationPolicy(allow_shed=True)
    )
    assert [a.kind for a in actions] == ["shed_load"]


# ---------------------------------------------------------------------------
# Risk model
# ---------------------------------------------------------------------------
def test_risk_is_blast_radius_weighted_by_doubt():
    sure = Action("x", {}, "r", blast_radius=0.5, confidence=1.0)
    risky = Action("x", {}, "r", blast_radius=0.5, confidence=0.0)
    assert sure.risk == 0.0
    assert risky.risk == 0.5
    assert Action("x", {}, "r", blast_radius=0.0, confidence=0.0).risk == 0.0


def test_policy_validation():
    with pytest.raises(ValueError):
        RemediationPolicy(max_risk=1.5)
    with pytest.raises(ValueError):
        RemediationPolicy(actions_per_window=0)
    with pytest.raises(ValueError):
        RemediationPolicy(window_s=0)


# ---------------------------------------------------------------------------
# The loop end-to-end (fake cluster, real pipeline)
# ---------------------------------------------------------------------------
def _loop(cluster, policy=None, events=None, clock=None):
    kwargs = {"policy": policy or RemediationPolicy(), "events": events}
    if clock is not None:
        kwargs["clock"] = clock
    return RemediationLoop(cluster, None, **kwargs)


def _kinds(events):
    return [record["kind"] for record in events.since(0)]


def test_incident_runs_full_chain_and_respawns():
    async def run():
        events = EventLog()
        cluster = FakeCluster(_dead_worker_fleet())
        loop = _loop(cluster, events=events)
        loop.attach()
        assert cluster.defer_death_handling is True
        loop.submit([_edge("worker_dead")])
        await asyncio.sleep(0.05)
        await loop.close()
        assert cluster.defer_death_handling is False
        return cluster.calls, _kinds(events), loop

    calls, kinds, loop = asyncio.run(run())
    # Exactly one actuation ran.
    assert calls == [("heal", 0)]
    assert "remediation_proposed" in kinds
    assert "remediation_scheduled" in kinds
    assert "remediation_executed" in kinds
    assert loop.executed == 1 and loop.failed == 0


def test_risk_gate_blocks_wide_blast_low_confidence_actions():
    async def run():
        events = EventLog()
        cluster = FakeCluster(_dead_worker_fleet())
        # A policy so strict even a 1/2-fleet respawn exceeds it.
        loop = _loop(
            cluster, policy=RemediationPolicy(max_risk=0.05), events=events
        )
        loop.attach()
        loop.submit([_edge("worker_dead")])
        await asyncio.sleep(0.05)
        await loop.close()
        return cluster.calls, events.since(0)

    calls, records = asyncio.run(run())
    assert calls == []  # nothing actuated
    skipped = [r for r in records if r["kind"] == "remediation_skipped"]
    assert skipped and skipped[0]["why"] == "risk_gated"


def test_cooldown_and_budget_bound_actuation_frequency():
    async def run():
        now = {"t": 0.0}
        events = EventLog()
        cluster = FakeCluster(_dead_worker_fleet())
        policy = RemediationPolicy(
            cooldown_s=100.0, actions_per_window=2, window_s=1000.0
        )
        loop = _loop(cluster, policy=policy, events=events, clock=lambda: now["t"])
        loop.attach()

        def kill():
            for worker in cluster.fleet["workers"]:
                if worker["index"] == 0:
                    worker["alive"] = worker["ready"] = False

        loop.submit([_edge("worker_dead")])
        await asyncio.sleep(0.05)
        # Same slot dies again inside the cooldown: the identical action
        # is proposed but skipped; nothing else qualifies.
        kill()
        loop.submit([_edge("worker_dead")])
        await asyncio.sleep(0.05)
        # Past the cooldown the heal runs again...
        now["t"] = 200.0
        kill()
        loop.submit([_edge("worker_dead")])
        await asyncio.sleep(0.05)
        # ...but the window budget (2 actions) is now spent.
        now["t"] = 400.0
        kill()
        loop.submit([_edge("worker_dead")])
        await asyncio.sleep(0.05)
        await loop.close()
        return cluster.calls, events.since(0)

    calls, records = asyncio.run(run())
    assert calls == [("heal", 0), ("heal", 0)]
    reasons = [
        r["why"] for r in records if r["kind"] == "remediation_skipped"
    ]
    assert "cooldown" in reasons and "budget_exhausted" in reasons


def test_preconditions_catch_stale_proposals():
    async def run():
        events = EventLog()
        # The verdict edge races the slot healing on its own: by the
        # time the loop looks, the worker is healthy again.
        cluster = FakeCluster(
            {
                "workers": [_worker(0), _worker(1)],
                        "sources": {},
            }
        )
        loop = _loop(cluster, events=events)
        loop.attach()
        loop.submit(
            [
                (
                    Verdict(name="worker_dead", status="critical", signal="x"),
                    "ok",
                )
            ]
        )
        await asyncio.sleep(0.05)
        await loop.close()
        return cluster.calls

    assert asyncio.run(run()) == []


def test_post_verification_flags_unachieved_goals():
    async def run():
        events = EventLog()

        class StubbornCluster(FakeCluster):
            async def heal_worker(self, index):
                self.calls.append(("heal", index))
                return "respawned"  # claims success, changes nothing

        cluster = StubbornCluster(_dead_worker_fleet())
        loop = _loop(cluster, events=events)
        loop.attach()
        loop.submit([_edge("worker_dead")])
        await asyncio.sleep(0.05)
        await loop.close()
        return _kinds(events), loop

    kinds, loop = asyncio.run(run())
    assert "remediation_unverified" in kinds
    assert loop.failed == 1


def test_loop_survives_actuator_exceptions():
    async def run():
        events = EventLog()

        class BrokenCluster(FakeCluster):
            async def heal_worker(self, index):
                raise RuntimeError("boom")

        cluster = BrokenCluster(_dead_worker_fleet())
        loop = _loop(cluster, events=events)
        loop.attach()
        loop.submit([_edge("worker_dead")])
        await asyncio.sleep(0.05)
        # The loop is still alive and handles the next incident.
        cluster.fleet["workers"][0]["alive"] = False
        assert not loop._task.done()
        await loop.close()
        return _kinds(events), loop

    kinds, loop = asyncio.run(run())
    assert "remediation_failed" in kinds
    assert loop.failed == 1
