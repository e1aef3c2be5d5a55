"""Self-healing actuator: proposer → verifier → risk → scheduler.

The write half of the control loop the Watchtower's read half feeds.
A :class:`RemediationLoop` subscribes to verdict *transitions* (the
edge-triggered ``anomaly_*`` / ``slo_*`` output of
:class:`repro.obs.watch.Watchtower`) and turns them into safe cluster
actions through four strictly separated stages:

1. **Proposers** — pure functions from ``(transitions, fleet status)``
   to candidate :class:`Action` lists.  A proposer only *suggests*:
   promote the armed standby for a dead slot, respawn a dead process,
   live-migrate the hottest source off an overloaded worker, scale the
   tier up or down, shed the laggiest subscriber.
2. **Verifier** — pre-flight invariant checks against the live control
   plane (does the slot exist, is a standby actually armed, is the
   respawn budget spent, is the fleet big enough to shrink) and
   post-flight checks that the action achieved its stated goal (slot
   ready again, source on the target shard).
3. **Risk ranker** — every action carries a blast radius (fraction of
   the fleet its failure would touch) and a confidence (how sure the
   proposer is it addresses the verdict); ``risk = blast_radius ×
   (1 − confidence)`` orders candidates and the policy's ``max_risk``
   gates what may run unattended.
4. **Scheduler** — executes survivors serially, one action per verdict
   edge, under per-target cooldowns and a sliding-window action budget
   so a flapping verdict can never drive an actuation storm.

Every stage decision is emitted as a ``remediation_*`` event, so the
event log carries the full detect → propose → verify → execute chain
for each incident.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

__all__ = [
    "Action",
    "RemediationPolicy",
    "RemediationLoop",
    "default_proposers",
    "propose_heal",
    "propose_rebalance",
    "propose_scale",
    "propose_shed",
]

#: Verdict names that mean "a worker process is gone".
_DEATH_VERDICTS = ("worker_dead", "worker_death_seen")

#: Verdict names that mean "the tier is saturated".
_SATURATION_VERDICTS = ("slo_decide_p99", "backpressure_stall")

#: Verdict names that mean "a consumer is drowning".
_OVERFLOW_VERDICTS = ("overflow_drops", "slo_overflow_drops", "queue_depth_anomaly")


@dataclass(frozen=True)
class Action:
    """One proposed cluster actuation, with its own risk assessment.

    ``kind`` is the actuator verb (``adopt_standby`` / ``respawn`` /
    ``migrate_source`` / ``add_worker`` / ``remove_worker`` /
    ``shed_load``); ``target`` its arguments.  ``blast_radius`` is the
    fraction of the fleet a *failed* execution would disturb and
    ``confidence`` the proposer's belief the action resolves the
    triggering verdict — both in [0, 1].
    """

    kind: str
    target: dict
    reason: str
    blast_radius: float
    confidence: float
    detail: str = ""

    @property
    def risk(self) -> float:
        """Expected damage: blast radius weighted by the chance the
        proposer is wrong (``blast_radius × (1 − confidence)``)."""
        return self.blast_radius * (1.0 - self.confidence)

    def key(self) -> tuple:
        """Cooldown identity: the verb plus its primary target."""
        return (self.kind, tuple(sorted(self.target.items())))

    def to_fields(self) -> dict:
        return {
            "action": self.kind,
            "target": dict(self.target),
            "reason": self.reason,
            "blast_radius": round(self.blast_radius, 4),
            "confidence": round(self.confidence, 4),
            "risk": round(self.risk, 4),
        }


@dataclass
class RemediationPolicy:
    """What the loop may do without a human.

    ``max_risk`` gates scheduling (an action above it is proposed,
    logged and skipped); the sliding ``actions_per_window`` budget
    bounds total actuation frequency; per-target ``cooldown_s`` stops a
    still-burning verdict from re-firing the same fix back-to-back.
    Scaling and load shedding are opt-in: they change capacity or
    disconnect subscribers, which not every deployment wants automated.
    """

    max_risk: float = 0.5
    cooldown_s: float = 15.0
    actions_per_window: int = 6
    window_s: float = 60.0
    allow_scale: bool = False
    allow_shed: bool = False
    max_workers: int = 8

    def __post_init__(self) -> None:
        if not 0.0 <= self.max_risk <= 1.0:
            raise ValueError("max_risk must be in [0, 1]")
        if self.cooldown_s < 0:
            raise ValueError("cooldown_s must be >= 0")
        if self.actions_per_window < 1:
            raise ValueError("actions_per_window must be at least 1")
        if self.window_s <= 0:
            raise ValueError("window_s must be positive")
        if self.max_workers < 1:
            raise ValueError("max_workers must be at least 1")


# ---------------------------------------------------------------------------
# Proposers: (transitions, fleet, policy) -> [Action]
# ---------------------------------------------------------------------------
def _firing(transitions: Sequence[tuple], *names: str) -> list:
    """Verdicts in ``names`` that just transitioned *into* a bad state."""
    return [
        verdict
        for verdict, _previous in transitions
        if verdict.name in names and verdict.status != "ok"
    ]


def propose_heal(transitions, fleet: dict, policy: RemediationPolicy) -> list[Action]:
    """Dead worker → promote its armed standby, else respawn the slot.

    Adoption is both lower-risk and higher-confidence than a respawn: the
    spare process is already up, and the router's checkpoint + tail of
    each armed source restore there with zero delivery gap, while a
    cold respawn loses the dead epoch's state.  The ranker therefore
    always prefers it when one is armed.
    """
    verdicts = _firing(transitions, *_DEATH_VERDICTS)
    if not verdicts:
        return []
    reason = verdicts[0].name
    workers = fleet.get("workers", ())
    population = max(len(workers), 1)
    armed = {
        standby["mirror_of"]: standby
        for standby in fleet.get("standbys", ())
        if standby["alive"] and standby["ready"] and not standby["failed"]
    }
    actions: list[Action] = []
    for worker in workers:
        if worker["failed"] or (worker["alive"] and worker["ready"]):
            continue
        slot = worker["index"]
        standby = armed.get(slot)
        if standby is not None and standby["armed_sources"]:
            actions.append(
                Action(
                    kind="adopt_standby",
                    target={"worker": slot},
                    reason=reason,
                    blast_radius=1.0 / population,
                    confidence=0.9,
                    detail=f"standby {standby['index']} armed for "
                    f"{len(standby['armed_sources'])} source(s)",
                )
            )
        else:
            actions.append(
                Action(
                    kind="respawn",
                    target={"worker": slot},
                    reason=reason,
                    blast_radius=1.0 / population,
                    confidence=0.7,
                    detail="no armed standby; a respawn restores only the "
                    "sources the router holds a checkpoint of",
                )
            )
    # A dead standby is repaired too, at near-zero blast radius: no
    # subscriber traffic flows through it.
    for standby in fleet.get("standbys", ()):
        if standby["failed"] or (standby["alive"] and standby["ready"]):
            continue
        actions.append(
            Action(
                kind="respawn",
                target={"worker": standby["index"]},
                reason=reason,
                blast_radius=0.05,
                confidence=0.8,
                detail="standby process down; mirror tier degraded",
            )
        )
    return actions


def propose_rebalance(
    transitions, fleet: dict, policy: RemediationPolicy
) -> list[Action]:
    """Hot worker → live-migrate one source to the emptiest worker.

    Triggered by queue-depth anomalies: a single worker drowning while
    its peers idle is a placement problem, and the migration handshake
    moves a source with its subscribers attached (no teardown), so the
    cost of being wrong is a bounded drain pause — not an outage.
    """
    if not _firing(transitions, "queue_depth_anomaly"):
        return []
    workers = [
        w
        for w in fleet.get("workers", ())
        if w["alive"] and w["ready"] and not w["failed"]
    ]
    if len(workers) < 2:
        return []
    loaded = max(workers, key=lambda w: len(w["sources"]))
    idle = min(workers, key=lambda w: len(w["sources"]))
    if len(loaded["sources"]) - len(idle["sources"]) < 2:
        return []  # placement is already as even as it gets
    source = sorted(loaded["sources"])[0]
    total = max(len(fleet.get("sources", ())), 1)
    return [
        Action(
            kind="migrate_source",
            target={"source": source, "to": idle["index"]},
            reason="queue_depth_anomaly",
            blast_radius=1.0 / total,
            confidence=0.5,
            detail=f"worker {loaded['index']} serves "
            f"{len(loaded['sources'])} sources vs "
            f"{len(idle['sources'])} on worker {idle['index']}",
        )
    ]


def propose_scale(
    transitions, fleet: dict, policy: RemediationPolicy
) -> list[Action]:
    """Saturation → grow the tier; sustained calm → offer to shrink.

    Both directions ride the consistent-hash ring: growing moves ~1/N
    of the sources onto the new worker via live migration, shrinking
    migrates the retiring worker's sources out first.  Scale-down is
    proposed at low confidence on an all-ok edge, so it only ever runs
    under an explicitly permissive ``max_risk``.
    """
    if not policy.allow_scale:
        return []
    workers = fleet.get("workers", ())
    live = [w for w in workers if w["alive"] and not w["failed"]]
    actions: list[Action] = []
    if _firing(transitions, *_SATURATION_VERDICTS):
        if len(workers) < policy.max_workers:
            actions.append(
                Action(
                    kind="add_worker",
                    target={},
                    reason=_firing(transitions, *_SATURATION_VERDICTS)[0].name,
                    blast_radius=0.3,
                    confidence=0.5,
                    detail=f"tier at {len(workers)} workers, "
                    f"cap {policy.max_workers}",
                )
            )
    else:
        # An edge back to all-ok on the saturation verdicts: the tier
        # may be oversized.  Low confidence keeps this behind the risk
        # gate unless the operator opted into aggressive scaling.
        recovered = [
            verdict
            for verdict, previous in transitions
            if verdict.name in _SATURATION_VERDICTS
            and verdict.status == "ok"
            and previous != "ok"
        ]
        if recovered and len(live) > 2:
            actions.append(
                Action(
                    kind="remove_worker",
                    target={},
                    reason=recovered[0].name,
                    blast_radius=0.4,
                    confidence=0.3,
                    detail=f"saturation cleared with {len(live)} live "
                    "workers",
                )
            )
    return actions


def propose_shed(
    transitions, fleet: dict, policy: RemediationPolicy
) -> list[Action]:
    """Overflow storm → disconnect the subscriber causing it.

    Shedding is the paper's timeliness-over-completeness stance turned
    into an actuation: one drowning consumer must not be allowed to
    degrade delivery for everyone sharing its worker.  It is the most
    invasive verb here (a subscriber is torn down), so it is opt-in and
    carries the subscriber-scoped blast radius.
    """
    if not policy.allow_shed:
        return []
    verdicts = _firing(transitions, *_OVERFLOW_VERDICTS)
    if not verdicts:
        return []
    apps = [
        (worker, app)
        for worker in fleet.get("workers", ())
        for app in worker.get("apps", ())
    ]
    if not apps:
        return []
    # Without per-app drop attribution in the control plane, shed the
    # app on the worker with the most subscribers (the contention
    # point); the verifier re-checks the app still exists at run time.
    worker = max(fleet.get("workers", ()), key=lambda w: len(w["apps"]))
    if not worker["apps"]:
        return []
    return [
        Action(
            kind="shed_load",
            target={"app": sorted(worker["apps"])[0]},
            reason=verdicts[0].name,
            blast_radius=1.0 / max(len(apps), 1),
            confidence=0.4,
            detail=f"worker {worker['index']} carries "
            f"{len(worker['apps'])} subscriber(s)",
        )
    ]


def default_proposers() -> list[Callable]:
    return [propose_heal, propose_rebalance, propose_scale, propose_shed]


# ---------------------------------------------------------------------------
# The loop
# ---------------------------------------------------------------------------
class RemediationLoop:
    """Consume Watchtower verdict edges; actuate the cluster safely.

    Wiring: construct with the cluster and a Watchtower, call
    :meth:`attach` (hooks ``watchtower.on_transitions`` and switches
    the cluster's supervisor into *deferred* death handling so this
    loop owns heal decisions, with the supervisor's grace timeout as
    the backstop), then :meth:`close` to restore both.

    Execution is strictly serial: verdict edges enqueue, one worker
    task drains, and each batch of transitions runs the full
    propose → verify → rank → schedule → execute → verify chain before
    the next is considered.
    """

    def __init__(
        self,
        cluster,
        watchtower=None,
        *,
        policy: Optional[RemediationPolicy] = None,
        proposers: Optional[Sequence[Callable]] = None,
        events=None,
        clock=time.monotonic,
    ):
        self.cluster = cluster
        self.watchtower = watchtower
        self.policy = policy if policy is not None else RemediationPolicy()
        self.proposers = (
            list(proposers) if proposers is not None else default_proposers()
        )
        self.events = events
        self.clock = clock
        self.executed = 0
        self.skipped = 0
        self.failed = 0
        self._queue: asyncio.Queue = asyncio.Queue()
        self._task: Optional[asyncio.Task] = None
        self._cooldowns: dict[tuple, float] = {}
        self._recent: deque[float] = deque()
        self._attached = False
        self._prior_defer = False

    # -- lifecycle ------------------------------------------------------
    def attach(self) -> None:
        """Hook the Watchtower edge stream and take over heal decisions."""
        if self._attached:
            return
        self._attached = True
        self._prior_defer = getattr(
            self.cluster, "defer_death_handling", False
        )
        self.cluster.defer_death_handling = True
        if self.watchtower is not None:
            self.watchtower.on_transitions = self.submit
        self._task = asyncio.ensure_future(self._run())
        self._emit("remediation_attached", policy=self._policy_fields())

    async def close(self) -> None:
        if not self._attached:
            return
        self._attached = False
        self.cluster.defer_death_handling = self._prior_defer
        if self.watchtower is not None and (
            self.watchtower.on_transitions is self.submit
        ):
            self.watchtower.on_transitions = None
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except (asyncio.CancelledError, Exception):
                pass
            self._task = None

    def submit(self, transitions) -> None:
        """Enqueue one poll's verdict edges (the Watchtower hook)."""
        self._queue.put_nowait(list(transitions))

    # -- pipeline -------------------------------------------------------
    async def _run(self) -> None:
        while True:
            transitions = await self._queue.get()
            try:
                await self._handle(transitions)
            except asyncio.CancelledError:
                raise
            except Exception as exc:
                # The loop must survive any single incident's failure.
                self._emit("remediation_error", error=str(exc))

    async def _handle(self, transitions) -> None:
        fleet = self.cluster.fleet_status()
        candidates: list[Action] = []
        for proposer in self.proposers:
            candidates.extend(proposer(transitions, fleet, self.policy))
        if not candidates:
            return
        for action in candidates:
            self._emit("remediation_proposed", **action.to_fields())
        # Rank: cheapest expected damage first; confidence breaks ties.
        ranked = sorted(
            candidates, key=lambda a: (a.risk, -a.confidence, a.kind)
        )
        for action in ranked:
            verdict = self._gate(action, fleet)
            if verdict is not None:
                self.skipped += 1
                self._emit(
                    "remediation_skipped",
                    **action.to_fields(),
                    why=verdict,
                )
                continue
            await self._execute(action)
            # One actuation per incident: re-evaluate the world before
            # doing anything else (the next verdict edge will re-fire
            # proposers against the post-action fleet).
            break

    # -- verifier (pre-flight) ------------------------------------------
    def _gate(self, action: Action, fleet: dict) -> Optional[str]:
        """Risk gate + pre-flight invariants; returns a skip reason."""
        now = self.clock()
        if action.risk > self.policy.max_risk:
            return "risk_gated"
        until = self._cooldowns.get(action.key())
        if until is not None and now < until:
            return "cooldown"
        while self._recent and now - self._recent[0] > self.policy.window_s:
            self._recent.popleft()
        if len(self._recent) >= self.policy.actions_per_window:
            return "budget_exhausted"
        return self._check_preconditions(action, fleet)

    def _check_preconditions(
        self, action: Action, fleet: dict
    ) -> Optional[str]:
        workers = {w["index"]: w for w in fleet.get("workers", ())}
        standbys = {s["index"]: s for s in fleet.get("standbys", ())}
        if action.kind in ("respawn", "adopt_standby"):
            slot = workers.get(action.target.get("worker")) or standbys.get(
                action.target.get("worker")
            )
            if slot is None:
                return "no_such_worker"
            if slot["failed"]:
                return "slot_lost"
            if slot["alive"] and slot["ready"]:
                return "already_healthy"
            if action.kind == "adopt_standby":
                standby = next(
                    (
                        s
                        for s in fleet.get("standbys", ())
                        if s["mirror_of"] == action.target["worker"]
                        and s["alive"]
                        and s["ready"]
                        and not s["failed"]
                    ),
                    None,
                )
                if standby is None:
                    return "no_armed_standby"
        elif action.kind == "migrate_source":
            if action.target.get("source") not in fleet.get("sources", {}):
                return "no_such_source"
            target = workers.get(action.target.get("to"))
            if target is None or not (target["alive"] and target["ready"]):
                return "target_not_ready"
        elif action.kind == "add_worker":
            if len(workers) >= self.policy.max_workers:
                return "at_max_workers"
        elif action.kind == "remove_worker":
            live = [
                w
                for w in workers.values()
                if w["alive"] and w["ready"] and not w["failed"]
            ]
            if len(live) <= 2:
                return "tier_too_small"
        elif action.kind == "shed_load":
            apps = {
                app
                for worker in fleet.get("workers", ())
                for app in worker.get("apps", ())
            }
            if action.target.get("app") not in apps:
                return "no_such_app"
        return None

    # -- scheduler + executor -------------------------------------------
    async def _execute(self, action: Action) -> None:
        now = self.clock()
        self._cooldowns[action.key()] = now + self.policy.cooldown_s
        self._recent.append(now)
        self._emit("remediation_scheduled", **action.to_fields())
        started = self.clock()
        try:
            outcome = await self._actuate(action)
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            self.failed += 1
            self._emit(
                "remediation_failed",
                **action.to_fields(),
                error=str(exc),
                elapsed_ms=round((self.clock() - started) * 1e3, 1),
            )
            return
        ok, post = self._verify_post(action)
        self.executed += 1
        self._emit(
            "remediation_executed",
            **action.to_fields(),
            outcome=outcome,
            verified=ok,
            post=post,
            elapsed_ms=round((self.clock() - started) * 1e3, 1),
        )
        if not ok:
            self.failed += 1
            self._emit(
                "remediation_unverified", **action.to_fields(), post=post
            )

    async def _actuate(self, action: Action):
        cluster = self.cluster
        if action.kind == "adopt_standby":
            return await cluster.heal_worker(
                action.target["worker"], prefer_standby=True
            )
        if action.kind == "respawn":
            return await cluster.heal_worker(
                action.target["worker"], prefer_standby=False
            )
        if action.kind == "migrate_source":
            result = await cluster.migrate_source(
                action.target["source"], action.target["to"]
            )
            return "exact" if result.get("exact") else "lossy"
        if action.kind == "add_worker":
            return f"worker_{await cluster.add_worker()}"
        if action.kind == "remove_worker":
            return f"worker_{await cluster.remove_worker()}"
        if action.kind == "shed_load":
            await cluster.unsubscribe(action.target["app"])
            return "unsubscribed"
        raise ValueError(f"unknown action kind {action.kind!r}")

    def _verify_post(self, action: Action) -> tuple[bool, str]:
        """Post-flight invariant: did the action reach its stated goal?"""
        fleet = self.cluster.fleet_status()
        workers = {w["index"]: w for w in fleet.get("workers", ())}
        standbys = {s["index"]: s for s in fleet.get("standbys", ())}
        if action.kind == "adopt_standby":
            slot = workers.get(action.target["worker"])
            if slot is not None and slot["alive"] and slot["ready"]:
                return True, "slot_ready"
            return False, "slot_not_ready"
        if action.kind == "respawn":
            slot = workers.get(action.target["worker"]) or standbys.get(
                action.target["worker"]
            )
            if slot is None:
                return False, "slot_gone"
            if slot["failed"]:
                return False, "slot_lost"
            # A respawn is asynchronous under backoff: "scheduled and
            # not lost" is the strongest sound post-condition here.
            return True, "respawn_pending" if not slot["ready"] else "slot_ready"
        if action.kind == "migrate_source":
            placed = fleet.get("sources", {}).get(action.target["source"])
            if placed == action.target["to"]:
                return True, "source_on_target"
            return False, f"source_on_{placed}"
        if action.kind == "add_worker":
            return True, f"workers_{len(workers)}"
        if action.kind == "remove_worker":
            return True, f"workers_{len(workers)}"
        if action.kind == "shed_load":
            apps = {
                app
                for worker in fleet.get("workers", ())
                for app in worker.get("apps", ())
            }
            if action.target["app"] not in apps:
                return True, "app_gone"
            return False, "app_still_subscribed"
        return True, "unchecked"

    # -- plumbing -------------------------------------------------------
    def _policy_fields(self) -> dict:
        return {
            "max_risk": self.policy.max_risk,
            "cooldown_s": self.policy.cooldown_s,
            "actions_per_window": self.policy.actions_per_window,
            "window_s": self.policy.window_s,
            "allow_scale": self.policy.allow_scale,
            "allow_shed": self.policy.allow_shed,
        }

    def _emit(self, kind: str, **fields) -> None:
        if self.events is not None:
            self.events.emit(kind, **fields)
