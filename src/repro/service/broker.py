"""Long-running asyncio dissemination broker over the batch engine.

The paper's prototype is a *service* (section 4.1): applications
subscribe with filter specs at runtime and the group-aware filtering
engine streams decided tuples to them continuously.
:class:`DisseminationService` provides that shape on top of the existing
batch machinery:

* it owns one :class:`~repro.core.engine.GroupAwareEngine` per source
  *epoch* — a source's subscribers are one filter group;
* tuples arrive incrementally (:meth:`offer` / :meth:`feed`) and drive
  candidate-set closing and region decisions on arrival; timer ticks
  (:meth:`tick`) drive timely cuts and latency-bounded batch flushes
  between arrivals;
* subscriptions are dynamic — :meth:`subscribe`, :meth:`unsubscribe` and
  :meth:`re_filter` *cut the current engine over* (open candidate sets
  are flushed and decided) and rebuild the filter group from the new
  subscription set;
* decided emissions are micro-batched once per *delivery group* (the
  sessions of one sharing class with equal batch bounds) and each batch
  is put once on every delivery link its members read (a gateway
  connection's subscribers share one), under every member's own bound
  and overflow policy (block / drop-oldest / disconnect), so slow
  consumers exert backpressure instead of growing broker memory;
* a live source keeps its open state, not its history: migration and
  standby arming ship the engine's checkpoint
  (:meth:`~DisseminationService.export_source`,
  :meth:`~DisseminationService.snapshot_source`), and
  :meth:`~DisseminationService.import_source` restores it without
  running an engine step.

For a fixed trace with static subscriptions the service calls exactly
the same engine methods in the same order as the batch path, so its
decided outputs are identical to ``GroupAwareEngine.run`` —
``tests/test_service.py`` asserts this for both decide algorithms.
"""

from __future__ import annotations

import asyncio
import marshal
import time
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice
from typing import Container, Iterable, Optional, Sequence

from repro.core.engine import EngineResult, GroupAwareEngine
from repro.core.output import Emission
from repro.core.tuples import StreamTuple
from repro.filters.base import GroupAwareFilter
from repro.filters.spec import parse_filter
from repro.obs.telemetry import Telemetry
from repro.obs.trace import (
    STAGE_BATCH_FLUSH,
    STAGE_DECIDE,
    STAGE_DECIDE_EXEC,
    STAGE_INGEST_RECV,
    stage_id,
)
from repro.qos.controller import (
    DegradationConfig,
    DegradationController,
    DegradationDecision,
)
from repro.qos.spec import DegradationPolicy, QualitySpec, session_limits
from repro.runtime.tasks import EngineConfig, engine_from_config
from repro.service.batching import MicroBatcher
from repro.service.session import (
    OVERFLOW_POLICIES,
    DeliveryLink,
    DeliveryQueue,
    SubscriberSession,
)
from repro.service.snapshot import ServiceSnapshot, SessionSnapshot

#: ``engine_from_config`` is defined in :mod:`repro.runtime.tasks`; it is
#: exported here too because the benchmark harness imports it from here.
__all__ = ["ServiceConfig", "DisseminationService", "engine_from_config"]

#: Bound on per-source arrival-time tracking for decide latency: tuples
#: the engines dismiss are never emitted, so their entries linger until
#: the next rebuild; at this many the older half is dropped.  An arrival
#: only has to outlive its decide deferral, which on the benchmark's
#: shapes is at most 28 offers (32 subscribers, region algorithm), so
#: the window left after a drop is > 100x that.
_ARRIVAL_TRACK_MAX = 1 << 13

_SID_INGEST_RECV = stage_id(STAGE_INGEST_RECV)
_SID_DECIDE_EXEC = stage_id(STAGE_DECIDE_EXEC)
_SID_DECIDE = stage_id(STAGE_DECIDE)
_SID_BATCH_FLUSH = stage_id(STAGE_BATCH_FLUSH)


def _open_tuples(state: dict) -> int:
    """Tuples in a source state's checkpoint (its tuple table's rows)."""
    checkpoint = state.get("checkpoint")
    return 0 if checkpoint is None else len(checkpoint[-1])


@dataclass(frozen=True)
class ServiceConfig:
    """Broker-wide defaults; per-session knobs can override queueing."""

    #: Decide algorithm, output strategy and cut constraint — the same
    #: portable :class:`~repro.runtime.tasks.EngineConfig` vocabulary the
    #: sharded runtime uses.
    engine: EngineConfig = field(default_factory=EngineConfig)
    #: Micro-batching bounds per session (see :mod:`repro.service.batching`).
    batch_max_items: int = 8
    batch_max_delay_ms: float = 50.0
    #: Session outbound queue bound and overflow policy defaults.
    queue_capacity: int = 16
    overflow: str = "block"
    #: Whether timer ticks may fire timely cuts between arrivals.  The
    #: live default is True (honest timeliness); False restricts cuts to
    #: arrivals so a constrained run stays deterministic against a batch
    #: reference (see GroupAwareEngine.tick) — the loadgen's verify mode.
    tick_cuts: bool = True
    #: Payload bytes a tuple stands for: the degradation controller's
    #: egress estimate (shipped tuples times this).
    tuple_size_bytes: int = 64
    #: Read by nothing; benchmarks/e2e/harness/workloads.py:235 passes it.
    seed: int = 0
    #: Sliding-window length for snapshot decide-latency percentiles
    #: (wall-clock arrival-to-emission milliseconds per decided tuple).
    decide_window: int = 4096
    #: Keep every epoch's :class:`~repro.core.engine.EngineResult` (the
    #: per-decision and per-emission logs) for
    #: :meth:`DisseminationService.results` and ``close()``.  Off, a
    #: live source retains nothing per decided tuple, which is what a
    #: long-running server wants; a caller that checks the service
    #: against a batch reference turns it on.
    record_epochs: bool = False

    def __post_init__(self) -> None:
        if self.engine.algorithm == "self_interested":
            raise ValueError(
                "the live service coordinates filters; use the batch "
                "SelfInterestedEngine for the uncoordinated baseline"
            )
        if self.overflow not in OVERFLOW_POLICIES:
            raise ValueError(
                f"unknown overflow policy {self.overflow!r}; "
                f"expected {OVERFLOW_POLICIES}"
            )


class _DeliveryGroup:
    """Sessions that receive the same decided tuples in the same batches.

    Its members are one sharing class of the live engine (every emission
    names all of them or none, see
    :attr:`~repro.core.engine.GroupAwareEngine.sharing_classes`) with
    equal batch bounds, so one batcher stages a tuple once for all of
    them and each flushed :class:`~repro.service.batching.Batch` goes,
    the same object, once onto every delivery link the members read.
    """

    def __init__(self, batcher: MicroBatcher):
        self.batcher = batcher
        self.members: list[SubscriberSession] = []

    # Derived on first use: a group's members are fixed before it
    # stages anything.
    @cached_property
    def queues(self) -> tuple[DeliveryQueue, ...]:
        """The members' queues, in member order."""
        return tuple(session.queue for session in self.members)

    @cached_property
    def links(self) -> list[tuple[DeliveryLink, tuple[DeliveryQueue, ...]]]:
        """``(link, its members' queues)`` per distinct link."""
        by_link: dict[DeliveryLink, list[DeliveryQueue]] = {}
        for queue in self.queues:
            by_link.setdefault(queue.link, []).append(queue)
        return [(link, tuple(queues)) for link, queues in by_link.items()]


@dataclass
class _SourceState:
    name: str
    lock: asyncio.Lock = field(default_factory=asyncio.Lock)
    sessions: dict[str, SubscriberSession] = field(default_factory=dict)
    #: The live engine over the whole source group; None with no
    #: subscribers.
    engine: Optional[GroupAwareEngine] = None
    #: Finished engine results, one per subscription epoch.
    epochs: list[EngineResult] = field(default_factory=list)
    offered: int = 0
    #: Tuples fed to the current epoch's engine (resets on rebuild).
    fed: int = 0
    #: Wall-clock arrival time per offered-but-undecided tuple seq, for
    #: sub-tick decide-latency measurement (cleared on rebuild).
    arrivals_ns: dict[int, int] = field(default_factory=dict)
    #: The current epoch's delivery groups, in engine order.
    groups: list[_DeliveryGroup] = field(default_factory=list)
    #: Interned emission recipients -> the groups they name (per epoch).
    routes: dict[frozenset[str], tuple[_DeliveryGroup, ...]] = field(
        default_factory=dict
    )
    #: Sessions built with a degradation controller (per epoch).
    controlled: list[SubscriberSession] = field(default_factory=list)
    #: A put disconnected a session since the last dispatch reaped.
    disconnects: bool = False


class DisseminationService:
    """Live broker: incremental decides, dynamic sessions, backpressure."""

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        *,
        telemetry: Optional[Telemetry] = None,
    ):
        self.config = config if config is not None else ServiceConfig()
        self._sources: dict[str, _SourceState] = {}
        self._app_sources: dict[str, str] = {}
        self._retired: list[SessionSnapshot] = []
        self._decide_window: deque[float] = deque(maxlen=self.config.decide_window)
        self._now = 0.0
        self._offered = 0
        self._decided_emissions = 0
        self._regroups = 0
        self._ticks = 0
        #: Timely cuts fired by engines that are gone (cut over or
        #: exported); the live engines' own counts come on top.
        self._cuts_triggered = 0
        self._closed = False
        self.telemetry = telemetry
        if telemetry is not None:
            registry = telemetry.registry
            self._m_offers = registry.counter(
                "repro_broker_offered_tuples_total",
                "Tuples offered to the broker.",
            )
            self._m_decided = registry.counter(
                "repro_broker_decided_emissions_total",
                "Decided emissions produced by the engines.",
            )
            self._m_ticks = registry.counter(
                "repro_broker_ticks_total", "Broker timer ticks."
            )
            # All three read the broker's own counts at scrape time.
            registry.register_collector(self._collect_counts)
            self._m_cutovers = registry.counter(
                "repro_broker_cutovers_total",
                "Engine cutovers forced by subscription churn.",
            )
            self._m_cutover_ms = registry.histogram(
                "repro_broker_cutover_ms",
                "Wall-clock duration of one engine cutover.",
            )
            self._m_sessions = registry.gauge(
                "repro_broker_sessions", "Live subscriber sessions."
            )
            contexts = registry.gauge(
                "repro_broker_engine_contexts",
                "Distinct filter first stages the live engines evaluate "
                "per tuple (sessions with one shareable spec on one "
                "source share one).",
            )
            registry.register_collector(
                lambda: contexts.set(self.engine_context_count())
            )
            groups = registry.gauge(
                "repro_broker_delivery_groups",
                "Delivery groups the live sources batch and ship for "
                "(sessions of one sharing class with equal batch bounds "
                "share one).",
            )
            registry.register_collector(
                lambda: groups.set(self.delivery_group_count())
            )
            open_state_bytes = registry.gauge(
                "repro_broker_open_state_bytes",
                "Bytes the live engines' checkpoints pack to (what a "
                "migration or standby arming ships).",
            )
            registry.register_collector(
                lambda: open_state_bytes.set(self.open_state_bytes())
            )
            self._m_checkpoint_cutovers = registry.counter(
                "repro_broker_checkpoint_cutover_total",
                "Source exports and snapshots that cut the engine over "
                "instead of shipping its checkpoint: a value in the open "
                "state cannot be packed (unportable).",
                ("reason",),
            )
            self._m_flushes = registry.counter(
                "repro_session_batch_flushes_total",
                "Micro-batch flushes shipped toward session queues.",
            )
            self._m_queue_hw = registry.gauge(
                "repro_session_queue_depth_high_water",
                "Highest observed session queue depth.",
                ("app",),
            )
            self._m_drops = registry.counter(
                "repro_session_overflow_dropped_tuples_total",
                "Tuples dropped by session overflow policy.",
                ("policy",),
            )
            # Both read the queues' own counters, at scrape time and
            # when a session retires, not per delivered batch.
            registry.register_collector(self._collect_queues)
            self._m_degradation = registry.gauge(
                "repro_session_degradation_level",
                "Active QoS degradation level per session "
                "(0 = preferred quality).",
                ("app",),
            )

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def add_source(self, source_name: str) -> None:
        """Advertise a source.

        ``ValueError`` if it is already advertised (replacing its state
        would orphan its sessions); a source that was exported is gone
        from here, so it can migrate back.
        """
        if source_name in self._sources:
            raise ValueError(f"source {source_name!r} is already advertised")
        self._sources[source_name] = _SourceState(name=source_name)

    def has_source(self, source_name: str) -> bool:
        return source_name in self._sources

    def sources(self) -> tuple[str, ...]:
        """Currently advertised source names."""
        return tuple(self._sources)

    def session_count(self) -> int:
        """Live subscriber sessions, without building a full snapshot."""
        return sum(len(src.sessions) for src in self._sources.values())

    def engine_context_count(self) -> int:
        """Distinct filter first stages across the live engines; against
        :meth:`session_count` it is the sharing ratio."""
        return sum(
            src.engine.context_count
            for src in self._sources.values()
            if src.engine is not None
        )

    def delivery_group_count(self) -> int:
        """Batchers the live sources stage into; against
        :meth:`session_count` it is how much fan-out is shared."""
        return sum(len(src.groups) for src in self._sources.values())

    def open_state_bytes(self) -> int:
        """Bytes the live engines' checkpoints pack to (an engine whose
        open state holds a value ``marshal`` refuses counts 0)."""
        total = 0
        for src in self._sources.values():
            if src.engine is not None:
                try:
                    total += len(marshal.dumps(src.engine.checkpoint()))
                except ValueError:
                    pass
        return total

    def _src(self, source_name: str) -> _SourceState:
        try:
            return self._sources[source_name]
        except KeyError:
            raise KeyError(f"unknown source {source_name!r}") from None

    # ------------------------------------------------------------------
    # Dynamic subscriptions
    # ------------------------------------------------------------------
    async def subscribe(
        self,
        app_name: str,
        source_name: str,
        spec: str,
        *,
        queue_capacity: Optional[int] = None,
        overflow: Optional[str] = None,
        batch_max_items: Optional[int] = None,
        batch_max_delay_ms: Optional[float] = None,
        qos: Optional[QualitySpec] = None,
        degradation: Optional[DegradationPolicy] = None,
        degradation_level: int = 0,
        degradation_config: Optional[DegradationConfig] = None,
        link: Optional[DeliveryLink] = None,
    ) -> SubscriberSession:
        """Attach a subscriber at runtime; forces an engine rebuild.

        ``link`` is the delivery link the session's batches wait on,
        shared with the other sessions of one consumer (a gateway
        connection); by default the session reads a link of its own
        through :meth:`SubscriberSession.batches`.

        ``qos`` resolves the session's queue and batching bounds from the
        application's declared quality requirement (see
        :func:`repro.qos.spec.session_limits`); explicit keyword
        overrides win over the QoS mapping, and broker-wide defaults
        remain the fallback for everything else.

        ``degradation`` attaches a server-driven
        :class:`~repro.qos.controller.DegradationController`: under
        overload the broker steps the session down the policy's levels
        instead of letting its queue drop or disconnect, and probes back
        up AIMD-style once the session is healthy again.  ``spec`` must
        equal the active level's filter spec (the cluster's re-subscribe
        paths pass ``degradation_level`` > 0 so a degraded session
        resumes at its level after respawn/migration/failover).
        """
        src = self._src(source_name)
        controller: Optional[DegradationController] = None
        if degradation is not None:
            if degradation.app_name != app_name:
                raise ValueError(
                    f"degradation policy names app {degradation.app_name!r}, "
                    f"subscription is for {app_name!r}"
                )
            controller = DegradationController(
                degradation, degradation_config, level=degradation_level
            )
            if spec != controller.spec:
                raise ValueError(
                    "subscription spec must equal the degradation policy's "
                    f"active level spec {controller.spec!r}, got {spec!r}"
                )
            if qos is None:
                qos = degradation.levels[degradation_level]
        async with src.lock:
            if app_name in self._app_sources:
                raise ValueError(f"app {app_name!r} is already subscribed")
            parse_filter(spec, name=app_name)  # validate before any churn
            cfg = self.config
            if qos is not None:
                if qos.app_name != app_name:
                    raise ValueError(
                        f"QoS profile names app {qos.app_name!r}, "
                        f"subscription is for {app_name!r}"
                    )
                limits = session_limits(
                    qos,
                    queue_capacity=cfg.queue_capacity,
                    overflow=cfg.overflow,
                    batch_max_items=cfg.batch_max_items,
                    batch_max_delay_ms=cfg.batch_max_delay_ms,
                )
                queue_capacity = (
                    limits.queue_capacity if queue_capacity is None else queue_capacity
                )
                overflow = limits.overflow if overflow is None else overflow
                batch_max_items = (
                    limits.batch_max_items
                    if batch_max_items is None
                    else batch_max_items
                )
                batch_max_delay_ms = (
                    limits.batch_max_delay_ms
                    if batch_max_delay_ms is None
                    else batch_max_delay_ms
                )
            # Everything fallible — spec parsing, per-session knob
            # validation (queue/batcher construction) — happens before
            # the cutover: a failed subscribe must leave the current
            # epoch's engine serving, not a stranded source.
            session = SubscriberSession(
                app_name=app_name,
                source_name=source_name,
                spec=spec,
                queue=DeliveryQueue(
                    capacity=queue_capacity
                    if queue_capacity is not None
                    else cfg.queue_capacity,
                    policy=overflow if overflow is not None else cfg.overflow,
                    link=link,
                    app=app_name,
                ),
                batcher=MicroBatcher(
                    max_items=batch_max_items
                    if batch_max_items is not None
                    else cfg.batch_max_items,
                    max_delay_ms=batch_max_delay_ms
                    if batch_max_delay_ms is not None
                    else cfg.batch_max_delay_ms,
                ),
                degradation=controller,
                _broker=self,
            )
            try:
                await self._cutover(src)
                src.sessions[app_name] = session
                self._app_sources[app_name] = source_name
                self._rebuild(src)
            except Exception:
                # The cutover already dropped the live engine; rebuild
                # from the prior subscription set so the source keeps
                # serving and a retry is not refused as "already
                # subscribed".
                src.sessions.pop(app_name, None)
                self._app_sources.pop(app_name, None)
                self._rebuild(src)
                raise
            if self.telemetry is not None:
                self._m_sessions.set(self.session_count())
                if controller is not None:
                    self._m_degradation.labels(app_name).set(controller.level)
                self.telemetry.events.emit(
                    "subscribe", app=app_name, source=source_name, spec=spec
                )
            return session

    async def unsubscribe(self, app_name: str) -> None:
        """Detach a subscriber at runtime; forces an engine rebuild."""
        source_name = self._require_app(app_name)
        src = self._src(source_name)
        async with src.lock:
            await self._detach(src, app_name)

    async def re_filter(self, app_name: str, new_spec: str) -> None:
        """Swap a live subscriber's filter spec; forces an engine rebuild.

        A client-driven re-filter on a degradable session detaches its
        :class:`DegradationController`: an explicit spec choice is a
        manual override, and keeping the controller would race it (the
        next stressed dispatch would immediately re-write the spec the
        client just chose).
        """
        source_name = self._require_app(app_name)
        src = self._src(source_name)
        async with src.lock:
            session = src.sessions[app_name]
            await self._re_filter_locked(src, session, new_spec)
            if session.degradation is not None:
                session.degradation = None
                if self.telemetry is not None:
                    self._m_degradation.labels(app_name).set(0)
            if self.telemetry is not None:
                self.telemetry.events.emit(
                    "re_filter", app=app_name, spec=new_spec
                )

    async def _re_filter_locked(
        self, src: _SourceState, session: SubscriberSession, new_spec: str
    ) -> None:
        """Spec-swap core (caller holds the source lock; no events)."""
        parse_filter(new_spec, name=session.app_name)
        old_spec = session.spec
        try:
            await self._cutover(src)
            session.spec = new_spec
            self._rebuild(src)
        except Exception:
            # Same contract as subscribe: a failed churn must leave
            # the source serving under the old spec.
            session.spec = old_spec
            self._rebuild(src)
            raise

    def subscriptions(self, source_name: str) -> list[tuple[str, str]]:
        """Current ``(app, spec)`` pairs in broker (engine) order."""
        return [
            (s.app_name, s.spec) for s in self._src(source_name).sessions.values()
        ]

    def _require_app(self, app_name: str) -> str:
        try:
            return self._app_sources[app_name]
        except KeyError:
            raise KeyError(f"app {app_name!r} is not subscribed") from None

    async def _detach(self, src: _SourceState, app_name: str) -> None:
        """Remove one session (caller holds the source lock)."""
        session = src.sessions.get(app_name)
        if session is None:
            return
        try:
            # Decided-but-staged tuples must not vanish uncounted: the
            # cutover's flush reaches the leaving session without
            # blocking (its consumer may be gone), like close() does.
            await self._cutover(src, final=(app_name,))
        except Exception:
            # A failed cutover leaves a half-finished engine; rebuild so
            # the source keeps serving (the session stays attached).
            self._rebuild(src)
            raise
        del src.sessions[app_name]
        del self._app_sources[app_name]
        await session.close()
        self._retire(session)
        self._rebuild(src)
        if self.telemetry is not None:
            self._m_sessions.set(self.session_count())
            if session.disconnected:
                self.telemetry.events.emit(
                    "overflow_disconnect",
                    app=app_name,
                    source=src.name,
                    policy=session.queue.policy,
                    dropped_tuples=session.stats.dropped_tuples,
                )
            else:
                self.telemetry.events.emit(
                    "unsubscribe", app=app_name, source=src.name
                )

    # ------------------------------------------------------------------
    # Engine lifecycle (epochs)
    # ------------------------------------------------------------------
    def _parse_group(self, src: _SourceState) -> list[GroupAwareFilter]:
        return [
            parse_filter(session.spec, name=app)
            for app, session in src.sessions.items()
        ]

    def _rebuild(self, src: _SourceState) -> None:
        """A fresh engine and delivery groups from the current
        subscription set."""
        filters = self._parse_group(src)
        self._drop_engine(src)
        # A rebuild always follows a cutover: the old epoch's tuples were
        # emitted or dismissed with it, so their arrival times are dead.
        src.arrivals_ns.clear()
        for group in src.groups:
            # Only a failed cutover leaves tuples staged here.
            self._final_flush(group)
        src.groups = []
        src.routes = {}
        src.controlled = [
            s for s in src.sessions.values() if s.degradation is not None
        ]
        if not filters:
            return
        src.fed = 0
        src.engine = engine = engine_from_config(
            filters, self.config.engine, record=self.config.record_epochs
        )
        self._regroups += 1
        sessions = src.sessions
        for owners in engine.sharing_classes:
            by_bounds: dict[tuple[int, float], _DeliveryGroup] = {}
            for app in owners:
                session = sessions[app]
                bounds = (session.batcher.max_items, session.batcher.max_delay_ms)
                group = by_bounds.get(bounds)
                if group is None:
                    group = by_bounds[bounds] = _DeliveryGroup(MicroBatcher(*bounds))
                    src.groups.append(group)
                group.members.append(session)
                session.batcher = group.batcher

    def _drop_engine(self, src: _SourceState) -> None:
        """Forget the live engine, keeping what :meth:`snapshot` counts."""
        if src.engine is not None:
            self._cuts_triggered += src.engine.cuts_triggered
            src.engine = None

    async def _cutover(
        self, src: _SourceState, final: Container[str] = ()
    ) -> None:
        """Finish the live engine, delivering its tail emissions.

        Open candidate sets are flushed and decided (the same semantics as
        end-of-stream), so a subscription change never strands admitted
        tuples; the next epoch starts from clean coordination state.
        Every delivery group is then flushed, so the next epoch's groups
        start empty.
        """
        engine = src.engine
        if engine is not None and src.fed == 0:
            # Nothing was ever offered to this epoch: no candidate state
            # to flush, so skip the empty EngineResult entirely.
            self._drop_engine(src)
        elif engine is not None:
            started_ns = time.perf_counter_ns()
            # Finish the engine before mutating any source state: a
            # failure must leave the epoch list untouched (no phantom
            # epoch whose tail was never routed) so the churn paths'
            # rollback handlers can rebuild from a consistent record.
            tails = engine.drain()
            result = engine.finish()
            if self.config.record_epochs:
                src.epochs.append(result)
            self._drop_engine(src)
            self._note_emissions(src, tails)
            await self._route(src, tails, now=self._now)
            if self.telemetry is not None:
                self._m_cutovers.inc()
                self._m_cutover_ms.observe(
                    (time.perf_counter_ns() - started_ns) / 1e6
                )
        await self._flush_groups(src, final)

    # ------------------------------------------------------------------
    # Live migration (engine checkpoints)
    # ------------------------------------------------------------------
    async def _source_state(self, src: _SourceState) -> dict:
        """A source's portable state (caller holds the source lock).

        The live engine's :meth:`~GroupAwareEngine.checkpoint` — its open
        state, not its history — with the subscriptions it was built
        from and each session's shipped count, after every staged batch
        is flushed (blocking: the subscribers stay live), so ``shipped``
        is everything ever routed to a session: the stream position an
        importer continues from.

        If ``marshal`` refuses a value of the open state (a numpy scalar
        offered in process), the engine cuts over here instead — its
        open candidate sets are decided and delivered, as on churn —
        and the state ships the fresh epoch's checkpoint.  That is
        counted, with the reason ``unportable``.
        """
        checkpoint = None
        if src.engine is not None:
            checkpoint = src.engine.checkpoint()
            try:
                marshal.dumps(checkpoint)
            except ValueError:
                await self._cutover(src)
                self._rebuild(src)
                checkpoint = src.engine.checkpoint()
                if self.telemetry is not None:
                    self._m_checkpoint_cutovers.labels("unportable").inc()
                    self.telemetry.events.emit(
                        "checkpoint_cutover", source=src.name, reason="unportable"
                    )
        await self._flush_groups(src)
        return {
            "source": src.name,
            "checkpoint": checkpoint,
            "fed": src.fed,
            "offered": src.offered,
            "subscriptions": self.subscriptions(src.name),
            "shipped": {
                s.app_name: s.stats.shipped_tuples for s in src.sessions.values()
            },
        }

    async def export_source(self, source_name: str) -> dict:
        """Detach a source for live migration; returns its portable state.

        The state is :meth:`_source_state`'s; the sessions then detach
        *without* a cutover — the engine's open state travels in the
        checkpoint instead of being flushed, so the importing worker
        continues where it stands and delivered streams stay
        byte-identical to an unmigrated run.  Each detached session is
        marked ``migrated``, so its connection pump ends the stream with
        the non-final ``"migrated"`` reason: a cluster router's session
        waits there for its re-attach on the target, as it does on a
        dead worker connection.

        The caller must stop routing offers to this worker first (the
        cluster router gates the source's offer path); an ingest racing
        the export can lose at most the tuples admitted between its
        source lookup and the lock acquisition here.
        """
        src = self._src(source_name)
        async with src.lock:
            state = await self._source_state(src)
            for app in list(src.sessions):
                session = src.sessions.pop(app)
                del self._app_sources[app]
                session.migrated = True
                await session.close()
                self._retire(session)
            self._drop_engine(src)
            del self._sources[source_name]
            if self.telemetry is not None:
                self._m_sessions.set(self.session_count())
                self.telemetry.events.emit(
                    "migration_export",
                    source=source_name,
                    open_tuples=_open_tuples(state),
                    fed=state["fed"],
                    subscribers=len(state["subscriptions"]),
                )
            return state

    async def snapshot_source(self, source_name: str) -> dict:
        """Non-destructive copy of a source's portable state.

        The same payload :meth:`export_source` produces, but the source
        keeps serving — this is the checkpoint a cluster router keeps
        for failover, beside the tail of ingest it forwards afterwards.
        """
        src = self._src(source_name)
        async with src.lock:
            return await self._source_state(src)

    async def import_source(self, source_name: str, state: dict) -> int:
        """Adopt an exported source's open state from its checkpoint.

        The source must already exist here with the migrated
        subscriptions attached in their original insertion order and
        nothing fed to the current epoch — a migration target, or a
        respawned or promoted cluster worker, which the router then
        feeds the tail it kept since the checkpoint.  The engine is
        rebuilt fresh, then restored from the checkpoint; no engine step
        runs, so nothing is emitted twice.  ``ValueError`` if the
        checkpoint does not fit the subscriptions (the source is left
        serving a fresh epoch).  A checkpoint for a source that has no
        subscribers here is dropped with the epoch it describes.

        Returns the number of open tuples restored.
        """
        src = self._src(source_name)
        async with src.lock:
            if src.fed:
                raise RuntimeError(
                    f"source {source_name!r} already has {src.fed} tuples "
                    "fed to its current epoch; import requires a clean one"
                )
            await self._flush_groups(src)
            self._rebuild(src)
            checkpoint = state.get("checkpoint")
            restored = 0
            if checkpoint is not None and src.engine is not None:
                try:
                    src.engine.restore(checkpoint)
                except (ValueError, RuntimeError):
                    self._rebuild(src)
                    raise
                restored = _open_tuples(state)
            src.fed = int(state.get("fed", 0))
            src.offered += int(state.get("offered", 0))
            if self.telemetry is not None:
                self.telemetry.events.emit(
                    "migration_import",
                    source=source_name,
                    open_tuples=restored,
                    subscribers=len(src.sessions),
                )
            return restored

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    async def offer(self, source_name: str, item: StreamTuple) -> int:
        """Feed one tuple; decide, batch and deliver what it triggers.

        Returns the number of emissions the arrival produced.  With a
        ``block`` overflow policy this call awaits queue space on slow
        consumers — backpressure reaches the source feed here.
        """
        if self._closed:
            raise RuntimeError("service is closed")
        src = self._src(source_name)
        async with src.lock:
            return await self._offer_locked(src, item)

    async def offer_many(
        self, source_name: str, items: Sequence[StreamTuple]
    ) -> int:
        """Feed a batch of tuples under one lock acquisition.

        Decides, batches and delivers exactly as ``len(items)``
        consecutive :meth:`offer` calls would (arrival order preserved,
        one engine step per tuple), but pays the source-lock handshake
        and the asyncio scheduling overhead once per batch instead of
        once per tuple — the broker half of the wire protocol's
        ``ingest_batch`` fast path.  Returns the summed emission count.
        """
        if self._closed:
            raise RuntimeError("service is closed")
        src = self._src(source_name)
        total = 0
        async with src.lock:
            for item in items:
                total += await self._offer_locked(src, item)
        return total

    async def _offer_locked(self, src: _SourceState, item: StreamTuple) -> int:
        """One arrival's decide + dispatch (caller holds the source lock)."""
        src.offered += 1
        src.fed += 1
        self._offered += 1
        self._now = max(self._now, item.timestamp)
        arrivals = src.arrivals_ns
        if len(arrivals) >= _ARRIVAL_TRACK_MAX:
            # One pass for the older half, not one delete per offer:
            # deleting a dict's first key leaves a tombstone that every
            # later ``next(iter(d))`` walks again.
            arrivals = src.arrivals_ns = dict(
                islice(arrivals.items(), _ARRIVAL_TRACK_MAX // 2, None)
            )
        arrival_ns = time.perf_counter_ns()
        arrivals[item.seq] = arrival_ns
        engine = src.engine
        t = self.telemetry
        traced = False
        if t is not None and t.tracer.sampled(src.name, item.seq):
            traced = True
            key = (src.name, item.seq)
            if key in t.bag:
                # The transport already opened this trace at frame
                # receive; close the ingest stage at admission.
                dur = t.bag.stamp(key, _SID_INGEST_RECV, arrival_ns)
                if dur is not None:
                    t.observe_stage(STAGE_INGEST_RECV, dur)
            else:
                t.bag.begin(key, arrival_ns)
        emissions = engine.process(item) if engine is not None else []
        self._note_emissions(src, emissions)
        if traced:
            # Engine step time for this arrival, recorded without moving
            # the trace mark (the decide stage runs arrival -> emission).
            t.observe_stage(
                STAGE_DECIDE_EXEC, time.perf_counter_ns() - arrival_ns
            )
        await self._dispatch(src, emissions, now=item.timestamp)
        return len(emissions)

    async def feed(
        self, source_name: str, items: Iterable[StreamTuple]
    ) -> int:
        """Offer a whole iterable; returns tuple count."""
        count = 0
        for item in items:
            await self.offer(source_name, item)
            count += 1
        return count

    async def tick(
        self, now_ms: float, source_name: Optional[str] = None
    ) -> int:
        """Timer tick: timely cuts, region sweeps, latency-bound flushes."""
        if self._closed:
            raise RuntimeError("service is closed")
        targets = (
            [self._src(source_name)]
            if source_name is not None
            else list(self._sources.values())
        )
        emitted = 0
        self._ticks += 1
        for src in targets:
            async with src.lock:
                self._now = max(self._now, now_ms)
                engine = src.engine
                emissions: list[Emission] = []
                if engine is not None:
                    emissions = engine.tick(now_ms, cuts=self.config.tick_cuts)
                    self._note_emissions(src, emissions)
                await self._dispatch(src, emissions, now=now_ms)
                emitted += len(emissions)
        return emitted

    def _note_emissions(
        self, src: _SourceState, emissions: Sequence[Emission]
    ) -> None:
        """Count emissions and record their wall-clock decide latency.

        Latency is measured end-to-end with ``time.perf_counter_ns`` —
        from the tuple's arrival at the broker to its decided emission —
        not from stream-time timestamps, whose tick granularity (10 ms
        traces) used to pin the snapshot's ``decide_p50_ms`` at exactly
        one tick even when decides completed in microseconds.
        """
        self._decided_emissions += len(emissions)
        if not emissions:
            return
        now_ns = time.perf_counter_ns()
        arrivals = src.arrivals_ns
        window = self._decide_window
        t = self.telemetry
        for emission in emissions:
            # get, not pop: one tuple can be emitted more than once (the
            # pcs and batched outputs release per decision, not per
            # region); every emission must record its real latency, not
            # a 0 for the repeats.  Entries are reclaimed by the rebuild clear and
            # the older-half drop at the cap, so the map stays bounded.
            start_ns = arrivals.get(emission.item.seq)
            if start_ns is not None:
                window.append((now_ns - start_ns) / 1e6)
                if t is not None:
                    key = (src.name, emission.item.seq)
                    dur = t.bag.stamp(key, _SID_DECIDE, now_ns)
                    if dur is not None:
                        t.observe_stage(STAGE_DECIDE, dur)

    async def _dispatch(
        self, src: _SourceState, emissions: Sequence[Emission], now: float
    ) -> None:
        """Route emissions, run latency-due flushes, reap disconnects.

        Runs once per arrival and per tick, always under the source
        lock — which is what makes iterating the session dict directly
        safe (every mutator takes the same lock), so no per-arrival
        defensive copies."""
        if emissions:
            await self._route(src, emissions, now)
        for group in src.groups:
            if group.batcher.due(now):
                await self._ship(src, group, group.batcher.flush(now))
        if src.disconnects:
            src.disconnects = False
            dead = [s.app_name for s in src.sessions.values() if s.disconnected]
            for app in dead:
                await self._detach(src, app)
        if src.controlled:
            await self._adapt_quality(src)

    async def _adapt_quality(self, src: _SourceState) -> None:
        """Evaluate degradation controllers; apply at most one step each.

        Runs under the source lock at the tail of every dispatch (so
        arrivals *and* idle ticks drive both directions — recovery
        probing needs the tick cadence when a burst has passed and
        arrivals are sparse).  Decisions are collected first and applied
        after the iteration: applying one runs a cutover + rebuild,
        which must not happen mid-iteration over the session dict.
        """
        decisions: Optional[
            list[tuple[SubscriberSession, DegradationDecision]]
        ] = None
        tuple_bytes = self.config.tuple_size_bytes
        for session in src.controlled:
            controller = session.degradation
            if controller is None or session.disconnected:
                continue
            queue = session.queue
            if queue.wait_ms:
                controller.note_flush_wait(queue.wait_ms)
                queue.wait_ms = 0.0
            decision = controller.observe(
                time.monotonic(),
                queue_depth=session.queue.depth,
                queue_capacity=session.queue.capacity,
                dropped_tuples=session.stats.dropped_tuples,
                egress_bytes=session.stats.shipped_tuples * tuple_bytes,
            )
            if decision is not None:
                if decisions is None:
                    decisions = []
                decisions.append((session, decision))
        if not decisions:
            return
        for session, decision in decisions:
            await self._apply_degradation(src, session, decision)

    async def _apply_degradation(
        self,
        src: _SourceState,
        session: SubscriberSession,
        decision: DegradationDecision,
    ) -> None:
        """Push one controller decision through the re-filter machinery."""
        try:
            await self._re_filter_locked(src, session, decision.spec)
        except Exception:
            # Degradation is best-effort: a failed autonomous re-filter
            # must not break the ingest path.  The rollback inside
            # _re_filter_locked left the old spec serving; rewind the
            # controller to match.
            controller = session.degradation
            if controller is not None:
                controller.level = decision.from_level
                controller.trajectory.pop()
            return
        if self.telemetry is not None:
            self._m_degradation.labels(session.app_name).set(decision.to_level)
            self.telemetry.events.emit(
                "qos_degraded" if decision.action == "degrade"
                else "qos_recovered",
                app=session.app_name,
                source=src.name,
                from_level=decision.from_level,
                level=decision.to_level,
                spec=decision.spec,
                signal=decision.signal,
                value=round(decision.value, 4),
                threshold=decision.threshold,
            )
        if session.qos_listener is not None:
            session.qos_listener(
                {
                    "app": session.app_name,
                    "source": src.name,
                    "action": decision.action,
                    "level": decision.to_level,
                    "spec": decision.spec,
                    "signal": decision.signal,
                    "value": decision.value,
                    "threshold": decision.threshold,
                }
            )

    async def _route(
        self, src: _SourceState, emissions: Sequence[Emission], now: float
    ) -> None:
        """Stage each emission once per delivery group it names."""
        routes = src.routes
        for emission in emissions:
            recipients = emission.recipients
            groups = routes.get(recipients)
            if groups is None:
                # Recipients are interned per engine, so this runs once
                # per distinct combination in an epoch.
                groups = routes[recipients] = tuple(
                    group
                    for group in src.groups
                    if group.members[0].app_name in recipients
                )
            for group in groups:
                for queue in group.queues:
                    if not queue.disconnected:
                        queue.stats.staged_tuples += 1
                batch = group.batcher.stage(emission.item, emission.emit_ts)
                if batch is not None:
                    await self._ship(src, group, batch)

    async def _ship(
        self,
        src: _SourceState,
        group: _DeliveryGroup,
        batch,
        final: Container[str] = (),
    ) -> None:
        """One flushed batch onto every link the members read, once per
        link; the apps in ``final`` (leaving or closing) get it without
        blocking, as :meth:`_final_flush` delivers it."""
        t = self.telemetry
        if t is not None:
            self._m_flushes.inc(len(group.queues))
            if t.tracer.enabled:
                batch = self._traced(src, batch)
        for link, queues in group.links:
            if await link.put(batch, queues, final):
                src.disconnects = True

    async def _flush_groups(
        self, src: _SourceState, final: Container[str] = ()
    ) -> None:
        """Ship whatever every delivery group has staged."""
        for group in src.groups:
            batch = group.batcher.flush(self._now)
            if batch is not None:
                await self._ship(src, group, batch, final)

    def _collect_counts(self) -> None:
        """Offered tuples, decided emissions and ticks, from the counts
        the snapshot reports (a count still at 0 is not exposed yet)."""
        for metric, count in (
            (self._m_offers, self._offered),
            (self._m_decided, self._decided_emissions),
            (self._m_ticks, self._ticks),
        ):
            if count:
                metric.labels().value = float(count)

    def _collect_queues(self) -> None:
        """Session queue metrics from the queues' counters: drops per
        policy (live and retired sessions) and each live app's
        high-water mark."""
        drops = dict.fromkeys(OVERFLOW_POLICIES, 0)
        for retired in self._retired:
            drops[retired.policy] += retired.dropped_tuples
        for src in self._sources.values():
            for session in src.sessions.values():
                drops[session.queue.policy] += session.stats.dropped_tuples
                self._m_queue_hw.labels(session.app_name).max(
                    session.queue.high_water
                )
        for policy, dropped in drops.items():
            if dropped:
                self._m_drops.labels(policy).value = float(dropped)

    def _retire(self, session: SubscriberSession) -> None:
        """Keep a departed session's counters in broker-wide totals."""
        self._retired.append(self._session_snapshot(session))
        if self.telemetry is not None:
            self._m_queue_hw.labels(session.app_name).max(
                session.queue.high_water
            )

    def _traced(self, src: _SourceState, batch):
        """``batch`` carrying its sampled items' stages up to the flush.

        Attached once per flush, so every member of the group receives
        the same traces; the link that queued it stamps the queue dwell
        on its own copy as the batch is taken.  The batch-flush
        interval is measured against the trace mark without moving it,
        so every group an item fans out to sees the same decide
        boundary.  Returns ``batch`` itself when no item is sampled.
        """
        t = self.telemetry
        now_ns = time.perf_counter_ns()
        tmap = {}
        for item in batch.items:
            key = (src.name, item.seq)
            pairs = t.bag.peek(key)
            if pairs is None:
                continue
            dur = t.bag.since_mark(key, now_ns)
            if dur is not None:
                pairs.append((_SID_BATCH_FLUSH, dur))
                t.observe_stage(STAGE_BATCH_FLUSH, dur)
            tmap[item.seq] = tuple(pairs)
        return batch.with_traces((now_ns, tmap)) if tmap else batch

    def _final_flush(self, group: _DeliveryGroup) -> None:
        """Flush a group's batcher without blocking (teardown paths)."""
        batch = group.batcher.flush(self._now)
        if batch is not None:
            for link, queues in group.links:
                link.put_nowait(batch, queues)

    # ------------------------------------------------------------------
    # Observation and shutdown
    # ------------------------------------------------------------------
    @staticmethod
    def _session_snapshot(session: SubscriberSession) -> SessionSnapshot:
        return SessionSnapshot(
            app_name=session.app_name,
            source_name=session.source_name,
            spec=session.spec,
            policy=session.queue.policy,
            queue_depth=session.queue.depth,
            queue_capacity=session.queue.capacity,
            batcher_pending=session.batcher.pending,
            staged_tuples=session.stats.staged_tuples,
            enqueued_batches=session.stats.enqueued_batches,
            delivered_batches=session.stats.delivered_batches,
            delivered_tuples=session.stats.delivered_tuples,
            dropped_batches=session.stats.dropped_batches,
            dropped_tuples=session.stats.dropped_tuples,
            disconnected=session.disconnected,
        )

    def decide_window(self) -> list[float]:
        """The sliding window of wall-clock decide latencies (ms).

        Exposed so a front-tier router can merge several workers'
        windows into one percentile computation instead of averaging
        already-computed percentiles (which is not meaningful).
        """
        return list(self._decide_window)

    def snapshot(self) -> ServiceSnapshot:
        """Live stats: sessions, queue depths, drops, decide percentiles."""
        sessions = tuple(
            self._session_snapshot(session)
            for src in self._sources.values()
            for session in src.sessions.values()
        )
        # Retired engines plus the still-running ones: live cuts must
        # show up in periodic snapshots, not only after a cutover/close.
        cuts = self._cuts_triggered + sum(
            src.engine.cuts_triggered
            for src in self._sources.values()
            if src.engine is not None
        )
        return ServiceSnapshot.capture(
            now_ms=self._now,
            sources=tuple(self._sources),
            sessions=sessions,
            retired=tuple(self._retired),
            offered=self._offered,
            decided_emissions=self._decided_emissions,
            regroups=self._regroups,
            ticks=self._ticks,
            cuts_triggered=cuts,
            decide_window_ms=list(self._decide_window),
        )

    def results(self, source_name: str) -> list[EngineResult]:
        """Finished engine epochs for one source (complete after close).

        Empty unless the service was built with
        ``ServiceConfig(record_epochs=True)``: by default a live source
        keeps no per-decision log.
        """
        return list(self._src(source_name).epochs)

    async def close(self) -> dict[str, list[EngineResult]]:
        """Flush everything, finish engines, close sessions.

        Final flushes never block: if a closing batch cannot be enqueued
        it is counted as dropped rather than deadlocking shutdown.

        Returns every source's finished epochs, as :meth:`results` does
        — empty lists unless ``ServiceConfig(record_epochs=True)``.
        """
        if self._closed:
            return {src.name: list(src.epochs) for src in self._sources.values()}
        for src in self._sources.values():
            async with src.lock:
                await self._cutover(src, final=src.sessions)
                for session in src.sessions.values():
                    await session.close()
        self._closed = True
        return {src.name: list(src.epochs) for src in self._sources.values()}

