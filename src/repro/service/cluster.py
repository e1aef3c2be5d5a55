"""Multi-process source sharding behind a front-tier router.

One :class:`~repro.service.broker.DisseminationService` process tops out
around the engine's per-tuple decide cost — the GIL means more
subscribers or more sources only queue behind one interpreter.  The
paper's model partitions work by source (sources are independent: no
filter, candidate set or region ever spans two sources), which maps
directly onto process-per-shard scaling:

* **workers** — N subprocesses, each running the real networked broker
  (``python -m repro.experiments serve``: a ``DisseminationService``
  behind a :class:`~repro.transport.server.GatewayServer` plus the
  ``/healthz`` HTTP endpoint), each owning the sources that
  :func:`~repro.runtime.partition.shard_for_key` places on its shard;
* **router** — :class:`ClusterService` lives in the front-tier process
  and exposes the same async data-path surface as the broker
  (``offer`` / ``offer_many`` / ``subscribe`` / ``tick`` / ``snapshot``
  / ``close``), so the *existing* :class:`GatewayServer` fronts it
  unchanged: client connections, subscriptions and the encode-once
  decided fan-out all stay in the router while every decide runs in a
  worker process.  Router↔worker traffic is the wire protocol itself
  (:mod:`repro.transport.protocol`: binary tuple frames, JSON control
  frames) — there is no second serialization scheme;
* **supervisor** — workers are health-checked (``/healthz`` pings plus
  process liveness); a dead worker is replaced by its standby spare or
  respawned, its sources re-registered and its subscriptions
  re-subscribed with their previously resolved bounds, and the
  router-side sessions resume transparently.  A source the router
  holds a failover record for (checkpoint + tail) resumes exactly;
  any other sees a delivery gap, never a teardown.

Backpressure is preserved end to end: a ``block``-policy stall in a
worker withholds the ingest ack, which suspends the router's inline
forward for that producer connection — a slow worker throttles only the
producers of *its* sources, while other workers' producers keep their
own pace.

Snapshots merge: totals are summed across workers, per-session rows are
concatenated, and decide percentiles are computed over the *merged* raw
latency windows via :func:`repro.metrics.latency.latency_percentiles`
(averaging per-worker percentiles would be statistically meaningless).
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import sys
import time
from collections import deque
from contextlib import AsyncExitStack
from dataclasses import dataclass, replace as dc_replace
from typing import Optional, Sequence

from repro.metrics.latency import latency_percentiles
from repro.obs.metrics import merge_expositions, relabel_exposition
from repro.obs.telemetry import Telemetry
from repro.obs.trace import (
    STAGE_ROUTER_FORWARD,
    STAGE_ROUTER_REASSEMBLY,
    STAGE_SESSION_QUEUE,
    stage_id,
)
from repro.qos.controller import DegradationConfig, policy_to_profile
from repro.qos.spec import DegradationPolicy, QualitySpec
from repro.runtime.partition import HashRing
from repro.transport.client import GatewayClient, GatewayError
from repro.transport.protocol import MAX_FRAME_BYTES

__all__ = ["ClusterConfig", "ClusterService", "ClusterSession"]

#: Subscription-close reasons that are final: the worker (or the router)
#: ended the subscription on purpose, so the session must not re-attach.
#: Any other end — ``"migrated"`` (the source was exported) or a dead
#: connection — parks the session until :meth:`ClusterSession.adopt`.
_FINAL_REASONS = frozenset(
    {
        "unsubscribed",
        "overflow_disconnect",
        "shutdown",
        "frame_too_large",
        "router_closed",
        "worker_lost",
    }
)

_SID_ROUTER_FORWARD = stage_id(STAGE_ROUTER_FORWARD)
_SID_ROUTER_REASSEMBLY = stage_id(STAGE_ROUTER_REASSEMBLY)
_SID_SESSION_QUEUE = stage_id(STAGE_SESSION_QUEUE)

#: Tail tuples after which a covered source's failover checkpoint is
#: re-armed and its tail dropped.  The trade, measured on a 2-CPU Xeon
#: (one source, four subscribers, a random walk in 64-tuple frames): a
#: re-arm costs ~1.2 ms (one ~1 KB checkpoint round trip), ~1.2 us per
#: tuple at this cadence; a failover replays ~0.1 ms per tail tuple in
#: such frames (~0.4 ms one per frame), so at most ~0.1-0.4 s.
_REARM_TUPLES = 1024

#: Missed health checks in a row that declare a live worker dead.
_HEALTH_MISSES = 3
#: Sliding-window respawn budget per worker slot: more than
#: ``_RESPAWNS_PER_WINDOW`` respawn attempts inside
#: ``_RESPAWN_WINDOW_S`` declares the slot lost (a crash-looping
#: worker paces out via exponential backoff instead of burning a
#: lifetime budget in milliseconds; an occasional crash per hour
#: never exhausts anything).
_RESPAWNS_PER_WINDOW = 3
_RESPAWN_WINDOW_S = 60.0
#: Exponential backoff between respawn attempts (with +-50% jitter
#: so a correlated fleet-wide crash doesn't respawn in lockstep).
_RESPAWN_BACKOFF_BASE_S = 0.2
_RESPAWN_BACKOFF_MAX_S = 5.0
#: With an attached remediation loop (``--self-heal``) the
#: supervisor defers worker-death actuation this long so the
#: detect -> propose -> verify -> execute pipeline owns the fix;
#: past the grace it falls back to direct supervision (a dead
#: remediation loop must not strand a dead worker).
_DEFERRED_HEAL_GRACE_S = 10.0
#: Whole-handshake bound for one live source migration (gating
#: offers, draining, checkpoint transfer, restore).
_MIGRATE_TIMEOUT_S = 30.0
#: How long a starting worker has to report ready.
_READY_TIMEOUT_S = 30.0
#: How long data-path calls (and orphaned sessions) wait for a
#: respawning worker before giving up.
_REATTACH_TIMEOUT_S = 30.0


@dataclass(frozen=True)
class ClusterConfig:
    """One worker fleet: placement plus per-worker broker knobs."""

    workers: int = 2
    #: Sources advertised at startup; clients can add more at runtime
    #: through ``ensure_source`` (placed by the same stable hash).
    sources: tuple[str, ...] = ()
    algorithm: str = "region"
    constraint_ms: Optional[float] = None
    queue_capacity: int = 16
    overflow: str = "block"
    batch_max_items: int = 8
    batch_max_delay_ms: float = 50.0
    tick_cuts: bool = True
    max_frame_bytes: int = MAX_FRAME_BYTES
    #: Supervisor cadence (its tolerance is :data:`_HEALTH_MISSES`).
    health_interval_s: float = 1.0
    #: Standby workers.  Standby ``k`` is a blank spare process for
    #: primary ``k``'s slot, and the router keeps each covered source of
    #: that shard's checkpoint plus the tail of ingest and ticks since:
    #: a failover promotes the spare (or respawns the slot), restores
    #: the checkpoint, replays the tail, and subscribers' streams splice
    #: byte-identically.  Primaries beyond the standby count respawn cold.
    standby: int = 0

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        if self.standby < 0 or self.standby > self.workers:
            raise ValueError("standby must be between 0 and workers")


class _SessionQueue:
    """Queue facade over a cluster session for ``GatewayServer`` paths.

    The router's front tier inspects ``session.queue`` (capacity /
    policy / depth / closed, and ``close()`` in the shutdown
    wedge-breaker) and pumps ``session.queue.link``.  For a routed
    session the real bounded queue lives in the worker; this facade
    reports the worker-resolved bounds and the router-side buffer depth,
    and is a delivery link of one app: :meth:`take` hands out the
    session's batches one at a time, then its end item.
    """

    def __init__(self, session: "ClusterSession", capacity: int, policy: str):
        self._session = session
        self.app = session.app_name
        self.capacity = capacity
        self.policy = policy
        self._stream = None
        self._ended = False

    @property
    def link(self) -> "_SessionQueue":
        return self

    @property
    def depth(self) -> int:
        return self._session.remote.buffered

    @property
    def closed(self) -> bool:
        return self._session.closed

    async def take(self) -> list:
        if self._ended:
            raise StopAsyncIteration
        if self._stream is None:
            self._stream = self._session.batches()
        try:
            batch = await self._stream.__anext__()
        except StopAsyncIteration:
            self._ended = True
            return [(None, (self,))]
        return [(batch, (self,))]

    def drain_nowait(self) -> list:
        """Nothing waits here: the batches stream from the worker."""
        return []

    async def close(self) -> None:
        self._session.end_local("router_closed")


class _SessionBatcher:
    """Bounds-only stand-in for ``session.batcher`` (batching runs in
    the worker; the router only echoes the resolved bounds)."""

    __slots__ = ("max_items", "max_delay_ms", "pending")

    def __init__(self, max_items: int, max_delay_ms: float):
        self.max_items = max_items
        self.max_delay_ms = max_delay_ms
        self.pending = 0


class ClusterSession:
    """Router-side view of one app's subscription on some worker.

    Duck-compatible with the slice of
    :class:`~repro.service.session.SubscriberSession` the front tier
    touches: ``batches()``, ``disconnected``, ``migrated`` (never set:
    the router exports nothing), ``queue`` and ``batcher``.
    When the owning worker dies or exports the source mid-stream,
    :meth:`batches` parks until the router re-attaches it on the
    source's new process and then keeps yielding — the subscriber's
    socket never learns the worker changed.  Like a broker session it
    yields a traced batch as its own copy, with the router's stages
    stamped on (see :meth:`batches`).
    """

    def __init__(
        self,
        app_name: str,
        source_name: str,
        spec: str,
        remote,
        *,
        defaults: "ClusterConfig",
        telemetry: Optional[Telemetry] = None,
    ):
        self.app_name = app_name
        self.source_name = source_name
        self.spec = spec
        self.remote = remote
        self._telemetry = telemetry
        resolved = remote.resolved

        def bound(key: str, fallback):
            # None-check, not truthiness: 0.0 is a legitimate resolved
            # batching delay (immediate flush) and must survive the
            # echo to the client and any respawn re-subscribe.
            value = resolved.get(key)
            return fallback if value is None else value

        self.queue = _SessionQueue(
            self,
            int(bound("queue_capacity", defaults.queue_capacity)),
            str(bound("overflow", defaults.overflow)),
        )
        self.batcher = _SessionBatcher(
            int(bound("batch_max_items", defaults.batch_max_items)),
            float(bound("batch_max_delay_ms", defaults.batch_max_delay_ms)),
        )
        self.disconnected = False
        self.migrated = False
        self.closed = False
        self._explicit = False
        self._replacement: Optional[asyncio.Future] = None
        #: Tuples this session has yielded to the front tier.
        self.delivered_tuples = 0
        #: Position in the *current* remote's stream, counted as its
        #: worker's shipped tuples (reset at every generation switch; a
        #: splice's dropped prefix counts) — what a failover splice
        #: aligns against.  When a stream ends, its final count parks in
        #: :attr:`last_remote_delivered` for the splice-skip math.
        self.delivered_this_remote = 0
        self.last_remote_delivered = 0
        #: Wire-shape degradation profile (``policy_to_profile`` dict)
        #: with its ``level`` key tracking the worker's active level, so
        #: every re-subscribe path (respawn, migration, failover) can
        #: re-attach the ladder at the level the worker last reported.
        #: ``None`` for fixed-spec sessions and after a client re-filter
        #: (an explicit spec choice overrides the automatic policy).
        self.degradation: Optional[dict] = None
        #: Same contract as ``SubscriberSession.qos_listener``: the front
        #: tier wires this to a ``qos_update`` push frame; the router
        #: forwards every worker-side transition through it.
        self.qos_listener = None

    @property
    def degradation_level(self) -> int:
        """Active degradation level as last reported by the worker."""
        if self.degradation is None:
            return 0
        return int(self.degradation.get("level", 0))

    def adopt(self, remote) -> None:
        """Swap in the subscription a re-attach (failover, respawn or
        migration) made on the source's new process."""
        self.remote = remote
        waiter = self._replacement
        if waiter is not None and not waiter.done():
            waiter.set_result(remote)

    def mark_explicit(self) -> None:
        """The next stream end is intentional; do not re-attach."""
        self._explicit = True

    def end_local(self, reason: str) -> None:
        """End the session here (unsubscribe, shutdown, worker lost)."""
        self._explicit = True
        self.closed = True
        # A batches() loop parked waiting for a re-attach must end now,
        # not after the reattach timeout.
        waiter = self._replacement
        if waiter is not None and not waiter.done():
            waiter.set_result(None)
        self.remote.close_local(reason)

    def _stamp(self, batch):
        """The router's stages on a traced batch from the worker.

        The worker's decided frame carried each sampled tuple's stage
        pairs, marked when the router decoded it; this copy adds
        ``router_reassembly`` (frame decode -> the batch surfacing here)
        and then this session's ``session_queue`` — the hand-off to the
        front tier's pump, which this generator makes directly.  Only a
        router with telemetry asks its workers for traces.
        """
        now_ns = time.perf_counter_ns()
        dur = now_ns - batch.traces[0]
        for _ in batch.traces[1]:
            self._telemetry.observe_stage(STAGE_ROUTER_REASSEMBLY, dur)
        batch = batch.stamped(_SID_ROUTER_REASSEMBLY, now_ns)
        return batch.stamped(_SID_SESSION_QUEUE, now_ns)

    async def batches(self):
        """Yield delivered batches across worker generations."""
        while True:
            remote = self.remote
            async for batch in remote.batches():
                if batch.traces is not None:
                    batch = self._stamp(batch)
                self.delivered_tuples += len(batch.items)
                self.delivered_this_remote += len(batch.items)
                yield batch
            # The old stream is fully drained here, so its tuple count is
            # final — exactly what a standby splice must align against.
            self.last_remote_delivered = self.delivered_this_remote
            self.delivered_this_remote = 0
            reason = remote.closed_reason or "connection_closed"
            if reason == "overflow_disconnect":
                self.disconnected = True
            # An unsubscribe in flight goes to wherever a migrated
            # source lands, and that stream ends after its final flush.
            explicit = self._explicit and reason != "migrated"
            if explicit or self.closed or reason in _FINAL_REASONS:
                self.closed = True
                return
            # The source moved, or its worker connection died: wait for
            # the re-attach on the source's new process.
            replacement = await self._await_replacement(remote)
            if replacement is None:
                self.closed = True
                return

    async def _await_replacement(self, old):
        if self.remote is not old and self.remote.closed_reason is None:
            return self.remote  # adoption already happened
        loop = asyncio.get_running_loop()
        self._replacement = loop.create_future()
        # Re-check after installing the future: adopt() may have raced in
        # between the stream ending and the future existing.
        if self.remote is not old and self.remote.closed_reason is None:
            self._replacement = None
            return self.remote
        try:
            return await asyncio.wait_for(
                self._replacement, timeout=_REATTACH_TIMEOUT_S
            )
        except asyncio.TimeoutError:
            return None
        finally:
            self._replacement = None


class _SpliceRemote:
    """A re-attached subscription minus its already-delivered prefix.

    At failover the new process restores the router's checkpoint of the
    source and replays the tail kept since, so its stream for each app
    starts at the checkpoint's ``shipped`` offset (``consumed``) —
    behind what the dead stream had delivered.  Dropping exactly that
    prefix makes the spliced stream continue byte-identically from the
    subscriber's point of view: a delivery gap of zero, not a replay
    and not a hole.

    The skip is computed *lazily*, on first consumption: the session's
    ``batches()`` loop only switches remotes after fully draining the
    dead stream, so only then is ``last_remote_delivered`` final.  The
    checkpoint's reply followed every ``decided`` frame its offsets
    count, so ``consumed <= delivered`` and the skip is never negative;
    should the dead stream still have lost tuples, the clamp surfaces
    that as a small delivery gap, never as duplicates.  Dropped tuples
    count toward the session's position on this stream: the offset
    the next splice aligns against.
    """

    def __init__(self, remote, session: "ClusterSession", consumed: int):
        self._remote = remote
        self._session = session
        self._consumed = consumed
        self._skip: Optional[int] = None

    @property
    def resolved(self):
        return self._remote.resolved

    @property
    def closed_reason(self):
        return self._remote.closed_reason

    @property
    def buffered(self):
        return self._remote.buffered

    def close_local(self, reason: str) -> None:
        self._remote.close_local(reason)

    async def batches(self):
        session = self._session
        if self._skip is None:
            self._skip = max(0, session.last_remote_delivered - self._consumed)
        async for batch in self._remote.batches():
            if self._skip:
                items = batch.items
                if len(items) <= self._skip:
                    self._skip -= len(items)
                    session.delivered_this_remote += len(items)
                    continue
                # The copy carries no traces: the dropped prefix's went
                # out with the dead stream, and traces are advisory.
                batch = dc_replace(batch, items=items[self._skip :])
                session.delivered_this_remote += self._skip
                self._skip = 0
            yield batch


class _Record:
    """A covered source's failover state, held by the router.

    ``state`` is the latest ``snapshot_source`` payload (or the
    ``export_source`` payload a migration landed); ``tail`` lists what
    the primary applied since, in its order: each ingest's item
    list and each tick's ``now_ms`` (a float).  ``retries`` maps the
    ``id`` of a tail entry whose ingest failed with the primary to the
    future its caller waits on: the replay resolves it with the entry's
    emissions, a cold re-attach with ``None``.
    """

    __slots__ = ("state", "tail", "tuples", "retries")

    def __init__(self, state: dict):
        self.state = state
        self.tail: list = []
        self.tuples = 0
        self.retries: dict[int, asyncio.Future] = {}


class _Worker:
    """One worker slot: subprocess, gateway client, owned subscriptions."""

    def __init__(self, index: int, *, role: str = "primary", mirror_of: Optional[int] = None):
        self.index = index
        #: "primary" serves routed traffic; "standby" is a blank spare.
        self.role = role
        #: Primary slot index a standby spares (None for primaries).
        self.mirror_of = mirror_of
        self.process: Optional[asyncio.subprocess.Process] = None
        self.port: Optional[int] = None
        self.http_port: Optional[int] = None
        self.client: Optional[GatewayClient] = None
        self.ready = asyncio.Event()
        self.failed = False
        self.respawns = 0
        #: Monotonic timestamps of recent respawn attempts (the sliding
        #: budget window) and the backoff currently being served.
        self.respawn_times: deque[float] = deque()
        self.backoff_s = 0.0
        #: First time the supervisor saw this slot dead (deferred-heal
        #: grace accounting); None while alive.
        self.death_seen_ts: Optional[float] = None
        self.health_misses = 0
        #: Serializes heal decisions for this slot (monitor vs an
        #: attached remediation loop racing to fix the same death).
        self.heal_lock = asyncio.Lock()
        #: app -> ClusterSession, in subscription order (the broker
        #: groups filters by session insertion order, so respawn
        #: re-subscribes in the same order).
        self.apps: dict[str, ClusterSession] = {}
        self.stdout_tail: deque[str] = deque(maxlen=8)
        self.drain_task: Optional[asyncio.Task] = None
        self.respawn_task: Optional[asyncio.Task] = None
        #: High-water mark of worker-local event ids already folded into
        #: the router's event log (reset on respawn: fresh process,
        #: fresh id space).
        self.events_cursor = 0


class ClusterService:
    """Front-tier router over N worker broker processes.

    Presents the broker's async data-path surface (so a
    :class:`~repro.transport.server.GatewayServer` can front it), routes
    every source to its worker by stable BLAKE2 key hashing, supervises
    the fleet, and merges observability.
    """

    def __init__(
        self,
        config: ClusterConfig,
        *,
        telemetry: Optional[Telemetry] = None,
    ):
        self.config = config
        self._workers = [_Worker(i) for i in range(config.workers)]
        #: Standby tier: standby ``k`` spares primary ``k``'s slot.
        #: Standbys live outside ``_workers`` so primary indexing (and
        #: every merged-snapshot total) never sees them.
        self._standbys = [
            _Worker(config.workers + k, role="standby", mirror_of=k)
            for k in range(config.standby)
        ]
        #: Consistent-hash ring over primary slot indexes: adding or
        #: removing a worker moves ~1/N of the sources instead of
        #: reshuffling nearly all of them (which modulo hashing did).
        self._ring = HashRing(range(config.workers))
        #: Source registry (insertion-ordered); values are shard
        #: indexes.  This map is *authoritative* — the ring only places
        #: sources on first registration, so a migrated source stays
        #: where the migration put it.
        self._sources: dict[str, int] = {}
        #: Per-source serialization of the data path against migration,
        #: failover and re-arming (uncontended in steady state); it also
        #: orders each failover tail.
        self._source_locks: dict[str, asyncio.Lock] = {}
        #: Failover records of the covered sources (see :meth:`_arm`).
        self._records: dict[str, _Record] = {}
        #: Set by an attached remediation loop: worker-death actuation
        #: is deferred (up to ``_DEFERRED_HEAL_GRACE_S``) so the
        #: propose/verify/schedule pipeline owns the fix.
        self.defer_death_handling = False
        self._apps: dict[str, ClusterSession] = {}
        self._monitor_task: Optional[asyncio.Task] = None
        self._arm_task: Optional[asyncio.Task] = None
        self._started = False
        self._closed = False
        self._final_snapshot: Optional[dict] = None
        self.telemetry = telemetry
        #: Telemetry handed to the router->worker gateway clients: it
        #: makes them *offer* the trace feature (so workers send decided
        #: traces back) but never auto-sample — the router attaches the
        #: carried trace pairs explicitly on the forward path.
        self._client_telemetry: Optional[Telemetry] = None
        self._m_migrations = None
        self._m_rearms = None
        if telemetry is not None:
            self._client_telemetry = Telemetry(
                sample_period=0, event_capacity=1, trace_capacity=1
            )
            registry = telemetry.registry
            m_alive = registry.gauge(
                "repro_cluster_worker_alive",
                "1 when the worker process is running and ready.",
                ("worker",),
            )
            m_respawns = registry.counter(
                "repro_cluster_worker_respawns_total",
                "Supervisor respawns per worker slot.",
                ("worker",),
            )
            m_sessions = registry.gauge(
                "repro_cluster_sessions", "Live routed subscriber sessions."
            )
            self._m_placements = registry.counter(
                "repro_cluster_placement_moves_total",
                "Source placements onto workers.",
                ("worker",),
            )
            m_backoff = registry.gauge(
                "repro_cluster_respawn_backoff_s",
                "Backoff delay the slot's next respawn attempt is "
                "serving (0 when not backing off).",
                ("worker",),
            )
            m_window = registry.gauge(
                "repro_cluster_respawn_window",
                "Respawn attempts inside the sliding budget window.",
                ("worker",),
            )
            self._m_migrations = registry.counter(
                "repro_cluster_migrations_total",
                "Live source migrations by outcome.",
                ("outcome",),
            )
            m_standby_armed = registry.gauge(
                "repro_cluster_standby_armed_sources",
                "Sources of this standby's shard whose failover "
                "checkpoint the router holds.",
                ("worker",),
            )
            m_standby_tail = registry.gauge(
                "repro_cluster_standby_tail_tuples",
                "Tuples in the failover tails the router holds for this "
                "standby's shard (replayed at failover).",
                ("worker",),
            )
            self._m_rearms = registry.counter(
                "repro_cluster_standby_rearms_total",
                "Failover checkpoints taken (first arms and re-arms).",
            )

            def _collect_fleet() -> None:
                now = time.monotonic()
                for worker in self._workers + self._standbys:
                    label = str(worker.index)
                    alive = (
                        worker.process is not None
                        and worker.process.returncode is None
                        and worker.ready.is_set()
                    )
                    m_alive.labels(label).set(1.0 if alive else 0.0)
                    m_respawns.labels(label).value = float(worker.respawns)
                    m_backoff.labels(label).set(worker.backoff_s)
                    in_window = sum(
                        1
                        for ts in worker.respawn_times
                        if now - ts <= _RESPAWN_WINDOW_S
                    )
                    m_window.labels(label).set(float(in_window))
                for standby in self._standbys:
                    label = str(standby.index)
                    records = [
                        self._records[s] for s in self._armed_sources(standby)
                    ]
                    m_standby_armed.labels(label).set(float(len(records)))
                    m_standby_tail.labels(label).set(
                        float(sum(r.tuples for r in records))
                    )
                m_sessions.set(float(self.session_count()))

            registry.register_collector(_collect_fleet)

    def _emit(self, kind: str, **fields) -> None:
        if self.telemetry is not None:
            self.telemetry.events.emit(kind, **fields)

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    def shard_of(self, source_name: str) -> int:
        """Worker slot index for a source.

        The registry override wins — a migrated source stays wherever
        the migration put it — and otherwise the consistent-hash ring
        places it, so growing the fleet moves only ~1/N of the sources.
        """
        placed = self._sources.get(source_name)
        if placed is not None:
            return placed
        owner = self._ring.owner(source_name)
        return 0 if owner is None else owner

    def _shard_sources(self, index: Optional[int]) -> list[str]:
        return [s for s, shard in self._sources.items() if shard == index]

    def _primary(self, shard: int) -> _Worker:
        for worker in self._workers:
            if worker.index == shard:
                return worker
        raise KeyError(f"no worker slot {shard}")

    def _slot(self, index: int) -> Optional[_Worker]:
        for worker in self._workers + self._standbys:
            if worker.index == index:
                return worker
        return None

    def _source_lock(self, source_name: str) -> asyncio.Lock:
        lock = self._source_locks.get(source_name)
        if lock is None:
            lock = self._source_locks[source_name] = asyncio.Lock()
        return lock

    def _standby_slot(self, shard: int) -> Optional[_Worker]:
        """The standby slot of primary ``shard``, unless lost (or None)."""
        for standby in self._standbys:
            if standby.mirror_of == shard and not standby.failed:
                return standby
        return None

    def _standby_for(self, shard: int) -> Optional[_Worker]:
        """The live, ready standby of primary ``shard`` (or None)."""
        standby = self._standby_slot(shard)
        if (
            standby is None
            or standby.process is None
            or standby.process.returncode is not None
            or not standby.ready.is_set()
            or standby.client is None
        ):
            return None
        return standby

    def _armed_sources(self, standby: _Worker) -> list[str]:
        return [
            s for s in self._shard_sources(standby.mirror_of) if s in self._records
        ]

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        if self._started:
            raise RuntimeError("cluster already started")
        self._started = True
        for name in self.config.sources:
            self._sources.setdefault(name, self.shard_of(name))
        fleet = self._workers + self._standbys
        results = await asyncio.gather(
            *(self._launch(worker) for worker in fleet),
            return_exceptions=True,
        )
        failures = [r for r in results if isinstance(r, BaseException)]
        if failures:
            await self._terminate_workers()
            raise failures[0]
        for worker in fleet:
            worker.ready.set()
        self._monitor_task = asyncio.ensure_future(self._monitor())

    def _worker_command(self, worker: _Worker) -> list[str]:
        cfg = self.config
        command = [
            sys.executable,
            "-m",
            "repro.experiments",
            "serve",
            "--host",
            "127.0.0.1",
            "--port",
            "0",
            "--http-port",
            "0",
            "--sources",
            ",".join(
                self._shard_sources(
                    worker.mirror_of if worker.role == "standby" else worker.index
                )
            ),
            "--algorithm",
            cfg.algorithm,
            "--queue-capacity",
            str(cfg.queue_capacity),
            "--overflow",
            cfg.overflow,
            "--batch-items",
            str(cfg.batch_max_items),
            "--batch-delay-ms",
            str(cfg.batch_max_delay_ms),
            "--max-frame-bytes",
            str(cfg.max_frame_bytes),
            # Workers never self-watch; health analysis runs once, at
            # the router, over the merged fleet surfaces.
            "--watch-interval",
            "0",
        ]
        if cfg.constraint_ms is not None:
            command += ["--constraint-ms", str(cfg.constraint_ms)]
        if not cfg.tick_cuts:
            command.append("--no-tick-cuts")
        if self.telemetry is not None:
            command += [
                "--trace-sample",
                str(self.telemetry.tracer.sample_period),
            ]
        else:
            command.append("--no-telemetry")
        return command

    @staticmethod
    def _signal(process: asyncio.subprocess.Process, *, kill: bool) -> None:
        """Best-effort terminate/kill (the process may already be gone)."""
        try:
            if kill:
                process.kill()
            else:
                process.terminate()
        except ProcessLookupError:
            pass

    @staticmethod
    def _worker_env() -> dict:
        """Child env that can import repro even from a source checkout."""
        import repro

        env = dict(os.environ)
        package_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (package_root, env.get("PYTHONPATH")) if p
        )
        return env

    async def _launch(self, worker: _Worker) -> None:
        """Spawn one worker process and connect its gateway client."""
        process = await asyncio.create_subprocess_exec(
            *self._worker_command(worker),
            stdout=asyncio.subprocess.PIPE,
            stderr=asyncio.subprocess.STDOUT,
            env=self._worker_env(),
            # The terminal snapshot is one JSON line that grows with
            # retired sessions; the default 64 KiB readline limit would
            # kill the drain task on a churn-heavy worker.
            limit=1 << 23,
        )
        worker.process = process
        worker.health_misses = 0
        try:
            ready_line = await asyncio.wait_for(
                self._read_ready_line(process),
                timeout=_READY_TIMEOUT_S,
            )
            # "gateway listening on HOST:PORT, http on HOST:PORT"
            parts = ready_line.strip().split(", http on ")
            worker.port = int(parts[0].rsplit(":", 1)[1])
            worker.http_port = (
                int(parts[1].rsplit(":", 1)[1]) if len(parts) > 1 else None
            )
            worker.drain_task = asyncio.ensure_future(
                self._drain_stdout(worker)
            )
            worker.client = await GatewayClient.connect(
                "127.0.0.1",
                worker.port,
                max_frame_bytes=self.config.max_frame_bytes,
                telemetry=self._client_telemetry,
            )
            worker.events_cursor = 0
            self._emit(
                "worker_spawn",
                worker=worker.index,
                role=worker.role,
                pid=process.pid,
                port=worker.port,
                http_port=worker.http_port,
            )
        except BaseException:
            await self._stop_process(worker, kill=True)
            raise

    @staticmethod
    async def _read_ready_line(process: asyncio.subprocess.Process) -> str:
        while True:
            line = await process.stdout.readline()
            if not line:
                raise RuntimeError(
                    f"worker exited before its ready line "
                    f"(returncode={process.returncode})"
                )
            text = line.decode("utf-8", "replace")
            if "listening on" in text:
                return text

    async def _drain_stdout(self, worker: _Worker) -> None:
        """Keep the worker's stdout pipe empty; remember the tail.

        The last line a gracefully stopped worker prints is its terminal
        snapshot JSON — :meth:`close` merges those for the final stats.
        """
        process = worker.process
        while True:
            try:
                line = await process.stdout.readline()
            except ValueError:
                # A line overran even the raised stream limit; consume
                # the buffered bytes so the loop makes progress instead
                # of dying (teardown awaits this task).
                if not await process.stdout.read(1 << 16):
                    return
                continue
            if not line:
                return
            worker.stdout_tail.append(line.decode("utf-8", "replace").strip())

    async def close(self) -> dict:
        """Stop the fleet gracefully; returns the merged final snapshot.

        Mirrors the broker's ``close()`` contract as the front tier sees
        it: after this returns, every session's remaining batches are
        either in flight to the router's pumps or accounted as dropped.
        Workers get SIGTERM (their own graceful path final-flushes every
        batcher onto our sockets and prints a terminal snapshot), and
        the merged terminal totals become the router's final snapshot.
        """
        if self._closed:
            return dict(self._final_snapshot or {})
        self._closed = True
        if self._monitor_task is not None:
            self._monitor_task.cancel()
            try:
                await self._monitor_task
            except (asyncio.CancelledError, Exception):
                # A monitor that already died (e.g. a kill() racing a
                # process exit) must not abort shutdown: the workers
                # below still need terminating.
                pass
        tasks = [self._arm_task] + [w.respawn_task for w in self._workers + self._standbys]
        for task in tasks:
            if task is not None and not task.done():
                task.cancel()
                try:
                    await task
                except (asyncio.CancelledError, Exception):
                    pass
        # Latency windows must be read before the workers die; terminal
        # totals come from the terminal snapshots afterwards.  Standbys
        # serve no traffic, so they are left out.
        live = await asyncio.gather(
            *(self._worker_snapshot(worker) for worker in self._workers)
        )
        window: list[float] = []
        for snapshot in live:
            if snapshot is not None:
                window.extend(snapshot.get("decide_window_ms", ()))
        await self._terminate_workers()
        terminals = []
        for worker, fallback in zip(self._workers, live):
            terminal = self._parse_terminal(worker)
            if terminal is None:
                # Crashed or unreachable worker: fall back to its last
                # live snapshot so totals degrade, not vanish.
                terminal = fallback
            if terminal is not None:
                terminals.append(terminal)
        for session in list(self._apps.values()):
            if not session.closed:
                session.end_local("shutdown")
        self._final_snapshot = self._merge(terminals, window_override=window)
        return dict(self._final_snapshot)

    async def _terminate_workers(self) -> None:
        # Concurrent: every process is signalled before any is waited on.
        await asyncio.gather(
            *(
                self._stop_process(worker, kill=False)
                for worker in self._workers + self._standbys
            )
        )

    async def _stop_process(self, worker: _Worker, *, kill: bool) -> None:
        """Stop the slot's process — SIGKILL, or SIGTERM with a 10 s
        grace before SIGKILL — then await its stdout drain and close its
        client.  The slot is left unready and empty of both."""
        worker.ready.clear()
        process = worker.process
        if process is not None:
            if process.returncode is None:
                self._signal(process, kill=kill)
            try:
                await asyncio.wait_for(process.wait(), timeout=10.0)
            except asyncio.TimeoutError:
                self._signal(process, kill=True)
                await process.wait()
        if worker.drain_task is not None:
            await worker.drain_task
            worker.drain_task = None
        if worker.client is not None:
            await worker.client.close(send_bye=False)
            worker.client = None

    @staticmethod
    def _parse_terminal(worker: _Worker) -> Optional[dict]:
        for line in reversed(worker.stdout_tail):
            if line.startswith("{"):
                try:
                    return json.loads(line)
                except json.JSONDecodeError:
                    continue
        return None

    # ------------------------------------------------------------------
    # Supervision
    # ------------------------------------------------------------------
    def _schedule_respawn(self, worker: _Worker) -> None:
        """Start a per-worker respawn task (at most one per slot).

        Respawns run concurrently: one slot's slow (or repeatedly
        failing) replacement must not stall health checks — or the
        respawn — of the rest of the fleet.
        """
        if worker.respawn_task is not None and not worker.respawn_task.done():
            return
        worker.respawn_task = asyncio.ensure_future(self._respawn(worker))

    async def _monitor(self) -> None:
        cfg = self.config
        # Not `while True`: on Python < 3.12 a `wait_for` whose inner
        # await completes as close() cancels this task swallows the
        # cancel, and close() would wait on the monitor forever.
        while not self._closed:
            await asyncio.sleep(cfg.health_interval_s)
            for worker in self._workers + self._standbys:
                if worker.failed:
                    continue
                if (
                    worker.respawn_task is not None
                    and not worker.respawn_task.done()
                ):
                    continue
                process = worker.process
                if process is None or process.returncode is not None:
                    await self._on_worker_death(
                        worker,
                        returncode=(
                            process.returncode if process is not None else None
                        ),
                    )
                    continue
                if not worker.ready.is_set():
                    continue
                if await self._healthz(worker):
                    worker.health_misses = 0
                    continue
                worker.health_misses += 1
                if worker.health_misses >= _HEALTH_MISSES:
                    # Alive but unresponsive: treat as dead.
                    self._signal(process, kill=True)
                    await process.wait()
                    await self._on_worker_death(
                        worker,
                        returncode=process.returncode,
                        reason="unresponsive",
                    )
            # A covered source without a failover record (born since,
            # or back cold) is armed on the supervisor's cadence, in a
            # task of its own: a snapshot stuck behind backpressure must
            # not stall the health checks.
            if self._arm_task is None or self._arm_task.done():
                self._arm_task = asyncio.ensure_future(self._arm_missing())

    async def _arm_missing(self) -> None:
        for source in list(self._sources):
            if source in self._records:
                continue
            worker = self._primary(self.shard_of(source))
            if self._standby_slot(worker.index) is None:
                continue
            async with self._source_lock(source):
                if source not in self._records and (
                    self._primary(self.shard_of(source)) is worker
                ):
                    await self._arm(source, worker)

    async def _on_worker_death(
        self,
        worker: _Worker,
        *,
        returncode: Optional[int],
        reason: Optional[str] = None,
    ) -> None:
        """First sighting emits the verdict-grade ``worker_death`` event
        and (for primaries under ``--self-heal``) starts the deferred
        grace so the remediation loop owns the fix; past the grace the
        supervisor heals directly."""
        now = time.monotonic()
        if worker.death_seen_ts is None:
            worker.death_seen_ts = now
            # Data-path calls park on `ready` instead of erroring into
            # producers while the heal decision is pending.
            worker.ready.clear()
            fields = {
                "worker": worker.index,
                "role": worker.role,
                "returncode": returncode,
            }
            if reason:
                fields["reason"] = reason
            self._emit("worker_death", **fields)
        if (
            worker.role == "primary"
            and self.defer_death_handling
            and now - worker.death_seen_ts < _DEFERRED_HEAL_GRACE_S
        ):
            return
        await self.heal_worker(worker.index)

    async def heal_worker(
        self, index: int, *, prefer_standby: bool = True
    ) -> str:
        """Actuate recovery for one worker slot (remediation surface).

        Returns what happened: ``"noop"`` (already healthy), ``"adopted"``
        (an armed standby was promoted in place), ``"respawned"`` (a
        replacement process is coming up under the backoff budget), or
        ``"lost"`` (the slot exhausted its respawn budget).
        """
        worker = self._slot(index)
        if worker is None:
            raise KeyError(f"no worker slot {index}")
        async with worker.heal_lock:
            if worker.failed:
                return "lost"
            process = worker.process
            if (
                process is not None
                and process.returncode is None
                and worker.ready.is_set()
            ):
                return "noop"
            if worker.role == "primary" and prefer_standby:
                standby = self._standby_for(worker.index)
                if standby is not None:
                    try:
                        await self.adopt_standby(worker.index)
                        return "adopted"
                    except Exception:
                        # Promotion raced the standby dying (or worse):
                        # cold respawn is always available.
                        pass
            self._schedule_respawn(worker)
            return "respawned"

    @staticmethod
    def _probe(worker: _Worker):
        """The HTTP client for ``worker``'s snapshot endpoint; a failed
        read yields ``None`` (or no events), so a worker dying mid-read
        degrades the merged view, never the read itself."""
        # Imported here, not at the top: importing the router loads no
        # more than the closure ``serve`` starts with.
        from repro.obs.watch import HttpProbe

        return HttpProbe("127.0.0.1", worker.http_port)

    async def _healthz(self, worker: _Worker) -> bool:
        if worker.http_port is None:
            return True
        return await self._probe(worker).get("/healthz") is not None

    async def _respawn(self, worker: _Worker) -> None:
        """Drain a dead worker slot and bring up a replacement.

        Attempts are paced by a jittered exponential backoff and bounded
        by a *sliding-window* budget: more than ``_RESPAWNS_PER_WINDOW``
        attempts inside ``_RESPAWN_WINDOW_S`` declares the slot lost, but
        an occasional crash per hour never exhausts anything.  The first
        attempt after a quiet period is immediate.

        For a primary, every source re-attaches (:meth:`_reattach`):
        a covered source restores the router's checkpoint, replays its
        tail and splices; any other source's sessions re-subscribe with
        their previously resolved bounds on a fresh epoch — a delivery
        gap, which is the paper's timeliness-over-completeness stance
        applied to process failure.  A respawned standby comes back as a
        blank spare.
        """
        self._emit("drain_start", worker=worker.index)
        await self._stop_process(worker, kill=True)
        self._emit("drain_end", worker=worker.index)
        while True:
            now = time.monotonic()
            while (
                worker.respawn_times
                and now - worker.respawn_times[0] > _RESPAWN_WINDOW_S
            ):
                worker.respawn_times.popleft()
            if len(worker.respawn_times) >= _RESPAWNS_PER_WINDOW:
                break  # budget exhausted inside the window: slot lost
            attempt = len(worker.respawn_times) + 1
            if attempt > 1:
                backoff = min(
                    _RESPAWN_BACKOFF_MAX_S,
                    _RESPAWN_BACKOFF_BASE_S * (2 ** (attempt - 2)),
                ) * random.uniform(0.5, 1.5)
                worker.backoff_s = backoff
                self._emit(
                    "respawn_backoff",
                    worker=worker.index,
                    role=worker.role,
                    attempt=attempt,
                    backoff_s=round(backoff, 3),
                )
                await asyncio.sleep(backoff)
                worker.backoff_s = 0.0
            worker.respawn_times.append(time.monotonic())
            worker.respawns += 1
            try:
                await self._launch(worker)
                spliced = cold = 0
                if worker.role == "primary":
                    spliced, cold = await self._reattach_shard(worker)
                else:
                    worker.ready.set()
                worker.death_seen_ts = None
                self._emit(
                    "worker_respawn",
                    worker=worker.index,
                    role=worker.role,
                    respawns=worker.respawns,
                    spliced=spliced,
                    cold=cold,
                )
                return
            except Exception:
                await self._stop_process(worker, kill=True)
        worker.failed = True
        worker.backoff_s = 0.0
        self._emit(
            "worker_lost",
            worker=worker.index,
            role=worker.role,
            respawns=worker.respawns,
        )
        for app, session in list(worker.apps.items()):
            session.end_local("worker_lost")
            worker.apps.pop(app, None)
            if self._apps.get(app) is session:
                del self._apps[app]

    async def _worker_for(self, source_name: str) -> _Worker:
        worker = self._primary(self.shard_of(source_name))
        if worker.failed:
            raise RuntimeError(
                f"worker {worker.index} (sources like {source_name!r}) is lost"
            )
        if not worker.ready.is_set():
            try:
                await asyncio.wait_for(
                    worker.ready.wait(), timeout=_REATTACH_TIMEOUT_S
                )
            except asyncio.TimeoutError:
                raise RuntimeError(
                    f"worker {worker.index} did not come back in time"
                ) from None
            if worker.failed:
                raise RuntimeError(f"worker {worker.index} is lost")
        return worker

    # ------------------------------------------------------------------
    # Topology (the GatewayServer-facing surface)
    # ------------------------------------------------------------------
    def sources(self) -> tuple[str, ...]:
        return tuple(self._sources)

    def has_source(self, source_name: str) -> bool:
        return source_name in self._sources

    async def add_source(self, source_name: str) -> None:
        """Advertise a source, registering it on its worker."""
        if source_name in self._sources:
            return
        shard = self.shard_of(source_name)
        self._sources[source_name] = shard
        try:
            worker = await self._worker_for(source_name)
            await worker.client.ensure_source(source_name)
            if self.telemetry is not None:
                self._m_placements.labels(str(shard)).inc()
                self._emit(
                    "source_placed", source=source_name, worker=shard
                )
        except (ConnectionError, GatewayError) as exc:
            del self._sources[source_name]
            raise RuntimeError(f"cannot place source {source_name!r}: {exc}") from exc
        except BaseException:
            del self._sources[source_name]
            raise

    def session_count(self) -> int:
        return sum(0 if s.closed else 1 for s in self._apps.values())

    def subscriptions(self, source_name: str) -> list[tuple[str, str]]:
        if source_name not in self._sources:
            raise KeyError(f"unknown source {source_name!r}")
        return [
            (s.app_name, s.spec)
            for s in self._apps.values()
            if s.source_name == source_name and not s.closed
        ]

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    def _require_source(self, source_name: str) -> None:
        if source_name not in self._sources:
            raise KeyError(f"unknown source {source_name!r}")

    async def _ingest_guarded(self, source_name: str):
        """Acquire the source's lock with a consistent worker.

        The ready-wait happens *outside* the lock (a parked offer must
        not block the migration or adoption that would unpark it), then
        the placement is re-checked under the lock — a migration may
        have moved the source while we waited.  Returns ``(lock,
        worker)`` with the lock held.
        """
        while True:
            worker = await self._worker_for(source_name)
            lock = self._source_lock(source_name)
            await lock.acquire()
            if (
                self._primary(self.shard_of(source_name)) is worker
                and worker.ready.is_set()
            ):
                return lock, worker
            lock.release()

    async def offer(self, source_name: str, item) -> int:
        """Route one tuple: an :meth:`offer_many` of one."""
        return await self.offer_many(source_name, (item,))

    def _forward_traces(
        self, source_name: str, items: Sequence
    ) -> Optional[dict]:
        """Close each sampled tuple's ``router_forward`` stage and hand
        its pairs over.

        The front-tier gateway opened the trace in the router's bag at
        frame decode; the forward write to the worker closes it here —
        the worker's broker takes the relay from the wire copy.
        """
        tele = self.telemetry
        if tele is None or not tele.tracer.enabled:
            return None
        bag = tele.bag
        traces = {}
        for item in items:
            key = (source_name, item.seq)
            if key not in bag:
                continue
            dur = bag.stamp(key, _SID_ROUTER_FORWARD, time.perf_counter_ns())
            if dur is not None:
                tele.observe_stage(STAGE_ROUTER_FORWARD, dur)
            pairs = bag.pop(key)
            if pairs:
                traces[item.seq] = pairs
        return traces or None

    async def offer_many(self, source_name: str, items: Sequence) -> int:
        """Route tuples to their source's worker; ack-for-ack.

        The worker's ack *is* the broker's completion: a block-policy
        stall inside the worker withholds it, which suspends exactly the
        router read loop that forwarded this frame — per-connection
        backpressure survives the extra hop.  The per-source lock held
        across the ingest is the migration/re-arm offer gate, and it
        orders a covered source's failover tail.  A frame that fails
        with its worker is retried by the failover when the source is
        covered (:meth:`_await_retry`), and raises otherwise.
        """
        self._require_source(source_name)
        if not items:
            return 0
        lock, worker = await self._ingest_guarded(source_name)
        try:
            traces = self._forward_traces(source_name, items)
            try:
                emissions = await worker.client.ingest_many(
                    source_name, items, traces=traces
                )
            except (ConnectionError, GatewayError) as exc:
                retry = self._retry_in_tail(source_name, worker, tuple(items), exc)
            else:
                if source_name in self._records:
                    await self._extend_tail(source_name, worker, tuple(items))
                return int(emissions or 0)
        finally:
            lock.release()
        return await self._await_retry(source_name, retry)

    async def _extend_tail(
        self, source_name: str, worker: _Worker, items: tuple
    ) -> None:
        """Append an acked ingest to a covered source's tail (caller
        holds the source lock); re-arm once it holds ``_REARM_TUPLES``."""
        record = self._records[source_name]
        record.tail.append(items)
        record.tuples += len(items)
        if record.tuples >= _REARM_TUPLES:
            await self._arm(source_name, worker)

    def _retry_in_tail(
        self, source_name: str, worker: _Worker, items: tuple, exc: Exception
    ):
        """An ingest failed with its worker (caller holds the source
        lock).  A covered source's frame joins the tail, where the
        failover replays it; anything else raises as before."""
        record = self._records.get(source_name)
        if record is None or not isinstance(exc, ConnectionError):
            raise RuntimeError(
                f"worker {worker.index} failed ingest for {source_name!r}: {exc}"
            ) from exc
        future = asyncio.get_running_loop().create_future()
        record.tail.append(items)
        record.tuples += len(items)
        record.retries[id(items)] = future
        return record, items, future

    async def _await_retry(self, source_name: str, retry) -> int:
        """Wait for the re-attach that replays a failed frame (at most
        ``_REATTACH_TIMEOUT_S``); return its emissions.  A cold
        re-attach, or none in time, raises — and a frame still waiting
        then leaves the tail, so it is never applied after its caller
        was told it failed."""
        record, items, future = retry
        await asyncio.wait((future,), timeout=_REATTACH_TIMEOUT_S)
        if not future.done():
            async with self._source_lock(source_name):
                if not future.done():
                    future.set_result(None)
                    record.retries.pop(id(items), None)
                    record.tail = [e for e in record.tail if e is not items]
                    record.tuples -= len(items)
        emissions = future.result()
        if emissions is None:
            raise RuntimeError(
                f"ingest for {source_name!r} failed with its worker, "
                "and the failover did not replay it"
            )
        return emissions

    async def tick(self, now_ms: float, source_name: Optional[str] = None) -> int:
        """Broadcast a timer tick to the primaries (or route a
        per-source one).

        Where a worker's sources hold failover records, the forward runs
        under those sources' locks, so the tick takes its exact place in
        each tail; a tick a dead worker missed joins the tails as well,
        for the failover to replay.
        """
        if source_name is not None:
            self._require_source(source_name)
            worker = await self._worker_for(source_name)
            return await self._tick_worker(worker, now_ms, source_name)
        return sum(
            await asyncio.gather(
                *(
                    self._tick_worker(worker, now_ms, None)
                    for worker in self._workers
                    if not worker.failed
                )
            )
        )

    async def _tick_worker(
        self, worker: _Worker, now_ms: float, source_name: Optional[str]
    ) -> int:
        sources = (
            (source_name,)
            if source_name is not None
            else self._shard_sources(worker.index)
        )
        recorded = sorted(s for s in sources if s in self._records)
        async with AsyncExitStack() as stack:
            for source in recorded:
                await stack.enter_async_context(self._source_lock(source))
            emissions = 0
            if worker.ready.is_set() and worker.client is not None:
                try:
                    emissions = await worker.client.tick(now_ms, source_name)
                except GatewayError:
                    return 0  # refused: applied nowhere
                except ConnectionError:
                    pass  # died with it: the failover replays it
            for source in recorded:
                record = self._records.get(source)
                if record is not None and self._sources[source] == worker.index:
                    record.tail.append(float(now_ms))
        return emissions

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
        degradation=None,
        degradation_level: int = 0,
        degradation_config: Optional[DegradationConfig] = None,
        link=None,
    ) -> ClusterSession:
        """Attach a subscriber on its source's worker.

        Same signature the broker exposes (the front tier calls either
        interchangeably); QoS resolution happens in the worker, and the
        resolved bounds come back with the subscribe reply.  ``link`` is
        not used: the session's batches arrive from the worker's stream,
        and its ``queue`` is a delivery link of its own.
        ``degradation`` (a :class:`DegradationPolicy` or a wire-shape
        profile mapping) attaches the controller in the *worker*; the
        router records the profile so respawn/migration/failover can
        re-attach it at the worker's last reported level, and forwards
        every ``qos_update`` to the front tier.
        """
        self._require_source(source_name)
        if app_name in self._apps and not self._apps[app_name].closed:
            raise ValueError(f"app {app_name!r} is already subscribed")
        profile: Optional[dict] = None
        if degradation is not None:
            if isinstance(degradation, DegradationPolicy):
                profile = policy_to_profile(
                    degradation,
                    level=degradation_level,
                    config=degradation_config,
                )
            else:
                profile = dict(degradation)
                if degradation_level:
                    profile["level"] = degradation_level
        lock, worker = await self._ingest_guarded(source_name)
        try:
            try:
                remote = await worker.client.subscribe(
                    app_name,
                    source_name,
                    spec,
                    qos=qos,
                    queue_capacity=queue_capacity,
                    overflow=overflow,
                    batch_max_items=batch_max_items,
                    batch_max_delay_ms=batch_max_delay_ms,
                    degradation=profile,
                )
            except GatewayError as exc:
                raise ValueError(str(exc)) from exc
            except ConnectionError as exc:
                raise RuntimeError(
                    f"worker {worker.index} failed subscribe: {exc}"
                ) from exc
            session = ClusterSession(
                app_name,
                source_name,
                spec,
                remote,
                defaults=self.config,
                telemetry=self.telemetry,
            )
            session.degradation = profile
            self._wire_qos(session, remote)
            self._apps[app_name] = session
            worker.apps[app_name] = session
            await self._arm(source_name, worker)
            self._emit(
                "subscribe",
                app=app_name,
                source=source_name,
                worker=worker.index,
            )
            return session
        finally:
            lock.release()

    def _wire_qos(self, session: ClusterSession, remote) -> None:
        """Forward one remote subscription's ``qos_update`` pushes.

        The worker owns the controller; the router mirrors each applied
        transition into the session (spec + profile level, so the next
        re-subscribe carries the ladder at the right rung) and relays
        the update to the front tier's listener.
        """
        if session.degradation is None:
            return

        def _on_update(update: dict) -> None:
            spec = update.get("spec")
            if isinstance(spec, str):
                session.spec = spec
            level = update.get("level")
            if isinstance(level, int) and session.degradation is not None:
                session.degradation["level"] = level
            listener = session.qos_listener
            if listener is not None:
                listener(update)

        remote.qos_listener = _on_update

    async def unsubscribe(self, app_name: str) -> None:
        # A locally-closed session (oversized decided frame, shutdown
        # wedge-break) must still be unsubscribable: the *worker* still
        # holds the registration, and leaving it would poison the app
        # name on that worker until a respawn.
        session = self._apps.get(app_name)
        if session is None:
            raise KeyError(f"app {app_name!r} is not subscribed")
        session.mark_explicit()
        async with self._source_lock(session.source_name):
            worker = self._primary(self.shard_of(session.source_name))
            self._apps.pop(app_name, None)
            worker.apps.pop(app_name, None)
            forwarded = False
            # Forward whenever a client exists, ready flag or not: during
            # a respawn the fresh worker may already hold this app's
            # re-subscription before `ready` is set, and skipping the
            # forward would leak the registration there.  (While the
            # client is still None mid-launch, popping the app above plus
            # the closed flag set below keeps the respawn's re-subscribe
            # loop from recreating it.)
            if worker.client is not None:
                try:
                    await worker.client.unsubscribe(app_name)
                    forwarded = True
                except (ConnectionError, GatewayError):
                    pass
            if forwarded:
                await self._arm(session.source_name, worker)
            if forwarded and not session.closed:
                # Do NOT end the remote locally here: the worker's
                # final-flushed decided frames may still be in flight
                # behind the unsubscribe ack (its pump writes and its
                # dispatch reply are ordered independently), and a local
                # close would drop them.  The worker's `closed` frame
                # ends the stream after every delivery.
                return
            session.end_local("unsubscribed")

    async def re_filter(self, app_name: str, new_spec: str) -> None:
        session = self._apps.get(app_name)
        if session is None or session.closed:
            raise KeyError(f"app {app_name!r} is not subscribed")
        lock, worker = await self._ingest_guarded(session.source_name)
        try:
            try:
                await worker.client.re_filter(app_name, new_spec)
            except GatewayError as exc:
                raise ValueError(str(exc)) from exc
            except ConnectionError as exc:
                raise RuntimeError(
                    f"worker {worker.index} failed re_filter: {exc}"
                ) from exc
            session.spec = new_spec
            # A client re-filter is an explicit spec choice: the worker
            # detaches its controller, so drop the recorded ladder too
            # (a respawn must not resurrect the automatic policy).
            session.degradation = None
            await self._arm(session.source_name, worker)
        finally:
            lock.release()

    # ------------------------------------------------------------------
    # Live migration, standby failover, elasticity (the actuator surface)
    # ------------------------------------------------------------------
    def _migration_event(
        self, kind: str, source: str, old: _Worker, new: _Worker, *,
        outcome: Optional[str] = None, **fields
    ) -> None:
        """Emit one migration event, counting its outcome if it has one."""
        if outcome is not None and self._m_migrations is not None:
            self._m_migrations.labels(outcome).inc()
        self._emit(kind, source=source, src=old.index, dst=new.index, **fields)

    async def migrate_source(
        self, source_name: str, target_index: int
    ) -> dict:
        """Move one live source to another worker, subscribers attached.

        A migration is a failover without a death, run under the
        source's lock (so it doubles as the offer gate): every open app
        re-subscribes on the target, the old worker exports the source
        (flush + detach; its streams end as ``"migrated"``), the export
        becomes the source's failover record with an empty tail, and
        :meth:`_land` imports it, splices each app and replays nothing —
        the delivered bytes equal an unmigrated run's.  The record stays
        only if the target's shard is covered.

        A target that fails, or an export the old worker refuses,
        unwinds: the old worker still owns the source.  An exporter
        that is dead or has no client fails over instead, from the
        record the router holds (exact) or cold.  The result's ``exact``
        says whether the state arrived.
        """
        self._require_source(source_name)
        try:
            new = self._primary(target_index)
        except KeyError:
            raise ValueError(f"no worker slot {target_index}") from None
        async with self._source_lock(source_name):
            old = self._primary(self._sources[source_name])
            if old is new:
                return {
                    "source": source_name,
                    "moved": False,
                    "worker": old.index,
                }
            try:
                return await asyncio.wait_for(
                    self._migrate_locked(source_name, old, new),
                    timeout=_MIGRATE_TIMEOUT_S,
                )
            except asyncio.TimeoutError:
                self._migration_event(
                    "migration_failed", source_name, old, new,
                    outcome="timeout", reason="timeout",
                )
                raise RuntimeError(
                    f"migration of {source_name!r} timed out"
                ) from None

    async def _migrate_locked(
        self, source_name: str, old: _Worker, new: _Worker
    ) -> dict:
        sessions = self._open_sessions(old, source_name)
        self._migration_event(
            "migration_start", source_name, old, new, apps=len(sessions)
        )
        remotes: list = []
        try:
            if new.client is None or not new.ready.is_set():
                raise ConnectionError(f"worker {new.index} is not ready")
            await new.client.ensure_source(source_name)
            for session in sessions:
                remotes.append(await self._resubscribe(new, session))
            state = None
            # A ready slot has re-attached every source it owns; an
            # unready one serves none of them (see _reattach_shard).
            if old.client is not None and old.ready.is_set():
                try:
                    state = await old.client.export_source(source_name)
                except ConnectionError:
                    pass  # died unnoticed: fail over from the record
        except (ConnectionError, GatewayError) as exc:
            for session, remote in zip(sessions, remotes):
                remote.close_local("router_closed")
                try:
                    await new.client.unsubscribe(session.app_name)
                except (ConnectionError, GatewayError):
                    pass
            self._migration_event(
                "migration_failed", source_name, old, new,
                outcome="failed", reason=str(exc),
            )
            raise RuntimeError(
                f"cannot migrate {source_name!r}: {exc}"
            ) from exc
        if state is not None:
            self._drop_record(source_name)
            self._records[source_name] = _Record(state)
        for session in sessions:
            old.apps.pop(session.app_name, None)
            new.apps[session.app_name] = session
        self._sources[source_name] = new.index
        if self.telemetry is not None:
            self._m_placements.labels(str(new.index)).inc()
        spliced, cold = await self._land(new, source_name, sessions, remotes)
        exact = source_name in self._records
        if not self._covered(source_name, new):
            self._drop_record(source_name)
        self._migration_event(
            "migration_complete", source_name, old, new,
            outcome="complete" if exact else "lossy",
            exact=exact, spliced=spliced, cold=cold,
        )
        return {
            "source": source_name,
            "moved": True,
            "exact": exact,
            "worker": new.index,
        }

    async def adopt_standby(self, shard: int) -> None:
        """Promote the standby into its primary's slot.

        The standby is a blank spare.  Under every source lock of the
        shard (:meth:`_reattach_shard`): stop the old process, move the
        standby's process and client into the primary slot, and
        re-attach each source (checkpoint + tail replay and a splice, or
        cold).  The emptied standby slot relaunches as a new spare.
        """
        primary = self._primary(shard)
        standby = self._standby_for(shard)
        if standby is None:
            raise RuntimeError(f"no ready standby for worker {shard}")
        spliced, cold = await self._reattach_shard(primary, standby)
        primary.death_seen_ts = None
        primary.failed = False
        self._emit(
            "standby_adopt",
            worker=shard,
            standby=standby.index,
            spliced=spliced,
            cold=cold,
        )

    async def _promote(self, primary: _Worker, standby: _Worker) -> None:
        await self._stop_process(primary, kill=True)
        primary.process = standby.process
        primary.port = standby.port
        primary.http_port = standby.http_port
        primary.client = standby.client
        primary.drain_task = standby.drain_task
        primary.stdout_tail = standby.stdout_tail
        primary.events_cursor = standby.events_cursor
        primary.health_misses = 0
        standby.process = None
        standby.port = None
        standby.http_port = None
        standby.client = None
        standby.drain_task = None
        standby.stdout_tail = deque(maxlen=8)
        standby.ready.clear()
        # The respawn resets the rest (the events cursor).
        self._schedule_respawn(standby)

    async def _reattach_shard(
        self, worker: _Worker, standby: Optional[_Worker] = None
    ) -> tuple[int, int]:
        """Re-attach every source of a primary's shard to the process
        now in its slot (promoting ``standby`` into it first, if given)
        and mark the slot ready; returns the summed ``(spliced, cold)``.

        Every lock of the shard is held until the slot is ready, so
        whoever else holds one of them sees a ready slot that serves the
        source or an unready one that does not — what a migration away
        from the slot decides its export on.
        """
        sources = sorted(self._shard_sources(worker.index))
        spliced = cold = 0
        async with AsyncExitStack() as stack:
            for source in sources:
                await stack.enter_async_context(self._source_lock(source))
            if standby is not None:
                await self._promote(worker, standby)
            for source in sources:
                counts = await self._reattach(worker, source)
                spliced += counts[0]
                cold += counts[1]
            worker.ready.set()
        return spliced, cold

    async def _resubscribe(self, worker: _Worker, session: ClusterSession):
        """Subscribe ``session``'s app on ``worker`` with its resolved
        bounds and degradation profile (re-attach and migration)."""
        remote = await worker.client.subscribe(
            session.app_name,
            session.source_name,
            session.spec,
            queue_capacity=session.queue.capacity,
            overflow=session.queue.policy,
            batch_max_items=session.batcher.max_items,
            batch_max_delay_ms=session.batcher.max_delay_ms,
            degradation=session.degradation,
        )
        self._wire_qos(session, remote)
        return remote

    def _open_sessions(self, worker: _Worker, source: str) -> list[ClusterSession]:
        """The source's open sessions on ``worker``, in insertion order;
        its closed ones are forgotten."""
        for app, session in list(worker.apps.items()):
            if session.source_name == source and session.closed:
                worker.apps.pop(app, None)
                # Identity check: the name may have been re-used by a
                # live session on another worker.
                if self._apps.get(app) is session:
                    del self._apps[app]
        return [s for s in worker.apps.values() if s.source_name == source]

    async def _reattach(self, worker: _Worker, source: str) -> tuple[int, int]:
        """Re-attach one source's open apps to the process now in
        ``worker``'s slot (caller holds the source lock); returns the
        ``(spliced, cold)`` app counts.  A source that has moved since
        the caller listed it is left alone.

        Every open app re-subscribes, in insertion order, and
        :meth:`_land` restores the source.  A ``ConnectionError`` means
        this process died too; the record and its pending retries stay
        for the next attempt.
        """
        if self._sources.get(source) != worker.index:
            return 0, 0
        sessions = self._open_sessions(worker, source)
        await worker.client.ensure_source(source)
        remotes = [await self._resubscribe(worker, s) for s in sessions]
        return await self._land(worker, source, sessions, remotes)

    async def _land(
        self, worker: _Worker, source: str, sessions: list, remotes: list
    ) -> tuple[int, int]:
        """Restore a source on ``worker``, whose process holds the
        ``remotes`` just subscribed for ``sessions``; returns the
        ``(spliced, cold)`` app counts.  Failover, respawn and migration
        all land here.

        With a record, the checkpoint is imported, each app continues
        at its delivered offset (:class:`_SpliceRemote`) and the tail is
        replayed — ``offer_many`` per item list, a per-source ``tick``
        per tick — so the streams splice with zero gap.  Offer-driven
        output is exact.  Under a ``TimeConstraint`` the replay measures
        its solve times afresh, so a timely cut there repeats the dead
        primary's only where those measurements agree.  Without a record
        (or when the import is refused) the apps continue on a fresh
        epoch: cold, a state gap, never a teardown.
        """
        record = self._records.get(source)
        if record is not None:
            try:
                await worker.client.import_source(source, record.state)
            except GatewayError:
                self._drop_record(source)
                record = None
        if record is None:
            for session, remote in zip(sessions, remotes):
                session.adopt(remote)
            return 0, len(sessions)
        # Adopt before the replay: its output must flow while it runs.
        shipped = record.state.get("shipped") or {}
        for session, remote in zip(sessions, remotes):
            session.adopt(
                _SpliceRemote(remote, session, int(shipped.get(session.app_name, 0)))
            )
        # From here on each app's position counts on this process, whose
        # streams start at the checkpoint.
        record.state["shipped"] = {}
        for entry in record.tail:
            if isinstance(entry, float):
                emissions = await worker.client.tick(entry, source)
            else:
                emissions = await worker.client.ingest_many(source, entry)
            future = record.retries.pop(id(entry), None)
            if future is not None and not future.done():
                future.set_result(int(emissions or 0))
        return len(sessions), 0

    def _covered(self, source_name: str, worker: _Worker) -> bool:
        """Whether a failover record can cover the source: its shard has
        a standby, and no open session drops or re-filters what a replay
        cannot know about (a non-``block`` queue, a degradation ladder)."""
        return self._standby_slot(worker.index) is not None and all(
            session.queue.policy == "block" and session.degradation is None
            for session in worker.apps.values()
            if session.source_name == source_name and not session.closed
        )

    async def _arm(self, source_name: str, worker: _Worker) -> None:
        """(Re-)arm a source's failover record from its serving primary
        (caller holds the source lock).

        Runs after every subscribe, unsubscribe and re-filter, every
        ``_REARM_TUPLES`` tail tuples and, for a source without a
        record, on the supervisor cadence.  (A migration needs none: its
        export is the new record.)  The new
        record replaces the old one only once its snapshot has arrived:
        a primary dying mid-snapshot leaves the old record and its tail
        intact.  An uncovered source holds no record.
        """
        if not self._covered(source_name, worker):
            self._drop_record(source_name)
            return
        if not worker.ready.is_set() or worker.client is None:
            return
        try:
            state = await worker.client.snapshot_source(source_name)
        except (ConnectionError, GatewayError):
            return
        first = source_name not in self._records
        self._records[source_name] = _Record(state)
        if self._m_rearms is not None:
            self._m_rearms.inc()
        if first:
            self._emit(
                "standby_armed",
                standby=self._standby_slot(worker.index).index,
                worker=worker.index,
                source=source_name,
            )

    def _drop_record(self, source_name: str) -> None:
        record = self._records.pop(source_name, None)
        if record is not None:
            for future in record.retries.values():
                if not future.done():
                    future.set_result(None)

    # ------------------------------------------------------------------
    # Elasticity
    # ------------------------------------------------------------------
    async def add_worker(self) -> int:
        """Grow the primary tier by one slot.

        The new worker joins the consistent-hash ring, then every source
        the ring now assigns to it is live-migrated over — ~1/N of the
        fleet's sources move, the rest stay untouched.
        """
        if self._closed:
            raise RuntimeError("cluster is closed")
        index = 1 + max(
            worker.index for worker in self._workers + self._standbys
        )
        worker = _Worker(index)
        await self._launch(worker)
        self._workers.append(worker)
        worker.ready.set()
        self._ring.add(index)
        self._emit("worker_added", worker=index)
        for source in list(self._sources):
            if (
                self._ring.owner(source) == index
                and self._sources[source] != index
            ):
                try:
                    await self.migrate_source(source, index)
                except Exception:
                    pass  # stays put; the move was an optimization
        return index

    async def remove_worker(self) -> int:
        """Shrink the primary tier by one slot (the newest).

        Its sources live-migrate to their new ring owners first; only
        then does the process retire.  The standby of the removed slot
        retires with it.
        """
        if len(self._workers) <= 1:
            raise RuntimeError("cannot remove the last worker")
        worker = self._workers[-1]
        self._ring.remove(worker.index)
        try:
            for source in self._shard_sources(worker.index):
                target = self._ring.owner(source)
                await self.migrate_source(source, int(target))
        except BaseException:
            self._ring.add(worker.index)
            raise
        if worker.respawn_task is not None and not worker.respawn_task.done():
            worker.respawn_task.cancel()
            try:
                await worker.respawn_task
            except (asyncio.CancelledError, Exception):
                pass
        self._workers.remove(worker)
        for standby in [
            sb for sb in self._standbys if sb.mirror_of == worker.index
        ]:
            self._standbys.remove(standby)
            await self._stop_process(standby, kill=False)
        await self._stop_process(worker, kill=False)
        self._emit("worker_removed", worker=worker.index)
        return worker.index

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def fleet_status(self) -> dict:
        """Synchronous control-plane view (no worker round-trips).

        The remediation loop's working set: per-slot liveness, respawn
        budget state and standby arming, plus current source placement —
        everything its proposers and invariant checks need without
        waiting on a scrape of a possibly-wedged fleet.
        """

        def row(worker: _Worker) -> dict:
            return {
                "index": worker.index,
                "port": worker.port,
                "alive": worker.process is not None
                and worker.process.returncode is None,
                "ready": worker.ready.is_set(),
                "failed": worker.failed,
                "respawns": worker.respawns,
                "backoff_s": worker.backoff_s,
            }

        return {
            "workers": [
                {
                    **row(worker),
                    "sources": self._shard_sources(worker.index),
                    "apps": [a for a, s in worker.apps.items() if not s.closed],
                }
                for worker in self._workers
            ],
            "standbys": [
                {
                    **row(standby),
                    "mirror_of": standby.mirror_of,
                    "armed_sources": sorted(self._armed_sources(standby)),
                }
                for standby in self._standbys
            ],
            "sources": dict(self._sources),
        }

    async def metrics_text(self) -> str:
        """Cluster-merged Prometheus exposition.

        The router's own registry is relabeled ``worker="router"``; each
        live worker's ``/metrics`` is scraped over its snapshot HTTP
        port and relabeled with its slot index.  A worker that cannot be
        scraped (dead, mid-respawn) is skipped — the merged text
        degrades, the scrape never fails.
        """
        parts: list[str] = []
        if self.telemetry is not None:
            parts.append(
                relabel_exposition(
                    self.telemetry.registry.render(), {"worker": "router"}
                )
            )
        fleet = self._http_fleet()
        bodies = await asyncio.gather(
            *(self._probe(w).metrics() for w in fleet)
        )
        for worker, body in zip(fleet, bodies):
            if body:
                parts.append(
                    relabel_exposition(body, {"worker": str(worker.index)})
                )
        return merge_expositions(parts)

    async def pull_events(self) -> None:
        """Fold every live worker's structured events into the router log.

        Per-worker cursors mean each worker event is ingested at most
        once; a respawned worker restarts its id space, and its cursor
        was reset at launch.  Unreachable workers are skipped.
        """
        tele = self.telemetry
        if tele is None:
            return
        fleet = self._http_fleet()
        folds = await asyncio.gather(
            *(self._probe(w).events(w.events_cursor) for w in fleet)
        )
        for worker, records in zip(fleet, folds):
            if records:
                tele.events.ingest(records, worker=worker.index)
                worker.events_cursor = max(
                    worker.events_cursor,
                    *(int(record.get("id", 0)) for record in records),
                )

    def _http_fleet(self) -> list[_Worker]:
        """Primaries then standbys, each that has a snapshot endpoint."""
        return [
            w for w in self._workers + self._standbys if w.http_port is not None
        ]

    async def _worker_snapshot(self, worker: _Worker) -> Optional[dict]:
        if worker.failed or worker.client is None or not worker.ready.is_set():
            return None
        try:
            # Bounded: a worker wedged behind a stalled consumer must
            # not hang fleet-wide snapshots (or graceful shutdown).
            return await asyncio.wait_for(
                worker.client.snapshot(window=True), timeout=5.0
            )
        except (ConnectionError, GatewayError, asyncio.TimeoutError):
            return None

    async def snapshot(self) -> dict:
        """Merged fleet snapshot as a plain dict.

        Totals are summed, session rows concatenated, and the decide
        percentiles recomputed over the concatenation of every worker's
        raw latency window.
        """
        if self._final_snapshot is not None:
            return dict(self._final_snapshot)
        per_worker = await asyncio.gather(
            *(self._worker_snapshot(worker) for worker in self._workers)
        )
        return self._merge([s for s in per_worker if s is not None])

    def _merge(
        self,
        snapshots: list[dict],
        *,
        window_override: Optional[list[float]] = None,
    ) -> dict:
        window: list[float] = (
            list(window_override) if window_override is not None else []
        )
        if window_override is None:
            for snapshot in snapshots:
                window.extend(snapshot.get("decide_window_ms", ()))
        percentiles = latency_percentiles(window, (50, 99))

        def total(key: str) -> int:
            return sum(int(s.get(key, 0)) for s in snapshots)

        sessions = [row for s in snapshots for row in s.get("sessions", ())]
        retired = [row for s in snapshots for row in s.get("retired", ())]
        fleet = self.fleet_status()
        return {
            "now_ms": max((float(s.get("now_ms", 0.0)) for s in snapshots), default=0.0),
            "sources": list(self._sources),
            "session_count": total("session_count"),
            "offered": total("offered"),
            "decided_emissions": total("decided_emissions"),
            "delivered_tuples": total("delivered_tuples"),
            "dropped_tuples": total("dropped_tuples"),
            "regroups": total("regroups"),
            # A broadcast tick reaches every worker and each counts it
            # once; max (not sum) keeps the merged counter comparable to
            # a single-process run of the same driving.
            "ticks": max((int(s.get("ticks", 0)) for s in snapshots), default=0),
            "cuts_triggered": total("cuts_triggered"),
            "decide_p50_ms": percentiles["p50"],
            "decide_p99_ms": percentiles["p99"],
            "sessions": sessions,
            "retired": retired,
            "workers": fleet["workers"],
            "standbys": fleet["standbys"],
        }
