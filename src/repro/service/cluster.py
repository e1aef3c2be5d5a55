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
  unchanged: client connections, subscriptions and the decided fan-out
  all stay in the router while every decide runs in a worker process.
  Router↔worker traffic is the wire protocol itself
  (:mod:`repro.transport.protocol`: binary tuple frames, JSON control
  frames) — there is no second serialization scheme;
* **delivery** — a routed app's :class:`ClusterSession` holds a real
  :class:`~repro.service.session.DeliveryQueue` on its subscriber's
  link (a gateway connection's), with the app's resolved bound and
  overflow policy, and its degradation ladder: the queue the
  subscriber drains decides.  The worker's side of every app blocks,
  so a worker's streams are lossless and a failover's replay can
  reproduce them.  A worker ``decided`` frame is put once per link its
  apps read (:meth:`ClusterService._relay`), so it leaves the router
  as one frame per subscriber connection, with the record bytes
  relayed undecoded;
* **supervisor** — workers are health-checked (``/healthz`` pings plus
  process liveness); a dead worker is respawned into its slot, its
  sources re-registered and its subscriptions re-subscribed with their
  previously resolved bounds, and the router-side sessions, open all
  along, carry on with the new process's streams.  Every source the
  router has armed a failover record for (checkpoint + tail) resumes
  exactly; one that fails before its first arm comes back on a fresh
  epoch — a delivery gap, never a teardown.

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
from dataclasses import asdict, dataclass, replace as dc_replace
from functools import partial
from typing import Optional, Sequence

from repro.metrics.latency import latency_percentiles
from repro.obs.metrics import merge_expositions, relabel_exposition
from repro.obs.telemetry import Telemetry
from repro.obs.trace import (
    STAGE_ROUTER_FORWARD,
    STAGE_ROUTER_REASSEMBLY,
    stage_id,
)
from repro.qos.controller import DegradationController, resolve_session
from repro.qos.spec import SessionLimits
from repro.runtime.partition import HashRing
from repro.service.batching import MicroBatcher
from repro.service.broker import ServiceConfig
from repro.service.session import (
    DeliveryLink,
    DeliveryQueue,
    QueueSeries,
    SubscriberSession,
    adapt_quality,
)
from repro.service.snapshot import SessionSnapshot
from repro.transport.client import GatewayClient, GatewayError, RemoteSubscription
from repro.transport.codec import TupleRecords
from repro.transport.protocol import MAX_FRAME_BYTES

__all__ = ["ClusterConfig", "ClusterService", "ClusterSession"]

#: Subscription-close reasons that are final: the worker (or the router)
#: ended the subscription on purpose, so the session must not re-attach.
#: Any other end — ``"migrated"`` (the source was exported) or a dead
#: connection — leaves the session open for the re-attach on the
#: source's new process (:meth:`ClusterService._adopt`).
_FINAL_REASONS = frozenset(
    {
        "unsubscribed",
        "shutdown",
        "frame_too_large",
        "router_closed",
        "worker_lost",
    }
)

_SID_ROUTER_FORWARD = stage_id(STAGE_ROUTER_FORWARD)
_SID_ROUTER_REASSEMBLY = stage_id(STAGE_ROUTER_REASSEMBLY)

#: Tail tuples after which a source's failover checkpoint is
#: re-armed and its tail dropped.  The trade, measured on a 2-CPU Xeon
#: (one source, four subscribers, a random walk in 64-tuple frames): a
#: re-arm costs ~1.2 ms (one ~1 KB checkpoint round trip), ~1.2 us per
#: tuple at this cadence; a failover replays ~0.1 ms per tail tuple in
#: such frames (~0.4 ms one per frame), so at most ~0.1-0.4 s.
_REARM_TUPLES = 1024

#: Missed health checks in a row that declare a live worker dead.
_HEALTH_MISSES = 3
#: How long a worker whose router connection ended has to exit on its
#: own before the supervisor kills it (``connection_lost``).
_EXIT_GRACE_S = 0.5
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
#: How long data-path calls wait for a respawning worker before giving
#: up.
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

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be at least 1")


class ClusterSession(SubscriberSession):
    """Router-side session of one app whose filter runs on a worker.

    A :class:`~repro.service.session.SubscriberSession` whose
    :attr:`queue` is on the subscriber's link (a gateway connection's,
    or one of its own, which :meth:`batches` reads), under the app's
    bound and overflow policy, and whose :attr:`degradation` ladder the
    router runs: the queue the subscriber drains decides.  The worker
    runs the app's filter and batcher (:attr:`batcher` holds only its
    bounds) and relays the stream losslessly, blocking
    (:attr:`relay_bounds`).

    The router puts each decided frame of the session's current
    :attr:`remote` (:meth:`ClusterService._relay`).  When the worker
    dies or exports the source the session stays open, and the re-attach
    on the source's new process swaps the new remote in, at the current
    :attr:`spec` — the subscriber never learns the worker changed.
    """

    def __init__(
        self,
        app_name: str,
        source_name: str,
        spec: str,
        limits: SessionLimits,
        degradation: Optional[DegradationController] = None,
        link: Optional[DeliveryLink] = None,
    ):
        super().__init__(
            app_name,
            source_name,
            spec,
            DeliveryQueue(
                limits.queue_capacity, limits.overflow, link=link, app=app_name
            ),
            MicroBatcher(limits.batch_max_items, limits.batch_max_delay_ms),
            degradation=degradation,
        )
        #: The worker subscription whose stream the session relays.
        self.remote = None
        #: Tuples the current remote's stream has yet to drop (a
        #: failover splice's already-delivered prefix).
        self.skip = 0
        #: Position in the current remote's stream: tuples put to the
        #: queue or skipped — the offset a failover splice aligns with.
        self.position = 0
        #: The next stream end is intentional; do not re-attach.
        self.explicit = False
        #: Ended by the router (:meth:`ClusterService._end`).
        self.ended = False

    @property
    def relay_bounds(self) -> dict:
        """The bounds the worker's side of the app runs with."""
        return {**self.bounds, "overflow": "block"}

    @property
    def closed(self) -> bool:
        return self.queue.closed


class _SourceGate(asyncio.Lock):
    """A source's lock, and what its dispatch tail tends under it
    (:meth:`ClusterService._tend`): the open sessions with a ladder, and
    whether a put disconnected one."""

    def __init__(self) -> None:
        super().__init__()
        self.controlled: list[ClusterSession] = []
        self.disconnects = False


class _Record:
    """A source's failover state, held by the router.

    ``state`` is the latest ``snapshot_source`` payload (or the
    ``export_source`` payload a migration landed); ``tail`` lists what
    the primary applied since, in its order: each ingest's tuples (a
    gateway frame's undecoded :class:`TupleRecords`, replayed as bytes)
    and each tick's ``now_ms`` (a float).  ``retries`` maps the
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

    def __init__(self, index: int):
        self.index = index
        self.process: Optional[asyncio.subprocess.Process] = None
        self.port: Optional[int] = None
        self.http_port: Optional[int] = None
        self.client: Optional[GatewayClient] = None
        self.ready = asyncio.Event()
        #: Set once the slot spent its respawn budget; it never clears.
        self.lost = asyncio.Event()
        self.respawns = 0
        #: Monotonic timestamps of recent respawn attempts (the sliding
        #: budget window) and the backoff currently being served.
        self.respawn_times: deque[float] = deque()
        self.backoff_s = 0.0
        #: First time the supervisor saw this slot dead (deferred-heal
        #: grace accounting); None while alive.
        self.death_seen_ts: Optional[float] = None
        self.health_misses = 0
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

    @property
    def failed(self) -> bool:
        return self.lost.is_set()


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
        #: Consistent-hash ring over primary slot indexes: adding or
        #: removing a worker moves ~1/N of the sources instead of
        #: reshuffling nearly all of them (which modulo hashing did).
        self._ring = HashRing(range(config.workers))
        #: Source registry (insertion-ordered); values are shard
        #: indexes.  This map is *authoritative* — the ring only places
        #: sources on first registration, so a migrated source stays
        #: where the migration put it.
        self._sources: dict[str, int] = {}
        #: Per-source locks, with what each source's dispatch tail tends.
        self._source_locks: dict[str, _SourceGate] = {}
        #: Failover records of the armed sources (see :meth:`_arm`):
        #: every slot respawns in place and lands from these.
        self._records: dict[str, _Record] = {}
        #: Set by an attached remediation loop: worker-death actuation
        #: is deferred (up to ``_DEFERRED_HEAL_GRACE_S``) so the
        #: propose/verify/schedule pipeline owns the fix.
        self.defer_death_handling = False
        self._apps: dict[str, ClusterSession] = {}
        #: Each session's current worker subscription, until its stream
        #: ends: where :meth:`_relay` puts that stream's batches.
        self._streams: dict[RemoteSubscription, ClusterSession] = {}
        self._monitor_task: Optional[asyncio.Task] = None
        self._arm_task: Optional[asyncio.Task] = None
        self._started = False
        self._closed = False
        self._final_snapshot: Optional[dict] = None
        #: Overflow drops of the router's ended sessions.
        self._retired_dropped = 0
        self._queue_series: Optional[QueueSeries] = None
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
            m_armed = registry.gauge(
                "repro_cluster_failover_armed_sources",
                "Sources of this worker's shard whose failover "
                "checkpoint the router holds.",
                ("worker",),
            )
            m_tail = registry.gauge(
                "repro_cluster_failover_tail_tuples",
                "Tuples in the failover tails the router holds for this "
                "worker's shard (replayed at failover).",
                ("worker",),
            )
            self._m_rearms = registry.counter(
                "repro_cluster_failover_rearms_total",
                "Failover checkpoints taken (first arms and re-arms).",
            )
            # A routed app's queue is the router's: its series are too.
            self._queue_series = QueueSeries(registry)
            registry.register_collector(
                lambda: self._queue_series.collect(self._live_sessions())
            )

            def _collect_fleet() -> None:
                now = time.monotonic()
                for worker in self._workers:
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
                    records = [
                        self._records[s]
                        for s in self._shard_sources(worker.index)
                        if s in self._records
                    ]
                    m_armed.labels(label).set(float(len(records)))
                    m_tail.labels(label).set(
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

    def _source_lock(self, source_name: str) -> _SourceGate:
        lock = self._source_locks.get(source_name)
        if lock is None:
            lock = self._source_locks[source_name] = _SourceGate()
        return lock

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        if self._started:
            raise RuntimeError("cluster already started")
        self._started = True
        for name in self.config.sources:
            self._sources.setdefault(name, self.shard_of(name))
        results = await asyncio.gather(
            *(self._launch(worker) for worker in self._workers),
            return_exceptions=True,
        )
        failures = [r for r in results if isinstance(r, BaseException)]
        if failures:
            await self._terminate_workers()
            raise failures[0]
        for worker in self._workers:
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
            ",".join(self._shard_sources(worker.index)),
            "--algorithm",
            cfg.algorithm,
            # No queue or batch defaults: the router resolves every
            # subscription's bounds and sends them all.
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
                on_decided=self._relay,
            )
            worker.events_cursor = 0
            self._emit(
                "worker_spawn",
                worker=worker.index,
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
        either queued or accounted as dropped.
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
        tasks = [self._arm_task] + [w.respawn_task for w in self._workers]
        for task in tasks:
            if task is not None and not task.done():
                task.cancel()
                try:
                    await task
                except (asyncio.CancelledError, Exception):
                    pass
        # Latency windows must be read before the workers die; terminal
        # totals come from the terminal snapshots afterwards.
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
            self._end(session, "shutdown")
        self._final_snapshot = self._merge(terminals, window_override=window)
        return dict(self._final_snapshot)

    async def _terminate_workers(self) -> None:
        # Concurrent: every process is signalled before any is waited on.
        await asyncio.gather(
            *(self._stop_process(worker, kill=False) for worker in self._workers)
        )

    async def _stop_process(self, worker: _Worker, *, kill: bool) -> None:
        """Stop the slot's process — SIGKILL, or SIGTERM with a 10 s
        grace before SIGKILL — then await its stdout drain and close its
        client.  The slot is left unready and empty of both.

        After a SIGTERM the worker's last frames (its final flush, then
        ``bye``) may still wait in the socket when it has exited: the
        client's read loop gets the same grace to relay them first.
        """
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
        if not kill and worker.client is not None:
            try:
                await asyncio.wait_for(worker.client.ended(), timeout=10.0)
            except asyncio.TimeoutError:
                pass
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
            for worker in self._workers:
                if worker.failed:
                    continue
                if (
                    worker.respawn_task is not None
                    and not worker.respawn_task.done()
                ):
                    continue
                process = worker.process
                if process is None or process.returncode is not None:
                    self._on_worker_death(
                        worker,
                        returncode=(
                            process.returncode if process is not None else None
                        ),
                    )
                    continue
                if not worker.ready.is_set():
                    continue
                if worker.client.closed_reason is not None:
                    # Nothing reaches its sources any more: dead.  A
                    # process that just exited closed the connection
                    # too; its exit gets a moment to be reaped.
                    reason = None
                    try:
                        await asyncio.wait_for(process.wait(), _EXIT_GRACE_S)
                    except asyncio.TimeoutError:
                        reason = "connection_lost"
                        self._signal(process, kill=True)
                        await process.wait()
                    self._on_worker_death(
                        worker, returncode=process.returncode, reason=reason
                    )
                    continue
                if await self._healthz(worker):
                    worker.health_misses = 0
                    continue
                worker.health_misses += 1
                if worker.health_misses >= _HEALTH_MISSES:
                    # Alive but unresponsive: treat as dead.
                    self._signal(process, kill=True)
                    await process.wait()
                    self._on_worker_death(
                        worker,
                        returncode=process.returncode,
                        reason="unresponsive",
                    )
            # A source without a failover record (born since, or back
            # cold) is armed on the supervisor's cadence, in a
            # task of its own: a snapshot stuck behind backpressure must
            # not stall the health checks.
            if self._arm_task is None or self._arm_task.done():
                self._arm_task = asyncio.ensure_future(self._arm_missing())

    async def _arm_missing(self) -> None:
        for source in list(self._sources):
            if source in self._records:
                continue
            worker = self._primary(self.shard_of(source))
            async with self._source_lock(source):
                if source not in self._records and (
                    self._primary(self.shard_of(source)) is worker
                ):
                    await self._arm(source, worker)

    def _on_worker_death(
        self,
        worker: _Worker,
        *,
        returncode: Optional[int],
        reason: Optional[str] = None,
    ) -> None:
        """First sighting emits the verdict-grade ``worker_death`` event
        and (under ``--self-heal``) starts the deferred grace so the
        remediation loop owns the fix; past the grace the supervisor
        respawns the slot directly."""
        now = time.monotonic()
        if worker.death_seen_ts is None:
            worker.death_seen_ts = now
            # Data-path calls park on `ready` instead of erroring into
            # producers while the heal decision is pending.
            worker.ready.clear()
            fields = {"worker": worker.index, "returncode": returncode}
            if reason:
                fields["reason"] = reason
            self._emit("worker_death", **fields)
        if (
            self.defer_death_handling
            and now - worker.death_seen_ts < _DEFERRED_HEAL_GRACE_S
        ):
            return
        self._schedule_respawn(worker)

    async def heal_worker(self, index: int) -> str:
        """Respawn one dead worker slot and wait for the outcome
        (remediation surface).

        Returns ``"noop"`` (already healthy), ``"respawned"`` (the slot
        is back, its sources re-attached), or ``"lost"`` (the slot
        exhausted its respawn budget).  A respawn already under way is
        awaited, not doubled.
        """
        worker = self._primary(index)
        if worker.failed:
            return "lost"
        process = worker.process
        if process is not None and process.returncode is None and worker.ready.is_set():
            return "noop"
        self._schedule_respawn(worker)
        # Not a bare await: a respawn cancelled by close() must not
        # cancel the caller.
        await asyncio.wait((worker.respawn_task,))
        return "lost" if worker.failed else "respawned"

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

        Every source of the slot re-attaches (:meth:`_reattach`): an
        armed source restores the router's checkpoint, replays its tail
        and splices; one never armed re-subscribes its sessions on a
        fresh epoch — a delivery gap, which is the paper's
        timeliness-over-completeness stance applied to process failure.
        A slot that spends its budget is lost: its waiting callers fail
        at once, its records go, and its sessions end.
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
                    attempt=attempt,
                    backoff_s=round(backoff, 3),
                )
                await asyncio.sleep(backoff)
                worker.backoff_s = 0.0
            worker.respawn_times.append(time.monotonic())
            worker.respawns += 1
            try:
                await self._launch(worker)
                spliced, cold = await self._reattach_shard(worker)
                worker.death_seen_ts = None
                self._emit(
                    "worker_respawn",
                    worker=worker.index,
                    respawns=worker.respawns,
                    spliced=spliced,
                    cold=cold,
                )
                return
            except Exception:
                await self._stop_process(worker, kill=True)
        # Wakes every caller parked in _worker_for: they raise "lost".
        worker.lost.set()
        worker.backoff_s = 0.0
        self._emit("worker_lost", worker=worker.index, respawns=worker.respawns)
        # Frames waiting in a tail for a replay fail now, not at the
        # reattach timeout.
        for source in self._shard_sources(worker.index):
            self._drop_record(source)
        for app, session in list(worker.apps.items()):
            self._end(session, "worker_lost")
            worker.apps.pop(app, None)
            if self._apps.get(app) is session:
                del self._apps[app]

    async def _worker_for(self, source_name: str) -> _Worker:
        """The source's worker once it is ready; waits out a respawn
        (at most ``_REATTACH_TIMEOUT_S``) and fails as soon as the slot
        is lost."""
        worker = self._primary(self.shard_of(source_name))
        if not worker.ready.is_set() and not worker.failed:
            waits = [
                asyncio.ensure_future(worker.ready.wait()),
                asyncio.ensure_future(worker.lost.wait()),
            ]
            try:
                done, _ = await asyncio.wait(
                    waits,
                    timeout=_REATTACH_TIMEOUT_S,
                    return_when=asyncio.FIRST_COMPLETED,
                )
            finally:
                for wait in waits:
                    wait.cancel()
            if not done:
                raise RuntimeError(
                    f"worker {worker.index} did not come back in time"
                )
        if worker.failed:
            raise RuntimeError(
                f"worker {worker.index} (sources like {source_name!r}) is lost"
            )
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
        self, source_name: str, seqs: Sequence[int]
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
        for seq in seqs:
            key = (source_name, seq)
            if key not in bag:
                continue
            dur = bag.stamp(key, _SID_ROUTER_FORWARD, time.perf_counter_ns())
            if dur is not None:
                tele.observe_stage(STAGE_ROUTER_FORWARD, dur)
            pairs = bag.pop(key)
            if pairs:
                traces[seq] = pairs
        return traces or None

    async def offer_many(self, source_name: str, items: Sequence) -> int:
        """Route tuples to their source's worker; ack-for-ack.

        The worker's ack *is* the broker's completion: a block-policy
        stall inside the worker withholds it, which suspends exactly the
        router read loop that forwarded this frame — per-connection
        backpressure survives the extra hop.  The per-source lock held
        across the ingest is the migration/re-arm offer gate, and it
        orders the source's failover tail; the dispatch tail
        (:meth:`_tend`) runs under it too.  A frame that fails with its
        worker is retried by the failover when the source holds a record
        (:meth:`_await_retry`), and raises otherwise.

        A gateway frame's records (:class:`TupleRecords`) cross
        undecoded: one pass checks their framing (a malformed record
        fails the frame here, before anything is forwarded), the
        worker's connection sends their bytes on, and the tail keeps the
        view.
        """
        self._require_source(source_name)
        if not items:
            return 0
        if type(items) is TupleRecords:
            seqs = items.seqs
        else:
            items = tuple(items)
            seqs = [item.seq for item in items]
        lock, worker = await self._ingest_guarded(source_name)
        try:
            traces = self._forward_traces(source_name, seqs)
            try:
                emissions = await worker.client.ingest_many(
                    source_name, items, traces=traces
                )
            except (ConnectionError, GatewayError) as exc:
                retry = self._retry_in_tail(source_name, worker, items, exc)
            else:
                if source_name in self._records:
                    await self._extend_tail(source_name, worker, items)
                if lock.controlled or lock.disconnects:
                    await self._tend(source_name, lock, worker)
                return int(emissions or 0)
        finally:
            lock.release()
        return await self._await_retry(source_name, retry)

    async def _extend_tail(
        self, source_name: str, worker: _Worker, items: Sequence
    ) -> None:
        """Append an acked ingest to the source's tail (caller
        holds the source lock); re-arm once it holds ``_REARM_TUPLES``."""
        record = self._records[source_name]
        record.tail.append(items)
        record.tuples += len(items)
        if record.tuples >= _REARM_TUPLES:
            await self._arm(source_name, worker)

    def _retry_in_tail(
        self, source_name: str, worker: _Worker, items: Sequence, exc: Exception
    ):
        """An ingest failed with its worker (caller holds the source
        lock).  With a record the frame joins the tail, where the
        failover replays it; without one it raises."""
        record = self._records.get(source_name)
        if record is None or not isinstance(exc, ConnectionError):
            raise RuntimeError(
                f"worker {worker.index} failed ingest for {source_name!r}: {exc}"
            ) from exc
        future = asyncio.get_running_loop().create_future()
        record.tail.append(items)
        record.tuples += len(items)
        record.retries[id(items)] = future
        return worker, record, items, future

    async def _await_retry(self, source_name: str, retry) -> int:
        """Wait for the re-attach that replays a failed frame (at most
        ``_REATTACH_TIMEOUT_S``); return its emissions.  A cold
        re-attach, a lost slot, or none in time, raises — and a frame
        still waiting then leaves the tail, so it is never applied after
        its caller was told it failed."""
        worker, record, items, future = retry
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
            why = "which is lost" if worker.failed else "and the failover did not replay it"
            raise RuntimeError(
                f"ingest for {source_name!r} failed with worker {worker.index}, {why}"
            )
        return emissions

    async def tick(self, now_ms: float, source_name: Optional[str] = None) -> int:
        """Broadcast a timer tick to the primaries (or route a
        per-source one).

        The forward runs under the worker's sources' locks, so the tick
        takes its exact place in each failover tail (a tick a dead
        worker missed joins the tails as well, for the failover to
        replay), and each source's dispatch tail (:meth:`_tend`) follows
        it there.
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
        sources = sorted(sources)
        async with AsyncExitStack() as stack:
            for source in sources:
                await stack.enter_async_context(self._source_lock(source))
            emissions = 0
            if worker.ready.is_set() and worker.client is not None:
                try:
                    emissions = await worker.client.tick(now_ms, source_name)
                except GatewayError:
                    return 0  # refused: applied nowhere
                except ConnectionError:
                    pass  # died with it: the failover replays it
            for source in sources:
                if self._sources[source] != worker.index:
                    continue  # moved while this tick waited
                record = self._records.get(source)
                if record is not None:
                    record.tail.append(float(now_ms))
                lock = self._source_lock(source)
                if (lock.controlled or lock.disconnects) and worker.ready.is_set():
                    await self._tend(source, lock, worker)
        return emissions

    async def subscribe(
        self,
        app_name: str,
        source_name: str,
        spec: str,
        *,
        link: Optional[DeliveryLink] = None,
        **knobs,
    ) -> ClusterSession:
        """Attach a subscriber on its source's worker.

        Same signature the broker exposes (the front tier calls either
        interchangeably): ``knobs`` resolve the same way
        (:func:`~repro.qos.controller.resolve_session`).  The session's
        queue joins ``link`` (a gateway connection's), or has a link of
        its own that :meth:`ClusterSession.batches` reads, under the
        app's bound and policy; its ladder runs here, at the source's
        dispatch tail (:meth:`_tend`).  The worker runs the filter and
        batcher with the same bounds, blocking.
        """
        self._require_source(source_name)
        if app_name in self._apps and not self._apps[app_name].closed:
            raise ValueError(f"app {app_name!r} is already subscribed")
        limits, controller = resolve_session(self.config, app_name, spec, **knobs)
        session = ClusterSession(
            app_name, source_name, spec, limits, controller, link
        )
        lock, worker = await self._ingest_guarded(source_name)
        try:
            try:
                remote = await self._resubscribe(worker, session)
            except GatewayError as exc:
                raise ValueError(str(exc)) from exc
            except ConnectionError as exc:
                raise RuntimeError(
                    f"worker {worker.index} failed subscribe: {exc}"
                ) from exc
            self._adopt(session, remote)
            self._apps[app_name] = session
            worker.apps[app_name] = session
            if controller is not None:
                lock.controlled.append(session)
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

    def _adopt(
        self, session: ClusterSession, remote: RemoteSubscription, skip: int = 0
    ) -> None:
        """Make ``remote`` the stream ``session`` relays, minus its first
        ``skip`` tuples (subscribe, and every re-attach: failover,
        respawn, migration)."""
        self._streams.pop(session.remote, None)
        self._streams[remote] = session
        session.remote = remote
        session.skip = skip
        session.position = 0
        remote.close_listener = lambda reason: self._stream_ended(remote, reason)

    def _stream_ended(self, remote: RemoteSubscription, reason: str) -> None:
        """A worker stream ended: a final reason (or an unsubscribe in
        flight) ends its session; any other leaves the session open for
        the re-attach on the source's new process."""
        session = self._streams.pop(remote, None)
        if session is None:
            return  # an older generation's, or dismissed
        # An unsubscribe in flight goes to wherever a migrated source
        # lands, and that stream ends after its final flush.
        if reason in _FINAL_REASONS or (session.explicit and reason != "migrated"):
            self._end(session, reason)

    def _end(self, session: ClusterSession, reason: str) -> None:
        """End ``session`` here (a final stream end, an unsubscribe,
        shutdown, a lost worker): its stream ends after what is queued,
        its remote goes, and its counters join the retired totals."""
        if session.ended:
            return
        session.ended = session.explicit = True
        session.queue._close()
        self._retired_dropped += session.stats.dropped_tuples
        if self._queue_series is not None:
            self._queue_series.retire(session)
        controlled = self._source_lock(session.source_name).controlled
        if session in controlled:
            controlled.remove(session)
        session.remote.close_local(reason)

    def _live_sessions(self) -> list[ClusterSession]:
        return [s for s in self._apps.values() if not s.ended]

    async def _relay(self, batch, remotes: list) -> None:
        """Put one worker ``decided`` frame's batch on the links its apps
        read: once per link, naming that link's apps, so a frame for k
        apps of one subscriber connection leaves the router as one frame
        (the paper's "each tuple is transmitted at most once on any
        link").  The record bytes go on undecoded.

        An app still owed a splice's prefix (``skip``) drops it here,
        and a batch it cuts into goes as a copy of its own (untraced:
        traces are advisory).  An app's ``position`` moves only once its
        put is done, so it counts what this stream actually put — a put
        cancelled with a dead worker's read loop queued nothing.
        """
        size = len(batch)
        full, traced = batch, 0
        if batch.traces is not None:
            # Marked at frame decode; each link's take then stamps its
            # own session_queue.  Only a router with telemetry asks its
            # workers for traces.
            now_ns = time.perf_counter_ns()
            dur = now_ns - batch.traces[0]
            full = batch.stamped(_SID_ROUTER_REASSEMBLY, now_ns)
            traced = len(batch.traces[1])
        puts: dict[tuple, list[ClusterSession]] = {}
        for remote in remotes:
            session = self._streams.get(remote)
            if session is None:
                continue  # dismissed, or an older generation's
            skip = session.skip
            if skip >= size:
                session.skip -= size
                session.position += size
                continue
            if skip:
                out = dc_replace(batch, items=tuple(batch.items[skip:]))
            else:
                out = full
                for _ in range(traced):
                    self.telemetry.observe_stage(STAGE_ROUTER_REASSEMBLY, dur)
            puts.setdefault((session.queue.link, out), []).append(session)
        for (link, out), sessions in puts.items():
            if await link.put(out, [session.queue for session in sessions]):
                # A disconnect overflow, reaped at the source's next
                # dispatch tail: this is the worker connection's read
                # loop, and a worker request awaited here would never
                # see its reply.
                for session in sessions:
                    if session.disconnected:
                        self._source_lock(session.source_name).disconnects = True
            for session in sessions:
                session.skip = 0
                session.position += size

    async def unsubscribe(self, app_name: str) -> None:
        # A locally-closed session (oversized decided frame, shutdown
        # wedge-break) must still be unsubscribable: the *worker* still
        # holds the registration, and leaving it would poison the app
        # name on that worker until a respawn.
        session = self._apps.get(app_name)
        if session is None:
            raise KeyError(f"app {app_name!r} is not subscribed")
        session.explicit = True
        async with self._source_lock(session.source_name):
            worker = self._primary(self.shard_of(session.source_name))
            await self._detach(session, worker)

    async def _detach(self, session: ClusterSession, worker: _Worker) -> None:
        """Unsubscribe the app at ``worker`` (caller holds the source
        lock) and re-arm."""
        app_name = session.app_name
        session.explicit = True
        if self._apps.get(app_name) is session:
            del self._apps[app_name]
        worker.apps.pop(app_name, None)
        forwarded = False
        # Forward whenever a client exists, ready flag or not: during
        # a respawn the fresh worker may already hold this app's
        # re-subscription before `ready` is set, and skipping the
        # forward would leak the registration there.  (While the
        # client is still None mid-launch, popping the app above plus
        # the explicit flag keeps the respawn's re-subscribe loop from
        # recreating it.)
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
        self._end(session, "unsubscribed")

    async def re_filter(self, app_name: str, new_spec: str) -> None:
        session = self._apps.get(app_name)
        if session is None or session.closed:
            raise KeyError(f"app {app_name!r} is not subscribed")
        lock, worker = await self._ingest_guarded(session.source_name)
        try:
            try:
                await self._step(worker, session, new_spec)
            except GatewayError as exc:
                raise ValueError(str(exc)) from exc
            except ConnectionError as exc:
                raise RuntimeError(
                    f"worker {worker.index} failed re_filter: {exc}"
                ) from exc
            # A client re-filter is an explicit spec choice: it
            # detaches the ladder, as on a broker.
            session.degradation = None
            if session in lock.controlled:
                lock.controlled.remove(session)
        finally:
            lock.release()

    async def _tend(self, source: str, lock: _SourceGate, worker: _Worker) -> None:
        """One source's dispatch tail, as a broker's (caller holds
        ``lock``, the source's): reap the apps a ``disconnect`` overflow
        ended at a put, then evaluate the ladders.  A step re-filters
        the app at its worker and re-arms, like any churn."""
        if lock.disconnects:
            lock.disconnects = False
            for session in list(worker.apps.values()):
                if (
                    session.source_name == source
                    and session.disconnected
                    and not session.explicit
                ):
                    self._emit("overflow_disconnect", app=session.app_name, source=source)
                    await self._detach(session, worker)
        if lock.controlled:
            await adapt_quality(
                lock.controlled,
                source,
                partial(self._step, worker),
                self.telemetry,
                ServiceConfig.tuple_size_bytes,
            )

    async def _step(self, worker: _Worker, session: ClusterSession, spec: str) -> None:
        """The app's new spec at its worker, re-armed (a client re-filter
        or a ladder step)."""
        await worker.client.re_filter(session.app_name, spec)
        session.spec = spec
        await self._arm(session.source_name, worker)

    # ------------------------------------------------------------------
    # Live migration, failover, elasticity (the actuator surface)
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
        the delivered bytes equal an unmigrated run's.

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

    async def _reattach_shard(self, worker: _Worker) -> tuple[int, int]:
        """Re-attach every source of a slot's shard to the process now
        in it and mark the slot ready; returns the summed
        ``(spliced, cold)``.

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
            for source in sources:
                counts = await self._reattach(worker, source)
                spliced += counts[0]
                cold += counts[1]
            worker.ready.set()
        return spliced, cold

    async def _resubscribe(self, worker: _Worker, session: ClusterSession):
        """Subscribe ``session``'s app on ``worker`` at its current spec
        with its relay bounds (subscribe, re-attach and migration)."""
        return await worker.client.subscribe(
            session.app_name,
            session.source_name,
            session.spec,
            **session.relay_bounds,
        )

    def _open_sessions(self, worker: _Worker, source: str) -> list[ClusterSession]:
        """The source's open sessions on ``worker``, in insertion order;
        its closed ones end and are forgotten."""
        for app, session in list(worker.apps.items()):
            if session.source_name == source and session.closed:
                self._end(session, "unsubscribed")
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

        With a record, the checkpoint is imported, each app's new stream
        skips what its old one put past the checkpoint's ``shipped``
        offset (:meth:`_relay`) and the tail is replayed — ``offer_many``
        per item list, a per-source ``tick`` per tick — so the streams
        splice with zero gap.  Offer-driven
        output is exact.  Under a ``TimeConstraint`` the replay measures
        its solve times afresh, so a timely cut there repeats the dead
        primary's only where those measurements agree.  Without a record
        (or when the import is refused) the apps continue on a fresh
        epoch: cold, a state gap, never a teardown.
        """
        # Each old stream's position is final once its worker
        # connection has dropped it: no put of the old stream may follow
        # one of the new.
        for session in sessions:
            await session.remote.removed()
        record = self._records.get(source)
        if record is not None:
            try:
                await worker.client.import_source(source, record.state)
            except GatewayError:
                self._drop_record(source)
                record = None
        if record is None:
            for session, remote in zip(sessions, remotes):
                self._adopt(session, remote)
            return 0, len(sessions)
        # Adopt before the replay: its output must flow while it runs.
        # The checkpoint's reply followed every decided frame its
        # offsets count, so an old stream put at least that many; the
        # clamp turns any shortfall into a gap, never a repeat.
        shipped = record.state.get("shipped") or {}
        for session, remote in zip(sessions, remotes):
            consumed = int(shipped.get(session.app_name, 0))
            self._adopt(session, remote, max(0, session.position - consumed))
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

    async def _arm(self, source_name: str, worker: _Worker) -> None:
        """(Re-)arm a source's failover record from its serving primary
        (caller holds the source lock).

        Runs after every subscribe, unsubscribe and re-filter, every
        ``_REARM_TUPLES`` tail tuples and, for a source without a
        record, on the supervisor cadence.  (A migration needs none: its
        export is the new record.)  The new
        record replaces the old one only once its snapshot has arrived:
        a primary dying mid-snapshot leaves the old record and its tail
        intact.
        """
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
            self._emit("failover_armed", worker=worker.index, source=source_name)

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
        index = 1 + max(worker.index for worker in self._workers)
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
        then does the process retire.
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
        await self._stop_process(worker, kill=False)
        self._emit("worker_removed", worker=worker.index)
        return worker.index

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def fleet_status(self) -> dict:
        """Synchronous control-plane view (no worker round-trips).

        The remediation loop's working set: per-slot liveness and
        respawn budget state, plus current source placement —
        everything its proposers and invariant checks need without
        waiting on a scrape of a possibly-wedged fleet.
        """

        return {
            "workers": [
                {
                    "index": worker.index,
                    "port": worker.port,
                    "alive": worker.process is not None
                    and worker.process.returncode is None,
                    "ready": worker.ready.is_set(),
                    "failed": worker.failed,
                    "respawns": worker.respawns,
                    "backoff_s": worker.backoff_s,
                    "sources": self._shard_sources(worker.index),
                    "apps": [a for a, s in worker.apps.items() if not s.closed],
                }
                for worker in self._workers
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
        """The workers that have a snapshot endpoint."""
        return [w for w in self._workers if w.http_port is not None]

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
        raw latency window.  A routed app's row reads its queue counters
        off the router's queue, where its policy runs, and the router's
        drops join ``dropped_tuples``.
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

        sessions = [
            self._routed_row(row) for s in snapshots for row in s.get("sessions", ())
        ]
        retired = [row for s in snapshots for row in s.get("retired", ())]
        dropped = self._retired_dropped + sum(
            s.stats.dropped_tuples for s in self._live_sessions()
        )
        return {
            "now_ms": max((float(s.get("now_ms", 0.0)) for s in snapshots), default=0.0),
            "sources": list(self._sources),
            "session_count": total("session_count"),
            "offered": total("offered"),
            "decided_emissions": total("decided_emissions"),
            "delivered_tuples": total("delivered_tuples"),
            "dropped_tuples": total("dropped_tuples") + dropped,
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
            "workers": self.fleet_status()["workers"],
        }

    def _routed_row(self, row: dict) -> dict:
        """A worker's session row, with its queue counters read off the
        router's queue when the router routes the app."""
        session = self._apps.get(row.get("app_name"))
        if session is None or session.source_name != row.get("source_name"):
            return row
        # The router's session has no batcher of its own: the worker's
        # staging counts stand.
        return {
            **asdict(SessionSnapshot.of(session)),
            "batcher_pending": row["batcher_pending"],
            "staged_tuples": row["staged_tuples"],
        }
