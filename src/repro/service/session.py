"""Subscriber sessions with bounded outbound queues and backpressure.

Each live subscriber holds a :class:`SubscriberSession`: its filter spec,
a :class:`MicroBatcher` (shared with the other sessions of its delivery
group, see :mod:`repro.service.batching`) and a :class:`DeliveryQueue`:
its own bound of ``capacity`` pending batches on a :class:`DeliveryLink`,
the FIFO its consumer reads.  An in-process subscriber has a link of its
own; the subscribers of one gateway connection share the connection's
link, so a batch bound for several of them is queued — and written to
the socket — once, naming them all (the paper's "each tuple is
transmitted at most once on any link").

Each app keeps its own pending count, and what happens when a put finds
it at ``capacity`` is that app's *overflow policy*:

* ``"block"`` — the broker awaits queue space, so a slow consumer slows
  the source feed down (closed-loop backpressure) instead of growing
  broker memory;
* ``"drop_oldest"`` — the app's oldest queued batch is evicted and
  counted, so a laggard sees fresh data with holes (the paper's
  timeliness-over-completeness stance, Chapter 3, applied to delivery);
* ``"disconnect"`` — the app's queue is closed on the spot; the broker
  then unsubscribes the filter and regroups.

Sessions are re-filterable at runtime (:meth:`SubscriberSession.re_filter`):
the broker cuts the source's engine over and rebuilds it from the new
subscription set, as it does on subscribe and unsubscribe.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    AsyncIterator,
    Awaitable,
    Callable,
    Container,
    Iterable,
    Optional,
)

from repro.core.tuples import StreamTuple
from repro.obs.trace import STAGE_SESSION_QUEUE, stage_id
from repro.service.batching import Batch, MicroBatcher

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.obs.telemetry import Telemetry
    from repro.qos.controller import DegradationController
    from repro.service.broker import DisseminationService

__all__ = [
    "OVERFLOW_POLICIES",
    "SessionDisconnected",
    "SessionStats",
    "DeliveryLink",
    "DeliveryQueue",
    "QueueSeries",
    "SubscriberSession",
    "adapt_quality",
]

OVERFLOW_POLICIES = ("block", "drop_oldest", "disconnect")

_SID_SESSION_QUEUE = stage_id(STAGE_SESSION_QUEUE)


class SessionDisconnected(Exception):
    """Raised toward the broker when a ``disconnect`` session overflows."""


@dataclass
class SessionStats:
    """Monotonic per-session counters (never reset while live)."""

    staged_tuples: int = 0
    enqueued_batches: int = 0
    #: Tuples that entered the delivery queue (the session's outbound
    #: stream position).  After a batcher flush this equals every tuple
    #: ever routed to the session — the exact splice offset a failover
    #: restored from a checkpoint is aligned against.
    shipped_tuples: int = 0
    delivered_batches: int = 0
    delivered_tuples: int = 0
    dropped_batches: int = 0
    dropped_tuples: int = 0


def _wakeup_next(waiters: deque) -> None:
    while waiters:
        waiter = waiters.popleft()
        if not waiter.done():
            waiter.set_result(None)
            return


def _wake_all(waiters: deque) -> None:
    while waiters:
        waiter = waiters.popleft()
        if not waiter.done():
            waiter.set_result(None)


async def _park(waiters: deque, still_blocked: Callable[[], bool]) -> None:
    """Wait for one wake-up; a cancelled waiter that was already woken
    hands the wake-up to the next in line unless it is still owed.

    Waiters are woken one at a time in the style of
    :class:`asyncio.Queue`, so none is ever lost."""
    waiter = asyncio.get_running_loop().create_future()
    waiters.append(waiter)
    try:
        await waiter
    except BaseException:
        waiter.cancel()
        try:
            waiters.remove(waiter)
        except ValueError:
            pass  # already popped by the wake-up it was given
        if not waiter.cancelled() and not still_blocked():
            _wakeup_next(waiters)
        raise


class DeliveryLink:
    """One consumer's FIFO of ``(batch, queues)`` items.

    A put queues a batch once for every :class:`DeliveryQueue` it names;
    the consumer takes the item once.  When a queue on a shared link
    closes, an *end item* ``(None, [queue])`` follows its last batch.  A
    sampled batch comes out stamped with the ``session_queue`` stage
    (flush -> take), once for every app it names.
    """

    __slots__ = ("_items", "_getters", "_drainers", "_closed")

    def __init__(self) -> None:
        self._items: deque[tuple[Optional[Batch], list["DeliveryQueue"]]] = deque()
        self._getters: deque[asyncio.Future] = deque()
        self._drainers: deque[asyncio.Future] = deque()
        self._closed = False

    @property
    def depth(self) -> int:
        return len(self._items)

    @property
    def closed(self) -> bool:
        return self._closed

    def _idle(self) -> bool:
        return not self._items and not self._closed

    # -- producer side --------------------------------------------------
    async def put(
        self,
        batch: Batch,
        queues: "tuple[DeliveryQueue, ...]",
        final: Container[str] = (),
    ) -> bool:
        """Queue ``batch`` once for every queue in ``queues`` with room.

        Each queue is served in turn under its own policy: a full
        ``block`` queue waits for the consumer, a full ``drop_oldest``
        one evicts its oldest batch, a full ``disconnect`` one closes.
        The apps in ``final`` (leaving or closing) never wait: a full
        queue of theirs refuses the batch, counted dropped.  Returns
        whether a queue disconnected.
        """
        size = len(batch)
        named = []
        disconnected = slow = False
        for queue in queues:
            if queue.pending >= queue.capacity or queue._closed:
                # Rare: the queue is full or closed.
                slow = True
                try:
                    refused = await queue._make_room(
                        batch, bool(final) and queue.app in final
                    )
                except SessionDisconnected:
                    disconnected = True
                    continue
                except BaseException:
                    # Cancelled while waiting: the batch is queued for
                    # nobody, so the queues admitted so far take it back.
                    for queue in named:
                        queue._unadmit(size)
                    raise
                if refused is batch:
                    continue
            # _admit, inlined: this runs per member of every batch.
            queue.pending = pending = queue.pending + 1
            if pending > queue.high_water:
                queue.high_water = pending
            stats = queue.stats
            stats.enqueued_batches += 1
            stats.shipped_tuples += size
            named.append(queue)
        if slow:
            # A queue that closed while this put waited has had its end
            # queued: the batch must not follow it.
            for queue in [queue for queue in named if queue._closed]:
                named.remove(queue)
                queue._unadmit(size)
                queue._drop(batch)
        self._append(batch, named)
        return disconnected

    def put_nowait(self, batch: Batch, queues) -> None:
        """:meth:`put` with every app final: never waits."""
        named = [
            queue for queue in queues if queue._overflow(batch, True) is not batch
        ]
        for queue in named:
            queue._admit(len(batch))
        self._append(batch, named)

    def _append(self, batch: Batch, named: list) -> None:
        if named:
            self._items.append((batch, named))
            if self._getters:
                _wakeup_next(self._getters)

    def _end(self, queue: "DeliveryQueue") -> None:
        self._items.append((None, [queue]))
        _wakeup_next(self._getters)

    def _evict(self, queue: "DeliveryQueue", first: bool = False) -> list[Batch]:
        """Take ``queue`` off its queued batches (only the oldest with
        ``first``); returns them, oldest first.  An item left naming no
        queue goes."""
        evicted: list[Batch] = []
        items = self._items
        index = 0
        while index < len(items):
            batch, queues = items[index]
            if batch is not None and queue in queues:
                evicted.append(batch)
                if len(queues) == 1:
                    del items[index]
                    index -= 1
                else:
                    queues.remove(queue)
                if first:
                    break
            index += 1
        if not items:
            _wake_all(self._drainers)
        return evicted

    # -- consumer side --------------------------------------------------
    def _taken(self, item):
        batch, queues = item
        if batch is None:
            return item
        size = len(batch)
        for queue in queues:
            queue.pending -= 1
            stats = queue.stats
            stats.delivered_batches += 1
            stats.delivered_tuples += size
            if queue._putters:
                _wakeup_next(queue._putters)
        if batch.traces is not None:
            return batch.stamped(_SID_SESSION_QUEUE, time.perf_counter_ns()), queues
        return item

    async def get(self) -> tuple[Optional[Batch], list["DeliveryQueue"]]:
        """The oldest item; ``StopAsyncIteration`` once the link is
        closed and empty."""
        while not self._items:
            if self._closed:
                raise StopAsyncIteration
            await _park(self._getters, self._idle)
        item = self._taken(self._items.popleft())
        if self._drainers and not self._items:
            _wake_all(self._drainers)
        return item

    async def take(self) -> list[tuple[Optional[Batch], list["DeliveryQueue"]]]:
        """Every queued item at once (at least one), oldest first;
        ``StopAsyncIteration`` once the link is closed and empty."""
        while not self._items:
            if self._closed:
                raise StopAsyncIteration
            await _park(self._getters, self._idle)
        items, self._items = self._items, deque()
        if self._drainers:
            _wake_all(self._drainers)
        taken = self._taken
        return [taken(item) for item in items]

    async def drained(self) -> None:
        """Wait until the consumer has taken every item queued so far
        (or the link closed).  The consumer runs on from its take before
        a drained waiter wakes, so whatever it does with those items up
        to its next ``await`` has happened by then."""
        while self._items and not self._closed:
            await _park(
                self._drainers, lambda: bool(self._items) and not self._closed
            )

    def close(self) -> None:
        """No more items: the consumer ends once it took what is queued."""
        self._closed = True
        _wake_all(self._getters)
        _wake_all(self._drainers)


class DeliveryQueue:
    """One app's bounded share of a :class:`DeliveryLink`.

    It holds the app's bound (``capacity`` pending batches), overflow
    policy, pending count and counters (:attr:`stats`); the batches
    themselves wait on ``link`` — by default a link of its own, which
    :meth:`get` then reads one batch at a time.
    """

    def __init__(
        self,
        capacity: int = 16,
        policy: str = "block",
        *,
        link: Optional[DeliveryLink] = None,
        app: str = "",
    ):
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        if policy not in OVERFLOW_POLICIES:
            raise ValueError(
                f"unknown overflow policy {policy!r}; expected {OVERFLOW_POLICIES}"
            )
        self.capacity = capacity
        self.policy = policy
        self.app = app
        self._own_link = link is None
        self.link = DeliveryLink() if link is None else link
        #: Batches queued for this app and not yet taken.
        self.pending = 0
        self.high_water = 0
        #: Longest wait of a blocking put since the broker last read it
        #: (the degradation controller's ``flush_wait`` signal).
        self.wait_ms = 0.0
        self.stats = SessionStats()
        #: Set when a ``disconnect`` overflow (or the transport) ended
        #: the stream; every later batch is skipped uncounted.
        self.disconnected = False
        self._closed = False
        self._putters: deque[asyncio.Future] = deque()

    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        return self.pending

    @property
    def closed(self) -> bool:
        return self._closed

    def _full(self) -> bool:
        return self.pending >= self.capacity and not self._closed

    def _drop(self, batch: Batch) -> None:
        self.stats.dropped_batches += 1
        self.stats.dropped_tuples += len(batch)

    def _admit(self, size: int) -> None:
        self.pending += 1
        self.high_water = max(self.high_water, self.pending)
        self.stats.enqueued_batches += 1
        self.stats.shipped_tuples += size

    def _unadmit(self, size: int) -> None:
        """Undo :meth:`_admit` for a batch that was never queued; the
        freed room goes to the next waiting producer."""
        self.pending -= 1
        self.stats.enqueued_batches -= 1
        self.stats.shipped_tuples -= size
        if self._putters:
            _wakeup_next(self._putters)

    def _overflow(self, batch: Batch, nowait: bool) -> Optional[Batch]:
        """The policy's verdict on one more batch, without waiting.

        Returns what did not make it, as :meth:`put` does: the evicted
        oldest batch (``drop_oldest``; ``batch`` goes in), ``batch``
        itself when it is refused, ``None`` when there is room.  Evicted
        and refused batches are counted dropped; a disconnected queue
        refuses uncounted.  A ``disconnect`` overflow closes the queue
        and raises :class:`SessionDisconnected` unless ``nowait``.
        """
        if self.disconnected:
            return batch
        if self._closed:
            self._drop(batch)
            return batch
        if self.pending < self.capacity:
            return None
        if self.policy == "drop_oldest":
            (evicted,) = self.link._evict(self, first=True)
            self.pending -= 1
            self._drop(evicted)
            return evicted
        self._drop(batch)
        if self.policy == "disconnect" and not nowait:
            self.disconnected = True
            self._close()
            raise SessionDisconnected(f"queue overflow at capacity {self.capacity}")
        return batch

    async def _make_room(self, batch: Batch, nowait: bool) -> Optional[Batch]:
        """:meth:`_overflow`, after a full ``block`` queue (unless
        ``nowait``) waited for the consumer to take a batch — the
        backpressure edge from broker to source feed."""
        if self.policy == "block" and not nowait and self._full():
            started_ns = time.perf_counter_ns()
            while self._full():
                await _park(self._putters, self._full)
            self.wait_ms = max(
                self.wait_ms, (time.perf_counter_ns() - started_ns) / 1e6
            )
        return self._overflow(batch, nowait)

    async def put(self, batch: Batch) -> Optional[Batch]:
        """Enqueue one batch for this app alone, applying the policy.

        Returns the batch that was *dropped* to make room (``drop_oldest``
        only), ``None`` otherwise.  Raises :class:`SessionDisconnected`
        when a ``disconnect`` queue overflows.  Puts to a closed queue are
        discarded (the consumer is gone) and returned.
        """
        refused = await self._make_room(batch, False)
        if refused is not batch:
            self._admit(len(batch))
            self.link._append(batch, [self])
        return refused

    async def get(self) -> Batch:
        """Dequeue the next batch from a link of this queue's own;
        raises ``StopAsyncIteration`` when the queue is closed and
        drained."""
        if not self._own_link:
            raise RuntimeError("a shared link is read with DeliveryLink.take()")
        batch, _ = await self.link.get()
        return batch

    async def batches(self) -> AsyncIterator[Batch]:
        """Yield batches from a link of this queue's own until the queue
        closes (a gateway connection's pump reads a shared link)."""
        while True:
            try:
                batch = await self.get()
            except StopAsyncIteration:
                return
            yield batch

    def drain_nowait(self) -> list[Batch]:
        """Synchronously take this app's queued batches off the link
        (post-run accounting)."""
        drained = self.link._evict(self)
        self.pending -= len(drained)
        for _ in drained:
            if not self._putters:
                break
            _wakeup_next(self._putters)
        return drained

    async def drained(self) -> None:
        """Wait until the consumer has taken every batch put so far (or
        the queue closed); see :meth:`DeliveryLink.drained`."""
        await self.link.drained()

    def _close(self) -> None:
        if self._closed:
            return
        self._closed = True
        _wake_all(self._putters)
        if self._own_link:
            self.link.close()
        else:
            self.link._end(self)

    async def close(self) -> None:
        """Close the queue; blocked producers wake, and its consumer
        ends the app's stream after its queued batches."""
        self._close()


@dataclass
class SubscriberSession:
    """One application's live subscription to one source."""

    app_name: str
    source_name: str
    spec: str
    queue: DeliveryQueue
    #: The session's batch bounds; while attached, the one batcher its
    #: delivery group shares (the broker swaps it in at every rebuild).
    batcher: MicroBatcher
    #: The queue's counters.
    stats: SessionStats = field(init=False)
    #: Set when the broker exported the session's source: the stream
    #: ended because the source moved, not because the app left.
    migrated: bool = False
    #: Server-driven quality adaptation (None = fixed-spec session).
    #: The service evaluates it per dispatch (:func:`adapt_quality`) and
    #: applies its decisions as re-filters; a *client* re-filter detaches it
    #: (an explicit spec choice overrides the automatic policy).
    degradation: Optional["DegradationController"] = None
    #: Called with every applied level transition (a plain dict update);
    #: the transport wires this to a ``qos_update`` push frame.  Invoked
    #: synchronously under the source lock, so listeners must only
    #: schedule work, never await.
    qos_listener: Optional[Callable[[dict], None]] = None
    _broker: Optional["DisseminationService"] = None

    def __post_init__(self) -> None:
        self.stats = self.queue.stats

    @property
    def disconnected(self) -> bool:
        """The stream ended by a ``disconnect`` overflow (or the
        transport gave up on the consumer)."""
        return self.queue.disconnected

    @disconnected.setter
    def disconnected(self, value: bool) -> None:
        self.queue.disconnected = value

    @property
    def degradation_level(self) -> int:
        """Active degradation level (0 = preferred quality / no policy)."""
        return self.degradation.level if self.degradation is not None else 0

    @property
    def bounds(self) -> dict:
        """The resolved bounds a subscribe reply echoes (and a cluster
        router re-subscribes with)."""
        return {
            "queue_capacity": self.queue.capacity,
            "overflow": self.queue.policy,
            "batch_max_items": self.batcher.max_items,
            "batch_max_delay_ms": self.batcher.max_delay_ms,
        }

    # ------------------------------------------------------------------
    # Consumer side
    # ------------------------------------------------------------------
    def __aiter__(self) -> AsyncIterator[Batch]:
        return self.batches()

    def batches(self) -> AsyncIterator[Batch]:
        """Yield delivered batches until the session closes (a session
        on a link of its own; a gateway connection's pump reads its
        shared link instead)."""
        return self.queue.batches()

    async def items(self) -> AsyncIterator[StreamTuple]:
        """Yield delivered tuples one by one (batch-flattening view)."""
        async for batch in self.batches():
            for item in batch.items:
                yield item

    async def re_filter(self, new_spec: str) -> None:
        """Swap this session's filter spec at runtime (forces a regroup)."""
        if self._broker is None:
            raise RuntimeError("session is not attached to a broker")
        await self._broker.re_filter(self.app_name, new_spec)

    async def close(self) -> None:
        await self.queue.close()


class QueueSeries:
    """The session-queue series a service exposes, read off its
    sessions' queues at scrape time: overflow drops per policy (gone
    sessions included), and each live app's queue high-water mark and
    degradation level.  The broker and the cluster router each keep one
    over their own sessions (for a routed app, the router's queue)."""

    def __init__(self, registry) -> None:
        self._high_water = registry.gauge(
            "repro_session_queue_depth_high_water",
            "Highest observed session queue depth.",
            ("app",),
        )
        self._drops = registry.counter(
            "repro_session_overflow_dropped_tuples_total",
            "Tuples dropped by session overflow policy.",
            ("policy",),
        )
        self._level = registry.gauge(
            "repro_session_degradation_level",
            "Active QoS degradation level per session "
            "(0 = preferred quality).",
            ("app",),
        )
        #: Drops per policy of the sessions that are gone.
        self._retired = dict.fromkeys(OVERFLOW_POLICIES, 0)

    def retire(self, session) -> None:
        """Keep a departing session's drops and high-water mark."""
        queue = session.queue
        self._retired[queue.policy] += queue.stats.dropped_tuples
        self._high_water.labels(session.app_name).max(queue.high_water)

    def collect(self, sessions: Iterable) -> None:
        """Set the series from the live ``sessions``."""
        drops = dict(self._retired)
        for session in sessions:
            queue = session.queue
            drops[queue.policy] += queue.stats.dropped_tuples
            self._high_water.labels(session.app_name).max(queue.high_water)
            self._level.labels(session.app_name).set(session.degradation_level)
        for policy, dropped in drops.items():
            if dropped:
                self._drops.labels(policy).value = float(dropped)


async def adapt_quality(
    sessions: Iterable,
    source: str,
    step: Callable[..., Awaitable[None]],
    telemetry: Optional["Telemetry"],
    tuple_bytes: int,
) -> None:
    """Evaluate each session's degradation controller and apply at most
    one step each, as ``await step(session, spec)`` (a re-filter).

    The broker and the cluster router both run this under the source
    lock at the tail of every dispatch, so arrivals *and* idle ticks
    drive both directions (recovery probing needs the tick cadence once
    a burst has passed).  Decisions are collected first and applied
    after the iteration: a step re-filters, which must not happen
    mid-iteration.  A step that fails rewinds its controller (the old
    spec still serves; degradation is best-effort).  An applied one is
    announced with a ``qos_degraded`` / ``qos_recovered`` event and the
    session's ``qos_listener``, called synchronously under the lock.
    """
    decisions = None
    for session in sessions:
        controller = session.degradation
        queue = session.queue
        if controller is None or queue.closed:
            continue
        if queue.wait_ms:
            controller.note_flush_wait(queue.wait_ms)
            queue.wait_ms = 0.0
        decision = controller.observe(
            time.monotonic(),
            queue_depth=queue.depth,
            queue_capacity=queue.capacity,
            dropped_tuples=queue.stats.dropped_tuples,
            egress_bytes=queue.stats.shipped_tuples * tuple_bytes,
        )
        if decision is not None:
            if decisions is None:
                decisions = []
            decisions.append((session, decision))
    if not decisions:
        return
    for session, decision in decisions:
        try:
            await step(session, decision.spec)
        except Exception:
            controller = session.degradation
            if controller is not None:
                controller.level = decision.from_level
                controller.trajectory.pop()
            continue
        if telemetry is not None:
            telemetry.events.emit(
                "qos_degraded" if decision.action == "degrade"
                else "qos_recovered",
                app=session.app_name,
                source=source,
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
                    "source": source,
                    "action": decision.action,
                    "level": decision.to_level,
                    "spec": decision.spec,
                    "signal": decision.signal,
                    "value": decision.value,
                    "threshold": decision.threshold,
                }
            )
