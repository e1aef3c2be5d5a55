"""Subscriber sessions with bounded outbound queues and backpressure.

Each live subscriber holds a :class:`SubscriberSession`: its filter spec,
a :class:`MicroBatcher` (shared with the other sessions of its delivery
group, see :mod:`repro.service.batching`) and a :class:`DeliveryQueue`
of its own, bounded to ``capacity`` batches.  What happens when the
queue is full is the session's *overflow policy*:

* ``"block"`` — the broker awaits queue space, so a slow consumer slows
  the source feed down (closed-loop backpressure) instead of growing
  broker memory;
* ``"drop_oldest"`` — the oldest queued batch is evicted and counted, so
  a laggard sees fresh data with holes (the paper's timeliness-over-
  completeness stance, Chapter 3, applied to delivery);
* ``"disconnect"`` — the session is closed on the spot; the broker then
  unsubscribes the filter and regroups.

Sessions are re-filterable at runtime (:meth:`SubscriberSession.re_filter`):
the broker cuts the source's engine over and rebuilds it from the new
subscription set, as it does on subscribe and unsubscribe.
"""

from __future__ import annotations

import asyncio
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, AsyncIterator, Callable, Optional

from repro.core.tuples import StreamTuple
from repro.service.batching import Batch, MicroBatcher

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.qos.controller import DegradationController
    from repro.service.broker import DisseminationService

__all__ = [
    "OVERFLOW_POLICIES",
    "SessionDisconnected",
    "SessionStats",
    "DeliveryQueue",
    "SubscriberSession",
]

OVERFLOW_POLICIES = ("block", "drop_oldest", "disconnect")


class SessionDisconnected(Exception):
    """Raised toward the broker when a ``disconnect`` session overflows."""


@dataclass
class SessionStats:
    """Monotonic per-session counters (never reset while live)."""

    staged_tuples: int = 0
    enqueued_batches: int = 0
    #: Tuples that entered the delivery queue (the session's outbound
    #: stream position).  After a batcher flush this equals every tuple
    #: ever routed to the session — the exact splice offset a warm
    #: standby's mirror stream is aligned against.
    shipped_tuples: int = 0
    delivered_batches: int = 0
    delivered_tuples: int = 0
    dropped_batches: int = 0
    dropped_tuples: int = 0


class DeliveryQueue:
    """Bounded asyncio FIFO of :class:`Batch` with an overflow policy.

    Parked producers and consumers wait on futures of their own, woken
    one at a time in the style of :class:`asyncio.Queue`: a waiter
    cancelled after it was woken passes the wake-up on to the next one
    in line, so none is ever lost.
    """

    def __init__(self, capacity: int = 16, policy: str = "block"):
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        if policy not in OVERFLOW_POLICIES:
            raise ValueError(
                f"unknown overflow policy {policy!r}; expected {OVERFLOW_POLICIES}"
            )
        self.capacity = capacity
        self.policy = policy
        self._batches: deque[Batch] = deque()
        self._getters: deque[asyncio.Future] = deque()
        self._putters: deque[asyncio.Future] = deque()
        self._drainers: deque[asyncio.Future] = deque()
        self._closed = False

    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        return len(self._batches)

    @property
    def closed(self) -> bool:
        return self._closed

    @staticmethod
    def _wakeup_next(waiters: deque) -> None:
        while waiters:
            waiter = waiters.popleft()
            if not waiter.done():
                waiter.set_result(None)
                return

    @staticmethod
    async def _park(waiters: deque, still_blocked: Callable[[], bool]) -> None:
        """Wait for one wake-up; a cancelled waiter that was already woken
        hands the wake-up to the next in line unless it is still owed."""
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
                DeliveryQueue._wakeup_next(waiters)
            raise

    def _full(self) -> bool:
        return len(self._batches) >= self.capacity and not self._closed

    def _empty(self) -> bool:
        return not self._batches and not self._closed

    async def put(self, batch: Batch) -> Optional[Batch]:
        """Enqueue one batch, applying the overflow policy.

        Returns the batch that was *dropped* to make room (``drop_oldest``
        only), ``None`` otherwise.  Raises :class:`SessionDisconnected`
        when a ``disconnect`` queue overflows.  Puts to a closed queue are
        silently discarded (the consumer is gone).
        """
        if self._closed:
            return batch
        if len(self._batches) >= self.capacity:
            if self.policy == "disconnect":
                raise SessionDisconnected(
                    f"queue overflow at capacity {self.capacity}"
                )
            if self.policy == "drop_oldest":
                return self.put_nowait(batch)
            # "block": wait for the consumer — this await is the
            # backpressure edge from broker to source feed.
            while self._full():
                await self._park(self._putters, self._full)
            if self._closed:
                return batch
        self._batches.append(batch)
        if self._getters:
            self._wakeup_next(self._getters)
        return None

    async def get(self) -> Batch:
        """Dequeue the next batch; raises ``StopAsyncIteration`` when the
        queue is closed and drained."""
        while self._empty():
            await self._park(self._getters, self._empty)
        if not self._batches:
            raise StopAsyncIteration
        batch = self._batches.popleft()
        if self._putters:
            self._wakeup_next(self._putters)
        if self._drainers and not self._batches:
            self._wake_all(self._drainers)
        return batch

    def put_nowait(self, batch: Batch) -> Optional[Batch]:
        """Non-blocking enqueue (``drop_oldest`` overflow and shutdown paths).

        Returns the batch that did not make it: the evicted oldest batch
        under ``drop_oldest``, or ``batch`` itself when the queue is full
        (``block``/``disconnect``) or closed.  Never waits, never raises.
        """
        if self._closed:
            return batch
        dropped = None
        if len(self._batches) >= self.capacity:
            if self.policy != "drop_oldest":
                return batch
            dropped = self._batches.popleft()
        self._batches.append(batch)
        self._wakeup_next(self._getters)
        return dropped

    def drain_nowait(self) -> list[Batch]:
        """Synchronously empty the queue (post-run accounting)."""
        drained = list(self._batches)
        self._batches.clear()
        self._wake_all(self._drainers)
        for _ in drained:
            if not self._putters:
                break
            self._wakeup_next(self._putters)
        return drained

    async def drained(self) -> None:
        """Wait until the consumer has taken every batch put so far (or
        the queue closed).  The consumer runs on from its ``get`` before
        a drained waiter wakes, so whatever it does with the last batch
        up to its next ``await`` has happened by then."""
        while self._batches and not self._closed:
            await self._park(
                self._drainers, lambda: bool(self._batches) and not self._closed
            )

    @staticmethod
    def _wake_all(waiters: deque) -> None:
        while waiters:
            waiter = waiters.popleft()
            if not waiter.done():
                waiter.set_result(None)

    async def close(self) -> None:
        """Close the queue; blocked producers, consumers and drained
        waiters wake up."""
        self._closed = True
        for waiters in (self._getters, self._putters, self._drainers):
            self._wake_all(waiters)


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
    stats: SessionStats = field(default_factory=SessionStats)
    disconnected: bool = False
    #: Server-driven quality adaptation (None = fixed-spec session).
    #: The broker evaluates it per dispatch and applies its decisions
    #: through the re-filter machinery; a *client* re-filter detaches it
    #: (an explicit spec choice overrides the automatic policy).
    degradation: Optional["DegradationController"] = None
    #: Called with every applied level transition (a plain dict update);
    #: the transport wires this to a ``qos_update`` push frame.  Invoked
    #: synchronously under the source lock, so listeners must only
    #: schedule work, never await.
    qos_listener: Optional[Callable[[dict], None]] = None
    _broker: Optional["DisseminationService"] = None
    #: Trace side channel, keyed by batch identity: ``id(batch) ->
    #: (enqueue_ns, {seq: [(stage_id, dur_ns), ...]})`` for sampled
    #: tuples in that batch.  Written by the broker at ship time, popped
    #: by the delivery pump to extend the trace with queue/write stages.
    #: Bounded: traces are advisory, so entries whose batches were
    #: dropped by overflow (never popped) are evicted oldest-first.
    _trace_notes: dict = field(default_factory=dict)

    #: Eviction bound for :attr:`_trace_notes`.
    _TRACE_NOTES_MAX = 64

    @property
    def degradation_level(self) -> int:
        """Active degradation level (0 = preferred quality / no policy)."""
        return self.degradation.level if self.degradation is not None else 0

    # ------------------------------------------------------------------
    # Consumer side
    # ------------------------------------------------------------------
    def __aiter__(self) -> AsyncIterator[Batch]:
        return self.batches()

    async def batches(self) -> AsyncIterator[Batch]:
        """Yield delivered batches until the session closes."""
        while True:
            try:
                batch = await self.queue.get()
            except StopAsyncIteration:
                return
            self.stats.delivered_batches += 1
            self.stats.delivered_tuples += len(batch)
            yield batch

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

    # ------------------------------------------------------------------
    # Broker side
    # ------------------------------------------------------------------
    def _account(self, rejected: Optional[Batch], batch: Batch) -> None:
        """Record one enqueue attempt's outcome.

        ``rejected`` is what the queue refused: the evicted oldest batch
        under ``drop_oldest``, ``batch`` itself when it did not make it,
        ``None`` on a clean enqueue.
        """
        if rejected is not None:
            self.stats.dropped_batches += 1
            self.stats.dropped_tuples += len(rejected)
        if rejected is not batch:
            self.stats.enqueued_batches += 1
            self.stats.shipped_tuples += len(batch)

    async def deliver(self, batch: Batch) -> None:
        """Enqueue one flushed batch, recording drops/disconnects."""
        if self.disconnected:
            self.stats.dropped_batches += 1
            self.stats.dropped_tuples += len(batch)
            return
        try:
            rejected = await self.queue.put(batch)
        except SessionDisconnected:
            self.disconnected = True
            self.stats.dropped_batches += 1
            self.stats.dropped_tuples += len(batch)
            await self.queue.close()
            return
        self._account(rejected, batch)

    def deliver_nowait(self, batch: Batch) -> None:
        """Non-blocking deliver for shutdown/detach paths.

        Never waits: a batch that cannot be enqueued (full ``block``/
        ``disconnect`` queue, closed queue, gone consumer) is counted as
        dropped instead of deadlocking teardown.
        """
        if self.disconnected:
            self.stats.dropped_batches += 1
            self.stats.dropped_tuples += len(batch)
            return
        self._account(self.queue.put_nowait(batch), batch)

    def note_traces(
        self, batch: Batch, enqueue_ns: int, traces: dict
    ) -> None:
        """Attach sampled-tuple traces to one outbound batch."""
        notes = self._trace_notes
        while len(notes) >= self._TRACE_NOTES_MAX:
            del notes[next(iter(notes))]
        notes[id(batch)] = (enqueue_ns, traces)

    def pop_traces(self, batch: Batch):
        """Claim the traces noted for ``batch`` (``None`` if untraced)."""
        return self._trace_notes.pop(id(batch), None)

    async def close(self) -> None:
        await self.queue.close()
