"""Micro-batching of decided emissions, once per delivery group.

The batch engine's ``BatchedOutput`` strategy (section 3.4) gates *group*
output on input-tuple counts; the live broker instead batches per
*delivery group*: the sessions of one sharing class (they receive the
same decided tuples, see :class:`~repro.core.output.Emission`) with the
same batch bounds.  A :class:`MicroBatcher` accumulates a group's
decided tuples and flushes on whichever bound trips first:

* **size** — ``max_items`` tuples are staged, or
* **latency** — the oldest staged tuple has waited ``max_delay_ms`` of
  stream time (checked on every stage and on broker clock ticks).

Each flush becomes one immutable :class:`Batch`, put on every member's
own bounded queue, so a subscriber pays the per-message overhead the
paper measured once per batch rather than once per tuple, and the
broker stages each tuple once per group rather than once per session.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.tuples import StreamTuple

__all__ = ["Batch", "MicroBatcher", "TraceMap"]

#: Sampled items' accumulated stages: ``{seq: ((stage_id, dur_ns), ...)}``.
TraceMap = dict[int, tuple[tuple[int, int], ...]]


@dataclass(frozen=True, eq=False)
class Batch:
    """One flushed run of decided tuples, shared by a group's sessions.

    ``traces`` is ``None`` unless an item is sampled for stage tracing
    (:mod:`repro.obs.trace`); then it is ``(mark_ns, {seq: pairs})``:
    each sampled item's ``(stage_id, dur_ns)`` pairs so far, and the
    local ``perf_counter_ns`` at which the next stage began.  Only
    :meth:`with_traces` sets it, so an untraced batch never pays for it
    (and a ``dataclasses.replace`` copy carries none).  A hop that adds
    a stage gets its own copy from :meth:`stamped` — the members of a
    delivery group share one batch, so nobody extends a shared trace.
    Equality is identity: a batch is one delivery, not a value.
    """

    items: tuple[StreamTuple, ...]
    #: Stream time the first item was staged (decided).
    first_staged_ms: float
    #: Stream time the batch was flushed toward the session queue.
    flushed_ms: float
    traces: Optional[tuple[int, TraceMap]] = field(default=None, init=False)

    def __len__(self) -> int:
        return len(self.items)

    def with_traces(self, traces: tuple[int, TraceMap]) -> "Batch":
        """A copy of this batch carrying ``traces``."""
        batch = Batch(self.items, self.first_staged_ms, self.flushed_ms)
        object.__setattr__(batch, "traces", traces)
        return batch

    def stamped(self, sid: int, now_ns: int) -> "Batch":
        """A copy whose every trace closes stage ``sid`` at ``now_ns``."""
        mark_ns, tmap = self.traces
        pair = ((sid, now_ns - mark_ns),)
        return self.with_traces(
            (now_ns, {seq: pairs + pair for seq, pairs in tmap.items()})
        )

    @property
    def batching_delay_ms(self) -> float:
        """Extra delay the *first* staged tuple paid for batching."""
        return self.flushed_ms - self.first_staged_ms


class MicroBatcher:
    """Size- and latency-bounded accumulation of one group's output."""

    def __init__(self, max_items: int = 8, max_delay_ms: float = 50.0):
        if max_items < 1:
            raise ValueError("max_items must be at least 1")
        if max_delay_ms < 0.0:
            raise ValueError("max_delay_ms must be non-negative")
        self.max_items = max_items
        self.max_delay_ms = max_delay_ms
        self._staged: list[StreamTuple] = []
        self._first_staged_ms: float = 0.0

    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        return len(self._staged)

    def stage(self, item: StreamTuple, now_ms: float) -> Batch | None:
        """Stage one decided tuple; return a batch if a bound tripped."""
        staged = self._staged
        if not staged:
            self._first_staged_ms = now_ms
        staged.append(item)
        if (
            len(staged) >= self.max_items
            or now_ms - self._first_staged_ms >= self.max_delay_ms
        ):
            return self.flush(now_ms)
        return None

    def due(self, now_ms: float) -> bool:
        """Has the oldest staged tuple exceeded the latency bound?"""
        return (
            bool(self._staged)
            and now_ms - self._first_staged_ms >= self.max_delay_ms
        )

    def flush(self, now_ms: float) -> Batch | None:
        """Unconditionally flush whatever is staged (``None`` if empty)."""
        if not self._staged:
            return None
        batch = Batch(
            items=tuple(self._staged),
            first_staged_ms=self._first_staged_ms,
            flushed_ms=now_ms,
        )
        self._staged.clear()
        return batch
