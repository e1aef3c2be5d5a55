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

from dataclasses import dataclass

from repro.core.tuples import StreamTuple

__all__ = ["Batch", "MicroBatcher"]


@dataclass(frozen=True)
class Batch:
    """One flushed run of decided tuples, shared by a group's sessions."""

    items: tuple[StreamTuple, ...]
    #: Stream time the first item was staged (decided).
    first_staged_ms: float
    #: Stream time the batch was flushed toward the session queue.
    flushed_ms: float

    def __len__(self) -> int:
        return len(self.items)

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
