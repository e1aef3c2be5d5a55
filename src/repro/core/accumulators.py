"""Bounded metric accumulators for infinite live streams.

The batch harness could afford one list entry per input tuple, but the
live broker never finishes a stream: an :class:`~repro.core.engine.EngineResult`
on a long-running source would grow its per-tuple CPU log without bound.
:class:`BoundedSamples` replaces the raw list with an aggregate that is
exact where the reports need exactness (count, sum, hence every mean)
and statistically faithful where they need a distribution (a fixed-size
uniform reservoir, Vitter's Algorithm R, for percentiles and box plots).

The reservoir RNG is seeded per instance, so engine runs stay
deterministic and results remain picklable across the sharded runtime's
process executors.
"""

from __future__ import annotations

import random
from typing import Iterable, Iterator

from repro.metrics.summary import quantile

__all__ = ["BoundedSamples"]

#: Large enough that every evaluation-chapter trace (thousands of
#: tuples) is retained exactly; small enough that an infinite live
#: stream costs a fixed few hundred KiB per engine.
DEFAULT_CAPACITY = 65536


class BoundedSamples:
    """Exact count/total plus a bounded uniform sample of the values.

    Behaves like the list it replaces for the common read patterns:
    ``len`` (the exact number of appends), truthiness, and iteration /
    indexing over the retained samples.  While ``count <= capacity``
    the retained samples are *all* the values in append order, so small
    runs see no behavioural change at all.
    """

    __slots__ = ("capacity", "count", "total", "_samples", "_rng")

    def __init__(
        self,
        values: Iterable[float] = (),
        *,
        capacity: int = DEFAULT_CAPACITY,
    ):
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = capacity
        self.count = 0
        self.total = 0.0
        self._samples: list[float] = []
        # Deterministic per-capacity seed: identical runs produce
        # identical reservoirs (the runtime's canonical-equality checks
        # compare shard-merged results across executors).
        self._rng = random.Random(0x5EED ^ capacity)
        for value in values:
            self.append(value)

    # ------------------------------------------------------------------
    def append(self, value: float) -> None:
        self.count += 1
        self.total += value
        if len(self._samples) < self.capacity:
            self._samples.append(value)
            return
        slot = self._rng.randrange(self.count)
        if slot < self.capacity:
            self._samples[slot] = value

    def extend(self, values: Iterable[float]) -> None:
        for value in values:
            self.append(value)

    # ------------------------------------------------------------------
    @property
    def samples(self) -> list[float]:
        """The retained values (everything, until ``capacity`` appends)."""
        return list(self._samples)

    @property
    def mean(self) -> float:
        """Exact mean of *all* appended values (not just the reservoir)."""
        if self.count == 0:
            return 0.0
        return self.total / self.count

    def percentile(self, p: float) -> float:
        """Linear-interpolation percentile over the retained samples.

        Exact while the stream fits the reservoir; an unbiased estimate
        afterwards.  ``p`` is in [0, 100]."""
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile must be within [0, 100], got {p}")
        return quantile(self._samples, p / 100.0) if self._samples else 0.0

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.count

    def __bool__(self) -> bool:
        return self.count > 0

    def __iter__(self) -> Iterator[float]:
        return iter(self._samples)

    def __getitem__(self, index):
        return self._samples[index]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, BoundedSamples):
            return (
                self.count == other.count
                and self.total == other.total
                and self._samples == other._samples
            )
        if isinstance(other, list):
            return self.count == len(self._samples) and self._samples == other
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BoundedSamples(n={self.count}, total={self.total:.4g}, "
            f"retained={len(self._samples)}/{self.capacity})"
        )
