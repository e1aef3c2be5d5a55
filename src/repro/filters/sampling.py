"""SS: stratified sampling filters with multi-degree candidacy.

Table 5.1's ``SS(attrib, timeInterval, threshold, highSmplRt,
lowSmplRt)``: the time series is segmented into fixed ``timeInterval``
windows; each segment is one candidate set whose *sample range*
(max - min of the attribute) decides its stratum.  High-dynamics
segments (range >= threshold) need ``highSmplRt`` percent of their
tuples, others ``lowSmplRt`` percent - the multi-degree hitting-set
generalization of Chapter 5 (Definition 6).

Output prescriptions (section 5.2) are supported: ``random`` (default)
leaves every member eligible; ``top``/``bottom`` restrict eligibility to
the k highest/lowest values of the attribute.
"""

from __future__ import annotations

import math
import random
import zlib
from typing import Callable, Hashable, Mapping, Optional

from repro.core.engine import FilterContext
from repro.core.tuples import StreamTuple
from repro.filters.base import (
    CandidateComputation,
    DependencySpec,
    FilterTaxonomy,
    GroupAwareFilter,
    OutputSelection,
)

__all__ = ["StratifiedSamplingFilter", "SelfInterestedSampler"]


class StratifiedSamplingFilter(GroupAwareFilter):
    """SS(attrib, timeInterval, threshold, highSmplRt, lowSmplRt)."""

    def __init__(
        self,
        name: str,
        attribute: str,
        interval_ms: float,
        threshold: float,
        high_rate_percent: float,
        low_rate_percent: float,
        prescription: str = "random",
        seed: int = 0,
    ):
        super().__init__(name)
        if interval_ms <= 0:
            raise ValueError("interval_ms must be positive")
        if not (0 < low_rate_percent <= 100 and 0 < high_rate_percent <= 100):
            raise ValueError("sample rates must be in (0, 100]")
        if threshold < 0:
            raise ValueError("threshold must be non-negative")
        self.attribute = attribute
        self.interval_ms = interval_ms
        self.threshold = threshold
        self.high_rate_percent = high_rate_percent
        self.low_rate_percent = low_rate_percent
        self.prescription = prescription
        self.seed = seed
        self._origin_ts: Optional[float] = None
        self._segment_index: Optional[int] = None
        self._members: list[StreamTuple] = []

    # ------------------------------------------------------------------
    @property
    def taxonomy(self) -> FilterTaxonomy:
        return FilterTaxonomy(
            candidate_computation=CandidateComputation(
                attributes=(self.attribute,),
                state_update="sample-range",
                threshold="time-interval",
            ),
            output_selection=OutputSelection(
                quantity=self.high_rate_percent,
                unit="percent",
                prescription=self.prescription,
            ),
            dependency=DependencySpec(stateful=False),
        )

    def sharing_key(self) -> Hashable:
        # ``seed`` is absent on purpose: only the self-interested
        # sampler draws from it; segments, degrees and top/bottom
        # eligibility here are functions of the input alone.
        return (
            type(self),
            self.attribute,
            self.interval_ms,
            self.threshold,
            self.high_rate_percent,
            self.low_rate_percent,
            self.prescription,
        )

    def degree_for(self, members: list[StreamTuple]) -> int:
        """Number of samples this segment owes (Definition 6 degree)."""
        values = [item.value(self.attribute) for item in members]
        dynamic = (max(values) - min(values)) >= self.threshold
        rate = self.high_rate_percent if dynamic else self.low_rate_percent
        return max(1, min(len(members), math.ceil(rate / 100.0 * len(members))))

    # ------------------------------------------------------------------
    def process(self, item: StreamTuple, ctx: FilterContext) -> None:
        if self._origin_ts is None:
            self._origin_ts = item.timestamp
        segment = int((item.timestamp - self._origin_ts) // self.interval_ms)
        if self._segment_index is not None and segment != self._segment_index:
            self._close_segment(ctx)
        self._segment_index = segment
        ctx.admit(item)
        self._members.append(item)

    def _close_segment(self, ctx: FilterContext, cut: bool = False) -> None:
        if not self._members:
            return
        degree = self.degree_for(self._members)
        ctx.set_degree(degree)
        if self.prescription in ("top", "bottom"):
            ranked = sorted(
                self._members,
                key=lambda t: (t.value(self.attribute), t.timestamp),
                reverse=(self.prescription == "top"),
            )
            ctx.restrict_eligible(ranked[:degree])
        ctx.close_set(cut=cut)
        self._members = []

    def flush(self, ctx: FilterContext) -> None:
        self._close_segment(ctx)
        self._segment_index = None

    def on_force_close(self, ctx: FilterContext) -> None:
        """A cut closes the partial segment with a proportional degree."""
        self._close_segment(ctx, cut=True)

    def state(self, ref: Callable[[StreamTuple], int]) -> list:
        """``[origin timestamp, segment index, open segment's members]``."""
        return [self._origin_ts, self._segment_index, [ref(t) for t in self._members]]

    def restore(self, state: list, tuples: Mapping[int, StreamTuple]) -> None:
        self._origin_ts, self._segment_index, members = state
        self._members = [tuples[seq] for seq in members]

    def make_self_interested(self) -> "SelfInterestedSampler":
        return SelfInterestedSampler(self)


class SelfInterestedSampler:
    """Uncoordinated baseline: samples each segment independently.

    "Self-interested" stratified samplers pick their per-segment samples
    at random with a private generator, so two samplers over the same
    source rarely agree - exactly the redundancy group-aware filtering
    removes.
    """

    def __init__(self, spec: StratifiedSamplingFilter):
        self.name = spec.name
        self._spec = spec
        # crc32, not hash(): string hashes are salted per process.
        self._rng = random.Random(spec.seed ^ zlib.crc32(spec.name.encode()))
        self._origin_ts: Optional[float] = None
        self._segment_index: Optional[int] = None
        self._members: list[StreamTuple] = []

    def process(self, item: StreamTuple) -> list[StreamTuple]:
        outputs: list[StreamTuple] = []
        if self._origin_ts is None:
            self._origin_ts = item.timestamp
        segment = int((item.timestamp - self._origin_ts) // self._spec.interval_ms)
        if self._segment_index is not None and segment != self._segment_index:
            outputs = self._sample()
        self._segment_index = segment
        self._members.append(item)
        return outputs

    def flush(self) -> list[StreamTuple]:
        return self._sample()

    def _sample(self) -> list[StreamTuple]:
        if not self._members:
            return []
        degree = self._spec.degree_for(self._members)
        if self._spec.prescription in ("top", "bottom"):
            ranked = sorted(
                self._members,
                key=lambda t: (t.value(self._spec.attribute), t.timestamp),
                reverse=(self._spec.prescription == "top"),
            )
            chosen = ranked[:degree]
        else:
            chosen = self._rng.sample(self._members, degree)
        self._members = []
        return sorted(chosen, key=lambda t: t.timestamp)
