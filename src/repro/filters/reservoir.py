"""Reservoir-sampling filter.

Section 5.1: "reservoir sampling chooses a fixed number of samples from
a given population.  Each tuple in the result can be replaced randomly
by another tuple in the population.  In this case, the candidate set of
each output tuple is the whole data sequence in a predefined window.
Reservoir sampling can be useful to bound the output bandwidth demands."

The group-aware formulation: the window is one candidate set with degree
``reservoir_size`` and every member eligible - the decider's picks are a
valid reservoir because any k-subset of the window is.  The
self-interested counterpart runs classic Vitter reservoir sampling per
window.
"""

from __future__ import annotations

import random
import zlib
from typing import Callable, Mapping

from repro.core.engine import FilterContext
from repro.core.tuples import StreamTuple
from repro.filters.base import (
    CandidateComputation,
    DependencySpec,
    FilterTaxonomy,
    GroupAwareFilter,
    OutputSelection,
)

__all__ = ["ReservoirSamplingFilter", "SelfInterestedReservoir"]


class ReservoirSamplingFilter(GroupAwareFilter):
    """Pick ``reservoir_size`` tuples from every ``window`` inputs."""

    def __init__(self, name: str, reservoir_size: int, window: int, seed: int = 0):
        super().__init__(name)
        if reservoir_size < 1:
            raise ValueError("reservoir_size must be at least 1")
        if window < reservoir_size:
            raise ValueError("window must be at least reservoir_size")
        self.reservoir_size = reservoir_size
        self.window = window
        self.seed = seed
        self._count_in_window = 0

    @property
    def taxonomy(self) -> FilterTaxonomy:
        return FilterTaxonomy(
            candidate_computation=CandidateComputation(
                attributes=(),
                state_update="tuple-count",
                threshold="window-size",
            ),
            output_selection=OutputSelection(
                quantity=self.reservoir_size, unit="tuple", prescription="random"
            ),
            dependency=DependencySpec(stateful=False),
        )

    def process(self, item: StreamTuple, ctx: FilterContext) -> None:
        ctx.admit(item)
        self._count_in_window += 1
        if self._count_in_window >= self.window:
            self._close(ctx)

    def _close(self, ctx: FilterContext, cut: bool = False) -> None:
        if self._count_in_window == 0:
            return
        ctx.set_degree(min(self.reservoir_size, self._count_in_window))
        ctx.close_set(cut=cut)
        self._count_in_window = 0

    def flush(self, ctx: FilterContext) -> None:
        self._close(ctx)

    def on_force_close(self, ctx: FilterContext) -> None:
        self._close(ctx, cut=True)

    def state(self, ref: Callable[[StreamTuple], int]) -> list:
        """``[tuples in the open window]``."""
        return [self._count_in_window]

    def restore(self, state: list, tuples: Mapping[int, StreamTuple]) -> None:
        (self._count_in_window,) = state

    def make_self_interested(self) -> "SelfInterestedReservoir":
        return SelfInterestedReservoir(self)


class SelfInterestedReservoir:
    """Classic per-window reservoir sampling (Vitter's algorithm R)."""

    def __init__(self, spec: ReservoirSamplingFilter):
        self.name = spec.name
        self._spec = spec
        # crc32, not hash(): string hashes are salted per process.
        self._rng = random.Random(spec.seed ^ zlib.crc32(spec.name.encode()))
        self._reservoir: list[StreamTuple] = []
        self._seen = 0

    def process(self, item: StreamTuple) -> list[StreamTuple]:
        outputs: list[StreamTuple] = []
        self._seen += 1
        if len(self._reservoir) < self._spec.reservoir_size:
            self._reservoir.append(item)
        else:
            slot = self._rng.randrange(self._seen)
            if slot < self._spec.reservoir_size:
                self._reservoir[slot] = item
        if self._seen >= self._spec.window:
            outputs = self._drain()
        return outputs

    def flush(self) -> list[StreamTuple]:
        return self._drain()

    def _drain(self) -> list[StreamTuple]:
        outputs = sorted(self._reservoir, key=lambda t: t.seq)
        self._reservoir = []
        self._seen = 0
        return outputs
