"""Location (Euclidean) delta-compression filter.

Section 5.1: "if a tuple contains two-dimension coordinates of a
location, the natural distance function will be Euclidean distance."
A location-tracking application (section 3.1's robot tracker) wants an
update whenever the tracked entity moved ``delta`` meters, tolerating
``slack`` meters of deviation.

The machinery is the DC core with a vector distance: the reference is
the first position at least ``delta`` from the previous reference, and
the candidate set holds contiguous positions within ``slack`` of it.
"""

from __future__ import annotations

import enum
from itertools import chain
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
from repro.filters.functions import euclidean_distance

__all__ = ["LocationDeltaFilter", "SelfInterestedLocation"]


class _Phase(enum.Enum):
    SEED = "seed"
    PRE_REF = "pre_reference"
    POST_REF = "post_reference"


class LocationDeltaFilter(GroupAwareFilter):
    """DC over the Euclidean distance of an (x, y) position."""

    def __init__(
        self,
        name: str,
        x_attribute: str,
        y_attribute: str,
        delta: float,
        slack: float,
    ):
        super().__init__(name)
        if delta <= 0:
            raise ValueError("delta must be positive")
        if slack < 0 or slack > delta / 2.0 * (1.0 + 1e-4):
            raise ValueError("Axiom 1 requires 0 <= slack <= delta/2")
        self.x_attribute = x_attribute
        self.y_attribute = y_attribute
        self.delta = delta
        self.slack = slack
        self._phase = _Phase.SEED
        self._base: Optional[tuple[float, float]] = None
        self._reference: Optional[tuple[float, float]] = None
        #: Tentative members with their positions, kept only until the
        #: reference decides them.
        self._tentative: list[tuple[StreamTuple, tuple[float, float]]] = []

    @property
    def taxonomy(self) -> FilterTaxonomy:
        return FilterTaxonomy(
            candidate_computation=CandidateComputation(
                attributes=(self.x_attribute, self.y_attribute),
                state_update="position",
                threshold="euclidean-distance",
            ),
            output_selection=OutputSelection(quantity=1, unit="tuple"),
            dependency=DependencySpec(stateful=False),
        )

    def sharing_key(self) -> Hashable:
        return (type(self), self.x_attribute, self.y_attribute, self.delta, self.slack)

    def _position(self, item: StreamTuple) -> tuple[float, float]:
        return (item.value(self.x_attribute), item.value(self.y_attribute))

    def process(self, item: StreamTuple, ctx: FilterContext) -> None:
        position = self._position(item)

        if self._phase is _Phase.SEED:
            ctx.admit(item)
            ctx.mark_reference(item)
            self._reference = position
            self._phase = _Phase.POST_REF
            return

        if self._phase is _Phase.POST_REF:
            assert self._reference is not None
            if euclidean_distance(position, self._reference) <= self.slack:
                ctx.admit(item)
                return
            self._base = self._reference
            self._reference = None
            ctx.close_set()
            self._phase = _Phase.PRE_REF
            self._tentative = []

        assert self._base is not None
        distance = euclidean_distance(position, self._base)
        if distance >= self.delta:
            ctx.admit(item)
            ctx.mark_reference(item)
            self._reference = position
            for tentative, at in self._tentative:
                if euclidean_distance(at, position) > self.slack:
                    ctx.dismiss(tentative)
            self._tentative = []
            self._phase = _Phase.POST_REF
        elif distance >= self.delta - self.slack:
            ctx.admit(item)
            self._tentative.append((item, position))
        else:
            self._dismiss_tentative(ctx)

    def _dismiss_tentative(self, ctx: FilterContext) -> None:
        for tentative, _ in self._tentative:
            ctx.dismiss(tentative)
        self._tentative = []

    def flush(self, ctx: FilterContext) -> None:
        if self._phase is _Phase.POST_REF:
            ctx.close_set()
        else:
            self._dismiss_tentative(ctx)
            ctx.close_set()
        self._phase = _Phase.PRE_REF

    def on_force_close(self, ctx: FilterContext) -> None:
        if self._phase is _Phase.POST_REF:
            self._base = self._reference
            self._reference = None
            ctx.close_set(cut=True)
            self._phase = _Phase.PRE_REF
            self._tentative = []
        else:
            self._dismiss_tentative(ctx)

    def state(self, ref: Callable[[StreamTuple], int]) -> list:
        """``[phase, base, reference, tentative]``, positions as
        ``[x, y]`` and the tentative members as ``[seq, x, y, ...]``."""
        return [
            self._phase.value,
            None if self._base is None else list(self._base),
            None if self._reference is None else list(self._reference),
            list(chain.from_iterable((ref(item), *at) for item, at in self._tentative)),
        ]

    def restore(self, state: list, tuples: Mapping[int, StreamTuple]) -> None:
        phase, base, reference, tentative = state
        self._phase = _Phase(phase)
        self._base = None if base is None else (base[0], base[1])
        self._reference = None if reference is None else (reference[0], reference[1])
        self._tentative = [
            (tuples[seq], (x, y))
            for seq, x, y in zip(tentative[::3], tentative[1::3], tentative[2::3])
        ]

    def make_self_interested(self) -> "SelfInterestedLocation":
        return SelfInterestedLocation(self)


class SelfInterestedLocation:
    """Reference positions only (no coordination)."""

    def __init__(self, spec: LocationDeltaFilter):
        self.name = spec.name
        self._spec = spec
        self._base: Optional[tuple[float, float]] = None

    def process(self, item: StreamTuple) -> list[StreamTuple]:
        position = (
            item.value(self._spec.x_attribute),
            item.value(self._spec.y_attribute),
        )
        if self._base is None or (
            euclidean_distance(position, self._base) >= self._spec.delta
        ):
            self._base = position
            return [item]
        return []

    def flush(self) -> list[StreamTuple]:
        return []
