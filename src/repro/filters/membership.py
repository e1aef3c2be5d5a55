"""Membership (classification) based filter.

Section 5.1: "for classification-based candidate admission,
domain-specific membership functions, such as fuzzy rules for 'safe'
zones, may be used", and section 5.1's quality-equivalence rules: "the
application may treat as equivalent in quality any tuples" in the same
class.

:class:`BandTransitionFilter` watches which *band* (named value range) a
reading falls into and reports band transitions: each maximal run of
tuples inside the new band's entry window forms a candidate set - any of
those tuples is an equally good witness that the state changed (e.g.
"chlorine entered the DANGER zone").
"""

from __future__ import annotations

from typing import Callable, Hashable, Mapping, Optional, Sequence

from repro.core.engine import FilterContext
from repro.core.tuples import StreamTuple
from repro.filters.base import (
    CandidateComputation,
    DependencySpec,
    FilterTaxonomy,
    GroupAwareFilter,
    OutputSelection,
)

__all__ = ["Band", "BandTransitionFilter", "SelfInterestedBandWatcher"]


class Band:
    """A named, inclusive value range."""

    __slots__ = ("name", "low", "high")

    def __init__(self, name: str, low: float, high: float):
        if low > high:
            raise ValueError(f"band {name!r}: low must not exceed high")
        self.name = name
        self.low = low
        self.high = high

    def contains(self, value: float) -> bool:
        return self.low <= value <= self.high

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Band({self.name!r}, [{self.low}, {self.high}])"


class BandTransitionFilter(GroupAwareFilter):
    """Report each transition into a different band.

    ``witness_window`` bounds how many consecutive same-band tuples join
    the transition's candidate set (all are quality-equivalent witnesses
    of the transition; a bounded window keeps timeliness in check).
    """

    def __init__(
        self,
        name: str,
        attribute: str,
        bands: Sequence[Band],
        witness_window: int = 5,
    ):
        super().__init__(name)
        if not bands:
            raise ValueError("at least one band required")
        if witness_window < 1:
            raise ValueError("witness_window must be at least 1")
        names = [band.name for band in bands]
        if len(set(names)) != len(names):
            raise ValueError("band names must be unique")
        self.attribute = attribute
        self.bands = list(bands)
        self.witness_window = witness_window
        self._current_band: Optional[str] = None
        self._witnesses = 0

    @property
    def taxonomy(self) -> FilterTaxonomy:
        return FilterTaxonomy(
            candidate_computation=CandidateComputation(
                attributes=(self.attribute,),
                state_update="band-classification",
                threshold="membership",
            ),
            output_selection=OutputSelection(quantity=1, unit="tuple"),
            dependency=DependencySpec(stateful=False),
        )

    def sharing_key(self) -> Hashable:
        bands = tuple((band.name, band.low, band.high) for band in self.bands)
        return (type(self), self.attribute, self.witness_window, bands)

    def classify(self, value: float) -> Optional[str]:
        for band in self.bands:
            if band.contains(value):
                return band.name
        return None

    def process(self, item: StreamTuple, ctx: FilterContext) -> None:
        band = self.classify(item.value(self.attribute))
        if band is None:
            # Outside every band: any running witness window ends.
            if ctx.has_open_candidates():
                ctx.close_set()
            self._witnesses = 0
            return
        if band == self._current_band:
            # Same band: extend the open witness window, if any.
            if ctx.has_open_candidates():
                ctx.admit(item)
                self._witnesses += 1
                if self._witnesses >= self.witness_window:
                    ctx.close_set()
                    self._witnesses = 0
            return
        # Transition into a new band: start a fresh witness set.
        if ctx.has_open_candidates():
            ctx.close_set()
        self._current_band = band
        self._witnesses = 1
        ctx.admit(item)
        ctx.mark_reference(item)
        if self.witness_window == 1:
            ctx.close_set()
            self._witnesses = 0

    def flush(self, ctx: FilterContext) -> None:
        ctx.close_set()
        self._witnesses = 0

    def on_force_close(self, ctx: FilterContext) -> None:
        ctx.close_set(cut=True)
        self._witnesses = 0

    def state(self, ref: Callable[[StreamTuple], int]) -> list:
        """``[current band, witnesses in the open window]``."""
        return [self._current_band, self._witnesses]

    def restore(self, state: list, tuples: Mapping[int, StreamTuple]) -> None:
        self._current_band, self._witnesses = state

    def make_self_interested(self) -> "SelfInterestedBandWatcher":
        return SelfInterestedBandWatcher(self)


class SelfInterestedBandWatcher:
    """Emits the first tuple of every band transition."""

    def __init__(self, spec: BandTransitionFilter):
        self.name = spec.name
        self._spec = spec
        self._current_band: Optional[str] = None

    def process(self, item: StreamTuple) -> list[StreamTuple]:
        band = self._spec.classify(item.value(self._spec.attribute))
        if band is not None and band != self._current_band:
            self._current_band = band
            return [item]
        return []

    def flush(self) -> list[StreamTuple]:
        return []
