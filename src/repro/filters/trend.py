"""DC2: delta compression on the *trend* of an attribute.

Section 5.1: "if an application is interested in the changing rates or
the 'trends' of temperature values, the filter may want to compute the
ratio of the temperature change over a time span for each tuple" and run
delta compression on that derived state.  The trend of tuple *i* is
``(v_i - v_{i-1}) / (t_i - t_{i-1})`` in units per second; the first
tuple's trend is defined as zero (no change yet), making it the seed
reference exactly as for DC1.
"""

from __future__ import annotations

from typing import Callable, Mapping, Optional

from repro.core.tuples import StreamTuple
from repro.filters.delta import DeltaFilterBase, SelfInterestedDelta
from repro.filters.functions import rate_of_change

__all__ = ["TrendDeltaFilter"]


class _TrendState:
    """Streaming computation of the rate of change per second."""

    def __init__(self, attribute: str):
        self.attribute = attribute
        self._previous_value: Optional[float] = None
        self._previous_ts: Optional[float] = None

    def derive(self, item: StreamTuple) -> float:
        value = item.value(self.attribute)
        if self._previous_value is None:
            trend = 0.0
        else:
            assert self._previous_ts is not None
            trend = rate_of_change(
                value, self._previous_value, item.timestamp - self._previous_ts
            )
        self._previous_value = value
        self._previous_ts = item.timestamp
        return trend


class TrendDeltaFilter(DeltaFilterBase):
    """DC2(attrib, delta, slack): monitors changes of trend(attrib)."""

    state_update = "trend"

    def __init__(
        self,
        name: str,
        attribute: str,
        delta: float,
        slack: float,
        stateful: bool = False,
    ):
        super().__init__(name, delta, slack, stateful=stateful)
        self.attribute = attribute
        self._trend = _TrendState(attribute)

    def _attributes(self) -> tuple[str, ...]:
        return (self.attribute,)

    def _derive(self, item: StreamTuple) -> Optional[float]:
        return self._trend.derive(item)

    def state(self, ref: Callable[[StreamTuple], int]) -> list:
        """The delta state plus the previous value and timestamp."""
        trend = self._trend
        return [*super().state(ref), trend._previous_value, trend._previous_ts]

    def restore(self, state: list, tuples: Mapping[int, StreamTuple]) -> None:
        super().restore(state[:-2], tuples)
        self._trend._previous_value, self._trend._previous_ts = state[-2:]

    def make_self_interested(self) -> SelfInterestedDelta:
        state = _TrendState(self.attribute)
        return SelfInterestedDelta(self.name, self.delta, state.derive)
