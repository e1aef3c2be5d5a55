"""Timely cuts: run-time prediction and group time constraints.

Chapter 3 bounds the delay group-aware filtering adds to each tuple by
*cutting* (force-closing) candidate sets when the accumulated region span
plus the predicted greedy run time would violate the group's time
constraint.  "For predicting the region-based greedy algorithm's
run-time, we build a latency model based on on-line observations of the
most recent, say ten, regions' performance ... we found that a linear
model was a reasonably accurate fit" (section 3.3).  The per-candidate-set
algorithm does not predict run time (its decision step is constant-time);
its cut compares the candidate-set span against the constraint directly.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import chain

__all__ = ["TimeConstraint", "RuntimePredictor"]


@dataclass(frozen=True)
class TimeConstraint:
    """The group's timeliness requirement.

    ``max_delay_ms`` is the maximum time a tuple may be delayed by the
    filtering stage (the paper models the group requirement as "a
    conjunction of the time requirements of all the filters", i.e. the
    tightest individual requirement).  ``overestimate_ms`` is the
    conservative margin added to the predicted run time: "group-aware
    filtering may apply overestimation to the run-time with an added
    constant" (section 3.3).
    """

    max_delay_ms: float
    overestimate_ms: float = 0.0

    def __post_init__(self) -> None:
        if self.max_delay_ms <= 0:
            raise ValueError("max_delay_ms must be positive")
        if self.overestimate_ms < 0:
            raise ValueError("overestimate_ms must be non-negative")


class RuntimePredictor:
    """Self-tuning linear model of the greedy solve time per region.

    Observes ``(region size, measured run time)`` pairs for the most
    recent ``window`` regions and fits ``time = slope * size + intercept``
    by least squares.  With fewer than two observations it falls back to
    the mean observation, or zero when nothing has been observed yet -
    the first regions then simply run uncut, exactly as a fresh deployment
    of the prototype would.
    """

    def __init__(self, window: int = 10):
        if window < 2:
            raise ValueError("window must be at least 2")
        self._observations: deque[tuple[int, float]] = deque(maxlen=window)

    def observe(self, region_size: int, runtime_ms: float) -> None:
        self._observations.append((region_size, max(0.0, runtime_ms)))

    @property
    def observation_count(self) -> int:
        return len(self._observations)

    def coefficients(self) -> tuple[float, float]:
        """Return ``(slope, intercept)`` of the fitted model."""
        n = len(self._observations)
        if n == 0:
            return 0.0, 0.0
        if n == 1:
            return 0.0, self._observations[0][1]
        sum_x = sum(size for size, _ in self._observations)
        sum_y = sum(time for _, time in self._observations)
        sum_xx = sum(size * size for size, _ in self._observations)
        sum_xy = sum(size * time for size, time in self._observations)
        denominator = n * sum_xx - sum_x * sum_x
        if denominator == 0:
            # All observed regions had the same size; use their mean time.
            return 0.0, sum_y / n
        slope = (n * sum_xy - sum_x * sum_y) / denominator
        intercept = (sum_y - slope * sum_x) / n
        return slope, intercept

    def predict(self, region_size: int) -> float:
        """Predicted greedy run time (ms) for a region of ``region_size``."""
        slope, intercept = self.coefficients()
        return max(0.0, slope * region_size + intercept)

    def state(self) -> list:
        """The window, oldest first: ``[size, ms, size, ms, ...]``.

        A restored engine predicts from what this one measured instead
        of measuring the window's solves again."""
        return list(chain.from_iterable(self._observations))

    def restore(self, state: list) -> None:
        self._observations.clear()
        self._observations.extend(zip(state[::2], state[1::2]))
