"""Streaming detectors: raw series in, scalar signals out.

Each detector here is a tiny stateful reducer the
:class:`~repro.obs.watch.Watchtower` feeds once per poll.  They hold no
opinions about thresholds — they turn scraped series into *signals*
(rates, robust anomaly scores, regression ratios, windowed event
counts) and the declarative rules in :mod:`repro.obs.slo` decide what
is worth a verdict.

All of them are pure Python over bounded deques: no clocks of their own
(the poller passes ``now``), no background tasks, deterministic given
the same inputs.
"""

from __future__ import annotations

from collections import deque

from repro.metrics.summary import median

__all__ = [
    "BucketDelta",
    "EventWindow",
    "MadDetector",
    "P99Baseline",
    "RateTracker",
]


class RateTracker:
    """Per-key counter → rate/s, with counter-reset handling.

    Prometheus counters only go up — until the process restarts.  A
    respawned worker re-exports its families from zero, so a negative
    delta is read as a reset and the new absolute value *is* the delta
    (everything since the restart).  The first observation of a key has
    no baseline and yields ``None``.
    """

    def __init__(self) -> None:
        self._previous: dict[object, tuple[float, float]] = {}

    def rate(self, key: object, value: float, now: float) -> float | None:
        return self.rate_and_delta(key, value, now)[0]

    def rate_and_delta(
        self, key: object, value: float, now: float
    ) -> tuple[float | None, float | None]:
        previous = self._previous.get(key)
        self._previous[key] = (value, now)
        if previous is None:
            return None, None
        prev_value, prev_ts = previous
        delta = value - prev_value
        if delta < 0:  # counter reset (worker respawn)
            delta = value
        dt = now - prev_ts
        return (delta / dt if dt > 0 else None), delta


class MadDetector:
    """Robust anomaly score: |x − median| / max(1.4826·MAD, min_scale).

    The median absolute deviation makes the score immune to the step it
    is trying to detect (a mean/stddev scorer chases its own tail).
    ``min_scale`` is the absolute noise floor: a perfectly flat history
    has MAD 0, and without the floor any jitter would score infinite.
    Scores are computed against the history *before* the new value is
    admitted, so a step scores high on arrival and decays as the window
    refills — flat → 0, step/spike → fires, recovery → clears.
    """

    def __init__(
        self,
        window: int = 64,
        min_samples: int = 8,
        min_scale: float = 1.0,
    ):
        if min_samples < 3:
            raise ValueError("min_samples must be at least 3")
        self._values: deque[float] = deque(maxlen=window)
        self.min_samples = min_samples
        self.min_scale = min_scale

    def score(self, value: float) -> float:
        """Anomaly score of ``value`` vs history (0.0 while warming up)."""
        if len(self._values) < self.min_samples:
            return 0.0
        center = median(self._values)
        mad = median([abs(v - center) for v in self._values])
        scale = max(1.4826 * mad, self.min_scale)
        return abs(value - center) / scale

    def update(self, value: float) -> float:
        """Score ``value`` then admit it to the history."""
        score = self.score(value)
        self._values.append(value)
        return score


class P99Baseline:
    """Latency regression ratio against a warmup baseline.

    The first ``warmup`` observations are collected untested; their
    median becomes the baseline and every later observation reports
    ``value / baseline``.  ``min_baseline`` stops a microsecond-scale
    warmup from flagging every later millisecond as a 1000× regression.
    """

    def __init__(self, warmup: int = 5, min_baseline: float = 1.0):
        if warmup < 1:
            raise ValueError("warmup must be at least 1")
        self.warmup = warmup
        self.min_baseline = min_baseline
        self._warm: list[float] = []
        self.baseline: float | None = None

    def update(self, value: float) -> float | None:
        """Regression ratio vs baseline (``None`` while warming up)."""
        if self.baseline is None:
            self._warm.append(value)
            if len(self._warm) >= self.warmup:
                self.baseline = max(median(self._warm), self.min_baseline)
            return None
        return value / self.baseline


class EventWindow:
    """Count of timestamped occurrences inside a sliding window."""

    def __init__(self, window_s: float = 60.0):
        if window_s <= 0:
            raise ValueError("window_s must be positive")
        self.window_s = window_s
        self._times: deque[float] = deque()

    def add(self, ts: float) -> None:
        self._times.append(ts)

    def count(self, now: float) -> int:
        horizon = now - self.window_s
        times = self._times
        while times and times[0] < horizon:
            times.popleft()
        return len(times)


class BucketDelta:
    """Per-interval histogram buckets from cumulative scrape snapshots.

    Exposed histogram buckets are lifetime-cumulative, which dampens
    every fresh pathology under the weight of history.  This tracker
    differences consecutive snapshots per series key, yielding the
    bucket counts of *this poll interval only* — the honest input for a
    latency-regression detector.  A shrinking count (worker restart)
    resets the baseline and reports the new snapshot as the interval.
    """

    def __init__(self) -> None:
        self._previous: dict[object, dict[float, float]] = {}

    def delta(
        self, key: object, cumulative: dict[float, float]
    ) -> dict[float, float]:
        previous = self._previous.get(key)
        self._previous[key] = dict(cumulative)
        if previous is None:
            return dict(cumulative)
        out: dict[float, float] = {}
        reset = False
        for bound, count in cumulative.items():
            diff = count - previous.get(bound, 0.0)
            if diff < 0:
                reset = True
                break
            out[bound] = diff
        if reset:
            return dict(cumulative)
        return out
