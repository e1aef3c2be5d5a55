"""Live stats snapshots of a running dissemination service.

A snapshot is a cheap, consistent-enough view for operators and for the
load generator's ``metrics.jsonl``: per-session queue depths and drop
counts, broker-wide offered/decided/delivered totals, and p50/p99 decide
latency over a sliding window (via :mod:`repro.metrics.latency`).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from repro.metrics.latency import latency_percentiles

__all__ = ["SessionSnapshot", "ServiceSnapshot"]


@dataclass(frozen=True)
class SessionSnapshot:
    """Point-in-time view of one subscriber session."""

    app_name: str
    source_name: str
    spec: str
    policy: str
    queue_depth: int
    queue_capacity: int
    batcher_pending: int
    staged_tuples: int
    enqueued_batches: int
    delivered_batches: int
    delivered_tuples: int
    dropped_batches: int
    dropped_tuples: int
    disconnected: bool

    @classmethod
    def of(cls, session) -> "SessionSnapshot":
        """A :class:`~repro.service.session.SubscriberSession`'s view."""
        queue, stats = session.queue, session.stats
        return cls(
            app_name=session.app_name,
            source_name=session.source_name,
            spec=session.spec,
            policy=queue.policy,
            queue_depth=queue.depth,
            queue_capacity=queue.capacity,
            batcher_pending=session.batcher.pending,
            staged_tuples=stats.staged_tuples,
            enqueued_batches=stats.enqueued_batches,
            delivered_batches=stats.delivered_batches,
            delivered_tuples=stats.delivered_tuples,
            dropped_batches=stats.dropped_batches,
            dropped_tuples=stats.dropped_tuples,
            disconnected=session.disconnected,
        )


@dataclass(frozen=True)
class ServiceSnapshot:
    """Point-in-time view of the whole broker."""

    #: Stream-time milliseconds of the latest processed tuple or tick.
    now_ms: float
    sources: tuple[str, ...]
    session_count: int
    offered: int
    decided_emissions: int
    delivered_tuples: int
    dropped_tuples: int
    regroups: int
    ticks: int
    cuts_triggered: int
    decide_p50_ms: float
    decide_p99_ms: float
    sessions: tuple[SessionSnapshot, ...]
    #: Final stats of sessions that were unsubscribed or disconnected;
    #: their delivered/dropped counts stay in the broker-wide totals.
    retired: tuple[SessionSnapshot, ...] = ()

    @classmethod
    def capture(
        cls,
        *,
        now_ms: float,
        sources: tuple[str, ...],
        sessions: tuple[SessionSnapshot, ...],
        retired: tuple[SessionSnapshot, ...],
        offered: int,
        decided_emissions: int,
        regroups: int,
        ticks: int,
        cuts_triggered: int,
        decide_window_ms: list[float],
    ) -> "ServiceSnapshot":
        percentiles = latency_percentiles(decide_window_ms, (50, 99))
        everyone = sessions + retired
        return cls(
            now_ms=now_ms,
            sources=sources,
            session_count=len(sessions),
            offered=offered,
            decided_emissions=decided_emissions,
            delivered_tuples=sum(s.delivered_tuples for s in everyone),
            dropped_tuples=sum(s.dropped_tuples for s in everyone),
            regroups=regroups,
            ticks=ticks,
            cuts_triggered=cuts_triggered,
            decide_p50_ms=percentiles["p50"],
            decide_p99_ms=percentiles["p99"],
            sessions=sessions,
            retired=retired,
        )

    def to_dict(self) -> dict:
        """JSON-serializable form for ``metrics.jsonl`` records."""
        payload = asdict(self)
        payload["sources"] = list(payload["sources"])
        payload["sessions"] = [dict(s) for s in payload["sessions"]]
        payload["retired"] = [dict(s) for s in payload["retired"]]
        return payload

    @property
    def max_queue_depth(self) -> int:
        return max((s.queue_depth for s in self.sessions), default=0)
