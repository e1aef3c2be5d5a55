"""Server-initiated degradation control (closing section 3.1's loop).

The paper models graceful degradation as an ordered list of fallback
quality levels (:class:`~repro.qos.spec.DegradationPolicy`), but the
live broker never *drove* it: overload ended in queue-overflow drops or
a ``disconnect`` reap.  :class:`DegradationController` closes that loop
per session.  The broker feeds it the session's stress signals — queue
depth against its bound, overflow-drop rate, measured egress bandwidth
and batch-flush wait — and the controller answers with at most one
:class:`DegradationDecision` per evaluation: step *down* one quality
level when any signal crosses its threshold, step *up* one level after
a sustained healthy window.

Recovery is AIMD-shaped, mirroring the ingest side's
:class:`~repro.transport.client.AdaptiveIngest`: probing back toward
the preferred level is additive (one level at a time after
``healthy_window_s`` of calm), and a probe that re-trips multiplies the
next probe wait by ``probe_backoff`` (halving the probe cadence), so a
persistently saturated link settles at the coarse level instead of
oscillating.  The probe wait resets once the session sits at level 0
through a full healthy window.

Everything here is pure synchronous bookkeeping — no clocks, no I/O —
so a service (the broker, or the cluster router for the apps it routes)
can evaluate it under the source lock.  :func:`resolve_session` is the
one place a subscription's delivery bounds and controller are resolved.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import Mapping, Optional

from repro.qos.spec import (
    DegradationPolicy,
    QualitySpec,
    SessionLimits,
    session_limits,
)

__all__ = [
    "DegradationConfig",
    "DegradationController",
    "DegradationDecision",
    "policy_from_profile",
    "policy_to_profile",
    "resolve_session",
]


@dataclass(frozen=True)
class DegradationConfig:
    """Thresholds and cadence for one session's degradation control."""

    #: Queue depth as a fraction of capacity that counts as stressed.
    queue_high_ratio: float = 0.85
    #: Overflow-dropped tuples per second that counts as stressed.
    drop_rate_per_s: float = 1.0
    #: Broker-side wait (ms) shipping one batch into the session queue
    #: that counts as stressed (a blocking put that long means the
    #: consumer is pacing the broker).  ``None`` disables the signal.
    flush_wait_ms: Optional[float] = 200.0
    #: Minimum seconds between controller evaluations.
    interval_s: float = 0.25
    #: Minimum seconds between successive degrade steps.
    cooldown_s: float = 1.0
    #: Base healthy window before probing one level back up.
    healthy_window_s: float = 2.0
    #: Probe-wait multiplier applied when a probe re-trips.
    probe_backoff: float = 2.0
    #: Upper bound on the probe wait, however often probes fail.
    max_probe_wait_s: float = 60.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.queue_high_ratio <= 1.0:
            raise ValueError("queue_high_ratio must be within [0, 1]")
        if self.drop_rate_per_s < 0:
            raise ValueError("drop_rate_per_s must be non-negative")
        if self.flush_wait_ms is not None and self.flush_wait_ms <= 0:
            raise ValueError("flush_wait_ms must be positive (or None)")
        if self.interval_s <= 0 or self.cooldown_s < 0:
            raise ValueError("interval_s must be positive, cooldown_s >= 0")
        if self.healthy_window_s <= 0:
            raise ValueError("healthy_window_s must be positive")
        if self.probe_backoff < 1.0:
            raise ValueError("probe_backoff must be at least 1")
        if self.max_probe_wait_s < self.healthy_window_s:
            raise ValueError("max_probe_wait_s must cover healthy_window_s")


@dataclass(frozen=True)
class DegradationDecision:
    """One level transition, with the signal that triggered it as evidence."""

    action: str  #: ``"degrade"`` or ``"recover"``
    from_level: int
    to_level: int
    spec: str  #: the new level's filter spec
    signal: str  #: ``queue_depth`` / ``drop_rate`` / ``bandwidth`` / ``flush_wait`` / ``healthy``
    value: float
    threshold: float


class DegradationController:
    """Per-session level controller over one :class:`DegradationPolicy`."""

    def __init__(
        self,
        policy: DegradationPolicy,
        config: Optional[DegradationConfig] = None,
        *,
        level: int = 0,
    ):
        if not 0 <= level < len(policy.levels):
            raise ValueError(
                f"level {level} outside policy's {len(policy.levels)} levels"
            )
        self.policy = policy
        self.config = config if config is not None else DegradationConfig()
        self.level = level
        self._last_eval_s: Optional[float] = None
        self._last_step_s: Optional[float] = None
        self._healthy_since: Optional[float] = None
        self._probe_wait_s = self.config.healthy_window_s
        #: Set while the most recent transition was an upward probe whose
        #: outcome (calm vs re-trip) is still being judged.
        self._probing = False
        self._last_dropped = 0
        self._last_egress_bytes = 0
        #: Worst broker-side flush wait observed since the last evaluation.
        self._flush_wait_ms = 0.0
        #: Level transitions as ``(action, to_level)`` — the recovery
        #: analogue of ``AdaptiveIngest.trajectory``.
        self.trajectory: list[tuple[str, int]] = [("start", level)]

    # ------------------------------------------------------------------
    @property
    def max_level(self) -> int:
        return len(self.policy.levels) - 1

    @property
    def spec(self) -> str:
        """The active level's filter spec."""
        return self.policy.levels[self.level].filter_spec

    def note_flush_wait(self, wait_ms: float) -> None:
        """Record one batch-ship wait (the broker calls this per flush)."""
        if wait_ms > self._flush_wait_ms:
            self._flush_wait_ms = wait_ms

    # ------------------------------------------------------------------
    def observe(
        self,
        now_s: float,
        *,
        queue_depth: int,
        queue_capacity: int,
        dropped_tuples: int,
        egress_bytes: int,
    ) -> Optional[DegradationDecision]:
        """Evaluate the session's signals; at most one step per call.

        ``dropped_tuples`` and ``egress_bytes`` are cumulative session
        counters; the controller differentiates them against the
        previous evaluation to get rates.  Calls arriving faster than
        ``interval_s`` are absorbed (rate bookkeeping still advances on
        the evaluated calls only).
        """
        cfg = self.config
        if self._last_eval_s is None:
            # First sight: baseline the cumulative counters, no verdict.
            self._last_eval_s = now_s
            self._last_dropped = dropped_tuples
            self._last_egress_bytes = egress_bytes
            return None
        dt = now_s - self._last_eval_s
        if dt < cfg.interval_s:
            return None
        drop_rate = max(0, dropped_tuples - self._last_dropped) / dt
        egress_kbps = (
            max(0, egress_bytes - self._last_egress_bytes) * 8.0 / 1000.0 / dt
        )
        flush_wait = self._flush_wait_ms
        self._last_eval_s = now_s
        self._last_dropped = dropped_tuples
        self._last_egress_bytes = egress_bytes
        self._flush_wait_ms = 0.0

        stress = self._stress_signal(
            queue_depth, queue_capacity, drop_rate, egress_kbps, flush_wait
        )
        if stress is not None:
            self._healthy_since = None
            if self._probing:
                # The upward probe re-tripped: halve the probe cadence.
                self._probing = False
                self._probe_wait_s = min(
                    self._probe_wait_s * cfg.probe_backoff,
                    cfg.max_probe_wait_s,
                )
            if self.level >= self.max_level:
                return None
            if (
                self._last_step_s is not None
                and now_s - self._last_step_s < cfg.cooldown_s
            ):
                return None
            return self._step(now_s, "degrade", self.level + 1, *stress)

        # Healthy: the last probe (if any) survived contact.
        self._probing = False
        if self._healthy_since is None:
            self._healthy_since = now_s
        calm = now_s - self._healthy_since
        if self.level == 0:
            if calm >= cfg.healthy_window_s:
                self._probe_wait_s = cfg.healthy_window_s
            return None
        if calm < self._probe_wait_s:
            return None
        decision = self._step(
            now_s, "recover", self.level - 1, "healthy", calm, self._probe_wait_s
        )
        self._probing = True
        self._healthy_since = now_s
        return decision

    def _stress_signal(
        self,
        queue_depth: int,
        queue_capacity: int,
        drop_rate: float,
        egress_kbps: float,
        flush_wait_ms: float,
    ) -> Optional[tuple[str, float, float]]:
        cfg = self.config
        ratio = queue_depth / queue_capacity if queue_capacity > 0 else 0.0
        if ratio >= cfg.queue_high_ratio:
            return ("queue_depth", ratio, cfg.queue_high_ratio)
        if cfg.drop_rate_per_s > 0 and drop_rate >= cfg.drop_rate_per_s:
            return ("drop_rate", drop_rate, cfg.drop_rate_per_s)
        if cfg.flush_wait_ms is not None and flush_wait_ms >= cfg.flush_wait_ms:
            return ("flush_wait", flush_wait_ms, cfg.flush_wait_ms)
        floors = self.policy.bandwidth_floors_kbps
        if floors and queue_depth > 0:
            # Data is waiting yet measured egress sits below the active
            # level's floor: the link cannot sustain this granularity.
            # (Without backlog a low egress just means a quiet stream.)
            floor = floors[self.level]
            if floor > 0 and egress_kbps < floor:
                return ("bandwidth", egress_kbps, floor)
        return None

    def _step(
        self,
        now_s: float,
        action: str,
        to_level: int,
        signal: str,
        value: float,
        threshold: float,
    ) -> DegradationDecision:
        decision = DegradationDecision(
            action=action,
            from_level=self.level,
            to_level=to_level,
            spec=self.policy.levels[to_level].filter_spec,
            signal=signal,
            value=value,
            threshold=threshold,
        )
        self.level = to_level
        self._last_step_s = now_s
        self.trajectory.append((action, to_level))
        return decision


def resolve_session(
    defaults,
    app_name: str,
    spec: str,
    *,
    qos: Optional[QualitySpec] = None,
    degradation: Optional[DegradationPolicy] = None,
    degradation_config: Optional[DegradationConfig] = None,
    **bounds,
) -> tuple[SessionLimits, Optional[DegradationController]]:
    """One subscription's delivery bounds and degradation controller,
    as the broker and the cluster router both resolve a subscribe.

    ``degradation`` builds a controller at its first level: the policy
    must name ``app_name``, ``spec`` must equal that level's filter
    spec, and its :class:`QualitySpec` stands in for an absent
    ``qos``.  ``qos`` maps ``defaults`` (the service's config)
    onto bounds through :func:`~repro.qos.spec.session_limits`, and an
    explicit bound in ``bounds`` (``queue_capacity``, ``overflow``,
    ``batch_max_items``, ``batch_max_delay_ms``; None for unset) wins.
    ``ValueError`` on a mismatch.
    """
    controller: Optional[DegradationController] = None
    if degradation is not None:
        if degradation.app_name != app_name:
            raise ValueError(
                f"degradation policy names app {degradation.app_name!r}, "
                f"subscription is for {app_name!r}"
            )
        controller = DegradationController(degradation, degradation_config)
        if spec != controller.spec:
            raise ValueError(
                "subscription spec must equal the degradation policy's "
                f"active level spec {controller.spec!r}, got {spec!r}"
            )
        if qos is None:
            qos = degradation.levels[0]
    base = {f.name: getattr(defaults, f.name) for f in fields(SessionLimits)}
    if qos is not None:
        if qos.app_name != app_name:
            raise ValueError(
                f"QoS profile names app {qos.app_name!r}, "
                f"subscription is for {app_name!r}"
            )
        base = asdict(session_limits(qos, **base))
    chosen = {key: value for key, value in bounds.items() if value is not None}
    return SessionLimits(**{**base, **chosen}), controller


# ----------------------------------------------------------------------
# Wire-profile serialization: the subscribe handshake carries the whole
# policy, so the server it reaches (a broker, or a cluster router) can
# drive it.


def policy_to_profile(
    policy: DegradationPolicy,
    *,
    config: Optional[DegradationConfig] = None,
) -> dict:
    """Portable JSON shape of a policy (+ its thresholds)."""
    profile: dict = {
        "levels": [
            {
                "spec": spec.filter_spec,
                "latency_tolerance_ms": spec.latency_tolerance_ms,
                "priority": spec.priority,
            }
            for spec in policy.levels
        ],
    }
    if policy.bandwidth_floors_kbps:
        profile["bandwidth_floors_kbps"] = list(policy.bandwidth_floors_kbps)
    if config is not None:
        profile["config"] = {
            "queue_high_ratio": config.queue_high_ratio,
            "drop_rate_per_s": config.drop_rate_per_s,
            # Carried even when None: omitting it would silently
            # re-enable the signal at the default threshold after a
            # respawn/migration round trip.
            "flush_wait_ms": config.flush_wait_ms,
            "interval_s": config.interval_s,
            "cooldown_s": config.cooldown_s,
            "healthy_window_s": config.healthy_window_s,
            "probe_backoff": config.probe_backoff,
            "max_probe_wait_s": config.max_probe_wait_s,
        }
    return profile


def policy_from_profile(
    profile: Mapping, app_name: str
) -> tuple[DegradationPolicy, Optional[DegradationConfig]]:
    """Parse a wire profile back into ``(policy, config)``.

    Raises ``ValueError`` on malformed profiles — the transport maps
    that onto a subscribe error frame, mirroring spec validation.
    """
    raw_levels = profile.get("levels")
    if not isinstance(raw_levels, (list, tuple)) or not raw_levels:
        raise ValueError("degradation profile needs a non-empty 'levels' list")
    levels = []
    for entry in raw_levels:
        if isinstance(entry, str):
            entry = {"spec": entry}
        if not isinstance(entry, Mapping) or "spec" not in entry:
            raise ValueError(
                "each degradation level must be a spec string or a "
                "mapping with a 'spec' key"
            )
        tolerance = entry.get("latency_tolerance_ms")
        levels.append(
            QualitySpec(
                app_name=app_name,
                filter_spec=str(entry["spec"]),
                latency_tolerance_ms=(
                    float(tolerance) if tolerance is not None else None
                ),
                priority=int(entry.get("priority", 0)),
            )
        )
    floors = tuple(
        float(f) for f in profile.get("bandwidth_floors_kbps", ())
    )
    policy = DegradationPolicy(
        app_name=app_name,
        levels=tuple(levels),
        bandwidth_floors_kbps=floors,
    )
    raw_cfg = profile.get("config")
    config: Optional[DegradationConfig] = None
    if raw_cfg is not None:
        if not isinstance(raw_cfg, Mapping):
            raise ValueError("degradation 'config' must be a mapping")
        known = {
            "queue_high_ratio",
            "drop_rate_per_s",
            "flush_wait_ms",
            "interval_s",
            "cooldown_s",
            "healthy_window_s",
            "probe_backoff",
            "max_probe_wait_s",
        }
        unknown = set(raw_cfg) - known
        if unknown:
            raise ValueError(
                f"unknown degradation config keys: {sorted(unknown)}"
            )
        config = DegradationConfig(**{k: raw_cfg[k] for k in raw_cfg})
    return policy, config
