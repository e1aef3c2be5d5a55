"""Unit tests for the server-side degradation controller (AIMD loop).

The controller is pure synchronous bookkeeping over an injected clock,
so every edge here — exact threshold boundaries, cooldown, probe
backoff, profile round-trips — is deterministic.
"""

from __future__ import annotations

import pytest

from repro.qos.spec import DegradationPolicy, QualitySpec
from repro.qos.controller import (
    DegradationConfig,
    DegradationController,
    DegradationDecision,
    policy_from_profile,
    policy_to_profile,
)


def _spec(delta: float) -> QualitySpec:
    return QualitySpec(
        app_name="app", filter_spec=f"DC1(temp, {delta}, {delta / 2})"
    )


def _policy(levels=3, floors=None) -> DegradationPolicy:
    return DegradationPolicy(
        app_name="app",
        levels=tuple(_spec(float(2 ** i)) for i in range(levels)),
        bandwidth_floors_kbps=floors or (),
    )


def _config(**overrides) -> DegradationConfig:
    base = dict(
        queue_high_ratio=0.5,
        drop_rate_per_s=10.0,
        flush_wait_ms=100.0,
        interval_s=1.0,
        cooldown_s=2.0,
        healthy_window_s=4.0,
        probe_backoff=2.0,
        max_probe_wait_s=32.0,
    )
    base.update(overrides)
    return DegradationConfig(**base)


def _calm(controller, now, *, depth=0, dropped=0, egress=10 ** 9):
    """One healthy observation (queue empty, generous egress)."""
    return controller.observe(
        now,
        queue_depth=depth,
        queue_capacity=10,
        dropped_tuples=dropped,
        egress_bytes=egress,
    )


def _stressed(controller, now):
    """One observation with the queue past the high-water ratio."""
    return controller.observe(
        now,
        queue_depth=10,
        queue_capacity=10,
        dropped_tuples=0,
        egress_bytes=0,
    )


class TestObserveBasics:
    def test_first_observation_only_baselines(self):
        controller = DegradationController(_policy(), _config())
        assert _stressed(controller, 0.0) is None
        assert controller.level == 0

    def test_calls_within_interval_absorbed(self):
        controller = DegradationController(_policy(), _config(interval_s=1.0))
        _stressed(controller, 0.0)
        assert _stressed(controller, 0.5) is None
        decision = _stressed(controller, 1.0)
        assert decision is not None and decision.action == "degrade"

    def test_exact_queue_ratio_boundary_trips(self):
        """ratio == queue_high_ratio is stressed (>=, not >)."""
        controller = DegradationController(
            _policy(), _config(queue_high_ratio=0.5)
        )
        _calm(controller, 0.0)
        decision = controller.observe(
            1.0,
            queue_depth=5,
            queue_capacity=10,
            dropped_tuples=0,
            egress_bytes=10 ** 9,
        )
        assert decision is not None
        assert decision.signal == "queue_depth"
        assert decision.value == pytest.approx(0.5)

    def test_just_below_queue_ratio_is_healthy(self):
        controller = DegradationController(
            _policy(), _config(queue_high_ratio=0.5)
        )
        _calm(controller, 0.0)
        assert (
            controller.observe(
                1.0,
                queue_depth=4,
                queue_capacity=10,
                dropped_tuples=0,
                egress_bytes=10 ** 9,
            )
            is None
        )

    def test_drop_rate_is_differentiated_against_last_eval(self):
        controller = DegradationController(
            _policy(), _config(drop_rate_per_s=10.0)
        )
        _calm(controller, 0.0, dropped=100)  # baseline, not a rate
        # 100 -> 105 over 1s = 5/s: below threshold.
        assert _calm(controller, 1.0, dropped=105) is None
        # 105 -> 115 over 1s = 10/s: exactly at threshold, trips.
        decision = _calm(controller, 2.0, dropped=115)
        assert decision is not None and decision.signal == "drop_rate"
        assert decision.value == pytest.approx(10.0)

    def test_flush_wait_signal_and_reset(self):
        controller = DegradationController(
            _policy(), _config(flush_wait_ms=100.0, cooldown_s=0.0)
        )
        _calm(controller, 0.0)
        controller.note_flush_wait(40.0)
        controller.note_flush_wait(150.0)  # worst-of wins
        controller.note_flush_wait(60.0)
        decision = _calm(controller, 1.0)
        assert decision is not None and decision.signal == "flush_wait"
        assert decision.value == pytest.approx(150.0)
        # The recorded wait is consumed by the evaluation.
        assert _calm(controller, 2.0) is None

    def test_flush_wait_none_disables_signal(self):
        controller = DegradationController(
            _policy(), _config(flush_wait_ms=None)
        )
        _calm(controller, 0.0)
        controller.note_flush_wait(10_000.0)
        assert _calm(controller, 1.0) is None

    def test_bandwidth_floor_requires_backlog(self):
        """Low egress with an empty queue is a quiet stream, not stress."""
        floors = (500.0, 200.0, 0.0)
        controller = DegradationController(
            _policy(floors=floors), _config()
        )
        _calm(controller, 0.0, egress=0)
        # Empty queue: egress 0 kbps yet no verdict.
        assert _calm(controller, 1.0, egress=0) is None
        # One waiting tuple flips the meaning of the same egress number.
        decision = controller.observe(
            2.0,
            queue_depth=1,
            queue_capacity=10,
            dropped_tuples=0,
            egress_bytes=0,
        )
        assert decision is not None and decision.signal == "bandwidth"
        assert decision.threshold == pytest.approx(500.0)


class TestDegradeRecover:
    def test_degrades_one_level_at_a_time(self):
        controller = DegradationController(_policy(3), _config(cooldown_s=0.0))
        _stressed(controller, 0.0)
        first = _stressed(controller, 1.0)
        assert (first.from_level, first.to_level) == (0, 1)
        assert first.spec == controller.policy.levels[1].filter_spec
        second = _stressed(controller, 2.0)
        assert (second.from_level, second.to_level) == (1, 2)
        assert controller.level == 2

    def test_cooldown_spaces_degrade_steps(self):
        controller = DegradationController(_policy(3), _config(cooldown_s=2.0))
        _stressed(controller, 0.0)
        assert _stressed(controller, 1.0) is not None
        # 1s after the step: inside the 2s cooldown.
        assert _stressed(controller, 2.0) is None
        assert _stressed(controller, 3.0) is not None

    def test_at_max_level_stress_yields_no_decision(self):
        controller = DegradationController(
            _policy(2), _config(cooldown_s=0.0), level=1
        )
        _stressed(controller, 0.0)
        assert _stressed(controller, 1.0) is None
        assert controller.level == 1

    def test_single_level_policy_never_steps(self):
        controller = DegradationController(_policy(1), _config(cooldown_s=0.0))
        _stressed(controller, 0.0)
        for t in range(1, 6):
            assert _stressed(controller, float(t)) is None
        assert controller.trajectory == [("start", 0)]

    def test_recovers_after_healthy_window(self):
        controller = DegradationController(
            _policy(3), _config(healthy_window_s=4.0), level=2
        )
        _calm(controller, 0.0)
        assert _calm(controller, 1.0) is None  # calm 0s -> window starts
        assert _calm(controller, 4.0) is None  # calm 3s < 4s
        decision = _calm(controller, 5.0)  # calm 4s: probe up
        assert decision is not None
        assert decision.action == "recover"
        assert (decision.from_level, decision.to_level) == (2, 1)
        assert decision.signal == "healthy"

    def test_probe_retrip_backs_off_multiplicatively(self):
        """A probe that re-trips doubles the wait before the next probe;
        a probe that survives keeps the current wait."""
        controller = DegradationController(
            _policy(3),
            _config(healthy_window_s=4.0, probe_backoff=2.0, cooldown_s=0.0),
            level=2,
        )
        _calm(controller, 0.0)
        _calm(controller, 1.0)  # healthy-since = 1.0
        assert _calm(controller, 5.0).action == "recover"  # probe to 1
        # The probe re-trips immediately: back down *and* double the wait.
        retrip = _stressed(controller, 6.0)
        assert retrip.action == "degrade" and retrip.to_level == 2
        # Next recovery now needs 8s of calm, not 4.
        _calm(controller, 7.0)  # healthy-since = 7.0
        assert _calm(controller, 12.0) is None  # 5s < 8s
        decision = _calm(controller, 15.0)  # 8s of calm
        assert decision is not None and decision.action == "recover"
        assert decision.threshold == pytest.approx(8.0)

    def test_probe_wait_capped(self):
        controller = DegradationController(
            _policy(2),
            _config(
                healthy_window_s=4.0,
                probe_backoff=10.0,
                max_probe_wait_s=16.0,
                cooldown_s=0.0,
            ),
            level=1,
        )
        now = 0.0
        _calm(controller, now)
        for _ in range(3):  # three failed probes would want 4000s
            now += 1.0
            _calm(controller, now)
            now += controller._probe_wait_s
            assert _calm(controller, now).action == "recover"
            now += 1.0
            assert _stressed(controller, now).action == "degrade"
        assert controller._probe_wait_s == pytest.approx(16.0)

    def test_probe_wait_resets_at_level_zero(self):
        controller = DegradationController(
            _policy(2),
            _config(healthy_window_s=4.0, probe_backoff=2.0, cooldown_s=0.0),
            level=1,
        )
        _calm(controller, 0.0)
        _calm(controller, 1.0)
        assert _calm(controller, 5.0).action == "recover"  # at level 0
        assert _stressed(controller, 6.0).action == "degrade"  # wait -> 8s
        _calm(controller, 7.0)
        assert _calm(controller, 15.0).action == "recover"  # back at 0
        # A full healthy window at level 0 resets the probe cadence.
        _calm(controller, 19.5)
        assert controller._probe_wait_s == pytest.approx(4.0)

    def test_trajectory_records_transitions(self):
        controller = DegradationController(_policy(3), _config(cooldown_s=0.0))
        _stressed(controller, 0.0)
        _stressed(controller, 1.0)
        _stressed(controller, 2.0)
        _calm(controller, 3.0)
        _calm(controller, 8.0)
        assert controller.trajectory == [
            ("start", 0),
            ("degrade", 1),
            ("degrade", 2),
            ("recover", 1),
        ]


class TestValidation:
    def test_config_rejects_bad_values(self):
        with pytest.raises(ValueError):
            DegradationConfig(queue_high_ratio=1.5)
        with pytest.raises(ValueError):
            DegradationConfig(drop_rate_per_s=-1.0)
        with pytest.raises(ValueError):
            DegradationConfig(flush_wait_ms=0.0)
        with pytest.raises(ValueError):
            DegradationConfig(interval_s=0.0)
        with pytest.raises(ValueError):
            DegradationConfig(probe_backoff=0.5)
        with pytest.raises(ValueError):
            DegradationConfig(healthy_window_s=10.0, max_probe_wait_s=5.0)

    def test_controller_rejects_out_of_range_level(self):
        with pytest.raises(ValueError, match="outside"):
            DegradationController(_policy(2), level=2)
        with pytest.raises(ValueError, match="outside"):
            DegradationController(_policy(2), level=-1)


class TestProfileRoundTrip:
    def test_policy_round_trips_with_config(self):
        policy = DegradationPolicy(
            app_name="app",
            levels=(
                QualitySpec(
                    "app",
                    "DC1(temp, 1.0, 0.5)",
                    latency_tolerance_ms=80.0,
                    priority=2,
                ),
                _spec(4.0),
            ),
            bandwidth_floors_kbps=(300.0, 0.0),
        )
        config = _config(flush_wait_ms=50.0)
        profile = policy_to_profile(policy, config=config)
        back, back_cfg = policy_from_profile(profile, "app")
        assert back == policy
        assert back_cfg == config

    def test_flush_wait_none_survives_round_trip(self):
        profile = policy_to_profile(
            _policy(2), config=_config(flush_wait_ms=None)
        )
        assert profile["config"]["flush_wait_ms"] is None
        _, config = policy_from_profile(profile, "app")
        assert config.flush_wait_ms is None

    def test_bare_spec_strings_accepted(self):
        policy, config = policy_from_profile(
            {"levels": ["DC1(temp, 1.0, 0.5)", "DC1(temp, 4.0, 2.0)"]}, "app"
        )
        assert [s.filter_spec for s in policy.levels] == [
            "DC1(temp, 1.0, 0.5)",
            "DC1(temp, 4.0, 2.0)",
        ]
        assert config is None

    def test_malformed_profiles_rejected(self):
        with pytest.raises(ValueError, match="non-empty 'levels'"):
            policy_from_profile({"levels": []}, "app")
        with pytest.raises(ValueError, match="'spec' key"):
            policy_from_profile({"levels": [{"latency_tolerance_ms": 5}]}, "app")
        with pytest.raises(ValueError, match="unknown degradation config"):
            policy_from_profile(
                {
                    "levels": ["DC1(temp, 1.0, 0.5)"],
                    "config": {"nope": 1},
                },
                "app",
            )
        with pytest.raises(ValueError, match="must be a mapping"):
            policy_from_profile(
                {"levels": ["DC1(temp, 1.0, 0.5)"], "config": 7}, "app"
            )

    def test_decision_is_frozen_evidence(self):
        decision = DegradationDecision(
            action="degrade",
            from_level=0,
            to_level=1,
            spec="DC1(temp, 2.0, 1.0)",
            signal="queue_depth",
            value=0.9,
            threshold=0.85,
        )
        with pytest.raises(Exception):
            decision.action = "recover"
