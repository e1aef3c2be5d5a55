"""Unit tests for quality specifications and propagation."""

import pytest

from repro.qos.propagation import propagate
from repro.qos.spec import DegradationPolicy, QualitySpec, session_limits
from repro.workflow import WorkflowGraph


def _spec(app, delta=2.0, latency=None, priority=0):
    return QualitySpec(
        app_name=app,
        filter_spec=f"DC1(temp, {delta}, {delta / 2})",
        latency_tolerance_ms=latency,
        priority=priority,
    )


class TestQualitySpec:
    def test_validates_filter_spec(self):
        with pytest.raises(ValueError):
            QualitySpec("app", "DC1(temp, broken)")

    def test_validates_app_name(self):
        with pytest.raises(ValueError):
            QualitySpec("", "DC1(temp, 2, 1)")

    def test_validates_latency(self):
        with pytest.raises(ValueError):
            QualitySpec("app", "DC1(temp, 2, 1)", latency_tolerance_ms=0)

    def test_instantiate_names_after_app(self):
        flt = _spec("tracker").instantiate()
        assert flt.name == "tracker"
        assert flt.delta == 2.0

    def test_group_constraint_is_minimum(self):
        a = _spec("a", latency=200)
        b = _spec("b", latency=80)
        c = _spec("c")  # best effort
        constraint = a.group_time_constraint(b, c)
        assert constraint.max_delay_ms == 80

    def test_group_constraint_all_best_effort(self):
        assert _spec("a").group_time_constraint(_spec("b")) is None


class TestDegradationPolicy:
    def _policy(self):
        return DegradationPolicy(
            app_name="tracker",
            levels=(
                _spec("tracker", delta=1.0),
                _spec("tracker", delta=2.0),
                _spec("tracker", delta=5.0),
            ),
            bandwidth_floors_kbps=(500.0, 200.0, 0.0),
        )

    def test_best_level_when_bandwidth_plenty(self):
        policy = self._policy()
        assert policy.level_for_bandwidth(1000.0).instantiate().delta == 1.0

    def test_degrades_progressively(self):
        policy = self._policy()
        assert policy.level_for_bandwidth(300.0).instantiate().delta == 2.0
        assert policy.level_for_bandwidth(50.0).instantiate().delta == 5.0

    def test_no_floors_always_best(self):
        policy = DegradationPolicy("tracker", (_spec("tracker", delta=1.0),))
        assert policy.level_for_bandwidth(0.0).instantiate().delta == 1.0

    def test_validates_levels(self):
        with pytest.raises(ValueError, match="at least one"):
            DegradationPolicy("tracker", ())
        with pytest.raises(ValueError, match="same application"):
            DegradationPolicy("tracker", (_spec("other"),))

    def test_validates_floors(self):
        with pytest.raises(ValueError, match="one bandwidth floor"):
            DegradationPolicy(
                "tracker",
                (_spec("tracker"),),
                bandwidth_floors_kbps=(1.0, 2.0),
            )
        with pytest.raises(ValueError, match="non-increasing"):
            DegradationPolicy(
                "tracker",
                (_spec("tracker", delta=1.0), _spec("tracker", delta=2.0)),
                bandwidth_floors_kbps=(100.0, 200.0),
            )

    def test_equal_floors_are_non_increasing(self):
        """Ties are legal: two levels may share a floor (the coarser one
        simply never gets selected by bandwidth alone)."""
        policy = DegradationPolicy(
            "tracker",
            (_spec("tracker", delta=1.0), _spec("tracker", delta=2.0)),
            bandwidth_floors_kbps=(100.0, 100.0),
        )
        assert policy.level_for_bandwidth(150.0).instantiate().delta == 1.0

    def test_single_level_policy(self):
        """A one-rung ladder is valid and always selects its only level,
        however starved the link is."""
        policy = DegradationPolicy(
            "tracker",
            (_spec("tracker", delta=1.0),),
            bandwidth_floors_kbps=(500.0,),
        )
        assert policy.level_for_bandwidth(1000.0).instantiate().delta == 1.0
        # Below the only floor there is nothing coarser to fall back to.
        assert policy.level_for_bandwidth(0.0).instantiate().delta == 1.0

    def test_exact_floor_boundary_selects_that_level(self):
        """``available == floor`` satisfies the floor (>=, not >)."""
        policy = self._policy()
        assert policy.level_for_bandwidth(500.0).instantiate().delta == 1.0
        assert policy.level_for_bandwidth(499.999).instantiate().delta == 2.0
        assert policy.level_for_bandwidth(200.0).instantiate().delta == 2.0


def _diamond() -> WorkflowGraph:
    """source -> op -> {app1, app2}; source -> app3 directly."""
    graph = WorkflowGraph()
    graph.add_source("src")
    graph.add_operator("op")
    graph.add_application("app1")
    graph.add_application("app2")
    graph.add_application("app3")
    graph.connect("src", "op")
    graph.connect("op", "app1")
    graph.connect("op", "app2")
    graph.connect("src", "app3")
    return graph


class TestPropagation:
    def test_specs_accumulate_source_ward(self):
        graph = _diamond()
        specs = {name: _spec(name) for name in ("app1", "app2", "app3")}
        propagated = propagate(graph, specs)
        assert [s.app_name for s in propagated.specs_at("op")] == ["app1", "app2"]
        assert [s.app_name for s in propagated.specs_at("src")] == [
            "app1",
            "app2",
            "app3",
        ]

    def test_group_junctures(self):
        graph = _diamond()
        specs = {name: _spec(name) for name in ("app1", "app2", "app3")}
        propagated = propagate(graph, specs)
        assert propagated.group_junctures() == ["op", "src"]

    def test_single_subscriber_is_not_a_juncture(self):
        graph = WorkflowGraph()
        graph.add_source("src")
        graph.add_application("solo")
        graph.connect("src", "solo")
        propagated = propagate(graph, {"solo": _spec("solo")})
        assert propagated.group_junctures() == []
        assert [s.app_name for s in propagated.specs_at("src")] == ["solo"]

    def test_missing_spec_rejected(self):
        graph = _diamond()
        with pytest.raises(ValueError, match="without quality specs"):
            propagate(graph, {"app1": _spec("app1")})

    def test_unknown_app_rejected(self):
        graph = _diamond()
        specs = {name: _spec(name) for name in ("app1", "app2", "app3")}
        specs["ghost"] = _spec("ghost")
        with pytest.raises(ValueError, match="unknown applications"):
            propagate(graph, specs)

    def test_deep_chain_accumulates_transitively(self):
        """src -> op1 -> op2 -> {app1, app2}: the juncture requirement is
        visible all the way back at the source, not just one hop up."""
        graph = WorkflowGraph()
        graph.add_source("src")
        graph.add_operator("op1")
        graph.add_operator("op2")
        graph.add_application("app1")
        graph.add_application("app2")
        graph.connect("src", "op1")
        graph.connect("op1", "op2")
        graph.connect("op2", "app1")
        graph.connect("op2", "app2")
        propagated = propagate(graph, {a: _spec(a) for a in ("app1", "app2")})
        for node in ("src", "op1", "op2"):
            assert [s.app_name for s in propagated.specs_at(node)] == [
                "app1",
                "app2",
            ]
        assert propagated.group_junctures() == ["op1", "op2", "src"]

    def test_multipath_app_counted_once(self):
        """An application reachable through two operator paths must not
        inflate the upstream node into a phantom juncture."""
        graph = WorkflowGraph()
        graph.add_source("src")
        graph.add_operator("opA")
        graph.add_operator("opB")
        graph.add_application("app1")
        graph.connect("src", "opA")
        graph.connect("src", "opB")
        graph.connect("opA", "app1")
        graph.connect("opB", "app1")
        propagated = propagate(graph, {"app1": _spec("app1")})
        assert [s.app_name for s in propagated.specs_at("src")] == ["app1"]
        assert propagated.group_junctures() == []


class TestSessionLimits:
    """QoS spec -> live-session queue/batching bounds (Session QoS)."""

    def test_defaults_pass_through_for_unconstrained_spec(self):
        limits = session_limits(_spec("app"))
        assert limits.queue_capacity == 16
        assert limits.overflow == "block"
        assert limits.batch_max_items == 8
        assert limits.batch_max_delay_ms == 50.0

    def test_latency_tolerance_bounds_batch_delay(self):
        limits = session_limits(_spec("app", latency=40.0))
        assert limits.batch_max_delay_ms == 10.0  # a quarter of tolerance
        # A generous tolerance never *raises* the broker default.
        loose = session_limits(_spec("app", latency=10_000.0))
        assert loose.batch_max_delay_ms == 50.0

    def test_latency_tolerance_prefers_fresh_over_blocking(self):
        limits = session_limits(_spec("app", latency=100.0))
        assert limits.overflow == "drop_oldest"
        # A stricter broker default is respected.
        strict = session_limits(
            _spec("app", latency=100.0), overflow="disconnect"
        )
        assert strict.overflow == "disconnect"

    def test_priority_scales_queue_capacity(self):
        assert session_limits(_spec("app", priority=1)).queue_capacity == 32
        assert session_limits(_spec("app", priority=3)).queue_capacity == 128
        assert session_limits(_spec("app", priority=-2)).queue_capacity == 4
        assert (
            session_limits(_spec("app", priority=-10)).queue_capacity == 1
        )  # floored

    def test_priority_is_clamped(self):
        """Profiles arrive over the wire; a huge priority must not buy an
        unbounded queue (or a giant integer allocation)."""
        huge = session_limits(_spec("app", priority=1_000_000_000))
        assert huge.queue_capacity == 16 << 10
        tiny = session_limits(_spec("app", priority=-1_000_000_000))
        assert tiny.queue_capacity == 1

    def test_broker_defaults_are_the_fallback(self):
        limits = session_limits(
            _spec("app"),
            queue_capacity=4,
            overflow="drop_oldest",
            batch_max_items=2,
            batch_max_delay_ms=5.0,
        )
        assert limits.queue_capacity == 4
        assert limits.overflow == "drop_oldest"
        assert limits.batch_max_items == 2
        assert limits.batch_max_delay_ms == 5.0
