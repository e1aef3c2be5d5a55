"""Unit tests for work-flow graphs and deployment planning."""

import pytest

from repro.qos.propagation import propagate
from repro.qos.spec import QualitySpec
from repro.workflow import NodeKind, WorkflowGraph, plan_deployment


def _spec(app, delta=2.0, latency=None):
    return QualitySpec(
        app_name=app,
        filter_spec=f"DC1(temp, {delta}, {delta / 2})",
        latency_tolerance_ms=latency,
    )


class TestGraphConstruction:
    def test_node_kinds(self):
        graph = WorkflowGraph()
        graph.add_source("s")
        graph.add_operator("o")
        graph.add_application("a")
        assert graph.kind("s") is NodeKind.SOURCE
        assert graph.sources() == ["s"]
        assert graph.operators() == ["o"]
        assert graph.applications() == ["a"]

    def test_duplicate_rejected(self):
        graph = WorkflowGraph()
        graph.add_source("x")
        with pytest.raises(ValueError, match="already exists"):
            graph.add_operator("x")

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            WorkflowGraph().add_source("")

    def test_application_cannot_feed(self):
        graph = WorkflowGraph()
        graph.add_application("a")
        graph.add_operator("o")
        with pytest.raises(ValueError, match="sinks"):
            graph.connect("a", "o")

    def test_source_cannot_consume(self):
        graph = WorkflowGraph()
        graph.add_source("s")
        graph.add_operator("o")
        with pytest.raises(ValueError, match="roots"):
            graph.connect("o", "s")

    def test_cycle_rejected(self):
        graph = WorkflowGraph()
        graph.add_operator("o1")
        graph.add_operator("o2")
        graph.connect("o1", "o2")
        with pytest.raises(ValueError, match="cycle"):
            graph.connect("o2", "o1")

    def test_self_loop_rejected(self):
        graph = WorkflowGraph()
        graph.add_operator("o")
        with pytest.raises(ValueError, match="self-loop"):
            graph.connect("o", "o")

    def test_unknown_nodes_rejected(self):
        graph = WorkflowGraph()
        graph.add_source("s")
        with pytest.raises(KeyError):
            graph.connect("s", "ghost")


class TestGraphQueries:
    def _graph(self):
        graph = WorkflowGraph()
        graph.add_source("s")
        graph.add_operator("o")
        graph.add_application("a1")
        graph.add_application("a2")
        graph.connect("s", "o")
        graph.connect("o", "a1")
        graph.connect("o", "a2")
        return graph

    def test_downstream_upstream(self):
        graph = self._graph()
        assert graph.downstream("o") == ["a1", "a2"]
        assert graph.upstream("o") == ["s"]
        assert graph.fan_out("o") == 2

    def test_topological_order(self):
        graph = self._graph()
        order = graph.topological_order()
        assert order.index("s") < order.index("o") < order.index("a1")

    def test_validate_passes(self):
        self._graph().validate()

    def test_validate_detects_unfed_application(self):
        graph = WorkflowGraph()
        graph.add_application("orphan")
        with pytest.raises(ValueError, match="not fed"):
            graph.validate()

    def test_validate_detects_dangling_operator(self):
        graph = WorkflowGraph()
        graph.add_source("s")
        graph.add_operator("dead-end")
        graph.connect("s", "dead-end")
        with pytest.raises(ValueError, match="feeds nobody"):
            graph.validate()


class TestDeploymentPlanning:
    def _planned(self):
        graph = WorkflowGraph()
        graph.add_source("src")
        graph.add_operator("shared-op")
        graph.add_application("app1")
        graph.add_application("app2")
        graph.add_application("solo")
        graph.connect("src", "shared-op")
        graph.connect("shared-op", "app1")
        graph.connect("shared-op", "app2")
        graph.connect("src", "solo")
        specs = {
            "app1": _spec("app1", latency=100),
            "app2": _spec("app2", latency=250),
            "solo": _spec("solo"),
        }
        propagated = propagate(graph, specs)
        return plan_deployment(graph, propagated)

    def test_one_plan_per_serving_node(self):
        plans = {plan.node: plan for plan in self._planned()}
        assert set(plans) == {"src", "shared-op"}

    def test_group_awareness_requires_two_subscribers(self):
        plans = {plan.node: plan for plan in self._planned()}
        assert plans["shared-op"].group_aware
        assert plans["src"].group_aware  # serves all three downstream

    def test_group_constraint_is_conjunction(self):
        plans = {plan.node: plan for plan in self._planned()}
        assert plans["shared-op"].time_constraint.max_delay_ms == 100

    def test_filters_built_per_spec(self):
        plans = {plan.node: plan for plan in self._planned()}
        filters = plans["shared-op"].build_filters()
        assert sorted(f.name for f in filters) == ["app1", "app2"]

    def test_min_group_size_validated(self):
        graph = WorkflowGraph()
        graph.add_source("s")
        graph.add_application("a")
        graph.connect("s", "a")
        propagated = propagate(graph, {"a": _spec("a")})
        with pytest.raises(ValueError):
            plan_deployment(graph, propagated, min_group_size=1)

    def test_single_subscriber_not_group_aware(self):
        graph = WorkflowGraph()
        graph.add_source("s")
        graph.add_application("a")
        graph.connect("s", "a")
        propagated = propagate(graph, {"a": _spec("a")})
        plans = plan_deployment(graph, propagated)
        assert len(plans) == 1
        assert not plans[0].group_aware
