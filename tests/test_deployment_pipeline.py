"""Integration: quality specs -> work-flow propagation -> deployment ->
group-aware dissemination over the overlay.

Exercises the full Figure 2.2 / 3.1 / 4.1 pipeline: applications declare
QualitySpecs, requirements propagate source-ward through the work-flow
graph, deployment planning configures a group-aware service at the
data-sharing juncture, and the service disseminates over the simulated
Solar overlay.
"""

import pytest

from repro.core.engine import GroupAwareEngine, SelfInterestedEngine
from repro.filters.spec import format_spec, parse_filter
from repro.net.overlay import OverlayNetwork
from repro.net.pubsub import StreamingSystem
from repro.qos.propagation import propagate
from repro.qos.spec import QualitySpec
from repro.sources import namos_trace
from repro.workflow import WorkflowGraph, plan_deployment


@pytest.fixture(scope="module")
def deployment():
    graph = WorkflowGraph()
    graph.add_source("buoy")
    graph.add_application("marine-lab")
    graph.add_application("field-station")
    graph.add_application("dashboard")
    for app in graph.applications():
        graph.connect("buoy", app)
    graph.validate()

    specs = {
        "marine-lab": QualitySpec(
            "marine-lab", "DC1(tmpr4, 0.0310, 0.0155)", latency_tolerance_ms=400
        ),
        "field-station": QualitySpec(
            "field-station", "DC1(tmpr4, 0.0620, 0.0310)", latency_tolerance_ms=900
        ),
        "dashboard": QualitySpec("dashboard", "DC1(tmpr4, 0.0480, 0.0240)"),
    }
    propagated = propagate(graph, specs)
    plans = plan_deployment(graph, propagated)
    return graph, specs, propagated, plans


class TestPipeline:
    def test_source_is_the_group_juncture(self, deployment):
        _, _, propagated, plans = deployment
        assert propagated.group_junctures() == ["buoy"]
        assert len(plans) == 1
        assert plans[0].node == "buoy"
        assert plans[0].group_aware

    def test_group_constraint_conjunction(self, deployment):
        _, _, _, plans = deployment
        assert plans[0].time_constraint.max_delay_ms == 400

    def test_planned_engine_meets_constraint_and_saves(self, deployment):
        _, _, _, plans = deployment
        trace = namos_trace(n=1000, seed=7)
        plan = plans[0]
        engine = GroupAwareEngine(
            plan.build_filters(),
            algorithm="region",
            time_constraint=plan.time_constraint,
        )
        result = engine.run(trace)
        baseline = SelfInterestedEngine(plan.build_filters()).run(trace)
        assert result.output_count <= baseline.output_count
        for emission in result.emissions:
            assert emission.delay_ms <= plan.time_constraint.max_delay_ms + 10.0

    def test_plan_feeds_streaming_system(self, deployment):
        _, _, _, plans = deployment
        plan = plans[0]
        overlay = OverlayNetwork([f"n{i}" for i in range(5)])
        system = StreamingSystem(overlay)
        system.add_source("buoy", "n0")
        for index, spec in enumerate(plan.specs):
            system.subscribe(
                spec.app_name, f"n{index + 1}", "buoy", spec.instantiate()
            )
        trace = namos_trace(n=600, seed=7)
        result = system.disseminate(
            "buoy",
            trace,
            algorithm="region",
            time_constraint=plan.time_constraint,
        )
        assert result.engine_result.output_count > 0
        delivered_apps = {d.app_name for d in result.deliveries}
        assert delivered_apps == {spec.app_name for spec in plan.specs}


class TestNewSpecNotation:
    @pytest.mark.parametrize(
        "spec,cls_name",
        [
            ("RS(3, 10)", "ReservoirSamplingFilter"),
            ("LOC(x, y, 2.0, 1.0)", "LocationDeltaFilter"),
            ("BAND(v, 3, safe:0:10, danger:10.1:100)", "BandTransitionFilter"),
        ],
    )
    def test_parse_and_round_trip(self, spec, cls_name):
        flt = parse_filter(spec)
        assert type(flt).__name__ == cls_name
        reparsed = parse_filter(format_spec(flt))
        assert type(reparsed).__name__ == cls_name

    def test_malformed_band_rejected(self):
        with pytest.raises(ValueError, match="name:low:high"):
            parse_filter("BAND(v, 3, broken)")

    def test_rs_arity(self):
        with pytest.raises(ValueError):
            parse_filter("RS(3)")

    def test_loc_arity(self):
        with pytest.raises(ValueError):
            parse_filter("LOC(x, y, 2.0)")

    def test_quality_spec_accepts_new_notation(self):
        spec = QualitySpec("sampler", "RS(5, 50)")
        assert spec.instantiate().reservoir_size == 5
