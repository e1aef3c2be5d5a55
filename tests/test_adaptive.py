"""Unit tests for the adaptive-control extensions (sections 4.8 / 6.2)."""

import pytest

from repro.adaptive.controller import AdaptiveController
from repro.adaptive.regroup import (
    cap_group_size,
    isolate_greedy_filters,
    partition_by_attribute,
)
from repro.adaptive.selectivity import SelectivityMonitor, selectivity_from_result
from repro.core.engine import SelfInterestedEngine
from repro.core.tuples import Trace
from repro.filters.delta import DeltaCompressionFilter
from repro.filters.multiattr import AveragedDeltaFilter
from tests.conftest import paper_group, random_walk_values


class TestSelectivityMonitor:
    def test_window_fraction(self):
        monitor = SelectivityMonitor(["a", "b"], window=4)
        monitor.observe({"a"})
        monitor.observe({"a", "b"})
        monitor.observe(set())
        assert monitor.selectivity("a") == pytest.approx(2 / 3)
        assert monitor.selectivity("b") == pytest.approx(1 / 3)

    def test_window_slides(self):
        monitor = SelectivityMonitor(["a"], window=2)
        monitor.observe({"a"})
        monitor.observe(set())
        monitor.observe(set())
        assert monitor.selectivity("a") == 0.0

    def test_greedy_filters(self):
        monitor = SelectivityMonitor(["hungry", "modest"], window=10)
        for _ in range(10):
            monitor.observe({"hungry"})
        assert monitor.greedy_filters(threshold=0.8) == ["hungry"]

    def test_empty_monitor_rejected(self):
        with pytest.raises(ValueError):
            SelectivityMonitor([])

    def test_bad_window_rejected(self):
        with pytest.raises(ValueError):
            SelectivityMonitor(["a"], window=0)

    def test_selectivity_from_result(self, paper_trace):
        result = SelfInterestedEngine(paper_group()).run(paper_trace)
        selectivity = selectivity_from_result(result)
        assert selectivity["A"] == pytest.approx(0.3)
        assert selectivity["C"] == pytest.approx(0.2)


class TestRegrouping:
    def test_isolate_greedy_filters(self):
        filters = paper_group()
        selectivity = {"A": 0.95, "B": 0.30, "C": 0.10}
        coordinated, isolated = isolate_greedy_filters(filters, selectivity)
        assert [f.name for f in isolated] == ["A"]
        assert [f.name for f in coordinated] == ["B", "C"]

    def test_isolate_nothing_when_modest(self):
        filters = paper_group()
        coordinated, isolated = isolate_greedy_filters(
            filters, {"A": 0.2, "B": 0.2, "C": 0.2}
        )
        assert isolated == []
        assert len(coordinated) == 3

    def test_partition_by_attribute_splits_disjoint(self):
        filters = [
            DeltaCompressionFilter("t1", "temp", 1, 0.4),
            DeltaCompressionFilter("t2", "temp", 2, 0.8),
            DeltaCompressionFilter("h1", "humidity", 1, 0.4),
        ]
        groups = partition_by_attribute(filters)
        names = sorted(sorted(f.name for f in group) for group in groups)
        assert names == [["h1"], ["t1", "t2"]]

    def test_partition_bridges_via_multiattr(self):
        filters = [
            DeltaCompressionFilter("t", "temp", 1, 0.4),
            DeltaCompressionFilter("h", "humidity", 1, 0.4),
            AveragedDeltaFilter("avg", ["temp", "humidity"], 1, 0.4),
        ]
        groups = partition_by_attribute(filters)
        assert len(groups) == 1  # the DC3 filter connects both attributes

    def test_cap_group_size(self):
        filters = paper_group()
        chunks = cap_group_size(filters, 2)
        assert [len(chunk) for chunk in chunks] == [2, 1]

    def test_cap_group_size_validates(self):
        with pytest.raises(ValueError):
            cap_group_size(paper_group(), 0)


class TestAdaptiveController:
    def _factory(self):
        return lambda: [
            DeltaCompressionFilter("A", "temp", 2.0, 1.0),
            DeltaCompressionFilter("B", "temp", 3.0, 1.5),
            DeltaCompressionFilter("C", "temp", 4.4, 2.0),
        ]

    def test_runs_all_windows(self):
        trace = Trace.from_values(
            random_walk_values(600, seed=1), attribute="temp", interval_ms=10
        )
        controller = AdaptiveController(self._factory(), window_size=200)
        outcome = controller.run(trace)
        assert len(outcome.windows) == 3
        assert outcome.total_output > 0

    def test_starts_group_aware(self):
        controller = AdaptiveController(self._factory())
        assert controller.mode == "group_aware"

    def test_disables_when_benefit_vanishes(self):
        """On a staircase trace the candidate sets are singletons, so
        group-awareness yields nothing and the controller backs off."""
        from repro.sources import step_trace

        trace = step_trace(n=600, step_every=20, step_height=10.0)

        def factory():
            return [
                DeltaCompressionFilter("A", "value", 10.0, 0.1),
                DeltaCompressionFilter("B", "value", 20.0, 0.1),
            ]

        controller = AdaptiveController(factory, window_size=150)
        outcome = controller.run(trace)
        assert any(w.mode == "self_interested" for w in outcome.windows)

    def test_hysteresis_validated(self):
        with pytest.raises(ValueError, match="hysteresis"):
            AdaptiveController(
                self._factory(), enable_threshold=0.05, disable_threshold=0.10
            )

    def test_window_size_validated(self):
        with pytest.raises(ValueError):
            AdaptiveController(self._factory(), window_size=0)

    def test_benefit_computation(self):
        from repro.adaptive.controller import WindowOutcome

        window = WindowOutcome(0, "group_aware", output_count=70, reference_count=100)
        assert window.benefit == pytest.approx(0.3)
        empty = WindowOutcome(0, "group_aware", output_count=0, reference_count=0)
        assert empty.benefit == 0.0

    def test_mode_switch_counter(self):
        from repro.adaptive.controller import AdaptiveOutcome, WindowOutcome

        outcome = AdaptiveOutcome(
            windows=[
                WindowOutcome(0, "group_aware", 1, 1),
                WindowOutcome(1, "self_interested", 1, 1),
                WindowOutcome(2, "self_interested", 1, 1),
                WindowOutcome(3, "group_aware", 1, 1),
            ]
        )
        assert outcome.mode_switches == 2
