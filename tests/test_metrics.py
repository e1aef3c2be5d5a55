"""Unit tests for the evaluation metrics."""

import pytest

from repro.core.engine import GroupAwareEngine, SelfInterestedEngine
from repro.metrics.cpu import (
    cpu_ms_per_batch,
    cpu_overhead_ratio,
    mean_cpu_ms_per_batch,
)
from repro.metrics.latency import mean_latency_ms
from repro.metrics.ratios import batch_output_ratios, oi_ratio, output_ratio
from repro.metrics.report import render_series, render_table
from repro.metrics.summary import BoxPlot, mean, median, quantile
from tests.conftest import paper_group


class TestSummary:
    def test_mean_median(self):
        assert mean([1.0, 2.0, 6.0]) == 3.0
        assert median([1.0, 2.0, 6.0]) == 2.0
        assert median([1.0, 2.0]) == 1.5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mean([])
        with pytest.raises(ValueError):
            quantile([], 0.5)

    def test_quantile_bounds(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert quantile(values, 0.0) == 1.0
        assert quantile(values, 1.0) == 4.0
        with pytest.raises(ValueError):
            quantile(values, 1.5)

    def test_quantile_interpolates(self):
        assert quantile([0.0, 10.0], 0.25) == 2.5

    def test_boxplot_five_numbers(self):
        box = BoxPlot.of([1.0, 2.0, 3.0, 4.0, 5.0])
        assert box.minimum == 1.0
        assert box.median == 3.0
        assert box.maximum == 5.0
        assert box.n == 5
        assert box.outliers == ()

    def test_boxplot_outlier_detection(self):
        """Section 4.4's 1.5*IQR rule."""
        values = [10.0, 11.0, 12.0, 13.0, 14.0, 100.0]
        box = BoxPlot.of(values)
        assert 100.0 in box.outliers
        assert box.maximum < 100.0  # whisker excludes the outlier

    def test_boxplot_single_value(self):
        box = BoxPlot.of([7.0])
        assert box.minimum == box.maximum == box.median == 7.0

    def test_boxplot_row(self):
        row = BoxPlot.of([1.0, 2.0, 3.0]).row()
        assert set(row) == {"min", "q1", "median", "q3", "max", "mean", "outliers"}


class TestRatios:
    def test_oi_and_output_ratio(self, paper_trace):
        ga = GroupAwareEngine(paper_group()).run(paper_trace)
        si = SelfInterestedEngine(paper_group()).run(paper_trace)
        assert oi_ratio(ga) == pytest.approx(0.3)
        assert oi_ratio(si) == pytest.approx(0.6)
        assert output_ratio(ga, si) == pytest.approx(0.5)

    def test_output_ratio_zero_baseline(self):
        from repro.core.engine import EngineResult

        with pytest.raises(ValueError):
            output_ratio(EngineResult(), EngineResult())

    def test_batch_output_ratios(self, paper_trace):
        ga = GroupAwareEngine(paper_group()).run(paper_trace)
        si = SelfInterestedEngine(paper_group()).run(paper_trace)
        ratios = batch_output_ratios(ga, si, batch_size=5)
        assert len(ratios.ratios) == 2
        assert 0 < ratios.average <= 1.0
        assert ratios.batch_size == 5

    def test_batch_size_validated(self, paper_trace):
        ga = GroupAwareEngine(paper_group()).run(paper_trace)
        with pytest.raises(ValueError):
            batch_output_ratios(ga, ga, batch_size=0)


class TestCpuMetrics:
    def test_batches_cover_all_samples(self, paper_trace):
        result = GroupAwareEngine(paper_group()).run(paper_trace)
        batches = cpu_ms_per_batch(result, batch_size=4)
        assert len(batches) == 3  # 10 tuples in batches of 4
        assert sum(batches) == pytest.approx(result.total_cpu_ms)

    def test_mean_cpu_per_batch(self, paper_trace):
        result = GroupAwareEngine(paper_group()).run(paper_trace)
        assert mean_cpu_ms_per_batch(result, batch_size=5) > 0

    def test_overhead_ratio(self, paper_trace):
        ga = GroupAwareEngine(paper_group()).run(paper_trace)
        si = SelfInterestedEngine(paper_group()).run(paper_trace)
        assert cpu_overhead_ratio(ga, si) > 0

    def test_batch_size_validated(self, paper_trace):
        result = GroupAwareEngine(paper_group()).run(paper_trace)
        with pytest.raises(ValueError):
            cpu_ms_per_batch(result, 0)


class TestLatencyMetrics:
    def test_software_overhead_added(self, paper_trace):
        si = SelfInterestedEngine(paper_group()).run(paper_trace)
        assert mean_latency_ms(si) == pytest.approx(12.0)

    def test_multicast_added(self, paper_trace):
        si = SelfInterestedEngine(paper_group()).run(paper_trace)
        assert mean_latency_ms(si, multicast_ms=130.0) == pytest.approx(142.0)

    def test_empty(self):
        from repro.core.engine import EngineResult

        assert mean_latency_ms(EngineResult()) == 0.0


class TestReport:
    def test_render_table(self):
        text = render_table("Title", ["a", "b"], [[1, 2.5], ["x", 0.000123]])
        assert "== Title ==" in text
        assert "x" in text
        assert "1.230e-04" in text

    def test_row_width_mismatch(self):
        with pytest.raises(ValueError):
            render_table("t", ["a"], [[1, 2]])

    def test_render_series(self):
        text = render_series("s", [(1, 2.0), (2, 3.0)], "x", "y")
        assert "x" in text and "y" in text


class TestLatencyPercentiles:
    def test_window_percentiles(self):
        from repro.metrics.latency import latency_percentiles

        window = [float(v) for v in range(1, 101)]
        result = latency_percentiles(window, (50, 99))
        assert result["p50"] == 50.5
        assert result["p99"] == pytest.approx(99.01)

    def test_empty_window_is_zero(self):
        from repro.metrics.latency import latency_percentiles

        assert latency_percentiles([]) == {"p50": 0.0, "p99": 0.0}

    def test_percentile_validated(self):
        from repro.metrics.latency import latency_percentiles

        with pytest.raises(ValueError):
            latency_percentiles([1.0], (101,))
