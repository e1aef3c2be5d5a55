"""Unit tests for the group-aware and self-interested engines."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cuts import RuntimePredictor
from repro.core.engine import GroupAwareEngine, SelfInterestedEngine
from repro.core.tuples import Trace
from repro.filters import parse_filter
from repro.filters.delta import DeltaCompressionFilter
from repro.runtime.tasks import EngineConfig
from repro.service.broker import engine_from_config
from repro.sources import random_walk_trace
from tests.conftest import paper_group, random_walk_values


class TestEngineConstruction:
    def test_requires_filters(self):
        with pytest.raises(ValueError, match="at least one"):
            GroupAwareEngine([])
        with pytest.raises(ValueError, match="at least one"):
            SelfInterestedEngine([])

    def test_unique_names_required(self):
        filters = [
            DeltaCompressionFilter("same", "temp", 10, 1),
            DeltaCompressionFilter("same", "temp", 20, 2),
        ]
        with pytest.raises(ValueError, match="unique"):
            GroupAwareEngine(filters)

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            GroupAwareEngine(paper_group(), algorithm="magic")

    def test_filters_property(self):
        group = paper_group()
        engine = GroupAwareEngine(group)
        assert engine.filters == group


class TestEngineLifecycle:
    def test_process_after_finish_raises(self, paper_trace):
        engine = GroupAwareEngine(paper_group())
        engine.run(paper_trace)
        with pytest.raises(RuntimeError, match="finished"):
            engine.process(paper_trace[0])

    def test_finish_is_idempotent(self, paper_trace):
        engine = GroupAwareEngine(paper_group())
        result = engine.run(paper_trace)
        assert engine.finish() is result

    def test_incremental_processing_matches_run(self, paper_trace):
        batch_engine = GroupAwareEngine(paper_group())
        batch = batch_engine.run(paper_trace)
        incremental_engine = GroupAwareEngine(paper_group())
        for item in paper_trace:
            incremental_engine.process(item)
        incremental = incremental_engine.finish()
        assert incremental.distinct_output_seqs == batch.distinct_output_seqs

    def test_input_count(self, paper_trace):
        result = GroupAwareEngine(paper_group()).run(paper_trace)
        assert result.input_count == len(paper_trace)

    def test_cpu_samples_per_tuple(self, paper_trace):
        result = GroupAwareEngine(paper_group()).run(paper_trace)
        assert len(result.cpu_ns_per_tuple) == len(paper_trace)
        assert all(ns >= 0 for ns in result.cpu_ns_per_tuple)


class TestStepsReturnWhatTheyLog:
    """A live broker routes only what ``process``/``tick``/``drain``
    return, so each step must return exactly its own growth of
    ``EngineResult.emissions``.  The regression: under ``(Pcs)`` output
    0 of 2 840 logged emissions used to be returned before ``finish``."""

    SPECS = ("DC1(value, 1.5, 0.6)", "SDC(value, 2.0, 0.8)", "DC1(value, 1.5, 0.6)")

    @pytest.mark.parametrize("constraint_ms", [None, 60.0])
    @pytest.mark.parametrize("output", ["region", "pcs", "batched"])
    @pytest.mark.parametrize("algorithm", ["region", "per_candidate_set"])
    def test_every_step(self, algorithm, output, constraint_ms):
        engine = engine_from_config(
            [parse_filter(spec, name=f"f{i}") for i, spec in enumerate(self.SPECS)],
            EngineConfig(algorithm, output, batch_size=16, constraint_ms=constraint_ms),
        )
        log = engine._result.emissions
        returned = 0
        for item in random_walk_trace(n=3000, seed=9):
            for step in (
                lambda: engine.process(item),
                lambda: engine.tick(item.timestamp + 5.0),
            ):
                before = len(log)
                emitted = step()
                assert emitted == log[before:]
                returned += len(emitted)
        tail = engine.drain()
        assert tail == log[returned:] and len(log) > returned > 0
        assert engine.drain() == [] and engine.finish().emissions is log
        if output == "pcs":
            # Released as decided: only the sets still open at the end
            # of the stream are left for the draining step.
            assert len(tail) <= len(self.SPECS)


class _Clockless(RuntimePredictor):
    """Keeps the measured greedy run time out of the cut test, so two
    engines fed the same steps cut at the same tuples."""

    def observe(self, region_size, runtime_ms):
        super().observe(region_size, 0.0)


class TestUnrecordedEngineIsTheSameEngine:
    """``record=False`` decides, counts and returns step for step what
    a recording twin does, and keeps nothing per tuple."""

    SHARED = ("DC1(value, 1.5, 0.6)", "SDC(value, 2.0, 0.8)", "DC1(value, 1.5, 0.6)")
    DISTINCT = ("DC1(value, 1.5, 0.6)", "SDC(value, 2.0, 0.8)", "DC1(value, 2.5, 1.0)")

    @settings(max_examples=40, deadline=None)
    @given(
        algorithm=st.sampled_from(["region", "per_candidate_set"]),
        output=st.sampled_from(["region", "pcs", "batched"]),
        constraint_ms=st.sampled_from([None, 60.0]),
        specs=st.sampled_from([SHARED, DISTINCT]),
        seed=st.integers(min_value=0, max_value=2**16),
        tick_every=st.integers(min_value=1, max_value=9),
    )
    def test_every_step_and_counter(
        self, algorithm, output, constraint_ms, specs, seed, tick_every
    ):
        def build(record):
            engine = engine_from_config(
                [parse_filter(spec, name=f"f{i}") for i, spec in enumerate(specs)],
                EngineConfig(algorithm, output, batch_size=16, constraint_ms=constraint_ms),
                record=record,
            )
            engine._predictor = _Clockless()
            return engine

        twin, bare = build(True), build(False)
        log = twin._result.emissions
        for index, item in enumerate(random_walk_trace(n=400, seed=seed)):
            steps = [lambda e: e.process(item)]
            if index % tick_every == 0:
                steps.append(lambda e: e.tick(item.timestamp + 5.0))
            for step in steps:
                before = len(log)
                assert step(bare) == step(twin) == log[before:]
            assert bare.cuts_triggered == twin.cuts_triggered
        before = len(log)
        assert bare.drain() == twin.drain() == log[before:]
        kept, full = bare.finish(), twin.finish()
        assert len(log) > 0
        assert (kept.input_count, kept.regions_emitted, kept.regions_cut, kept.cuts_triggered) == (
            full.input_count, full.regions_emitted, full.regions_cut, full.cuts_triggered
        )  # fmt: skip
        assert kept.emissions == [] and len(kept.cpu_ns_per_tuple) == 0
        assert set(kept.decisions) == set(full.decisions)
        assert not any(kept.decisions.values()) and any(full.decisions.values())


class TestEngineResult:
    def test_oi_ratio(self, paper_trace):
        result = GroupAwareEngine(paper_group()).run(paper_trace)
        assert result.oi_ratio == pytest.approx(3 / 10)

    def test_oi_ratio_empty(self):
        from repro.core.engine import EngineResult

        assert EngineResult().oi_ratio == 0.0

    def test_outputs_for_sorted_and_unique(self, paper_trace):
        result = GroupAwareEngine(paper_group()).run(paper_trace)
        outputs = result.outputs_for("A")
        timestamps = [t.timestamp for t in outputs]
        assert timestamps == sorted(timestamps)
        assert len({t.seq for t in outputs}) == len(outputs)

    def test_outputs_for_unknown_filter(self, paper_trace):
        result = GroupAwareEngine(paper_group()).run(paper_trace)
        assert result.outputs_for("nope") == []

    def test_transmissions_at_least_distinct(self, paper_trace):
        result = GroupAwareEngine(
            paper_group(), algorithm="per_candidate_set"
        ).run(paper_trace)
        assert result.transmissions >= result.output_count

    def test_latencies_match_emissions(self, paper_trace):
        result = GroupAwareEngine(paper_group()).run(paper_trace)
        assert len(result.latencies_ms) == len(result.emissions)
        assert all(delay >= 0 for delay in result.latencies_ms)

    def test_mean_latency_empty(self):
        from repro.core.engine import EngineResult

        assert EngineResult().mean_latency_ms == 0.0

    def test_percent_regions_cut_no_regions(self):
        from repro.core.engine import EngineResult

        assert EngineResult().percent_regions_cut == 0.0


class TestGroupAwareInvariants:
    def test_every_emission_recipient_is_a_filter(self, paper_trace):
        result = GroupAwareEngine(paper_group()).run(paper_trace)
        names = {"A", "B", "C"}
        for emission in result.emissions:
            assert emission.recipients <= names
            assert emission.recipients

    def test_decisions_reference_set_members(self, paper_trace):
        result = GroupAwareEngine(paper_group()).run(paper_trace)
        for decisions in result.decisions.values():
            for decision in decisions:
                assert decision.tuples

    def test_emissions_never_duplicate_tuple_to_same_recipient(self, paper_trace):
        result = GroupAwareEngine(
            paper_group(), algorithm="per_candidate_set"
        ).run(paper_trace)
        seen: set[tuple[int, str]] = set()
        for emission in result.emissions:
            for recipient in emission.recipients:
                key = (emission.item.seq, recipient)
                assert key not in seen
                seen.add(key)

    @pytest.mark.parametrize("algorithm", ["region", "per_candidate_set"])
    def test_group_aware_never_worse_than_si_on_walks(self, algorithm):
        for seed in range(5):
            values = random_walk_values(400, seed=seed, scale=1.0)
            trace = Trace.from_values(values, attribute="temp", interval_ms=10)
            group = [
                DeltaCompressionFilter("A", "temp", 2.0, 1.0),
                DeltaCompressionFilter("B", "temp", 3.0, 1.5),
                DeltaCompressionFilter("C", "temp", 5.0, 2.5),
            ]
            ga = GroupAwareEngine(
                [DeltaCompressionFilter(f.name, "temp", f.delta, f.slack) for f in group],
                algorithm=algorithm,
            ).run(trace)
            si = SelfInterestedEngine(group).run(trace)
            assert ga.output_count <= si.output_count

    def test_single_filter_matches_si(self):
        """With one filter there is no group to share with: the chosen
        output count equals the reference count."""
        values = random_walk_values(300, seed=3)
        trace = Trace.from_values(values, attribute="temp", interval_ms=10)
        ga = GroupAwareEngine(
            [DeltaCompressionFilter("A", "temp", 2.0, 1.0)]
        ).run(trace)
        si = SelfInterestedEngine(
            [DeltaCompressionFilter("A", "temp", 2.0, 1.0)]
        ).run(trace)
        assert ga.output_count == si.output_count


class TestSelfInterestedEngine:
    def test_emissions_at_arrival_time(self, paper_trace):
        result = SelfInterestedEngine(paper_group()).run(paper_trace)
        for emission in result.emissions:
            assert emission.emit_ts == emission.item.timestamp

    def test_same_tuple_merged_across_filters(self, paper_trace):
        result = SelfInterestedEngine(paper_group()).run(paper_trace)
        first = result.emissions[0]
        assert first.item.value("temp") == 0
        assert first.recipients == frozenset({"A", "B", "C"})

    def test_process_after_finish_raises(self, paper_trace):
        engine = SelfInterestedEngine(paper_group())
        engine.run(paper_trace)
        with pytest.raises(RuntimeError, match="finished"):
            engine.process(paper_trace[0])
