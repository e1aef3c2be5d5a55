"""Unit tests for stratified sampling filters (Chapter 5)."""

import json
import os
import subprocess
import sys

import pytest

from repro.core.engine import GroupAwareEngine, SelfInterestedEngine
from repro.core.tuples import Trace
from repro.filters.sampling import StratifiedSamplingFilter
from repro.filters.validate import replay_candidate_sets, validate_outputs


def _trace(values, interval_ms=10):
    return Trace.from_values(values, attribute="x", interval_ms=interval_ms)


def _filter(threshold=5.0, high=50, low=20, interval=100, prescription="random"):
    return StratifiedSamplingFilter(
        "ss", "x", interval_ms=interval, threshold=threshold,
        high_rate_percent=high, low_rate_percent=low, prescription=prescription,
    )


class TestConstruction:
    def test_validates_interval(self):
        with pytest.raises(ValueError):
            StratifiedSamplingFilter("s", "x", 0, 1, 50, 20)

    def test_validates_rates(self):
        with pytest.raises(ValueError):
            StratifiedSamplingFilter("s", "x", 100, 1, 0, 20)
        with pytest.raises(ValueError):
            StratifiedSamplingFilter("s", "x", 100, 1, 50, 120)

    def test_validates_threshold(self):
        with pytest.raises(ValueError):
            StratifiedSamplingFilter("s", "x", 100, -1, 50, 20)

    def test_taxonomy(self):
        flt = _filter()
        assert flt.taxonomy.output_selection.unit == "percent"
        assert not flt.stateful


class TestSegmentation:
    def test_one_set_per_segment(self):
        # 30 tuples at 10 ms with 100 ms interval -> 3 segments of 10.
        sets = replay_candidate_sets(lambda: _filter(), _trace([0.0] * 30))
        assert len(sets) == 3
        assert all(len(cs) == 10 for cs in sets)

    def test_partial_final_segment_flushed(self):
        sets = replay_candidate_sets(lambda: _filter(), _trace([0.0] * 25))
        assert len(sets) == 3
        assert len(sets[-1]) == 5

    def test_degree_low_for_quiet_segment(self):
        flt = _filter(threshold=5.0, high=50, low=20)
        members = _trace([0.0] * 10)
        assert flt.degree_for(list(members)) == 2  # 20% of 10

    def test_degree_high_for_dynamic_segment(self):
        flt = _filter(threshold=5.0, high=50, low=20)
        members = list(_trace([0.0, 10.0] * 5))
        assert flt.degree_for(members) == 5  # 50% of 10

    def test_degree_at_least_one(self):
        flt = _filter(threshold=5.0, high=50, low=1)
        members = list(_trace([0.0] * 3))
        assert flt.degree_for(members) == 1

    def test_sets_carry_degree(self):
        values = [0.0] * 10 + [0.0, 10.0] * 5
        sets = replay_candidate_sets(lambda: _filter(), _trace(values))
        assert sets[0].degree == 2
        assert sets[1].degree == 5


class TestPrescriptions:
    def test_top_restricts_eligibility(self):
        values = list(range(10))  # range 9 >= threshold 5 -> high rate 50%
        sets = replay_candidate_sets(
            lambda: _filter(prescription="top"), _trace([float(v) for v in values])
        )
        eligible = [t.value("x") for t in sets[0].eligible_tuples]
        assert sorted(eligible, reverse=True) == [9.0, 8.0, 7.0, 6.0, 5.0]

    def test_bottom_restricts_eligibility(self):
        values = [float(v) for v in range(10)]
        sets = replay_candidate_sets(
            lambda: _filter(prescription="bottom"), _trace(values)
        )
        eligible = sorted(t.value("x") for t in sets[0].eligible_tuples)
        assert eligible == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_random_keeps_all_eligible(self):
        sets = replay_candidate_sets(lambda: _filter(), _trace([0.0] * 10))
        assert len(sets[0].eligible_tuples) == 10


class TestSelfInterestedSampler:
    def test_sample_counts(self):
        flt = _filter(threshold=5.0, high=50, low=20)
        sampler = flt.make_self_interested()
        outputs = []
        for item in _trace([0.0] * 30):
            outputs.extend(sampler.process(item))
        outputs.extend(sampler.flush())
        assert len(outputs) == 6  # three quiet segments x 2 samples

    def test_deterministic_given_seed(self):
        def collect():
            sampler = _filter().make_self_interested()
            outputs = []
            for item in _trace([float(i % 7) for i in range(40)]):
                outputs.extend(sampler.process(item))
            outputs.extend(sampler.flush())
            return [t.seq for t in outputs]

        assert collect() == collect()

    def test_samplers_agree_across_processes(self):
        """The baselines' RNGs are seeded from the spec, not from the
        per-process salted ``hash`` of its name: two interpreters with
        different hash seeds sample the same tuples."""
        script = """
import json
from repro.core.tuples import Trace
from repro.filters.spec import parse_filter
trace = Trace.from_values([float(i % 13) for i in range(400)], attribute="value")
out = {}
for spec in ("SS(value, 100, 5.0, 50, 20)", "RS(3, 10)"):
    sampler = parse_filter(spec, name=spec).make_self_interested()
    seqs = [t.seq for item in trace for t in sampler.process(item)]
    out[spec] = seqs + [t.seq for t in sampler.flush()]
print(json.dumps(out))
"""
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        runs = [
            subprocess.run(
                [sys.executable, "-c", script],
                env={**env, "PYTHONHASHSEED": seed},
                capture_output=True,
                text=True,
                check=True,
                timeout=60,
            ).stdout
            for seed in ("1", "2")
        ]
        assert runs[0] == runs[1]
        assert all(len(seqs) > 50 for seqs in json.loads(runs[0]).values())

    def test_outputs_sorted_within_segment(self):
        sampler = _filter(high=50, low=50).make_self_interested()
        outputs = []
        for item in _trace([0.0] * 20):
            outputs.extend(sampler.process(item))
        outputs.extend(sampler.flush())
        assert [t.seq for t in outputs] == sorted(t.seq for t in outputs)


class TestGroupAwareSampling:
    def _group(self):
        return [
            StratifiedSamplingFilter("s1", "x", 100, 5.0, 50, 20),
            StratifiedSamplingFilter("s2", "x", 100, 9.0, 50, 20, seed=1),
            StratifiedSamplingFilter("s3", "x", 100, 2.0, 60, 30, seed=2),
        ]

    def test_degrees_satisfied(self):
        values = [float(i % 11) for i in range(60)]
        trace = _trace(values)
        result = GroupAwareEngine(self._group(), algorithm="region").run(trace)
        for name in ("s1", "s2", "s3"):
            spec = next(f for f in self._group() if f.name == name)
            sets = replay_candidate_sets(
                lambda spec=spec: StratifiedSamplingFilter(
                    spec.name, "x", spec.interval_ms, spec.threshold,
                    spec.high_rate_percent, spec.low_rate_percent,
                ),
                trace,
            )
            report = validate_outputs(sets, result.outputs_for(name))
            assert report.ok, (name, report.unsatisfied_sets, report.foreign_tuples)

    def test_sharing_beats_self_interested(self):
        values = [float(i % 11) for i in range(300)]
        trace = _trace(values)
        ga = GroupAwareEngine(self._group(), algorithm="region").run(trace)
        si = SelfInterestedEngine(self._group()).run(trace)
        assert ga.output_count <= si.output_count

    def test_mixed_group_with_delta_filter(self):
        from repro.filters.delta import DeltaCompressionFilter

        values = [float(i % 13) * 0.5 for i in range(200)]
        trace = _trace(values)
        group = [
            StratifiedSamplingFilter("ss", "x", 100, 3.0, 50, 20),
            DeltaCompressionFilter("dc", "x", 2.0, 1.0),
        ]
        result = GroupAwareEngine(group, algorithm="region").run(trace)
        assert result.output_count > 0
        assert result.outputs_for("ss")
        assert result.outputs_for("dc")
