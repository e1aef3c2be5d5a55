"""Unit tests for output strategies (section 3.4)."""

import pickle

import pytest

from repro.core.engine import GroupAwareEngine
from repro.core.output import (
    BatchedOutput,
    Decision,
    Emission,
    PerCandidateSetOutput,
    RegionOutput,
    merge_decisions,
)
from repro.core.regions import Region
from repro.core.candidates import CandidateSet
from repro.filters import parse_filter
from repro.sources import random_walk_trace
from tests.conftest import make_tuples, paper_group


def _decision(name, items, set_id=None, decide_ts=0.0, owners=()):
    return Decision(
        filter_name=name,
        set_id=set_id if set_id is not None else id(items) % 100000,
        tuples=tuple(items),
        decide_ts=decide_ts,
        owners=owners,
    )


class TestMergeDecisions:
    def test_recipients_merged_per_tuple(self):
        items = make_tuples([1.0])
        emissions = merge_decisions(
            [_decision("A", items), _decision("B", items, set_id=2)], emit_ts=50.0
        )
        assert len(emissions) == 1
        assert emissions[0].recipients == frozenset({"A", "B"})
        assert emissions[0].emit_ts == 50.0

    def test_order_by_timestamp(self):
        items = make_tuples([1.0, 2.0, 3.0])
        emissions = merge_decisions(
            [_decision("A", [items[2], items[0]]), _decision("B", [items[1]], set_id=2)],
            emit_ts=99.0,
        )
        assert [e.item.seq for e in emissions] == [0, 1, 2]

    def test_earliest_decide_ts_kept(self):
        items = make_tuples([1.0])
        emissions = merge_decisions(
            [
                _decision("A", items, set_id=1, decide_ts=30.0),
                _decision("B", items, set_id=2, decide_ts=10.0),
            ],
            emit_ts=50.0,
        )
        assert emissions[0].decide_ts == 10.0

    def test_empty(self):
        assert merge_decisions([], emit_ts=0.0) == []

    def test_emission_delay(self):
        items = make_tuples([1.0])
        emission = Emission(items[0], frozenset({"A"}), emit_ts=70.0, decide_ts=60.0)
        assert emission.delay_ms == 70.0

    def test_hand_built_decision_is_owned_by_its_filter(self):
        assert _decision("A", make_tuples([1.0])).owners == ("A",)

    def test_overlapping_owner_tuples_give_the_union(self):
        items = make_tuples([1.0, 2.0])
        emissions = merge_decisions(
            [
                _decision("a", items, set_id=1, owners=("a", "b")),
                _decision("c", [items[1]], set_id=2, owners=("c", "b")),
                _decision("a", [items[1]], set_id=3, owners=("a", "b")),
            ],
            emit_ts=5.0,
        )
        assert [e.recipients for e in emissions] == [{"a", "b"}, {"a", "b", "c"}]

    def test_multi_tuple_order_is_timestamp_then_seq(self):
        a, b, c = make_tuples([1.0, 2.0, 3.0], interval_ms=0.0)  # equal timestamps
        late = make_tuples([0.0, 9.0])[1]  # seq 1 again, later timestamp
        emissions = merge_decisions(
            [_decision("A", [late, c]), _decision("B", [a], set_id=2)], emit_ts=1.0
        )
        assert [(e.item.timestamp, e.item.seq) for e in emissions] == [
            (0.0, 0), (0.0, 2), (10.0, 1),
        ]  # fmt: skip

    def test_one_frozenset_per_recipient_combination(self):
        items = make_tuples([1.0, 2.0, 3.0])
        ab, c = ("a", "b"), ("c",)
        table = {}
        first = merge_decisions(
            [_decision("a", items, set_id=1, owners=ab), _decision("c", items[:2], set_id=2, owners=c)],
            emit_ts=1.0,
            recipient_sets=table,
        )
        # The same two classes, met in the other order, on a later call.
        second = merge_decisions(
            [_decision("c", items[:1], set_id=3, owners=c), _decision("a", items[:1], set_id=4, owners=ab)],
            emit_ts=2.0,
            recipient_sets=table,
        )
        assert first[0].recipients is first[1].recipients is second[0].recipients
        assert first[2].recipients == {"a", "b"}
        assert len(table) == 2
        # Without a table nothing outlives the call.
        assert merge_decisions([_decision("a", items, owners=ab)], 3.0)[0].recipients is not (
            first[2].recipients
        )


class TestRecipientSetsBelongToOneEngine:
    SPECS = ["DC1(value, 1.0, 0.4)", "DC1(value, 1.7, 0.6)", "DC1(value, 2.9, 1.1)"]

    def _engine(self, strategy):
        names = iter("abcdefghi")
        group = [parse_filter(spec, name=next(names)) for spec in self.SPECS * 3]
        return GroupAwareEngine(group, output_strategy=strategy)

    def test_table_is_bounded_by_the_combinations_of_sharing_classes(self):
        engine = self._engine(RegionOutput())
        assert engine.context_count == 3
        result = engine.run(random_walk_trace(n=40_000, seed=3))
        assert result.regions_emitted > 10_000
        combinations = {e.recipients for e in result.emissions}
        assert 3 < len(combinations) <= 2**3 - 1
        table = engine._strategy._recipient_sets
        assert len(table) == len(combinations)
        assert {id(e.recipients) for e in result.emissions} == {id(v) for v in table.values()}

    def test_engines_do_not_see_each_others_table(self):
        trace = list(random_walk_trace(n=500, seed=3))
        one, two = self._engine(RegionOutput()), self._engine(BatchedOutput(7))
        mine = {id(e.recipients) for e in one.run(trace).emissions}
        theirs = {id(e.recipients) for e in two.run(trace).emissions}
        assert one._strategy._recipient_sets is not two._strategy._recipient_sets
        assert not mine & theirs


class TestPickle:
    """The ``runtime`` process executor ships results between processes."""

    def test_slotted_decision_and_emission_round_trip(self):
        items = make_tuples([1.0])
        decision = _decision("a", items, set_id=4, decide_ts=2.0, owners=("a", "b"))
        emission = Emission(items[0], frozenset({"a", "b"}), emit_ts=3.0, decide_ts=2.0)
        for value in (decision, emission):
            assert not hasattr(value, "__dict__")
            for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
                assert pickle.loads(pickle.dumps(value, protocol)) == value

    def test_engine_result_keeps_decisions_shared_across_rows(self):
        group = [parse_filter("DC1(value, 1.0, 0.4)", name=n) for n in "ab"]
        result = GroupAwareEngine(group).run(random_walk_trace(n=300, seed=5))
        copy = pickle.loads(pickle.dumps(result))
        assert copy.decisions == result.decisions and copy.emissions == result.emissions
        assert len(copy.decisions["a"]) > 10
        assert all(x is y for x, y in zip(copy.decisions["a"], copy.decisions["b"]))


def _region_of(items, name="f"):
    cs = CandidateSet(name)
    for item in items:
        cs.add(item)
    cs.close()
    return Region(sets=[cs]), cs


class TestRegionOutput:
    def test_buffers_until_region_close(self):
        items = make_tuples([1.0, 2.0])
        region, cs = _region_of(items)
        strategy = RegionOutput()
        assert strategy.on_decisions(
            [_decision("A", [items[0]], set_id=cs.set_id)], now=10.0
        ) == []
        released = strategy.on_region_close(region, now=20.0)
        assert len(released) == 1
        assert released[0].emit_ts == 20.0

    def test_unrelated_decisions_stay_buffered(self):
        items = make_tuples([1.0, 2.0])
        region, cs = _region_of([items[0]])
        strategy = RegionOutput()
        strategy.on_decisions([_decision("A", [items[1]], set_id=999)], now=5.0)
        assert strategy.on_region_close(region, now=10.0) == []
        flushed = strategy.flush(now=30.0)
        assert len(flushed) == 1

    def test_flush_releases_everything(self):
        items = make_tuples([1.0])
        strategy = RegionOutput()
        strategy.on_decisions([_decision("A", items, set_id=1)], now=5.0)
        assert len(strategy.flush(now=9.0)) == 1
        assert strategy.flush(now=10.0) == []


class TestPerCandidateSetOutput:
    def test_immediate_release(self):
        items = make_tuples([1.0])
        strategy = PerCandidateSetOutput()
        released = strategy.on_decisions([_decision("A", items)], now=3.0)
        assert len(released) == 1
        assert released[0].emit_ts == 3.0

    def test_flush_empty(self):
        assert PerCandidateSetOutput().flush(now=1.0) == []


class TestBatchedOutput:
    def test_releases_every_batch(self):
        items = make_tuples([1.0, 2.0, 3.0])
        strategy = BatchedOutput(batch_size=2)
        strategy.on_decisions([_decision("A", [items[0]])], now=0.0)
        assert strategy.on_input(now=0.0) == []
        released = strategy.on_input(now=10.0)
        assert len(released) == 1
        assert released[0].emit_ts == 10.0

    def test_empty_batches_release_nothing(self):
        strategy = BatchedOutput(batch_size=1)
        assert strategy.on_input(now=0.0) == []

    def test_flush(self):
        items = make_tuples([1.0])
        strategy = BatchedOutput(batch_size=100)
        strategy.on_decisions([_decision("A", items)], now=0.0)
        assert len(strategy.flush(now=5.0)) == 1

    def test_batch_size_validated(self):
        with pytest.raises(ValueError):
            BatchedOutput(0)


class TestStrategiesEndToEnd:
    """Figure 4.13's ordering: Pcs <= region-gated <= batched latency."""

    def _mean_delay(self, strategy, paper_trace):
        result = GroupAwareEngine(
            paper_group(),
            algorithm="per_candidate_set",
            output_strategy=strategy,
        ).run(paper_trace)
        delays = [e.delay_ms for e in result.emissions]
        return sum(delays) / len(delays)

    def test_latency_ordering(self, paper_trace):
        pcs = self._mean_delay(PerCandidateSetOutput(), paper_trace)
        region = self._mean_delay(RegionOutput(), paper_trace)
        batched = self._mean_delay(BatchedOutput(len(paper_trace)), paper_trace)
        assert pcs <= region <= batched

    def test_same_tuples_delivered_regardless_of_strategy(self, paper_trace):
        outputs = set()
        for strategy in (RegionOutput(), PerCandidateSetOutput(), BatchedOutput(4)):
            result = GroupAwareEngine(
                paper_group(),
                algorithm="per_candidate_set",
                output_strategy=strategy,
            ).run(paper_trace)
            outputs.add(frozenset(result.distinct_output_seqs))
        assert len(outputs) == 1
