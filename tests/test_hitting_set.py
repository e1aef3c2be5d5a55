"""Unit tests for the hitting-set solvers (sections 2.2.4 and 5.3)."""

import pytest

from repro.core.candidates import CandidateSet
from repro.core.hitting_set import (
    exact_minimum_hitting_set,
    greedy_hitting_set,
    harmonic,
)
from tests.conftest import make_tuples


def _set(name, items, degree=1, eligible=None):
    cs = CandidateSet(name)
    for item in items:
        cs.add(item)
    cs.degree = degree
    if eligible is not None:
        cs.restrict_eligible(eligible)
    cs.close()
    return cs


def _hits(selection, candidate_set):
    chosen = {t.seq for t in selection.assignments[candidate_set.set_id]}
    return sum(1 for t in candidate_set.eligible_tuples if t.seq in chosen)


class TestGreedyHittingSet:
    def test_single_set(self):
        items = make_tuples([1.0, 2.0])
        selection = greedy_hitting_set([_set("a", items)])
        assert selection.output_size == 1

    def test_paper_region_two(self):
        """Figure 2.8's region 2: greedy picks 100 then 50."""
        items = make_tuples([0, 35, 29, 45, 50, 59, 80, 97, 100, 112], interval_ms=10)
        by_value = {int(t.value("value")): t for t in items}
        sets = [
            _set("A2", [by_value[45], by_value[50], by_value[59]]),
            _set("A3", [by_value[97], by_value[100]]),
            _set("B2", [by_value[45], by_value[50]]),
            _set("B3", [by_value[97], by_value[100]]),
            _set("C2", [by_value[59], by_value[80], by_value[97], by_value[100]]),
        ]
        selection = greedy_hitting_set(sets)
        chosen_values = [int(t.value("value")) for t in selection.chosen]
        assert chosen_values == [100, 50]

    def test_every_set_hit(self):
        items = make_tuples(list(range(8)))
        sets = [
            _set("a", items[0:3]),
            _set("b", items[2:5]),
            _set("c", items[5:8]),
        ]
        selection = greedy_hitting_set(sets)
        for candidate_set in sets:
            assert _hits(selection, candidate_set) >= 1

    def test_tie_break_prefers_freshest(self):
        items = make_tuples([1.0, 2.0])
        selection = greedy_hitting_set([_set("a", items)])
        assert selection.chosen == [items[1]]

    def test_shared_tuple_is_preferred(self):
        items = make_tuples(list(range(5)))
        sets = [
            _set("a", [items[0], items[2]]),
            _set("b", [items[1], items[2]]),
            _set("c", [items[2], items[3]]),
        ]
        selection = greedy_hitting_set(sets)
        assert selection.output_size == 1
        assert selection.chosen[0] == items[2]

    def test_assignments_cover_chosen(self):
        items = make_tuples(list(range(6)))
        sets = [_set("a", items[0:3]), _set("b", items[3:6])]
        selection = greedy_hitting_set(sets)
        assigned = {t.seq for picks in selection.assignments.values() for t in picks}
        assert assigned == {t.seq for t in selection.chosen}

    def test_empty_set_raises(self):
        with pytest.raises(ValueError, match="no eligible"):
            greedy_hitting_set([CandidateSet("empty")])

    def test_eligibility_respected(self):
        items = make_tuples(list(range(4)))
        constrained = _set("a", items[0:3], eligible=[items[0]])
        other = _set("b", items[1:4])
        selection = greedy_hitting_set([constrained, other])
        assert selection.assignments[constrained.set_id] == [items[0]]


class TestMultiDegree:
    def test_degree_satisfied(self):
        items = make_tuples(list(range(6)))
        cs = _set("a", items, degree=3)
        selection = greedy_hitting_set([cs])
        assert _hits(selection, cs) == 3

    def test_degree_clamped_to_size(self):
        items = make_tuples([1.0, 2.0])
        cs = _set("a", items, degree=5)
        selection = greedy_hitting_set([cs])
        assert _hits(selection, cs) == 2

    def test_shared_tuples_count_for_both_sets(self):
        items = make_tuples(list(range(4)))
        a = _set("a", items, degree=2)
        b = _set("b", items[1:3], degree=2)
        selection = greedy_hitting_set([a, b])
        # Two picks inside the overlap satisfy both sets.
        assert selection.output_size == 2
        assert _hits(selection, a) >= 2
        assert _hits(selection, b) == 2

    def test_distinct_tuples_per_set(self):
        """A set's degree must be met by distinct tuples."""
        items = make_tuples(list(range(3)))
        cs = _set("a", items, degree=3)
        selection = greedy_hitting_set([cs])
        picks = selection.assignments[cs.set_id]
        assert len({t.seq for t in picks}) == 3


def _clone(candidate_set, name):
    return _set(
        name,
        candidate_set.tuples,
        degree=candidate_set.degree,
        eligible=candidate_set.eligible_tuples,
    )


def _picks(selection, sets):
    return [[t.seq for t in selection.assignments[s.set_id]] for s in sets]


class TestWeights:
    """``weights`` stands for literally duplicated sets, at the cost of one."""

    def _instance(self):
        items = make_tuples(list(range(10)))
        return items, [
            _set("a", items[0:4]),
            _set("b", items[2:6]),
            _set("c", items[5:9], degree=2),
            _set("d", items[3:10], degree=3, eligible=items[6:10]),
        ]

    def test_equals_literal_duplication(self):
        _, sets = self._instance()
        weights = [3, 1, 2, 4]
        weighted = greedy_hitting_set(sets, weights=weights)
        duplicated = [
            [_clone(s, f"{s.filter_name}{k}") for k in range(w)]
            for s, w in zip(sets, weights)
        ]
        reference = greedy_hitting_set([c for copies in duplicated for c in copies])
        assert weighted.chosen == reference.chosen
        for picks, copies in zip(_picks(weighted, sets), duplicated):
            assert _picks(reference, copies) == [picks] * len(copies)

    def test_weight_changes_the_pick_order(self):
        """Why weights, not deduplication: a duplicate adds utility."""
        items = make_tuples(list(range(4)))
        sets = [_set("a", items[0:2]), _set("b", items[1:3]), _set("c", items[2:4])]
        assert greedy_hitting_set(sets).chosen[0] == items[2]
        assert greedy_hitting_set(sets, weights=[3, 1, 1]).chosen[0] == items[1]

    def test_uniform_weights_equal_unweighted(self):
        _, sets = self._instance()
        plain = greedy_hitting_set(sets)
        for weight in (1, 5):
            weighted = greedy_hitting_set(sets, weights=[weight] * len(sets))
            assert weighted.chosen == plain.chosen
            assert _picks(weighted, sets) == _picks(plain, sets)

    def test_freshest_timestamp_tie_break_preserved(self):
        items = make_tuples([1.0, 2.0, 3.0])
        selection = greedy_hitting_set([_set("a", items)], weights=[4])
        assert selection.chosen == [items[2]]

    def test_multi_degree_block_retires_together(self):
        """A weight-3 degree-2 set takes exactly two picks, and once it
        has them it stops lending utility to its remaining members."""
        items = make_tuples(list(range(5)))
        heavy = _set("a", items[0:3], degree=2)
        light = _set("b", items[2:5])
        selection = greedy_hitting_set([heavy, light], weights=[3, 1])
        assert [t.seq for t in selection.assignments[heavy.set_id]] == [2, 1]
        assert [t.seq for t in selection.assignments[light.set_id]] == [2]
        assert selection.chosen == [items[2], items[1]]

    def test_rejects_bad_weights(self):
        items = make_tuples([1.0, 2.0])
        with pytest.raises(ValueError, match="weights"):
            greedy_hitting_set([_set("a", items)], weights=[1, 1])
        with pytest.raises(ValueError, match="weights"):
            greedy_hitting_set([_set("a", items)], weights=[0])


class TestExactSolver:
    def test_minimal_solution(self):
        items = make_tuples(list(range(4)))
        sets = [
            _set("a", [items[0], items[1]]),
            _set("b", [items[1], items[2]]),
            _set("c", [items[2], items[3]]),
        ]
        selection = exact_minimum_hitting_set(sets)
        assert selection.output_size == 2  # {1, 2} hits all three

    def test_hits_everything(self):
        items = make_tuples(list(range(6)))
        sets = [_set("a", items[0:2]), _set("b", items[2:4]), _set("c", items[4:6])]
        selection = exact_minimum_hitting_set(sets)
        for cs in sets:
            assert _hits(selection, cs) == 1

    def test_rejects_multi_degree(self):
        cs = _set("a", make_tuples([1.0, 2.0]), degree=2)
        with pytest.raises(ValueError, match="degree-1"):
            exact_minimum_hitting_set([cs])

    def test_rejects_large_universe(self):
        items = make_tuples(list(range(30)))
        with pytest.raises(ValueError, match="max_universe"):
            exact_minimum_hitting_set([_set("a", items)])

    def test_greedy_never_beats_exact(self):
        items = make_tuples(list(range(8)))
        sets = [
            _set("a", items[0:4]),
            _set("b", items[2:6]),
            _set("c", items[4:8]),
            _set("d", [items[1], items[5]]),
        ]
        greedy = greedy_hitting_set(sets)
        exact = exact_minimum_hitting_set(sets)
        assert exact.output_size <= greedy.output_size


class TestHarmonic:
    def test_values(self):
        assert harmonic(1) == 1.0
        assert harmonic(2) == pytest.approx(1.5)
        assert harmonic(4) == pytest.approx(1 + 0.5 + 1 / 3 + 0.25)
