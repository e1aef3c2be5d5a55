"""Hitting-set solvers for group-aware filtering.

Theorem 1 reduces group-aware filtering to the minimum hitting-set
problem, which is NP-hard; the paper therefore uses "the greedy algorithm
[that] produces a rho(n) approximation to the optimal solution ... where
rho(n) = H(max set size)" (section 2.2.4).  Chapter 5 generalizes to the
*multi-degree* hitting-set problem (Definition 6, also NP-hard by
Axiom 3), where each set must contribute ``degree`` chosen tuples.

This module implements:

* :func:`greedy_hitting_set` - the greedy heuristic of Figure 2.7,
  generalized to multi-degree sets per section 5.3;
* :func:`exact_minimum_hitting_set` - a brute-force optimal solver used
  by tests to check optimality preservation (Theorem 2) and the greedy
  approximation bound (Theorem 3);
* :func:`harmonic` - H(n), the greedy approximation factor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from itertools import combinations
from typing import Optional, Sequence

from repro.core.candidates import CandidateSet, TupleInterner
from repro.core.tuples import StreamTuple

__all__ = [
    "Selection",
    "greedy_hitting_set",
    "exact_minimum_hitting_set",
    "harmonic",
]


@dataclass
class Selection:
    """Result of a hitting-set solve.

    ``assignments`` maps each candidate set id to the tuples selected for
    it (``degree`` many); ``chosen`` lists the distinct selected tuples in
    pick order.  The union of assignments is exactly ``chosen``.
    """

    assignments: dict[int, list[StreamTuple]] = field(default_factory=dict)
    chosen: list[StreamTuple] = field(default_factory=list)

    @property
    def output_size(self) -> int:
        return len(self.chosen)


def greedy_hitting_set(
    sets: Sequence[CandidateSet],
    interner: Optional[TupleInterner] = None,
    weights: Optional[Sequence[int]] = None,
) -> Selection:
    """Greedy multi-degree hitting set (Figure 2.7 / section 5.3).

    Repeatedly picks the tuple contained in (and eligible for) the most
    still-unsatisfied candidate sets; ties are broken by the latest
    timestamp "to favor time freshness".  Selecting a tuple counts toward
    every unsatisfied set that contains it; once a set has received its
    ``degree`` tuples it stops contributing utility.

    ``weights[i]`` is the multiplicity of ``sets[i]``: the solve equals
    the one over a list holding ``weights[i]`` copies of each set (the
    copies are hit by the same picks and retire together), at the cost
    of one.  Theorem 1's hitting set is indifferent to a duplicated set,
    but the greedy *order* is not - a duplicate adds to the utility of
    every tuple it holds - hence weights rather than deduplication.

    Membership is interned to integer bitsets (see
    :class:`~repro.core.candidates.TupleInterner`).  Set ``i`` owns
    position bit ``i`` plus ``weights[i] - 1`` further bits above the
    sets' own, so a tuple's utility is still
    ``(tuple_sets_mask & active_sets_mask).bit_count()`` and the inner
    loop is popcount/AND work rather than Python set algebra.  A caller
    that solves many regions (the engine) may pass a long-lived interner;
    by default a solve-local one is used.
    """
    if interner is None:
        interner = TupleInterner()
    n_sets = len(sets)
    if weights is None:
        weights = [1] * n_sets
    elif len(weights) != n_sets:
        raise ValueError("weights must give one multiplicity per set")

    set_ids: list[int] = []
    remaining: list[int] = []
    # Per set position: every position bit the set owns.
    blocks: list[int] = []
    width = n_sets
    # Per interned tuple bit: the blocks of the sets containing the tuple.
    sets_mask_of: dict[int, int] = {}
    tuple_of: dict[int, StreamTuple] = {}

    for position, candidate_set in enumerate(sets):
        members = candidate_set.eligible_mask(interner)
        if members == 0:
            raise ValueError(
                f"candidate set {candidate_set.set_id} has no eligible tuples"
            )
        # A set can never need more tuples than it can offer.
        remaining.append(min(candidate_set.degree, members.bit_count()))
        set_ids.append(candidate_set.set_id)
        block = 1 << position
        extra = weights[position] - 1
        if extra:
            if extra < 0:
                raise ValueError("weights must be positive")
            block |= ((1 << extra) - 1) << width
            width += extra
        blocks.append(block)
        while members:
            low = members & -members
            members ^= low
            bit = low.bit_length() - 1
            sets_mask_of[bit] = sets_mask_of.get(bit, 0) | block
            if bit not in tuple_of:
                tuple_of[bit] = candidate_set.tuple_for(interner.seq_at(bit))

    selection = Selection(assignments={sid: [] for sid in set_ids})
    own_bits = (1 << n_sets) - 1
    active = (1 << width) - 1

    # A tuple's utility is popcount(tuple_sets_mask & active_sets_mask).
    # ``active`` only ever loses bits, so utilities are monotonically
    # non-increasing and a lazy max-heap is sound: pop the stored best,
    # recompute its utility with one AND/popcount, and either accept it
    # (still accurate, hence still the maximum) or push it back with the
    # smaller value.  Heap keys are (-utility, -timestamp, -seq): highest
    # utility first, ties broken by the freshest timestamp (Figure 2.7).
    heap = [
        (-mask.bit_count(), -tuple_of[bit].timestamp, -tuple_of[bit].seq, bit)
        for bit, mask in sets_mask_of.items()
    ]
    heapify(heap)

    while active:
        if not heap:  # pragma: no cover - guarded by degree clamp
            raise RuntimeError("unsatisfiable hitting-set instance")
        stored, neg_ts, neg_seq, bit = heappop(heap)
        hit = sets_mask_of[bit] & active
        utility = hit.bit_count()
        if utility != -stored:
            if utility:
                heappush(heap, (-utility, neg_ts, neg_seq, bit))
            continue

        chosen = tuple_of[bit]
        selection.chosen.append(chosen)
        hit &= own_bits
        while hit:
            low = hit & -hit
            hit ^= low
            position = low.bit_length() - 1
            remaining[position] -= 1
            selection.assignments[set_ids[position]].append(chosen)
            if remaining[position] == 0:
                active &= ~blocks[position]
    return selection


def exact_minimum_hitting_set(
    sets: Sequence[CandidateSet], max_universe: int = 24
) -> Selection:
    """Brute-force minimum hitting set (degree-1 sets only).

    Enumerates subsets of the tuple universe by increasing size and
    returns the first that hits every set.  Exponential; refuses instances
    with more than ``max_universe`` distinct tuples.  Used by tests to
    verify Theorems 2 and 3 on small instances.
    """
    for candidate_set in sets:
        if candidate_set.degree != 1:
            raise ValueError("exact solver supports degree-1 sets only")

    universe: dict[int, StreamTuple] = {}
    for candidate_set in sets:
        for item in candidate_set.eligible_tuples:
            universe[item.seq] = item
    if len(universe) > max_universe:
        raise ValueError(
            f"universe of {len(universe)} tuples exceeds max_universe={max_universe}"
        )

    members = sorted(universe.values(), key=lambda t: t.seq)
    set_seqs = [
        frozenset(item.seq for item in candidate_set.eligible_tuples)
        for candidate_set in sets
    ]
    for size in range(0, len(members) + 1):
        for combo in combinations(members, size):
            picked = frozenset(item.seq for item in combo)
            if all(seqs & picked for seqs in set_seqs):
                selection = Selection()
                selection.chosen = list(combo)
                for candidate_set, seqs in zip(sets, set_seqs):
                    hit = next(item for item in combo if item.seq in seqs)
                    selection.assignments[candidate_set.set_id] = [hit]
                return selection
    raise RuntimeError("no hitting set exists (empty candidate set?)")


def harmonic(n: int) -> float:
    """H(n) = 1 + 1/2 + ... + 1/n, the greedy approximation factor."""
    return sum(1.0 / k for k in range(1, n + 1))
