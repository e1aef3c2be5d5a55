"""Group-aware filtering engines.

This module implements the paper's two-stage process (Figure 2.4): each
filter *admits candidates* online, and an *output decider* selects one
(or ``degree`` many) tuples per candidate set so that the multiplexed
output is small.  Two deciders are provided, matching the paper's two
heuristics-based algorithms:

* ``algorithm="region"`` - REGION-BASED-GREEDY-FILTERING (Figure 2.6):
  wait for a region of connected candidate sets to close, then run the
  greedy hitting-set over the region;
* ``algorithm="per_candidate_set"`` - PER-CANDIDATE-SET-GREEDY-FILTERING
  (Figure 2.10): each filter decides as soon as its candidate set closes,
  preferring tuples already chosen by other filters, then tuples of
  highest group utility.  Stateful filters always decide this way, even
  under the region algorithm (section 2.3.3).

Passing a :class:`~repro.core.cuts.TimeConstraint` enables *timely cuts*
(Figure 3.3): open candidate sets are force-closed when the accumulated
span plus the predicted greedy run time would violate the constraint.

:class:`SelfInterestedEngine` is the paper's baseline: every filter picks
its reference tuples with no group coordination.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import chain
from typing import (
    Hashable,
    Iterable,
    Optional,
    Protocol,
    Sequence,
    runtime_checkable,
)

from repro.core.accumulators import BoundedSamples
from repro.core.candidates import CandidateSet, TupleInterner, reserve_set_ids
from repro.core.cuts import RuntimePredictor, TimeConstraint
from repro.core.hitting_set import greedy_hitting_set
from repro.core.output import (
    Decision,
    Emission,
    OutputStrategy,
    RegionOutput,
    merge_decisions,
)
from repro.core.regions import RegionTracker
from repro.core.state import DecidedOutputs, GroupUtility
from repro.core.tuples import StreamTuple

__all__ = [
    "GroupFilterProtocol",
    "SelfInterestedFilterProtocol",
    "FilterContext",
    "EngineResult",
    "GroupAwareEngine",
    "SelfInterestedEngine",
    "CHECKPOINT_VERSION",
]

#: Layout of a :meth:`GroupAwareEngine.checkpoint` image.
CHECKPOINT_VERSION = 1


def _tuple_from_row(row) -> tuple[int, StreamTuple]:
    """One checkpoint tuple-table row, ``[seq, timestamp, name, value,
    ...]``, as ``(seq, tuple)``."""
    seq, timestamp, *pairs = row
    names = pairs[::2]
    if len(pairs) % 2 or not all(isinstance(name, str) for name in names):
        raise ValueError("a tuple row is seq, timestamp, then name/value pairs")
    seq = int(seq)
    values = {name: float(value) for name, value in zip(names, pairs[1::2])}
    return seq, StreamTuple.trusted(seq, float(timestamp), values)


@runtime_checkable
class GroupFilterProtocol(Protocol):
    """What the engine requires of a group-aware filter (section 2.2.2)."""

    name: str
    stateful: bool

    def process(self, item: StreamTuple, ctx: "FilterContext") -> None:
        """Admit/dismiss candidates for ``item``; close sets as needed."""

    def flush(self, ctx: "FilterContext") -> None:
        """End of stream: close any open candidate set."""

    def on_force_close(self, ctx: "FilterContext") -> None:
        """A timely cut demands the open candidate set be closed now."""

    def on_output_decided(self, chosen: Sequence[StreamTuple]) -> None:
        """The decider chose ``chosen`` for this filter's last closed set."""

    def make_self_interested(self) -> "SelfInterestedFilterProtocol":
        """A fresh, uncoordinated instance for the SI baseline."""

    def sharing_key(self) -> Optional[Hashable]:
        """Equal keys promise identical candidate sets; ``None`` opts out."""


class SelfInterestedFilterProtocol(Protocol):
    """Baseline filter: emits its own preferred outputs immediately."""

    name: str

    def process(self, item: StreamTuple) -> list[StreamTuple]: ...

    def flush(self) -> list[StreamTuple]: ...


class FilterContext:
    """One first stage's view of the shared global state (Figure 4.1).

    Filters never touch the group state directly; they admit, dismiss and
    close through this context, which keeps group utilities, the region
    tracker and the decided-output log consistent.

    ``filter`` is the instance the engine drives; ``owners`` names every
    filter of the group it is driven for (itself first, then the filters
    with an equal :meth:`~GroupFilterProtocol.sharing_key`, in the
    caller's order).  Each candidate set it builds carries the owners
    and weighs ``len(owners)`` in the group utility.
    """

    def __init__(
        self, engine: "GroupAwareEngine", flt: GroupFilterProtocol, decides_early: bool
    ):
        self._engine = engine
        self.filter = flt
        self.owners: tuple[str, ...] = (flt.name,)
        self._current: Optional[CandidateSet] = None
        #: Whether closed sets are decided per candidate set (section
        #: 2.3.3) rather than with their region.  Snapshotted: a filter's
        #: ``stateful`` derives from a freshly built taxonomy object,
        #: which is measurable per set closure, and cannot change mid-run.
        self.decides_early = decides_early

    # ------------------------------------------------------------------
    @property
    def current_set(self) -> Optional[CandidateSet]:
        return self._current

    @property
    def now(self) -> float:
        return self._engine.now

    def admit(self, item: StreamTuple) -> None:
        """First stage: add ``item`` to the filter's current candidate set."""
        current = self._current
        if current is None or current.closed:
            current = self._current = CandidateSet(self.filter.name, self.owners)
            self._engine._tracker.watch(current)
        if current.add(item):
            self._engine._utility.increment(item, len(self.owners))

    def dismiss(self, item: StreamTuple) -> None:
        """Retract a tentatively admitted candidate (section 2.3.3)."""
        if self._current is None or item not in self._current:
            return
        self._current.remove(item)
        self._engine._utility.decrement(item, len(self.owners))
        self._engine._release_orphaned_bit(item.seq)

    def mark_reference(self, item: StreamTuple) -> None:
        """Record the reference tuple of the current candidate set."""
        if self._current is None or item not in self._current:
            raise ValueError("reference tuple must be an admitted candidate")
        self._current.reference = item

    def set_degree(self, degree: int) -> None:
        """Multi-degree candidacy (Chapter 5): pick ``degree`` tuples."""
        if self._current is None:
            raise ValueError("no open candidate set")
        if degree < 1:
            raise ValueError("degree must be at least 1")
        self._current.degree = degree

    def restrict_eligible(self, members: Iterable[StreamTuple]) -> None:
        """Apply a top/bottom output prescription to the current set."""
        if self._current is None:
            raise ValueError("no open candidate set")
        self._current.restrict_eligible(members)

    def close_set(self, cut: bool = False) -> None:
        """Second stage trigger: the current candidate set is complete."""
        if self._current is None:
            return
        if len(self._current) == 0:
            # Nothing was admitted; recycle the set silently.
            self._engine._tracker.discard(self._current)
            self._current = None
            return
        self._current.close(cut=cut)
        self._engine._on_set_closed(self, self._current)
        self._current = None

    def has_open_candidates(self) -> bool:
        return self._current is not None and not self._current.closed and len(self._current) > 0


@dataclass
class EngineResult:
    """Everything measured during one engine run."""

    input_count: int = 0
    emissions: list[Emission] = field(default_factory=list)
    decisions: dict[str, list[Decision]] = field(default_factory=dict)
    #: Per-tuple processing cost.  A bounded accumulator, not a list: on
    #: an infinite live stream the count/total stay exact (so every mean
    #: is exact) while the distribution is a fixed-size reservoir.
    cpu_ns_per_tuple: BoundedSamples = field(default_factory=BoundedSamples)
    regions_emitted: int = 0
    regions_cut: int = 0
    cuts_triggered: int = 0
    algorithm: str = ""

    # ------------------------------------------------------------------
    @property
    def distinct_output_seqs(self) -> set[int]:
        """Distinct tuples in the multiplexed output stream."""
        return {e.item.seq for e in self.emissions}

    @property
    def output_count(self) -> int:
        return len(self.distinct_output_seqs)

    @property
    def oi_ratio(self) -> float:
        """Output/input ratio: "total number of output tuples over the
        number of input tuples" (section 4.4)."""
        if self.input_count == 0:
            return 0.0
        return self.output_count / self.input_count

    @property
    def transmissions(self) -> int:
        """Emission events, counting re-sends of an already-sent tuple."""
        return len(self.emissions)

    def outputs_for(self, filter_name: str) -> list[StreamTuple]:
        """The tuples delivered to one application, in timestamp order."""
        items: dict[int, StreamTuple] = {}
        for decision in self.decisions.get(filter_name, []):
            for item in decision.tuples:
                items[item.seq] = item
        return sorted(items.values(), key=lambda t: t.timestamp)

    @property
    def total_cpu_ms(self) -> float:
        return self.cpu_ns_per_tuple.total / 1e6

    @property
    def mean_cpu_ms_per_tuple(self) -> float:
        if not self.cpu_ns_per_tuple:
            return 0.0
        return self.total_cpu_ms / len(self.cpu_ns_per_tuple)

    @property
    def latencies_ms(self) -> list[float]:
        """Per-emitted-tuple delay from source timestamp to emission."""
        return [e.delay_ms for e in self.emissions]

    @property
    def mean_latency_ms(self) -> float:
        delays = self.latencies_ms
        if not delays:
            return 0.0
        return sum(delays) / len(delays)

    @property
    def percent_regions_cut(self) -> float:
        if self.regions_emitted == 0:
            return 0.0
        return 100.0 * self.regions_cut / self.regions_emitted


class GroupAwareEngine:
    """Coordinator for a group of filters sharing one data source.

    Filters with equal sharing keys share one first stage: a candidate
    set is a pure function of (filter spec, input), so one
    :class:`FilterContext` evaluates it for all of them and the second
    stage weighs the set by its owners, which keeps every greedy pick
    what the duplicated sets would have made it.  A filter that decides
    early reads the group utility *mid-arrival*, after the filters
    before it and before those after it; sharing across it would move
    an owner's contribution to the other side of that read.  So an
    early decider is never shared, and no class spans one.

    ``record=False`` is for a caller that consumes what each step
    *returns* and never the log (the live broker): every step decides
    and returns exactly what it otherwise would, but nothing is kept
    per tuple — no ``emissions``, no ``decisions`` rows, no
    ``cpu_ns_per_tuple`` sample — only the result's counters.  The
    default records, because a batch run's product is the log.
    """

    def __init__(
        self,
        filters: Sequence[GroupFilterProtocol],
        algorithm: str = "region",
        output_strategy: Optional[OutputStrategy] = None,
        time_constraint: Optional[TimeConstraint] = None,
        predictor: Optional[RuntimePredictor] = None,
        record: bool = True,
    ):
        if algorithm not in ("region", "per_candidate_set"):
            raise ValueError(f"unknown algorithm {algorithm!r}")
        names = [f.name for f in filters]
        if len(set(names)) != len(names):
            raise ValueError(f"filter names must be unique, got {names}")
        if not filters:
            raise ValueError("a group needs at least one filter")

        self.algorithm = algorithm
        self._record = record
        self._filters = list(filters)
        self._contexts: list[FilterContext] = []
        shareable: dict[Hashable, FilterContext] = {}
        for flt in filters:
            decides_early = algorithm == "per_candidate_set" or bool(flt.stateful)
            if decides_early:
                shareable.clear()
                key = None
            else:
                key = flt.sharing_key()
            if key is not None and key in shareable:
                shareable[key].owners += (flt.name,)
                continue
            ctx = FilterContext(self, flt, decides_early)
            self._contexts.append(ctx)
            if key is not None:
                shareable[key] = ctx
        self._strategy = output_strategy if output_strategy is not None else RegionOutput()
        self._constraint = time_constraint
        self._predictor = predictor if predictor is not None else RuntimePredictor()

        self._utility = GroupUtility()
        self._decided = DecidedOutputs()
        self._tracker = RegionTracker()
        self._interner = TupleInterner()
        self._early_decided_sets: set[int] = set()
        #: Emissions an early decider released inside the current step
        #: (filter callbacks cannot return them); ``_log`` drains it.
        self._early: list[Emission] = []
        self.now = 0.0
        self._result = EngineResult(algorithm=algorithm)
        for name in names:
            self._result.decisions[name] = []
        self._finished = False

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    @property
    def filters(self) -> list[GroupFilterProtocol]:
        return list(self._filters)

    @property
    def context_count(self) -> int:
        """Distinct first stages evaluated per tuple (<= ``len(filters)``)."""
        return len(self._contexts)

    @property
    def sharing_classes(self) -> list[tuple[str, ...]]:
        """Each first stage's owners, in filter order: every decision
        names all of one class or none of it, so every emission's
        recipients are a union of whole classes."""
        return [ctx.owners for ctx in self._contexts]

    @property
    def cuts_triggered(self) -> int:
        """Timely cuts fired so far (grows live; final in ``finish()``)."""
        return self._result.cuts_triggered

    def run(self, trace: Iterable[StreamTuple]) -> EngineResult:
        """Process a whole trace and return the measurements."""
        for item in trace:
            self.process(item)
        return self.finish()

    def process(self, item: StreamTuple) -> list[Emission]:
        """Process one input tuple; return any emissions it triggered."""
        if self._finished:
            raise RuntimeError("engine already finished")
        if self._record:
            started = time.perf_counter_ns()
        self.now = item.timestamp
        self._result.input_count += 1
        emissions: list[Emission] = []

        for ctx in self._contexts:
            ctx.filter.process(item, ctx)

        if self._constraint is not None:
            emissions.extend(self._check_cut())

        emissions.extend(self._poll_regions())
        emissions.extend(self._strategy.on_input(self.now))

        if self._record:
            self._result.cpu_ns_per_tuple.append(time.perf_counter_ns() - started)
        return self._log(emissions)

    def tick(self, now: float, *, cuts: bool = True) -> list[Emission]:
        """Timer-driven pass with no input tuple (live-service clock tick).

        Advances the engine clock to ``now`` (never backwards), applies the
        timely-cut test, and sweeps finished regions.  As long as ``now``
        does not exceed the timestamp of the next tuple that will arrive,
        a tick (with no time constraint) can only close regions that the
        next ``process`` call would have closed anyway, so decided outputs
        equal those of an untick-ed run; only emission timestamps may be
        earlier.  Ticking *past* the next arrival closes regions that a
        still-in-span tuple could have joined — valid live behaviour, but
        no longer batch-identical; callers that need equivalence must
        bound the tick clock (the load generator clamps its extrapolated
        stream clock to one inter-arrival interval past the last tuple
        the service has actually processed).

        With a time constraint that bounding is *not* sufficient: a tick
        landing strictly between two arrivals can fire a timely cut whose
        region excludes the next tuple, while a batch run (which tests
        cuts only on arrival) would have included it.  ``cuts=False``
        restricts the timely-cut test to arrivals, restoring determinism
        against a batch reference at the cost of slightly later cuts.
        """
        if self._finished:
            raise RuntimeError("engine already finished")
        if now > self.now:
            self.now = now
        emissions: list[Emission] = []
        if cuts and self._constraint is not None:
            emissions.extend(self._check_cut())
        emissions.extend(self._poll_regions())
        return self._log(emissions)

    def drain(self) -> list[Emission]:
        """End of stream, as a step: flush all filters, decide what is
        still open and return the buffered output.  The engine is
        finished afterwards; a second call returns nothing."""
        if self._finished:
            return []
        emissions: list[Emission] = []
        for ctx in self._contexts:
            ctx.filter.flush(ctx)
        emissions.extend(self._poll_regions(final=True))
        emissions.extend(self._strategy.flush(self.now))
        self._result.regions_emitted = self._tracker.regions_emitted
        self._result.regions_cut = self._tracker.regions_cut
        self._finished = True
        return self._log(emissions)

    def finish(self) -> EngineResult:
        """:meth:`drain`, then everything the run measured."""
        self.drain()
        return self._result

    # ------------------------------------------------------------------
    # Checkpoint
    # ------------------------------------------------------------------
    def checkpoint(self) -> list:
        """The engine's open state as a plain-data image.

        Exactly what a ``record=False`` engine keeps between steps: the
        watched candidate sets with their members, each first stage's
        open set and filter state, the group utilities, the decided
        outputs of unsolved regions, the output strategy's unreleased
        decisions, the run-time predictor's window, the clock and the
        counters.  No log (a recording engine's ``EngineResult`` rows
        stay behind) and no index: the tuple interner's bit positions
        never reach a decision (greedy picks order by utility,
        timestamp and seq), so the restored engine interns afresh, as
        its strategy rebuilds its recipient sets.  So the image's size
        follows the open state, not the stream.

        The image is a list of ints, floats, strings, bools, ``None``
        and lists — it packs with ``marshal`` and travels as JSON.  Its
        last element is the tuple table, ``[seq, timestamp, name,
        value, name, value, ...]`` per tuple the state refers to; the
        rest refers to tuples by seq.  Candidate-set ids are renumbered
        ``0..n-1`` in order.  :meth:`restore` on an engine built the
        same way (same filters in the same order, algorithm, output
        strategy and time constraint) continues exactly where this one
        stands, and its own checkpoint is this image again.
        """
        if self._finished:
            raise RuntimeError("engine already finished")
        table: dict[int, StreamTuple] = {}

        def ref(item: StreamTuple) -> int:
            table[item.seq] = item
            return item.seq

        watched = self._tracker.watched()
        set_ids = sorted(
            {
                *(s.set_id for s in watched),
                *self._early_decided_sets,
                *(d.set_id for d in self._strategy.pending),
            }
        )
        rank = {set_id: index for index, set_id in enumerate(set_ids)}.__getitem__
        context_of = {ctx.filter.name: i for i, ctx in enumerate(self._contexts)}
        sets = [
            [rank(s.set_id), context_of[s.filter_name], *s.state(ref)]
            for s in watched
        ]
        result = self._result
        return [
            CHECKPOINT_VERSION,
            *self._shape(),
            self.now,
            len(set_ids),
            sets,
            [
                None if ctx._current is None else rank(ctx._current.set_id)
                for ctx in self._contexts
            ],
            [ctx.filter.state(ref) for ctx in self._contexts],
            sorted(rank(set_id) for set_id in self._early_decided_sets),
            self._strategy.state(ref, rank),
            self._tracker.state(),
            self._utility.state(),
            self._decided.state(),
            self._predictor.state(),
            [result.input_count, result.cuts_triggered],
            [
                [item.seq, item.timestamp, *chain.from_iterable(item.values.items())]
                for item in table.values()
            ],
        ]

    def restore(self, image: Sequence) -> int:
        """Continue from a :meth:`checkpoint` image; returns the number
        of tuples it restored.

        The engine must be built the way the checkpointed one was;
        ``ValueError`` if the image is of another layout or another
        engine, or malformed (the engine is then unusable: build a
        fresh one).  Each tuple-table row is checked and coerced as an
        ingested tuple is (an int seq, then float timestamp and values
        under string names), so an image that crossed a wire as JSON
        restores the tuples it was taken from.  Runs no engine step.
        """
        if self._finished:
            raise RuntimeError("engine already finished")
        try:
            (
                version,
                algorithm,
                output,
                constraint,
                owners,
                now,
                set_count,
                sets,
                current,
                filters,
                early,
                strategy,
                tracker,
                utility,
                decided,
                predictor,
                counters,
                rows,
            ) = image
            if version != CHECKPOINT_VERSION:
                raise ValueError(f"checkpoint layout {version!r} is not {CHECKPOINT_VERSION}")
            shape = [algorithm, output, constraint, owners]
            if shape != self._shape():
                raise ValueError(
                    f"checkpoint of another engine: {shape!r}, this one is {self._shape()!r}"
                )
            tuples = dict(map(_tuple_from_row, rows))
            first_id = reserve_set_ids(set_count)

            def set_id(rank: int) -> int:
                if not 0 <= rank < set_count:
                    raise ValueError(f"set rank {rank!r} outside 0..{set_count - 1}")
                return first_id + rank

            self._interner = TupleInterner()
            restored: dict[int, CandidateSet] = {}
            for rank, index, *state in sets:
                ctx = self._contexts[index]
                restored[rank] = CandidateSet.from_state(
                    state,
                    tuples,
                    set_id=set_id(rank),
                    filter_name=ctx.filter.name,
                    owners=ctx.owners,
                )
            self._tracker.restore(tracker, restored.values())
            for ctx, rank, state in zip(self._contexts, current, filters, strict=True):
                ctx._current = None if rank is None else restored[rank]
                ctx.filter.restore(state, tuples)
            self._early_decided_sets = {set_id(rank) for rank in early}
            self._strategy.restore(strategy, tuples, set_id)
            self._utility.restore(utility)
            self._decided.restore(decided)
            self._predictor.restore(predictor)
            self.now = now
            self._result.input_count, self._result.cuts_triggered = counters
        except (TypeError, KeyError, IndexError, AttributeError, OverflowError) as exc:
            raise ValueError(f"malformed checkpoint image: {exc!r}") from exc
        return len(tuples)

    def _shape(self) -> list:
        """What a checkpoint must agree on with the engine restoring it."""
        constraint = self._constraint
        return [
            self.algorithm,
            self._strategy.name,
            None
            if constraint is None
            else [constraint.max_delay_ms, constraint.overestimate_ms],
            [list(ctx.owners) for ctx in self._contexts],
        ]

    def _log(self, emissions: list[Emission]) -> list[Emission]:
        """Return one step's emissions, exactly once each, logging them
        if the engine records.

        Early deciders emit from inside filter callbacks, which all run
        before the step's regions are polled, so their emissions come
        first — the order they were made in.
        """
        if self._early:
            emissions = self._early + emissions
            self._early = []
        if self._record:
            self._result.emissions.extend(emissions)
        return emissions

    # ------------------------------------------------------------------
    # Second stage: deciding outputs
    # ------------------------------------------------------------------
    def _on_set_closed(self, ctx: FilterContext, candidate_set: CandidateSet) -> None:
        if ctx.decides_early:
            self._decide_per_candidate_set(ctx, candidate_set)

    def _decide_per_candidate_set(
        self, ctx: FilterContext, candidate_set: CandidateSet
    ) -> None:
        """Figure 2.10 second stage: the filter decides its own output.

        Heuristic 1: prefer tuples already chosen by other filters.
        Heuristic 2: otherwise take the highest group utility.  Both are
        subject to the freshest-timestamp tie-break.  An early decider's
        context has exactly one owner (see the class docstring).
        """
        eligible = candidate_set.eligible_tuples
        degree = min(candidate_set.degree, len(eligible))
        picks: list[StreamTuple] = []
        pool = list(eligible)
        while len(picks) < degree:
            already = self._decided.chosen_by_others(pool, ctx.filter.name)
            source = already if already else pool
            best = self._utility.best(source)
            assert best is not None
            picks.append(best)
            pool.remove(best)

        for member in candidate_set.tuples:
            self._utility.decrement(member)
        for item in picks:
            self._decided.record(item, ctx.filter.name)

        decision = Decision(
            filter_name=ctx.filter.name,
            set_id=candidate_set.set_id,
            tuples=tuple(picks),
            decide_ts=self.now,
        )
        self._early_decided_sets.add(candidate_set.set_id)
        if self._record:
            self._result.decisions[ctx.filter.name].append(decision)
        ctx.filter.on_output_decided(picks)
        self._early.extend(self._strategy.on_decisions([decision], self.now))

    def _release_orphaned_bit(self, seq: int) -> None:
        """Recycle a dismissed tuple's interner bit once no set holds it.

        The cut test's mask-based tuple counting interns tuples eagerly,
        so a tuple dismissed from every set before its region closes
        would otherwise keep its bit forever on an infinite stream
        (region closure only releases *member* seqs)."""
        if self._interner.bit_of(seq) is None:
            return
        if not self._tracker.contains_tuple(seq):
            self._interner.release((seq,))

    def _poll_regions(self, final: bool = False, cut: bool = False) -> list[Emission]:
        if final:
            for ctx in self._contexts:
                ctx.close_set()
        regions = self._tracker.poll(self.now, final=final, cut=cut)
        emissions: list[Emission] = []
        for region in regions:
            seqs = region.tuple_seqs
            undecided = [
                s for s in region.sets if s.set_id not in self._early_decided_sets
            ]
            if undecided:
                started = time.perf_counter_ns()
                selection = greedy_hitting_set(
                    undecided,
                    interner=self._interner,
                    weights=[len(s.owners) for s in undecided],
                )
                elapsed_ms = (time.perf_counter_ns() - started) / 1e6
                self._predictor.observe(len(seqs), elapsed_ms)
                decisions = []
                record = self._record
                rows = self._result.decisions
                # No DecidedOutputs.record here: the region's seqs are
                # forgotten below, and only an early decider, which runs
                # before the poll, reads them.
                for candidate_set in undecided:
                    owners = candidate_set.owners
                    decision = Decision(
                        filter_name=candidate_set.filter_name,
                        set_id=candidate_set.set_id,
                        tuples=tuple(selection.assignments[candidate_set.set_id]),
                        decide_ts=self.now,
                        owners=owners,
                    )
                    decisions.append(decision)
                    if record:
                        for owner in owners:
                            rows[owner].append(decision)
                emissions.extend(self._strategy.on_decisions(decisions, self.now))
            emissions.extend(self._strategy.on_region_close(region, self.now))
            self._utility.forget(seqs)
            self._decided.forget(seqs)
            self._interner.release(seqs)
            self._early_decided_sets.difference_update(
                s.set_id for s in region.sets
            )
        return emissions

    # ------------------------------------------------------------------
    # Timely cuts (Chapter 3)
    # ------------------------------------------------------------------
    def _check_cut(self) -> list[Emission]:
        assert self._constraint is not None
        if self.algorithm == "region":
            return self._check_region_cut()
        return self._check_per_set_cut()

    def _check_region_cut(self) -> list[Emission]:
        """Figure 3.3 line 8: cut when span exceeds the remaining budget."""
        assert self._constraint is not None
        if not self._tracker.has_open_sets():
            return []
        span = self._tracker.active_span(self.now)
        predicted = (
            self._predictor.predict(
                self._tracker.active_tuple_count(self._interner) + 1
            )
            + self._constraint.overestimate_ms
        )
        if span < self._constraint.max_delay_ms - predicted:
            return []
        self._result.cuts_triggered += 1
        for ctx in self._contexts:
            if ctx.has_open_candidates():
                ctx.filter.on_force_close(ctx)
        return self._poll_regions(cut=True)

    def _check_per_set_cut(self) -> list[Emission]:
        """Per-candidate-set cut: close any set older than the constraint."""
        assert self._constraint is not None
        emissions: list[Emission] = []
        any_cut = False
        for ctx in self._contexts:
            if not ctx.has_open_candidates():
                continue
            cover = ctx.current_set.time_cover  # type: ignore[union-attr]
            assert cover is not None
            if self.now - cover.min_ts >= self._constraint.max_delay_ms:
                self._result.cuts_triggered += 1
                any_cut = True
                ctx.filter.on_force_close(ctx)
        if any_cut:
            emissions.extend(self._poll_regions())
        return emissions


class SelfInterestedEngine:
    """The paper's baseline: uncoordinated filters, immediate output.

    Each filter emits exactly its reference tuples (or its own samples,
    for sampling filters) the moment they are recognized; the multiplexer
    merges same-instant outputs of different filters into one emission.
    """

    def __init__(self, filters: Sequence[GroupFilterProtocol]):
        if not filters:
            raise ValueError("a group needs at least one filter")
        self._filters = [f.make_self_interested() for f in filters]
        self._result = EngineResult(algorithm="self_interested")
        for flt in self._filters:
            self._result.decisions[flt.name] = []
        self._set_counter = 0
        self._finished = False
        self.now = 0.0

    def run(self, trace: Iterable[StreamTuple]) -> EngineResult:
        for item in trace:
            self.process(item)
        return self.finish()

    def process(self, item: StreamTuple) -> list[Emission]:
        if self._finished:
            raise RuntimeError("engine already finished")
        started = time.perf_counter_ns()
        self.now = item.timestamp
        self._result.input_count += 1
        decisions = []
        for flt in self._filters:
            for output in flt.process(item):
                decisions.append(self._make_decision(flt.name, output))
        emissions = merge_decisions(decisions, emit_ts=self.now)
        self._result.cpu_ns_per_tuple.append(time.perf_counter_ns() - started)
        self._result.emissions.extend(emissions)
        return emissions

    def finish(self) -> EngineResult:
        if self._finished:
            return self._result
        decisions = []
        for flt in self._filters:
            for output in flt.flush():
                decisions.append(self._make_decision(flt.name, output))
        self._result.emissions.extend(merge_decisions(decisions, emit_ts=self.now))
        self._finished = True
        return self._result

    def _make_decision(self, filter_name: str, output: StreamTuple) -> Decision:
        self._set_counter += 1
        decision = Decision(
            filter_name=filter_name,
            set_id=-self._set_counter,
            tuples=(output,),
            decide_ts=self.now,
        )
        self._result.decisions[filter_name].append(decision)
        return decision
