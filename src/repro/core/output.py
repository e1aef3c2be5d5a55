"""Output scheduling strategies.

Section 3.4 describes three output patterns for decided tuples:

* **region-based earliest** (default) - release a region's outputs as
  soon as the region closes; "the earliest possible time for output
  tuples of a region without hurting the optimality of the solution";
* **batched** ``(B)-x`` - release every ``x`` input tuples;
* **per-candidate-set** ``(Pcs)`` - release each filter's output as soon
  as its candidate set closes, trading possible disorder for lower
  average delay.

Strategies consume :class:`Decision` objects (a filter's selection for
one candidate set) and produce :class:`Emission` objects (a tuple handed
to the multiplexer with its recipient list, as in Figure 1.2).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Iterable, Mapping, Optional, Sequence

from repro.core.regions import Region
from repro.core.tuples import StreamTuple

__all__ = [
    "Decision",
    "Emission",
    "OutputStrategy",
    "RegionOutput",
    "PerCandidateSetOutput",
    "BatchedOutput",
]


@dataclass(frozen=True, slots=True)
class Decision:
    """The selection made for one candidate set.

    A set shared by several filters (equal ``sharing_key()``) is decided
    once: ``owners`` names every filter the selection is for, and the
    same object sits in each owner's ``EngineResult.decisions`` row.
    Sharing it is safe because it is frozen, slotted and never mutated.
    ``filter_name`` is the filter whose first stage built the set.
    """

    filter_name: str
    set_id: int
    tuples: tuple[StreamTuple, ...]
    decide_ts: float
    owners: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.owners:
            object.__setattr__(self, "owners", (self.filter_name,))


@dataclass(frozen=True, slots=True)
class Emission:
    """A tuple handed to the multiplexer for multicast.

    ``recipients`` is the set of filter (application) names the tuple is
    labelled with, so that "each tuple is transmitted at most once on any
    link" (section 1.2).
    """

    item: StreamTuple
    recipients: frozenset[str]
    emit_ts: float
    decide_ts: float

    @property
    def delay_ms(self) -> float:
        """Delay from the tuple's source timestamp to its emission."""
        return self.emit_ts - self.item.timestamp


#: Owner tuples of the decisions that chose one tuple -> their union.
RecipientSets = dict[tuple[tuple[str, ...], ...], frozenset[str]]


def merge_decisions(
    decisions: Iterable[Decision],
    emit_ts: float,
    recipient_sets: Optional[RecipientSets] = None,
) -> list[Emission]:
    """Multiplex decisions into per-tuple emissions with merged recipients.

    A tuple's recipients are the union of the owners of every decision
    that chose it.  ``recipient_sets`` interns that union: callers that
    pass the same table across calls get one shared ``frozenset`` per
    distinct combination of owner tuples instead of one per emission.
    """
    if recipient_sets is None:
        recipient_sets = {}
    chosen_for: dict[int, tuple[tuple[str, ...], ...]] = {}
    first_decide: dict[int, float] = {}
    items: dict[int, StreamTuple] = {}
    for decision in decisions:
        owners = (decision.owners,)
        decide_ts = decision.decide_ts
        for item in decision.tuples:
            seq = item.seq
            seen = chosen_for.get(seq)
            if seen is None:
                items[seq] = item
                chosen_for[seq] = owners
                first_decide[seq] = decide_ts
            else:
                chosen_for[seq] = seen + owners
                if decide_ts < first_decide[seq]:
                    first_decide[seq] = decide_ts
    order: Iterable[int] = items
    if len(items) > 1:
        order = sorted(items, key=lambda s: (items[s].timestamp, s))
    emissions = []
    for seq in order:
        key = chosen_for[seq]
        if len(key) > 1:
            # Decisions arrive in region order, which varies; the union
            # does not, so one entry serves every order.
            key = tuple(sorted(set(key)))
        recipients = recipient_sets.get(key)
        if recipients is None:
            recipients = recipient_sets[key] = frozenset(chain.from_iterable(key))
        emissions.append(
            Emission(
                item=items[seq],
                recipients=recipients,
                emit_ts=emit_ts,
                decide_ts=first_decide[seq],
            )
        )
    return emissions


class OutputStrategy(ABC):
    """Scheduler for decided outputs; see section 3.4."""

    name = "abstract"

    def __init__(self) -> None:
        #: One ``frozenset`` per recipient combination this strategy has
        #: emitted.  Per strategy, hence per engine: bounded by the
        #: group's combinations of sharing classes, freed with the engine,
        #: and never shared between engines deciding on different threads.
        #: A cache: a checkpoint leaves it behind.
        self._recipient_sets: RecipientSets = {}
        #: Decisions made but not yet released.
        self._pending: list[Decision] = []

    @property
    def pending(self) -> Sequence[Decision]:
        """Decisions made but not yet released, oldest first."""
        return self._pending

    def state(
        self, ref: Callable[[StreamTuple], int], rank: Callable[[int], int]
    ) -> list:
        """``[pending]``, each decision as ``[set, filter, owners, seqs,
        decide_ts]``: tuples go through ``ref``, set ids through
        ``rank`` (see :meth:`GroupAwareEngine.checkpoint`)."""
        return [
            [
                [
                    rank(d.set_id),
                    d.filter_name,
                    list(d.owners),
                    [ref(item) for item in d.tuples],
                    d.decide_ts,
                ]
                for d in self._pending
            ]
        ]

    def restore(
        self,
        state: list,
        tuples: Mapping[int, StreamTuple],
        set_id: Callable[[int], int],
    ) -> None:
        """Resume from :meth:`state`; ``set_id`` maps a rank back to an id."""
        self._pending = [
            Decision(
                filter_name=name,
                set_id=set_id(rank),
                tuples=tuple(tuples[seq] for seq in seqs),
                decide_ts=decide_ts,
                owners=tuple(owners),
            )
            for rank, name, owners, seqs, decide_ts in state[0]
        ]

    @abstractmethod
    def on_decisions(self, decisions: Sequence[Decision], now: float) -> list[Emission]:
        """New decisions were made while processing the tuple at ``now``."""

    def on_region_close(self, region: Region, now: float) -> list[Emission]:
        """A region closed at ``now``; release anything region-gated."""
        return []

    def on_input(self, now: float) -> list[Emission]:
        """An input tuple finished processing (used by batched output)."""
        return []

    @abstractmethod
    def flush(self, now: float) -> list[Emission]:
        """End of stream: release everything still buffered."""


class RegionOutput(OutputStrategy):
    """Default order-preserving strategy: release at region closure."""

    name = "region"

    def on_decisions(self, decisions: Sequence[Decision], now: float) -> list[Emission]:
        self._pending.extend(decisions)
        return []

    def on_region_close(self, region: Region, now: float) -> list[Emission]:
        region_sets = {s.set_id for s in region.sets}
        ready = [d for d in self._pending if d.set_id in region_sets]
        self._pending = [d for d in self._pending if d.set_id not in region_sets]
        return merge_decisions(ready, now, self._recipient_sets)

    def flush(self, now: float) -> list[Emission]:
        ready, self._pending = self._pending, []
        return merge_decisions(ready, now, self._recipient_sets)


class PerCandidateSetOutput(OutputStrategy):
    """``(Pcs)``: release each decision the moment it is made.

    Lowers average delay at the cost of possible disorder across the
    candidate sets of a region (section 3.4); disorder would be signalled
    downstream via stream punctuations.
    """

    name = "pcs"

    def on_decisions(self, decisions: Sequence[Decision], now: float) -> list[Emission]:
        return merge_decisions(decisions, now, self._recipient_sets)

    def flush(self, now: float) -> list[Emission]:
        return []


class BatchedOutput(OutputStrategy):
    """``(B)-x``: release accumulated outputs every ``batch_size`` inputs."""

    name = "batched"

    def __init__(self, batch_size: int):
        if batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        super().__init__()
        self.batch_size = batch_size
        self._since_release = 0

    def on_decisions(self, decisions: Sequence[Decision], now: float) -> list[Emission]:
        self._pending.extend(decisions)
        return []

    def on_input(self, now: float) -> list[Emission]:
        self._since_release += 1
        if self._since_release < self.batch_size:
            return []
        self._since_release = 0
        ready, self._pending = self._pending, []
        return merge_decisions(ready, now, self._recipient_sets)

    def flush(self, now: float) -> list[Emission]:
        ready, self._pending = self._pending, []
        return merge_decisions(ready, now, self._recipient_sets)

    def state(self, ref, rank) -> list:
        """``[pending, inputs since the last release]``."""
        return [*super().state(ref, rank), self._since_release]

    def restore(self, state, tuples, set_id) -> None:
        super().restore(state, tuples, set_id)
        self._since_release = int(state[1])
