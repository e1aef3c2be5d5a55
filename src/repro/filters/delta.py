"""Delta-compression filters (the paper's running example).

A ``(slack, delta)`` Delta-Compression filter "selects data at delta-unit
[granularity] with slack-unit of quality deviation" (section 2.1.1).  The
self-interested filter outputs *reference tuples*: the first tuple, then
every first tuple whose value moved at least ``delta`` from the previous
reference.  The group-aware filter instead builds, for each reference,
the candidate set of tuples "within the [slack]-unit vicinity of, and
contiguous with, the reference tuple" (Figure 2.3) and lets the group
decider pick any member.

Online admission follows section 2.3.3: tuples whose distance from the
base lands in ``[delta - slack, delta + slack]`` are admitted
*tentatively*; when the reference materializes (distance >= delta),
tentative members farther than ``slack`` from it are dismissed; the set
closes at the first tuple that is no longer within ``slack`` of the
reference.

Axiom 1 requires ``slack < delta / 2`` so that one filter's candidate
sets have disjoint time covers; the constructor enforces it.

:class:`StatefulDeltaCompressionFilter` implements Figure 2.9: the next
candidate set is based on the tuple *chosen* for the previous one rather
than on the reference, which forces per-candidate-set deciding.
"""

from __future__ import annotations

import enum
from itertools import chain
from typing import Callable, Hashable, Mapping, Optional, Sequence

from repro.core.engine import FilterContext
from repro.core.tuples import StreamTuple
from repro.filters.base import (
    CandidateComputation,
    DependencySpec,
    FilterTaxonomy,
    GroupAwareFilter,
    OutputSelection,
)

__all__ = [
    "DeltaFilterBase",
    "DeltaCompressionFilter",
    "StatefulDeltaCompressionFilter",
    "SelfInterestedDelta",
]


class _Phase(enum.Enum):
    SEED = "seed"  # waiting for the very first derived value
    PRE_REF = "pre_reference"  # scanning for the next reference
    POST_REF = "post_reference"  # extending the vicinity of a found reference


class DeltaFilterBase(GroupAwareFilter):
    """Shared machinery for all delta-compression style filters.

    Subclasses supply :meth:`_derive`, mapping a tuple to the scalar the
    compression runs on (a raw attribute for DC1, a trend for DC2, a
    multi-attribute average for DC3).  ``None`` skips the tuple.
    """

    #: taxonomy state-update label, overridden by subclasses
    state_update = "value"

    def __init__(self, name: str, delta: float, slack: float, stateful: bool = False):
        super().__init__(name)
        if delta <= 0:
            raise ValueError(f"delta must be positive, got {delta}")
        if slack < 0:
            raise ValueError(f"slack must be non-negative, got {slack}")
        # The 1e-4 relative tolerance absorbs decimal formatting round-off
        # in textual specs (6 significant digits); a slack over budget by
        # 0.01% cannot produce overlapping time covers in practice.
        if slack > (delta / 2.0) * (1.0 + 1e-4):
            raise ValueError(
                f"Axiom 1 requires slack <= delta/2 (got slack={slack}, delta={delta}); "
                "otherwise one filter's candidate-set time covers may intersect"
            )
        # Note: the paper states the axiom strictly (slack < delta/2) but its
        # own evaluation uses slack = 50% of delta (section 4.3).  Equality is
        # safe here because admission is sequential: a tuple joins at most one
        # candidate set, so time covers never share a tuple even at the
        # boundary.
        self.delta = delta
        self.slack = slack
        self._stateful = stateful
        self._phase = _Phase.SEED
        self._base: Optional[float] = None
        self._ref_value: Optional[float] = None
        self._tentative: list[StreamTuple] = []
        self._member_values: dict[int, float] = {}

    # ------------------------------------------------------------------
    @property
    def taxonomy(self) -> FilterTaxonomy:
        return FilterTaxonomy(
            candidate_computation=CandidateComputation(
                attributes=self._attributes(),
                state_update=self.state_update,
                threshold="absolute-distance",
            ),
            output_selection=OutputSelection(quantity=1, unit="tuple"),
            dependency=DependencySpec(
                stateful=self._stateful,
                dependent_state="previous-chosen-tuples"
                if self._stateful
                else "reference-tuples",
            ),
        )

    def _attributes(self) -> tuple[str, ...]:
        return ()

    def sharing_key(self) -> Optional[Hashable]:
        # Stateful variants base each set on the decider's previous pick.
        if self._stateful:
            return None
        return (type(self), self._attributes(), self.delta, self.slack)

    def _derive(self, item: StreamTuple) -> Optional[float]:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Online candidate admission (first stage of Figure 2.4)
    # ------------------------------------------------------------------
    def process(self, item: StreamTuple, ctx: FilterContext) -> None:
        value = self._derive(item)
        if value is None:
            return

        if self._phase is _Phase.SEED:
            # The first tuple is always a reference (the initial output).
            self._admit(item, value, ctx)
            ctx.mark_reference(item)
            self._ref_value = value
            self._phase = _Phase.POST_REF
            return

        if self._phase is _Phase.POST_REF:
            assert self._ref_value is not None
            if abs(value - self._ref_value) <= self.slack:
                self._admit(item, value, ctx)
                return
            # The vicinity ended: close this candidate set and continue
            # scanning from the new base with the same tuple.
            self._advance_base_on_close()
            ctx.close_set()
            self._phase = _Phase.PRE_REF
            self._tentative = []
            self._member_values = {}

        # PRE_REF: scanning for the next reference relative to the base.
        assert self._base is not None
        distance = abs(value - self._base)
        if distance >= self.delta:
            self._admit(item, value, ctx)
            ctx.mark_reference(item)
            self._ref_value = value
            # Dismiss tentative members outside the realized vicinity.
            for tentative in self._tentative:
                if abs(self._member_values[tentative.seq] - value) > self.slack:
                    ctx.dismiss(tentative)
                    del self._member_values[tentative.seq]
            self._tentative = []
            self._phase = _Phase.POST_REF
        elif distance >= self.delta - self.slack:
            self._admit(item, value, ctx)
            self._tentative.append(item)
        else:
            # Contiguity with the upcoming reference is broken.
            self._dismiss_tentative(ctx)

    def _admit(self, item: StreamTuple, value: float, ctx: FilterContext) -> None:
        ctx.admit(item)
        self._member_values[item.seq] = value

    def _dismiss_tentative(self, ctx: FilterContext) -> None:
        for tentative in self._tentative:
            ctx.dismiss(tentative)
            self._member_values.pop(tentative.seq, None)
        self._tentative = []

    def _advance_base_on_close(self) -> None:
        """Stateless filters base the next set on the realized reference;
        stateful ones wait for :meth:`on_output_decided`."""
        if not self._stateful:
            self._base = self._ref_value
        self._ref_value = None

    # ------------------------------------------------------------------
    # Engine callbacks
    # ------------------------------------------------------------------
    def flush(self, ctx: FilterContext) -> None:
        if self._phase is _Phase.POST_REF:
            self._advance_base_on_close()
            ctx.close_set()
        elif self._phase is _Phase.PRE_REF:
            # No reference materialized: the application is owed nothing.
            self._dismiss_tentative(ctx)
            ctx.close_set()
        self._phase = _Phase.PRE_REF
        self._member_values = {}

    def on_force_close(self, ctx: FilterContext) -> None:
        """Timely cut (section 3.3).

        A post-reference set closes as-is; a pre-reference set only holds
        tentative members, which are dismissed so that every emitted set
        still corresponds to exactly one self-interested reference - the
        property behind "group-aware filtering with cuts should never
        perform worse than self-interested filtering".
        """
        if self._phase is _Phase.POST_REF:
            self._advance_base_on_close()
            ctx.close_set(cut=True)
            self._phase = _Phase.PRE_REF
            self._tentative = []
            self._member_values = {}
        elif self._phase is _Phase.PRE_REF:
            self._dismiss_tentative(ctx)

    def on_output_decided(self, chosen: Sequence[StreamTuple]) -> None:
        if self._stateful and chosen:
            self._base = self._member_values.get(
                chosen[-1].seq, self._base if self._base is not None else 0.0
            )
            self._member_values = {}

    # ------------------------------------------------------------------
    # Checkpoint
    # ------------------------------------------------------------------
    def state(self, ref: Callable[[StreamTuple], int]) -> list:
        """``[phase, base, reference value, tentative, member values]``,
        the member values as ``[seq, value, ...]``."""
        return [
            self._phase.value,
            self._base,
            self._ref_value,
            [ref(item) for item in self._tentative],
            list(chain.from_iterable(self._member_values.items())),
        ]

    def restore(self, state: list, tuples: Mapping[int, StreamTuple]) -> None:
        phase, self._base, self._ref_value, tentative, members = state
        self._phase = _Phase(phase)
        self._tentative = [tuples[seq] for seq in tentative]
        self._member_values = dict(zip(members[::2], members[1::2]))


class DeltaCompressionFilter(DeltaFilterBase):
    """DC1: delta compression on a single attribute (Table 5.1)."""

    state_update = "value"

    def __init__(
        self,
        name: str,
        attribute: str,
        delta: float,
        slack: float,
        stateful: bool = False,
    ):
        super().__init__(name, delta, slack, stateful=stateful)
        self.attribute = attribute

    def _attributes(self) -> tuple[str, ...]:
        return (self.attribute,)

    def _derive(self, item: StreamTuple) -> Optional[float]:
        return item.value(self.attribute)

    def make_self_interested(self) -> "SelfInterestedDelta":
        return SelfInterestedDelta(
            self.name, self.delta, lambda item: item.value(self.attribute)
        )


class StatefulDeltaCompressionFilter(DeltaCompressionFilter):
    """Stateful DC: candidate sets depend on previously chosen outputs.

    Figure 2.9: "an alternative semantics requires a candidate set to base
    its reference on the tuple chosen for output from the previous
    candidate set".  The engine decides its sets per-candidate-set even
    under the region algorithm (section 2.3.3).
    """

    def __init__(self, name: str, attribute: str, delta: float, slack: float):
        super().__init__(name, attribute, delta, slack, stateful=True)


class SelfInterestedDelta:
    """Uncoordinated DC baseline: outputs reference tuples immediately."""

    def __init__(
        self,
        name: str,
        delta: float,
        derive: Callable[[StreamTuple], Optional[float]],
    ):
        self.name = name
        self.delta = delta
        self._derive = derive
        self._base: Optional[float] = None

    def process(self, item: StreamTuple) -> list[StreamTuple]:
        value = self._derive(item)
        if value is None:
            return []
        if self._base is None or abs(value - self._base) >= self.delta:
            self._base = value
            return [item]
        return []

    def flush(self) -> list[StreamTuple]:
        return []
