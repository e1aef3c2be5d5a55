"""Independent quality validation of group-aware filtering output.

Data quality for filtering (section 2.1) means *accuracy* (no value
tampering - guaranteed by construction, filters only select), *data
granularity* (every delivered tuple is quality-equivalent to a reference
output) and *completeness* (every candidate set contributes its required
degree of outputs).  This module checks granularity and completeness from
scratch: it replays the trace through a fresh filter instance using a
recording context, reconstructs the candidate sets, and verifies the
delivered per-application output against them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from repro.core.candidates import CandidateSet
from repro.core.tuples import StreamTuple
from repro.filters.base import GroupAwareFilter

__all__ = ["RecordingContext", "replay_candidate_sets", "validate_outputs", "QualityReport"]


class RecordingContext:
    """Stand-in for the engine's FilterContext that only records sets."""

    def __init__(self, flt: GroupAwareFilter):
        self.filter = flt
        self._current: CandidateSet | None = None
        self.closed_sets: list[CandidateSet] = []

    @property
    def current_set(self) -> CandidateSet | None:
        return self._current

    def admit(self, item: StreamTuple) -> None:
        if self._current is None or self._current.closed:
            self._current = CandidateSet(self.filter.name)
        if item not in self._current:
            self._current.add(item)

    def dismiss(self, item: StreamTuple) -> None:
        if self._current is not None and item in self._current:
            self._current.remove(item)

    def mark_reference(self, item: StreamTuple) -> None:
        if self._current is None or item not in self._current:
            raise ValueError("reference tuple must be an admitted candidate")
        self._current.reference = item

    def set_degree(self, degree: int) -> None:
        if self._current is None:
            raise ValueError("no open candidate set")
        self._current.degree = degree

    def restrict_eligible(self, members: Iterable[StreamTuple]) -> None:
        if self._current is None:
            raise ValueError("no open candidate set")
        self._current.restrict_eligible(members)

    def close_set(self, cut: bool = False) -> None:
        if self._current is None:
            return
        if len(self._current) == 0:
            self._current = None
            return
        self._current.close(cut=cut)
        self.closed_sets.append(self._current)
        self._current = None
        # Stateful replay: pretend the reference itself was chosen.
        last = self.closed_sets[-1]
        reference = last.reference if last.reference is not None else last.tuples[-1]
        self.filter.on_output_decided([reference])

    def has_open_candidates(self) -> bool:
        return self._current is not None and len(self._current) > 0


def replay_candidate_sets(
    filter_factory: Callable[[], GroupAwareFilter],
    trace: Iterable[StreamTuple],
) -> list[CandidateSet]:
    """Reconstruct the candidate sets a fresh filter produces on ``trace``.

    Valid for stateless filters (whose candidate sets are independent of
    the decider's choices); stateful replay assumes reference outputs.
    """
    flt = filter_factory()
    ctx = RecordingContext(flt)
    for item in trace:
        flt.process(item, ctx)  # type: ignore[arg-type]
    flt.flush(ctx)  # type: ignore[arg-type]
    return ctx.closed_sets


@dataclass
class QualityReport:
    """Outcome of validating one application's delivered output."""

    candidate_sets: int = 0
    satisfied_sets: int = 0
    foreign_tuples: list[int] = field(default_factory=list)
    unsatisfied_sets: list[int] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        """Every candidate set received its required degree of outputs."""
        return not self.unsatisfied_sets

    @property
    def granular(self) -> bool:
        """Every delivered tuple belongs to some candidate set."""
        return not self.foreign_tuples

    @property
    def ok(self) -> bool:
        return self.complete and self.granular


def validate_outputs(
    candidate_sets: Sequence[CandidateSet],
    outputs: Sequence[StreamTuple],
) -> QualityReport:
    """Check delivered ``outputs`` against reconstructed candidate sets.

    Granularity: each output tuple must be an eligible member of at least
    one candidate set (it is quality-equivalent to that set's reference).
    Completeness: each candidate set must contain at least
    ``min(degree, |eligible|)`` delivered tuples.
    """
    report = QualityReport(candidate_sets=len(candidate_sets))
    delivered = {item.seq for item in outputs}
    member_of_any: set[int] = set()
    for candidate_set in candidate_sets:
        eligible = candidate_set.eligible_tuples
        member_of_any.update(item.seq for item in eligible)
        required = min(candidate_set.degree, len(eligible))
        got = sum(1 for item in eligible if item.seq in delivered)
        if got >= required:
            report.satisfied_sets += 1
        else:
            report.unsatisfied_sets.append(candidate_set.set_id)
    report.foreign_tuples = sorted(delivered - member_of_any)
    return report
