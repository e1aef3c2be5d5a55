"""Filter abstract base class and the Chapter-5 taxonomy.

Figure 5.1 classifies group-aware filters along three dimensions:

* **candidate computation** - which attributes are read, how internal
  state is updated, and the threshold (distance or membership) function
  that admits candidates;
* **output selection** - how many tuples to pick from each candidate set
  (degree of candidacy, in tuples or percent) and the prescriptive
  function (random / top / bottom);
* **dependency of candidate sets** - whether the next candidate set is
  based on reference tuples (stateless) or on previously chosen outputs
  (stateful, Figure 2.9).

Every concrete filter carries a :class:`FilterTaxonomy` describing where
it sits, and implements the small online protocol the engine drives
(section 2.2.2's required properties of group-aware filters).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Hashable, Mapping, Optional, Sequence

from repro.core.tuples import StreamTuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.core.engine import FilterContext, SelfInterestedFilterProtocol

__all__ = [
    "CandidateComputation",
    "OutputSelection",
    "DependencySpec",
    "FilterTaxonomy",
    "GroupAwareFilter",
]

_PRESCRIPTIONS = ("random", "top", "bottom")
_UNITS = ("tuple", "percent")


@dataclass(frozen=True)
class CandidateComputation:
    """First taxonomy dimension: how candidates are computed."""

    attributes: tuple[str, ...]
    state_update: str = "value"
    threshold: str = "absolute-distance"


@dataclass(frozen=True)
class OutputSelection:
    """Second taxonomy dimension: how outputs are chosen from a set."""

    quantity: float = 1.0
    unit: str = "tuple"
    prescription: str = "random"

    def __post_init__(self) -> None:
        if self.unit not in _UNITS:
            raise ValueError(f"unit must be one of {_UNITS}, got {self.unit!r}")
        if self.prescription not in _PRESCRIPTIONS:
            raise ValueError(
                f"prescription must be one of {_PRESCRIPTIONS}, got {self.prescription!r}"
            )
        if self.quantity <= 0:
            raise ValueError("quantity must be positive")

    def degree_for(self, set_size: int) -> int:
        """Number of tuples to select from a set of ``set_size`` members."""
        if self.unit == "tuple":
            return max(1, min(set_size, int(self.quantity)))
        return max(1, min(set_size, round(self.quantity / 100.0 * set_size)))


@dataclass(frozen=True)
class DependencySpec:
    """Third taxonomy dimension: dependency between candidate sets."""

    stateful: bool = False
    dependent_state: str = "reference-tuples"


@dataclass(frozen=True)
class FilterTaxonomy:
    """A filter's position in the Figure 5.1 taxonomy."""

    candidate_computation: CandidateComputation
    output_selection: OutputSelection = field(default_factory=OutputSelection)
    dependency: DependencySpec = field(default_factory=DependencySpec)


class GroupAwareFilter(ABC):
    """Base class for all group-aware data-selection filters.

    Required properties (section 2.2.2): filters do data selection only;
    candidates of an output are all chosen before the next output's; a
    filter can finish choosing candidates when asked (cuts); candidate
    sets are computed online and may be adjusted before closing.
    """

    def __init__(self, name: str):
        if not name:
            raise ValueError("filter name must be non-empty")
        self.name = name

    # -- classification -------------------------------------------------
    @property
    @abstractmethod
    def taxonomy(self) -> FilterTaxonomy:
        """The filter's position in the Chapter-5 taxonomy."""

    @property
    def stateful(self) -> bool:
        return self.taxonomy.dependency.stateful

    def sharing_key(self) -> Optional[Hashable]:
        """Identity of this filter's first stage, or ``None`` (the default).

        Two unused filters with equal keys promise identical candidate
        sets, tuple for tuple, on any input, so the engine evaluates one
        of them on behalf of both.  Only a filter whose admissions are a
        deterministic function of its parameters and the input may
        return a key: no dependence on decided outputs
        (:meth:`on_output_decided`), no per-instance randomness.  The
        key must cover every parameter that shapes admission - a
        subclass that adds one overrides this - and conventionally
        starts with the concrete class.
        """
        return None

    # -- online protocol -------------------------------------------------
    @abstractmethod
    def process(self, item: StreamTuple, ctx: "FilterContext") -> None:
        """Admit/dismiss candidates for one arriving tuple."""

    @abstractmethod
    def flush(self, ctx: "FilterContext") -> None:
        """End of stream: settle the open candidate set."""

    def on_force_close(self, ctx: "FilterContext") -> None:
        """Timely cut: close the open candidate set immediately.

        The default closes whatever has been admitted.  Filters with
        tentative (pre-reference) members override this to dismiss them
        instead, preserving the one-output-per-reference correspondence
        that keeps cuts "never worse than self-interested filtering"
        (section 3.3).
        """
        ctx.close_set(cut=True)

    def on_output_decided(self, chosen: Sequence[StreamTuple]) -> None:
        """Decider callback; stateful filters update their base here."""

    # -- checkpoint ------------------------------------------------------
    def state(self, ref: Callable[[StreamTuple], int]) -> list:
        """What this filter carries from one arrival to the next, as
        plain data for :meth:`GroupAwareEngine.checkpoint`; every tuple
        goes through ``ref``, which records it and returns its seq."""
        raise NotImplementedError(f"{type(self).__name__} has no checkpoint state")

    def restore(self, state: list, tuples: Mapping[int, StreamTuple]) -> None:
        """Resume from :meth:`state`; ``tuples`` maps seqs back."""
        raise NotImplementedError(f"{type(self).__name__} has no checkpoint state")

    @abstractmethod
    def make_self_interested(self) -> "SelfInterestedFilterProtocol":
        """A fresh uncoordinated counterpart (the paper's SI baseline)."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"
