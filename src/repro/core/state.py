"""Global coordination state shared by a group of filters.

The paper's algorithms coordinate through a ``globalState`` object whose
main contents are "1) the group utility of each tuple, which counts the
number of filters that have included the tuple in their candidate set, and
2) the current region that keeps track of the connected candidate sets"
(section 2.3.3).  The per-candidate-set algorithm additionally tracks the
outputs already decided by other filters ("group state keeps track of the
tuples chosen by each filter").
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Optional, Sequence

from repro.core.tuples import StreamTuple

__all__ = ["GroupUtility", "DecidedOutputs"]


class GroupUtility:
    """Per-tuple count of candidate sets that currently include the tuple.

    A set shared by several filters counts once per owner (``weight``),
    exactly as the owners' separate, identical sets would.

    Ties between equal-utility tuples are broken by "the latest time stamp
    to favor time freshness" (section 2.3.3); :meth:`best` implements that
    ordering.
    """

    def __init__(self) -> None:
        self._counts: dict[int, int] = {}

    def increment(self, item: StreamTuple, weight: int = 1) -> None:
        self._counts[item.seq] = self._counts.get(item.seq, 0) + weight

    def decrement(self, item: StreamTuple, weight: int = 1) -> None:
        count = self._counts.get(item.seq)
        if count is None:
            raise KeyError(f"tuple {item.seq} has no utility entry")
        if count <= weight:
            del self._counts[item.seq]
        else:
            self._counts[item.seq] = count - weight

    def get(self, item: StreamTuple) -> int:
        return self._counts.get(item.seq, 0)

    def get_seq(self, seq: int) -> int:
        return self._counts.get(seq, 0)

    def forget(self, seqs: Iterable[int]) -> None:
        """Drop bookkeeping for tuples whose region has been solved."""
        for seq in seqs:
            self._counts.pop(seq, None)

    def best(self, candidates: Sequence[StreamTuple]) -> Optional[StreamTuple]:
        """Highest-utility tuple among ``candidates``; ties favour freshness."""
        chosen: Optional[StreamTuple] = None
        chosen_key: tuple[int, float, int] | None = None
        for item in candidates:
            key = (self.get(item), item.timestamp, item.seq)
            if chosen_key is None or key > chosen_key:
                chosen = item
                chosen_key = key
        return chosen

    def __len__(self) -> int:
        return len(self._counts)

    def snapshot(self) -> dict[int, int]:
        """Copy of the current counts (used by tests and the debugger)."""
        return dict(self._counts)

    def state(self) -> list:
        """``[seq, count, seq, count, ...]`` in insertion order."""
        return list(chain.from_iterable(self._counts.items()))

    def restore(self, state: list) -> None:
        self._counts = dict(zip(state[::2], state[1::2]))


class DecidedOutputs:
    """Tuples already chosen for output, and by which filters.

    Supports the per-candidate-set algorithm's first heuristic: "choose the
    tuple that has been chosen by other filters" (section 2.3.3).  Entries
    are purged once the region containing them has been fully emitted, so
    the structure stays bounded on infinite streams.
    """

    def __init__(self) -> None:
        self._choosers: dict[int, set[str]] = {}

    def record(self, item: StreamTuple, *filter_names: str) -> None:
        self._choosers.setdefault(item.seq, set()).update(filter_names)

    def chosen_by_others(
        self, candidates: Sequence[StreamTuple], filter_name: str
    ) -> list[StreamTuple]:
        """Members of ``candidates`` already chosen by a different filter."""
        result = []
        for item in candidates:
            choosers = self._choosers.get(item.seq)
            if choosers and choosers != {filter_name}:
                result.append(item)
        return result

    def choosers(self, item: StreamTuple) -> frozenset[str]:
        return frozenset(self._choosers.get(item.seq, ()))

    def forget(self, seqs: Iterable[int]) -> None:
        for seq in seqs:
            self._choosers.pop(seq, None)

    def state(self) -> list:
        """``[seq, [filter, ...], ...]`` in insertion order."""
        return list(
            chain.from_iterable(
                (seq, sorted(names)) for seq, names in self._choosers.items()
            )
        )

    def restore(self, state: list) -> None:
        self._choosers = {
            seq: set(names) for seq, names in zip(state[::2], state[1::2])
        }

    def __len__(self) -> int:
        return len(self._choosers)

    def __contains__(self, item: StreamTuple) -> bool:
        return item.seq in self._choosers
