"""Candidate sets and time covers.

A *candidate set* (section 2.2.3) contains the tuples that are equivalent
in quality for one output of a filter: "Choosing any tuples from the
candidate set corresponding to a reference tuple would be quality
equivalent to choosing the corresponding reference tuple for the output."

A *time cover* (Definition 1) is the timestamp interval spanned by a
candidate set.  Axiom 1 requires that the time covers of one group's
candidate sets produced by a single filter do not intersect, which for
delta-compression filters is guaranteed by ``slack < delta / 2``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Optional

from repro.core.tuples import StreamTuple

__all__ = ["TimeCover", "TupleInterner", "CandidateSet", "reserve_set_ids"]

_set_ids = itertools.count()


def reserve_set_ids(count: int) -> int:
    """Reserve ``count`` consecutive fresh candidate-set ids and return
    the first: a restored engine renumbers its sets into them, keeping
    their order, whatever ``count`` an image claims."""
    global _set_ids
    if not isinstance(count, int) or count < 0:
        raise ValueError(f"cannot reserve {count!r} set ids")
    first = next(_set_ids)
    _set_ids = itertools.count(first + count)
    return first


class TupleInterner:
    """Dense bit indices for tuple sequence numbers.

    Candidate-set membership is represented as integer bitsets: each
    distinct tuple ``seq`` is interned to a small bit index, and a set of
    tuples becomes an ``int`` whose set bits are the interned indices.
    Set algebra (intersection, counting shared members) then compiles to
    ``&`` and ``int.bit_count`` instead of per-tuple ``set`` operations.

    Indices are recycled: :meth:`release` returns the slots of forgotten
    tuples to a free list, so on an infinite stream the bit width of the
    masks stays proportional to the number of *live* tuples (the tuples
    of still-unsolved regions), not to the stream length.
    """

    __slots__ = ("_id_of_seq", "_seq_at", "_free")

    def __init__(self) -> None:
        self._id_of_seq: dict[int, int] = {}
        self._seq_at: dict[int, int] = {}
        self._free: list[int] = []

    def intern(self, seq: int) -> int:
        """Return the bit index for ``seq``, assigning one if needed."""
        bit = self._id_of_seq.get(seq)
        if bit is None:
            bit = self._free.pop() if self._free else len(self._id_of_seq)
            self._id_of_seq[seq] = bit
            self._seq_at[bit] = seq
        return bit

    def bit_of(self, seq: int) -> Optional[int]:
        """The bit index already assigned to ``seq``, or ``None``."""
        return self._id_of_seq.get(seq)

    def seq_at(self, bit: int) -> int:
        """Inverse lookup: the sequence number interned at ``bit``."""
        return self._seq_at[bit]

    def release(self, seqs: Iterable[int]) -> None:
        """Recycle the slots of tuples that no longer appear in any set."""
        for seq in seqs:
            bit = self._id_of_seq.pop(seq, None)
            if bit is not None:
                del self._seq_at[bit]
                self._free.append(bit)

    def __len__(self) -> int:
        return len(self._id_of_seq)


@dataclass(frozen=True)
class TimeCover:
    """Closed timestamp interval ``[min_ts, max_ts]`` (Definition 1)."""

    min_ts: float
    max_ts: float

    def intersects(self, other: "TimeCover") -> bool:
        """True when the two intervals overlap (Definition 2's "connected")."""
        return self.min_ts <= other.max_ts and other.min_ts <= self.max_ts

    def union(self, other: "TimeCover") -> "TimeCover":
        return TimeCover(min(self.min_ts, other.min_ts), max(self.max_ts, other.max_ts))

    @property
    def span(self) -> float:
        return self.max_ts - self.min_ts


class CandidateSet:
    """The set of quality-equivalent tuples for one output of one filter.

    The set is built online: tuples are admitted as they arrive, possibly
    dismissed later ("It is still possible for a filter to adjust the set
    of candidates for an output before moving on", section 2.2.2), and the
    set eventually *closes*, after which it is immutable.

    ``degree`` generalizes to the multi-degree hitting-set problem of
    Chapter 5 (Definition 6): the number of tuples that must be selected
    from this set.  Plain filters use degree 1.

    ``eligible`` optionally restricts which members may be chosen as
    output; it implements Chapter 5's "top"/"bottom" output prescriptions.
    When ``None``, every member is eligible.

    ``owners`` names every filter this set stands for.  A candidate set
    is a pure function of (filter spec, input), so filters with one
    shared first stage share one set; each owner is owed the set's
    output and the set weighs ``len(owners)`` in every group utility.
    """

    __slots__ = (
        "set_id",
        "filter_name",
        "owners",
        "_tuples",
        "closed",
        "reference",
        "degree",
        "_eligible",
        "cut",
        "_min_ts",
        "_max_ts",
        "_cover",
        "_cover_dirty",
        "_mask",
        "_mask_interner",
        "_mask_dirty",
    )

    def __init__(self, filter_name: str, owners: tuple[str, ...] = ()):
        self.set_id: int = next(_set_ids)
        self.filter_name = filter_name
        self.owners = owners or (filter_name,)
        #: Membership AND arrival order: dict insertion order is the
        #: arrival order, so no separate order list is kept (making
        #: ``remove`` O(1) instead of a ``list.remove`` scan).
        self._tuples: dict[int, StreamTuple] = {}
        self.closed = False
        self.reference: Optional[StreamTuple] = None
        self.degree = 1
        self._eligible: Optional[frozenset[int]] = None
        self.cut = False
        # Incrementally maintained time cover (Definition 1).  ``add``
        # widens the bounds in O(1); ``remove`` of a boundary tuple
        # marks them dirty for a lazy recompute — the cover is read on
        # every region poll and cut test, while removals are rare
        # (filter dismissals only).
        self._min_ts = 0.0
        self._max_ts = 0.0
        self._cover: Optional[TimeCover] = None
        self._cover_dirty = False
        # Cached membership bitset over one interner's indices, updated
        # incrementally on add/remove once built (see member_mask).
        self._mask = 0
        self._mask_interner: Optional[TupleInterner] = None
        self._mask_dirty = False

    # ------------------------------------------------------------------
    # Mutation (only while open)
    # ------------------------------------------------------------------
    def add(self, item: StreamTuple) -> bool:
        """Admit ``item``; returns whether it was newly added."""
        if self.closed:
            raise RuntimeError(f"candidate set {self.set_id} is closed")
        if item.seq in self._tuples:
            return False
        if not self._tuples:
            self._min_ts = self._max_ts = item.timestamp
            self._cover = None
        else:
            if item.timestamp < self._min_ts:
                self._min_ts = item.timestamp
                self._cover = None
            if item.timestamp > self._max_ts:
                self._max_ts = item.timestamp
                self._cover = None
        self._tuples[item.seq] = item
        if self._mask_interner is not None:
            self._mask |= 1 << self._mask_interner.intern(item.seq)
        return True

    def remove(self, item: StreamTuple) -> None:
        if self.closed:
            raise RuntimeError(f"candidate set {self.set_id} is closed")
        removed = self._tuples.pop(item.seq, None)
        if removed is None:
            return
        if removed.timestamp in (self._min_ts, self._max_ts):
            self._cover_dirty = True
            self._cover = None
        if self._mask_interner is not None:
            bit = self._mask_interner.bit_of(item.seq)
            if bit is None:
                self._mask_dirty = True
            else:
                self._mask &= ~(1 << bit)

    def close(self, cut: bool = False) -> None:
        self.closed = True
        self.cut = cut

    def restrict_eligible(self, members: Iterable[StreamTuple]) -> None:
        """Limit output selection to ``members`` (top/bottom prescriptions)."""
        eligible = frozenset(t.seq for t in members)
        unknown = eligible - self._tuples.keys()
        if unknown:
            raise ValueError(f"eligible tuples {sorted(unknown)} are not members")
        self._eligible = eligible

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __contains__(self, item: StreamTuple) -> bool:
        return item.seq in self._tuples

    def contains_seq(self, seq: int) -> bool:
        return seq in self._tuples

    def __len__(self) -> int:
        return len(self._tuples)

    @property
    def tuples(self) -> list[StreamTuple]:
        """Members in arrival order."""
        return list(self._tuples.values())

    @property
    def seqs(self) -> list[int]:
        return list(self._tuples)

    def is_eligible(self, item: StreamTuple) -> bool:
        if item.seq not in self._tuples:
            return False
        return self._eligible is None or item.seq in self._eligible

    @property
    def eligible_tuples(self) -> list[StreamTuple]:
        if self._eligible is None:
            return self.tuples
        return [t for seq, t in self._tuples.items() if seq in self._eligible]

    def tuple_for(self, seq: int) -> StreamTuple:
        """The member tuple with sequence number ``seq``."""
        return self._tuples[seq]

    def member_mask(self, interner: TupleInterner) -> int:
        """Membership as an integer bitset over ``interner``'s indices.

        The first call over a given interner builds the mask; later
        calls return the incrementally maintained cache (``add`` ORs the
        new bit in, ``remove`` clears it), so per-poll consumers like
        :meth:`RegionTracker.active_tuple_count` pay O(1) per set
        instead of re-interning every member.
        """
        if self._mask_interner is interner and not self._mask_dirty:
            return self._mask
        mask = 0
        for seq in self._tuples:
            mask |= 1 << interner.intern(seq)
        self._mask = mask
        self._mask_interner = interner
        self._mask_dirty = False
        return mask

    def eligible_mask(self, interner: TupleInterner) -> int:
        """Eligible membership as an integer bitset (output candidates)."""
        if self._eligible is None:
            return self.member_mask(interner)
        mask = 0
        for seq in self._tuples:
            if seq in self._eligible:
                mask |= 1 << interner.intern(seq)
        return mask

    @property
    def time_cover(self) -> Optional[TimeCover]:
        """The set's time cover, or ``None`` while empty (Definition 1).

        Cached: bounds are widened incrementally by ``add`` and only
        recomputed after a ``remove`` evicted a boundary tuple."""
        if not self._tuples:
            return None
        if self._cover_dirty:
            timestamps = [t.timestamp for t in self._tuples.values()]
            self._min_ts = min(timestamps)
            self._max_ts = max(timestamps)
            self._cover_dirty = False
            self._cover = None
        if self._cover is None:
            self._cover = TimeCover(self._min_ts, self._max_ts)
        return self._cover

    def connected(self, other: "CandidateSet") -> bool:
        """Definition 2: candidate sets with intersecting time covers."""
        mine, theirs = self.time_cover, other.time_cover
        if mine is None or theirs is None:
            return False
        return mine.intersects(theirs)

    # ------------------------------------------------------------------
    # Checkpoint
    # ------------------------------------------------------------------
    def state(self, ref: Callable[[StreamTuple], int]) -> list:
        """``[members, reference, degree, eligible, closed, cut]``:
        members are seqs in arrival order, and every tuple goes through
        ``ref``, which records it and returns its seq.  The membership
        bitset is an index over one interner; the restored set builds
        its own."""
        return [
            [ref(item) for item in self._tuples.values()],
            None if self.reference is None else ref(self.reference),
            self.degree,
            None if self._eligible is None else sorted(self._eligible),
            self.closed,
            self.cut,
        ]

    @classmethod
    def from_state(
        cls,
        state: list,
        tuples: Mapping[int, StreamTuple],
        *,
        set_id: int,
        filter_name: str,
        owners: tuple[str, ...],
    ) -> "CandidateSet":
        """The set :meth:`state` recorded, under id ``set_id``."""
        members, reference, degree, eligible, closed, cut = state
        restored = cls(filter_name, owners)
        restored.set_id = set_id
        for seq in members:
            restored.add(tuples[seq])
        if reference is not None:
            restored.reference = tuples[reference]
        restored.degree = int(degree)
        if eligible is not None:
            restored._eligible = frozenset(eligible)
        restored.closed = bool(closed)
        restored.cut = bool(cut)
        return restored

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self.closed else "open"
        return (
            f"CandidateSet(id={self.set_id}, filter={self.filter_name!r}, "
            f"n={len(self)}, degree={self.degree}, {state})"
        )
