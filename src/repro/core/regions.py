"""Region-based segmentation of the candidate-set stream.

Definitions 2-5 of the paper: candidate sets whose time covers intersect
are *connected*; connectivity is transitive; a *region* is a maximal
family of mutually connected candidate sets.  Axiom 2 shows regions'
time covers do not intersect, and Theorems 2-3 show that solving the
hitting-set problem per region preserves both optimality and the
approximation ratio of heuristics.

:class:`RegionTracker` detects region closure online.  A region is ready
to be solved once every candidate set in its connected component is
closed and no still-open candidate set can join the component.  Because
tuples arrive in strict timestamp order, an open set can only extend to
*later* timestamps, so a component whose sets are all closed and whose
cover ends before the earliest open set's cover is final.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.core.candidates import CandidateSet, TimeCover, TupleInterner

__all__ = ["Region", "RegionTracker"]

_region_ids = itertools.count()


@dataclass
class Region:
    """A maximal family of connected candidate sets (Definition 4)."""

    sets: list[CandidateSet]
    cut: bool = False
    region_id: int = field(default_factory=lambda: next(_region_ids))

    @property
    def time_cover(self) -> TimeCover:
        """Union of the member sets' time covers (Definition 5)."""
        covers = [s.time_cover for s in self.sets if s.time_cover is not None]
        if not covers:
            raise ValueError("region has no tuples")
        cover = covers[0]
        for other in covers[1:]:
            cover = cover.union(other)
        return cover

    @property
    def tuple_seqs(self) -> set[int]:
        seqs: set[int] = set()
        for candidate_set in self.sets:
            seqs.update(candidate_set.seqs)
        return seqs

    @property
    def size(self) -> int:
        """Number of distinct tuples covered by the region."""
        return len(self.tuple_seqs)

    def __len__(self) -> int:
        return len(self.sets)


class RegionTracker:
    """Online detection of closed regions.

    Candidate sets register as soon as they hold at least one tuple, are
    updated in place by their filters, and are marked closed by the
    engine.  :meth:`poll` sweeps the active sets (sorted by cover start)
    into connected components and returns every component that is final.
    """

    def __init__(self) -> None:
        self._active: dict[int, CandidateSet] = {}
        self.regions_emitted = 0
        self.regions_cut = 0

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def watch(self, candidate_set: CandidateSet) -> None:
        self._active[candidate_set.set_id] = candidate_set

    def discard(self, candidate_set: CandidateSet) -> None:
        self._active.pop(candidate_set.set_id, None)

    def watched(self) -> list[CandidateSet]:
        """Every watched set in watch order, the order :meth:`poll`
        keeps between sets whose covers start together."""
        return list(self._active.values())

    # ------------------------------------------------------------------
    # Checkpoint
    # ------------------------------------------------------------------
    def state(self) -> list:
        """The region counters; the engine records the sets themselves."""
        return [self.regions_emitted, self.regions_cut]

    def restore(self, state: list, watched: Iterable[CandidateSet]) -> None:
        """Counters from :meth:`state`, ``watched`` in watch order."""
        self.regions_emitted, self.regions_cut = state
        self._active = {s.set_id: s for s in watched}

    # ------------------------------------------------------------------
    # Queries used by the cut machinery
    # ------------------------------------------------------------------
    def active_sets(self) -> list[CandidateSet]:
        return [s for s in self._active.values() if len(s) > 0]

    def active_span(self, now: float) -> float:
        """Elapsed time since the oldest un-emitted tuple arrived.

        This is the ``getRegionSpan`` used by the timely-cut test
        (Figure 3.3, line 8).
        """
        oldest: Optional[float] = None
        for candidate_set in self._active.values():
            cover = candidate_set.time_cover
            if cover is not None and (oldest is None or cover.min_ts < oldest):
                oldest = cover.min_ts
        if oldest is None:
            return 0.0
        return now - oldest

    def active_tuple_count(self, interner: Optional[TupleInterner] = None) -> int:
        """Distinct tuples across the active sets.

        With an ``interner`` the count is one OR/popcount over the sets'
        cached membership bitsets (see ``CandidateSet.member_mask``) —
        the timely-cut test calls this on *every* arrival, so the
        set-union fallback's per-call allocation is the difference
        between O(live tuples) and O(active sets) on the hot path.
        """
        if interner is not None:
            mask = 0
            for candidate_set in self._active.values():
                mask |= candidate_set.member_mask(interner)
            return mask.bit_count()
        seqs: set[int] = set()
        for candidate_set in self._active.values():
            seqs.update(candidate_set.seqs)
        return len(seqs)

    def has_open_sets(self) -> bool:
        return any(not s.closed for s in self._active.values() if len(s) > 0)

    def contains_tuple(self, seq: int) -> bool:
        """Is ``seq`` still a member of any active set?

        The engine uses this to recycle a dismissed tuple's interner bit
        the moment no live set references it (region closure handles the
        common case; this handles tuples dismissed before ever reaching
        a closed region)."""
        return any(s.contains_seq(seq) for s in self._active.values())

    # ------------------------------------------------------------------
    # Region closure
    # ------------------------------------------------------------------
    def poll(self, now: float, final: bool = False, cut: bool = False) -> list[Region]:
        """Return every region that is now final, removing its sets.

        ``final`` forces all components out (end-of-stream flush); the
        caller must have closed every open set first.  ``cut`` marks the
        returned regions as produced by a timely cut, for the
        percent-of-regions-cut metric (Figure 4.11).
        """
        # This sweep runs on *every* arrival and tick.  Covers are read
        # once per set (they are cached on the set, but the property call
        # itself shows up at this call rate), and when no populated set
        # is closed there is nothing to emit — skip the sort and the
        # component build entirely, which is the common case between
        # set closures.
        populated: list[tuple[CandidateSet, TimeCover]] = []
        any_closed = False
        stale: Optional[list[CandidateSet]] = None
        for s in self._active.values():
            if len(s) > 0:
                populated.append((s, s.time_cover))  # type: ignore[arg-type]
                any_closed = any_closed or s.closed
            elif s.closed:
                # Empty closed sets (all tuples dismissed) carry no
                # information; purge them on every exit path so they
                # never linger in the per-arrival scans.
                if stale is None:
                    stale = []
                stale.append(s)
        if stale:
            for s in stale:
                self.discard(s)
        if not populated:
            return []
        if not any_closed:
            return []
        populated.sort(key=lambda pair: pair[1].min_ts)

        components: list[list[tuple[CandidateSet, TimeCover]]] = []
        current = [populated[0]]
        current_max = populated[0][1].max_ts
        for pair in populated[1:]:
            cover = pair[1]
            if cover.min_ts <= current_max:
                current.append(pair)
                if cover.max_ts > current_max:
                    current_max = cover.max_ts
            else:
                components.append(current)
                current = [pair]
                current_max = cover.max_ts
        components.append(current)

        closed_regions: list[Region] = []
        for component in components:
            if not all(s.closed for s, _ in component):
                continue
            component_max = max(cover.max_ts for _, cover in component)
            if not final and component_max >= now:
                # A tuple arriving right now could still connect; wait.
                continue
            sets = [s for s, _ in component]
            region = Region(sets=sets, cut=cut or any(s.cut for s in sets))
            closed_regions.append(region)
            for candidate_set in sets:
                self.discard(candidate_set)

        self.regions_emitted += len(closed_regions)
        self.regions_cut += sum(1 for region in closed_regions if region.cut)
        return closed_regions

    @staticmethod
    def partition(sets: Iterable[CandidateSet]) -> list[list[CandidateSet]]:
        """Offline partition of candidate sets into regions (for tests).

        Implements Definitions 2-4 directly over a finished collection.
        """
        populated = sorted(
            (s for s in sets if len(s) > 0),
            key=lambda s: s.time_cover.min_ts,  # type: ignore[union-attr]
        )
        if not populated:
            return []
        components: list[list[CandidateSet]] = [[populated[0]]]
        current_max = populated[0].time_cover.max_ts  # type: ignore[union-attr]
        for candidate_set in populated[1:]:
            cover = candidate_set.time_cover
            assert cover is not None
            if cover.min_ts <= current_max:
                components[-1].append(candidate_set)
                current_max = max(current_max, cover.max_ts)
            else:
                components.append([candidate_set])
                current_max = cover.max_ts
        return components
