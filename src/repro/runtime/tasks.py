"""Task model for the sharded runtime.

A :class:`GroupTask` is the unit of placement: one filter group (given as
spec strings, see :mod:`repro.filters.spec`), one engine configuration
and one time-ordered stream, identified by a *group key*.  Groups are
independent by construction — the paper's coordination state (group
utility, regions, decided outputs) is scoped to one group sharing one
data source — so tasks can run on any shard, in any process, and produce
the same :class:`~repro.core.engine.EngineResult` as a sequential run.

Tasks serialize to plain tuples (:meth:`GroupTask.to_payload`) so worker
processes receive cheap, version-stable payloads instead of pickled
filter objects; filters are re-parsed from their specs inside the worker.
:func:`engine_from_config` builds the engine an :class:`EngineConfig`
describes, for a task and for the live broker alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence, Union

from repro.core.cuts import TimeConstraint
from repro.core.engine import GroupAwareEngine, SelfInterestedEngine
from repro.core.output import BatchedOutput, PerCandidateSetOutput, RegionOutput
from repro.core.tuples import StreamTuple
from repro.filters.base import GroupAwareFilter

__all__ = ["EXECUTORS", "EngineConfig", "GroupTask", "engine_from_config"]

#: Shard executors (:mod:`repro.runtime.sharded` describes each); named
#: here so a command line can offer the choice without loading them.
EXECUTORS = ("process", "thread", "serial")

_ALGORITHMS = ("region", "per_candidate_set", "self_interested")
_OUTPUTS = ("region", "pcs", "batched")


@dataclass(frozen=True)
class EngineConfig:
    """Portable engine configuration (mirrors Table 4.2 variants).

    ``constraint_ms`` enables timely cuts when not ``None``; ``output``
    selects the section-3.4 output strategy.  The self-interested
    baseline ignores both.
    """

    algorithm: str = "region"
    output: str = "region"
    batch_size: int = 100
    constraint_ms: Optional[float] = None

    def __post_init__(self) -> None:
        if self.algorithm not in _ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.output not in _OUTPUTS:
            raise ValueError(f"unknown output strategy {self.output!r}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")


def _make_strategy(config: EngineConfig):
    if config.output == "region":
        return RegionOutput()
    if config.output == "pcs":
        return PerCandidateSetOutput()
    return BatchedOutput(config.batch_size)


def engine_from_config(
    filters: Sequence[GroupAwareFilter],
    config: EngineConfig,
    *,
    record: bool = True,
) -> Union[GroupAwareEngine, SelfInterestedEngine]:
    """Fresh engine mirroring a portable config.

    The sharded runtime's tasks, the broker's epoch engines and any
    batch reference used to verify the service all come through here:
    algorithm, output strategy and time constraint all shape decided
    outputs, so every side has to agree on every knob.  ``record`` is
    not such a knob: it only says whether a group-aware engine keeps its
    per-tuple log (see :class:`~repro.core.engine.GroupAwareEngine`),
    never what it decides.
    """
    if config.algorithm == "self_interested":
        return SelfInterestedEngine(filters)
    constraint: Optional[TimeConstraint] = None
    if config.constraint_ms is not None:
        constraint = TimeConstraint(config.constraint_ms)
    return GroupAwareEngine(
        list(filters),
        algorithm=config.algorithm,
        output_strategy=_make_strategy(config),
        time_constraint=constraint,
        record=record,
    )


@dataclass(frozen=True)
class GroupTask:
    """One filter group plus its stream, ready to run on any shard."""

    key: str
    specs: tuple[str, ...]
    tuples: tuple[StreamTuple, ...]
    config: EngineConfig = field(default_factory=EngineConfig)

    @classmethod
    def build(
        cls,
        key: str,
        specs: Sequence[str],
        stream: Iterable[StreamTuple],
        config: Optional[EngineConfig] = None,
    ) -> "GroupTask":
        return cls(
            key=key,
            specs=tuple(specs),
            tuples=tuple(stream),
            config=config if config is not None else EngineConfig(),
        )

    def to_payload(self) -> tuple:
        """Flatten to plain builtins for cheap cross-process transfer."""
        rows = tuple(
            (item.seq, item.timestamp, tuple(item.values.items()))
            for item in self.tuples
        )
        cfg = self.config
        return (
            self.key,
            self.specs,
            cfg.algorithm,
            cfg.output,
            cfg.batch_size,
            cfg.constraint_ms,
            rows,
        )

    @staticmethod
    def from_payload(payload: tuple) -> "GroupTask":
        key, specs, algorithm, output, batch_size, constraint_ms, rows = payload
        config = EngineConfig(
            algorithm=algorithm,
            output=output,
            batch_size=batch_size,
            constraint_ms=constraint_ms,
        )
        tuples = tuple(
            StreamTuple(seq=seq, timestamp=ts, values=dict(values))
            for seq, ts, values in rows
        )
        return GroupTask(key=key, specs=tuple(specs), tuples=tuples, config=config)
