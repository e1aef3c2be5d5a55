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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from repro.core.tuples import StreamTuple

__all__ = ["EXECUTORS", "EngineConfig", "GroupTask"]

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
