"""Shared experiment harness: algorithm variants and group runs.

Table 4.2 names the algorithm variants compared throughout Chapter 4
(SI, RG, RG+C, PS, PS+C, plus output-strategy suffixes).  This module
maps those names to engine configurations and runs a filter group under
each, with fresh filter instances per run so state never leaks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.core.engine import EngineResult
from repro.core.tuples import Trace
from repro.runtime.sharded import ShardedRuntime
from repro.runtime.tasks import EXECUTORS as _EXECUTORS
from repro.runtime.tasks import EngineConfig, GroupTask
from repro.runtime.worker import run_task as run_worker_task

__all__ = [
    "Variant",
    "STANDARD_VARIANTS",
    "run_variant",
    "run_group",
    "GroupRun",
    "set_parallelism",
    "get_parallelism",
]

#: Default group time constraint for +C variants.  The paper "set the
#: group time constraint large enough so that few regions were cut" for
#: the headline comparison (section 4.4).
DEFAULT_CONSTRAINT_MS = 500.0

#: Session-wide parallelism defaults, set by the CLI's ``--shards`` /
#: ``--executor`` flags.  ``run_group`` consults these when the caller
#: does not pass ``shards`` explicitly, so every registered experiment
#: picks up the flag without changing its signature.
_DEFAULT_SHARDS: int = 1
_DEFAULT_EXECUTOR: str = "process"


def set_parallelism(shards: int, executor: str = "process") -> None:
    """Set the default shard count / executor used by :func:`run_group`."""
    if shards < 1:
        raise ValueError("shards must be at least 1")
    if executor not in _EXECUTORS:
        raise ValueError(f"unknown executor {executor!r}; expected {_EXECUTORS}")
    global _DEFAULT_SHARDS, _DEFAULT_EXECUTOR
    _DEFAULT_SHARDS = shards
    _DEFAULT_EXECUTOR = executor


def get_parallelism() -> tuple[int, str]:
    return _DEFAULT_SHARDS, _DEFAULT_EXECUTOR


@dataclass(frozen=True)
class Variant:
    """One named engine configuration (Table 4.2 notation)."""

    name: str
    algorithm: str  # "region" | "per_candidate_set" | "self_interested"
    cuts: bool = False
    constraint_ms: float = DEFAULT_CONSTRAINT_MS
    output: str = "region"  # "region" | "pcs" | "batched"
    batch_size: int = 100

    def to_engine_config(self, constraint_ms: Optional[float] = None) -> EngineConfig:
        """Portable config for the sharded runtime (same engine settings)."""
        constraint: Optional[float] = None
        if self.cuts:
            constraint = constraint_ms if constraint_ms is not None else self.constraint_ms
        return EngineConfig(
            algorithm=self.algorithm,
            output=self.output,
            batch_size=self.batch_size,
            constraint_ms=constraint,
        )


def variant_from_name(name: str) -> Variant:
    """Parse Table 4.2 notation like ``"RG+C"`` or ``"PS(B)-200"``."""
    text = name.strip()
    if text == "SI":
        return Variant("SI", "self_interested")
    if text.startswith("RG"):
        algorithm = "region"
        rest = text[2:]
    elif text.startswith("PS"):
        algorithm = "per_candidate_set"
        rest = text[2:]
    else:
        raise ValueError(f"unknown variant {name!r}")
    cuts = "+C" in rest
    output = "region"
    batch = 100
    if "(Pcs)" in rest:
        output = "pcs"
    elif "(B)" in rest:
        output = "batched"
        if ")-" in rest:
            batch = int(rest.split(")-", 1)[1])
    return Variant(text, algorithm, cuts=cuts, output=output, batch_size=batch)


STANDARD_VARIANTS = ("RG", "RG+C", "PS", "PS+C", "SI")


def run_variant(
    specs: Sequence[str],
    trace: Trace,
    variant: Variant | str,
    constraint_ms: Optional[float] = None,
) -> EngineResult:
    """Run one filter group (given as spec strings) under one variant.

    Delegates to the runtime worker's engine construction so the
    sequential and sharded paths are the same code — whatever engine a
    config produces here is exactly what a shard worker produces.
    """
    if isinstance(variant, str):
        variant = variant_from_name(variant)
    config = variant.to_engine_config(constraint_ms)
    return run_worker_task(
        GroupTask.build(key=variant.name, specs=specs, stream=trace, config=config)
    )


@dataclass
class GroupRun:
    """Results of running one group under several variants."""

    group_name: str
    results: dict[str, EngineResult] = field(default_factory=dict)

    def oi_ratio(self, variant: str) -> float:
        return self.results[variant].oi_ratio

    def output_ratio(self, variant: str, baseline: str = "SI") -> float:
        base = self.results[baseline].output_count
        if base == 0:
            raise ValueError("baseline produced no output")
        return self.results[variant].output_count / base


def run_group(
    group_name: str,
    specs: Sequence[str],
    trace: Trace,
    variants: Sequence[str] = STANDARD_VARIANTS,
    constraint_ms: Optional[float] = None,
    shards: Optional[int] = None,
    executor: Optional[str] = None,
) -> GroupRun:
    """Run a filter group under each named variant on the same trace.

    Variant runs are independent engine executions, so with ``shards > 1``
    they are dispatched to the sharded runtime (one :class:`GroupTask`
    per variant, keyed by variant name) and run in parallel.  Decided
    outputs are identical to the sequential path; only wall-clock
    changes.  When ``shards`` is ``None`` the CLI-settable default from
    :func:`set_parallelism` applies.
    """
    if shards is None:
        shards = _DEFAULT_SHARDS
    if executor is None:
        executor = _DEFAULT_EXECUTOR
    run = GroupRun(group_name=group_name)
    if shards > 1 and len(variants) > 1:
        tasks = [
            GroupTask.build(
                key=name,
                specs=specs,
                stream=trace,
                config=variant_from_name(name).to_engine_config(constraint_ms),
            )
            for name in variants
        ]
        sharded = ShardedRuntime(shards=shards, executor=executor).run(tasks)
        run.results.update(sharded.results)
        return run
    for name in variants:
        run.results[name] = run_variant(specs, trace, name, constraint_ms)
    return run
