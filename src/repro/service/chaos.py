"""Declarative fault injection against a live run.

The cluster test-suite's fault idiom — kill a worker process, SIGSTOP it
until the supervisor declares it unresponsive, wedge a subscriber's
consumer — promoted to library code so scenario files
(:mod:`repro.service.scenario`) can schedule the same faults
declaratively and the verdict manifest can assert on what was actually
injected.

A :class:`ChaosSchedule` is a sorted list of :class:`ChaosOp` entries,
each fired ``at_s`` seconds into the run against a :class:`ChaosContext`
describing the live run's actuator surface (the self-hosted cluster, the
per-app consumer gates).  Ops record their outcome in
:attr:`ChaosSchedule.applied` whether they succeed or not: a chaos run
that silently skipped its faults would make every downstream "survived
the fault" verdict vacuous.

Ops:

* ``kill_worker`` — SIGKILL one worker process (``target`` is the
  worker index).  The supervisor's monitor sees the death and respawns
  the slot; subscribers ride through on parked sessions, and every
  source the router holds a checkpoint + tail of splices exactly.
* ``stop_worker`` — SIGSTOP the process for ``duration_s``, then
  SIGCONT.  Short stops stall deliveries and recover silently; stops
  longer than the supervisor's miss budget are declared unresponsive
  and remediated exactly like a death.
* ``partition`` — the router loses the worker: SIGSTOP with no early
  continue, held for ``duration_s``.  On a single host an alive-but-
  unreachable process is observationally a network partition, and the
  supervisor treats it as one ("unresponsive" death reason →
  kill + respawn).  The SIGCONT after the window is a no-op when
  remediation already replaced the process.
* ``stall_reader`` — clear one subscriber's consumer gate for
  ``duration_s`` (``target`` is the app name): deliveries queue up
  broker-side, driving the overflow policy and any degradation ladder,
  without touching the socket.
"""

from __future__ import annotations

import asyncio
import os
import signal
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

__all__ = ["CHAOS_OPS", "ChaosOp", "ChaosContext", "ChaosSchedule"]

#: Supported fault kinds.
CHAOS_OPS = ("kill_worker", "stop_worker", "partition", "stall_reader")

#: Ops whose ``target`` names a worker index.
_WORKER_OPS = ("kill_worker", "stop_worker", "partition")

#: Ops that need a positive ``duration_s`` window.
_WINDOWED_OPS = ("stop_worker", "partition", "stall_reader")


@dataclass(frozen=True)
class ChaosOp:
    """One scheduled fault, ``at_s`` seconds into the run."""

    at_s: float
    op: str
    #: Worker index (as text or int) for worker ops, app name for
    #: ``stall_reader``.
    target: str = "0"
    duration_s: float = 0.0

    def __post_init__(self) -> None:
        if self.op not in CHAOS_OPS:
            raise ValueError(
                f"unknown chaos op {self.op!r}; expected one of {CHAOS_OPS}"
            )
        if self.at_s < 0:
            raise ValueError("at_s must be non-negative")
        if self.op in _WINDOWED_OPS and self.duration_s <= 0:
            raise ValueError(f"chaos op {self.op!r} needs duration_s > 0")
        if self.op in _WORKER_OPS:
            try:
                int(self.target)
            except (TypeError, ValueError):
                raise ValueError(
                    f"chaos op {self.op!r} targets a worker index, "
                    f"got {self.target!r}"
                ) from None


@dataclass
class ChaosContext:
    """The live run's actuator surface, as visible to chaos ops.

    ``cluster`` is the self-hosted :class:`ClusterService` (``None`` for
    single-broker runs — worker ops then fail and are recorded as such).
    ``gates`` maps app name → the pause gate its consumer awaits before
    each batch; ``stall_reader`` clears and restores these.  ``emit``
    (optional) receives one structured event per applied op so the fault
    shows up in the run's event log next to the remediation it caused.
    """

    cluster: Optional[object] = None
    gates: dict = field(default_factory=dict)
    emit: Optional[Callable[..., None]] = None


class ChaosSchedule:
    """Fire a sorted fault schedule against a live run."""

    def __init__(self, ops: tuple[ChaosOp, ...] = ()):
        self.ops = tuple(sorted(ops, key=lambda op: op.at_s))
        #: One record per fired op: ``{at_s, op, target, ok, error?}``.
        self.applied: list[dict] = []

    def __bool__(self) -> bool:
        return bool(self.ops)

    async def run(self, ctx: ChaosContext) -> None:
        """Apply every op at its scheduled offset (cancellable)."""
        started = time.perf_counter()
        for op in self.ops:
            delay = op.at_s - (time.perf_counter() - started)
            if delay > 0:
                await asyncio.sleep(delay)
            record = {
                "at_s": round(time.perf_counter() - started, 4),
                "op": op.op,
                "target": str(op.target),
                "duration_s": op.duration_s,
                "ok": True,
            }
            try:
                await self._apply(op, ctx)
            except asyncio.CancelledError:
                record.update(ok=False, error="cancelled")
                self.applied.append(record)
                raise
            except Exception as exc:
                record.update(ok=False, error=str(exc) or repr(exc))
            self.applied.append(record)
            if ctx.emit is not None:
                ctx.emit("chaos_op", **record)

    async def _apply(self, op: ChaosOp, ctx: ChaosContext) -> None:
        if op.op == "stall_reader":
            gate = ctx.gates.get(str(op.target))
            if gate is None:
                raise ValueError(f"no consumer gate for app {op.target!r}")
            gate.clear()
            try:
                await asyncio.sleep(op.duration_s)
            finally:
                gate.set()
            return
        pid = self._worker_pid(op, ctx)
        if op.op == "kill_worker":
            os.kill(pid, signal.SIGKILL)
            return
        # stop_worker / partition: hold the process in SIGSTOP for the
        # window, then continue it.  If the supervisor remediated the
        # "unresponsive" worker mid-window the pid is gone and the
        # continue is a no-op.
        os.kill(pid, signal.SIGSTOP)
        try:
            await asyncio.sleep(op.duration_s)
        finally:
            try:
                os.kill(pid, signal.SIGCONT)
            except ProcessLookupError:
                pass

    @staticmethod
    def _worker_pid(op: ChaosOp, ctx: ChaosContext) -> int:
        cluster = ctx.cluster
        if cluster is None:
            raise ValueError(
                f"chaos op {op.op!r} needs a self-hosted cluster "
                "(workers > 1)"
            )
        index = int(op.target)
        workers = cluster._workers
        if not 0 <= index < len(workers):
            raise ValueError(
                f"worker index {index} out of range (fleet of {len(workers)})"
            )
        process = workers[index].process
        if process is None or process.returncode is not None:
            raise ValueError(f"worker {index} has no live process")
        return process.pid
