"""The system under test: one ``repro serve`` process tree per set-up.

The tree runs in its own session (so one ``killpg`` reaches router and
workers alike) and, where the host has a second CPU, pinned away from
the generator from ``exec`` on.  It is measured only from outside, via
``/proc``.
"""

from __future__ import annotations

import json
import os
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from harness import procfs
from harness.workloads import Workload

__all__ = [
    "REPO_ROOT",
    "SRC_DIR",
    "CpuPlan",
    "ServerTree",
    "TreeUsage",
    "cpu_plan",
    "kill_all_servers",
    "pin_generator",
    "server_command",
    "spin_ms",
]

REPO_ROOT = Path(__file__).resolve().parents[3]
SRC_DIR = REPO_ROOT / "src"

_READY_TIMEOUT_S = 60.0
_STOP_TIMEOUT_S = 30.0

_SPIN_REPEATS = 5
_SPIN_ITERATIONS = 600_000

#: Process groups started and not yet reaped, for the exit-path sweep.
_LIVE_GROUPS: set[int] = set()


@dataclass(frozen=True)
class CpuPlan:
    pinned: bool
    generator: tuple[int, ...]
    server: tuple[int, ...]


def cpu_plan() -> CpuPlan:
    """Generator on the first allowed CPU, server tree on the rest.

    With a single CPU (or no ``sched_setaffinity``) nothing is pinned and
    the manifest says so.
    """
    if not hasattr(os, "sched_getaffinity"):
        return CpuPlan(False, (), ())
    allowed = sorted(os.sched_getaffinity(0))
    if len(allowed) < 2:
        return CpuPlan(False, tuple(allowed), tuple(allowed))
    return CpuPlan(True, (allowed[0],), tuple(allowed[1:]))


def pin_generator(plan: CpuPlan) -> None:
    if plan.pinned:
        os.sched_setaffinity(0, plan.generator)


def spin_ms(plan: CpuPlan) -> float:
    """Time a fixed pure-python kernel on the server's CPUs.

    The host's speed wanders over minutes; two spins bracketing a
    measured phase show whether it moved under that phase.  The fastest
    of a few repetitions is reported, so a single preemption of the
    kernel does not read as drift.
    """
    if plan.pinned:
        os.sched_setaffinity(0, plan.server)
    try:
        best = float("inf")
        for _ in range(_SPIN_REPEATS):
            started = time.perf_counter()
            acc = 0
            for i in range(_SPIN_ITERATIONS):
                acc = (acc + i * i) % 1_000_003
            best = min(best, time.perf_counter() - started)
        return best * 1e3
    finally:
        pin_generator(plan)


@dataclass(frozen=True)
class TreeUsage:
    """One outside look at the server tree's memory."""

    rss_kb: int
    hwm_kb: int


def server_command(workload: Workload, source_names) -> list[str]:
    """The ``serve`` invocation every set-up of a workload uses."""
    command = [
        sys.executable,
        "-m",
        "repro.experiments.cli",
        "serve",
        "--host",
        "127.0.0.1",
        "--port",
        "0",
        "--sources",
        ",".join(source_names),
        "--algorithm",
        "region",
        "--fanout",
        "shared",
        "--overflow",
        "block",
    ]
    if workload.workers > 1:
        command += ["--workers", str(workload.workers)]
    return command


class ServerTree:
    """Start, observe and reap one ``repro serve`` tree."""

    def __init__(self, workload: Workload, source_names, plan: CpuPlan):
        self.workload = workload
        self.source_names = list(source_names)
        self.plan = plan
        self.process: Optional[subprocess.Popen] = None
        self.port: Optional[int] = None
        self.pgid: Optional[int] = None
        self._pids: list[int] = []

    def start(self) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC_DIR), env.get("PYTHONPATH")) if p
        )
        env["PYTHONHASHSEED"] = "0"
        server_cpus = self.plan.server if self.plan.pinned else None

        def pin() -> None:
            # Runs in the child between fork and exec: the interpreter,
            # the router and every worker it spawns inherit the mask.
            if server_cpus is not None:
                os.sched_setaffinity(0, server_cpus)

        self.process = subprocess.Popen(
            server_command(self.workload, self.source_names),
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            env=env,
            cwd=str(REPO_ROOT),
            start_new_session=True,
            preexec_fn=pin,
        )
        self.pgid = self.process.pid
        _LIVE_GROUPS.add(self.pgid)
        self.port = self._await_ready()

    def _await_ready(self) -> int:
        stdout = self.process.stdout
        deadline = time.monotonic() + _READY_TIMEOUT_S
        buffered = b""
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise RuntimeError(f"server not ready: {buffered[-400:]!r}")
            ready, _, _ = select.select([stdout], [], [], remaining)
            if not ready:
                continue
            chunk = os.read(stdout.fileno(), 4096)
            if not chunk:
                raise RuntimeError(
                    f"server exited before its ready line: {buffered[-400:]!r}"
                )
            buffered += chunk
            for line in buffered.split(b"\n")[:-1]:
                text = line.decode("utf-8", "replace")
                if "gateway listening on" in text:
                    # "gateway listening on HOST:PORT[, http on HOST:PORT]"
                    return int(text.split(", http on ")[0].rsplit(":", 1)[1])

    def usage(self) -> TreeUsage:
        samples = procfs.sample_group(self.pgid)
        self._pids = sorted(samples)
        return TreeUsage(
            rss_kb=sum(s.rss_kb for s in samples.values()),
            hwm_kb=sum(s.hwm_kb for s in samples.values()),
        )

    def cpu_s(self) -> dict[int, float]:
        """CPU seconds of each process seen by the last :meth:`usage`
        (cheap: no directory scan; for sampling inside the phase)."""
        samples = (procfs.read_process(pid) for pid in self._pids)
        return {s.pid: s.cpu_s for s in samples if s is not None}

    def stop(self) -> dict:
        """SIGTERM, collect the terminal snapshot, reap the whole group.

        Returns ``{"clean": bool, "snapshot": dict | None, "stranded":
        [pids]}``; ``clean`` means the server exited 0 by itself and left
        no process of its group behind.
        """
        process = self.process
        if process is None:
            return {"clean": False, "snapshot": None, "stranded": []}
        output = b""
        try:
            if process.poll() is None:
                process.send_signal(signal.SIGTERM)
            try:
                output, _ = process.communicate(timeout=_STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                pass
        finally:
            stranded = self._reap_group()
            self.process = None
        snapshot = None
        for line in reversed(output.decode("utf-8", "replace").splitlines()):
            if line.startswith("{"):
                try:
                    snapshot = json.loads(line)
                except json.JSONDecodeError:
                    continue
                break
        clean = process.returncode == 0 and not stranded and snapshot is not None
        if not clean:
            sys.stderr.write(
                f"server exit {process.returncode}, stranded {stranded}: "
                f"{output[-800:].decode('utf-8', 'replace')}\n"
            )
        return {"clean": clean, "snapshot": snapshot, "stranded": stranded}

    def _reap_group(self) -> list[int]:
        """Kill whatever is left of the group; returns the pids found."""
        process = self.process
        stranded = [
            pid
            for pid in procfs.sample_group(self.pgid)
            if pid != process.pid or process.poll() is None
        ]
        _kill_group(self.pgid)
        if process.poll() is None:
            process.wait(timeout=10)
        if process.stdout is not None:
            process.stdout.close()
        deadline = time.monotonic() + 10.0
        while procfs.sample_group(self.pgid) and time.monotonic() < deadline:
            time.sleep(0.02)
        _LIVE_GROUPS.discard(self.pgid)
        return stranded


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def kill_all_servers() -> None:
    """Exit-path sweep: no set-up may leave a server behind."""
    for pgid in list(_LIVE_GROUPS):
        _kill_group(pgid)
        _LIVE_GROUPS.discard(pgid)
