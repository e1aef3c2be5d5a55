"""CPU and memory of a process tree, read from ``/proc`` (Linux only).

The server is measured from outside: nothing here runs inside it.  A
process that exits between the directory listing and the read simply
drops out of the sample (``read_process`` returns ``None``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional

__all__ = [
    "ProcessSample",
    "parse_stat",
    "parse_status",
    "read_process",
    "sample_group",
]

_PROC = "/proc"


@dataclass(frozen=True)
class ProcessSample:
    pid: int
    pgrp: int
    #: Kernel state letter; "Z" is a zombie awaiting its parent's wait().
    state: str
    #: user + system CPU seconds consumed so far.
    cpu_s: float
    rss_kb: int
    #: Peak resident set (``VmHWM``).
    hwm_kb: int


def parse_stat(text: str) -> dict:
    """Fields of ``/proc/<pid>/stat`` this harness needs.

    ``comm`` may itself contain spaces and parentheses, so the line is
    split at the *last* closing parenthesis.
    """
    head, _, tail = text.rpartition(")")
    if not head or "(" not in head:
        raise ValueError(f"not a /proc stat line: {text[:60]!r}")
    pid_text, _, comm = head.partition("(")
    fields = tail.split()
    # tail starts at field 3 (state); utime/stime are fields 14/15.
    if len(fields) < 13:
        raise ValueError(f"truncated /proc stat line: {text[:60]!r}")
    return {
        "pid": int(pid_text),
        "comm": comm,
        "state": fields[0],
        "ppid": int(fields[1]),
        "pgrp": int(fields[2]),
        "utime_ticks": int(fields[11]),
        "stime_ticks": int(fields[12]),
    }


def parse_status(text: str) -> dict:
    """``VmRSS`` and ``VmHWM`` in kB from ``/proc/<pid>/status``.

    Kernel threads and zombies have neither line; both read as 0.
    """
    wanted = {"VmRSS": 0, "VmHWM": 0}
    for line in text.splitlines():
        key, _, rest = line.partition(":")
        if key in wanted:
            wanted[key] = int(rest.split()[0])
    return {"rss_kb": wanted["VmRSS"], "hwm_kb": wanted["VmHWM"]}


def read_process(pid: int, *, root: str = _PROC) -> Optional[ProcessSample]:
    """One process's sample, or ``None`` if it vanished mid-read."""
    try:
        with open(f"{root}/{pid}/stat") as handle:
            stat = parse_stat(handle.read())
        with open(f"{root}/{pid}/status") as handle:
            status = parse_status(handle.read())
    except (FileNotFoundError, ProcessLookupError, NotADirectoryError):
        return None
    ticks = os.sysconf("SC_CLK_TCK")
    return ProcessSample(
        pid=stat["pid"],
        pgrp=stat["pgrp"],
        state=stat["state"],
        cpu_s=(stat["utime_ticks"] + stat["stime_ticks"]) / ticks,
        rss_kb=status["rss_kb"],
        hwm_kb=status["hwm_kb"],
    )


def sample_group(pgrp: int, *, root: str = _PROC) -> dict[int, ProcessSample]:
    """``{pid: sample}`` for every live process of one process group
    (the server tree runs in its own).  Zombies are not alive."""
    samples = {}
    for entry in os.listdir(root):
        if not entry.isdigit():
            continue
        sample = read_process(int(entry), root=root)
        if sample is not None and sample.pgrp == pgrp and sample.state != "Z":
            samples[sample.pid] = sample
    return samples
