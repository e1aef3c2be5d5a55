"""Stage-tagged tracing: sampled per-tuple latency decomposition.

``/snapshot`` already reports end-to-end decide percentiles; this module
answers *where the millisecond goes*.  A deterministic sampler picks
~1/``sample_period`` tuples keyed off a hash of ``(source, seq)`` — the
same tuple is sampled by every process that sees it, so the producer
client, the cluster router and the owning worker all trace the same
flows without any "sampled" bit on the wire.  Each traced tuple accrues
``(stage, duration_ns)`` pairs in a bounded :class:`TraceBag`; stage
durations are measured with ``time.perf_counter_ns`` between boundaries
inside one process (never across processes — monotonic clocks do not
compare across them) and ride the negotiated wire trace field so the
next hop can extend the same trace.

Stage vocabulary (ordered; the index is the binary wire id):

========  ===================  ==========================================
 id        stage                boundary
========  ===================  ==========================================
 0         ``ingest_send``      client ``ingest()`` call -> frame written
 1         ``router_forward``   router ingest recv -> worker-bound write
 2         ``ingest_recv``      server frame decode -> broker admission
 3         ``decide_exec``      broker engine step for the arrival
 4         ``decide``           broker arrival -> emission (end-to-end)
 5         ``batch_flush``      emission -> session micro-batch flush
 6         ``session_queue``    batch flush -> delivery pump dequeue
 7         ``socket_write``     pump dequeue -> decided bytes drained
 8         ``router_reassembly``router decided recv -> front link put
========  ===================  ==========================================
"""

from __future__ import annotations

import zlib

__all__ = [
    "STAGES",
    "STAGE_BATCH_FLUSH",
    "STAGE_DECIDE",
    "STAGE_DECIDE_EXEC",
    "STAGE_INGEST_RECV",
    "STAGE_INGEST_SEND",
    "STAGE_ROUTER_FORWARD",
    "STAGE_ROUTER_REASSEMBLY",
    "STAGE_SESSION_QUEUE",
    "STAGE_SOCKET_WRITE",
    "StageTracer",
    "TraceBag",
    "stage_id",
    "stage_name",
]

STAGE_INGEST_SEND = "ingest_send"
STAGE_ROUTER_FORWARD = "router_forward"
STAGE_INGEST_RECV = "ingest_recv"
STAGE_DECIDE_EXEC = "decide_exec"
STAGE_DECIDE = "decide"
STAGE_BATCH_FLUSH = "batch_flush"
STAGE_SESSION_QUEUE = "session_queue"
STAGE_SOCKET_WRITE = "socket_write"
STAGE_ROUTER_REASSEMBLY = "router_reassembly"

STAGES: tuple[str, ...] = (
    STAGE_INGEST_SEND,
    STAGE_ROUTER_FORWARD,
    STAGE_INGEST_RECV,
    STAGE_DECIDE_EXEC,
    STAGE_DECIDE,
    STAGE_BATCH_FLUSH,
    STAGE_SESSION_QUEUE,
    STAGE_SOCKET_WRITE,
    STAGE_ROUTER_REASSEMBLY,
)

_STAGE_IDS = {name: i for i, name in enumerate(STAGES)}

_MASK32 = 0xFFFFFFFF


def stage_id(name: str) -> int:
    """Dense wire id for a stage name."""
    return _STAGE_IDS[name]


def stage_name(sid: int) -> str | None:
    """Stage name for a wire id (``None`` for ids from a newer peer)."""
    return STAGES[sid] if 0 <= sid < len(STAGES) else None


class StageTracer:
    """Deterministic ~1/``sample_period`` tuple sampler.

    The decision is a pure function of ``(source, seq)`` — a murmur-style
    integer finalizer over the sequence number, phase-shifted by a CRC of
    the source name — so independent processes agree on which tuples are
    traced without coordination, and the cost per tuple is two integer
    multiplies (the source CRC is cached).
    """

    def __init__(self, sample_period: int = 256):
        if sample_period < 0:
            raise ValueError("sample_period must be >= 0 (0 disables)")
        self.sample_period = sample_period
        self._source_salt: dict[str, int] = {}

    @property
    def enabled(self) -> bool:
        return self.sample_period > 0

    def _salt(self, source: str) -> int:
        salt = self._source_salt.get(source)
        if salt is None:
            salt = zlib.crc32(source.encode("utf-8")) & _MASK32
            self._source_salt[source] = salt
        return salt

    def sampled(self, source: str, seq: int) -> bool:
        """Should the tuple ``(source, seq)`` carry a trace?"""
        period = self.sample_period
        if period <= 0:
            return False
        if period == 1:
            return True
        h = (seq * 0x9E3779B1) & _MASK32
        h ^= h >> 15
        h = (h * 0x85EBCA6B) & _MASK32
        h ^= h >> 13
        h ^= self._salt(source)
        return h % period == 0


class _Entry:
    __slots__ = ("stages", "mark_ns")

    def __init__(self, mark_ns: int):
        self.stages: list[tuple[int, int]] = []
        self.mark_ns = mark_ns


class TraceBag:
    """Bounded in-flight store of accumulated stage durations.

    Keys are ``(source, seq)``.  Only sampled tuples ever enter the bag,
    so at the default 1/256 sampling its footprint is negligible; if a
    burst outruns ``capacity`` the oldest traces are evicted (a dropped
    trace is a non-event — the next sampled tuple replaces it).
    """

    def __init__(self, capacity: int = 4096):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._entries: dict[tuple[str, int], _Entry] = {}
        self.evicted = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: tuple[str, int]) -> bool:
        return key in self._entries

    def begin(
        self,
        key: tuple[str, int],
        now_ns: int,
        carried: list[tuple[int, int]] | None = None,
    ) -> None:
        """Open (or reopen) a trace, optionally seeded from the wire."""
        entry = _Entry(now_ns)
        if carried:
            entry.stages.extend(carried)
        self._entries[key] = entry
        while len(self._entries) > self.capacity:
            oldest = next(iter(self._entries))
            del self._entries[oldest]
            self.evicted += 1

    def add(self, key: tuple[str, int], sid: int, dur_ns: int) -> None:
        """Record one stage duration without touching the mark."""
        entry = self._entries.get(key)
        if entry is not None:
            entry.stages.append((sid, dur_ns))

    def stamp(self, key: tuple[str, int], sid: int, now_ns: int) -> int | None:
        """Close a stage at ``now_ns``: duration since the last mark."""
        entry = self._entries.get(key)
        if entry is None:
            return None
        dur = now_ns - entry.mark_ns
        entry.stages.append((sid, dur))
        entry.mark_ns = now_ns
        return dur

    def mark(self, key: tuple[str, int], now_ns: int) -> None:
        """Reset the mark (start a new stage) without recording one."""
        entry = self._entries.get(key)
        if entry is not None:
            entry.mark_ns = now_ns

    def peek(self, key: tuple[str, int]) -> list[tuple[int, int]] | None:
        entry = self._entries.get(key)
        return list(entry.stages) if entry is not None else None

    def since_mark(self, key: tuple[str, int], now_ns: int) -> int | None:
        """Nanoseconds since the last mark, without mutating the entry.

        Lets fan-out paths measure the same interval once per recipient
        (a stamp would move the mark and shortchange later recipients).
        """
        entry = self._entries.get(key)
        return now_ns - entry.mark_ns if entry is not None else None

    def pop(self, key: tuple[str, int]) -> list[tuple[int, int]] | None:
        """Remove and return the accumulated ``(stage_id, ns)`` pairs."""
        entry = self._entries.pop(key, None)
        return entry.stages if entry is not None else None
