"""Sans-io binary wire codec for the dissemination gateway.

Protocol v4: every tuple frame (``ingest_batch``, ``decided``) is
binary; every control frame (hello, ok, error, subscribe, snapshot, the
migration verbs, ...) is JSON.  Nothing is negotiated — the two never
overlap:

* **Self-describing bodies.**  A frame body whose first byte is ``{``
  (0x7B) is a UTF-8 JSON control frame; any other first byte is a binary
  frame *tag*.  The :class:`~repro.transport.protocol.FrameDecoder`
  dispatches on that byte, so control and tuple frames interleave freely
  on one connection, and refuses a JSON body that claims a tuple-frame
  type.
* **Interned attribute names.**  Binary tuple records carry attribute
  *ids*, not names.  Each sender owns a :class:`NameTable` assigning
  dense ids; every frame that uses an id the receiving connection has
  not seen yet prepends a ``(id, name)`` delta, so the stream is
  self-contained per connection while tuples cost ~10 bytes of names
  overhead exactly once per attribute, not once per tuple.
* **Encode-once segments.**  A tuple serializes to an immutable
  :class:`Segment` — a struct-packed record over the *shared* name
  table.  The gateway keeps one :class:`SegmentCache`, so a tuple fanned
  out to N connections is encoded once and the N ``decided`` frames are
  assembled from the same segment bytes by reference
  (:meth:`BinaryEncoder.decided_frame` returns a piece list for
  ``writelines``; nothing is concatenated per connection).
* **Sent once per connection.**  A ``decided`` frame names every app on
  the connection its batch is for, so the members of one sharing class
  behind one socket cost one frame, one encode and one decode.

Binary frame layouts (after the 4-byte big-endian length header)::

    varint   = unsigned LEB128
    string   = varint length + UTF-8 bytes
    f64      = little-endian IEEE-754 double
    names    = varint count, then per entry: varint id + string name
    tuple    = varint seq + f64 timestamp + varint n_attrs
               + n_attrs * (varint name_id + f64 value)

    0x02 ingest_batch  varint req(0=none, else seq+1), string source,
                       varint pad_len + pad bytes, names,
                       varint count, count * tuple
    0x03 decided       varint n_apps (>= 1), n_apps * string app,
                       f64 first_staged_ms, f64 flushed_ms,
                       names, varint count, count * tuple

When the ``trace`` feature was negotiated in the hello
(:data:`repro.transport.protocol.FEATURE_TRACE`), frames carrying
sampled stage-latency annotations use the *traced* tags — the base
layout with a trace section appended, so tuple segments stay shareable
between traced and untraced frames::

    pairs    = varint n, then n * (varint stage_id + varint dur_ns)
    tracemap = varint n, then n * (varint seq + pairs)

    0x12 ingest_batch  0x02 layout, then tracemap
    0x13 decided       0x03 layout, then tracemap

``ingest_batch`` is the only ingest frame: one tuple is a batch of one.

Decoding yields the dict shape control frames have (``{"t":
"ingest_batch", "source": ..., "tuples": [StreamTuple, ...]}``, ``{"t":
"decided", "apps": [...], "items": (StreamTuple, ...), ...}``), so the
server dispatch and the client read loop handle one kind of frame.
"""

from __future__ import annotations

import struct
from typing import Iterable, Optional, Sequence

from repro.core.tuples import StreamTuple
from repro.service.batching import Batch, TraceMap
from repro.transport.protocol import FrameTooLarge, ProtocolError

__all__ = [
    "NameTable",
    "Segment",
    "SegmentCache",
    "BinaryEncoder",
    "make_encoder",
    "decode_binary_body",
    "BinaryNames",
]

_TAG_INGEST_BATCH = 0x02
_TAG_DECIDED = 0x03
#: Traced variants: base layout + appended trace section (see docstring).
_TAG_INGEST_BATCH_TRACED = 0x12
_TAG_DECIDED_TRACED = 0x13

_F64 = struct.Struct("<d")


# ---------------------------------------------------------------------------
# Primitives
# ---------------------------------------------------------------------------
def _put_varint(out: bytearray, value: int) -> None:
    if 0 <= value < 0x80:
        out.append(value)
        return
    if value < 0:
        raise ProtocolError(f"cannot varint-encode negative value {value}")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _put_string(out: bytearray, text: str) -> None:
    data = text.encode("utf-8")
    _put_varint(out, len(data))
    out += data


def _put_trace_pairs(out: bytearray, pairs) -> None:
    _put_varint(out, len(pairs))
    for sid, dur_ns in pairs:
        _put_varint(out, int(sid))
        _put_varint(out, max(0, int(dur_ns)))


def _put_trace_map(out: bytearray, traces) -> None:
    _put_varint(out, len(traces))
    for seq, pairs in traces.items():
        _put_varint(out, int(seq))
        _put_trace_pairs(out, pairs)


class _Reader:
    """Bounds-checked cursor over one frame body."""

    __slots__ = ("data", "pos")

    def __init__(self, data: bytes, pos: int = 0):
        self.data = data
        self.pos = pos

    def varint(self) -> int:
        result = 0
        shift = 0
        data = self.data
        while True:
            if self.pos >= len(data):
                raise ProtocolError("truncated varint in binary frame")
            byte = data[self.pos]
            self.pos += 1
            result |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return result
            shift += 7
            if shift > 63:
                raise ProtocolError("varint overflow in binary frame")

    def f64(self) -> float:
        end = self.pos + 8
        if end > len(self.data):
            raise ProtocolError("truncated float in binary frame")
        (value,) = _F64.unpack_from(self.data, self.pos)
        self.pos = end
        return value

    def take(self, count: int) -> bytes:
        end = self.pos + count
        if end > len(self.data):
            raise ProtocolError("truncated bytes in binary frame")
        chunk = self.data[self.pos : end]
        self.pos = end
        return chunk

    def string(self) -> str:
        length = self.varint()
        try:
            return self.take(length).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"undecodable string in binary frame: {exc}") from exc

    @property
    def exhausted(self) -> bool:
        return self.pos >= len(self.data)


# ---------------------------------------------------------------------------
# Name interning
# ---------------------------------------------------------------------------
class NameTable:
    """Sender-owned attribute-name interning (dense ids, append-only).

    One table may be shared by every connection of a gateway: segments
    reference the shared ids, while each connection separately tracks
    which ids it has already announced (see
    :meth:`BinaryEncoder.decided_pieces`).
    """

    __slots__ = ("_id_of", "_names")

    def __init__(self) -> None:
        self._id_of: dict[str, int] = {}
        self._names: list[str] = []

    def intern(self, name: str) -> int:
        nid = self._id_of.get(name)
        if nid is None:
            nid = len(self._names)
            self._id_of[name] = nid
            self._names.append(name)
        return nid

    def name_at(self, nid: int) -> str:
        return self._names[nid]

    def __len__(self) -> int:
        return len(self._names)


class BinaryNames:
    """Receiver-side id -> name table, learned from frame deltas."""

    __slots__ = ("_names",)

    def __init__(self) -> None:
        self._names: dict[int, str] = {}

    def learn(self, nid: int, name: str) -> None:
        # A sender's NameTable is append-only, so an id never changes
        # its name; re-announcing the same name is legal (an oversized
        # frame's refusal re-sends its delta).
        known = self._names.setdefault(nid, name)
        if known != name:
            raise ProtocolError(
                f"binary frame rebinds attribute id {nid} from "
                f"{known!r} to {name!r}"
            )

    def resolve(self, nid: int) -> str:
        try:
            return self._names[nid]
        except KeyError:
            raise ProtocolError(
                f"binary frame references unannounced attribute id {nid}"
            ) from None


# ---------------------------------------------------------------------------
# Segments (encode-once tuples)
# ---------------------------------------------------------------------------
class Segment:
    """One tuple, encoded once, shareable across frames by reference."""

    __slots__ = ("data", "name_ids")

    def __init__(self, data: bytes, name_ids: tuple[int, ...] = ()):
        self.data = data
        #: Shared-table attribute ids the segment references (binary only).
        self.name_ids = name_ids

    def __len__(self) -> int:
        return len(self.data)


class SegmentCache:
    """Bounded LRU of per-tuple segments, keyed by tuple object identity.

    ``StreamTuple`` equality is seq-only, and two *sources* may reuse the
    same seq — so the cache keys on ``id(item)`` and pins the tuple
    itself in the entry (preventing id reuse while the entry lives).
    The broker routes one emission object to every recipient session, so
    fan-out to N subscribers is N-1 cache hits.
    """

    __slots__ = ("capacity", "_entries", "hits", "misses")

    def __init__(self, capacity: int = 4096):
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = capacity
        #: id(item) -> (item, segment); dict order is the LRU order.
        self._entries: dict[int, tuple[StreamTuple, Segment]] = {}
        self.hits = 0
        self.misses = 0

    def get(self, item: StreamTuple) -> Optional[Segment]:
        key = id(item)
        entry = self._entries.get(key)
        if entry is None or entry[0] is not item:
            self.misses += 1
            return None
        self.hits += 1
        # Refresh LRU position.
        del self._entries[key]
        self._entries[key] = entry
        return entry[1]

    def put(self, item: StreamTuple, segment: Segment) -> None:
        entries = self._entries
        key = id(item)
        if key in entries:
            del entries[key]
        elif len(entries) >= self.capacity:
            del entries[next(iter(entries))]
        entries[key] = (item, segment)

    def __len__(self) -> int:
        return len(self._entries)


# ---------------------------------------------------------------------------
# Encoders
# ---------------------------------------------------------------------------

class BinaryEncoder:
    """Per-connection sending side: struct-packed tuple frames over a
    (possibly shared) name table.

    The hot-path encodings are ``ingest_batch_body`` and
    ``decided_frame`` (decided fan-out); everything else goes through
    :func:`repro.transport.protocol.encode_frame` as JSON.
    ``decided_frame`` returns ``(pieces, total_bytes)`` where ``pieces``
    is ready for ``StreamWriter.writelines`` — callers prepend the
    4-byte length header and never join the pieces.
    """

    def __init__(
        self,
        table: Optional[NameTable] = None,
        cache: Optional[SegmentCache] = None,
    ):
        self._table = table if table is not None else NameTable()
        self._cache = cache if cache is not None else SegmentCache()
        #: Shared-table ids this connection's peer has been told about.
        self._announced: set[int] = set()

    # -- segments -------------------------------------------------------
    def tuple_segment(self, item: StreamTuple) -> Segment:
        segment = self._cache.get(item)
        if segment is None:
            out = bytearray()
            ids = self._encode_tuple(out, item)
            segment = Segment(bytes(out), ids)
            self._cache.put(item, segment)
        return segment

    def _encode_tuple(self, out: bytearray, item: StreamTuple) -> tuple[int, ...]:
        _put_varint(out, item.seq)
        out += _F64.pack(item.timestamp)
        values = item.values
        _put_varint(out, len(values))
        ids = []
        intern = self._table.intern
        pack = _F64.pack
        for name, value in values.items():
            nid = intern(name)
            ids.append(nid)
            _put_varint(out, nid)
            out += pack(value)
        return tuple(ids)

    def _names_delta(self, out: bytearray, used_ids: Iterable[int]) -> set[int]:
        """Append the delta section for any not-yet-announced ids.

        Returns the new ids *without* committing them to ``_announced`` —
        the caller commits only once the frame passed the size check, so
        a refused oversized frame cannot leave the peer's table behind.
        """
        fresh = set(used_ids).difference(self._announced)
        _put_varint(out, len(fresh))
        for nid in sorted(fresh):
            _put_varint(out, nid)
            _put_string(out, self._table.name_at(nid))
        return fresh

    # -- hot paths ------------------------------------------------------
    def ingest_body(
        self,
        source: str,
        item: StreamTuple,
        *,
        seq: Optional[int] = None,
        pad_bytes: int = 0,
        max_frame_bytes: Optional[int] = None,
    ) -> bytes:
        """A batch of one; kept because
        benchmarks/e2e/harness/layers.py:221 still calls it."""
        return self.ingest_batch_body(
            source,
            (item,),
            seq=seq,
            pad_bytes=pad_bytes,
            max_frame_bytes=max_frame_bytes,
        )

    def ingest_batch_body(
        self,
        source: str,
        items: Sequence[StreamTuple],
        *,
        seq: Optional[int] = None,
        pad_bytes: int = 0,
        max_frame_bytes: Optional[int] = None,
        traces: Optional[TraceMap] = None,
    ) -> bytes:
        head = bytearray(
            [_TAG_INGEST_BATCH_TRACED if traces else _TAG_INGEST_BATCH]
        )
        _put_varint(head, 0 if seq is None else seq + 1)
        _put_string(head, source)
        _put_varint(head, max(0, pad_bytes))
        head += b"\x00" * max(0, pad_bytes)
        body = bytearray()
        used: list[int] = []
        _put_varint(body, len(items))
        for item in items:
            used.extend(self._encode_tuple(body, item))
        if traces:
            _put_trace_map(body, traces)
        fresh = self._names_delta(head, used)
        total = len(head) + len(body)
        if max_frame_bytes is not None and total > max_frame_bytes:
            # Refused before the delta is committed: the peer never saw
            # this frame, so the names must go out with the next one.
            raise FrameTooLarge(total, max_frame_bytes)
        self._announced |= fresh
        return bytes(head + body)

    def decided_pieces(
        self,
        app: str,
        batch: Batch,
        *,
        max_frame_bytes: int,
        shared: bool = True,
        traces: Optional[TraceMap] = None,
    ) -> tuple[list[bytes], int]:
        """A one-app :meth:`decided_frame`.

        Kept, with ``shared=`` (which selects nothing), because
        benchmarks/e2e/harness/layers.py:271 calls it with ``shared=True``.
        """
        if not shared:
            raise ValueError(
                "decided frames are only assembled from shared segments; "
                "shared=False selects nothing"
            )
        return self.decided_frame(
            (app,), batch, max_frame_bytes=max_frame_bytes, traces=traces
        )

    def decided_frame(
        self,
        apps: Sequence[str],
        batch: Batch,
        *,
        max_frame_bytes: int,
        traces: Optional[TraceMap] = None,
    ) -> tuple[list[bytes], int]:
        """One ``decided`` frame carrying ``batch`` to every app in ``apps``."""
        segments = [self.tuple_segment(item) for item in batch.items]
        head = bytearray([_TAG_DECIDED_TRACED if traces else _TAG_DECIDED])
        _put_varint(head, len(apps))
        for app in apps:
            _put_string(head, app)
        head += _F64.pack(batch.first_staged_ms)
        head += _F64.pack(batch.flushed_ms)
        if len(self._announced) == len(self._table):
            # The peer knows every name the table holds.
            fresh = ()
            head.append(0)
        else:
            fresh = self._names_delta(
                head, [nid for segment in segments for nid in segment.name_ids]
            )
        _put_varint(head, len(segments))
        pieces: list[bytes] = [bytes(head)]
        pieces.extend(segment.data for segment in segments)
        if traces:
            tail = bytearray()
            _put_trace_map(tail, traces)
            pieces.append(bytes(tail))
        total = sum(map(len, pieces))
        if total > max_frame_bytes:
            raise FrameTooLarge(total, max_frame_bytes)
        # Size check passed: the delta will reach the peer, commit it.
        if fresh:
            self._announced |= fresh
        return pieces, total


def make_encoder(
    codec: str,
    *,
    table: Optional[NameTable] = None,
    cache: Optional[SegmentCache] = None,
) -> BinaryEncoder:
    """Encoder for one connection."""
    # The positional name selects nothing; it is accepted because
    # benchmarks/e2e/harness/layers.py:213, :266 still pass "binary".
    if codec != "binary":
        raise ValueError(f"unknown codec {codec!r}; expected 'binary'")
    return BinaryEncoder(table=table, cache=cache)


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------
def _read_names(reader: _Reader, names: BinaryNames) -> None:
    count = reader.varint()
    for _ in range(count):
        nid = reader.varint()
        names.learn(nid, reader.string())


def _read_trace_pairs(reader: _Reader) -> list[tuple[int, int]]:
    count = reader.varint()
    return [(reader.varint(), reader.varint()) for _ in range(count)]


def _read_trace_map(reader: _Reader) -> dict[int, list[tuple[int, int]]]:
    count = reader.varint()
    out: dict[int, list[tuple[int, int]]] = {}
    for _ in range(count):
        seq = reader.varint()
        out[seq] = _read_trace_pairs(reader)
    return out


def _read_tuple(reader: _Reader, names: BinaryNames) -> StreamTuple:
    # The ingest hot path: one record per tuple, read off local
    # variables rather than one _Reader call per field.
    data = reader.data
    pos = reader.pos
    resolve = names.resolve
    unpack = _F64.unpack_from
    values: dict[str, float] = {}
    try:
        seq = data[pos]
        pos += 1
        if seq & 0x80:
            seq &= 0x7F
            shift = 7
            while True:
                byte = data[pos]
                pos += 1
                seq |= (byte & 0x7F) << shift
                if not byte & 0x80:
                    break
                shift += 7
                if shift > 63:
                    raise ProtocolError("varint overflow in binary frame")
        (ts,) = unpack(data, pos)
        n_attrs = data[pos + 8]
        pos += 9
        if n_attrs & 0x80:
            reader.pos = pos - 1
            n_attrs = reader.varint()
            pos = reader.pos
        for _ in range(n_attrs):
            nid = data[pos]
            if nid & 0x80:
                reader.pos = pos
                nid = reader.varint()
                pos = reader.pos
            else:
                pos += 1
            (values[resolve(nid)],) = unpack(data, pos)
            pos += 8
    except (IndexError, struct.error):
        raise ProtocolError("truncated tuple record in binary frame") from None
    reader.pos = pos
    # Decoded straight to a StreamTuple; tuple_from_wire passes
    # instances through.
    return StreamTuple.trusted(seq, ts, values)


def decode_binary_body(body: bytes, names: BinaryNames) -> dict:
    """Decode one binary frame body into the control frames' dict shape.

    ``names`` is the connection's receiver-side table; deltas carried by
    the frame are learned before any tuple record is resolved.  The body
    must be exactly one frame: bytes past its end are a protocol error.
    """
    reader = _Reader(body, pos=1)
    tag = body[0]
    if tag in (_TAG_INGEST_BATCH, _TAG_INGEST_BATCH_TRACED):
        req = reader.varint()
        source = reader.string()
        pad_len = reader.varint()
        reader.take(pad_len)  # padding is load-shaping only; discard
        _read_names(reader, names)
        count = reader.varint()
        frame: dict = {
            "t": "ingest_batch",
            "source": source,
            "tuples": [_read_tuple(reader, names) for _ in range(count)],
        }
        if tag == _TAG_INGEST_BATCH_TRACED:
            frame["traces"] = _read_trace_map(reader)
        if req:
            frame["seq"] = req - 1
    elif tag in (_TAG_DECIDED, _TAG_DECIDED_TRACED):
        n_apps = reader.varint()
        if not n_apps:
            raise ProtocolError("decided frame names no app")
        apps = [reader.string() for _ in range(n_apps)]
        first_staged_ms = reader.f64()
        flushed_ms = reader.f64()
        _read_names(reader, names)
        count = reader.varint()
        frame = {
            "t": "decided",
            "apps": apps,
            "first_staged_ms": first_staged_ms,
            "flushed_ms": flushed_ms,
            "items": tuple(_read_tuple(reader, names) for _ in range(count)),
        }
        if tag == _TAG_DECIDED_TRACED:
            frame["traces"] = _read_trace_map(reader)
    else:
        raise ProtocolError(f"unknown binary frame tag 0x{tag:02x}")
    if not reader.exhausted:
        raise ProtocolError(
            f"trailing bytes in binary frame: {len(body) - reader.pos} "
            f"after a complete {frame['t']!r} body"
        )
    return frame
