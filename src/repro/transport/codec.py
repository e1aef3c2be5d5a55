"""Sans-io binary wire codec for the dissemination gateway.

Protocol v6: every tuple frame (``ingest_batch``, ``decided``) and the
``ok`` of an ``ingest_batch`` are binary; every other frame (hello,
error, subscribe, snapshot, the source-state verbs, ...) is JSON.  Nothing
is negotiated — the two never overlap:

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
* **Relayed as bytes.**  A tuple frame gives the byte length of its
  record section, so the decoder hands the records out undecoded, as
  one :class:`TupleRecords` view: a broker iterates it (which builds
  every tuple at once), a cluster router never does.  An encoder whose
  table gives the view's ids the same names (:meth:`BinaryNames.agrees_with`,
  checked once per newly learned id) writes the record bytes as they
  came, behind a header of its own; any other encoder decodes and
  re-encodes them, as a broker's gateway does.

Binary frame layouts (after the 4-byte big-endian length header)::

    varint   = unsigned LEB128
    string   = varint length + UTF-8 bytes
    f64      = little-endian IEEE-754 double
    names    = varint count, then per entry: varint id + string name
    tuple    = varint seq + f64 timestamp + varint n_attrs
               + n_attrs * (varint name_id + f64 value)
    records  = varint count, varint n_bytes, then count * tuple
               taking exactly n_bytes

    0x02 ingest_batch  varint req(0=none, else seq+1), string source,
                       varint pad_len + pad bytes, names, records
    0x03 decided       varint n_apps (>= 1), n_apps * string app,
                       f64 first_staged_ms, f64 flushed_ms,
                       names, records
    0x04 ingest ok     varint reply_to, varint emissions

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
"ingest_batch", "source": ..., "tuples": TupleRecords}``, ``{"t":
"decided", "apps": [...], "items": TupleRecords, ...}``, ``{"t": "ok",
"reply_to": ..., "emissions": ...}``), so the server dispatch and the
client read loop handle one kind of frame.
"""

from __future__ import annotations

import struct
from itertools import islice
from typing import Iterable, Optional, Sequence

from repro.core.tuples import StreamTuple
from repro.service.batching import Batch, TraceMap
from repro.transport.protocol import FrameTooLarge, ProtocolError, pack_header

__all__ = [
    "NameTable",
    "Segment",
    "SegmentCache",
    "BinaryEncoder",
    "TupleRecords",
    "make_encoder",
    "encode_ingest_ack",
    "decode_binary_body",
    "BinaryNames",
]

_TAG_INGEST_BATCH = 0x02
_TAG_DECIDED = 0x03
_TAG_INGEST_OK = 0x04
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


def _varint_rest(data: bytes, pos: int, first: int) -> tuple[int, int]:
    """Finish a varint whose first byte ``first`` (continuation bit set)
    was read just before ``pos``; returns ``(value, pos)``."""
    value = first & 0x7F
    shift = 7
    while True:
        byte = data[pos]
        pos += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, pos
        shift += 7
        if shift > 63:
            raise ProtocolError("varint overflow in binary frame")


class _Reader:
    """Bounds-checked cursor over one frame body."""

    __slots__ = ("data", "pos")

    def __init__(self, data: bytes, pos: int = 0):
        self.data = data
        self.pos = pos

    def varint(self) -> int:
        try:
            first = self.data[self.pos]
            if not first & 0x80:
                self.pos += 1
                return first
            value, self.pos = _varint_rest(self.data, self.pos + 1, first)
        except IndexError:
            raise ProtocolError("truncated varint in binary frame") from None
        return value

    def f64(self) -> float:
        end = self.pos + 8
        if end > len(self.data):
            raise ProtocolError("truncated float in binary frame")
        (value,) = _F64.unpack_from(self.data, self.pos)
        self.pos = end
        return value

    def skip(self, count: int) -> None:
        end = self.pos + count
        if end > len(self.data):
            raise ProtocolError("truncated bytes in binary frame")
        self.pos = end

    def take(self, count: int) -> bytes:
        start = self.pos
        self.skip(count)
        return self.data[start : self.pos]

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

    def adopt(self, nid: int, name: str) -> bool:
        """Whether ``nid`` means ``name`` here, interning it when it is
        the next id and the name is new; False when the table disagrees."""
        known = self._id_of.get(name)
        if known is not None:
            return known == nid
        if nid != len(self._names):
            return False
        self._id_of[name] = nid
        self._names.append(name)
        return True

    def name_at(self, nid: int) -> str:
        return self._names[nid]

    def __len__(self) -> int:
        return len(self._names)


class BinaryNames:
    """Receiver-side id -> name table, learned from frame deltas."""

    __slots__ = ("_names", "_agreed")

    def __init__(self) -> None:
        self._names: dict[int, str] = {}
        #: Sending table -> how many of our ids (in learning order) it
        #: was found to agree with, or -1 once one disagreed.
        self._agreed: dict[NameTable, int] = {}

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

    def agrees_with(self, table: NameTable) -> bool:
        """Whether every id learned here means the same name in
        ``table`` — so records read here can be sent on as they are.

        Each id is checked once (new names are adopted into ``table``);
        one that disagrees settles it for good: both tables are
        append-only.
        """
        checked = self._agreed.get(table, 0)
        if checked == len(self._names):
            return True
        if checked < 0:
            return False
        for nid, name in islice(self._names.items(), checked, None):
            if not table.adopt(nid, name):
                self._agreed[table] = -1
                return False
        self._agreed[table] = len(self._names)
        return True


# ---------------------------------------------------------------------------
# Undecoded records
# ---------------------------------------------------------------------------
class TupleRecords:
    """One frame's tuple records, undecoded: ``count`` records taking
    exactly ``data``, their attribute ids resolved through ``names``.

    Iterating (or indexing) builds every :class:`StreamTuple` of the
    frame at once, and keeps them, so a malformed record fails the whole
    frame before its first tuple is used.  :attr:`seqs` reads the
    records' framing in one pass that builds no tuple; a router forwards
    ``data`` as it is to encoders whose tables agree with ``names``.
    """

    __slots__ = ("data", "count", "names", "_tuples", "_seqs")

    def __init__(self, data: bytes, count: int, names: BinaryNames):
        self.data = data
        self.count = count
        self.names = names
        self._tuples: Optional[list[StreamTuple]] = None
        self._seqs: Optional[list[int]] = None

    def __len__(self) -> int:
        return self.count

    def __iter__(self):
        return iter(self.tuples())

    def __getitem__(self, index):
        return self.tuples()[index]

    def __repr__(self) -> str:
        return f"TupleRecords(count={self.count}, bytes={len(self.data)})"

    def tuples(self) -> list[StreamTuple]:
        """The decoded tuples, built on first use."""
        built = self._tuples
        if built is not None:
            return built
        data = self.data
        names = self.names._names
        unpack = _F64.unpack_from
        trusted = StreamTuple.trusted
        built = []
        pos = 0
        try:
            for _ in range(self.count):
                seq = data[pos]
                pos += 1
                if seq & 0x80:
                    seq, pos = _varint_rest(data, pos, seq)
                (ts,) = unpack(data, pos)
                n_attrs = data[pos + 8]
                pos += 9
                if n_attrs & 0x80:
                    n_attrs, pos = _varint_rest(data, pos, n_attrs)
                values: dict[str, float] = {}
                for _ in range(n_attrs):
                    nid = data[pos]
                    pos += 1
                    if nid & 0x80:
                        nid, pos = _varint_rest(data, pos, nid)
                    (values[names[nid]],) = unpack(data, pos)
                    pos += 8
                built.append(trusted(seq, ts, values))
        except (IndexError, struct.error):
            raise ProtocolError("truncated tuple record in binary frame") from None
        except KeyError as exc:
            raise ProtocolError(
                f"binary frame references unannounced attribute id {exc.args[0]}"
            ) from None
        self._check_end(pos)
        self._tuples = built
        return built

    @property
    def seqs(self) -> list[int]:
        """Every record's seq, from a pass that checks the framing and
        the ids but builds no tuple; raises :class:`ProtocolError` for
        a malformed record."""
        seqs = self._seqs
        if seqs is not None:
            return seqs
        if self._tuples is not None:
            seqs = [item.seq for item in self._tuples]
        else:
            data = self.data
            known = self.names._names
            seqs = []
            pos = 0
            try:
                for _ in range(self.count):
                    seq = data[pos]
                    pos += 1
                    if seq & 0x80:
                        seq, pos = _varint_rest(data, pos, seq)
                    n_attrs = data[pos + 8]
                    pos += 9
                    if n_attrs & 0x80:
                        n_attrs, pos = _varint_rest(data, pos, n_attrs)
                    for _ in range(n_attrs):
                        nid = data[pos]
                        pos += 1
                        if nid & 0x80:
                            nid, pos = _varint_rest(data, pos, nid)
                        if nid not in known:
                            raise ProtocolError(
                                "binary frame references unannounced "
                                f"attribute id {nid}"
                            )
                        pos += 8
                    seqs.append(seq)
            except IndexError:
                raise ProtocolError(
                    "truncated tuple record in binary frame"
                ) from None
            self._check_end(pos)
        self._seqs = seqs
        return seqs

    def _check_end(self, pos: int) -> None:
        if pos > len(self.data):
            raise ProtocolError("truncated tuple record in binary frame")
        if pos < len(self.data):
            raise ProtocolError(
                f"trailing bytes in binary frame: {len(self.data) - pos} "
                f"after {self.count} tuple records"
            )


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
    4-byte length header and never join the pieces.  Both take a
    :class:`TupleRecords` view as their tuples and send its bytes as
    they are when this encoder's table agrees with the view's names.
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

    def _relays(self, items) -> bool:
        """Whether ``items`` are records this encoder sends as they are."""
        return type(items) is TupleRecords and items.names.agrees_with(self._table)

    def _names_delta(self, out: bytearray, used_ids: Iterable[int]) -> set[int]:
        """Append the delta section for any not-yet-announced ids.

        Returns the new ids *without* committing them to ``_announced`` —
        the caller commits only once the frame passed the size check, so
        a refused oversized frame cannot leave the peer's table behind.
        ``used_ids`` is not read when the peer knows the whole table.
        """
        if len(self._announced) == len(self._table):
            out.append(0)
            return set()
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
        if self._relays(items):
            records = items.data
            fresh = self._names_delta(head, items.names._names)
        else:
            records = bytearray()
            used: list[int] = []
            for item in items:
                used.extend(self._encode_tuple(records, item))
            fresh = self._names_delta(head, used)
        _put_varint(head, len(items))
        _put_varint(head, len(records))
        tail = bytearray()
        if traces:
            _put_trace_map(tail, traces)
        total = len(head) + len(records) + len(tail)
        if max_frame_bytes is not None and total > max_frame_bytes:
            # Refused before the delta is committed: the peer never saw
            # this frame, so the names must go out with the next one.
            raise FrameTooLarge(total, max_frame_bytes)
        self._announced |= fresh
        return b"".join((head, records, tail))

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
        items = batch.items
        head = bytearray([_TAG_DECIDED_TRACED if traces else _TAG_DECIDED])
        _put_varint(head, len(apps))
        for app in apps:
            _put_string(head, app)
        head += _F64.pack(batch.first_staged_ms)
        head += _F64.pack(batch.flushed_ms)
        if self._relays(items):
            records = [items.data]
            fresh = self._names_delta(head, items.names._names)
        else:
            segments = [self.tuple_segment(item) for item in items]
            records = [segment.data for segment in segments]
            fresh = self._names_delta(
                head, (nid for segment in segments for nid in segment.name_ids)
            )
        size = sum(map(len, records))
        _put_varint(head, len(items))
        _put_varint(head, size)
        pieces: list[bytes] = [bytes(head)]
        pieces.extend(records)
        total = len(head) + size
        if traces:
            tail = bytearray()
            _put_trace_map(tail, traces)
            pieces.append(bytes(tail))
            total += len(tail)
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


def encode_ingest_ack(reply_to: int, emissions: int) -> bytes:
    """Header + body of the binary ``ok`` answering an ``ingest_batch``."""
    body = bytearray((_TAG_INGEST_OK,))
    _put_varint(body, reply_to)
    _put_varint(body, emissions)
    return pack_header(len(body)) + body


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------
def _read_names(reader: _Reader, names: BinaryNames) -> None:
    count = reader.varint()
    for _ in range(count):
        nid = reader.varint()
        names.learn(nid, reader.string())


def _read_records(reader: _Reader, names: BinaryNames) -> TupleRecords:
    count = reader.varint()
    return TupleRecords(reader.take(reader.varint()), count, names)


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


def decode_binary_body(body: bytes, names: BinaryNames) -> dict:
    """Decode one binary frame body into the control frames' dict shape.

    ``names`` is the connection's receiver-side table; deltas carried by
    the frame are learned here, before any of its records is read.  The
    records themselves stay undecoded (:class:`TupleRecords`).  The body
    must be exactly one frame: bytes past its end are a protocol error.
    """
    reader = _Reader(body, pos=1)
    tag = body[0]
    if tag in (_TAG_INGEST_BATCH, _TAG_INGEST_BATCH_TRACED):
        req = reader.varint()
        source = reader.string()
        reader.skip(reader.varint())  # padding is load-shaping only
        _read_names(reader, names)
        frame: dict = {
            "t": "ingest_batch",
            "source": source,
            "tuples": _read_records(reader, names),
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
        frame = {
            "t": "decided",
            "apps": apps,
            "first_staged_ms": first_staged_ms,
            "flushed_ms": flushed_ms,
            "items": _read_records(reader, names),
        }
        if tag == _TAG_DECIDED_TRACED:
            frame["traces"] = _read_trace_map(reader)
    elif tag == _TAG_INGEST_OK:
        frame = {"t": "ok", "reply_to": reader.varint(), "emissions": reader.varint()}
    else:
        raise ProtocolError(f"unknown binary frame tag 0x{tag:02x}")
    if not reader.exhausted:
        raise ProtocolError(
            f"trailing bytes in binary frame: {len(body) - reader.pos} "
            f"after a complete {frame['t']!r} body"
        )
    return frame
