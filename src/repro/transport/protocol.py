"""Length-prefixed wire protocol for the dissemination gateway.

One frame on the wire is a 4-byte big-endian length header followed by
that many body bytes.  Protocol v6 has exactly one body format per frame
type: the tuple frames (``ingest_batch``, ``decided``) and the ``ok``
answering an ``ingest_batch`` are struct-packed binary
(:mod:`repro.transport.codec`, which has the layout tables); every
other frame — the control plane — is a UTF-8 JSON object.
A body whose first byte is ``{`` is JSON, any other first byte is a
binary frame tag, and a JSON body that claims a tuple-frame type is a
:class:`ProtocolError`.  Nothing is negotiated about the format.

Every frame decodes to a dict with a ``"t"`` type tag; request frames
carry a client-chosen ``"seq"`` and the server's response echoes it as
``"reply_to"``, so one connection can multiplex many outstanding
requests with unsolicited ``decided`` / ``closed`` delivery frames in
between.

The protocol is versioned at the handshake: the first frame on a
connection must be ``hello`` with ``"v" == PROTOCOL_VERSION``; the
server answers ``welcome`` (or ``error`` + close on a version or auth
mismatch — a v1 to v5 hello, from a peer that could still send JSON
tuple frames or single-tuple ``ingest`` frames, read one app per
``decided`` frame, read tuple records without their byte length, or
move a source's state as checkpoint rows, is refused with
``code=version``).

Frame vocabulary (client → server unless noted)::

    hello         {v, token?, features?}         -> welcome | error
    ensure_source {seq, source}                  -> ok {created}
    ingest_batch  {source, tuples, seq?, pad?}   -> ok {emissions}   (binary; when seq given)
    subscribe     {seq, app, source, spec, qos?,
                   degradation?, queue_capacity?,
                   overflow?, batch_max_items?,
                   batch_max_delay_ms?}
                                                 -> ok
    unsubscribe   {seq, app}                     -> ok (then closed)
    re_filter     {seq, app, spec}               -> ok
    tick          {seq?, now_ms}                 -> ok {emissions}
    snapshot      {seq, window?}                 -> snapshot {snapshot}
    export_source {seq, source, count}           -> ok {chunk, done}
    snapshot_source {seq, source, count}         -> ok {chunk, done}
    export_pull   {seq, source, offset, count}   -> ok {chunk, done}
    import_chunk  {seq, source, chunk, done}     -> ok (done: {restored})
    bye           {reason?}                      (either direction)

    welcome       {v, server, sources, features} (server → client)
    ok            {reply_to, ...}                (server → client)
    error         {reply_to?, code, message}     (server → client)
    decided       {apps, items, first_staged_ms,
                   flushed_ms}                   (server → client)
    qos_update    {app, action, level, spec,
                   signal, value, threshold}     (server → client)
    closed        {app, reason}                  (server → client)

``ingest_batch`` is the one ingest frame: it carries N ≥ 1 tuples, in
arrival order, and its ``ok`` reports the summed emission count.  It
may carry ``pad`` — throwaway bytes whose only purpose is to make the
wire frame approximate a real payload size (the load generator uses it
so TCP throughput numbers reflect the configured tuple size, not just
the attribute dictionary).  ``snapshot`` with ``window=true`` asks the
server to attach its raw decide-latency sliding window
(``decide_window_ms``) so a front-tier router can merge several
workers' windows into one honest percentile computation.

A source's state (``export_source`` detaches it, ``snapshot_source``
copies it) is one JSON text the transport never looks inside, sliced to
fit the frame bound: each reply carries a slice of at most ``count``
characters (:func:`state_slice_chars` of the caller's bound, capped by
the server's) and ``export_pull`` fetches the rest.  ``import_chunk``
stages slices the other way and its ``done`` slice imports.  A stash
belongs to its connection; a malformed slice, text or image is refused
with ``bad_request``.

``decided`` carries one batch once per connection: ``apps`` names
every subscription on the connection it is for (the members of one
sharing class, which receive the same tuples in the same batches).

``closed`` ends one subscription's ``decided`` stream, after its last
batch.  Its ``reason`` is ``unsubscribed`` (the app left),
``overflow_disconnect`` (a ``disconnect`` queue overflowed; the socket
closes too), ``frame_too_large`` (a batch encodes past the frame
bound), ``shutdown`` (the server is stopping), or ``migrated`` (an
``export_source`` moved the source away).  All but ``migrated`` are
final; a ``migrated`` stream continues wherever the source lands, which
a cluster router re-attaches it to.

The hello may offer ``features`` — protocol extensions.  The server
confirms the agreed subset in ``welcome`` (:func:`negotiate_features`);
an extension may only appear on the wire after both sides agreed.  The
defined features:

* ``"trace"``: sampled per-tuple stage-latency annotations
  (:mod:`repro.obs.trace`).  When negotiated, ``ingest_batch`` /
  ``decided`` may carry ``traces`` (a ``{seq: [[stage_id,
  duration_ns], ...]}`` map covering only the sampled tuples in the
  frame); :func:`traces_from_wire` normalizes it.
  Trace annotations are additive metadata — receivers that negotiated
  the feature but find no trace field simply record nothing.
* ``"qos"``: server-initiated graceful degradation.  ``subscribe`` may
  carry ``degradation`` — a :func:`repro.qos.controller.policy_to_profile` shape
  (``{levels, bandwidth_floors_kbps?, config?}``) handing the
  server a whole fallback ladder — and the server pushes an unsolicited
  ``qos_update`` frame per applied level transition, carrying the
  triggering signal as evidence.  Degradation itself is server-side
  policy: a server may accept ``degradation`` and adapt the session
  even for a client that did not negotiate ``qos``; only the
  ``qos_update`` notifications are gated on the agreement.

:class:`FrameDecoder` is sans-io: feed it whatever ``read()`` returned
— half a header, three frames glued together — and it yields exactly
the complete frames (as dicts, JSON or binary on the wire; a tuple frame's
records stay one undecoded :class:`~repro.transport.codec.TupleRecords`
view), enforcing
``max_frame_bytes`` *from the header* so an oversized frame is rejected
before its body is buffered.  A read loop iterates
:meth:`FrameDecoder.frames`, so it acts on every complete frame of a
chunk before a malformed one after them raises — what a peer sees does
not depend on how its bytes were split into reads.
"""

from __future__ import annotations

import json
import struct
import time
from typing import Iterator, Mapping

from repro.core.tuples import StreamTuple
from repro.service.batching import Batch, TraceMap

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_FRAME_BYTES",
    "FEATURE_QOS",
    "FEATURE_TRACE",
    "SUPPORTED_FEATURES",
    "ProtocolError",
    "FrameTooLarge",
    "encode_frame",
    "pack_header",
    "negotiate_features",
    "state_slice_chars",
    "FrameDecoder",
    "tuple_to_wire",
    "tuple_from_wire",
    "batch_from_wire",
    "traces_from_wire",
]

PROTOCOL_VERSION = 6

#: Frame types that only exist as binary bodies.
_TUPLE_FRAMES = frozenset(("ingest_batch", "decided"))

#: Optional protocol extension: sampled per-tuple trace annotations.
FEATURE_TRACE = "trace"

#: Optional protocol extension: degradation profiles in ``subscribe``
#: and server-pushed ``qos_update`` level-transition frames.
FEATURE_QOS = "qos"

#: Features this implementation understands (hello/welcome negotiation).
SUPPORTED_FEATURES = (FEATURE_TRACE, FEATURE_QOS)

#: Default per-frame ceiling.  Generous for batched deliveries, small
#: enough that one bad client cannot balloon broker memory.
MAX_FRAME_BYTES = 1 << 20

_HEADER = struct.Struct(">I")

#: Bytes a state slice's frame keeps for its fields besides the slice.
_SLICE_HEADROOM = 256

#: One encoder for every control frame: ``json.dumps`` with
#: non-default separators builds a new one per call.
_JSON = json.JSONEncoder(separators=(",", ":"))


class ProtocolError(Exception):
    """A malformed, unexpected or policy-violating frame."""

    def __init__(self, message: str, code: str = "protocol"):
        super().__init__(message)
        self.code = code


class FrameTooLarge(ProtocolError):
    """A frame header announced more bytes than ``max_frame_bytes``."""

    def __init__(self, size: int, limit: int):
        super().__init__(
            f"frame of {size} bytes exceeds the {limit}-byte limit",
            code="frame_too_large",
        )
        self.size = size
        self.limit = limit


def encode_frame(
    frame: Mapping, *, max_frame_bytes: int = MAX_FRAME_BYTES
) -> bytes:
    """Serialize one frame to header + JSON body bytes."""
    body = _JSON.encode(frame).encode("utf-8")
    if len(body) > max_frame_bytes:
        raise FrameTooLarge(len(body), max_frame_bytes)
    return _HEADER.pack(len(body)) + body


def negotiate_features(
    offered,
    supported: tuple = SUPPORTED_FEATURES,
) -> list[str]:
    """Server-side feature agreement: offered ∩ supported, offer order.

    ``None`` (a hello with no ``features`` key) or an unrecognized
    offer yields the empty agreement — nothing extension-gated may be
    sent to that peer.
    """
    if not offered:
        return []
    return [
        str(name)
        for name in offered
        if name in supported and name in SUPPORTED_FEATURES
    ]


def state_slice_chars(max_frame_bytes: int) -> int:
    """Characters of a state's JSON text one frame carries: the text is
    ASCII, and the frame's encoding at most doubles it (``"`` and ``\\``
    become two characters)."""
    return max(1, (max_frame_bytes - _SLICE_HEADROOM) // 2)


def pack_header(size: int) -> bytes:
    """The 4-byte length header for a ``size``-byte body.

    Used by the encode-once fan-out path, which queues the header and a
    list of shared body pieces for the connection's next flush instead
    of concatenating each frame on its own."""
    return _HEADER.pack(size)


class FrameDecoder:
    """Incremental frame reassembly over an arbitrary byte-chunk feed.

    TCP gives back bytes, not frames: a ``read()`` may return half a
    header, a header plus part of a body, or several frames coalesced.
    The decoder buffers across :meth:`feed` calls and yields only
    complete frames, in order.
    """

    def __init__(self, *, max_frame_bytes: int = MAX_FRAME_BYTES):
        # Imported here, once per decoder: codec.py imports this
        # module's error types.
        from repro.transport.codec import BinaryNames, decode_binary_body

        self.max_frame_bytes = max_frame_bytes
        self._buffer = bytearray()
        #: Receiver-side attribute-name table for binary frames.
        self._binary_names = BinaryNames()
        self._decode_binary = decode_binary_body

    @property
    def buffered(self) -> int:
        """Bytes currently held waiting for a frame to complete."""
        return len(self._buffer)

    def feed(self, data: bytes) -> list[dict]:
        """Absorb one chunk; return every frame it completed (maybe [])."""
        return list(self.frames(data))

    def frames(self, data: bytes) -> Iterator[dict]:
        """Absorb one chunk; yield every frame it completed, in order.

        A malformed frame raises when the iteration reaches it, after
        the frames before it were yielded.
        """
        self._buffer.extend(data)
        return self._drain()

    def _drain(self) -> Iterator[dict]:
        buffer = self._buffer
        while len(buffer) >= _HEADER.size:
            (size,) = _HEADER.unpack_from(buffer)
            if size > self.max_frame_bytes:
                # Reject from the header alone: the body is never
                # buffered, so a hostile length cannot balloon memory.
                raise FrameTooLarge(size, self.max_frame_bytes)
            end = _HEADER.size + size
            if len(buffer) < end:
                return
            with memoryview(buffer) as view:
                body = bytes(view[_HEADER.size : end])
            del buffer[:end]
            if not body:
                raise ProtocolError("empty frame body")
            if body[0] == 0x7B:  # "{" — a JSON control frame
                try:
                    frame = json.loads(body.decode("utf-8"))
                except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                    raise ProtocolError(f"undecodable frame body: {exc}") from exc
                if not isinstance(frame, dict) or "t" not in frame:
                    raise ProtocolError("a frame must be an object with a 't' tag")
                kind = frame["t"]
                if isinstance(kind, str) and kind in _TUPLE_FRAMES:
                    raise ProtocolError(
                        f"{kind!r} frames are binary; a JSON body cannot "
                        "carry one"
                    )
            else:
                frame = self._decode_binary(body, self._binary_names)
            yield frame


# ---------------------------------------------------------------------------
# Payload codecs
# ---------------------------------------------------------------------------
def tuple_to_wire(item: StreamTuple) -> dict:
    return {"seq": item.seq, "ts": item.timestamp, "values": dict(item.values)}


def tuple_from_wire(payload) -> StreamTuple:
    # The binary codec decodes tuple records straight to StreamTuples;
    # dict payloads are tuple_to_wire's JSON shape.
    if isinstance(payload, StreamTuple):
        return payload
    try:
        return StreamTuple(
            seq=int(payload["seq"]),
            timestamp=float(payload["ts"]),
            values={str(k): float(v) for k, v in payload["values"].items()},
        )
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ProtocolError(f"malformed tuple payload: {exc!r}") from exc


def batch_from_wire(payload: Mapping, *, relay: bool = False) -> Batch:
    """The batch a ``decided`` frame carries.

    A decoded frame's records view builds its tuples here, unless
    ``relay`` keeps it undecoded for an encoder that forwards its bytes
    (a cluster router's worker connections)."""
    try:
        items = payload["items"]
        if not isinstance(items, (list, tuple)):
            decoded = items if relay else tuple(items)
        else:
            decoded = tuple(tuple_from_wire(item) for item in items)
        batch = Batch(
            items=decoded,
            first_staged_ms=float(payload["first_staged_ms"]),
            flushed_ms=float(payload["flushed_ms"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed batch payload: {exc!r}") from exc
    tmap = traces_from_wire(payload) if "traces" in payload else None
    # Marked at decode: the receiving hop's next stage starts here.
    return batch.with_traces((time.perf_counter_ns(), tmap)) if tmap else batch


def traces_from_wire(frame: Mapping) -> TraceMap:
    """Normalize a frame's ``traces`` map to ``{seq: ((sid, ns), ...)}``.

    Returns ``{}`` when the frame carries no annotations; malformed
    annotations are dropped rather than failing the frame — traces are
    advisory.
    """
    out: TraceMap = {}
    raw = frame.get("traces")
    if isinstance(raw, Mapping):
        for key, pairs in raw.items():
            try:
                out[int(key)] = tuple((int(sid), int(ns)) for sid, ns in pairs)
            except (TypeError, ValueError):
                continue
    return out
