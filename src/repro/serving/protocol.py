"""The versioned, length-prefixed wire protocol of the network front.

One *frame* carries one request or one response::

    0:4    magic        b"JPSE"
    4:6    version      u16 big-endian (1 or 2; see below)
    6:10   header size  u32 big-endian (JSON object, UTF-8)
    10:18  payload size u64 big-endian (opaque binary, may be 0)
    18:    header bytes, then payload bytes

The JSON header routes the frame (``{"type": "ping"}``,
``{"type": "analyze_paths", "paths": [...]}``, ...); the binary payload
carries bulk data — inline clip archives on requests, result JSON on
bulk responses.  Multiple binary blobs (one per clip) are packed with
:func:`pack_blobs` / :func:`unpack_blobs`.

Version 2 keeps the byte layout of version 1 and adds two capabilities
on top of it (``docs/protocol.md`` is the normative spec):

* **request ids / pipelining** — a v2 request header may carry an
  ``id`` (JSON integer or string).  Replies echo the ``id`` verbatim,
  which lets one connection keep up to
  :data:`MAX_INFLIGHT_REQUESTS` requests in flight: the server answers
  in *completion* order and the client reorders by id.  Requests
  without an id (all v1 traffic included) are handled strictly in
  arrival order, which is exactly the version-1 behaviour — a v2
  server therefore still round-trips v1 clients unchanged.
* **streaming replies** — a ``stream_analyze`` request is answered by
  a sequence of per-frame ``stream_frame`` partial results followed by
  one final ``result`` frame (see :func:`frame_result_to_wire`).

Every malformed input maps to :class:`~repro.errors.ProtocolError` with a
``code`` and a ``recoverable`` flag: a frame whose bytes were fully
consumed (junk JSON, unknown fields) leaves the connection usable, while
anything that loses framing (bad magic, truncation, oversized prefixes,
foreign protocol versions) forces a close.  The fuzz suite in
``tests/test_serving_net_fuzz.py`` pins this contract.

Results round-trip exactly: :func:`clip_result_to_wire` serialises poses
by name and posteriors as JSON floats, and Python's ``json`` emits floats
via ``repr``, which round-trips every finite double bit-exactly — so a
decoded :class:`~repro.core.results.ClipResult` compares equal to the
server-side original.
"""

from __future__ import annotations

import json
import socket
import struct
from dataclasses import dataclass
from typing import BinaryIO

from repro.core.poses import Pose
from repro.core.results import ClipResult, FrameResult
from repro.errors import ProtocolError

PROTOCOL_MAGIC = b"JPSE"
#: The version this side emits by default (request ids + streaming).
PROTOCOL_VERSION = 2
#: Every version this side still reads; replies mirror the request's
#: version, so v1 peers keep seeing pure v1 traffic.
SUPPORTED_PROTOCOL_VERSIONS = (1, 2)

#: Per-connection ceiling on id-bearing requests awaiting their reply.
#: A request pipelined beyond it is answered with a recoverable
#: ``pipeline-overflow`` error instead of being queued unboundedly.
MAX_INFLIGHT_REQUESTS = 32

#: Hard ceilings on declared sizes; a prefix above these is hostile or
#: corrupt and is rejected before any allocation.
MAX_HEADER_BYTES = 1 << 20  # 1 MiB of JSON is already absurd
MAX_PAYLOAD_BYTES = 1 << 28  # 256 MiB of clip archives per request

_PREFIX = struct.Struct(">4sHIQ")
PREFIX_BYTES = _PREFIX.size  # 18

_BLOB_COUNT = struct.Struct(">I")
_BLOB_SIZE = struct.Struct(">Q")


@dataclass(frozen=True)
class Frame:
    """One decoded frame: routing header, opaque payload, wire version."""

    header: "dict[str, object]"
    payload: bytes = b""
    version: int = PROTOCOL_VERSION

    @property
    def request_id(self) -> "int | str | None":
        """The header's ``id`` field, if the frame carries one."""
        rid = self.header.get("id")
        return rid if isinstance(rid, (int, str)) else None


def frame_head(
    header: "dict[str, object]", payload: bytes, version: int
) -> bytes:
    """Validate sizes and build the prefix + header bytes of one frame.

    The payload follows these bytes unchanged on the wire.

    Raises:
        ProtocolError: an unknown ``version`` (``bad-version``), or a
            header or payload over its ceiling (``oversized-header`` /
            ``oversized-payload``).
    """
    if version not in SUPPORTED_PROTOCOL_VERSIONS:
        raise ProtocolError(
            f"cannot emit protocol version {version} "
            f"(supported: {SUPPORTED_PROTOCOL_VERSIONS})",
            code="bad-version",
        )
    header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
    if len(header_bytes) > MAX_HEADER_BYTES:
        raise ProtocolError(
            f"header of {len(header_bytes)} bytes exceeds the "
            f"{MAX_HEADER_BYTES}-byte limit",
            code="oversized-header",
        )
    if len(payload) > MAX_PAYLOAD_BYTES:
        raise ProtocolError(
            f"payload of {len(payload)} bytes exceeds the "
            f"{MAX_PAYLOAD_BYTES}-byte limit",
            code="oversized-payload",
        )
    prefix = _PREFIX.pack(
        PROTOCOL_MAGIC, version, len(header_bytes), len(payload)
    )
    return prefix + header_bytes


def encode_frame(
    header: "dict[str, object]",
    payload: bytes = b"",
    version: int = PROTOCOL_VERSION,
) -> bytes:
    """Serialise one frame to wire bytes (``version`` selects the tag)."""
    return frame_head(header, payload, version) + payload


def send_frame(
    sock: socket.socket,
    header: "dict[str, object]",
    payload: bytes = b"",
    version: int = PROTOCOL_VERSION,
) -> None:
    """Write one frame to a connected socket.

    The payload is sent as-is rather than concatenated into one buffer,
    so a near-ceiling payload is not copied a second time.  ``version``
    tags the frame — servers reply with the version the request used.
    """
    sock.sendall(frame_head(header, payload, version))
    if payload:
        sock.sendall(payload)


def _read_exact(reader: BinaryIO, n: int, what: str) -> bytes:
    """Read exactly ``n`` bytes or raise a truncation ProtocolError."""
    chunks: list[bytes] = []
    remaining = n
    while remaining:
        chunk = reader.read(remaining)
        if not chunk:
            got = n - remaining
            raise ProtocolError(
                f"connection closed mid-{what} ({got}/{n} bytes)",
                code="truncated",
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_frame(
    reader: BinaryIO, max_payload_bytes: int = MAX_PAYLOAD_BYTES
) -> "Frame | None":
    """Read one frame; ``None`` on a clean end-of-stream between frames.

    Raises :class:`~repro.errors.ProtocolError` on anything else — bad
    magic, foreign protocol version, oversized length prefixes, truncated
    header/payload, or a header that is not a JSON object.
    """
    first = reader.read(1)
    if not first:
        return None
    prefix = first + _read_exact(reader, PREFIX_BYTES - 1, "frame prefix")
    magic, version, header_size, payload_size = _PREFIX.unpack(prefix)
    if magic != PROTOCOL_MAGIC:
        raise ProtocolError(
            f"bad magic {magic!r} (expected {PROTOCOL_MAGIC!r})",
            code="bad-magic",
        )
    if version not in SUPPORTED_PROTOCOL_VERSIONS:
        raise ProtocolError(
            f"unsupported protocol version {version} (this side speaks "
            f"{' and '.join(str(v) for v in SUPPORTED_PROTOCOL_VERSIONS)})",
            code="bad-version",
        )
    if header_size > MAX_HEADER_BYTES:
        raise ProtocolError(
            f"declared header size {header_size} exceeds the "
            f"{MAX_HEADER_BYTES}-byte limit",
            code="oversized-header",
        )
    if payload_size > max_payload_bytes:
        raise ProtocolError(
            f"declared payload size {payload_size} exceeds the "
            f"{max_payload_bytes}-byte limit",
            code="oversized-payload",
        )
    header_bytes = _read_exact(reader, header_size, "header")
    payload = _read_exact(reader, payload_size, "payload")
    try:
        header = json.loads(header_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        # the frame was fully consumed, so the connection stays usable
        raise ProtocolError(
            f"header is not valid JSON: {exc}",
            code="bad-header",
            recoverable=True,
        ) from exc
    if not isinstance(header, dict):
        raise ProtocolError(
            f"header must be a JSON object, got {type(header).__name__}",
            code="bad-header",
            recoverable=True,
        )
    rid = header.get("id")
    if rid is not None:
        if version < 2:
            raise ProtocolError(
                "request ids require protocol version 2 "
                f"(this frame is tagged version {version})",
                code="bad-request",
                recoverable=True,
            )
        if not isinstance(rid, (int, str)) or isinstance(rid, bool):
            raise ProtocolError(
                f"'id' must be a JSON integer or string, "
                f"got {type(rid).__name__}",
                code="bad-request",
                recoverable=True,
            )
    return Frame(header=header, payload=payload, version=version)


# ----------------------------------------------------------------------
# Payload packing: many binary blobs in one payload
# ----------------------------------------------------------------------
def pack_blobs(blobs: "list[bytes]") -> bytes:
    """Concatenate binary blobs with a count + per-blob size framing."""
    parts = [_BLOB_COUNT.pack(len(blobs))]
    for blob in blobs:
        parts.append(_BLOB_SIZE.pack(len(blob)))
        parts.append(blob)
    return b"".join(parts)


def unpack_blobs(payload: bytes) -> "list[bytes]":
    """Invert :func:`pack_blobs`, validating every declared size."""
    if len(payload) < _BLOB_COUNT.size:
        raise ProtocolError(
            "payload too short for a blob count",
            code="bad-payload",
            recoverable=True,
        )
    (count,) = _BLOB_COUNT.unpack_from(payload, 0)
    offset = _BLOB_COUNT.size
    blobs: list[bytes] = []
    for index in range(count):
        if offset + _BLOB_SIZE.size > len(payload):
            raise ProtocolError(
                f"payload truncated before blob {index}'s size",
                code="bad-payload",
                recoverable=True,
            )
        (size,) = _BLOB_SIZE.unpack_from(payload, offset)
        offset += _BLOB_SIZE.size
        if offset + size > len(payload):
            raise ProtocolError(
                f"blob {index} declares {size} bytes but only "
                f"{len(payload) - offset} remain",
                code="bad-payload",
                recoverable=True,
            )
        blobs.append(payload[offset : offset + size])
        offset += size
    if offset != len(payload):
        raise ProtocolError(
            f"{len(payload) - offset} trailing bytes after the last blob",
            code="bad-payload",
            recoverable=True,
        )
    return blobs


# ----------------------------------------------------------------------
# Result codecs (one frame, one clip)
# ----------------------------------------------------------------------
def frame_result_to_wire(frame: FrameResult) -> "dict[str, object]":
    """A JSON-safe rendering of one frame result.

    The per-frame unit of both codecs: ``clip_result_to_wire`` embeds a
    list of these, and v2 ``stream_frame`` partial replies carry exactly
    one.  Poses travel by enum name; the posterior as a JSON float
    (``repr``-round-tripped, so it survives the wire bit-exactly).
    """
    return {
        "index": frame.index,
        "truth": frame.truth.name,
        "predicted": (
            None if frame.predicted is None else frame.predicted.name
        ),
        "posterior": float(frame.posterior),
    }


def frame_result_from_wire(entry: "dict[str, object]") -> FrameResult:
    """Invert :func:`frame_result_to_wire`.

    Raises:
        ProtocolError: missing or ill-typed fields, unknown pose names
            (code ``bad-result``, recoverable).
    """
    try:
        return FrameResult(
            index=int(entry["index"]),
            truth=Pose[entry["truth"]],
            predicted=(
                None if entry["predicted"] is None
                else Pose[entry["predicted"]]
            ),
            posterior=float(entry["posterior"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(
            f"malformed frame result: {exc}",
            code="bad-result",
            recoverable=True,
        ) from exc


def clip_result_to_wire(result: ClipResult) -> "dict[str, object]":
    """A JSON-safe rendering of one clip result.

    The ``quality`` block is informational: it is *derived* from the
    frames (see :meth:`~repro.core.results.ClipResult.quality`), so the
    decoder ignores it and recomputes on demand — the identity contract
    stays a statement about frames alone, and a peer that tampers with
    the block cannot make two equal results disagree on quality.
    """
    return {
        "clip_id": result.clip_id,
        "frames": [frame_result_to_wire(frame) for frame in result.frames],
        "quality": result.quality().as_dict(),
    }


def clip_result_from_wire(payload: "dict[str, object]") -> ClipResult:
    """Invert :func:`clip_result_to_wire`.

    Unknown keys — including the informational ``quality`` block — are
    ignored; quality is recomputed from the decoded frames when asked
    for, which keeps old and new peers interoperable.
    """
    try:
        entries = payload["frames"]
        clip_id = str(payload["clip_id"])
    except (KeyError, TypeError) as exc:
        raise ProtocolError(
            f"malformed clip result: {exc}",
            code="bad-result",
            recoverable=True,
        ) from exc
    if not isinstance(entries, list):
        raise ProtocolError(
            f"'frames' must be a list, got {type(entries).__name__}",
            code="bad-result",
            recoverable=True,
        )
    frames = tuple(frame_result_from_wire(entry) for entry in entries)
    try:
        return ClipResult(clip_id=clip_id, frames=frames)
    except Exception as exc:  # e.g. an empty frame tuple
        raise ProtocolError(
            f"malformed clip result: {exc}",
            code="bad-result",
            recoverable=True,
        ) from exc
