"""Length-prefixed wire framing for the device-facing frontend.

This module is the *implementation* of the wire format; the normative
specification lives in ``docs/protocol.md`` and every byte table there is
asserted against the structs below by the conformance test in
``tests/test_docs.py``.  When the two disagree, the document wins: fix the
code (or amend the spec *and* bump :data:`PROTOCOL_VERSION`).

Layout summary (``docs/protocol.md`` §3):

* every frame is an 8-byte header — ``u32 length | u8 type | u8 flags |
  u16 reserved`` — followed by ``length`` body bytes (§3.1);
* multi-byte integers and floats are big-endian (network byte order);
* gradients and model parameters travel as self-describing codec blobs
  (§3.3): the :class:`~repro.server.codec.VectorCodec` wire form (dtype
  code, element count, deflate payload) or a top-k sparse payload;
* the first frame on a connection MUST be ``HELLO`` (§4); a server that
  cannot speak the client's version answers ``ERROR`` code 2 and closes.

Everything here is pure bytes-in/bytes-out: no sockets, no clocks, no
I/O — the asyncio server (:mod:`repro.frontend.server`) and the load
generator (:mod:`repro.frontend.loadgen`) both sit on top of it, and the
torn-frame tests drive :class:`FrameDecoder` one byte at a time.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass

import numpy as np

from repro.server.codec import EncodedBlob, VectorCodec
from repro.server.protocol import (
    RejectionReason,
    TaskAssignment,
    TaskRejection,
    TaskRequest,
    TaskResult,
)
from repro.server.sparsification import SparseGradient
from repro.devices.device import DeviceFeatures

__all__ = [
    "MAGIC",
    "PROTOCOL_VERSION",
    "DEFAULT_MAX_FRAME_BYTES",
    "FRAME_HEADER",
    "FrameType",
    "ErrorCode",
    "GoodbyeReason",
    "OverloadScope",
    "ProtocolError",
    "FrameDecoder",
    "Hello",
    "Welcome",
    "Rejection",
    "ResultAck",
    "Overloaded",
    "Goodbye",
    "WireError",
    "pack_hello",
    "unpack_hello",
    "pack_welcome",
    "unpack_welcome",
    "pack_request",
    "unpack_request",
    "pack_assignment",
    "unpack_assignment",
    "pack_rejection",
    "unpack_rejection",
    "pack_result",
    "unpack_result",
    "pack_result_ack",
    "unpack_result_ack",
    "pack_overloaded",
    "unpack_overloaded",
    "pack_goodbye",
    "unpack_goodbye",
    "pack_error",
    "unpack_error",
]

#: Handshake magic — ASCII ``FLT1`` (docs/protocol.md §4.1).
MAGIC = 0x464C5431
#: Wire protocol version this implementation speaks (docs/protocol.md §2).
PROTOCOL_VERSION = 1
#: Hard ceiling on one frame's body; an advertised or received length
#: beyond this is a protocol error, not an allocation (§3.1).
DEFAULT_MAX_FRAME_BYTES = 16 * 1024 * 1024

# ---------------------------------------------------------------------------
# Fixed binary layouts (docs/protocol.md §3, §5 — sizes asserted by the
# conformance test).  All big-endian.
# ---------------------------------------------------------------------------
#: ``u32 length | u8 type | u8 flags | u16 reserved`` (§3.1, 8 bytes).
FRAME_HEADER = struct.Struct(">IBBH")
#: ``u32 magic | u16 version | u16 max_inflight | u32 worker_id |
#: u16 model_len`` (§5.1, 14 bytes + model_len UTF-8 bytes).
HELLO_BODY = struct.Struct(">IHHIH")
#: ``u16 version | u16 max_inflight | u32 max_frame_bytes |
#: u32 session_id`` (§5.2, 12 bytes).
WELCOME_BODY = struct.Struct(">HHII")
#: ``u32 seq | 5×f64 features | u32 num_labels`` (§5.3, 48 bytes +
#: num_labels × f64 label counts).
REQUEST_BODY = struct.Struct(">I5dI")
#: ``u32 seq | u64 pull_step | u32 batch_size | f64 similarity`` (§5.4,
#: 24 bytes + parameter blob).
ASSIGNMENT_BODY = struct.Struct(">IQId")
#: ``u32 seq | u8 reason | u32 batch_size | f64 similarity`` (§5.5,
#: 17 bytes).
REJECTION_BODY = struct.Struct(">IBId")
#: ``u32 seq | u64 pull_step | u32 batch_size | f64 computation_time_s |
#: f64 energy_percent | 5×f64 features | u32 num_labels`` (§5.6, 76 bytes
#: + label counts + gradient blob).
RESULT_BODY = struct.Struct(">IQIdd5dI")
#: ``u32 seq | u8 applied`` (§5.7, 5 bytes).
RESULT_ACK_BODY = struct.Struct(">IB")
#: ``u32 seq | u8 scope | f32 retry_after_s`` (§5.8, 9 bytes).
OVERLOADED_BODY = struct.Struct(">IBf")
#: ``u8 reason`` (§5.9, 1 byte).
GOODBYE_BODY = struct.Struct(">B")
#: ``u16 code | u16 detail_len`` (§5.10, 4 bytes + detail UTF-8 bytes).
ERROR_BODY = struct.Struct(">HH")
#: Codec blob: ``u8 dtype | u32 length | u32 payload_len`` (§3.3, 9 bytes
#: + payload_len payload bytes).
BLOB_HEADER = struct.Struct(">BII")
#: Sparse blob payload prefix: ``u32 dimension | u32 k`` (§3.4, 8 bytes +
#: k × u32 indices + k × f32 values).
SPARSE_HEADER = struct.Struct(">II")


class FrameType(enum.IntEnum):
    """Frame type codes (docs/protocol.md §3.2)."""

    HELLO = 0x01
    WELCOME = 0x02
    REQUEST = 0x03
    ASSIGNMENT = 0x04
    REJECTION = 0x05
    RESULT = 0x06
    RESULT_ACK = 0x07
    OVERLOADED = 0x08
    GOODBYE = 0x09
    ERROR = 0x0A


class ErrorCode(enum.IntEnum):
    """``ERROR`` frame codes (docs/protocol.md §6.1)."""

    BAD_MAGIC = 1
    VERSION_MISMATCH = 2
    MALFORMED_FRAME = 3
    UNKNOWN_FRAME_TYPE = 4
    FRAME_TOO_LARGE = 5
    HANDSHAKE_REQUIRED = 6
    INTERNAL = 7


class GoodbyeReason(enum.IntEnum):
    """``GOODBYE`` reason codes (docs/protocol.md §5.9)."""

    CLIENT_DONE = 0
    SERVER_DRAINING = 1


class OverloadScope(enum.IntEnum):
    """``OVERLOADED`` scope codes (docs/protocol.md §6.2)."""

    WINDOW = 1
    ADMISSION = 2
    DRAINING = 3


#: Rejection reason wire codes (docs/protocol.md §6.3): the typed
#: rejection frame carries the *server-side* admission verdict.
REJECTION_CODE: dict[RejectionReason, int] = {
    RejectionReason.BATCH_TOO_SMALL: 1,
    RejectionReason.SIMILARITY_TOO_HIGH: 2,
    RejectionReason.OVERLOADED: 3,
}
REASON_FOR_CODE = {code: reason for reason, code in REJECTION_CODE.items()}

#: Codec dtype wire codes (docs/protocol.md §3.3).  Codes 0–2 are the
#: :class:`VectorCodec` precisions; 3 is the top-k sparse form.
DTYPE_CODE = {"f64": 0, "f32": 1, "f16": 2}
CODE_DTYPE = {code: name for name, code in DTYPE_CODE.items()}
SPARSE_CODE = 3

#: Order of the :class:`DeviceFeatures` fields inside the 5×f64 feature
#: block of REQUEST/RESULT bodies (docs/protocol.md §5.3).
FEATURE_FIELDS = (
    "available_memory_mb",
    "total_memory_mb",
    "temperature_c",
    "sum_max_freq_ghz",
    "energy_per_cpu_second",
)


class ProtocolError(Exception):
    """A malformed or illegal frame; ``code`` maps onto the ERROR frame."""

    def __init__(self, code: ErrorCode, detail: str) -> None:
        super().__init__(detail)
        self.code = code
        self.detail = detail


# ---------------------------------------------------------------------------
# Frame-level plumbing
# ---------------------------------------------------------------------------
def pack_frame(ftype: int, body: bytes, flags: int = 0) -> bytes:
    """Prefix ``body`` with the 8-byte frame header."""
    return FRAME_HEADER.pack(len(body), ftype, flags, 0) + body


class FrameDecoder:
    """Incremental frame extraction from a byte stream.

    Feed arbitrary chunks (down to single bytes — TCP guarantees nothing
    about segmentation) and receive complete ``(type, flags, body)``
    frames; partial frames stay buffered until their remainder arrives.
    ``pending_bytes`` exposes the buffered remainder so a connection
    closing mid-frame is detectable as a *torn* disconnect
    (docs/protocol.md §7.3).
    """

    def __init__(self, max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES) -> None:
        if max_frame_bytes <= 0:
            raise ValueError("max_frame_bytes must be positive")
        self.max_frame_bytes = max_frame_bytes
        self._buffer = bytearray()

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered toward a frame that has not completed."""
        return len(self._buffer)

    def feed(self, data: bytes) -> list[tuple[int, int, bytes]]:
        """Absorb ``data``; return every frame it completed, in order.

        Raises :class:`ProtocolError` (FRAME_TOO_LARGE / MALFORMED_FRAME)
        on a header that can never become a legal frame; the connection
        is unrecoverable past that point — framing has lost sync.
        """
        self._buffer.extend(data)
        frames: list[tuple[int, int, bytes]] = []
        while len(self._buffer) >= FRAME_HEADER.size:
            length, ftype, flags, reserved = FRAME_HEADER.unpack_from(
                self._buffer
            )
            if length > self.max_frame_bytes:
                raise ProtocolError(
                    ErrorCode.FRAME_TOO_LARGE,
                    f"frame body of {length} bytes exceeds the "
                    f"{self.max_frame_bytes}-byte limit",
                )
            if reserved != 0:
                raise ProtocolError(
                    ErrorCode.MALFORMED_FRAME,
                    "reserved header field must be zero",
                )
            if len(self._buffer) < FRAME_HEADER.size + length:
                break
            body = bytes(
                self._buffer[FRAME_HEADER.size : FRAME_HEADER.size + length]
            )
            del self._buffer[: FRAME_HEADER.size + length]
            frames.append((ftype, flags, body))
        return frames


def _require(condition: bool, detail: str) -> None:
    if not condition:
        raise ProtocolError(ErrorCode.MALFORMED_FRAME, detail)


# ---------------------------------------------------------------------------
# Codec blobs (§3.3 / §3.4)
# ---------------------------------------------------------------------------
def pack_blob(gradient: np.ndarray | SparseGradient, codec: VectorCodec) -> bytes:
    """Encode a dense vector (via the codec) or a sparse payload."""
    if isinstance(gradient, SparseGradient):
        payload = (
            SPARSE_HEADER.pack(gradient.dimension, gradient.values.size)
            + np.ascontiguousarray(gradient.indices, dtype=">u4").tobytes()
            + np.ascontiguousarray(gradient.values, dtype=">f4").tobytes()
        )
        header = BLOB_HEADER.pack(SPARSE_CODE, gradient.values.size, len(payload))
        return header + payload
    blob = codec.encode(gradient)
    header = BLOB_HEADER.pack(DTYPE_CODE[blob.dtype], blob.length, len(blob.payload))
    return header + blob.payload


def unpack_blob(
    body: bytes, offset: int, codec: VectorCodec, dimension: int | None = None
) -> tuple[np.ndarray | SparseGradient, int]:
    """Decode one blob at ``offset``; return (vector, next offset).

    ``dimension`` (the receiver's model size D) bounds what the sender
    declares: a blob sized for any other model is refused before any
    inflate or allocation.
    """
    _require(len(body) >= offset + BLOB_HEADER.size, "truncated blob header")
    code, length, payload_len = BLOB_HEADER.unpack_from(body, offset)
    offset += BLOB_HEADER.size
    _require(len(body) >= offset + payload_len, "truncated blob payload")
    if dimension is not None:
        # A dense blob holds exactly D values, a sparse one at most D of D.
        sparse = code == SPARSE_CODE and payload_len >= SPARSE_HEADER.size
        size = SPARSE_HEADER.unpack_from(body, offset)[0] if sparse else length
        _require(size == dimension >= length, f"blob of size {size}, model of {dimension}")
    payload = body[offset : offset + payload_len]
    offset += payload_len
    if code == SPARSE_CODE:
        _require(payload_len >= SPARSE_HEADER.size, "truncated sparse header")
        dimension, k = SPARSE_HEADER.unpack_from(payload)
        _require(k == length, "sparse k does not match blob length")
        expected = SPARSE_HEADER.size + k * 8
        _require(payload_len == expected, "sparse payload size mismatch")
        indices = np.frombuffer(
            payload, dtype=">u4", count=k, offset=SPARSE_HEADER.size
        ).astype(np.int64)
        values = np.frombuffer(
            payload, dtype=">f4", count=k, offset=SPARSE_HEADER.size + 4 * k
        ).astype(np.float64)
        try:
            return SparseGradient(indices=indices, values=values, dimension=dimension), offset
        except ValueError as exc:
            raise ProtocolError(ErrorCode.MALFORMED_FRAME, str(exc)) from exc
    _require(code in CODE_DTYPE, f"unknown blob dtype code {code}")
    blob = EncodedBlob(payload=bytes(payload), dtype=CODE_DTYPE[code], length=length)
    try:
        return codec.decode(blob), offset
    except Exception as exc:  # zlib.error / length mismatch
        raise ProtocolError(
            ErrorCode.MALFORMED_FRAME, f"undecodable blob: {exc}"
        ) from exc


def _pack_features(features: DeviceFeatures) -> tuple[float, ...]:
    return tuple(getattr(features, name) for name in FEATURE_FIELDS)


def _unpack_features(values: tuple[float, ...]) -> DeviceFeatures:
    return DeviceFeatures(**dict(zip(FEATURE_FIELDS, values)))


def _pack_labels(label_counts: np.ndarray) -> bytes:
    return np.ascontiguousarray(label_counts, dtype=">f8").tobytes()


def _unpack_labels(body: bytes, offset: int, count: int) -> tuple[np.ndarray, int]:
    _require(len(body) >= offset + 8 * count, "truncated label counts")
    labels = np.frombuffer(body, dtype=">f8", count=count, offset=offset)
    return labels.astype(np.float64), offset + 8 * count


# ---------------------------------------------------------------------------
# Handshake (§4, §5.1–5.2)
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Hello:
    """Decoded HELLO: the device's identity and requested window."""

    worker_id: int
    device_model: str
    version: int = PROTOCOL_VERSION
    max_inflight: int = 0  # 0 = accept the server default


@dataclass(frozen=True)
class Welcome:
    """Decoded WELCOME: the server's granted limits."""

    version: int
    max_inflight: int
    max_frame_bytes: int
    session_id: int


def pack_hello(hello: Hello) -> bytes:
    model = hello.device_model.encode("utf-8")
    body = (
        HELLO_BODY.pack(
            MAGIC, hello.version, hello.max_inflight, hello.worker_id, len(model)
        )
        + model
    )
    return pack_frame(FrameType.HELLO, body)


def unpack_hello(body: bytes) -> Hello:
    _require(len(body) >= HELLO_BODY.size, "truncated HELLO")
    magic, version, max_inflight, worker_id, model_len = HELLO_BODY.unpack_from(body)
    if magic != MAGIC:
        raise ProtocolError(
            ErrorCode.BAD_MAGIC, f"bad magic 0x{magic:08X} (want 0x{MAGIC:08X})"
        )
    _require(len(body) == HELLO_BODY.size + model_len, "HELLO length mismatch")
    model = bytes(body[HELLO_BODY.size : HELLO_BODY.size + model_len]).decode(
        "utf-8", errors="replace"
    )
    return Hello(
        worker_id=worker_id,
        device_model=model,
        version=version,
        max_inflight=max_inflight,
    )


def pack_welcome(welcome: Welcome) -> bytes:
    body = WELCOME_BODY.pack(
        welcome.version,
        welcome.max_inflight,
        welcome.max_frame_bytes,
        welcome.session_id,
    )
    return pack_frame(FrameType.WELCOME, body)


def unpack_welcome(body: bytes) -> Welcome:
    _require(len(body) == WELCOME_BODY.size, "WELCOME length mismatch")
    version, max_inflight, max_frame_bytes, session_id = WELCOME_BODY.unpack(body)
    return Welcome(
        version=version,
        max_inflight=max_inflight,
        max_frame_bytes=max_frame_bytes,
        session_id=session_id,
    )


# ---------------------------------------------------------------------------
# Request / assignment / rejection (§5.3–5.5)
# ---------------------------------------------------------------------------
def pack_request(seq: int, request: TaskRequest) -> bytes:
    labels = np.asarray(request.label_counts, dtype=np.float64)
    body = (
        REQUEST_BODY.pack(seq, *_pack_features(request.features), labels.size)
        + _pack_labels(labels)
    )
    return pack_frame(FrameType.REQUEST, body)


def unpack_request(
    body: bytes, worker_id: int, device_model: str
) -> tuple[int, TaskRequest]:
    _require(len(body) >= REQUEST_BODY.size, "truncated REQUEST")
    fields = REQUEST_BODY.unpack_from(body)
    seq, features, num_labels = fields[0], fields[1:6], fields[6]
    labels, offset = _unpack_labels(body, REQUEST_BODY.size, num_labels)
    _require(offset == len(body), "REQUEST length mismatch")
    request = TaskRequest(
        worker_id=worker_id,
        device_model=device_model,
        features=_unpack_features(features),
        label_counts=labels,
    )
    return seq, request


def pack_assignment(
    seq: int, assignment: TaskAssignment, codec: VectorCodec
) -> bytes:
    body = (
        ASSIGNMENT_BODY.pack(
            seq,
            assignment.pull_step,
            assignment.batch_size,
            float(assignment.similarity),
        )
        + pack_blob(assignment.parameters, codec)
    )
    return pack_frame(FrameType.ASSIGNMENT, body)


def unpack_assignment(
    body: bytes, codec: VectorCodec
) -> tuple[int, TaskAssignment]:
    _require(len(body) >= ASSIGNMENT_BODY.size, "truncated ASSIGNMENT")
    seq, pull_step, batch_size, similarity = ASSIGNMENT_BODY.unpack_from(body)
    parameters, offset = unpack_blob(body, ASSIGNMENT_BODY.size, codec)
    _require(offset == len(body), "ASSIGNMENT length mismatch")
    assignment = TaskAssignment(
        parameters=parameters,
        pull_step=pull_step,
        batch_size=batch_size,
        similarity=similarity,
    )
    return seq, assignment


@dataclass(frozen=True)
class Rejection:
    """Decoded REJECTION: the server's typed admission verdict."""

    seq: int
    reason: RejectionReason
    batch_size: int
    similarity: float


def pack_rejection(seq: int, rejection: TaskRejection) -> bytes:
    body = REJECTION_BODY.pack(
        seq,
        REJECTION_CODE[rejection.reason],
        rejection.batch_size,
        float(rejection.similarity),
    )
    return pack_frame(FrameType.REJECTION, body)


def unpack_rejection(body: bytes) -> Rejection:
    _require(len(body) == REJECTION_BODY.size, "REJECTION length mismatch")
    seq, code, batch_size, similarity = REJECTION_BODY.unpack(body)
    _require(code in REASON_FOR_CODE, f"unknown rejection code {code}")
    return Rejection(
        seq=seq,
        reason=REASON_FOR_CODE[code],
        batch_size=batch_size,
        similarity=similarity,
    )


# ---------------------------------------------------------------------------
# Result / ack / overload (§5.6–5.8)
# ---------------------------------------------------------------------------
def pack_result(seq: int, result: TaskResult, codec: VectorCodec) -> bytes:
    labels = np.asarray(result.label_counts, dtype=np.float64)
    body = (
        RESULT_BODY.pack(
            seq,
            result.pull_step,
            result.batch_size,
            float(result.computation_time_s),
            float(result.energy_percent),
            *_pack_features(result.features),
            labels.size,
        )
        + _pack_labels(labels)
        + pack_blob(result.gradient, codec)
    )
    return pack_frame(FrameType.RESULT, body)


def unpack_result(
    body: bytes, worker_id: int, device_model: str, codec: VectorCodec,
    dimension: int | None = None,
) -> tuple[int, TaskResult]:
    _require(len(body) >= RESULT_BODY.size, "truncated RESULT")
    fields = RESULT_BODY.unpack_from(body)
    seq, pull_step, batch_size = fields[0], fields[1], fields[2]
    _require(batch_size >= 1, "RESULT batch_size must be at least 1")
    computation_time_s, energy_percent = fields[3], fields[4]
    features, num_labels = fields[5:10], fields[10]
    labels, offset = _unpack_labels(body, RESULT_BODY.size, num_labels)
    gradient, offset = unpack_blob(body, offset, codec, dimension)
    _require(offset == len(body), "RESULT length mismatch")
    result = TaskResult(
        worker_id=worker_id,
        device_model=device_model,
        features=_unpack_features(features),
        pull_step=pull_step,
        gradient=gradient,
        label_counts=labels,
        batch_size=batch_size,
        computation_time_s=computation_time_s,
        energy_percent=energy_percent,
    )
    return seq, result


@dataclass(frozen=True)
class ResultAck:
    """Decoded RESULT_ACK: the upload is accepted and will be applied."""

    seq: int
    applied: bool


def pack_result_ack(seq: int, applied: bool) -> bytes:
    return pack_frame(FrameType.RESULT_ACK, RESULT_ACK_BODY.pack(seq, int(applied)))


def unpack_result_ack(body: bytes) -> ResultAck:
    _require(len(body) == RESULT_ACK_BODY.size, "RESULT_ACK length mismatch")
    seq, applied = RESULT_ACK_BODY.unpack(body)
    return ResultAck(seq=seq, applied=bool(applied))


@dataclass(frozen=True)
class Overloaded:
    """Decoded OVERLOADED: explicit backpressure instead of a silent drop."""

    seq: int
    scope: OverloadScope
    retry_after_s: float


def pack_overloaded(seq: int, scope: OverloadScope, retry_after_s: float) -> bytes:
    return pack_frame(
        FrameType.OVERLOADED, OVERLOADED_BODY.pack(seq, int(scope), retry_after_s)
    )


def unpack_overloaded(body: bytes) -> Overloaded:
    _require(len(body) == OVERLOADED_BODY.size, "OVERLOADED length mismatch")
    seq, scope, retry_after_s = OVERLOADED_BODY.unpack(body)
    _require(scope in OverloadScope._value2member_map_, f"unknown scope {scope}")
    return Overloaded(
        seq=seq, scope=OverloadScope(scope), retry_after_s=retry_after_s
    )


# ---------------------------------------------------------------------------
# Close + errors (§5.9–5.10)
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Goodbye:
    """Decoded GOODBYE: an orderly close with its reason."""

    reason: GoodbyeReason


def pack_goodbye(reason: GoodbyeReason) -> bytes:
    return pack_frame(FrameType.GOODBYE, GOODBYE_BODY.pack(int(reason)))


def unpack_goodbye(body: bytes) -> Goodbye:
    _require(len(body) == GOODBYE_BODY.size, "GOODBYE length mismatch")
    (reason,) = GOODBYE_BODY.unpack(body)
    _require(
        reason in GoodbyeReason._value2member_map_,
        f"unknown goodbye reason {reason}",
    )
    return Goodbye(reason=GoodbyeReason(reason))


@dataclass(frozen=True)
class WireError:
    """Decoded ERROR: the peer saw an illegal frame and will close."""

    code: ErrorCode
    detail: str


def pack_error(code: ErrorCode, detail: str) -> bytes:
    text = detail.encode("utf-8")[:1024]
    return pack_frame(FrameType.ERROR, ERROR_BODY.pack(int(code), len(text)) + text)


def unpack_error(body: bytes) -> WireError:
    _require(len(body) >= ERROR_BODY.size, "truncated ERROR")
    code, detail_len = ERROR_BODY.unpack_from(body)
    _require(len(body) == ERROR_BODY.size + detail_len, "ERROR length mismatch")
    detail = bytes(body[ERROR_BODY.size :]).decode("utf-8", errors="replace")
    known = code in ErrorCode._value2member_map_
    return WireError(code=ErrorCode(code) if known else ErrorCode.INTERNAL, detail=detail)
