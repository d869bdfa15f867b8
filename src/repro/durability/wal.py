"""Write-ahead applied-log: CRC-framed binary segments with rotation.

Every delivery the server folds into its model is logged *before* the
fold (`FleetServer._deliver` calls :meth:`WriteAheadLog.log_apply`), and
every external parameter overwrite — a gateway sync broadcast, a join
blend — is logged as a ``params`` record
(:meth:`WriteAheadLog.log_parameters`).  Replaying the records against a
fresh shard built from the same factory reproduces the optimizer state
bit for bit (see :mod:`repro.durability.restore`): gradients are stored
as raw float64 bytes, so no quantization sneaks in between the live fold
and the replayed one.

**Record framing.**  A segment file starts with a 4-byte magic; each
record is::

    u32 payload_length | u32 crc32(payload) | payload

and the payload is a fixed 28-byte binary header followed by the body::

    u8 kind | u8 flags | u16 count | u32 dim | u32 num_labels
    | i64 seq | i64 clock | body

where ``kind`` is 1 (apply) or 2 (params), flag bit 0 is the delivery's
``batched`` flag, and flag bit 1 says the body is zlib-compressed.
The appender always writes raw bodies — float64 gradient mantissas are
incompressible, and the WAL sits on the ``handle_result_batch`` fold
path — but the reader still inflates flagged bodies, so logs written by
earlier builds with a compression level restore unchanged.  The body
packs the record's arrays back to back as raw little-endian bytes.  A torn tail (the process died
mid-append) fails either the length read or the CRC and reading simply
stops there — every fully framed record before it is intact by
construction, because records are only ever appended.  Reopening a
directory truncates any torn tail to its intact prefix: readers stop at
the first torn record, so a torn byte range left in place would hide
every record appended after recovery from the *next* recovery.

**Reading.**  Every reader goes through one frame scanner
(``_SegmentScan``), which reads a segment one record at a time,
CRC-checks each payload and stops at the first tear.  Bodies are
decoded only on request: reopening a log (to truncate a torn tail and
learn ``next_seq``) and :func:`wal_summary` read headers alone, and
:func:`iter_records` decodes just the records at or past its
``start_seq``.  Reopen, restore and inspection therefore hold one frame
(plus the record being handed out) at a time, however long the log has
grown; only :func:`read_records`, for tests and tooling, lists a tail.

**Rotation.**  When the open segment exceeds ``segment_max_bytes`` the
next record starts a new file named after its first sequence number
(``wal-00000042.seg``), so readers recover global order from file names
alone and checkpoint-driven truncation can drop whole prefix segments.
"""

from __future__ import annotations

import math
import os
import struct
import zlib
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from repro.core.adasgd import GradientUpdate

__all__ = [
    "WalRecord",
    "WriteAheadLog",
    "iter_records",
    "read_records",
    "wal_summary",
]

_MAGIC = b"FWAL"
_FRAME = struct.Struct("<II")  # payload length, crc32
# kind, flags, count, dim, num_labels, seq, clock — the whole record
# header in one fixed 28-byte pack, no serialization pass on append.
_HEADER = struct.Struct("<BBHIIqq")
_KIND_APPLY = 1
_KIND_PARAMS = 2
_FLAG_BATCHED = 1
_FLAG_ZLIB = 2
_SEGMENT_GLOB = "wal-*.seg"
_IOV_MAX = os.sysconf("SC_IOV_MAX")


def _writev_all(fd: int, buffers: tuple, total: int) -> None:
    """Write every buffer to ``fd``, finishing a partial writev if any.

    The kernel refuses a writev of more than ``IOV_MAX`` buffers, and a
    large delivery (2B + 5 buffers for B rows) can exceed it, so longer
    tuples go out in ``IOV_MAX``-sized groups — same bytes, same order.
    Regular-file writev is effectively all-or-nothing on Linux, but the
    contract only promises *some* bytes — fall back to a plain tail
    write for the remainder rather than leave a torn record behind.
    """
    if len(buffers) > _IOV_MAX:
        for start in range(0, len(buffers), _IOV_MAX):
            group = buffers[start : start + _IOV_MAX]
            _writev_all(fd, group, sum(memoryview(part).nbytes for part in group))
        return
    written = os.writev(fd, buffers)
    if written == total:
        return
    rest = memoryview(b"".join(bytes(part) for part in buffers))[written:]
    while rest:
        rest = rest[os.write(fd, rest) :]


def _segment_name(seq: int) -> str:
    return f"wal-{seq:08d}.seg"


@dataclass(frozen=True)
class WalRecord:
    """One decoded record: an applied delivery or a parameter overwrite.

    ``kind`` is ``"apply"`` or ``"params"``.  Apply records carry the
    delivery exactly as the server saw it — the ``(B, D)`` gradient
    matrix plus per-row lease clocks, worker ids, batch sizes and label
    histograms — and the ``batched`` flag that selects the delivery
    dispatch on replay.  Params records carry the overwritten vector.
    """

    kind: str
    seq: int
    clock: int
    batched: bool = False
    gradients: np.ndarray | None = None
    pull_steps: np.ndarray | None = None
    worker_ids: np.ndarray | None = None
    batch_sizes: np.ndarray | None = None
    label_counts: np.ndarray | None = None
    has_counts: np.ndarray | None = None
    parameters: np.ndarray | None = None

    def updates(self) -> list[GradientUpdate]:
        """Reconstruct the delivery as ``GradientUpdate`` rows.

        Gradients are *views* of the stored matrix, so the replay path's
        ``stack_gradients`` recognizes the common base and folds the
        exact same ``(B, D)`` buffer the live path folded.
        """
        if self.kind != "apply":
            raise ValueError("only apply records carry updates")
        assert self.gradients is not None
        out: list[GradientUpdate] = []
        for row in range(self.gradients.shape[0]):
            worker = self.worker_ids[row]
            counts = None
            if self.label_counts is not None and self.has_counts[row]:
                counts = self.label_counts[row]
            out.append(
                GradientUpdate(
                    gradient=self.gradients[row],
                    pull_step=int(self.pull_steps[row]),
                    label_counts=counts,
                    batch_size=int(self.batch_sizes[row]),
                    worker_id=None if np.isnan(worker) else int(worker),
                )
            )
        return out


class WriteAheadLog:
    """Appender for one shard's WAL directory.

    Opening an existing directory resumes after the last intact record
    (``next_seq`` continues the global sequence), so a restored shard
    reattaches the same log and keeps appending — recovery does not fork
    history.
    """

    def __init__(
        self,
        directory: str | Path,
        *,
        segment_max_bytes: int = 4 * 1024 * 1024,
        fsync: bool = False,
    ) -> None:
        if segment_max_bytes <= 0:
            raise ValueError("segment_max_bytes must be positive")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.segment_max_bytes = segment_max_bytes
        self.fsync = fsync
        self._handle = None
        self._segment_path: Path | None = None
        self._segment_size = 0
        self.records_written = 0
        self.next_seq = self._resume()

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------
    def log_apply(
        self,
        updates: list[GradientUpdate],
        *,
        clock: int,
        batched: bool,
    ) -> int:
        """Record one delivery (before the fold); returns its sequence."""
        count = len(updates)
        dim = int(updates[0].gradient.size)
        num_labels = 0
        missing_counts = 0
        for update in updates:
            if update.label_counts is None:
                missing_counts += 1
            elif not num_labels:
                num_labels = int(np.asarray(update.label_counts).size)
        # The gradient rows go to the segment straight from each update's
        # own buffer — their concatenation is byte-identical to the
        # (count, dim) matrix the reader decodes, so the hot path never
        # materializes that matrix.  Scalar columns build through list
        # comprehensions: np.array over a list runs the conversion in C,
        # where per-row ndarray assignment pays a dispatch per element.
        gradient_rows = tuple(
            np.ascontiguousarray(u.gradient, dtype=np.float64).data
            for u in updates
        )
        if any(row.nbytes != dim * 8 for row in gradient_rows):
            raise ValueError("updates in one record must share a dimension")
        pull_steps = np.array([u.pull_step for u in updates], dtype=np.int64)
        worker_ids = np.array(
            [np.nan if u.worker_id is None else float(u.worker_id) for u in updates],
            dtype=np.float64,
        )
        batch_sizes = np.array([u.batch_size for u in updates], dtype=np.int64)
        if num_labels and not missing_counts:
            # Every row has a histogram (the common case): stream each
            # row's own buffer, byte-identical to the dense matrix below.
            has_counts_bytes = b"\x01" * count
            count_rows = tuple(
                np.ascontiguousarray(u.label_counts, dtype=np.float64).data
                for u in updates
            )
            if any(row.nbytes != num_labels * 8 for row in count_rows):
                raise ValueError("label histograms must share num_labels")
        else:
            has_counts = np.zeros(count, dtype=bool)
            label_counts = np.zeros((count, num_labels), dtype=np.float64)
            for row, update in enumerate(updates):
                if update.label_counts is not None:
                    has_counts[row] = True
                    label_counts[row] = update.label_counts
            has_counts_bytes = has_counts.data
            count_rows = (label_counts.data,)
        flags = _FLAG_BATCHED if batched else 0
        body_len = count * (dim * 8 + 25 + num_labels * 8)
        return self._append(
            _KIND_APPLY,
            flags,
            count,
            dim,
            num_labels,
            clock,
            gradient_rows
            + (pull_steps.data, worker_ids.data, batch_sizes.data,
               has_counts_bytes)
            + count_rows,
            body_len,
        )

    def log_parameters(self, parameters: np.ndarray, *, clock: int) -> int:
        """Record an external parameter overwrite (sync broadcast, blend)."""
        parameters = np.ascontiguousarray(parameters, dtype=np.float64)
        return self._append(
            _KIND_PARAMS,
            0,
            0,
            int(parameters.size),
            0,
            clock,
            (parameters.data,),
            parameters.nbytes,
        )

    # hot-path
    def _append(
        self,
        kind: int,
        flags: int,
        count: int,
        dim: int,
        num_labels: int,
        clock: int,
        parts: tuple,
        body_len: int,
    ) -> int:
        prefix = _HEADER.pack(
            kind, flags, count, dim, num_labels, self.next_seq, int(clock)
        )
        length = _HEADER.size + body_len
        # CRC accumulates across the body parts — identical to the CRC of
        # their concatenation, without ever materializing it.
        crc = zlib.crc32(prefix)
        for part in parts:
            crc = zlib.crc32(part, crc)
        handle = self._segment_for(length + _FRAME.size)
        # The buffered stream only ever holds the segment magic — flush
        # it through before writing the record at the fd level.
        handle.flush()
        # One writev per record: the frame, header, and each body part go
        # to the kernel straight from their own buffers, with no payload
        # concatenation pass on the hot path.  A record in the kernel
        # survives a *process* crash; fsync additionally survives a
        # machine crash.
        _writev_all(
            handle.fileno(),
            (_FRAME.pack(length, crc) + prefix,) + parts,
            length + _FRAME.size,
        )
        self._segment_size += length + _FRAME.size
        if self.fsync:
            # Deliberate blocking call on the hot path: the spec's fsync
            # knob trades latency for machine-crash durability.
            os.fsync(handle.fileno())  # repro: noqa[RPR302]
        seq = self.next_seq
        self.next_seq += 1
        self.records_written += 1
        return seq

    def _segment_for(self, record_bytes: int):
        if self._handle is not None:
            # Tracked in Python rather than ``tell()``-ed: the segment is
            # append-only and single-writer, so the counter cannot drift.
            if self._segment_size + record_bytes <= self.segment_max_bytes:
                return self._handle
            self._handle.close()
            self._handle = None
        self._segment_path = self.directory / _segment_name(self.next_seq)
        self._handle = open(self._segment_path, "ab")
        self._segment_size = self._handle.tell()
        if self._segment_size == 0:
            self._handle.write(_MAGIC)
            self._segment_size = len(_MAGIC)
        return self._handle

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _resume(self) -> int:
        """Scan the on-disk log once, by headers; return the next sequence.

        The same pass cuts a crash's half-written record out of the log.
        Appends after recovery land in a fresh segment, but readers stop
        at the first torn record — a torn byte range left behind would
        permanently hide everything appended after it.  Truncating the
        torn segment to its intact prefix (and dropping any segments
        past the tear) restores the invariant that every byte on disk is
        a fully framed record.  No record body is decoded.
        """
        next_seq = 0
        paths = _segments(self.directory)
        for index, path in enumerate(paths):
            scan = _SegmentScan(path)
            for frame in scan:
                next_seq = frame.seq + 1
            if scan.intact:
                continue
            if scan.end >= len(_MAGIC):
                with open(path, "r+b") as handle:
                    handle.truncate(scan.end)
            else:
                path.unlink()  # not even a valid magic: not a segment
            for stale in paths[index + 1 :]:
                stale.unlink()
            break
        return next_seq

    def sync(self) -> None:
        """Flush (and fsync) the open segment."""
        if self._handle is not None:
            self._handle.flush()
            os.fsync(self._handle.fileno())

    def close(self) -> None:
        if self._handle is not None:
            self._handle.flush()
            self._handle.close()
            self._handle = None


class _Frame(NamedTuple):
    """One CRC-verified record as the scanner sees it: the header fields
    and the body bytes exactly as framed (still encoded; :func:`_decode`
    turns them into a :class:`WalRecord`)."""

    kind: int
    flags: int
    count: int
    dim: int
    num_labels: int
    seq: int
    clock: int
    body: np.ndarray


class _SegmentScan:
    """Iterate one segment's intact records, one frame at a time.

    Every payload is CRC-checked before its frame is yielded, and the
    scan stops at the first torn or corrupt record.  Only the frame in
    hand is held in memory, never the segment.  ``end`` is the offset
    just past the last intact record so far — once the scan stops, the
    truncation point of a torn segment (0 when the magic is missing) —
    and ``intact`` says whether it reached a clean end of file.
    """

    def __init__(self, path: Path) -> None:
        self.path = path
        self.intact = False
        self.end = 0

    def __iter__(self) -> Iterator[_Frame]:
        with open(self.path, "rb") as handle:
            size = os.fstat(handle.fileno()).st_size
            if handle.read(len(_MAGIC)) != _MAGIC:
                return
            offset = self.end = len(_MAGIC)
            while offset < size:
                prefix = handle.read(_FRAME.size + _HEADER.size)
                if len(prefix) < _FRAME.size + _HEADER.size:
                    return  # torn tail: the append never completed
                length, crc = _FRAME.unpack_from(prefix)
                end = offset + _FRAME.size + length
                # Checked against the file size before anything is
                # allocated, so a corrupt length never sizes a buffer.
                if length < _HEADER.size or end > size:
                    return
                body = np.empty(length - _HEADER.size, dtype=np.uint8)
                if handle.readinto(body) != body.size:
                    return
                if zlib.crc32(body, zlib.crc32(prefix[_FRAME.size :])) != crc:
                    return  # corrupt tail: stop at the last intact record
                offset = self.end = end
                yield _Frame(*_HEADER.unpack_from(prefix, _FRAME.size), body)
            self.intact = True


def _segments(directory: Path) -> list[Path]:
    return sorted(directory.glob(_SEGMENT_GLOB))


def _decode(frame: _Frame) -> WalRecord:
    """Decode one frame's body into owned arrays (the body can be freed)."""
    body = frame.body
    if frame.flags & _FLAG_ZLIB:
        body = zlib.decompress(body)
    count, dim, num_labels = frame.count, frame.dim, frame.num_labels
    if frame.kind == _KIND_PARAMS:
        return WalRecord(
            kind="params",
            seq=frame.seq,
            clock=frame.clock,
            parameters=np.frombuffer(body, dtype=np.float64, count=dim).copy(),
        )
    offset = 0

    def take(dtype, *shape):
        # Copied after the reshape, so each array owns its buffer: the
        # gradient rows share one 2-D base for ``stack_gradients``.
        nonlocal offset
        arr = np.frombuffer(body, dtype=dtype, count=math.prod(shape), offset=offset)
        offset += arr.nbytes
        return arr.reshape(shape).copy()

    gradients = take(np.float64, count, dim)
    pull_steps = take(np.int64, count)
    worker_ids = take(np.float64, count)
    batch_sizes = take(np.int64, count)
    has_counts = take(np.bool_, count)
    label_counts = take(np.float64, count, num_labels) if num_labels else None
    return WalRecord(
        kind="apply",
        seq=frame.seq,
        clock=frame.clock,
        batched=bool(frame.flags & _FLAG_BATCHED),
        gradients=gradients,
        pull_steps=pull_steps,
        worker_ids=worker_ids,
        batch_sizes=batch_sizes,
        label_counts=label_counts,
        has_counts=has_counts,
    )


def iter_records(
    directory: str | Path, start_seq: int = 0
) -> Iterator[WalRecord]:
    """Stream every intact record with ``seq >= start_seq``, in order.

    One record is decoded at a time, and only records at or past
    ``start_seq`` are decoded at all; earlier ones are CRC-checked and
    skipped.  Reading stops at the first torn or corrupt record (crash
    artifact), exactly where :func:`read_records` stops.
    """
    for path in _segments(Path(directory)):
        scan = _SegmentScan(path)
        for frame in scan:
            if frame.seq >= start_seq:
                yield _decode(frame)
        if not scan.intact:
            return


def read_records(
    directory: str | Path, start_seq: int = 0
) -> list[WalRecord]:
    """Decode every intact record with ``seq >= start_seq``, in order.

    Reading stops at the first torn or corrupt record (crash artifact);
    everything before it is returned.  Holds the whole tail in memory —
    restore streams through :func:`iter_records` instead.
    """
    return list(iter_records(directory, start_seq))


def wal_summary(directory: str | Path) -> dict:
    """Segment-level summary of one WAL directory (``repro wal-inspect``).

    Built from record headers alone: every payload is still CRC-checked,
    but no body is decoded, so inspecting a log costs one frame of
    memory whatever its length.
    """
    directory = Path(directory)
    segments = []
    records = applied = results = 0
    last_clock = None
    intact = True
    for path in _segments(directory):
        scan = _SegmentScan(path)
        first_seq = last_seq = None
        segment_records = 0
        for frame in scan:
            if first_seq is None:
                first_seq = frame.seq
            last_seq = frame.seq
            last_clock = frame.clock
            segment_records += 1
            if frame.kind != _KIND_PARAMS:
                applied += 1
                results += frame.count
        records += segment_records
        intact = scan.intact
        segments.append(
            {
                "file": path.name,
                "bytes": path.stat().st_size,
                "records": segment_records,
                "first_seq": first_seq,
                "last_seq": last_seq,
                "intact": intact,
            }
        )
        if not intact:
            break
    return {
        "directory": str(directory),
        "segments": segments,
        "records": records,
        "apply_records": applied,
        "param_records": records - applied,
        "results_logged": results,
        "last_clock": last_clock,
        "intact": intact,
    }
