"""Per-shard micro-batching of gradient results over the wire codec.

Each incoming :class:`~repro.server.protocol.TaskResult` is immediately
encoded with :class:`~repro.server.codec.VectorCodec` — the gateway holds
the wire form, not the raw float64 gradient — and queued on its shard's
lane.  A lane flushes when it reaches ``max_batch`` results (size
trigger) or when its oldest entry has waited ``max_delay_s`` of virtual
time (deadline trigger), at which point the payloads are decoded back into
``TaskResult``s for one batched shard update.

Encoding on admission is what makes the gateway a transport tier rather
than a buffer of live objects: the bytes it holds are exactly what would
cross the network to a remote shard.  The gateway's codec writes zlib
*stored blocks* (level 0), the same form the device uplink sends: a
deflate of a gradient that already crossed the wire saves ~7 % of the
bytes at the cost of most of the per-upload CPU, and nothing holds the
batch long enough to repay it.  :meth:`MicroBatcher.compression_ratio`
therefore reports the precision reduction only (2.0 for f32 against
float64).
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field

import numpy as np

from repro.server.codec import EncodedBlob, VectorCodec
from repro.server.protocol import TaskResult
from repro.server.sparsification import SparseGradient

__all__ = ["EncodedResult", "encode_result", "decode_result", "MicroBatcher"]


@dataclass(frozen=True)
class EncodedResult:
    """A ``TaskResult`` with its gradient in codec wire form.

    ``metadata`` keeps every non-gradient field the shard and the profiler
    need (ids, lease clock, label histogram, measurements) untouched; only
    the gradient payload is quantized/compressed.  ``admitted_at`` is the
    clock at which the gateway accepted the result — carried on the wire
    form so delivery can account the full admission→apply latency without
    touching the protocol envelope.
    """

    blob: EncodedBlob | SparseGradient
    metadata: TaskResult  # gradient field is an empty placeholder
    admitted_at: float = 0.0

    @property
    def wire_bytes(self) -> int:
        if isinstance(self.blob, SparseGradient):
            # values + indices, 4 bytes each on the wire (matches the
            # fleet simulation's sparse upload accounting).
            return 2 * self.blob.values.size * 4
        return self.blob.wire_bytes


def encode_result(
    result: TaskResult, codec: VectorCodec, admitted_at: float = 0.0
) -> EncodedResult:
    """Compress the gradient; carry the rest of the result as metadata.

    A :class:`SparseGradient` upload is already a compact wire form — it
    passes through untouched so the owning shard's decode stage sees the
    sparse payload the worker actually sent.
    """
    gradient = result.gradient
    blob = gradient if isinstance(gradient, SparseGradient) else codec.encode(gradient)
    stripped = dataclasses.replace(result, gradient=np.zeros(0))
    return EncodedResult(blob=blob, metadata=stripped, admitted_at=admitted_at)


def decode_result(encoded: EncodedResult, codec: VectorCodec) -> TaskResult:
    """Inverse of :func:`encode_result` (up to gradient quantization)."""
    if isinstance(encoded.blob, SparseGradient):
        return dataclasses.replace(encoded.metadata, gradient=encoded.blob)
    gradient = codec.decode(encoded.blob)
    return dataclasses.replace(encoded.metadata, gradient=gradient)


@dataclass
class _Lane:
    """One shard's pending micro-batch."""

    entries: list[EncodedResult] = field(default_factory=list)
    oldest_arrival: float = 0.0


class MicroBatcher:
    """Size- and deadline-triggered coalescing of results per shard."""

    def __init__(
        self,
        codec: VectorCodec,
        max_batch: int = 8,
        max_delay_s: float = 5.0,
    ) -> None:
        if max_batch <= 0:
            raise ValueError("max_batch must be positive")
        if max_delay_s < 0:
            raise ValueError("max_delay_s must be non-negative")
        self.codec = codec
        self.max_batch = max_batch
        self.max_delay_s = max_delay_s
        self._lanes: dict[str, _Lane] = {}
        self.raw_bytes_in = 0
        self.wire_bytes_in = 0

    # ------------------------------------------------------------------
    # Enqueue + triggers
    # ------------------------------------------------------------------
    # hot-path
    def add_encoded(
        self, shard_id: str, result: TaskResult, now: float
    ) -> list[EncodedResult]:
        """Queue one result; return the *encoded* batch on the size trigger.

        The caller's thread pays only for the codec encode — with the
        gateway's level-0 codec, a quantizing copy into stored blocks,
        the form the uplink already sent; the flushed wire-form entries
        travel to the shard's lane, which decodes them there
        (:meth:`decode_entries`).
        """
        encoded = encode_result(result, self.codec, admitted_at=now)
        lane = self._lanes.setdefault(shard_id, _Lane())
        if not lane.entries:
            lane.oldest_arrival = now
        lane.entries.append(encoded)
        gradient = result.gradient
        dimension = (
            gradient.dimension
            if isinstance(gradient, SparseGradient)
            else gradient.size
        )
        self.raw_bytes_in += dimension * 8  # dense float64 equivalent
        self.wire_bytes_in += encoded.wire_bytes
        if len(lane.entries) >= self.max_batch:
            return self.flush_encoded(shard_id)
        return []

    def due(self, now: float) -> list[str]:
        """Shards whose oldest pending result has exceeded the deadline."""
        return [
            shard_id
            for shard_id, lane in self._lanes.items()
            if lane.entries and now - lane.oldest_arrival >= self.max_delay_s
        ]

    # ------------------------------------------------------------------
    # Flush
    # ------------------------------------------------------------------
    def flush_encoded(self, shard_id: str) -> list[EncodedResult]:
        """Remove and return the shard's pending entries, still encoded.

        The lane entry itself is removed (``add_encoded`` recreates it on
        demand), so a shard that stops receiving results leaves nothing
        behind for :meth:`due` to rescan.
        """
        lane = self._lanes.pop(shard_id, None)
        if lane is None or not lane.entries:
            return []
        return lane.entries

    # hot-path
    def decode_entries(self, entries: list[EncodedResult]) -> list[TaskResult]:
        """Decode a flushed batch back into ``TaskResult``s.

        A lane of uniform dense blobs is decoded into ONE contiguous
        ``(B, D)`` matrix; the returned results' gradients are rows of
        that matrix, so the shard's batched hot path folds them without
        restacking scattered vectors.
        """
        if not entries:
            return []
        # Traced uploads charge the WHOLE batch's decode to their own
        # critical path — each of them waited for all of it.
        traced = [
            entry.metadata.trace
            for entry in entries
            if entry.metadata.trace is not None
        ]
        started = time.perf_counter() if traced else 0.0
        blobs = [entry.blob for entry in entries]
        uniform = all(
            isinstance(blob, EncodedBlob) and blob.length == blobs[0].length
            for blob in blobs
        )
        if not uniform:
            # Mixed sparse/dense lane: decode entry by entry (the sparse
            # payloads travel as-is for the shard's decode stage).
            results = [decode_result(entry, self.codec) for entry in entries]
        else:
            matrix = np.empty((len(entries), blobs[0].length), dtype=np.float64)
            for row, blob in enumerate(blobs):
                matrix[row] = self.codec.decode(blob)
            results = [
                dataclasses.replace(entry.metadata, gradient=matrix[row])
                for row, entry in enumerate(entries)
            ]
        if traced:
            elapsed = time.perf_counter() - started
            for ctx in traced:
                ctx.add_phase("decode", elapsed)
        return results

    def pending(self, shard_id: str) -> int:
        lane = self._lanes.get(shard_id)
        return len(lane.entries) if lane else 0

    def total_pending(self) -> int:
        return sum(len(lane.entries) for lane in self._lanes.values())

    def compression_ratio(self) -> float:
        """Raw float64 bytes per wire byte across everything admitted.

        With a level-0 codec this is the precision reduction alone (just
        under 2.0 for f32, the stored-block framing being the rest).
        """
        if self.wire_bytes_in == 0:
            return 1.0
        return self.raw_bytes_in / self.wire_bytes_in
