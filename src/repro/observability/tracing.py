"""End-to-end upload tracing through the serving tier.

A :class:`TraceContext` is allocated (by sampling) when a gradient upload
reaches :meth:`~repro.gateway.gateway.Gateway.handle_result` and rides on
the :class:`~repro.server.protocol.TaskResult` envelope through the
micro-batcher, the runtime lane, the shard's stage chain and the final
aggregation — the hops record phase durations onto it.  The tracer's
gateway delivery observer (:meth:`UploadTracer.on_delivery`) finishes
the context when the batch it traveled in is delivered, turning it into
an immutable :class:`FinishedTrace` of contiguous spans that **sum
exactly to the upload's end-to-end latency**.

Spans live on the virtual clock: ``queue.batcher`` (admission → flush),
``queue.lane`` (flush → the shard lane freeing up) and ``apply`` (the
cost model's service time), all derived from the discrete-event clock,
so traces are **bit-stable** under a seed.  Wall-clock measurements of
the decode / stage / fold work ride along as informational
``cpu_phases``: they do not enter the span sum — they are real time
inside a modeled span, not additional latency.

Sampling is deterministic: upload N is traced iff
``mix64(N ^ mix64(seed)) < sample_rate · 2^64`` — a splitmix64-style
integer hash, independent of ``PYTHONHASHSEED``, O(1) per upload, and
reproducible run to run.  Unsampled uploads cost one integer mix and one
comparison.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

__all__ = [
    "ObservabilitySpec",
    "TraceContext",
    "Span",
    "FinishedTrace",
    "SpanCollector",
    "UploadTracer",
]

_MASK64 = (1 << 64) - 1


def _mix64(x: int) -> int:
    """splitmix64 finalizer: a cheap, well-mixed 64-bit hash."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


@dataclass(frozen=True)
class ObservabilitySpec:
    """Knobs of the tracing subsystem.

    ``sample_rate`` is the fraction of uploads traced (default 1/64 keeps
    the hot path cheap; 1.0 traces everything, 0.0 disables tracing while
    keeping the journal).  ``seed`` makes the sampled subset reproducible.
    The finished-trace ring keeps :class:`SpanCollector`'s default
    capacity.
    """

    sample_rate: float = 1.0 / 64.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.sample_rate <= 1.0:
            raise ValueError("sample_rate must be in [0, 1]")


@dataclass
class TraceContext:
    """Mutable per-upload trace state riding on the protocol envelope.

    Only the gateway caller's thread touches a context (lane jobs run
    inline on it), so no lock is needed.
    """

    upload_id: int
    worker_id: int
    admitted_at: float
    phases: list[tuple[str, float]] = field(default_factory=list)

    def add_phase(self, name: str, seconds: float) -> None:
        """Record a measured duration (decode, stage:*, fold)."""
        self.phases.append((name, seconds))


@dataclass(frozen=True)
class Span:
    """One contiguous segment of an upload's timeline."""

    name: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
        }


@dataclass(frozen=True)
class FinishedTrace:
    """Immutable span timeline of one completed upload.

    ``spans`` are contiguous and sum to ``total_s`` (the end-to-end
    virtual latency).  ``cpu_phases`` carry wall measurements made inside
    virtual spans — informational only.
    """

    upload_id: int
    worker_id: int
    shard_id: str
    clock: str  # the span clock domain: always "virtual"
    batch_size: int
    admitted_at: float
    total_s: float
    spans: tuple[Span, ...]
    cpu_phases: tuple[tuple[str, float], ...] = ()

    def to_dict(self) -> dict:
        return {
            "kind": "trace",
            "upload_id": self.upload_id,
            "worker_id": self.worker_id,
            "shard_id": self.shard_id,
            "clock": self.clock,
            "batch_size": self.batch_size,
            "admitted_at": self.admitted_at,
            "total_s": self.total_s,
            "spans": [span.to_dict() for span in self.spans],
            "cpu_phases": [
                {"name": name, "duration": duration}
                for name, duration in self.cpu_phases
            ],
        }


class SpanCollector:
    """Bounded ring of finished traces (oldest evicted first)."""

    def __init__(self, capacity: int = 4096) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self._traces: deque[FinishedTrace] = deque(maxlen=capacity)
        self._finished = 0

    def add(self, trace: FinishedTrace) -> None:
        self._traces.append(trace)
        self._finished += 1

    @property
    def traces(self) -> list[FinishedTrace]:
        return list(self._traces)

    @property
    def finished(self) -> int:
        """Traces ever finished (not capped by the ring)."""
        return self._finished

    def __len__(self) -> int:
        return len(self._traces)


class UploadTracer:
    """Samples, carries and finishes upload traces for one gateway."""

    def __init__(self, spec: ObservabilitySpec) -> None:
        self.spec = spec
        self.collector = SpanCollector()
        self._seed_mix = _mix64(spec.seed)
        self._threshold = int(spec.sample_rate * float(1 << 64))
        # The upload sequence number drives sampling; it advances for
        # EVERY upload (sampled or not) so the sampled subset depends
        # only on (seed, arrival order).  begin() runs exclusively on the
        # gateway caller's thread, so the counter needs no lock.
        self._seq = 0
        self.started = 0
        self.dropped = 0

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def would_sample(self, seq: int) -> bool:
        """The (pure) sampling decision for upload number ``seq``."""
        return _mix64(seq ^ self._seed_mix) < self._threshold

    def begin(self, worker_id: int, now: float) -> TraceContext | None:
        """Admit one upload to tracing at virtual time ``now``; None when
        the sampler skips it."""
        seq = self._seq
        self._seq += 1
        if not self.would_sample(seq):
            return None
        self.started += 1
        return TraceContext(upload_id=seq, worker_id=worker_id, admitted_at=now)

    @property
    def uploads_seen(self) -> int:
        return self._seq

    def drop(self, ctx: TraceContext) -> None:
        """A traced upload was shed before delivery (full lane)."""
        self.dropped += 1

    # ------------------------------------------------------------------
    # Finishing
    # ------------------------------------------------------------------
    # hot-path
    def on_delivery(
        self, shard_id: str, shard, entries: list, batch: list, pre_clock: int,
        now: float, start: float, end: float,
    ) -> None:
        """Gateway delivery observer: close and collect every traced upload.

        Including those a stage absorbed — their critical path still
        ended here.  ``now``/``start``/``end`` are the gateway's virtual
        timeline of the batch (flush instant, lane free instant, service
        completion).
        """
        for result in batch:
            ctx = result.trace
            if ctx is None:
                continue
            self.collector.add(self._finish(ctx, shard_id, len(batch), now, start, end))

    def _finish(
        self,
        ctx: TraceContext,
        shard_id: str,
        batch_size: int,
        flushed: float,
        lane_start: float,
        lane_end: float,
    ) -> FinishedTrace:
        # Monotone by construction: admission ≤ flush ≤ lane free ≤ done.
        # Clamp anyway so a caller-supplied out-of-order clock can only
        # produce zero-length spans, never negative ones.
        flushed = max(flushed, ctx.admitted_at)
        lane_start = max(lane_start, flushed)
        lane_end = max(lane_end, lane_start)
        spans = (
            Span("queue.batcher", ctx.admitted_at, flushed),
            Span("queue.lane", flushed, lane_start),
            Span("apply", lane_start, lane_end),
        )
        return FinishedTrace(
            upload_id=ctx.upload_id,
            worker_id=ctx.worker_id,
            shard_id=shard_id,
            clock="virtual",
            batch_size=batch_size,
            admitted_at=ctx.admitted_at,
            total_s=lane_end - ctx.admitted_at,
            spans=spans,
            cpu_phases=tuple(ctx.phases),
        )
