"""Span tracing installed from outside, for the traced trial only.

:class:`Tracer` wraps the public entry point of each layer with a timing
wrapper (class attributes and ``framing`` module functions are swapped at
runtime and restored afterwards — nothing under ``src/`` changes).  Every
span records name, start, end, parent and the upload it served; spans
stay in memory until the trial ends.  A layer's **self time** is its
spans' duration minus the part covered by child spans; the served path is
single-threaded, so self times add up to the wall.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict

from repro.core.adasgd import StalenessAwareServer
from repro.durability.manager import DurabilityManager
from repro.durability.wal import WriteAheadLog
from repro.frontend import framing
from repro.frontend.framing import RESULT_BODY, FrameDecoder, FrameType
from repro.frontend.server import _Connection
from repro.gateway.batching import MicroBatcher
from repro.gateway.gateway import Gateway
from repro.profiler.iprof import IProf
from repro.runtime.runtime import ShardRuntime
from repro.server.codec import VectorCodec
from repro.server.server import FleetServer

__all__ = ["SPAN_FIELDS", "Tracer", "ledger", "self_times"]

#: Layout of one span (a list, for cheap appends on the hot path).
SPAN_FIELDS = ("name", "start", "end", "parent", "upload")
NAME, START, END, PARENT, UPLOAD = range(5)

#: (owner, attribute, span name).  ``frontend.dispatch`` is the root span
#: of a frame; ``frontend.feed`` runs outside it, in the read loop.
_TARGETS = (
    (_Connection, "dispatch", "frontend.dispatch"),
    (FrameDecoder, "feed", "frontend.feed"),
    (framing, "unpack_result", "frontend.unpack_result"),
    (framing, "pack_result_ack", "frontend.pack_result_ack"),
    (Gateway, "handle_result", "gateway.handle_result"),
    (MicroBatcher, "add_encoded", "gateway.add_encoded"),
    (MicroBatcher, "decode_entries", "gateway.decode_entries"),
    (VectorCodec, "encode", "codec.encode"),
    (VectorCodec, "decode", "codec.decode"),
    (FleetServer, "handle_result_batch", "server.handle_result_batch"),
    (IProf, "report", "profiler.report"),
    (StalenessAwareServer, "submit_many", "core.submit_many"),
    (WriteAheadLog, "log_apply", "durability.log_apply"),
    (DurabilityManager, "maybe_checkpoint", "durability.maybe_checkpoint"),
    (DurabilityManager, "restore", "durability.restore"),
    (ShardRuntime, "submit", "runtime.submit"),
)


class Tracer:
    """Records spans while installed; a context manager."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._upload: str | None = None
        self._originals: list[tuple[object, str, object]] = []
        # The checkpoint saver is a second thread; only the serving
        # thread's calls are spans (one stack, no locking on the hot path).
        self._thread = threading.get_ident()

    def __enter__(self) -> "Tracer":
        for owner, attr, name in _TARGETS:
            original = getattr(owner, attr)
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))
        return self

    def __exit__(self, *exc_info) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def _wrap(self, original, name: str):
        spans, stack = self.spans, self._stack
        root = name == "frontend.dispatch"
        checkpoint = name == "durability.maybe_checkpoint"

        def traced(*args, **kwargs):
            if threading.get_ident() != self._thread:
                return original(*args, **kwargs)
            if root:
                self._upload = _upload_of(*args)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self._upload]
            stack.append(len(spans))
            spans.append(span)
            span[START] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
                if root:
                    self._upload = None
            if checkpoint and result:
                # Tell the calls that took a snapshot from the cadence
                # checks that did not.
                span[NAME] = "durability.checkpoint"
            return result

        return traced


def _upload_of(connection: _Connection, ftype: int, body: bytes) -> str | None:
    """``worker:seq`` of a RESULT frame — the id its spans share."""
    if ftype != FrameType.RESULT or len(body) < RESULT_BODY.size:
        return None
    worker = connection.hello.worker_id if connection.hello is not None else -1
    return f"{worker}:{RESULT_BODY.unpack_from(body)[0]}"


def self_times(
    spans: list[list], windows: list[tuple[float, float]]
) -> tuple[dict[str, float], dict[str, int], float]:
    """Per span name: summed self seconds and call count, inside ``windows``.

    Also returns the summed duration of the root spans (those without a
    parent) — what the wrappers cover of the wall.
    """
    children = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]] += span[END] - span[START]
    seconds: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    covered = 0.0
    for index, span in enumerate(spans):
        if not any(lo <= span[START] <= hi for lo, hi in windows):
            continue
        duration = span[END] - span[START]
        seconds[span[NAME]] += duration - children[index]
        calls[span[NAME]] += 1
        if span[PARENT] < 0:
            covered += duration
    return dict(seconds), dict(calls), covered


def ledger(traced, spans: list[list], untraced_uploads_per_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced trial (a :class:`~bench.trial.TrialResult`).

    ``*_us`` values are self-time microseconds per upload in the timed
    window; ``frontend.io_us`` is what no wrapper covers — socket reads
    and writes, ``drain()``, loop scheduling, and the client itself.
    """
    seconds, calls, covered = self_times(spans, traced.windows)
    uploads = max(traced.ok, 1)

    def per_upload_us(*names: str) -> float:
        return 1e6 * sum(seconds.get(name, 0.0) for name in names) / uploads

    updates = calls.get("core.submit_many", 0)
    counters = traced.counters
    values = {
        "codec.encode_us": per_upload_us("codec.encode"),
        "codec.decode_us": per_upload_us("codec.decode"),
        "codec.passes_per_upload": (
            calls.get("codec.encode", 0) + calls.get("codec.decode", 0)
        )
        / uploads,
        "codec.wire_bytes_per_upload": counters["wire_bytes"] / uploads,
        "frontend.feed_us": per_upload_us("frontend.feed"),
        "frontend.unpack_us": per_upload_us("frontend.unpack_result"),
        "frontend.dispatch_us": per_upload_us("frontend.dispatch"),
        "frontend.ack_pack_us": per_upload_us("frontend.pack_result_ack"),
        "frontend.io_us": 1e6 * (traced.wall_s - covered) / uploads,
        "frontend.bytes_in_per_upload": counters["bytes_in"] / uploads,
        "frontend.bytes_out_per_upload": counters["bytes_out"] / uploads,
        "gateway.admit_us": per_upload_us("gateway.handle_result"),
        "gateway.batch_us": per_upload_us("gateway.add_encoded", "gateway.decode_entries"),
        "gateway.batches": counters["batches"],
        "gateway.mean_batch": traced.applied / max(counters["batches"], 1),
        "server.batch_us": per_upload_us("server.handle_result_batch"),
        "profiler.report_us": per_upload_us("profiler.report"),
        "profiler.reports_per_upload": calls.get("profiler.report", 0) / uploads,
        "core.fold_us": per_upload_us("core.submit_many"),
        "core.fold_us_per_update": 1e6 * seconds.get("core.submit_many", 0.0) / max(updates, 1),
        "core.updates": sum(traced.clocks.values()),
        "runtime.submit_us": per_upload_us("runtime.submit"),
        "runtime.submits_per_upload": calls.get("runtime.submit", 0) / uploads,
        "trace.overhead_share": 1.0 - traced.uploads_per_s / untraced_uploads_per_s,
        "trace.coverage_share": covered / traced.wall_s,
    }
    if traced.recovery is not None:
        fired = calls.get("durability.checkpoint", 0)
        restore = [span for span in spans if span[NAME] == "durability.restore"]
        values.update(
            {
                "durability.wal_append_us": per_upload_us("durability.log_apply"),
                "durability.wal_bytes_per_upload": counters["wal_bytes"] / uploads,
                "durability.checkpoints": counters["checkpoints"],
                "durability.checkpoint_ms": 1e3
                * seconds.get("durability.checkpoint", 0.0)
                / max(fired, 1),
                "durability.restore_ms": 1e3 * sum(span[END] - span[START] for span in restore),
                "durability.replayed_records": traced.recovery["replayed_records"],
                "durability.replayed_results": traced.recovery["replayed_results"],
            }
        )
    return values
