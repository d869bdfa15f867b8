"""Metric names, units, directions and bounds.

``END_TO_END`` and ``PER_LAYER`` are mirrored by the root
``BENCHMARK.json`` (the smoke test holds the two together).  The driver
that reads ``BENCHMARK.json`` wants every end-to-end metric from every
workload and none of them ever 0, so the three end-to-end metrics that
exist on one workload only, or are 0 when all is well, are
``REPORT_ONLY``: printed, recorded and compared by ``bench.compare`` with
the bounds below, and carried in ``BENCHMARK.json`` as per-layer rows
(``durability.recovery_ms``, ``loadgen.max_rate_ok_per_s``) or as the
``attempted``/``failed`` counts of every run (``failed_share``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from bench.workloads import LADDER

__all__ = ["END_TO_END", "PER_LAYER", "REPORT_ONLY", "Metric", "summarize"]


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "higher" | "lower"
    #: Share of the baseline median by which the metric may get worse.
    bound: float | None = None


END_TO_END = (
    Metric("uploads_per_s", "uploads/s", "higher", 0.25),
    Metric("ack_p50_ms", "ms", "lower", 0.25),
    Metric("ack_p99_ms", "ms", "lower", 0.25),
    Metric("cpu_ms_per_upload", "ms", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.25),
    Metric("setup_s", "s", "lower", 0.25),
)

REPORT_ONLY = (
    Metric("recovery_ms", "ms", "lower", 0.25),  # durable_d16k
    Metric("max_rate_ok_per_s", "uploads/s", "higher", 0.5),  # paced_d16k: one rung
    Metric("failed_share", "ratio", "lower", 0.0),
)

PER_LAYER = (
    Metric("codec.encode_us", "us", "lower"),
    Metric("codec.decode_us", "us", "lower"),
    Metric("codec.passes_per_upload", "count", "lower"),
    Metric("codec.wire_bytes_per_upload", "bytes", "lower"),
    Metric("frontend.feed_us", "us", "lower"),
    Metric("frontend.unpack_us", "us", "lower"),
    Metric("frontend.dispatch_us", "us", "lower"),
    Metric("frontend.ack_pack_us", "us", "lower"),
    Metric("frontend.io_us", "us", "lower"),
    Metric("frontend.bytes_in_per_upload", "bytes", "lower"),
    Metric("frontend.bytes_out_per_upload", "bytes", "lower"),
    Metric("gateway.admit_us", "us", "lower"),
    Metric("gateway.batch_us", "us", "lower"),
    Metric("gateway.batches", "count", "lower"),
    Metric("gateway.mean_batch", "count", "higher"),
    Metric("server.batch_us", "us", "lower"),
    Metric("profiler.report_us", "us", "lower"),
    Metric("profiler.reports_per_upload", "count", "lower"),
    Metric("core.fold_us", "us", "lower"),
    Metric("core.fold_us_per_update", "us", "lower"),
    Metric("core.updates", "count", "lower"),
    Metric("durability.wal_append_us", "us", "lower"),
    Metric("durability.wal_bytes_per_upload", "bytes", "lower"),
    Metric("durability.checkpoints", "count", "lower"),
    Metric("durability.checkpoint_ms", "ms", "lower"),
    Metric("durability.recovery_ms", "ms", "lower"),
    Metric("durability.restore_ms", "ms", "lower"),
    Metric("durability.replayed_records", "count", "lower"),
    Metric("durability.replayed_results", "count", "lower"),
    Metric("runtime.submit_us", "us", "lower"),
    Metric("runtime.submits_per_upload", "count", "lower"),
    Metric("setup.tier_ms", "ms", "lower"),
    Metric("loadgen.prepack_s", "s", "lower"),
    Metric("loadgen.late_p99_ms", "ms", "lower"),
    Metric("loadgen.max_rate_ok_per_s", "uploads/s", "higher"),
    *(Metric(f"loadgen.r{rate}.ack_p99_ms", "ms", "lower") for rate in LADDER),
    *(Metric(f"loadgen.r{rate}.ok", "count", "higher") for rate in LADDER),
    Metric("trace.overhead_share", "ratio", "lower"),
    Metric("trace.coverage_share", "ratio", "higher"),
)


def summarize(samples: list[float]) -> dict:
    """Median of the trials, with the spread recorded beside it."""
    q1, q3 = np.percentile(samples, [25, 75])
    return {
        "value": float(np.median(samples)),
        "trials": [float(s) for s in samples],
        "min": float(min(samples)),
        "max": float(max(samples)),
        "iqr": float(q3 - q1),
    }
