"""Server-side telemetry: counters, gauges, latency summaries, histograms.

The paper's FLeet server is an HTTP web application; any production
deployment of such a middleware exports operational metrics (request rates,
rejection ratios, staleness quantiles, SLO deviations).  This module is the
minimal metrics registry the rest of the repo reports into — enough to
drive the EXPERIMENTS.md summaries and the CLI status output without any
external monitoring dependency.

Every metric is loop-confined: the serving tier updates and reads it
from one thread (runtime lane jobs run inline on the event loop), so no
metric takes a lock.  Lint rule RPR103 keeps new threads out of the tier.

For machine-readable consumption (Prometheus text exposition, JSON
snapshots) see :mod:`repro.observability.exporters`, which renders the
whole registry through the accessors this module exposes.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Counter",
    "Gauge",
    "Summary",
    "Histogram",
    "MetricsRegistry",
    "RejectionStats",
    "format_reason_counts",
    "DEFAULT_LATENCY_BUCKETS",
]


class Counter:
    """Monotonically increasing count of events."""

    def __init__(self, name: str, description: str = "") -> None:
        self.name = name
        self.description = description
        self._value = 0

    # hot-path
    def increment(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only move forward")
        self._value += amount

    @property
    def value(self) -> int:
        return self._value


class Gauge:
    """A value that can move in both directions (e.g. in-flight tasks)."""

    def __init__(self, name: str, description: str = "") -> None:
        self.name = name
        self.description = description
        self._value = 0.0

    def set(self, value: float) -> None:
        if not np.isfinite(value):
            raise ValueError("gauge values must be finite")
        self._value = float(value)

    def add(self, delta: float) -> None:
        if not np.isfinite(delta):
            raise ValueError("gauge values must be finite")
        self._value = float(self._value + delta)

    @property
    def value(self) -> float:
        return self._value


class Summary:
    """Sliding-window distribution with percentile queries.

    Used for the quantities the paper reports as CDFs: SLO deviation
    (Figs. 12-13), staleness (Fig. 7), round-trip latency.

    Queries materialize the window into one numpy array that is **cached
    until the next observation**: a report asking for mean + three
    percentiles pays for a single O(window) copy instead of rebuilding the
    array per quantile (and :meth:`quantiles` answers several quantiles in
    one :func:`numpy.percentile` pass).
    """

    def __init__(self, name: str, description: str = "", window: int = 100_000):
        if window <= 0:
            raise ValueError("window must be positive")
        self.name = name
        self.description = description
        self._values: deque[float] = deque(maxlen=window)
        self._cache: np.ndarray | None = None

    # hot-path
    def observe(self, value: float) -> None:
        if not np.isfinite(value):
            raise ValueError("summary observations must be finite")
        self._values.append(float(value))
        self._cache = None

    # hot-path
    def observe_many(self, values: np.ndarray) -> None:
        """Record a batch of observations in one append (hot-path helper)."""
        values = np.asarray(values, dtype=np.float64)
        if values.size and not np.isfinite(values).all():
            raise ValueError("summary observations must be finite")
        self._values.extend(values.tolist())
        self._cache = None

    @property
    def count(self) -> int:
        return len(self._values)

    def _materialized(self) -> np.ndarray:
        """The window as one array, cached until the next observe."""
        if self._cache is None:
            self._cache = np.fromiter(self._values, dtype=np.float64)
        return self._cache

    def percentile(self, q: float) -> float:
        """q-th percentile of the window; NaN when empty."""
        if not 0.0 <= q <= 100.0:
            raise ValueError("percentile must be in [0, 100]")
        values = self._materialized()
        if values.size == 0:
            return float("nan")
        return float(np.percentile(values, q))

    def quantiles(self, qs: Sequence[float]) -> np.ndarray:
        """Several percentiles in one pass over the cached window."""
        if any(not 0.0 <= q <= 100.0 for q in qs):
            raise ValueError("percentile must be in [0, 100]")
        values = self._materialized()
        if values.size == 0:
            return np.full(len(qs), np.nan)
        return np.percentile(values, list(qs))

    def mean(self) -> float:
        values = self._materialized()
        if values.size == 0:
            return float("nan")
        return float(values.mean())

    def sum(self) -> float:
        """Total of the window (exposition: summary ``_sum`` series)."""
        return float(self._materialized().sum())

    def max(self) -> float:
        values = self._materialized()
        if values.size == 0:
            return float("nan")
        return float(values.max())


# Geometric 1ms..600s grid: wide enough for virtual queue waits and tight
# enough at the bottom for wall-clock decode/fold phases.
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 600.0,
)


class Histogram:
    """Fixed-bucket distribution with O(1) observations.

    The apply-path alternative to :class:`Summary`: an observation is one
    ``searchsorted`` into a static bucket grid and one counter bump — no
    per-value storage, no deque to rescan at report time — so it can sit
    on the hottest path at any volume.  Percentiles are answered by
    linear interpolation inside the owning bucket (exact min/max are
    tracked so the tails do not report bucket edges).

    Buckets are *upper bounds*, strictly increasing; observations above
    the last bound land in an implicit overflow bucket (Prometheus'
    ``+Inf``).
    """

    def __init__(
        self,
        name: str,
        description: str = "",
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        bounds = np.asarray(list(buckets), dtype=np.float64)
        if bounds.size == 0:
            raise ValueError("histogram needs at least one bucket bound")
        if not np.isfinite(bounds).all():
            raise ValueError("bucket bounds must be finite")
        if bounds.size > 1 and not (np.diff(bounds) > 0).all():
            raise ValueError("bucket bounds must be strictly increasing")
        self.name = name
        self.description = description
        # ``_bounds`` is immutable after construction; only the running
        # tallies change.
        self._bounds = bounds
        self._counts = np.zeros(bounds.size + 1, dtype=np.int64)
        self._sum = 0.0
        self._min = float("inf")
        self._max = float("-inf")

    # hot-path
    def observe(self, value: float) -> None:
        if not np.isfinite(value):
            raise ValueError("histogram observations must be finite")
        value = float(value)
        index = int(np.searchsorted(self._bounds, value, side="left"))
        self._counts[index] += 1
        self._sum += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value

    # hot-path
    def observe_many(self, values: np.ndarray) -> None:
        """Vectorized observe: one searchsorted + bincount for the batch."""
        values = np.asarray(values, dtype=np.float64)
        if values.size == 0:
            return
        if not np.isfinite(values).all():
            raise ValueError("histogram observations must be finite")
        indices = np.searchsorted(self._bounds, values, side="left")
        folded = np.bincount(indices, minlength=self._bounds.size + 1)
        self._counts += folded
        self._sum += float(values.sum())
        self._min = min(self._min, float(values.min()))
        self._max = max(self._max, float(values.max()))

    @property
    def count(self) -> int:
        return int(self._counts.sum())

    @property
    def bounds(self) -> np.ndarray:
        return self._bounds.copy()

    @property
    def bucket_counts(self) -> np.ndarray:
        """Per-bucket counts; the last entry is the overflow bucket."""
        return self._counts.copy()

    def sum(self) -> float:
        return self._sum

    def mean(self) -> float:
        total = self.count
        return self._sum / total if total else float("nan")

    def max(self) -> float:
        return self._max if self.count else float("nan")

    def min(self) -> float:
        return self._min if self.count else float("nan")

    def count_le(self, bound: float) -> int:
        """Observations at or below ``bound`` (exact at bucket bounds).

        ``observe`` assigns a value equal to a bucket's upper bound to
        that bucket, so when ``bound`` is one of the configured bounds
        the answer is exact — the SLO engine constructs its histograms
        with the objective's threshold as a bucket bound and counts
        good events with no interpolation error.  Between bounds, the
        count is rounded down to the nearest bucket edge.
        """
        index = int(np.searchsorted(self._bounds, bound, side="right"))
        return int(self._counts[:index].sum())

    def percentile(self, q: float) -> float:
        """Interpolated percentile from the bucket counts; NaN when empty."""
        if not 0.0 <= q <= 100.0:
            raise ValueError("percentile must be in [0, 100]")
        counts = self._counts
        low, high = self._min, self._max
        total = counts.sum()
        if total == 0:
            return float("nan")
        rank = (q / 100.0) * total
        cumulative = np.cumsum(counts)
        index = int(np.searchsorted(cumulative, rank, side="left"))
        index = min(index, counts.size - 1)
        # Bucket edges, clamped to the observed extremes so the first and
        # overflow buckets interpolate over real data, not the whole axis.
        lower = self._bounds[index - 1] if index > 0 else low
        upper = self._bounds[index] if index < self._bounds.size else high
        lower = max(float(lower), low)
        upper = min(float(upper), high)
        if upper <= lower or counts[index] == 0:
            return float(min(max(lower, low), high))
        below = cumulative[index] - counts[index]
        fraction = (rank - below) / counts[index]
        return float(lower + fraction * (upper - lower))


class RejectionStats:
    """Per-reason rejection accounting with a bounded ring of recents.

    Rejections are the controller's (and the gateway's) primary output
    signal; an unbounded list of them is a memory leak in a server that
    may shed millions of requests.  This keeps a monotone per-reason
    counter forever plus the ``capacity`` most recent rejection records
    for debugging.  Keys are whatever carries a ``.reason`` attribute
    (``TaskRejection``), so this module stays protocol-agnostic.
    """

    def __init__(self, capacity: int = 512) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.recent: deque = deque(maxlen=capacity)
        self._counts: dict = {}
        self._total = 0

    def record(self, rejection) -> None:
        """Fold one rejection (anything with a ``.reason``) into the stats."""
        reason = rejection.reason
        self.recent.append(rejection)
        self._counts[reason] = self._counts.get(reason, 0) + 1
        self._total += 1

    @property
    def counts(self) -> dict:
        """Per-reason totals (a copy; reasons are enum members)."""
        return dict(self._counts)

    @property
    def total(self) -> int:
        """All rejections ever recorded (not capped by the ring)."""
        return self._total

    def breakdown(self) -> str:
        """``reason=count`` summary line, stable order; 'none' when empty."""
        return format_reason_counts(self.counts)


def format_reason_counts(counts: dict) -> str:
    """Render per-reason totals as a stable ``reason=count`` line.

    Shared by :meth:`RejectionStats.breakdown` and callers that merge
    counts across servers (the gateway's tier-wide summary), so the two
    renderings cannot drift apart.
    """
    if not counts:
        return "none"
    parts = sorted(
        (getattr(reason, "value", str(reason)), count)
        for reason, count in counts.items()
    )
    return " ".join(f"{name}={count}" for name, count in parts)


@dataclass(frozen=True)
class _MetricRow:
    """One line of the rendered metrics report."""

    kind: str
    name: str
    rendering: str


class MetricsRegistry:
    """Namespace of metrics with idempotent creation and a text report."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._summaries: dict[str, Summary] = {}
        self._histograms: dict[str, Histogram] = {}
        # Per-reason rejection breakdowns, attached by name: the source is
        # a RejectionStats (read live) or a zero-arg callable returning a
        # {reason: count} mapping (e.g. the gateway's tier-wide merge).
        self._rejections: dict[str, object] = {}

    def counter(self, name: str, description: str = "") -> Counter:
        """Get or create a counter (same name → same object)."""
        if name not in self._counters:
            self._check_unique(name, self._counters)
            self._counters[name] = Counter(name, description)
        return self._counters[name]

    def gauge(self, name: str, description: str = "") -> Gauge:
        """Get or create a gauge."""
        if name not in self._gauges:
            self._check_unique(name, self._gauges)
            self._gauges[name] = Gauge(name, description)
        return self._gauges[name]

    def summary(self, name: str, description: str = "", window: int = 100_000) -> Summary:
        """Get or create a summary."""
        if name not in self._summaries:
            self._check_unique(name, self._summaries)
            self._summaries[name] = Summary(name, description, window)
        return self._summaries[name]

    def histogram(
        self,
        name: str,
        description: str = "",
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        """Get or create a fixed-bucket histogram."""
        if name not in self._histograms:
            self._check_unique(name, self._histograms)
            self._histograms[name] = Histogram(name, description, buckets)
        return self._histograms[name]

    def attach_rejections(
        self, name: str, source: RejectionStats | Callable[[], dict]
    ) -> None:
        """Surface a per-reason rejection breakdown in reports/snapshots.

        ``source`` is read at report time, so the breakdown is always
        live: pass the :class:`RejectionStats` itself, or a callable for
        derived views (the gateway merges shard-level reasons with its
        own backpressure sheds).
        """
        if not (isinstance(source, RejectionStats) or callable(source)):
            raise TypeError("source must be a RejectionStats or a callable")
        self._check_unique(name, self._rejections)
        self._rejections[name] = source

    def _check_unique(self, name: str, own_kind: dict) -> None:
        for registry in (
            self._counters,
            self._gauges,
            self._summaries,
            self._histograms,
            self._rejections,
        ):
            if registry is not own_kind and name in registry:
                raise ValueError(f"metric {name!r} already exists with another kind")

    # ------------------------------------------------------------------
    # Iteration (consumed by repro.observability.exporters)
    # ------------------------------------------------------------------
    @property
    def counters(self) -> dict[str, Counter]:
        return dict(self._counters)

    @property
    def gauges(self) -> dict[str, Gauge]:
        return dict(self._gauges)

    @property
    def summaries(self) -> dict[str, Summary]:
        return dict(self._summaries)

    @property
    def histograms(self) -> dict[str, Histogram]:
        return dict(self._histograms)

    def rejection_breakdowns(self) -> dict[str, dict]:
        """Resolve every attached rejection source to live counts."""
        resolved: dict[str, dict] = {}
        for name, source in self._rejections.items():
            if isinstance(source, RejectionStats):
                resolved[name] = source.counts
            else:
                resolved[name] = dict(source())  # type: ignore[operator]
        return resolved

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def report(self) -> str:
        """Human-readable dump of every metric (CLI `repro status` style)."""
        rows: list[_MetricRow] = []
        for counter in self.counters.values():
            rows.append(_MetricRow("counter", counter.name, str(counter.value)))
        for gauge in self.gauges.values():
            rows.append(_MetricRow("gauge", gauge.name, f"{gauge.value:.6g}"))
        for summary in self.summaries.values():
            if summary.count == 0:
                rendering = "(empty)"
            else:
                p50, p90, p99 = summary.quantiles((50.0, 90.0, 99.0))
                rendering = (
                    f"n={summary.count} mean={summary.mean():.4g} "
                    f"p50={p50:.4g} p90={p90:.4g} p99={p99:.4g} "
                    f"max={summary.max():.4g}"
                )
            rows.append(_MetricRow("summary", summary.name, rendering))
        for histogram in self.histograms.values():
            if histogram.count == 0:
                rendering = "(empty)"
            else:
                rendering = (
                    f"n={histogram.count} mean={histogram.mean():.4g} "
                    f"p50={histogram.percentile(50):.4g} "
                    f"p90={histogram.percentile(90):.4g} "
                    f"p99={histogram.percentile(99):.4g} "
                    f"max={histogram.max():.4g}"
                )
            rows.append(_MetricRow("histogram", histogram.name, rendering))
        for name, counts in self.rejection_breakdowns().items():
            rows.append(_MetricRow("rejections", name, format_reason_counts(counts)))
        rows.sort(key=lambda row: (row.kind, row.name))
        width = max((len(row.name) for row in rows), default=0)
        lines = [f"{row.name:<{width}}  [{row.kind}]  {row.rendering}" for row in rows]
        return "\n".join(lines)
