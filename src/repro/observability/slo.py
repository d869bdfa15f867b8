"""Serving-tier service-level objectives: specs, SLI tracking, burn rates.

The paper's I-Prof enforces a *per-device* SLO (a computation-time budget
per mini-batch); this module gives the serving tier that grew around it —
gateway, elastic runtime, durable shards — objectives of its own:

* **upload latency** — the fraction of delivered uploads whose end-to-end
  gateway latency (admission → lane completion) stayed within a bound;
* **shed rate** — the fraction of requests the tier admitted instead of
  refusing at the token bucket or at a crashed shard;
* **applied staleness** — the fraction of applied gradients whose
  staleness at delivery stayed within a bound (the quantity Fig. 7 of
  the paper plots as a CDF, here enforced as a contract);
* **availability** — the fraction of shard-ticks on which a registered
  shard was live rather than crashed and awaiting failover.

Each objective is tracked as a cumulative ``(good, total)`` event pair
sourced from the gateway's metrics (histogram buckets, counters,
membership counts) and evaluated by a **multi-window burn-rate
engine** in the style of the SRE workbook: the *burn rate* of a window is
the window's bad-event fraction divided by the error budget
(``1 - objective``), an alert fires only when BOTH the fast and the slow
window burn above the fire threshold (fast reacts, slow confirms), and it
resolves once the fast window burns below the resolve threshold.  All
timing comes from the caller's ``now``, so the engine is bit-identical
run-to-run on the virtual clock and works unchanged on wall clock.

:meth:`SLOEngine.from_gateway` owns the SLO side of a gateway: it
registers the two SLI histograms, and the engine's delivery and pump
observers fill them and evaluate on the spec's cadence.

Alerts are typed :mod:`~repro.observability.alerts` records in the
gateway's :class:`~repro.observability.journal.EventJournal`, and the
set of currently-firing SLOs is consumable by the
:class:`~repro.runtime.elasticity.ElasticityController` as an optional
scale-up pressure input — closing the observe→decide loop.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.observability.alerts import (
    FIRE_BURN_RATE,
    RESOLVE_BURN_RATE,
    AlertManager,
)

__all__ = ["SLOSpec", "SLOStatus", "SLOTracker", "SLOEngine"]


#: Target good-event fractions of the four objectives.
LATENCY_OBJECTIVE = 0.95
SHED_OBJECTIVE = 0.99
STALENESS_OBJECTIVE = 0.95
AVAILABILITY_OBJECTIVE = 0.999


@dataclass(frozen=True)
class SLOSpec:
    """Declarative bounds and windows of the serving tier's objectives.

    ``latency_bound_s = 2.0`` with :data:`LATENCY_OBJECTIVE` (0.95) reads
    "95% of uploads complete end-to-end within 2 seconds" — the p95
    latency SLO.  The objectives and the shared burn-rate thresholds are
    module constants: an alert fires when the tier consumes its error
    budget at :data:`~repro.observability.alerts.FIRE_BURN_RATE` (4×) the
    sustainable rate over BOTH windows, and resolves once the fast window
    is back under :data:`~repro.observability.alerts.RESOLVE_BURN_RATE`.
    ``evaluate_every_s`` quantizes evaluation on the caller's clock
    exactly like the failure detector's probes, so same-seed
    virtual-clock runs evaluate at identical instants.
    """

    latency_bound_s: float = 2.0
    staleness_bound: float = 16.0
    fast_window_s: float = 300.0
    slow_window_s: float = 3600.0
    evaluate_every_s: float = 5.0

    def __post_init__(self) -> None:
        if self.latency_bound_s <= 0:
            raise ValueError("latency_bound_s must be positive")
        if self.staleness_bound < 0:
            raise ValueError("staleness_bound must be non-negative")
        if self.fast_window_s <= 0:
            raise ValueError("fast_window_s must be positive")
        if self.slow_window_s <= self.fast_window_s:
            raise ValueError("slow_window_s must exceed fast_window_s")
        if not 0.0 < self.evaluate_every_s <= self.fast_window_s:
            raise ValueError(
                "evaluate_every_s must be in (0, fast_window_s]"
            )


def _latency_buckets(bound: float) -> tuple[float, ...]:
    """Latency histogram grid anchored on the SLO bound.

    The bound itself is a bucket edge, so the engine's good-event count
    (``Histogram.count_le``) is exact rather than interpolated.
    """
    factors = (0.1, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 4.0, 8.0, 16.0)
    return tuple(sorted({bound * f for f in factors}))


def _staleness_buckets(bound: float) -> tuple[float, ...]:
    """Staleness histogram grid: exact zero bucket plus bound-anchored edges."""
    grid = {0.0} | {bound * f for f in (0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 4.0, 8.0)}
    return tuple(sorted(grid))


@dataclass(frozen=True)
class SLOStatus:
    """One objective's state at an evaluation instant."""

    name: str
    objective: float
    good: float
    total: float
    bad_fraction_fast: float
    bad_fraction_slow: float
    burn_rate_fast: float
    burn_rate_slow: float
    budget_remaining: float
    firing: bool

    def to_dict(self) -> dict:
        """Strict-JSON row (every value finite)."""
        return {
            "name": self.name,
            "objective": self.objective,
            "good": self.good,
            "total": self.total,
            "bad_fraction_fast": self.bad_fraction_fast,
            "bad_fraction_slow": self.bad_fraction_slow,
            "burn_rate_fast": self.burn_rate_fast,
            "burn_rate_slow": self.burn_rate_slow,
            "budget_remaining": self.budget_remaining,
            "firing": self.firing,
        }


@dataclass(frozen=True)
class _Sample:
    """Cumulative (good, total) observed at one evaluation instant."""

    time: float
    good: float
    total: float


class SLOTracker:
    """Windowed burn-rate view over one cumulative ``(good, total)`` SLI.

    ``source`` returns cumulative counts (monotone non-decreasing); the
    tracker samples them on every :meth:`observe` and answers window
    deltas by differencing against the newest retained sample at or
    before the window boundary.  A window with no events burns at 0 —
    an idle tier is within budget, not out of it.
    """

    def __init__(
        self,
        name: str,
        objective: float,
        spec: SLOSpec,
        source: Callable[[], tuple[float, float]],
    ) -> None:
        if not 0.0 < objective < 1.0:
            raise ValueError("objective must be in (0, 1)")
        self.name = name
        self.objective = objective
        self.budget = 1.0 - objective
        self.spec = spec
        self._source = source
        self._times: list[float] = []
        self._samples: list[_Sample] = []

    def observe(self, now: float) -> None:
        """Sample the cumulative SLI; prune samples past the slow window."""
        good, total = self._source()
        self._times.append(now)
        self._samples.append(_Sample(time=now, good=good, total=total))
        # Keep one sample at or before the slow-window boundary so the
        # slow delta always has a base to difference against.
        cutoff = now - self.spec.slow_window_s
        drop = bisect_right(self._times, cutoff) - 1
        if drop > 0:
            del self._times[:drop]
            del self._samples[:drop]

    def _bad_fraction(self, now: float, window_s: float) -> float:
        """Bad-event fraction of the trailing window (0 when eventless)."""
        current = self._samples[-1]
        cutoff = now - window_s
        index = bisect_right(self._times, cutoff) - 1
        base = self._samples[max(index, 0)]
        delta_total = current.total - base.total
        if delta_total <= 0:
            return 0.0
        delta_good = current.good - base.good
        return min(1.0, max(0.0, 1.0 - delta_good / delta_total))

    def status(self, now: float, firing: bool) -> SLOStatus:
        """Burn rates and budget at ``now`` (call after :meth:`observe`)."""
        current = self._samples[-1]
        bad_fast = self._bad_fraction(now, self.spec.fast_window_s)
        bad_slow = self._bad_fraction(now, self.spec.slow_window_s)
        return SLOStatus(
            name=self.name,
            objective=self.objective,
            good=current.good,
            total=current.total,
            bad_fraction_fast=bad_fast,
            bad_fraction_slow=bad_slow,
            burn_rate_fast=bad_fast / self.budget,
            burn_rate_slow=bad_slow / self.budget,
            budget_remaining=min(1.0, max(0.0, 1.0 - bad_slow / self.budget)),
            firing=firing,
        )


class SLOEngine:
    """Evaluate every tracked objective and manage alert transitions.

    The engine owns no clock: callers (the gateway's pump through
    :meth:`on_pump`, a test, a wall-clock service loop) invoke
    :meth:`evaluate` with their ``now``.  Evaluation order is the fixed
    tracker insertion order, so the journaled fire/resolve sequence of a
    deterministic run is bit-identical across repeats.  ``latency_hist``
    and ``staleness_hist`` are the per-delivery SLI histograms
    :meth:`on_delivery` fills; only a gateway-bound engine has them.
    """

    def __init__(
        self,
        spec: SLOSpec,
        trackers: list[SLOTracker],
        journal=None,
        latency_hist=None,
        staleness_hist=None,
    ) -> None:
        if not trackers:
            raise ValueError("an SLO engine needs at least one tracker")
        names = [tracker.name for tracker in trackers]
        if len(set(names)) != len(names):
            raise ValueError("tracker names must be unique")
        self.spec = spec
        self.trackers: dict[str, SLOTracker] = {
            tracker.name: tracker for tracker in trackers
        }
        self.alerts = AlertManager(spec, journal=journal)
        self.evaluations = 0
        self._last: dict[str, SLOStatus] = {}
        self.latency_hist = latency_hist
        self.staleness_hist = staleness_hist
        self._next_evaluation_s = float("-inf")

    # ------------------------------------------------------------------
    # Gateway wiring
    # ------------------------------------------------------------------
    @classmethod
    def from_gateway(cls, spec: SLOSpec, gateway, journal=None) -> "SLOEngine":
        """Build the four serving-tier objectives over a gateway's SLIs.

        Registers the two per-delivery SLI histograms on the gateway's
        registry.  Sources read only cumulative state — histogram
        buckets, monotone counters, membership counts — so an evaluation
        never rescans per-event storage.
        """
        latency_hist = gateway.metrics.histogram(
            "gateway.upload_latency_s",
            "end-to-end admission-to-apply latency of delivered uploads",
            buckets=_latency_buckets(spec.latency_bound_s),
        )
        staleness_hist = gateway.metrics.histogram(
            "gateway.applied_staleness",
            "staleness of applied gradients at delivery time",
            buckets=_staleness_buckets(spec.staleness_bound),
        )
        requests = gateway.metrics.counter("gateway.requests")
        shed = gateway.metrics.counter("gateway.requests_shed")
        unavailable = gateway.metrics.counter("gateway.requests_unavailable")

        def latency_sli() -> tuple[float, float]:
            return (
                float(latency_hist.count_le(spec.latency_bound_s)),
                float(latency_hist.count),
            )

        def shed_sli() -> tuple[float, float]:
            total = requests.value
            bad = shed.value + unavailable.value
            return float(total - bad), float(total)

        def staleness_sli() -> tuple[float, float]:
            return (
                float(staleness_hist.count_le(spec.staleness_bound)),
                float(staleness_hist.count),
            )

        # Availability accumulates shard-ticks at sampling time: each
        # evaluation adds one tick per registered shard, good while live.
        # Sampling instants are quantized on the caller's clock, so the
        # accumulation is deterministic under the virtual clock.
        availability = {"good": 0.0, "total": 0.0}

        def availability_sli() -> tuple[float, float]:
            live = gateway.num_shards
            availability["good"] += live
            availability["total"] += live + len(gateway.crashed_shards)
            return availability["good"], availability["total"]

        return cls(
            spec,
            [
                SLOTracker(
                    "upload_latency", LATENCY_OBJECTIVE, spec, latency_sli
                ),
                SLOTracker("shed_rate", SHED_OBJECTIVE, spec, shed_sli),
                SLOTracker(
                    "applied_staleness",
                    STALENESS_OBJECTIVE,
                    spec,
                    staleness_sli,
                ),
                SLOTracker(
                    "availability",
                    AVAILABILITY_OBJECTIVE,
                    spec,
                    availability_sli,
                ),
            ],
            journal=journal,
            latency_hist=latency_hist,
            staleness_hist=staleness_hist,
        )

    # hot-path
    def on_delivery(
        self, shard_id: str, shard, entries: list, batch: list, pre_clock: int,
        now: float, start: float, end: float,
    ) -> None:
        """Delivery observer: one vectorized observe per SLI histogram.

        Staleness is taken against ``pre_clock``, the shard clock before
        the apply, clamped at zero for leases clamped forward by
        rerouting.  Latency runs from gateway admission (the encoded
        entry's stamp) to lane completion; results redelivered after a
        failover keep their crash-era admission stamp — they DID wait
        that long.
        """
        stale = np.fromiter(
            (pre_clock - result.pull_step for result in batch),
            dtype=np.float64,
            count=len(batch),
        )
        np.maximum(stale, 0.0, out=stale)
        self.staleness_hist.observe_many(stale)
        admitted = [entry.admitted_at for entry in entries]
        self.latency_hist.observe_many(end - np.asarray(admitted, dtype=np.float64))

    def on_pump(self, now: float) -> None:
        """Pump observer: :meth:`evaluate` on the spec's quantized cadence.

        Evaluating on every pump would tax the hot path without adding
        fidelity on the burn windows' timescale, and the fixed cadence is
        what makes same-seed virtual-clock runs alert-identical.
        """
        if now >= self._next_evaluation_s:
            self._next_evaluation_s = now + self.spec.evaluate_every_s
            self.evaluate(now)

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def evaluate(self, now: float) -> dict[str, SLOStatus]:
        """Sample every SLI, update burn rates, fire/resolve alerts."""
        self.evaluations += 1
        statuses: dict[str, SLOStatus] = {}
        for name, tracker in self.trackers.items():
            tracker.observe(now)
            status = tracker.status(now, firing=self.alerts.is_active(name))
            status = self.alerts.update(status, now)
            statuses[name] = status
        self._last = statuses
        return statuses

    def active_alerts(self) -> tuple[str, ...]:
        """Names of the currently-firing objectives (stable order)."""
        return self.alerts.active

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Strict-JSON summary of every objective and the alert state."""
        return {
            "spec": {
                "latency_bound_s": self.spec.latency_bound_s,
                "staleness_bound": self.spec.staleness_bound,
                "fast_window_s": self.spec.fast_window_s,
                "slow_window_s": self.spec.slow_window_s,
                "fire_burn_rate": FIRE_BURN_RATE,
                "resolve_burn_rate": RESOLVE_BURN_RATE,
                "evaluate_every_s": self.spec.evaluate_every_s,
            },
            "evaluations": self.evaluations,
            "objectives": {
                name: status.to_dict() for name, status in self._last.items()
            },
            "active_alerts": list(self.alerts.active),
            "alerts_fired": self.alerts.fired,
            "alerts_resolved": self.alerts.resolved,
        }

    def report(self) -> str:
        """Human-readable one-line-per-objective table."""
        if not self._last:
            return "slo: not yet evaluated"
        lines = []
        for name, status in self._last.items():
            state = "FIRING" if status.firing else "ok"
            lines.append(
                f"{name:<18} obj={status.objective:.3f} "
                f"burn[fast]={status.burn_rate_fast:6.2f} "
                f"burn[slow]={status.burn_rate_slow:6.2f} "
                f"budget={status.budget_remaining:5.1%} "
                f"events={status.total:.0f} [{state}]"
            )
        return "\n".join(lines)
