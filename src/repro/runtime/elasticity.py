"""Queue-driven autoscaling of the sharded serving tier.

The controller turns the runtime's load signals into membership calls on
the gateway.  Every ``window_s`` of virtual time it computes, over the
window just closed:

* **occupancy** — virtual busy-seconds accrued by all lanes divided by
  ``window · num_shards`` (1.0 = every lane saturated);
* **shed rate** — admission-bucket rejections per second (requests the
  tier turned away at the front door);
* **backlog** — the deepest lane's unfinished virtual work, in seconds,
  and the pending micro-batch count across lane queues.

Any *pressure* signal above its threshold grows the tier (multiplicative
step, classic additive-increase-is-too-slow reasoning for a 4× load jump);
a fully quiet window shrinks it by one.  Every membership change re-tunes
the admission token bucket to ``admission_rate_per_shard · num_shards`` —
capacity and admission move together, so the bucket keeps shedding at the
tier's true limit rather than at a stale one.

The controller is deliberately gateway-duck-typed: it calls only
``scale_up``/``scale_down``, the public signal accessors, and the bucket's
``set_rate`` — it owns no mechanism of its own.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ElasticityPolicy", "ScalingEvent", "ElasticityController"]

# Fraction of the post-shrink tier's admission capacity the window's
# admitted load must fit into before a scale-down is allowed.  This is
# what damps flapping: with per-shard admission, a tier serving near
# its bucket limit shows LOW lane occupancy (the bucket, not the lane,
# is the binding constraint), so occupancy alone would shrink a tier
# that immediately sheds and grows again.
SCALE_DOWN_HEADROOM = 0.8


@dataclass(frozen=True)
class ElasticityPolicy:
    """Thresholds and bounds of the autoscaler.

    ``scale_up_factor`` is the multiplicative growth step (2.0 doubles the
    tier per pressure window, reaching any bound in O(log) windows);
    scale-down is always single-shard, because removal costs a
    synchronization round and oscillation is worse than a lazy shrink.
    ``admission_rate_per_shard`` of None leaves the token bucket alone.
    """

    min_shards: int = 1
    max_shards: int = 8
    window_s: float = 60.0
    cooldown_s: float = 60.0
    scale_up_occupancy: float = 0.85
    scale_up_backlog_s: float = 2.0
    scale_up_queue_depth: float = 4.0
    scale_up_shed_rate: float = 0.0
    scale_down_occupancy: float = 0.30
    scale_up_factor: float = 2.0
    admission_rate_per_shard: float | None = None
    # Treat a firing SLO alert (gateway.slo_engine) as scale-up pressure:
    # the burn-rate engine watches user-facing objectives (latency, shed,
    # staleness) the window signals above only proxy, so an alert-driven
    # grow reacts to budget burn even when occupancy still looks tame.
    # Off by default — alert consumption is an opt-in policy input.
    scale_up_on_alert: bool = False

    def __post_init__(self) -> None:
        if self.min_shards <= 0:
            raise ValueError("min_shards must be positive")
        if self.max_shards < self.min_shards:
            raise ValueError("max_shards must be at least min_shards")
        if self.window_s <= 0:
            raise ValueError("window_s must be positive")
        if self.cooldown_s < 0:
            raise ValueError("cooldown_s must be non-negative")
        if self.scale_up_factor <= 1.0:
            raise ValueError("scale_up_factor must exceed 1")
        if not 0.0 <= self.scale_down_occupancy < self.scale_up_occupancy:
            raise ValueError(
                "scale_down_occupancy must be in [0, scale_up_occupancy)"
            )
        if (
            self.admission_rate_per_shard is not None
            and self.admission_rate_per_shard <= 0
        ):
            raise ValueError("admission_rate_per_shard must be positive")


@dataclass(frozen=True)
class ScalingEvent:
    """One membership change and the window signals that triggered it."""

    time: float
    action: str  # "add" | "remove"
    shard_ids: tuple[str, ...]
    num_shards: int  # tier size after the event
    reason: str
    occupancy: float
    shed_rate: float
    backlog_s: float
    queue_depth: float

    def describe(self) -> str:
        sign = "+" if self.action == "add" else "-"
        return (
            f"t={self.time:8.1f}s  {sign}{len(self.shard_ids)} -> "
            f"{self.num_shards} shards  [{self.reason}]  "
            f"occ={self.occupancy:.2f} shed={self.shed_rate:.2f}/s "
            f"backlog={self.backlog_s:.2f}s depth={self.queue_depth:.1f}"
        )


@dataclass
class _WindowSnapshot:
    """Counter values at the start of the current observation window."""

    start: float
    busy_seconds: float
    shed: int
    results: int


class ElasticityController:
    """Sliding-window autoscaler bound to one gateway."""

    def __init__(self, policy: ElasticityPolicy, gateway) -> None:
        self.policy = policy
        self.gateway = gateway
        self.events: list[ScalingEvent] = []
        self._window: _WindowSnapshot | None = None
        self._last_event_time: float | None = None
        self._scale_ups = gateway.metrics.counter(
            "runtime.scale_ups", "autoscaler shard additions"
        )
        self._scale_downs = gateway.metrics.counter(
            "runtime.scale_downs", "autoscaler shard removals"
        )
        if not policy.min_shards <= gateway.num_shards <= policy.max_shards:
            raise ValueError(
                f"gateway starts at {gateway.num_shards} shards, outside "
                f"[{policy.min_shards}, {policy.max_shards}]"
            )

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------
    def observe(self, now: float) -> None:
        """Advance the sliding window; decide at each window boundary."""
        if self._window is None:
            self._window = self._snapshot(now)
            return
        elapsed = now - self._window.start
        if elapsed < self.policy.window_s:
            return
        self._evaluate(now, elapsed)
        self._window = self._snapshot(now)

    def _snapshot(self, now: float) -> _WindowSnapshot:
        return _WindowSnapshot(
            start=now,
            busy_seconds=self.gateway.total_busy_seconds(),
            shed=self.gateway.requests_shed(),
            results=self.gateway.results_received(),
        )

    def _signals(
        self, now: float, elapsed: float
    ) -> tuple[float, float, float, float, float]:
        assert self._window is not None
        busy = self.gateway.total_busy_seconds() - self._window.busy_seconds
        occupancy = busy / (elapsed * max(1, self.gateway.num_shards))
        shed_rate = (self.gateway.requests_shed() - self._window.shed) / elapsed
        admitted_rate = (
            self.gateway.results_received() - self._window.results
        ) / elapsed
        backlog_s = self.gateway.max_backlog_s(now)
        queue_depth = float(self.gateway.runtime.max_queue_depth(now))
        return occupancy, shed_rate, backlog_s, queue_depth, admitted_rate

    # ------------------------------------------------------------------
    # Decision
    # ------------------------------------------------------------------
    def _evaluate(self, now: float, elapsed: float) -> None:
        occupancy, shed_rate, backlog_s, queue_depth, admitted_rate = (
            self._signals(now, elapsed)
        )
        if self._last_event_time is not None and (
            now - self._last_event_time < self.policy.cooldown_s
        ):
            return
        policy = self.policy
        num_shards = self.gateway.num_shards

        pressure = []
        if occupancy > policy.scale_up_occupancy:
            pressure.append(f"occupancy {occupancy:.2f}")
        if shed_rate > policy.scale_up_shed_rate:
            pressure.append(f"shed {shed_rate:.2f}/s")
        if backlog_s > policy.scale_up_backlog_s:
            pressure.append(f"backlog {backlog_s:.2f}s")
        if queue_depth > policy.scale_up_queue_depth:
            pressure.append(f"queue depth {queue_depth:.1f}")
        if policy.scale_up_on_alert:
            engine = self.gateway.slo_engine
            alerts = engine.active_alerts() if engine is not None else ()
            if alerts:
                pressure.append("slo alert " + "+".join(alerts))

        if pressure and num_shards < policy.max_shards:
            target = min(
                policy.max_shards,
                max(num_shards + 1, int(num_shards * policy.scale_up_factor)),
            )
            added = tuple(
                self.gateway.scale_up(now) for _ in range(target - num_shards)
            )
            self._scale_ups.increment(len(added))
            self._record(
                now, "add", added, ", ".join(pressure),
                occupancy, shed_rate, backlog_s, queue_depth,
            )
            return

        # "Quiet" tolerates the instantaneous residue of the batch that was
        # enqueued this very event (observation rides on request handling,
        # so a just-submitted batch always shows as depth 1 / one service
        # time of backlog): the bars are fractions of the scale-up bars,
        # not exact zeros.
        quiet = (
            occupancy < policy.scale_down_occupancy
            and shed_rate == 0.0
            and backlog_s <= 0.5 * policy.scale_up_backlog_s
            and queue_depth <= 0.5 * policy.scale_up_queue_depth
        )
        if quiet and policy.admission_rate_per_shard is not None:
            # Safety: only shrink when the post-shrink tier's admission
            # capacity would still have absorbed this window's load (with
            # headroom).  Lane occupancy alone is blind to a bucket-bound
            # tier and would flap: shed → grow → "idle" → shrink → shed.
            post_shrink_capacity = policy.admission_rate_per_shard * (
                num_shards - 1
            )
            quiet = admitted_rate <= (
                SCALE_DOWN_HEADROOM * post_shrink_capacity
            )
        if quiet and num_shards > policy.min_shards:
            removed = (self.gateway.scale_down(now),)
            self._scale_downs.increment()
            self._record(
                now, "remove", removed, f"occupancy {occupancy:.2f}",
                occupancy, shed_rate, backlog_s, queue_depth,
            )

    def _record(
        self,
        now: float,
        action: str,
        shard_ids: tuple[str, ...],
        reason: str,
        occupancy: float,
        shed_rate: float,
        backlog_s: float,
        queue_depth: float,
    ) -> None:
        self._last_event_time = now
        event = ScalingEvent(
            time=now,
            action=action,
            shard_ids=shard_ids,
            num_shards=self.gateway.num_shards,
            reason=reason,
            occupancy=occupancy,
            shed_rate=shed_rate,
            backlog_s=backlog_s,
            queue_depth=queue_depth,
        )
        self.events.append(event)
        self.gateway.journal.scaling(event)
        self._retune_admission(now)

    def _retune_admission(self, now: float) -> None:
        rate = self.policy.admission_rate_per_shard
        bucket = self.gateway.bucket
        if rate is None or bucket is None:
            return
        bucket.set_rate(rate * self.gateway.num_shards, now)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def timeline(self) -> str:
        """The scaling-event log, one line per membership change."""
        if not self.events:
            return "no scaling events"
        return "\n".join(event.describe() for event in self.events)
