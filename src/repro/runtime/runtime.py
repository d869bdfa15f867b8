"""``ShardRuntime``: bounded per-shard lanes on the virtual clock.

The gateway hands every flushed micro-batch to :meth:`ShardRuntime.submit`
as an opaque job (decode → stage ``on_batch`` → ``submit_many``, closed
over the shard) — it is the gateway's only delivery path, and every
admitted job runs inline, on the caller's thread, before ``submit``
returns.  Around that job the runtime owns:

* **lane occupancy** — the tier's only model of virtual lane time: every
  admitted batch, in every mode, is charged once, at admission, from
  ``max(now, busy_until)`` for the cost model's service time, and the job
  receives that ``(start, end)``.  Busy time, backlog, the routing load
  signal and throughput all read these lanes (retired ones included);
* **admission to the lane** — an ``"async"`` lane holds at most
  ``queue_capacity`` unfinished micro-batches; a batch arriving to a full
  (or crashed) lane is rejected (counted per batch and per result)
  instead of queueing without bound.  An admitted async batch executes
  at once but counts as queued until its modeled ``end``, so depth is a
  real autoscaler signal.  A ``"sync"`` lane, and any batch submitted
  ``inline``, never sheds (a sync lane's queue depth reads 0);
* **telemetry** — queue depth at enqueue, per-batch virtual service
  time, executed/rejected counters — all exported through the gateway's
  :class:`~repro.server.telemetry.MetricsRegistry`.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.runtime.spec import RuntimeSpec
from repro.runtime.telemetry import AggregationCostModel

if TYPE_CHECKING:
    from repro.observability import EventJournal
    from repro.server.telemetry import MetricsRegistry

__all__ = ["ShardRuntime"]

# Time constant of the per-lane service-accrual EWMA that feeds routing
# decisions: the load score remembers roughly this many seconds of recent
# service, so it ranks shards by *rate* instead of by the flickering
# instantaneous backlog of a lightly-utilized lane.
_LOAD_TAU_S = 30.0


@dataclass
class _LaneState:
    """Virtual occupancy of one shard lane.

    ``load_ewma`` is the service accrued recently, decayed with a
    ``_LOAD_TAU_S`` time constant from ``load_at``.  ``finishes`` holds
    the modeled completion time of every unfinished batch of an
    async lane, oldest first (its queue).  ``rejects`` remembers the most
    recent capacity sheds as ``(time, batch_size)`` pairs — a bounded
    trace the router reads as a per-shard "recently overloaded" pressure
    signal.
    """

    busy_until: float = 0.0
    busy_seconds: float = 0.0
    batches: int = 0
    results: int = 0
    load_ewma: float = 0.0
    load_at: float = 0.0
    finishes: deque = field(default_factory=deque)
    rejects: deque = field(default_factory=lambda: deque(maxlen=128))

    def charge(
        self, batch_size: int, service: float, now: float
    ) -> tuple[float, float]:
        """Occupy the lane with one batch; return its ``(start, end)``."""
        start = max(now, self.busy_until)
        self.busy_until = start + service
        self.busy_seconds += service
        self.batches += 1
        self.results += batch_size
        self.load_ewma = self.recent_load(now) + service
        self.load_at = max(self.load_at, now)
        return start, self.busy_until

    def recent_load(self, now: float) -> float:
        elapsed = max(0.0, now - self.load_at)
        return self.load_ewma * math.exp(-elapsed / _LOAD_TAU_S)

    def absorb(self, other: "_LaneState") -> None:
        """Fold another lane's accrued occupancy into this one."""
        self.busy_until = max(self.busy_until, other.busy_until)
        self.busy_seconds += other.busy_seconds
        self.batches += other.batches
        self.results += other.results


class ShardRuntime:
    """Bounded virtual queues + serialized lanes for every shard."""

    def __init__(
        self,
        spec: RuntimeSpec,
        metrics: "MetricsRegistry",
        cost_model: AggregationCostModel | None,
        journal: "EventJournal",
    ) -> None:
        self.spec = spec
        self.cost_model = cost_model
        # The gateway's event journal: capacity sheds are decisions
        # worth attributing, not just counting.
        self._journal = journal
        # The one place sync and async delivery differ: a sync lane
        # bypasses admission and the queue signals.
        self._sync = spec.mode == "sync"
        self._lanes: dict[str, _LaneState] = {}
        # Occupancy of lanes dropped by drop_lane, folded into one.
        self._retired = _LaneState()
        self._dead_lanes: set[str] = set()
        self._batches = metrics.counter(
            "runtime.batches", "micro-batches executed by worker lanes"
        )
        self._rejected_batches = metrics.counter(
            "runtime.batches_rejected", "micro-batches dropped by full lanes"
        )
        self._rejected_results = metrics.counter(
            "runtime.results_rejected", "results inside dropped micro-batches"
        )
        self._depth_summary = metrics.summary(
            "runtime.queue_depth", "lane queue depth observed at enqueue"
        )
        self._service_summary = metrics.summary(
            "runtime.service_s", "per-batch service time (virtual)"
        )

    # ------------------------------------------------------------------
    # Lane membership
    # ------------------------------------------------------------------
    def add_lane(self, shard_id: str) -> None:
        """Open a lane — or bring a failed one back (failover restored
        its shard)."""
        self._lanes.setdefault(shard_id, _LaneState())
        self._dead_lanes.discard(shard_id)

    def drop_lane(self, shard_id: str) -> None:
        """Retire a lane; its occupancy stays in the tier-wide totals."""
        lane = self._lanes.pop(shard_id, None)
        if lane is not None:
            self._retired.absorb(lane)
        self._dead_lanes.discard(shard_id)

    # ------------------------------------------------------------------
    # Lane liveness (crash injection + failure detection)
    # ------------------------------------------------------------------
    def fail_lane(self, shard_id: str) -> None:
        """Kill a lane: queued batches are lost, submissions bounce.

        Models a shard process crash — the in-flight micro-batches on the
        lane die with it (at-most-once for work past the WAL), and the
        lane stops accepting jobs until :meth:`add_lane` revives it.  The
        lane's accrued occupancy stays: it was served.
        """
        self._dead_lanes.add(shard_id)
        lane = self._lanes.get(shard_id)
        if lane is not None:
            lane.finishes.clear()

    def lane_alive(self, shard_id: str) -> bool:
        return shard_id not in self._dead_lanes

    # ------------------------------------------------------------------
    # Occupancy and queue signals
    # ------------------------------------------------------------------
    def _prune(self, lane: _LaneState, now: float) -> None:
        while lane.finishes and lane.finishes[0] <= now:
            lane.finishes.popleft()

    def queue_depth(self, shard_id: str, now: float) -> int:
        """Unfinished micro-batches occupying the shard's lane.

        Queries must follow virtual time monotonically: finished batches
        are pruned as ``now`` advances (that pruning is what bounds the
        lane model's memory), so a query at an earlier ``now`` than a
        previous one undercounts.
        """
        lane = self._lanes.get(shard_id)
        if lane is None:
            return 0
        self._prune(lane, now)
        return len(lane.finishes)

    def max_queue_depth(self, now: float) -> int:
        if not self._lanes:
            return 0
        return max(self.queue_depth(shard_id, now) for shard_id in self._lanes)

    def backlog_s(self, shard_id: str, now: float) -> float:
        """Seconds of virtual work the shard's lane has yet to finish."""
        lane = self._lanes.get(shard_id)
        if lane is None:
            return 0.0
        return max(0.0, lane.busy_until - now)

    def max_backlog_s(self, now: float) -> float:
        """Deepest lane's unfinished virtual work, in seconds."""
        return max((self.backlog_s(shard, now) for shard in self._lanes), default=0.0)

    def load_s(self, shard_id: str, now: float) -> float:
        """Live load of one lane in seconds of work (``KeyError`` if none).

        The larger of its decayed recent service (which ranks lanes by
        service *rate* even when queues drain between arrivals) and its
        backlog (which dominates under overload, when the decayed sum
        saturates) — not their sum, which would count a just-admitted
        batch twice — plus the seconds of work it recently shed.
        """
        lane = self._lanes[shard_id]
        busy = max(lane.recent_load(now), lane.busy_until - now)
        return busy + self.recent_shed_s(shard_id, now)

    def lane_usage(self, shard_id: str) -> tuple[int, float]:
        """``(batches, busy_seconds)`` charged to one live lane."""
        lane = self._lanes[shard_id]
        return lane.batches, lane.busy_seconds

    def totals(self) -> _LaneState:
        """Occupancy of every lane, retired lanes included, folded into one."""
        total = _LaneState()
        for lane in [*self._lanes.values(), self._retired]:
            total.absorb(lane)
        return total

    def recent_shed_s(
        self, shard_id: str, now: float, window_s: float = 60.0
    ) -> float:
        """Seconds of service the lane shed in the trailing window.

        Each capacity rejection is priced at the cost model's service
        time (0.0 without one), so a lane that recently turned work away
        scores as loaded even after its queue drained — the router's
        "recent shed rate" signal.
        """
        lane = self._lanes.get(shard_id)
        if lane is None or self.cost_model is None:
            return 0.0
        total = 0.0
        for shed_time, batch_size in lane.rejects:
            if now - shed_time <= window_s:
                total += self.cost_model.service_time(batch_size)
        return total

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    # hot-path
    def submit(
        self,
        shard_id: str,
        batch_size: int,
        job: Callable[[float, float], object],
        now: float,
        inline: bool = False,
    ) -> object | None:
        """Run one micro-batch on its shard's lane; None when shed.

        ``job`` is called on the caller's thread with the batch's lane
        ``(start, end)``; its value is returned and its exception
        propagates.  A full or crashed async lane rejects the whole batch
        — the caller already removed it from the micro-batcher, so
        rejection here is a deliberate, counted drop (queue-pressure load
        shedding), mirrored to the autoscaler through the rejection
        counters.  A sync lane never sheds, and neither does an
        ``inline`` batch.
        """
        lane = self._lanes[shard_id]  # every shard's lane opens at add_lane
        if not (inline or self._sync):
            if shard_id in self._dead_lanes:
                # A dead lane sheds everything: the batch is counted like
                # a capacity drop so loss accounting stays honest during
                # the crash-to-failover window.
                self._rejected_batches.increment()
                self._rejected_results.increment(batch_size)
                self._journal.lane_shed(now, shard_id, batch_size, 0)
                return None
            depth = self.queue_depth(shard_id, now)
            if depth >= self.spec.queue_capacity:
                self._rejected_batches.increment()
                self._rejected_results.increment(batch_size)
                lane.rejects.append((now, batch_size))
                self._journal.lane_shed(now, shard_id, batch_size, depth)
                return None
            self._depth_summary.observe(depth)

        service = (
            self.cost_model.service_time(batch_size)
            if self.cost_model is not None
            else 0.0
        )
        start, end = lane.charge(batch_size, service, now)
        self._batches.increment()
        if not self._sync:
            # Async lane: the batch stays queued until its modeled end.
            lane.finishes.append(end)
            self._service_summary.observe(service)
        return job(start, end)

    @property
    def rejected_results(self) -> int:
        return self._rejected_results.value

    @property
    def rejected_batches(self) -> int:
        return self._rejected_batches.value
