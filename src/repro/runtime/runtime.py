"""``ShardRuntime``: bounded per-shard lanes in front of the executors.

The gateway hands every flushed micro-batch to :meth:`ShardRuntime.submit`
as an opaque job (decode → stage ``on_batch`` → ``submit_many``, closed
over the shard) — it is the gateway's only delivery path.  A ``"sync"``
spec builds lanes that run the job inline, never shed and take no part in
the queue model (depth, backlog and shed signals all read 0); for an
``"async"`` spec the runtime's responsibilities around that job are:

* **admission to the lane** — each shard lane holds at most
  ``queue_capacity`` unfinished micro-batches; a batch arriving to a full
  lane is rejected (counted per batch and per result) instead of queueing
  without bound;
* **occupancy modeling** — on the virtual executor, jobs execute inline
  (deterministically) but *occupy* their lane for the cost model's service
  time of virtual clock, so queue depth and backlog are real signals for
  the autoscaler even though state mutation is immediate.  On the thread
  executor the queue depth is literal and service time is wall-clock;
* **telemetry** — queue depth at enqueue, per-batch service time,
  executed/rejected counters — all exported through the gateway's
  :class:`~repro.server.telemetry.MetricsRegistry`.  Wall-clock service
  measurements (threads executor only — the virtual executor's service
  times are the cost model's own output, and feeding them back would be
  circular) also flow into a
  :class:`~repro.runtime.telemetry.ServiceTimeEstimator` so the affine
  :class:`~repro.gateway.gateway.AggregationCostModel` can be re-fitted
  from observation.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.runtime.executors import (
    BatchTicket,
    ThreadLaneExecutor,
    VirtualLaneExecutor,
)
from repro.runtime.spec import RuntimeSpec
from repro.runtime.telemetry import ServiceTimeEstimator

if TYPE_CHECKING:  # annotation-only: runtime must not import the gateway
    from repro.gateway.gateway import AggregationCostModel
    from repro.observability import EventJournal
    from repro.server.telemetry import MetricsRegistry

__all__ = ["ShardRuntime"]


@dataclass
class _LaneState:
    """Virtual occupancy of one shard lane (the queue model).

    ``finishes`` holds the modeled completion time of every unfinished
    micro-batch, oldest first; the lane is busy until ``finishes[-1]``.
    The formula mirrors the gateway's ``_ShardLane`` throughput accounting
    by design — the runtime applies it at *admission* (before the job
    runs, so capacity checks can shed), the gateway at *delivery*.
    ``rejects`` remembers the most recent capacity sheds as
    ``(time, batch_size)`` pairs — a bounded trace the router reads as a
    per-shard "recently overloaded" pressure signal.
    """

    finishes: deque = field(default_factory=deque)
    rejects: deque = field(default_factory=lambda: deque(maxlen=128))

    def busy_until(self, now: float) -> float:
        return self.finishes[-1] if self.finishes else now


class ShardRuntime:
    """Bounded queues + serialized worker lanes for every shard."""

    def __init__(
        self,
        spec: RuntimeSpec,
        metrics: "MetricsRegistry",
        cost_model: "AggregationCostModel | None",
        journal: "EventJournal",
    ) -> None:
        self.spec = spec
        self.cost_model = cost_model
        # The gateway's event journal: capacity sheds are decisions
        # worth attributing, not just counting.
        self._journal = journal
        # The estimator's running sums are fed from lane threads (see
        # ``timed_job``) and read on the caller's thread, so every touch
        # happens under the telemetry lock.
        self.estimator = ServiceTimeEstimator()  # guarded-by: _telemetry_lock
        # The one place sync and async delivery differ: a sync lane runs
        # the job inline and bypasses admission and the queue model.
        self._inline = spec.mode == "sync"
        self._virtual = self._inline or spec.executor == "virtual"
        self.executor = (
            VirtualLaneExecutor()
            if self._virtual
            else ThreadLaneExecutor(workers=spec.workers)
        )
        self._lanes: dict[str, _LaneState] = {}
        self._dead_lanes: set[str] = set()
        # Guards telemetry shared across lane threads (counters, summary
        # deques, the estimator's running sums).  Uncontended in virtual
        # mode; in threads mode it serializes only the cheap bookkeeping,
        # never the decode/fold work.
        self._telemetry_lock = threading.Lock()
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
            "runtime.service_s", "per-batch service time (virtual or wall)"
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
        self._lanes.pop(shard_id, None)
        self._dead_lanes.discard(shard_id)
        self.executor.drop_lane(shard_id)

    # ------------------------------------------------------------------
    # Lane liveness (crash injection + failure detection)
    # ------------------------------------------------------------------
    def fail_lane(self, shard_id: str) -> None:
        """Kill a lane: queued occupancy is lost, submissions bounce.

        Models a shard process crash — the in-flight micro-batches on the
        lane die with it (at-most-once for work past the WAL), and the
        lane stops accepting jobs until :meth:`add_lane` revives it.
        """
        self._dead_lanes.add(shard_id)
        lane = self._lanes.get(shard_id)
        if lane is not None:
            lane.finishes.clear()
        self.executor.drop_lane(shard_id)

    def lane_alive(self, shard_id: str) -> bool:
        return shard_id not in self._dead_lanes

    @property
    def threaded(self) -> bool:
        """Whether jobs run on pool threads (else inline on the caller's)."""
        return not self._virtual

    # ------------------------------------------------------------------
    # Queue-depth signals
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
        if self._virtual:
            self._prune(lane, now)
            return len(lane.finishes)
        return self.executor.pending(shard_id)

    def max_queue_depth(self, now: float) -> int:
        if not self._lanes:
            return 0
        return max(self.queue_depth(shard_id, now) for shard_id in self._lanes)

    def backlog_s(self, shard_id: str, now: float) -> float:
        """Seconds of unfinished work in the shard's lane.

        Virtual mode reads the lane's modeled completion times exactly;
        threads mode estimates ``pending × mean observed service time``
        (the pending batches' own sizes are unknown until they run), which
        is 0.0 until the first batch has been measured.
        """
        if self._virtual:
            lane = self._lanes.get(shard_id)
            if lane is None:
                return 0.0
            return max(0.0, lane.busy_until(now) - now)
        pending = self.executor.pending(shard_id)
        with self._telemetry_lock:
            return pending * self.estimator.mean_service_s()

    def recent_shed_s(
        self, shard_id: str, now: float, window_s: float = 60.0
    ) -> float:
        """Seconds of service the lane shed in the trailing window.

        Each capacity rejection is priced at the cost model's service
        time (the estimator's observed mean without one), so a lane that
        recently turned work away scores as loaded even after its queue
        drained — the router's "recent shed rate" signal.
        """
        lane = self._lanes.get(shard_id)
        if lane is None or not lane.rejects:
            return 0.0
        total = 0.0
        with self._telemetry_lock:
            fallback_service_s = self.estimator.mean_service_s()
        for shed_time, batch_size in lane.rejects:
            if now - shed_time > window_s:
                continue
            if self.cost_model is not None:
                total += self.cost_model.service_time(batch_size)
            else:
                total += fallback_service_s
        return total

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    # hot-path
    def submit(
        self,
        shard_id: str,
        batch_size: int,
        job: Callable[[], object],
        now: float,
    ) -> BatchTicket | None:
        """Queue one micro-batch on its shard's lane; None when shed.

        A full lane rejects the whole batch — the caller already removed
        it from the micro-batcher, so rejection here is a deliberate,
        counted drop (queue-pressure load shedding), mirrored to the
        autoscaler through the rejection counters.  A sync lane never
        sheds: the job runs now, on the caller's thread.
        """
        if self._inline:
            ticket = BatchTicket()
            self._batches.increment()
            self.executor.submit(shard_id, job, ticket)
            return ticket
        if shard_id in self._dead_lanes:
            # A dead lane sheds everything: the batch is counted like a
            # capacity drop so loss accounting stays honest during the
            # crash-to-failover window.
            self._rejected_batches.increment()
            self._rejected_results.increment(batch_size)
            self._journal.lane_shed(now, shard_id, batch_size, 0)
            return None
        lane = self._lanes.setdefault(shard_id, _LaneState())
        depth = self.queue_depth(shard_id, now)
        if depth >= self.spec.queue_capacity:
            self._rejected_batches.increment()
            self._rejected_results.increment(batch_size)
            lane.rejects.append((now, batch_size))
            self._journal.lane_shed(now, shard_id, batch_size, depth)
            return None
        self._depth_summary.observe(depth)

        ticket = BatchTicket()
        if self._virtual:
            service = (
                self.cost_model.service_time(batch_size)
                if self.cost_model is not None
                else 0.0
            )
            lane.finishes.append(max(now, lane.busy_until(now)) + service)
            self._batches.increment()
            # Modeled service time is telemetry, but NOT estimator food:
            # feeding the cost model's own output back would make the
            # "fitted" model a circular echo of the assumed one.  Only
            # the threads executor measures real wall-clock service.
            self._service_summary.observe(service)
            self.executor.submit(shard_id, job, ticket)
            return ticket

        def timed_job() -> object:
            started = time.perf_counter()
            try:
                return job()
            finally:
                elapsed = time.perf_counter() - started
                with self._telemetry_lock:
                    self._batches.increment()
                    self._service_summary.observe(elapsed)
                    self.estimator.observe(batch_size, elapsed)

        self.executor.submit(shard_id, timed_job, ticket)
        return ticket

    # ------------------------------------------------------------------
    # Quiescence
    # ------------------------------------------------------------------
    def drain(self, timeout: float | None = None) -> None:
        """Block until every lane is idle (threaded); inline mode is a no-op.

        Membership changes and shard synchronization mutate shard models,
        so the gateway quiesces the runtime first — a lane job running
        concurrently with a parameter broadcast would race it.
        """
        self.executor.drain(timeout)

    def shutdown(self) -> None:
        self.executor.shutdown()

    @property
    def rejected_results(self) -> int:
        return self._rejected_results.value

    @property
    def rejected_batches(self) -> int:
        return self._rejected_batches.value
