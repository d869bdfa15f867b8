"""The sharded serving gateway: one device-facing endpoint, N shards.

``Gateway`` is the front-end of the serving tier.  It speaks the exact
protocol of a single :class:`~repro.server.server.FleetServer` — devices
cannot tell the difference — but behind it:

* **routing** — a pluggable :class:`~repro.gateway.scheduling.Router`
  places devices on shards.  The default is the classic consistent-hash
  ring (per-device profiler history and pull leases stay shard-local,
  shard add/remove moves only ~1/N of the fleet); the deadline-aware
  router additionally steers predicted stragglers to lightly-loaded
  shards (:mod:`repro.gateway.scheduling`);
* **micro-batching** — incoming gradients are codec-encoded into
  stored-block f32 (the uplink's own form; no deflate on this in-process
  hop) and coalesced per shard, flushed by size or deadline, and applied
  through the batched hot path ``FleetServer.handle_result_batch`` — one
  aggregation step per batch instead of per gradient
  (:mod:`repro.gateway.batching`);
* **backpressure** — a token bucket sheds excess requests before any
  shard-side work happens (:mod:`repro.gateway.backpressure`);
* **synchronization** — shard models are periodically blended by weighted
  parameter averaging so cross-shard divergence stays bounded
  (:mod:`repro.gateway.sync`);
* **runtime** — every flushed micro-batch is delivered through its
  shard's lane of the :class:`~repro.runtime.runtime.ShardRuntime`, which
  runs it inline on the caller's thread; the
  :class:`~repro.runtime.spec.RuntimeSpec` picks the lane's contract
  (never shed by default, or a bounded virtual queue that sheds when
  full) and may attach a queue-driven elasticity controller that resizes
  the tier.  The runtime's lanes are also the only model of virtual lane
  occupancy: the gateway's busy-time, backlog, load and throughput
  accessors read them (:mod:`repro.runtime`);
* **durability + failover** (optional) — every shard's deliveries are
  write-ahead logged and periodically checkpointed; a heartbeat failure
  detector declares silent shards dead and ``failover`` rebuilds them
  from checkpoint + WAL replay onto a factory-fresh server under the
  SAME shard id — the ring is untouched, outstanding leases stay valid
  because the replayed clock equals the crash-time clock, and results
  accepted during the outage are retained and redelivered
  (:mod:`repro.durability`; pass a
  :class:`~repro.durability.spec.DurabilitySpec`).

The optional subsystems — SLO engine, autoscaler, durability, upload
tracing — attach through one seam: *delivery observers* run after every
applied micro-batch, *pump observers* after every pump's flushes and
sync, each owning its state and cadence.  A plain gateway runs two
empty observer loops.

All timing is virtual: callers pass ``now`` from their event loop (the
fleet simulation passes ``loop.now``); deadline flushes and syncs fire
lazily on the next call whose ``now`` has passed the trigger, which on a
discrete-event clock is exact enough — time only advances at events.
``finalize()`` drains everything at the end of a run.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from repro.durability import DurabilityManager, DurabilitySpec
from repro.durability.restore import RestoreReport
from repro.gateway.backpressure import TokenBucket
from repro.gateway.batching import MicroBatcher, encode_result
from repro.gateway.hashing import ConsistentHashRing
from repro.gateway.scheduling import HashRouter, Router
from repro.gateway.sync import ShardSynchronizer
from repro.observability import EventJournal, ObservabilitySpec, UploadTracer
from repro.observability.health import build_health_snapshot
from repro.observability.slo import SLOEngine, SLOSpec
from repro.runtime import AggregationCostModel, ElasticityController, RuntimeSpec, ShardRuntime
from repro.server.codec import VectorCodec
from repro.server.protocol import (
    RejectionReason,
    TaskAssignment,
    TaskRejection,
    TaskRequest,
    TaskResult,
)
from repro.server.server import FleetServer
from repro.server.stages import RequestStage, ResultStage
from repro.server.telemetry import MetricsRegistry

__all__ = ["GatewayConfig", "Gateway", "CrashRecord"]

#: ``(shard_id, shard, entries, batch, pre_clock, now, start, end)``, run
#: after ``shard.handle_result_batch(batch)`` on the delivering thread:
#: the encoded entries and their decoded results (the apply never mutates
#: them), the shard clock before the apply, the flush instant, and the
#: lane service window the runtime charged.
DeliveryObserver = Callable[
    [str, FleetServer, list, list[TaskResult], int, float, float, float], None
]
#: Run with ``now`` after every pump's flushes and sync.
PumpObserver = Callable[[float], None]


@dataclass(frozen=True)
class GatewayConfig:
    """Knobs of the serving tier.

    ``admission_rate_per_s`` of None disables backpressure (every request
    reaches its shard's controller).  ``batch_size`` of 1 disables
    coalescing — each result becomes a one-element batch, which keeps the
    code path uniform and (for shards with ``aggregation_k = 1``, where
    one result is one model update either way) makes batched-vs-unbatched
    comparisons exact.  The micro-batch is the aggregation window: a flush
    applies one model update regardless of the shard's ``aggregation_k``.
    """

    batch_size: int = 8
    batch_deadline_s: float = 5.0
    sync_every_s: float = 120.0
    codec_precision: str = "f32"
    hash_replicas: int = 128
    admission_rate_per_s: float | None = None
    admission_burst: float | None = None

    def __post_init__(self) -> None:
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if self.batch_deadline_s < 0:
            raise ValueError("batch_deadline_s must be non-negative")
        if self.sync_every_s <= 0:
            raise ValueError("sync_every_s must be positive")
        if self.admission_rate_per_s is not None and self.admission_rate_per_s <= 0:
            raise ValueError("admission_rate_per_s must be positive")


@dataclass
class CrashRecord:
    """The crash ledger's entry for one shard down and awaiting failover.

    ``clock``/``results_applied`` are the gateway-observed counters at the
    crash, so the tier-wide monotone counters don't dip while it is down;
    ``parked`` holds the encoded results accepted for it during the outage
    (acked uploads are never lost — they redeliver at failover).
    """

    crashed_at: float
    clock: int
    results_applied: int
    parked: list = field(default_factory=list)


class Gateway:
    """Route, batch, admit and synchronize across ``FleetServer`` shards."""

    def __init__(
        self,
        shards: list[FleetServer] | dict[str, FleetServer],
        config: GatewayConfig | None = None,
        cost_model: AggregationCostModel | None = None,
        runtime: RuntimeSpec | None = None,
        shard_factory: Callable[[int], FleetServer] | None = None,
        router: Router | None = None,
        observability: ObservabilitySpec | None = None,
        durability: DurabilitySpec | None = None,
        slo: SLOSpec | None = None,
    ) -> None:
        if not shards:
            raise ValueError("a gateway needs at least one shard")
        self.config = config or GatewayConfig()
        self.cost_model = cost_model
        if isinstance(shards, dict):
            self._shards: dict[str, FleetServer] = dict(shards)
        else:
            self._shards = {f"shard-{i}": shard for i, shard in enumerate(shards)}

        # Observability: the decision journal is always on (bounded and
        # cheap — decisions are rare next to uploads); per-upload tracing
        # is opt-in through the spec.  Built before the router binds so
        # routing decisions can journal from the first request.
        self.journal = EventJournal()
        self.metrics = MetricsRegistry()
        # Serving runtime: the one delivery path.  Every flushed batch
        # runs inline on the caller's thread; without a spec, lanes never
        # shed.  Built first, so its metrics register first.
        if runtime is None:
            runtime = RuntimeSpec(mode="sync")
        self.runtime = ShardRuntime(
            runtime, metrics=self.metrics, cost_model=self.cost_model, journal=self.journal
        )
        for shard_id in self._shards:
            self.runtime.add_lane(shard_id)
        self.tracer = UploadTracer(observability) if observability is not None else None

        # Placement policy: an explicit router wins, then the runtime
        # spec's routing recipe, then the classic consistent-hash ring.
        if router is None:
            router = (
                runtime.routing.build(self.config.hash_replicas)
                if runtime.routing is not None
                else HashRouter(replicas=self.config.hash_replicas)
            )
        self.router = router
        self.router.bind(self)
        for shard_id in self._shards:
            self.router.add_shard(shard_id)

        # Level 0: the in-process hop holds the uplink's stored-block form.
        # Nothing keeps these bytes long enough for a deflate to pay back.
        self.codec = VectorCodec(precision=self.config.codec_precision, compression_level=0)
        self.batcher = MicroBatcher(
            self.codec, max_batch=self.config.batch_size, max_delay_s=self.config.batch_deadline_s
        )
        self.synchronizer = ShardSynchronizer(interval_s=self.config.sync_every_s)
        self.bucket = (
            TokenBucket(self.config.admission_rate_per_s, capacity=self.config.admission_burst)
            if self.config.admission_rate_per_s is not None
            else None
        )

        metrics = self.metrics
        self._requests = metrics.counter("gateway.requests", "requests reaching the gateway")
        self._shed = metrics.counter("gateway.requests_shed", "requests dropped by backpressure")
        self._assigned = metrics.counter("gateway.assignments", "requests that received a task")
        self._unavailable = metrics.counter(
            "gateway.requests_unavailable", "requests refused because their shard was crashed"
        )
        self._results = metrics.counter("gateway.results", "gradient results accepted")
        self._batches = metrics.counter("gateway.batches", "micro-batches delivered to shards")
        self._syncs = metrics.counter("gateway.syncs", "cross-shard synchronization rounds")
        self._batch_sizes = metrics.summary("gateway.batch_size", "delivered micro-batch sizes")
        self._divergence = metrics.summary(
            "gateway.sync_divergence", "max L2 shard drift at sync time"
        )
        # Tier-wide per-reason rejection breakdown, read live at report
        # time (shard controller reasons merged with backpressure sheds).
        self.metrics.attach_rejections("gateway.rejections", self.rejection_counts)

        # Model updates and applied-result counts of shards retired by
        # remove_shard stay in the tier-wide accounting (the runtime keeps
        # their lanes' occupancy the same way) — an elastic tier would
        # otherwise erase history (and regress the monotone ``clock`` the
        # fleet simulation's eval trigger rides on) at every scale-down.
        self._retired_clock = 0
        self._retired_results_applied = 0
        self._inflight: dict[int, str] = {}
        # Assignment timestamps: the measured request→result round trip
        # is the router's observed-latency signal.
        self._request_at: dict[int, float] = {}
        self._now = 0.0
        self._first_result_time: float | None = None
        self._last_result_time = 0.0

        # The queue-driven autoscaler (None keeps shard count manual).
        self._shard_factory = shard_factory
        self._shards_built = len(self._shards)
        self._added_order: list[str] = []
        self.autoscaler: ElasticityController | None = None
        if runtime.autoscale is not None:
            if shard_factory is None:
                raise ValueError(
                    "autoscaling needs a shard factory: build the "
                    "gateway via from_spec (or pass "
                    "shard_factory=) so new shards can be stamped out"
                )
            self.autoscaler = ElasticityController(runtime.autoscale, self)

        # Durability: per-shard WAL + checkpoints and the heartbeat
        # failure detector live in the manager; the gateway keeps the
        # crash ledger, one record per shard down and awaiting failover.
        self.durability: DurabilityManager | None = None
        self._crashed: dict[str, CrashRecord] = {}
        self._recovery_hist = None
        if durability is not None:
            self.durability = DurabilityManager(durability)
            self._recovery_hist = self.metrics.histogram(
                "gateway.failover_recovery_s",
                "virtual seconds from shard crash to restored shard",
                buckets=(0.5, 1.0, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0, 600.0),
            )
            if durability.journal_path is not None:
                self.journal.stream_to(durability.journal_path, fsync=durability.fsync)
            for shard_id, shard in self._shards.items():
                self.durability.attach(shard_id, shard, now=self._now)

        # Service-level objectives: the engine registers its own SLI
        # histograms and evaluates on its own quantized cadence.
        self.slo_engine: SLOEngine | None = None
        if slo is not None:
            self.slo_engine = SLOEngine.from_gateway(slo, self, journal=self.journal)

        # The seam (docs/architecture.md §5): optional subsystems attach
        # here, listed in run order.  The pump order (SLO, autoscaler,
        # liveness probe) fixes the journal's event order; it differs
        # from the construction order above, which fixes metric
        # registration order.
        self._delivery_observers: list[DeliveryObserver] = []
        self._pump_observers: list[PumpObserver] = []
        if slo is not None:
            self._delivery_observers.append(self.slo_engine.on_delivery)
            self._pump_observers.append(self.slo_engine.on_pump)
        if runtime.autoscale is not None:
            self._pump_observers.append(self.autoscaler.observe)
        if durability is not None:
            self._delivery_observers.append(self.durability.on_delivery)
            self._pump_observers.append(self._probe_liveness)
        if observability is not None:
            self._delivery_observers.append(self.tracer.on_delivery)

    # ------------------------------------------------------------------
    # Factory
    # ------------------------------------------------------------------
    @classmethod
    def from_spec(
        cls,
        num_shards: int,
        shard_factory: Callable[[int], FleetServer],
        config: GatewayConfig | None = None,
        cost_model: AggregationCostModel | None = None,
        runtime: RuntimeSpec | None = None,
        router: Router | None = None,
        observability: ObservabilitySpec | None = None,
        durability: DurabilitySpec | None = None,
        slo: SLOSpec | None = None,
    ) -> "Gateway":
        """Build N identically-configured shards from a factory.

        The factory — any callable taking a shard index, typically a
        :class:`repro.api.ServerSpec` (duck-typed to avoid a gateway→api
        dependency) — is retained: it is what lets the elasticity
        controller (``runtime.autoscale``) stamp out additional shards at
        scale-up time, and what ``failover`` rebuilds crashed shards on.
        A spec built with ``FleetBuilder.runtime(...)`` carries its own
        :class:`RuntimeSpec` (including any ``FleetBuilder.routing``
        recipe), and one built with ``FleetBuilder.durability(...)`` its
        own :class:`DurabilitySpec`; explicit arguments override both.
        """
        if num_shards <= 0:
            raise ValueError("num_shards must be positive")
        return cls(
            [shard_factory(i) for i in range(num_shards)],
            config=config,
            cost_model=cost_model,
            runtime=runtime or getattr(shard_factory, "runtime", None),
            shard_factory=shard_factory,
            router=router,
            observability=observability,
            durability=durability or getattr(shard_factory, "durability", None),
            slo=slo,
        )

    # ------------------------------------------------------------------
    # Time
    # ------------------------------------------------------------------
    def _advance(self, now: float | None) -> float:
        if now is not None:
            self._now = max(self._now, now)
        return self._now

    # ------------------------------------------------------------------
    # Device-facing protocol (drop-in for FleetServer)
    # ------------------------------------------------------------------
    def shard_for(self, worker_id: int) -> str:
        """The shard currently serving a device id — a pure query.

        Routing *decisions* (steering, dwell resets) happen only on the
        request path; introspection through this accessor never mutates
        router state, so enumerating the fleet is side-effect-free.
        """
        return self.router.placement_of(worker_id)

    def handle_request(
        self, request: TaskRequest, now: float | None = None
    ) -> TaskAssignment | TaskRejection:
        """Steps 2-4 via the owning shard, behind gateway admission."""
        now = self._advance(now)
        self._pump(now)
        self._requests.increment()
        if self.bucket is not None and not self.bucket.try_acquire(now):
            self._shed.increment()
            self.journal.admission_shed(
                now,
                request.worker_id,
                tokens=self.bucket.tokens,
                rate_per_s=self.bucket.rate_per_s,
                capacity=self.bucket.capacity,
            )
            return TaskRejection(
                reason=RejectionReason.OVERLOADED, batch_size=0, similarity=0.0
            )
        shard_id = self.router.route(request.worker_id, now)
        if shard_id in self._crashed:
            # The device's shard is down and not yet failed over: refuse
            # the pull rather than hand out a lease no shard backs.
            self._unavailable.increment()
            return TaskRejection(
                reason=RejectionReason.OVERLOADED, batch_size=0, similarity=0.0
            )
        response = self._shards[shard_id].handle_request(request)
        if isinstance(response, TaskAssignment):
            self._assigned.increment()
            self._inflight[request.worker_id] = shard_id
            self._request_at[request.worker_id] = now
            # The shard annotated I-Prof's deadline prediction for this
            # device; the router may steer the NEXT request on it.
            self.router.observe_prediction(
                request.worker_id,
                response.annotations.get("profiler.predicted_time_s"),
                response.annotations.get("profiler.deadline_s"),
                now,
            )
        return response

    # hot-path
    def handle_result(self, result: TaskResult, now: float | None = None) -> bool:
        """Step 5: enqueue on the owning shard's micro-batch lane.

        Returns True when this result's lane flushed (a shard model update
        happened now); deadline-triggered flushes of *other* lanes may also
        run as a side effect of time advancing.  A result with
        ``batch_size < 1`` raises ``ValueError`` before it is counted.
        """
        if result.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        now = self._advance(now)
        self._results.increment()
        if self._first_result_time is None:
            self._first_result_time = now
        self._last_result_time = now
        issued_at = self._request_at.pop(result.worker_id, None)
        if issued_at is not None:
            self.router.observe_latency(result.worker_id, now - issued_at, now)

        shard_id = self._inflight.pop(result.worker_id, None)
        if shard_id not in self._crashed and shard_id not in self._shards:
            # Rerouted result: its shard was removed, or the lease
            # predates the gateway.
            shard_id = self.shard_for(result.worker_id)
        # Clamp the lease to the owner's clock, so staleness stays
        # non-negative: a rerouted result's new owner may be behind the
        # issuing shard, and a pull_step past the clock (never sent by an
        # honest device) would make the fold raise for its whole batch.
        crash = self._crashed.get(shard_id)
        clock = crash.clock if crash is not None else self._shards[shard_id].clock
        if result.pull_step > clock:
            result = dataclasses.replace(result, pull_step=clock)
        if crash is not None:
            # The owning shard is down: the result is ACCEPTED (counted
            # above) and parked in wire form — encoded like any batch
            # entry, so failover redelivers it exactly like a flush and an
            # acked upload is never lost.
            crash.parked.append(encode_result(result, self.codec, admitted_at=now))
            return self._pump(now)

        if self.tracer is not None:
            ctx = self.tracer.begin(result.worker_id, now)
            if ctx is not None:
                result = dataclasses.replace(result, trace=ctx)

        updated = self._dispatch(
            shard_id, self.batcher.add_encoded(shard_id, result, now), now
        )
        # A deadline flush may deliver this very result (its lane's oldest
        # entry was already overdue), so fold the pump's outcome for this
        # shard into the answer.
        updated = self._pump(now, watch=shard_id) or updated
        return updated

    # ------------------------------------------------------------------
    # Internal machinery
    # ------------------------------------------------------------------
    # hot-path
    def _dispatch(
        self, shard_id: str, entries: list, now: float, inline: bool = False
    ) -> bool:
        """Hand a flushed micro-batch (possibly empty) to the shard's lane.

        The lane's job is the full back half of the serving path — codec
        decode, stage ``on_batch`` hooks, ``submit_many`` — and runs on
        this thread before ``submit`` returns, so a job error reaches the
        caller.  Returns whether the batch updated the shard's model.  A
        full lane rejects the batch (counted by the runtime); an
        ``inline`` batch is never shed.
        """
        if not entries:
            return False

        def job(start: float, end: float) -> bool:
            batch = self.batcher.decode_entries(entries)
            return self._deliver(shard_id, entries, batch, now, start, end)

        updated = self.runtime.submit(shard_id, len(entries), job, now, inline=inline)
        if updated is None:
            # Lane-full shed: traced uploads in the dropped batch never
            # finish — count them so sampled-vs-finished stays auditable.
            if self.tracer is not None:
                for entry in entries:
                    if entry.metadata.trace is not None:
                        self.tracer.drop(entry.metadata.trace)
            return False
        return updated

    # hot-path
    def _deliver(
        self, shard_id: str, entries: list, batch: list[TaskResult], now: float,
        start: float, end: float,
    ) -> bool:
        """Apply a decoded batch, then run the delivery observers.

        ``(start, end)`` is the lane service window the runtime charged
        it; observers also get the shard clock read before the apply.
        """
        shard = self._shards[shard_id]
        pre_clock = shard.clock
        updated = shard.handle_result_batch(batch)
        self._batches.increment()
        self._batch_sizes.observe(len(batch))
        for observer in self._delivery_observers:
            observer(shard_id, shard, entries, batch, pre_clock, now, start, end)
        return updated

    # hot-path
    def _pump(self, now: float, watch: str | None = None) -> bool:
        """Fire any deadline flushes and the periodic sync that are due,
        then run the pump observers.

        Returns True when a flush of ``watch``'s lane applied a model
        update (callers tracking a specific result's fate pass its shard).
        """
        watched_updated = False
        for shard_id in self.batcher.due(now):
            updated = self._dispatch(shard_id, self.batcher.flush_encoded(shard_id), now)
            if shard_id == watch:
                watched_updated = updated
        if len(self._shards) > 1 and self.synchronizer.due(now):
            self.synchronize(now)
        for observer in self._pump_observers:
            observer(now)
        return watched_updated

    def _probe_liveness(self, now: float) -> None:
        """Durability's pump observer: journal the failure detector's new
        verdicts and, with ``auto_failover``, fail dead shards over."""
        detector = self.durability.detector
        suspects = detector.probe(now, self._shards)
        if suspects is None:
            return  # between probes
        for shard_id in suspects:
            clock = self._crashed[shard_id].clock
            self.journal.shard_crash(now, shard_id, clock=clock, detected_by="detector")
        if self.durability.spec.auto_failover and self._shard_factory is not None:
            for shard_id in detector.dead():
                if shard_id in self._crashed:
                    self.failover(shard_id, now)

    # ------------------------------------------------------------------
    # Synchronization and membership
    # ------------------------------------------------------------------
    def synchronize(self, now: float | None = None) -> None:
        """Blend shard models (weighted by fresh updates) and broadcast."""
        now = self._advance(now)
        record = self.synchronizer.synchronize(self._shards, now)
        self._syncs.increment()
        self._divergence.observe(record.max_divergence)
        self.journal.sync_round(now, record.max_divergence, len(self._shards), record.weights)

    def flush_all(self, now: float | None = None) -> int:
        """Force-deliver every pending micro-batch; returns results flushed.

        Counts results leaving the batcher; a full bounded lane may still
        shed a flushed batch (tracked by the runtime's rejection counters).
        """
        now = self._advance(now)
        flushed = 0
        for shard_id in list(self._shards):
            entries = self.batcher.flush_encoded(shard_id)
            self._dispatch(shard_id, entries, now)
            flushed += len(entries)
        return flushed

    def finalize(self, now: float | None = None) -> None:
        """End of run: recover any dead shards, flush, converge.

        Crashed shards are failed over first (when a factory is
        retained) so their durable state — and every result parked for
        them — rejoins the tier before the final synchronization.
        """
        now = self._advance(now)
        if self._crashed and self._shard_factory is not None:
            for shard_id in sorted(self._crashed):
                self.failover(shard_id, now)
        self.flush_all(now)
        if len(self._shards) > 1:
            self.synchronize(now)
        if self.durability is not None:
            self.durability.sync_all()

    def add_shard(
        self, shard: FleetServer, shard_id: str | None = None, now: float | None = None
    ) -> str:
        """Join a shard: it inherits the consensus model, then takes ~1/N keys."""
        now = self._advance(now)
        if shard_id is None:
            shard_id = f"shard-{len(self._shards)}"
            while shard_id in self._shards:
                shard_id = shard_id + "+"
        # Fold every existing shard's unsynced learning into the consensus
        # BEFORE re-baselining the sync counters below — otherwise updates
        # applied since the last sync would carry no weight at the next one
        # and be overwritten by the broadcast.
        if len(self._shards) > 1:
            self.synchronize(now)
        shard.optimizer.set_parameters(self.synchronizer.blend(self._shards))
        self._shards[shard_id] = shard
        self.router.add_shard(shard_id, now)
        self.runtime.add_lane(shard_id)
        if self.durability is not None:
            # The anchor checkpoint covers the blend the joiner just
            # inherited — recovery never depends on the factory alone.
            self.durability.attach(shard_id, shard, now=now)
        self.synchronizer.note_membership_change(self._shards)
        return shard_id

    def remove_shard(self, shard_id: str, now: float | None = None) -> FleetServer:
        """Drain a shard, fold its learning into the others, drop it."""
        if shard_id not in self._shards:
            raise KeyError(f"unknown shard {shard_id!r}")
        if len(self._shards) == 1:
            raise ValueError("cannot remove the last shard")
        now = self._advance(now)
        # Inline: the leaver's learning must be in its model before the
        # farewell sync, and a shard on its way out cannot be queue-shed.
        self._dispatch(shard_id, self.batcher.flush_encoded(shard_id), now, inline=True)
        # One sync while the leaver still participates: its updates enter
        # the consensus, so removing it afterwards loses nothing.
        self.synchronize(now)
        if self.durability is not None:
            # Planned removal shares the crash-recovery format: WAL
            # fsync + final checkpoint, so a retired shard's history can
            # be inspected or restored exactly like a crashed one's.
            self.durability.retire(shard_id, self._shards[shard_id], now=now)
        shard = self._shards.pop(shard_id)
        self.router.remove_shard(shard_id, now)
        self._retired_clock += shard.clock
        self._retired_results_applied += shard.results_applied
        self.runtime.drop_lane(shard_id)
        self._inflight = {
            worker: owner for worker, owner in self._inflight.items() if owner != shard_id
        }
        self.synchronizer.note_membership_change(self._shards)
        return shard

    # ------------------------------------------------------------------
    # Elastic scaling (factory-backed membership changes)
    # ------------------------------------------------------------------
    def scale_up(self, now: float | None = None) -> str:
        """Stamp a new shard from the retained factory and join it.

        The autoscaler's add path — also usable manually.  The new shard
        inherits the consensus model and ~1/N of the key space exactly as
        :meth:`add_shard` arranges.
        """
        if self._shard_factory is None:
            raise ValueError(
                "no shard factory retained: build the gateway via "
                "from_spec (or pass shard_factory=)"
            )
        shard = self._shard_factory(self._shards_built)
        self._shards_built += 1
        shard_id = self.add_shard(shard, now=now)
        self._added_order.append(shard_id)
        return shard_id

    def scale_down(self, now: float | None = None) -> str:
        """Retire the most recently added shard (LIFO keeps ring churn low).

        Falls back to the lexicographically last shard when no
        factory-added shard remains; the last shard can never be removed.
        """
        while self._added_order:
            shard_id = self._added_order.pop()
            if shard_id in self._shards:
                break
        else:
            shard_id = sorted(self._shards)[-1]
        self.remove_shard(shard_id, now=now)
        return shard_id

    # ------------------------------------------------------------------
    # Crash injection + failover (durability-backed)
    # ------------------------------------------------------------------
    def crash_shard(self, shard_id: str, now: float | None = None) -> None:
        """Lose a shard's in-memory state (fault injection / observed crash).

        The gateway itself survives: results it already accepted for the
        shard (pending micro-batch entries, and anything arriving during
        the outage) are parked in wire form for redelivery at failover.
        Micro-batches queued on the shard's runtime lane die with it —
        the at-most-once window for work past the WAL.  The failure
        detector is NOT told directly: the shard simply goes silent, and
        detection happens through the heartbeat timeout like any real
        crash.
        """
        now = self._advance(now)
        if shard_id not in self._shards:
            raise KeyError(f"unknown shard {shard_id!r}")
        if self.durability is None:
            raise ValueError(
                "crash_shard needs durability: without a WAL the shard's "
                "state would be unrecoverable"
            )
        server = self._shards.pop(shard_id)
        self.journal.shard_crash(now, shard_id, clock=server.clock, detected_by="injection")
        # Pending micro-batch entries live in the GATEWAY, not the shard:
        # they were acked on arrival, so they ride out the crash parked.
        pending = self.batcher.flush_encoded(shard_id)
        self._crashed[shard_id] = CrashRecord(now, server.clock, server.results_applied, pending)
        self.durability.drop_attachment(shard_id)
        self.runtime.fail_lane(shard_id)

    def failover(self, shard_id: str, now: float | None = None) -> RestoreReport:
        """Rebuild a crashed shard from checkpoint + WAL replay.

        The restored server takes over under the SAME shard id: the hash
        ring never changes, outstanding leases stay valid (the replayed
        clock equals the crash-time clock), and the deadline-aware
        router's ``on_failover`` hook bumps the membership epoch for a
        bounded rebalance.  Results parked during the outage are
        redelivered before returning.  Returns the
        :class:`~repro.durability.restore.RestoreReport`.
        """
        now = self._advance(now)
        if shard_id not in self._crashed:
            raise ValueError(f"shard {shard_id!r} is not crashed")
        if self._shard_factory is None:
            raise ValueError(
                "failover needs a retained shard factory: build the gateway "
                "via from_spec (or pass shard_factory=)"
            )
        self.journal.failover_start(now, shard_id, epoch=self.router.epoch)
        fresh = self._shard_factory(self._shards_built)
        self._shards_built += 1
        report = self.durability.restore(shard_id, fresh, now=now)
        self._shards[shard_id] = fresh
        crash = self._crashed.pop(shard_id)
        self.runtime.add_lane(shard_id)
        self.router.on_failover(shard_id, now)
        # Inline: a restored shard cannot be queue-shed.
        self._dispatch(shard_id, crash.parked, now, inline=True)
        recovery_s = now - crash.crashed_at
        self._recovery_hist.observe(recovery_s)
        self.journal.failover_done(
            now,
            shard_id,
            epoch=self.router.epoch,
            recovery_s=recovery_s,
            checkpoint_wal_seq=report.checkpoint_wal_seq,
            replayed_records=report.replayed_records,
            replayed_results=report.replayed_results,
            restored_clock=report.final_clock,
            redelivered_results=len(crash.parked),
        )
        return report

    def heartbeat(self, now: float | None = None) -> None:
        """Advance virtual time without traffic (deadline flushes, sync,
        autoscaler windows).  Time-driven callers — the fleet simulation's
        heartbeat event — use this so an idle tier still scales down and
        overdue micro-batches still flush."""
        now = self._advance(now)
        self._pump(now)

    # ------------------------------------------------------------------
    # Load signals (consumed by the elasticity controller)
    # ------------------------------------------------------------------
    def total_busy_seconds(self) -> float:
        """Virtual service seconds accrued by all shard lanes so far.

        Includes lanes retired by ``remove_shard``, so the autoscaler's
        window deltas stay monotone across scale-down events.
        """
        return self.runtime.totals().busy_seconds

    def max_backlog_s(self, now: float | None = None) -> float:
        """Deepest lane's unfinished virtual work, in seconds."""
        return self.runtime.max_backlog_s(self._now if now is None else now)

    def shard_load(self, shard_id: str, now: float | None = None) -> float:
        """Live load of one shard, in seconds of work (routing signal).

        Its runtime lane's :meth:`~repro.runtime.runtime.ShardRuntime.load_s`
        (``KeyError`` for an unknown shard).  Without a cost model the
        load is 0.0 and routers fall back to their own placement counters.
        """
        return self.runtime.load_s(shard_id, self._now if now is None else now)

    # ------------------------------------------------------------------
    # Introspection (FleetServer-compatible surface + gateway extras)
    # ------------------------------------------------------------------
    @property
    def shards(self) -> dict[str, FleetServer]:
        return dict(self._shards)

    @property
    def ring(self) -> ConsistentHashRing:
        """The router's consistent-hash ring (home placement)."""
        return self.router.ring

    @property
    def num_shards(self) -> int:
        return len(self._shards)

    @property
    def crashed_shards(self) -> tuple[str, ...]:
        """Shards currently down and awaiting failover (sorted)."""
        return tuple(sorted(self._crashed))

    @property
    def crashes(self) -> dict[str, CrashRecord]:
        """The crash ledger: one record per shard awaiting failover."""
        return dict(self._crashed)

    @property
    def has_shard_factory(self) -> bool:
        """Whether crashed shards can be rebuilt (factory retained)."""
        return self._shard_factory is not None

    def health_snapshot(self, now: float | None = None) -> dict:
        """Strict-JSON readiness document of the whole tier.

        Aggregates per-shard detector state, WAL/checkpoint lag, queue
        depth and pending work plus the SLO engine's active alerts; see
        :mod:`repro.observability.health` for the schema.  Reads only
        in-memory state — safe to serve per request.
        """
        now = self._advance(now)
        return build_health_snapshot(self, now)

    def find_request_stage(self, stage_type: type) -> RequestStage | None:
        """First matching request stage of the first shard, or None.

        Shards stamped from one :class:`~repro.api.ServerSpec` are
        identically configured, so the first shard's chain is the tier's
        advertised pipeline (clients use this to discover capabilities,
        e.g. the fleet simulation probing for sparse-upload decode).
        """
        for shard in self._shards.values():
            return shard.find_request_stage(stage_type)
        return None

    def find_result_stage(self, stage_type: type) -> ResultStage | None:
        """First matching result stage of the first shard, or None."""
        for shard in self._shards.values():
            return shard.find_result_stage(stage_type)
        return None

    def current_parameters(self) -> np.ndarray:
        """The consensus model: weighted blend of the shard models."""
        return self.synchronizer.blend(self._shards)

    @property
    def clock(self) -> int:
        """Total model updates across the serving tier (monotone: updates
        applied by since-removed shards remain counted, and a crashed
        shard's last observed clock holds its place until failover —
        WAL replay restores exactly that clock, so the sum never dips)."""
        return (
            sum(shard.clock for shard in self._shards.values())
            + self._retired_clock
            + sum(crash.clock for crash in self._crashed.values())
        )

    @property
    def results_applied(self) -> int:
        return (
            sum(shard.results_applied for shard in self._shards.values())
            + self._retired_results_applied
            + sum(crash.results_applied for crash in self._crashed.values())
        )

    def applied_staleness(self) -> np.ndarray:
        """Per-shard staleness of every applied gradient, concatenated."""
        arrays = [
            shard.optimizer.applied_staleness() for shard in self._shards.values()
        ]
        return np.concatenate(arrays) if arrays else np.zeros(0)

    def requests_shed(self) -> int:
        return self._shed.value

    def results_received(self) -> int:
        """Gradient results that reached the gateway (pre-batching)."""
        return self._results.value

    def rejection_counts(self) -> dict[RejectionReason, int]:
        """Per-reason rejection totals across the tier.

        Shard-level reasons (controller thresholds) merged with the
        gateway's own backpressure sheds (``OVERLOADED``).
        """
        merged: dict[RejectionReason, int] = {}
        for shard in self._shards.values():
            for reason, count in shard.rejection_stats.counts.items():
                merged[reason] = merged.get(reason, 0) + count
        if self._shed.value:
            merged[RejectionReason.OVERLOADED] = (
                merged.get(RejectionReason.OVERLOADED, 0) + self._shed.value
            )
        return merged

    def virtual_throughput(self) -> float:
        """Handled results per second of virtual serving-tier time.

        With a cost model, the denominator runs until the busiest lane
        drains (queueing included); without one, until the last result
        arrived.  This is the scaling benchmark's headline number.
        """
        totals = self.runtime.totals()
        if totals.results == 0 or self._first_result_time is None:
            return 0.0
        if self.cost_model is not None:
            end = totals.busy_until
        else:
            end = self._last_result_time
        elapsed = end - self._first_result_time
        if elapsed <= 0:
            return float("inf")
        return totals.results / elapsed

    def report(self) -> str:
        """Text dump of the gateway metrics plus per-shard lane stats."""
        lines = [self.metrics.report()]
        for shard_id in sorted(self._shards):
            shard = self._shards[shard_id]
            batches, busy = self.runtime.lane_usage(shard_id)
            lines.append(
                f"{shard_id}: clock={shard.clock} applied={shard.results_applied} "
                f"batches={batches} busy={busy:.2f}s"
            )
        if self.autoscaler is not None and self.autoscaler.events:
            lines.append("scaling events:")
            lines.append(self.autoscaler.timeline())
        if self.slo_engine is not None:
            lines.append(self.slo_engine.report())
        return "\n".join(lines)
