"""End-to-end FLeet middleware simulation on virtual time.

The controlled-staleness runner (:mod:`repro.simulation.runner`) injects
staleness from a known distribution so algorithms can be compared under
identical noise.  This module closes the loop instead: staleness *emerges*
from devices racing each other through the full protocol of Figure 2 —

    request → I-Prof workload bound → controller admission → model pull
    (network down) → on-device gradient computation → gradient push
    (network up) → AdaSGD model update

— on a discrete-event clock, with per-device networks (signal drift,
handovers), heterogeneous hardware, user-activity-driven request arrivals,
and churn (a user who leaves the app mid-task never pushes the result).

This is the integration testbed for the middleware: the staleness
distribution of Fig. 7, which the paper derives analytically from an
exponential round-trip model, reappears here endogenously, and every
energy/latency figure can be cross-checked against the component models.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from repro.data.federated_split import UserPartition
from repro.data.synthetic_images import ImageDataset
from repro.devices.activity import UserActivityModel
from repro.devices.catalog import fleet_specs
from repro.devices.device import SimulatedDevice
from repro.network.conditions import NetworkConditions
from repro.network.interface import NetworkInterface
from repro.nn.models import Sequential
from repro.server.codec import VectorCodec
from repro.server.sparsification import ErrorFeedbackCompressor
from repro.server.protocol import TaskAssignment, TaskRequest
from repro.server.server import FleetServer
from repro.server.stages import SparseUploadDecodeStage
from repro.server.worker import Worker
from repro.simulation.events import EventLoop

__all__ = ["FleetSimConfig", "ParticipantState", "FleetSimResult", "FleetSimulation"]

#: Held-out examples each evaluation scores (a fixed random subset).
EVAL_EXAMPLES = 512
#: Wire precision of the model as transferred.
CODEC_PRECISION = "f32"
#: Mean signal quality of every device's network.
MEAN_SIGNAL_QUALITY = 0.75


@dataclass(frozen=True)
class FleetSimConfig:
    """Knobs of the end-to-end simulation.

    ``mean_think_time_s`` is the exponential gap between a user's tasks
    (their device only trains while the app is foregrounded, so arrivals are
    bursty at the fleet level).  ``abort_probability`` is the per-task chance
    the user backgrounds the app before the push completes, modelling churn:
    the computation happened (energy was spent) but the server never sees the
    gradient.  ``battery_floor_percent`` suspends a device that ran its
    battery down to the floor — FLeet must not brick phones.
    """

    horizon_s: float = 3600.0
    mean_think_time_s: float = 120.0
    abort_probability: float = 0.05
    battery_floor_percent: float = 20.0
    eval_every_updates: int = 50
    # The paper's worker is a foreground library (§2.4): with this enabled,
    # a user only issues requests while inside an app session (per their
    # UserActivityModel); outside a session the request is skipped and the
    # next attempt is rescheduled.
    gate_on_app_session: bool = False
    # Periodic server heartbeat: every ``heartbeat_s`` of virtual time the
    # endpoint's ``heartbeat(now)`` is invoked (if it has one), so
    # time-driven machinery — gateway deadline flushes, the elasticity
    # controller's observation windows, scale-down during lulls — keeps
    # running even when no device traffic arrives.  None disables it.
    heartbeat_s: float | None = None
    # Fault injection: at ``crash_shard_at_s`` of virtual time the
    # endpoint's ``crash_shard`` is invoked (a gateway with durability
    # configured) on the lexicographically first shard, losing its
    # in-memory state mid-run.  Recovery is the endpoint's business
    # (failure detector + failover).
    crash_shard_at_s: float | None = None

    def __post_init__(self) -> None:
        if self.horizon_s <= 0:
            raise ValueError("horizon_s must be positive")
        if self.mean_think_time_s <= 0:
            raise ValueError("mean_think_time_s must be positive")
        if not 0.0 <= self.abort_probability < 1.0:
            raise ValueError("abort_probability must be in [0, 1)")
        if not 0.0 <= self.battery_floor_percent < 100.0:
            raise ValueError("battery_floor_percent must be in [0, 100)")
        if self.eval_every_updates <= 0:
            raise ValueError("eval_every_updates must be positive")
        if self.heartbeat_s is not None and self.heartbeat_s <= 0:
            raise ValueError("heartbeat_s must be positive")
        if self.crash_shard_at_s is not None and self.crash_shard_at_s < 0:
            raise ValueError("crash_shard_at_s must be non-negative")


@dataclass
class ParticipantState:
    """One user: worker runtime, device, network, bookkeeping."""

    worker: Worker
    network: NetworkInterface
    activity: UserActivityModel | None = None
    requests: int = 0
    rejections: int = 0
    aborted: int = 0
    completed: int = 0
    skipped_inactive: int = 0
    suspended: bool = False


@dataclass
class FleetSimResult:
    """Everything the simulation measured."""

    eval_times_s: list[float] = field(default_factory=list)
    eval_steps: list[int] = field(default_factory=list)
    eval_accuracy: list[float] = field(default_factory=list)
    round_trip_seconds: list[float] = field(default_factory=list)
    compute_seconds: list[float] = field(default_factory=list)
    network_seconds: list[float] = field(default_factory=list)
    compute_energy_mwh: list[float] = field(default_factory=list)
    radio_energy_mwh: list[float] = field(default_factory=list)
    requests: int = 0
    rejections: int = 0
    aborted: int = 0
    completed: int = 0
    skipped_inactive: int = 0
    suspended_devices: int = 0

    def applied_staleness(self, server: FleetServer) -> np.ndarray:
        """Endogenous staleness of every update the endpoint applied."""
        return server.applied_staleness()

    def final_accuracy(self) -> float:
        return self.eval_accuracy[-1] if self.eval_accuracy else 0.0

    def total_energy_mwh(self) -> float:
        return sum(self.compute_energy_mwh) + sum(self.radio_energy_mwh)

    def completion_rate(self) -> float:
        """Fraction of admitted tasks whose gradient reached the server."""
        admitted = self.completed + self.aborted
        return self.completed / admitted if admitted else 0.0


class FleetSimulation:
    """Drive a fleet of simulated participants against a FLeet server.

    Parameters
    ----------
    server:
        The device-facing endpoint: a configured :class:`FleetServer`
        (optimizer + profiler + controller), or anything speaking its
        protocol — e.g. a :class:`~repro.gateway.gateway.Gateway` fronting
        several shards.  The simulation passes the virtual clock on every
        call (a plain server ignores it; the gateway drives its batching
        deadlines and sync schedule from it) and calls ``finalize`` at the
        end of the run.
    model:
        Shared architecture replica used by every worker to compute
        gradients (the discrete-event loop is sequential, so one instance
        suffices; parameters are set per task).
    dataset, partition:
        Training data and its per-user split; user i trains on partition i.
    config:
        Simulation knobs; see :class:`FleetSimConfig`.
    device_names:
        Optional catalog names to sample the fleet from (defaults to the
        whole catalog).
    """

    def __init__(
        self,
        server: FleetServer,
        model: Sequential,
        dataset: ImageDataset,
        partition: UserPartition,
        rng: np.random.Generator,
        config: FleetSimConfig | None = None,
        device_names: list[str] | None = None,
    ) -> None:
        self.server = server
        self.model = model
        self.dataset = dataset
        self.config = config or FleetSimConfig()
        self._rng = rng
        self.loop = EventLoop()
        self.codec = VectorCodec(precision=CODEC_PRECISION)
        self.result = FleetSimResult()

        specs = fleet_specs(partition.num_users, rng, names=device_names)
        self.participants: list[ParticipantState] = []
        for user_id, spec in enumerate(specs):
            indices = partition.user_indices[user_id]
            device = SimulatedDevice(spec, rng, device_id=user_id)
            worker = Worker(
                worker_id=user_id,
                model=model,
                data_x=dataset.train_x[indices],
                data_y=dataset.train_y[indices],
                num_labels=dataset.num_classes,
                device=device,
                rng=rng,
            )
            conditions = NetworkConditions(
                rng, mean_quality=MEAN_SIGNAL_QUALITY
            )
            network = NetworkInterface(conditions, rng)
            activity = (
                UserActivityModel(seed=user_id)
                if self.config.gate_on_app_session
                else None
            )
            self.participants.append(
                ParticipantState(worker=worker, network=network, activity=activity)
            )

        self._eval_x = dataset.test_x
        self._eval_y = dataset.test_y
        if EVAL_EXAMPLES < self._eval_x.shape[0]:
            pick = rng.choice(self._eval_x.shape[0], size=EVAL_EXAMPLES, replace=False)
            self._eval_x, self._eval_y = self._eval_x[pick], self._eval_y[pick]
        self._last_eval_step = 0

        # Wire size of the model as transferred (pull and push are the same
        # vector length; gradients compress slightly worse, so reuse is fair).
        sample_blob = self.codec.encode(server.current_parameters())
        self._wire_bytes = sample_blob.wire_bytes

        # Optional per-worker upload compression (§4: pluggable technique).
        # When the server's pipeline advertises sparse uploads through a
        # SparseUploadDecodeStage, every worker uploads a top-k sparsified
        # gradient with error feedback (k = fraction × model size) and the
        # server decodes it, shrinking the upload wire size.
        self._compressors: list[ErrorFeedbackCompressor] | None = None
        self._upload_bytes = self._wire_bytes
        find = getattr(server, "find_result_stage", None)
        stage = find(SparseUploadDecodeStage) if callable(find) else None
        if stage is not None and stage.fraction is not None:
            dimension = server.current_parameters().size
            k = max(1, int(stage.fraction * dimension))
            self._compressors = [
                ErrorFeedbackCompressor(dimension, k)
                for _ in range(len(self.participants))
            ]
            # values + indices, 4 bytes each on the wire.
            self._upload_bytes = 2 * k * 4

    # ------------------------------------------------------------------
    # Event handlers
    # ------------------------------------------------------------------
    def _schedule_next_request(self, user_id: int) -> None:
        gap = float(self._rng.exponential(self.config.mean_think_time_s))
        self.loop.schedule(gap, lambda: self._on_request(user_id))

    def _on_request(self, user_id: int) -> None:
        state = self.participants[user_id]
        if self.loop.now >= self.config.horizon_s:
            return
        device = state.worker.device
        if device.battery_percent_remaining <= self.config.battery_floor_percent:
            if not state.suspended:
                state.suspended = True
                self.result.suspended_devices += 1
            return
        if state.worker.num_examples == 0:
            return
        if (
            self.config.gate_on_app_session
            and state.activity is not None
            and not state.activity.in_session(self.loop.now)
        ):
            # The worker library only runs while the app is foregrounded
            # (§2.4); try again after the next think time.
            state.skipped_inactive += 1
            self.result.skipped_inactive += 1
            self._schedule_next_request(user_id)
            return

        state.requests += 1
        self.result.requests += 1
        request: TaskRequest = state.worker.build_request()
        response = self.server.handle_request(request, now=self.loop.now)
        if not isinstance(response, TaskAssignment):
            state.rejections += 1
            self.result.rejections += 1
            self._schedule_next_request(user_id)
            return

        start = self.loop.now
        down = state.network.transfer(self._wire_bytes, start, uplink=False)
        result = state.worker.execute_assignment(response)
        sparse_payload = None
        if self._compressors is not None:
            sparse_payload = self._compressors[user_id].compress(result.gradient)
            result = dataclasses.replace(result, gradient=sparse_payload)
        compute_s = result.computation_time_s
        up = state.network.transfer(
            self._upload_bytes, start + down.seconds + compute_s, uplink=True
        )
        round_trip_s = down.seconds + compute_s + up.seconds

        aborted = self._rng.random() < self.config.abort_probability
        finish = start + round_trip_s
        self.loop.schedule_at(
            finish,
            lambda: self._on_completion(
                user_id,
                result,
                aborted,
                compute_s,
                down.seconds + up.seconds,
                down.energy_mwh + up.energy_mwh,
                sparse_payload,
            ),
        )

    def _on_completion(
        self,
        user_id: int,
        task_result,
        aborted: bool,
        compute_s: float,
        network_s: float,
        radio_mwh: float,
        sparse_payload=None,
    ) -> None:
        state = self.participants[user_id]
        device = state.worker.device
        compute_mwh = device.spec.battery_mwh * (
            task_result.energy_percent / 100.0
        )
        self.result.compute_seconds.append(compute_s)
        self.result.network_seconds.append(network_s)
        self.result.round_trip_seconds.append(compute_s + network_s)
        self.result.compute_energy_mwh.append(compute_mwh)
        self.result.radio_energy_mwh.append(radio_mwh)

        if aborted:
            state.aborted += 1
            self.result.aborted += 1
            if sparse_payload is not None and self._compressors is not None:
                # Error feedback: the compressor absorbed this payload's
                # residual at compress time, but the server never received
                # it — put the shipped component back so the next upload
                # compensates for the full gradient, not just the dropped
                # coordinates.
                self._compressors[user_id].restore(sparse_payload)
        else:
            state.completed += 1
            self.result.completed += 1
            updated = self.server.handle_result(task_result, now=self.loop.now)
            if updated and (
                self.server.clock - self._last_eval_step
                >= self.config.eval_every_updates
            ):
                self._evaluate()
        self._schedule_next_request(user_id)

    def _evaluate(self) -> None:
        self._last_eval_step = self.server.clock
        self.model.set_parameters(self.server.current_parameters())
        accuracy = self.model.evaluate_accuracy(self._eval_x, self._eval_y)
        self.result.eval_times_s.append(self.loop.now)
        self.result.eval_steps.append(self.server.clock)
        self.result.eval_accuracy.append(accuracy)
        # A gateway endpoint journals the evaluation so offline analysis
        # can line accuracy up against scaling/steering events in time.
        journal = getattr(self.server, "journal", None)
        if journal is not None:
            journal.evaluation(self.loop.now, float(accuracy), int(self.server.clock))

    def _on_crash(self) -> None:
        """Fault injection: lose one shard's in-memory state."""
        crash = getattr(self.server, "crash_shard", None)
        if not callable(crash):
            raise TypeError(
                "crash_shard_at_s needs an endpoint with crash_shard "
                "(a Gateway built with durability)"
            )
        crash(sorted(self.server.shards)[0], now=self.loop.now)

    def _on_heartbeat(self) -> None:
        """Tick the endpoint's time-driven machinery without traffic."""
        if self.loop.now >= self.config.horizon_s:
            return
        heartbeat = getattr(self.server, "heartbeat", None)
        if callable(heartbeat):
            heartbeat(now=self.loop.now)
        assert self.config.heartbeat_s is not None
        self.loop.schedule(self.config.heartbeat_s, self._on_heartbeat)

    # ------------------------------------------------------------------
    # Driver
    # ------------------------------------------------------------------
    def run(self) -> FleetSimResult:
        """Run the fleet until the horizon and return the measurements."""
        for user_id in range(len(self.participants)):
            # Stagger initial log-ins uniformly over one think time.
            delay = float(self._rng.uniform(0.0, self.config.mean_think_time_s))
            self.loop.schedule(delay, lambda uid=user_id: self._on_request(uid))
        if self.config.heartbeat_s is not None:
            self.loop.schedule(self.config.heartbeat_s, self._on_heartbeat)
        if self.config.crash_shard_at_s is not None:
            self.loop.schedule_at(self.config.crash_shard_at_s, self._on_crash)
        self.loop.run_until(self.config.horizon_s)
        # Drain in-flight completions past the horizon (no new requests are
        # issued there; _on_request returns early beyond the horizon).
        self.loop.run_all()
        # Deliver anything buffered at the endpoint (pending micro-batches
        # and a final shard sync for a gateway; a partial aggregation window
        # for a plain server) so the final evaluation sees all learning.
        self.server.finalize(now=self.loop.now)
        if self.server.clock != self._last_eval_step or not self.result.eval_accuracy:
            self._evaluate()
        return self.result
