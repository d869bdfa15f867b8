"""Tests for the composable server pipeline (repro.api + repro.server.stages).

Covers the acceptance surface of the api_redesign: stage ordering
guarantees, veto and rewrite semantics, each built-in capability running
as a pluggable stage end to end, DP+robust stacked through the full
``FleetSimulation``, and the deprecated positional ``FleetServer``
constructor shim.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.api import (
    AdmissionStage,
    FleetBuilder,
    GradientPrivacyStage,
    RequestStage,
    ResultStage,
    RobustAggregationStage,
    SparseUploadDecodeStage,
    TelemetryStage,
    apply_stage_specs,
    parse_stage_spec,
)
from repro.core import make_adasgd
from repro.data import iid_split, make_mnist_like, shard_non_iid_split
from repro.devices import SimulatedDevice, get_spec
from repro.devices.device import DeviceFeatures
from repro.nn import build_logistic
from repro.profiler import IProf, SLO, collect_offline_dataset
from repro.server import (
    Controller,
    FleetServer,
    RejectionReason,
    TaskAssignment,
    TaskRejection,
    Worker,
)
from repro.server.ab_testing import ABThresholdTuner
from repro.server.protocol import TaskResult
from repro.server.sparsification import ErrorFeedbackCompressor
from repro.simulation import FleetSimConfig, FleetSimulation

DIM = 12
NUM_LABELS = 4


def _features() -> DeviceFeatures:
    return DeviceFeatures(
        available_memory_mb=1024.0,
        total_memory_mb=3072.0,
        temperature_c=30.0,
        sum_max_freq_ghz=8.0,
        energy_per_cpu_second=2e-4,
    )


def _request(worker_id: int = 0):
    from repro.server.protocol import TaskRequest

    return TaskRequest(
        worker_id=worker_id,
        device_model="Galaxy S7",
        features=_features(),
        label_counts=np.ones(NUM_LABELS) * 8,
    )


def _result(worker_id: int, gradient, pull_step: int = 0) -> TaskResult:
    return TaskResult(
        worker_id=worker_id,
        device_model="Galaxy S7",
        features=_features(),
        pull_step=pull_step,
        gradient=gradient,
        label_counts=np.ones(NUM_LABELS),
        batch_size=8,
        computation_time_s=1.0,
        energy_percent=0.01,
    )


def _builder(**algo_kwargs) -> FleetBuilder:
    return (
        FleetBuilder(np.zeros(DIM), num_labels=NUM_LABELS)
        .algorithm("fedavg", learning_rate=0.1, **algo_kwargs)
        .slo(3.0)
    )


class RecordingRequestStage(RequestStage):
    def __init__(self, name: str, log: list) -> None:
        self.name = name
        self.log = log

    def on_request(self, ctx) -> None:
        self.log.append(self.name)


class RecordingResultStage(ResultStage):
    def __init__(self, name: str, log: list) -> None:
        self.name = name
        self.log = log

    def on_result(self, update, server):
        self.log.append(self.name)
        return update


class TestOrdering:
    def test_request_stages_run_in_registration_order(self):
        log: list[str] = []
        server = (
            _builder()
            .request_stage(RecordingRequestStage("first", log))
            .request_stage(RecordingRequestStage("second", log))
            .request_stage(RecordingRequestStage("third", log))
            .build()
        )
        assert isinstance(server.handle_request(_request()), TaskAssignment)
        assert log == ["first", "second", "third"]

    def test_result_stages_run_in_registration_order(self):
        log: list[str] = []
        server = (
            _builder()
            .result_stage(RecordingResultStage("alpha", log))
            .result_stage(RecordingResultStage("beta", log))
            .build()
        )
        server.handle_result(_result(0, np.ones(DIM)))
        assert log == ["alpha", "beta"]

    def test_admission_is_always_first_unless_declared(self):
        server = _builder().telemetry().build()
        assert isinstance(server.request_stages[0], AdmissionStage)
        # Explicit declaration keeps the declared position.
        log: list[str] = []
        server = (
            _builder()
            .request_stage(RecordingRequestStage("pre", log))
            .admission(min_batch_size=1)
            .build()
        )
        assert isinstance(server.request_stages[1], AdmissionStage)
        assert not isinstance(server.request_stages[0], AdmissionStage)


class TestVetoAndRewrite:
    def test_vetoing_stage_short_circuits_the_chain(self):
        log: list[str] = []

        class VetoStage(RequestStage):
            def on_request(self, ctx):
                ctx.reject(RejectionReason.SIMILARITY_TOO_HIGH)

        server = (
            _builder()
            .request_stage(VetoStage())
            .request_stage(RecordingRequestStage("after", log))
            .build()
        )
        rejection = server.handle_request(_request())
        assert isinstance(rejection, TaskRejection)
        assert rejection.reason is RejectionReason.SIMILARITY_TOO_HIGH
        assert log == []  # the stage after the veto never ran
        assert server.rejection_stats.counts == {
            RejectionReason.SIMILARITY_TOO_HIGH: 1
        }

    def test_stage_rewrites_the_workload_bound(self):
        class ClampStage(RequestStage):
            def on_request(self, ctx):
                ctx.batch_size = min(ctx.batch_size, 5)
                ctx.annotations["clamped"] = True

        server = _builder().request_stage(ClampStage()).build()
        assignment = server.handle_request(_request())
        assert isinstance(assignment, TaskAssignment)
        assert assignment.batch_size <= 5
        assert assignment.annotations["clamped"] is True

    def test_stage_rewrites_the_gradient(self):
        class NegateStage(ResultStage):
            def on_result(self, update, server):
                return dataclasses.replace(update, gradient=-update.gradient)

        plain = _builder().build()
        negated = _builder().result_stage(NegateStage()).build()
        plain.handle_result(_result(0, np.ones(DIM)))
        negated.handle_result(_result(0, np.ones(DIM)))
        # SGD steps in opposite directions under the rewrite.
        np.testing.assert_allclose(
            negated.current_parameters(), -plain.current_parameters()
        )

    def test_absorbing_stage_applies_nothing(self):
        class DropAll(ResultStage):
            def on_result(self, update, server):
                return None  # noqa: RET501 -- None is the absorb signal

        server = _builder().result_stage(DropAll()).build()
        assert server.handle_result(_result(0, np.ones(DIM))) is False
        assert server.clock == 0
        assert server.results_applied == 0


class TestBuiltinStagesEndToEnd:
    """One end-to-end test per adapted capability (acceptance criterion)."""

    def test_dp_stage_clips_and_perturbs(self):
        server = (
            _builder().dp(clip_norm=1.0, noise_multiplier=0.0, seed=0).build()
        )
        big = 100.0 * np.ones(DIM)
        server.handle_result(_result(0, big))
        # learning_rate 0.1 and clip to L2 norm 1: the step is 0.1 * unit.
        step = -server.current_parameters()
        assert np.linalg.norm(step) == pytest.approx(0.1)
        # With noise the step differs from the pure clipped direction.
        noisy = _builder().dp(clip_norm=1.0, noise_multiplier=0.5, seed=1).build()
        noisy.handle_result(_result(0, big))
        assert not np.allclose(noisy.current_parameters(), server.current_parameters())
        stage = noisy.find_result_stage(GradientPrivacyStage)
        assert stage.steps == 1

    def test_robust_stage_filters_byzantine_gradient(self):
        server = _builder().robust("median", window=3).build()
        honest = np.ones(DIM)
        server.handle_result(_result(0, honest))
        server.handle_result(_result(1, honest))
        assert server.clock == 0  # buffered, nothing applied yet
        updated = server.handle_result(_result(2, 1000.0 * honest))  # attacker
        assert updated and server.clock == 1
        # Median kills the outlier: combined = median * K = 3 * ones,
        # step = lr * 3.
        np.testing.assert_allclose(
            server.current_parameters(), -0.3 * honest, atol=1e-12
        )

    def test_robust_stage_flush_delivers_partial_window(self):
        server = _builder().robust("median", window=5).build()
        server.handle_result(_result(0, np.ones(DIM)))
        server.handle_result(_result(1, 3.0 * np.ones(DIM)))
        assert server.clock == 0
        server.finalize()
        assert server.clock == 1
        assert server.results_applied == 1  # one combined delivery

    def test_robust_stage_batched_path_combines_each_batch(self):
        server = _builder().robust("median", window=4).build()
        batch = [_result(i, float(i + 1) * np.ones(DIM)) for i in range(3)]
        assert server.handle_result_batch(batch)
        assert server.clock == 1
        # median of 1,2,3 = 2, times K=3 → step 0.1 * 6.
        np.testing.assert_allclose(
            server.current_parameters(), -0.6 * np.ones(DIM), atol=1e-12
        )

    def test_sparse_decode_stage_end_to_end(self):
        server = _builder().sparse_uploads(fraction=0.25).build()
        compressor = ErrorFeedbackCompressor(DIM, k=3)
        gradient = np.zeros(DIM)
        gradient[:3] = (5.0, -4.0, 3.0)
        sparse = compressor.compress(gradient)
        assert server.handle_result(_result(0, sparse))
        stage = server.find_result_stage(SparseUploadDecodeStage)
        assert stage.decoded == 1
        np.testing.assert_allclose(
            server.current_parameters(), -0.1 * gradient, atol=1e-12
        )

    def test_telemetry_stage_observes_both_chains(self):
        server = _builder().telemetry().build()
        assignment = server.handle_request(_request())
        server.handle_result(_result(0, np.ones(DIM), pull_step=assignment.pull_step))
        stage = server.find_result_stage(TelemetryStage)
        assert stage is server.find_request_stage(TelemetryStage)  # shared state
        assert stage.registry.counter("pipeline.requests").value == 1
        assert stage.registry.counter("pipeline.results").value == 1
        assert stage.registry.summary("pipeline.staleness").count == 1
        assert "pipeline.requests" in stage.report()

    def test_admission_stage_thresholds(self):
        server = _builder().admission(min_batch_size=10**9).build()
        rejection = server.handle_request(_request())
        assert isinstance(rejection, TaskRejection)
        assert rejection.reason is RejectionReason.BATCH_TOO_SMALL
        assert server.rejection_stats.total == 1

    def test_ab_routing_stage_annotates_and_enforces(self):
        tuner = ABThresholdTuner()
        tuner.size_threshold = 10**9  # SIZE arm rejects everything
        server = _builder().ab_routing(tuner).build()
        size_user = next(
            uid for uid in range(64) if tuner.group_of(uid).value == "size"
        )
        sim_user = next(
            uid for uid in range(64) if tuner.group_of(uid).value == "similarity"
        )
        rejection = server.handle_request(_request(size_user))
        assert isinstance(rejection, TaskRejection)
        assignment = server.handle_request(_request(sim_user))
        assert isinstance(assignment, TaskAssignment)
        assert assignment.annotations["ab_group"] == "similarity"


def _sim_through_builder(tiny_dataset, rng, builder_stages, num_users=6):
    model = build_logistic(
        rng,
        in_features=int(np.prod(tiny_dataset.train_x.shape[1:])),
        num_classes=tiny_dataset.num_classes,
    )
    from repro.devices.catalog import fleet_specs

    training = [
        SimulatedDevice(spec, np.random.default_rng(100 + i))
        for i, spec in enumerate(fleet_specs(4, np.random.default_rng(5)))
    ]
    xs, ys = collect_offline_dataset(training, slo_seconds=3.0, kind="time")
    builder = (
        FleetBuilder(model.get_parameters(), num_labels=tiny_dataset.num_classes)
        .algorithm("adasgd", learning_rate=0.05, initial_tau_thres=12.0)
        .pretrained_profiler(xs, ys)
        .slo(3.0)
    )
    builder_stages(builder)
    server = builder.build()
    partition = iid_split(tiny_dataset.train_y, num_users, rng)
    sim = FleetSimulation(
        server=server,
        model=model,
        dataset=tiny_dataset,
        partition=partition,
        rng=rng,
        config=FleetSimConfig(horizon_s=2400.0, mean_think_time_s=15.0),
    )
    return sim, server


class TestStackedThroughFleetSimulation:
    def test_dp_and_robust_stacked_end_to_end(self, tiny_dataset):
        rng = np.random.default_rng(13)
        sim, server = _sim_through_builder(
            tiny_dataset,
            rng,
            lambda b: b.dp(clip_norm=8.0, noise_multiplier=0.001, seed=3)
            .robust("median", window=3)
            .telemetry(),
        )
        result = sim.run()
        assert result.completed > 0
        dp_stage = server.find_result_stage(GradientPrivacyStage)
        robust_stage = server.find_result_stage(RobustAggregationStage)
        telemetry = server.find_result_stage(TelemetryStage)
        # Every completed upload crossed the DP stage ...
        assert dp_stage.steps == result.completed
        # ... robust pre-combine folded them in windows of 3 (finalize
        # flushes any partial window) ...
        assert robust_stage.combined_batches >= result.completed // 3
        # ... and telemetry after robust saw only the combined stream.
        assert (
            telemetry.registry.counter("pipeline.results").value
            == robust_stage.combined_batches
        )
        # The model still learns through the stacked pipeline.
        chance = 1.0 / tiny_dataset.num_classes
        assert result.final_accuracy() > chance + 0.1

    def test_sparse_stage_negotiates_worker_compression(self, tiny_dataset):
        rng = np.random.default_rng(29)
        sim, server = _sim_through_builder(
            tiny_dataset, rng, lambda b: b.sparse_uploads(fraction=0.1)
        )
        assert sim._compressors is not None
        result = sim.run()
        stage = server.find_result_stage(SparseUploadDecodeStage)
        assert stage.decoded == result.completed > 0


class TestDirectConstruction:
    def _stack(self):
        rng = np.random.default_rng(0)
        dataset = make_mnist_like(seed=0, train_per_class=20, test_per_class=5)
        partition = shard_non_iid_split(dataset.train_y, 4, rng)
        model = build_logistic(np.random.default_rng(1), 28 * 28, 10)
        train_devices = [
            SimulatedDevice(get_spec(n), np.random.default_rng(10 + i))
            for i, n in enumerate(["Galaxy S6", "Nexus 5"])
        ]
        xs, ys = collect_offline_dataset(train_devices, slo_seconds=3.0, kind="time")
        iprof = IProf()
        iprof.pretrain_time(xs, ys)
        optimizer = make_adasgd(
            model.get_parameters(), num_labels=10, learning_rate=0.1,
            initial_tau_thres=12.0,
        )
        data_x, data_y = dataset.subset(partition.user_indices[0])
        worker = Worker(
            0, build_logistic(np.random.default_rng(2), 28 * 28, 10),
            data_x, data_y, 10,
            SimulatedDevice(get_spec("Galaxy S7"), np.random.default_rng(20)),
            np.random.default_rng(30),
        )
        return optimizer, iprof, worker

    def test_permissive_admission_stage_is_prepended(self):
        optimizer, iprof, worker = self._stack()
        server = FleetServer(optimizer, iprof, SLO(time_seconds=3.0))
        # No AdmissionStage given: every server still has a governed
        # admission point, and it lets everything through.
        assert isinstance(server.request_stages[0], AdmissionStage)
        assert server.find_request_stage(AdmissionStage).controller.min_batch_size is None
        assignment = server.handle_request(worker.build_request())
        assert isinstance(assignment, TaskAssignment)
        assert server.handle_result(worker.execute_assignment(assignment))
        assert server.clock == 1

    def test_admission_stage_controller_is_assignable(self):
        optimizer, iprof, worker = self._stack()
        server = FleetServer(
            optimizer, iprof, SLO(time_seconds=3.0),
            request_stages=[AdmissionStage(Controller(min_batch_size=1))],
        )
        assert len(server.request_stages) == 1  # nothing prepended
        server.find_request_stage(AdmissionStage).controller = Controller(
            min_batch_size=10**9
        )
        rejection = server.handle_request(worker.build_request())
        assert isinstance(rejection, TaskRejection)
        assert server.rejections  # bounded ring, truthy like the old list

    def test_rejection_ring_is_bounded(self):
        server = _builder().admission(min_batch_size=10**9).build()
        for _ in range(600):
            server.handle_request(_request())
        assert len(server.rejections) == 512  # ring capacity
        assert server.rejection_stats.total == 600  # counters keep the truth
        assert server.rejection_stats.counts[RejectionReason.BATCH_TOO_SMALL] == 600


class TestBuilderAndSpecs:
    def test_spec_builds_independent_shards(self):
        spec = _builder().telemetry().spec()
        a, b = spec(0), spec(1)
        assert a.optimizer is not b.optimizer
        assert a.find_result_stage(TelemetryStage) is not b.find_result_stage(
            TelemetryStage
        )

    def test_builder_requires_parameters(self):
        with pytest.raises(ValueError):
            FleetBuilder().build()

    def test_adasgd_requires_num_labels(self):
        with pytest.raises(ValueError):
            FleetBuilder(np.zeros(4)).algorithm("adasgd").build()

    def test_parse_stage_spec(self):
        name, options = parse_stage_spec("dp:clip=2.0,noise=0.05,seed=3")
        assert name == "dp"
        assert options == {"clip": 2.0, "noise": 0.05, "seed": 3}
        assert parse_stage_spec("telemetry") == ("telemetry", {})
        with pytest.raises(ValueError):
            parse_stage_spec("dp:clip")

    def test_apply_stage_specs_builds_the_declared_chain(self):
        builder = _builder()
        apply_stage_specs(
            builder, ["dp:noise=0.0", "robust:rule=median,window=2", "telemetry"]
        )
        server = builder.build()
        names = [s.name for s in server.result_stages]
        assert names == ["dp", "robust", "telemetry"]

    def test_apply_stage_specs_rejects_unknown(self):
        with pytest.raises(ValueError):
            apply_stage_specs(_builder(), ["warp-drive"])
        with pytest.raises(ValueError):
            apply_stage_specs(_builder(), ["dp:bogus_option=1"])


class TestPipelineHardening:
    """Regression tests for review findings on the pipeline surface."""

    def test_robust_batched_path_buffers_single_results(self):
        # A batch_size=1 gateway lane must not let lone gradients bypass
        # the robust rule: sub-2-item batches stay buffered.
        server = _builder().robust("median", window=3).build()
        assert not server.handle_result_batch([_result(0, np.ones(DIM))])
        assert server.clock == 0  # buffered, not applied raw
        assert server.handle_result_batch([_result(1, 3.0 * np.ones(DIM))])
        assert server.clock == 1
        # median(1, 3) = 2 per coordinate, times K=2 -> step 0.1 * 4.
        np.testing.assert_allclose(
            server.current_parameters(), -0.4 * np.ones(DIM), atol=1e-12
        )

    def test_sparse_upload_without_decode_stage_rejected_before_profiler(self):
        reports = []

        class CountingProf(IProf):
            def report(self, *args, **kwargs):
                reports.append(args)
                return super().report(*args, **kwargs)

        server = _builder().profiler(CountingProf).build()
        sparse = ErrorFeedbackCompressor(DIM, k=3).compress(
            np.arange(DIM, dtype=float)
        )
        with pytest.raises(ValueError, match="sparse"):
            server.handle_result(_result(0, sparse))
        with pytest.raises(ValueError, match="sparse"):
            server.handle_result_batch([_result(0, sparse)])
        assert not reports  # rejected before any profiler state changed
        assert server.results_applied == 0

    def test_spec_stamped_dp_shards_draw_independent_noise(self):
        spec = _builder().dp(clip_norm=10.0, noise_multiplier=1.0, seed=0).spec()
        a, b = spec.build(), spec.build()
        a.handle_result(_result(0, np.ones(DIM)))
        b.handle_result(_result(0, np.ones(DIM)))
        assert not np.allclose(a.current_parameters(), b.current_parameters())

    def test_spec_stamped_admission_controllers_do_not_share_state(self):
        controller = Controller(min_batch_size=1)
        spec = _builder().admission(controller).spec()
        a, b = spec.build(), spec.build()
        stamped_a = a.find_request_stage(AdmissionStage).controller
        stamped_b = b.find_request_stage(AdmissionStage).controller
        assert stamped_a is not controller
        assert stamped_a is not stamped_b

    def test_gateway_advertises_and_decodes_sparse_uploads(self):
        from repro.gateway import Gateway, GatewayConfig

        spec = _builder().sparse_uploads(fraction=0.25).spec()
        gateway = Gateway.from_spec(2, spec, GatewayConfig(batch_size=2))
        stage = gateway.find_result_stage(SparseUploadDecodeStage)
        assert stage is not None and stage.fraction == 0.25

        gradient = np.zeros(DIM)
        gradient[:3] = (5.0, -4.0, 3.0)
        for worker_id in range(4):
            sparse = ErrorFeedbackCompressor(DIM, k=3).compress(gradient)
            gateway.handle_result(_result(worker_id, sparse), now=float(worker_id))
        gateway.finalize()
        decoded = sum(
            shard.find_result_stage(SparseUploadDecodeStage).decoded
            for shard in gateway.shards.values()
        )
        assert decoded == 4
        assert gateway.results_applied == 4
