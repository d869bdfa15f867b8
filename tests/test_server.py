"""Tests for the middleware: controller, worker runtime and FleetServer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import make_adasgd
from repro.data import make_mnist_like, shard_non_iid_split
from repro.devices import SimulatedDevice, get_spec
from repro.nn import build_logistic
from repro.profiler import IProf, SLO, collect_offline_dataset
from repro.server import (
    AdmissionStage,
    Controller,
    FleetServer,
    PercentileThreshold,
    RejectionReason,
    TaskAssignment,
    TaskRejection,
    Worker,
)


class TestPercentileThreshold:
    def test_inactive_until_min_samples(self):
        thr = PercentileThreshold(50.0, min_samples=5)
        for v in [1.0, 2.0]:
            thr.observe(v)
        assert thr.value() is None

    def test_percentile_value(self):
        thr = PercentileThreshold(50.0, min_samples=1)
        for v in range(101):
            thr.observe(float(v))
        assert thr.value() == pytest.approx(50.0)

    def test_invalid_percentile(self):
        with pytest.raises(ValueError):
            PercentileThreshold(101.0)


class TestController:
    def test_permissive_by_default(self):
        controller = Controller()
        decision = controller.check(batch_size=1, similarity=1.0)
        assert decision.accepted

    def test_static_size_threshold(self):
        controller = Controller(min_batch_size=50)
        assert not controller.check(10, 0.5).accepted
        assert controller.check(10, 0.5).reason is RejectionReason.BATCH_TOO_SMALL
        assert controller.check(80, 0.5).accepted

    def test_static_similarity_threshold(self):
        controller = Controller(max_similarity=0.9)
        rejected = controller.check(100, 0.95)
        assert not rejected.accepted
        assert rejected.reason is RejectionReason.SIMILARITY_TOO_HIGH
        assert controller.check(100, 0.5).accepted

    def test_percentile_size_threshold_learns(self):
        controller = Controller(
            min_batch_size=PercentileThreshold(50.0, min_samples=10)
        )
        # Bootstrap: everything accepted while the threshold is inactive.
        for size in range(10, 110, 10):
            assert controller.check(size, 1.0).accepted
        # Now the median is ~55: a size-10 request must be rejected.
        assert not controller.check(10, 1.0).accepted

    def test_counters(self):
        controller = Controller(min_batch_size=50)
        controller.check(10, 1.0)
        controller.check(100, 1.0)
        assert controller.rejected_count == 1
        assert controller.accepted_count == 1


def _make_stack(num_users=6, seed=0):
    rng = np.random.default_rng(seed)
    dataset = make_mnist_like(seed=seed, train_per_class=20, test_per_class=5)
    partition = shard_non_iid_split(dataset.train_y, num_users, rng)
    model = build_logistic(np.random.default_rng(seed + 1), 28 * 28, 10)

    train_devices = [
        SimulatedDevice(get_spec(n), np.random.default_rng(seed + 10 + i))
        for i, n in enumerate(["Galaxy S6", "Nexus 5", "Pixel"])
    ]
    xs, ys = collect_offline_dataset(train_devices, slo_seconds=3.0, kind="time")
    iprof = IProf()
    iprof.pretrain_time(xs, ys)

    optimizer = make_adasgd(
        model.get_parameters(), num_labels=10, learning_rate=0.1,
        initial_tau_thres=12.0,
    )
    server = FleetServer(optimizer, iprof, SLO(time_seconds=3.0))

    workers = []
    device_names = ["Galaxy S7", "Honor 10", "Xperia E3", "Pixel", "HTC U11", "MotoG3"]
    for uid in range(num_users):
        data_x, data_y = dataset.subset(partition.user_indices[uid])
        worker_model = build_logistic(np.random.default_rng(seed + 2), 28 * 28, 10)
        device = SimulatedDevice(
            get_spec(device_names[uid % len(device_names)]),
            np.random.default_rng(seed + 20 + uid),
        )
        workers.append(
            Worker(uid, worker_model, data_x, data_y, 10, device,
                   np.random.default_rng(seed + 30 + uid))
        )
    return server, workers, dataset


class TestWorker:
    def test_request_carries_label_and_device_info(self):
        _, workers, _ = _make_stack()
        request = workers[0].build_request()
        assert request.worker_id == 0
        assert request.label_counts.sum() == workers[0].num_examples
        assert request.device_model == workers[0].device.spec.name

    def test_execute_assignment_produces_gradient(self):
        server, workers, _ = _make_stack()
        worker = workers[0]
        assignment = server.handle_request(worker.build_request())
        assert isinstance(assignment, TaskAssignment)
        result = worker.execute_assignment(assignment)
        assert result.gradient.shape == assignment.parameters.shape
        assert result.batch_size <= assignment.batch_size
        assert result.computation_time_s > 0
        assert result.label_counts.sum() == result.batch_size

    def test_batch_clipped_to_local_data(self):
        server, workers, _ = _make_stack()
        worker = workers[0]
        assignment = TaskAssignment(
            parameters=server.current_parameters(),
            pull_step=0,
            batch_size=10_000,
            similarity=1.0,
        )
        result = worker.execute_assignment(assignment)
        assert result.batch_size == worker.num_examples


class TestFleetServer:
    def test_full_protocol_round(self):
        server, workers, _ = _make_stack()
        worker = workers[0]
        assignment = server.handle_request(worker.build_request())
        result = worker.execute_assignment(assignment)
        params_before = server.current_parameters()
        assert server.handle_result(result)
        assert server.clock == 1
        assert not np.allclose(server.current_parameters(), params_before)

    def test_similarity_neutral_during_bootstrap(self):
        """With an empty global distribution the server must not boost:
        similarity reports 1.0 until enough effective samples accumulate."""
        server, workers, _ = _make_stack()
        assignment = server.handle_request(workers[0].build_request())
        assert assignment.similarity == 1.0

    def test_similarity_grows_as_labels_repeat(self):
        server, workers, _ = _make_stack()
        worker = workers[0]
        for _ in range(3):
            assignment = server.handle_request(worker.build_request())
            server.handle_result(worker.execute_assignment(assignment))
        later = server.handle_request(worker.build_request())
        assert later.similarity > 0.5

    def test_controller_rejection_path(self):
        server, workers, _ = _make_stack()
        server.find_request_stage(AdmissionStage).controller = Controller(
            min_batch_size=10**9
        )
        rejection = server.handle_request(workers[0].build_request())
        assert isinstance(rejection, TaskRejection)
        assert rejection.reason is RejectionReason.BATCH_TOO_SMALL
        assert server.rejections

    def test_profiler_feedback_loop(self):
        server, workers, _ = _make_stack()
        worker = workers[0]
        name = worker.device.spec.name
        for _ in range(3):
            assignment = server.handle_request(worker.build_request())
            server.handle_result(worker.execute_assignment(assignment))
        assert server.profiler.time_predictor.has_personal_model(name)

    def test_training_improves_accuracy(self):
        """Integration: 60 protocol rounds must beat chance accuracy."""
        server, workers, dataset = _make_stack()
        rng = np.random.default_rng(42)
        for _ in range(60):
            worker = workers[int(rng.integers(len(workers)))]
            assignment = server.handle_request(worker.build_request())
            if isinstance(assignment, TaskAssignment):
                server.handle_result(worker.execute_assignment(assignment))
        eval_model = build_logistic(np.random.default_rng(0), 28 * 28, 10)
        eval_model.set_parameters(server.current_parameters())
        acc = eval_model.evaluate_accuracy(dataset.test_x, dataset.test_y)
        assert acc > 0.3   # chance is 0.1
