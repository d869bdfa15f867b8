"""Tests for the sharded serving gateway (routing, batching, sync, admission)."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from repro.core import make_fedavg
from repro.core.adasgd import GradientUpdate
from repro.devices import SimulatedDevice, get_spec
from repro.devices.device import DeviceFeatures
from repro.durability import DurabilitySpec
from repro.gateway import (
    ConsistentHashRing,
    Gateway,
    GatewayConfig,
    MicroBatcher,
    RoutingSpec,
    ShardSynchronizer,
    TokenBucket,
)
from repro.observability import ObservabilitySpec, SLOSpec
from repro.profiler import IProf, SLO, collect_offline_dataset
from repro.runtime import AggregationCostModel, ElasticityPolicy, RuntimeSpec
from repro.server import FleetServer, VectorCodec
from repro.server.protocol import (
    RejectionReason,
    TaskAssignment,
    TaskRejection,
    TaskRequest,
    TaskResult,
)

DIM = 16
NUM_LABELS = 4


def _features() -> DeviceFeatures:
    return DeviceFeatures(
        available_memory_mb=1024.0,
        total_memory_mb=3072.0,
        temperature_c=30.0,
        sum_max_freq_ghz=8.0,
        energy_per_cpu_second=2e-4,
    )


def _result(worker_id: int, gradient: np.ndarray, pull_step: int = 0) -> TaskResult:
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


def _fedavg_shard(learning_rate: float = 0.1) -> FleetServer:
    return FleetServer(
        make_fedavg(np.zeros(DIM), learning_rate=learning_rate),
        IProf(),
        SLO(time_seconds=3.0),
    )


def _gateway(num_shards: int, **config_kwargs) -> Gateway:
    return Gateway.from_spec(
        num_shards,
        lambda i: _fedavg_shard(),
        GatewayConfig(**config_kwargs),
    )


class TestConsistentHashRing:
    def test_stable_mapping(self):
        ring = ConsistentHashRing()
        for i in range(3):
            ring.add_node(f"shard-{i}")
        first = {key: ring.node_for(key) for key in range(500)}
        second = {key: ring.node_for(key) for key in range(500)}
        assert first == second

    def test_add_moves_about_one_over_n_keys(self):
        ring = ConsistentHashRing(replicas=128)
        for i in range(4):
            ring.add_node(f"shard-{i}")
        keys = list(range(2000))
        before = {key: ring.node_for(key) for key in keys}
        ring.add_node("shard-4")
        after = {key: ring.node_for(key) for key in keys}
        moved = [key for key in keys if before[key] != after[key]]
        # Ideal is 1/5 = 0.2; virtual nodes keep the realized fraction close.
        assert 0.05 < len(moved) / len(keys) < 0.40
        # Consistency: every moved key went to the NEW shard; nothing
        # shuffled between the old shards.
        assert all(after[key] == "shard-4" for key in moved)

    def test_remove_moves_only_the_leavers_keys(self):
        ring = ConsistentHashRing(replicas=128)
        for i in range(5):
            ring.add_node(f"shard-{i}")
        keys = list(range(2000))
        before = {key: ring.node_for(key) for key in keys}
        ring.remove_node("shard-2")
        after = {key: ring.node_for(key) for key in keys}
        for key in keys:
            if before[key] != "shard-2":
                assert after[key] == before[key]
            else:
                assert after[key] != "shard-2"

    def test_reasonable_balance(self):
        ring = ConsistentHashRing(replicas=256)
        for i in range(4):
            ring.add_node(f"shard-{i}")
        counts = ring.distribution(list(range(4000)))
        assert min(counts.values()) > 4000 / 4 / 3

    def test_membership_errors(self):
        ring = ConsistentHashRing()
        with pytest.raises(LookupError):
            ring.node_for(1)
        ring.add_node("a")
        with pytest.raises(ValueError):
            ring.add_node("a")
        with pytest.raises(KeyError):
            ring.remove_node("b")


class TestRouting:
    def test_same_device_same_shard(self):
        gateway = _gateway(4, batch_size=1)
        assert all(
            gateway.shard_for(worker) == gateway.shard_for(worker)
            for worker in range(100)
        )
        # Results actually land on the routed shard.
        rng = np.random.default_rng(0)
        for worker in range(32):
            shard_id = gateway.shard_for(worker)
            before = gateway.shards[shard_id].results_applied
            gateway.handle_result(_result(worker, rng.normal(size=DIM)), now=float(worker))
            assert gateway.shards[shard_id].results_applied == before + 1

    def test_rerouted_result_clamps_lease(self):
        gateway = _gateway(2, batch_size=1)
        rng = np.random.default_rng(1)
        # Shard clocks are all 0; a result with a lease from a "removed"
        # shard at clock 5 must not crash the new owner with negative
        # staleness.
        gateway.handle_result(_result(7, rng.normal(size=DIM), pull_step=5), now=0.0)
        assert gateway.results_applied == 1


class TestBatchedAggregation:
    def test_batched_equals_sequential_fedavg(self):
        """One batched aggregation step == K sequential steps (fixed grads).

        Constant dampening makes each weight exactly 1 regardless of the
        clock, and SGD steps are linear in the gradient, so the only
        difference left is the codec round trip.
        """
        rng = np.random.default_rng(2)
        gradients = [rng.normal(size=DIM) for _ in range(8)]

        sequential = _fedavg_shard()
        for i, gradient in enumerate(gradients):
            sequential.handle_result(_result(i, gradient))

        gateway = Gateway(
            [_fedavg_shard()],
            GatewayConfig(batch_size=8, batch_deadline_s=100.0, codec_precision="f64"),
        )
        for i, gradient in enumerate(gradients):
            gateway.handle_result(_result(i, gradient), now=float(i))

        shard = gateway.shards["shard-0"]
        assert shard.clock == 1  # ONE aggregation pass for the whole batch
        assert sequential.clock == 8
        np.testing.assert_allclose(
            shard.current_parameters(), sequential.current_parameters(), atol=1e-12
        )

    def test_batched_close_under_f32_codec(self):
        rng = np.random.default_rng(3)
        gradients = [rng.normal(size=DIM) for _ in range(8)]
        sequential = _fedavg_shard()
        for i, gradient in enumerate(gradients):
            sequential.handle_result(_result(i, gradient))
        gateway = Gateway(
            [_fedavg_shard()],
            GatewayConfig(batch_size=8, batch_deadline_s=100.0, codec_precision="f32"),
        )
        for i, gradient in enumerate(gradients):
            gateway.handle_result(_result(i, gradient), now=float(i))
        np.testing.assert_allclose(
            gateway.current_parameters(),
            sequential.current_parameters(),
            atol=1e-5,
        )

    def test_submit_many_filters_nonfinite(self):
        server = make_fedavg(np.zeros(DIM), learning_rate=0.1)
        bad = GradientUpdate(gradient=np.full(DIM, np.nan), pull_step=0)
        good = GradientUpdate(gradient=np.ones(DIM), pull_step=0)
        assert server.submit_many([bad, good])
        assert server.rejected_count == 1
        assert server.clock == 1
        with pytest.raises(ValueError):
            server.submit_many([GradientUpdate(gradient=np.ones(DIM + 1), pull_step=0)])

    def test_submit_many_all_rejected_leaves_partial_buffer_alone(self):
        """An all-rejected batch applies nothing — not even buffered updates."""
        server = make_fedavg(np.zeros(DIM), learning_rate=0.1, aggregation_k=4)
        assert not server.submit(GradientUpdate(gradient=np.ones(DIM), pull_step=0))
        bad = GradientUpdate(gradient=np.full(DIM, np.inf), pull_step=0)
        assert not server.submit_many([bad])
        assert server.clock == 0
        assert server.buffered_count == 1  # the partial window survives

    def test_submit_many_shape_failure_is_atomic(self):
        """A malformed batch must not leave earlier updates buffered."""
        server = make_fedavg(np.zeros(DIM), learning_rate=0.1)
        good = GradientUpdate(gradient=np.ones(DIM), pull_step=0)
        bad_shape = GradientUpdate(gradient=np.ones(DIM + 1), pull_step=0)
        with pytest.raises(ValueError):
            server.submit_many([good, bad_shape])
        # The rejected batch left no trace: a later flush applies nothing.
        assert not server.flush()
        assert server.clock == 0

    def test_deadline_flush(self):
        gateway = _gateway(1, batch_size=100, batch_deadline_s=10.0)
        rng = np.random.default_rng(4)
        assert not gateway.handle_result(_result(0, rng.normal(size=DIM)), now=0.0)
        assert gateway.batcher.total_pending() == 1
        # Time passing without reaching the size trigger flushes by deadline,
        # and the flush is reported as an update to the caller.
        assert gateway.handle_result(_result(1, rng.normal(size=DIM)), now=11.0)
        assert gateway.batcher.total_pending() == 0
        assert gateway.results_applied == 2

    def test_batch_of_nonfinite_gradients_not_counted_applied(self):
        shard = _fedavg_shard()
        good = _result(0, np.ones(DIM))
        bad = _result(1, np.full(DIM, np.nan))
        assert shard.handle_result_batch([bad, good])
        assert shard.results_applied == 1  # the NaN upload was rejected
        assert shard.optimizer.rejected_count == 1

    def test_micro_batcher_compression(self):
        batcher = MicroBatcher(VectorCodec(precision="f16"), max_batch=4)
        rng = np.random.default_rng(5)
        for i in range(3):
            result = _result(i, rng.normal(size=2048))
            assert batcher.add_encoded("s", result, now=0.0) == []
        assert batcher.pending("s") == 3
        batch = batcher.add_encoded("s", _result(3, rng.normal(size=2048)), now=0.0)
        assert len(batch) == 4
        assert batcher.compression_ratio() > 3.0  # f16 + deflate vs f64


class TestBackpressure:
    def test_token_bucket_sheds_bursts_and_refills(self):
        bucket = TokenBucket(rate_per_s=1.0, capacity=2.0)
        assert bucket.try_acquire(0.0)
        assert bucket.try_acquire(0.0)
        assert not bucket.try_acquire(0.0)  # burst exhausted
        assert bucket.tokens == 0.0
        assert bucket.try_acquire(1.5)      # refilled

    def test_gateway_sheds_with_overloaded_reason(self):
        gateway = Gateway(
            [_fedavg_shard()],
            GatewayConfig(batch_size=1, admission_rate_per_s=1.0, admission_burst=1.0),
        )
        worker_request = None
        from repro.server.protocol import TaskRequest

        worker_request = TaskRequest(
            worker_id=0,
            device_model="Galaxy S7",
            features=_features(),
            label_counts=np.ones(NUM_LABELS),
        )
        first = gateway.handle_request(worker_request, now=0.0)
        second = gateway.handle_request(worker_request, now=0.0)
        assert not isinstance(first, TaskRejection)
        assert isinstance(second, TaskRejection)
        assert second.reason is RejectionReason.OVERLOADED
        assert gateway.requests_shed() == 1


class TestSynchronization:
    def test_weighted_blend_and_broadcast(self):
        shard_a = _fedavg_shard(learning_rate=1.0)
        shard_b = _fedavg_shard(learning_rate=1.0)
        sync = ShardSynchronizer(interval_s=10.0)
        shards = {"a": shard_a, "b": shard_b}
        # a absorbs 3 gradients of -1s, b absorbs 1 gradient of +1s.
        for i in range(3):
            shard_a.handle_result(_result(i, -np.ones(DIM)))
        shard_b.handle_result(_result(9, np.ones(DIM)))
        # θ_a = +3, θ_b = -1 (θ ← θ − γ g); weights 3:1 → blend at +2.
        record = sync.synchronize(shards, now=0.0)
        np.testing.assert_allclose(shard_a.current_parameters(), np.full(DIM, 2.0))
        np.testing.assert_allclose(shard_b.current_parameters(), np.full(DIM, 2.0))
        assert record.weights == {"a": 3.0, "b": 1.0}
        assert record.max_divergence > 0
        # Clocks are untouched by a sync.
        assert shard_a.clock == 3 and shard_b.clock == 1

    def test_sync_due_schedule(self):
        sync = ShardSynchronizer(interval_s=10.0)
        assert not sync.due(0.0)   # first sighting arms the interval
        assert not sync.due(5.0)
        assert sync.due(10.0)

    def test_gateway_periodic_sync_bounds_divergence(self):
        gateway = _gateway(2, batch_size=1, sync_every_s=5.0)
        rng = np.random.default_rng(6)
        for i in range(40):
            gateway.handle_result(_result(i, rng.normal(size=DIM)), now=i * 1.0)
        assert len(gateway.synchronizer.history) >= 3
        spread = max(
            float(
                np.linalg.norm(
                    shard.current_parameters() - gateway.current_parameters()
                )
            )
            for shard in gateway.shards.values()
        )
        unsynced = _gateway(2, batch_size=1, sync_every_s=1e9)
        for i in range(40):
            unsynced.handle_result(_result(i, rng.normal(size=DIM)), now=i * 1.0)
        unsynced_spread = max(
            float(
                np.linalg.norm(
                    shard.current_parameters() - unsynced.current_parameters()
                )
            )
            for shard in unsynced.shards.values()
        )
        assert spread < unsynced_spread


class TestMembership:
    def test_add_shard_inherits_consensus(self):
        gateway = _gateway(2, batch_size=1)
        rng = np.random.default_rng(7)
        for i in range(10):
            gateway.handle_result(_result(i, rng.normal(size=DIM)), now=float(i))
        consensus = gateway.current_parameters()
        new_id = gateway.add_shard(_fedavg_shard(), now=10.0)
        np.testing.assert_allclose(
            gateway.shards[new_id].current_parameters(), consensus
        )
        assert gateway.num_shards == 3

    def test_add_shard_does_not_drop_unsynced_learning(self):
        """Joining a shard must not erase updates applied since the last sync.

        add_shard re-baselines the synchronizer's counters; without the
        sync-before-join those updates would carry zero weight at the next
        sync and be overwritten by the broadcast consensus.
        """
        gateway = _gateway(2, batch_size=1, sync_every_s=1e9)
        rng = np.random.default_rng(10)
        for i in range(20):
            gateway.handle_result(_result(i, rng.normal(size=DIM)), now=float(i))
        consensus_before = gateway.current_parameters()
        gateway.add_shard(_fedavg_shard(), now=20.0)
        gateway.synchronize(now=21.0)
        np.testing.assert_allclose(
            gateway.current_parameters(), consensus_before, atol=1e-9
        )

    def test_remove_shard_preserves_learning(self):
        gateway = _gateway(3, batch_size=1)
        rng = np.random.default_rng(8)
        for i in range(30):
            gateway.handle_result(_result(i, rng.normal(size=DIM)), now=float(i))
        consensus_before = gateway.current_parameters()
        gateway.remove_shard("shard-1", now=30.0)
        assert gateway.num_shards == 2
        # The leaver's updates were folded in via the pre-removal sync.
        np.testing.assert_allclose(
            gateway.current_parameters(), consensus_before, atol=1e-9
        )
        with pytest.raises(KeyError):
            gateway.remove_shard("shard-1")

    def test_cannot_remove_last_shard(self):
        gateway = _gateway(1, batch_size=1)
        with pytest.raises(ValueError):
            gateway.remove_shard("shard-0")


class TestProfilerFeedback:
    def test_nan_measurement_is_applied_but_not_profiled(self):
        """A served upload whose computation time is NaN still folds its
        gradient, but I-Prof skips it: the cold start stays finite and the
        next unseen device model gets the batch size of a clean run."""
        train = [
            SimulatedDevice(get_spec(name), np.random.default_rng(i))
            for i, name in enumerate(["Galaxy S6", "Nexus 5", "Pixel"])
        ]
        xs, ys = collect_offline_dataset(train, slo_seconds=3.0, kind="time")

        def shard(_: int) -> FleetServer:
            iprof = IProf(refit_every=5)
            iprof.pretrain_time(xs, ys)
            return FleetServer(
                make_fedavg(np.zeros(DIM), learning_rate=0.1),
                iprof,
                SLO(time_seconds=3.0),
            )

        def run(bad_upload: bool) -> tuple[Gateway, int]:
            gateway = Gateway.from_spec(1, shard, GatewayConfig(batch_size=1))
            results = [
                dataclasses.replace(
                    _result(i, np.ones(DIM)), computation_time_s=0.2 + 0.05 * i
                )
                for i in range(5)
            ]
            if bad_upload:
                bad = dataclasses.replace(
                    _result(9, np.ones(DIM)), computation_time_s=float("nan")
                )
                results.insert(0, bad)
            for step, result in enumerate(results):
                gateway.handle_result(result, now=float(step))
            request = TaskRequest(
                worker_id=20,
                device_model="Nexus 6",
                features=_features(),
                label_counts=np.ones(NUM_LABELS),
            )
            assignment = gateway.handle_request(request, now=10.0)
            assert isinstance(assignment, TaskAssignment)
            return gateway, assignment.batch_size

        clean, expected = run(bad_upload=False)
        gateway, batch = run(bad_upload=True)
        assert gateway.results_applied == 6
        profiler = gateway.shards["shard-0"].profiler
        assert profiler.rejected_reports == 1
        assert np.isfinite(profiler.time_predictor.cold_start.theta).all()
        assert clean.shards["shard-0"].profiler.rejected_reports == 0
        assert batch == expected


class TestThroughputAccounting:
    def test_sharding_and_batching_raise_virtual_throughput(self):
        cost = AggregationCostModel(per_flush_s=0.05, per_result_s=0.002)
        rng = np.random.default_rng(9)

        def drive(num_shards: int, batch_size: int) -> float:
            gateway = Gateway.from_spec(
                num_shards,
                lambda i: _fedavg_shard(),
                GatewayConfig(batch_size=batch_size, batch_deadline_s=1e9),
                cost_model=cost,
            )
            # Saturating arrival pattern: 400 results in 0.4 virtual seconds
            # (well beyond one lane's ~120 results/s service capacity), so
            # throughput is set by the serving tier, not by the arrivals.
            for i in range(400):
                gateway.handle_result(
                    _result(i % 64, rng.normal(size=DIM)), now=i * 0.001
                )
            gateway.finalize(now=0.4)
            return gateway.virtual_throughput()

        assert drive(2, 8) > drive(1, 8)
        assert drive(1, 8) > drive(1, 1)


class TestShardRetirement:
    """Devices routed off a retired shard: deterministic landing, no
    stranded micro-batches (remove_shard/scale_down regression tests)."""

    def test_remove_shard_reroutes_devices_deterministically(self):
        def survivors(gateway):
            gateway.remove_shard("shard-1", now=1.0)
            return {worker: gateway.shard_for(worker) for worker in range(200)}

        first = _gateway(3, batch_size=1)
        before = {worker: first.shard_for(worker) for worker in range(200)}
        after = survivors(first)
        displaced = [w for w in range(200) if before[w] == "shard-1"]
        assert displaced
        for worker in range(200):
            assert after[worker] in first.shards
            if worker not in displaced:
                # Unaffected devices keep their shard (lease affinity).
                assert after[worker] == before[worker]
        # A second identically-built gateway lands every displaced device
        # on the same survivor.
        assert survivors(_gateway(3, batch_size=1)) == after

    def test_remove_shard_drains_pending_lane_into_the_model(self):
        gateway = _gateway(3, batch_size=100, batch_deadline_s=1e9,
                           sync_every_s=1e9)
        rng = np.random.default_rng(11)
        victims = [w for w in range(40) if gateway.shard_for(w) == "shard-1"]
        assert victims
        for worker in victims:
            gateway.handle_result(_result(worker, rng.normal(size=DIM)), now=0.0)
        assert gateway.batcher.pending("shard-1") == len(victims)
        applied_before = gateway.results_applied
        retired = gateway.remove_shard("shard-1", now=1.0)
        # The leaver's pending micro-batch was delivered, not dropped —
        # and its applied work stays in the tier-wide counters.
        assert retired.results_applied == len(victims)
        assert gateway.results_applied == applied_before + len(victims)
        assert gateway.batcher.pending("shard-1") == 0

    def test_scale_down_drains_lanes_and_reroutes(self):
        gateway = Gateway.from_spec(
            2,
            lambda i: _fedavg_shard(),
            GatewayConfig(batch_size=100, batch_deadline_s=1e9, sync_every_s=1e9),
        )
        added = gateway.scale_up(now=0.0)
        rng = np.random.default_rng(12)
        movers = [w for w in range(60) if gateway.shard_for(w) == added]
        assert movers
        for worker in movers:
            gateway.handle_result(_result(worker, rng.normal(size=DIM)), now=1.0)
        assert gateway.batcher.pending(added) == len(movers)
        removed = gateway.scale_down(now=2.0)
        assert removed == added  # LIFO retirement
        assert gateway.results_applied == len(movers)  # lane drained
        # Displaced devices land deterministically on live shards, and
        # their next results apply there.
        landings = {worker: gateway.shard_for(worker) for worker in movers}
        assert set(landings.values()) <= set(gateway.shards)
        worker = movers[0]
        target = landings[worker]
        before = gateway.shards[target].results_applied
        gateway.handle_result(_result(worker, rng.normal(size=DIM)), now=3.0)
        gateway.flush_all(now=3.5)
        assert gateway.shards[target].results_applied == before + 1

    def test_scale_down_with_async_runtime_keeps_lanes_consistent(self):
        from repro.gateway import RuntimeSpec

        gateway = Gateway.from_spec(
            3,
            lambda i: _fedavg_shard(),
            GatewayConfig(batch_size=4, batch_deadline_s=1e9, sync_every_s=1e9),
            runtime=RuntimeSpec(mode="async"),
        )
        rng = np.random.default_rng(13)
        for worker in range(24):
            gateway.handle_result(_result(worker, rng.normal(size=DIM)), now=0.0)
        pending_total = gateway.batcher.total_pending()
        removed = gateway.scale_down(now=1.0)
        # The retired lane is gone everywhere: batcher and runtime.
        assert gateway.batcher.pending(removed) == 0
        assert gateway.runtime.queue_depth(removed, now=2.0) == 0
        assert removed not in gateway.runtime._lanes
        # Nothing the leaver held was lost.
        assert gateway.results_applied >= pending_total - (
            gateway.batcher.total_pending()
        )
        gateway.finalize(now=3.0)
        assert gateway.results_applied == 24


class TestLaneLifecycle:
    """Micro-batcher lanes must not outlive their shard (the leak fix)."""

    def test_flush_removes_lane_entry(self):
        batcher = MicroBatcher(VectorCodec(precision="f64"), max_batch=8)
        batcher.add_encoded("s", _result(0, np.ones(DIM)), now=0.0)
        assert "s" in batcher._lanes
        assert len(batcher.flush_encoded("s")) == 1
        # No empty lane is re-inserted for due() to rescan forever.
        assert "s" not in batcher._lanes
        assert batcher.flush_encoded("s") == []

    def test_due_ignores_flushed_and_dropped_lanes(self):
        batcher = MicroBatcher(
            VectorCodec(precision="f64"), max_batch=100, max_delay_s=1.0
        )
        batcher.add_encoded("a", _result(0, np.ones(DIM)), now=0.0)
        batcher.add_encoded("b", _result(1, np.ones(DIM)), now=0.0)
        batcher.flush_encoded("a")
        batcher.flush_encoded("b")
        assert batcher.due(now=100.0) == []

    def test_remove_shard_leaves_no_lane_behind(self):
        gateway = _gateway(3, batch_size=100, batch_deadline_s=1e9, sync_every_s=1e9)
        rng = np.random.default_rng(3)
        # Park pending-but-unflushed results on every shard's lane.
        for i in range(12):
            gateway.handle_result(_result(i, rng.normal(size=DIM)), now=0.0)
        assert gateway.batcher.total_pending() > 0
        gateway.remove_shard("shard-1", now=1.0)
        assert "shard-1" not in gateway.batcher._lanes
        assert gateway.batcher.pending("shard-1") == 0
        # Remaining shards' lanes are intact.
        assert set(gateway.batcher._lanes) <= {"shard-0", "shard-2"}

    def test_uniform_lane_decodes_to_contiguous_matrix(self):
        batcher = MicroBatcher(VectorCodec(precision="f64"), max_batch=8)
        rng = np.random.default_rng(4)
        gradients = [rng.normal(size=DIM) for _ in range(3)]
        for i, gradient in enumerate(gradients):
            batcher.add_encoded("s", _result(i, gradient), now=0.0)
        batch = batcher.decode_entries(batcher.flush_encoded("s"))
        base = batch[0].gradient
        for decoded, original in zip(batch, gradients):
            np.testing.assert_array_equal(decoded.gradient, original)
            # Every row is a view into one (B, D) allocation.
            assert decoded.gradient.base is not None
            assert np.shares_memory(decoded.gradient, base.base)


class TestStoredBlockIngest:
    """The micro-batch and crash-parked results hold the uplink's
    stored-block f32 form: no deflate on the in-process hop, rows
    delivered bit-identical to what arrived."""

    WIDE = 4096  # 16 KiB of f32: one stored block per blob

    @classmethod
    def _stored(cls, wire_bytes: int) -> bool:
        """Every raw f32 byte is present, plus at most the zlib
        framing: 5 bytes per stored block and 6 of header/trailer."""
        raw = 4 * cls.WIDE
        return raw < wire_bytes <= raw + 5 * math.ceil(raw / 65535) + 6

    @classmethod
    def _gradients(cls, workers, seed: int) -> dict[int, np.ndarray]:
        rng = np.random.default_rng(seed)
        # f32-exact values: the codec's quantization is the identity.
        return {
            w: rng.normal(size=cls.WIDE).astype(np.float32).astype(np.float64)
            for w in workers
        }

    @staticmethod
    def _spy_deliveries(gateway: Gateway) -> list:
        """Record every (held entry, delivered result) pair at decode."""
        seen = []
        decode = gateway.batcher.decode_entries

        def spy(entries):
            batch = decode(entries)
            seen.extend(zip(entries, batch))
            return batch

        gateway.batcher.decode_entries = spy
        return seen

    def _assert_delivered_exactly(self, seen, gradients) -> None:
        assert sorted(result.worker_id for _, result in seen) == sorted(gradients)
        for entry, result in seen:
            assert self._stored(entry.wire_bytes)
            assert result.gradient.tobytes() == gradients[result.worker_id].tobytes()

    @classmethod
    def _wide_gateway(cls, batch_size: int, **kwargs) -> Gateway:
        return Gateway.from_spec(
            2,
            lambda i: FleetServer(
                make_fedavg(np.zeros(cls.WIDE), learning_rate=0.1),
                IProf(),
                SLO(time_seconds=3.0),
            ),
            GatewayConfig(batch_size=batch_size, batch_deadline_s=1e9, sync_every_s=1e9),
            **kwargs,
        )

    def test_batch_holds_stored_blocks_and_delivers_exact_rows(self):
        gateway = self._wide_gateway(batch_size=4)
        seen = self._spy_deliveries(gateway)
        gradients = self._gradients(range(12), seed=21)
        for worker, gradient in gradients.items():
            gateway.handle_result(_result(worker, gradient), now=0.0)
        gateway.finalize(now=1.0)
        # 8 raw bytes per element over 4 stored ones (+ block framing).
        assert gateway.batcher.compression_ratio() == pytest.approx(2.0, rel=1e-3)
        self._assert_delivered_exactly(seen, gradients)

    def test_crash_parked_results_redeliver_exact_rows(self, tmp_path):
        from repro.durability import DurabilitySpec

        gateway = self._wide_gateway(
            batch_size=100, durability=DurabilitySpec(root_dir=tmp_path / "dur")
        )
        victim = "shard-0"
        workers = [w for w in range(40) if gateway.shard_for(w) == victim]
        gradients = self._gradients(workers, seed=22)
        half = len(workers) // 2
        assert half > 0
        # Half sit in the victim's micro-batch when it crashes; the rest
        # arrive during the outage and are parked in the crash ledger.
        for worker in workers[:half]:
            gateway.handle_result(_result(worker, gradients[worker]), now=0.0)
        gateway.crash_shard(victim, now=1.0)
        assert gateway.batcher.pending(victim) == 0
        assert victim not in gateway.batcher._lanes
        for worker in workers[half:]:
            gateway.handle_result(_result(worker, gradients[worker]), now=2.0)
        assert len(gateway.crashes[victim].parked) == len(workers)

        seen = self._spy_deliveries(gateway)
        gateway.failover(victim, now=3.0)
        self._assert_delivered_exactly(seen, gradients)
        assert gateway.shards[victim].results_applied == len(workers)


class TestEverySubsystemAttached:
    """SLO, durability, tracing, autoscaling and deadline routing at once.

    Each optional subsystem attaches to the gateway as a delivery and/or
    pump observer; this drives all of them through one run with a crash,
    a detector-driven failover and ``finalize``.
    """

    @staticmethod
    def _request(worker_id: int) -> TaskRequest:
        return TaskRequest(
            worker_id=worker_id,
            device_model="Galaxy S7",
            features=_features(),
            label_counts=np.ones(NUM_LABELS),
        )

    def _run(self, root) -> Gateway:
        gateway = Gateway.from_spec(
            2,
            lambda i: _fedavg_shard(),
            GatewayConfig(batch_size=4, batch_deadline_s=1.0, sync_every_s=15.0),
            cost_model=AggregationCostModel(per_flush_s=0.05, per_result_s=0.02),
            runtime=RuntimeSpec(
                mode="async",
                autoscale=ElasticityPolicy(
                    min_shards=2, max_shards=4, window_s=5.0, cooldown_s=5.0,
                    scale_up_occupancy=0.1, scale_down_occupancy=0.05,
                ),
                routing=RoutingSpec(policy="deadline"),
            ),
            observability=ObservabilitySpec(sample_rate=1.0),
            durability=DurabilitySpec(
                root_dir=root, checkpoint_every_updates=5, detector_timeout_s=5.0
            ),
            slo=SLOSpec(
                latency_bound_s=0.5, fast_window_s=5.0, slow_window_s=20.0,
                evaluate_every_s=0.5,
            ),
        )
        rng = np.random.default_rng(3)
        victim = None
        for step in range(60):
            now = step * 0.5
            if step == 10:
                victim = sorted(gateway.shards)[0]
                gateway.crash_shard(victim, now=now)
            for worker_id in range(16):
                response = gateway.handle_request(self._request(worker_id), now=now)
                if isinstance(response, TaskAssignment):
                    gateway.handle_result(
                        _result(worker_id, rng.normal(size=DIM), response.pull_step),
                        now=now,
                    )
        # Detected and failed over by the pump, before finalize.
        assert victim in gateway.shards and not gateway.crashed_shards
        gateway.finalize(now=40.0)
        gateway.durability.close()
        return gateway

    def test_same_seed_runs_agree_and_every_ledger_balances(self, tmp_path):
        first = self._run(tmp_path / "a")
        second = self._run(tmp_path / "b")
        assert first.journal.to_dicts() == second.journal.to_dicts()
        assert first.slo_engine.snapshot() == second.slo_engine.snapshot()

        kinds = first.journal.counts_by_kind()
        assert kinds["shard_crash"] == 2  # injection + detector verdict
        assert kinds["failover_done"] == 1
        assert kinds["scale"] >= 1
        assert first.slo_engine.evaluations > 0

        delivered = first.metrics.summaries["gateway.batch_size"].sum()
        latency = first.metrics.histograms["gateway.upload_latency_s"]
        assert latency.count == delivered
        assert first.metrics.histograms["gateway.applied_staleness"].count == delivered
        tracer = first.tracer
        assert tracer.started > 0
        assert tracer.collector.finished + tracer.dropped == tracer.started
        assert first.results_applied == first.results_received()


class TestHostileResults:
    """A malformed or lying upload must not take its batch-mates down."""

    @staticmethod
    def _lease(gateway: Gateway, worker_id: int, now: float) -> TaskAssignment:
        request = TaskRequest(
            worker_id=worker_id,
            device_model="Galaxy S7",
            features=_features(),
            label_counts=np.ones(NUM_LABELS),
        )
        assignment = gateway.handle_request(request, now=now)
        assert isinstance(assignment, TaskAssignment)
        return assignment

    def test_zero_batch_size_is_refused_before_it_is_counted(self):
        gateway = _gateway(1, batch_size=2, batch_deadline_s=1e9, sync_every_s=1e9)
        rng = np.random.default_rng(3)
        gateway.handle_result(_result(2, rng.normal(size=DIM)), now=0.0)
        bad = dataclasses.replace(_result(1, rng.normal(size=DIM)), batch_size=0)
        with pytest.raises(ValueError, match="batch_size"):
            gateway.handle_result(bad, now=1.0)
        assert gateway.results_received() == 1
        gateway.finalize(now=2.0)
        # The honest upload sharing the lane is applied.
        assert gateway.results_applied == gateway.results_received() == 1
        assert gateway.clock == 1

    def _lying_and_honest(self, gateway: Gateway) -> str:
        """A leased worker claims pull_step 10**6 and an honest one sends
        its lease's pull_step; both land in one micro-batch."""
        liar, honest = 1, 2
        assert gateway.shard_for(liar) == gateway.shard_for(honest)
        self._lease(gateway, liar, now=0.0)
        lease = self._lease(gateway, honest, now=0.0)
        rng = np.random.default_rng(4)
        gateway.handle_result(
            _result(liar, rng.normal(size=DIM), pull_step=10**6), now=1.0
        )
        gateway.handle_result(
            _result(honest, rng.normal(size=DIM), pull_step=lease.pull_step),
            now=1.0,
        )
        return gateway.shard_for(liar)

    def test_leased_pull_step_past_the_clock_is_clamped(self):
        gateway = _gateway(1, batch_size=2, batch_deadline_s=1e9, sync_every_s=1e9)
        shard_id = self._lying_and_honest(gateway)
        gateway.finalize(now=2.0)
        assert gateway.results_applied == gateway.results_received() == 2
        staleness = gateway.shards[shard_id].applied_staleness()
        assert staleness.size == 2 and (staleness >= 0).all()

    def test_clamped_batch_survives_crash_and_failover(self, tmp_path):
        gateway = Gateway.from_spec(
            1,
            lambda i: _fedavg_shard(),
            GatewayConfig(batch_size=2, batch_deadline_s=1e9, sync_every_s=1e9),
            durability=DurabilitySpec(root_dir=tmp_path, auto_failover=False),
        )
        shard_id = self._lying_and_honest(gateway)
        gateway.crash_shard(shard_id, now=2.0)
        gateway.failover(shard_id, now=3.0)
        gateway.finalize(now=4.0)
        assert gateway.results_applied == gateway.results_received() == 2
        assert gateway.clock == 1
