"""Tests for straggler-aware routing (spec, routers, gateway wiring)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import FleetBuilder, RoutingSpec, RuntimeSpec
from repro.core import make_fedavg
from repro.devices.device import DeviceFeatures
from repro.gateway import (
    DeadlineAwareRouter,
    Gateway,
    GatewayConfig,
    HashRouter,
)
from repro.profiler import IProf, SLO
from repro.server import FleetServer
from repro.server.protocol import TaskAssignment, TaskRequest, TaskResult

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


def _request(worker_id: int) -> TaskRequest:
    return TaskRequest(
        worker_id=worker_id,
        device_model="Galaxy S7",
        features=_features(),
        label_counts=np.ones(NUM_LABELS),
    )


def _result(worker_id: int, pull_step: int = 0, compute_s: float = 1.0) -> TaskResult:
    return TaskResult(
        worker_id=worker_id,
        device_model="Galaxy S7",
        features=_features(),
        pull_step=pull_step,
        gradient=np.ones(DIM),
        label_counts=np.ones(NUM_LABELS),
        batch_size=8,
        computation_time_s=compute_s,
        energy_percent=0.01,
    )


def _fedavg_shard() -> FleetServer:
    return FleetServer(
        make_fedavg(np.zeros(DIM), learning_rate=0.1),
        IProf(),
        SLO(time_seconds=3.0),
    )


class _StubGateway:
    """Gateway stand-in with scripted per-shard loads."""

    def __init__(self, loads: dict[str, float]):
        self.loads = dict(loads)

    def shard_load(self, shard_id: str, now: float | None = None) -> float:
        return self.loads[shard_id]


def _steering_router(
    loads: dict[str, float], **spec_kwargs
) -> DeadlineAwareRouter:
    spec_kwargs.setdefault("candidates", max(2, len(loads)))
    spec_kwargs.setdefault("steer_penalty_s", 0.0)
    router = DeadlineAwareRouter(RoutingSpec(policy="deadline", **spec_kwargs))
    router.bind(_StubGateway(loads))
    for shard_id in loads:
        router.add_shard(shard_id)
    return router


def _flag(router: DeadlineAwareRouter, worker_id: int, ratio: float = 10.0) -> None:
    router.observe_prediction(worker_id, ratio * 3.0, 3.0, now=0.0)


class TestRoutingSpec:
    def test_defaults_build_deadline_router(self):
        router = RoutingSpec().build()
        assert isinstance(router, DeadlineAwareRouter)

    def test_hash_policy_builds_hash_router(self):
        router = RoutingSpec(policy="hash").build(replicas=32)
        assert isinstance(router, HashRouter)
        assert router.ring.replicas == 32

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"policy": "zodiac"},
            {"straggler_factor": 0.0},
            {"hysteresis": 0.5},
            {"min_dwell_s": -1.0},
            {"max_rebalance_fraction": 1.5},
            {"candidates": 1},
            {"ema_alpha": 0.0},
            {"steer_penalty_s": -0.1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            RoutingSpec(**kwargs)

    def test_runtime_spec_carries_routing(self):
        spec = RuntimeSpec(mode="sync", routing=RoutingSpec())
        assert spec.routing.policy == "deadline"
        with pytest.raises(TypeError):
            RuntimeSpec(routing=42)

    def test_builder_routing_rides_on_server_spec(self):
        spec = (
            FleetBuilder(np.zeros(DIM))
            .algorithm("fedavg")
            .routing(policy="deadline", straggler_factor=2.0)
            .spec()
        )
        assert spec.runtime.mode == "sync"  # placement does not imply async
        assert spec.runtime.routing.straggler_factor == 2.0
        gateway = Gateway.from_spec(2, spec)
        assert isinstance(gateway.router, DeadlineAwareRouter)
        assert gateway.runtime.spec.mode == "sync"

    def test_builder_routing_merges_into_existing_runtime(self):
        spec = (
            FleetBuilder(np.zeros(DIM))
            .algorithm("fedavg")
            .runtime(mode="async")
            .routing(policy="deadline")
            .spec()
        )
        assert spec.runtime.mode == "async"
        assert spec.runtime.routing is not None
        with pytest.raises(ValueError):
            FleetBuilder(np.zeros(DIM)).routing(RoutingSpec(), policy="hash")


class TestHashRouter:
    def test_route_matches_ring(self):
        router = HashRouter(replicas=64)
        for shard in ("a", "b", "c"):
            router.add_shard(shard)
        assert all(
            router.route(worker, now=float(worker))
            == router.ring.node_for(worker)
            for worker in range(200)
        )

    def test_gateway_defaults_to_hash_router(self):
        gateway = Gateway([_fedavg_shard(), _fedavg_shard()])
        assert isinstance(gateway.router, HashRouter)
        assert all(
            gateway.shard_for(w) == gateway.ring.node_for(w) for w in range(50)
        )

    def test_observations_are_noops(self):
        router = HashRouter()
        router.add_shard("a")
        before = router.route(7)
        router.observe_prediction(7, 100.0, 1.0, now=0.0)
        router.observe_latency(7, 100.0, now=0.0)
        assert router.route(7) == before


class TestDeadlineAwareRouter:
    def test_unknown_device_routes_home(self):
        router = _steering_router({"a": 9.0, "b": 0.0, "c": 5.0})
        for worker in range(20):
            assert router.route(worker, now=0.0) == router.ring.node_for(worker)
        assert router.steered_count == 0

    def test_fast_prediction_stays_home(self):
        router = _steering_router({"a": 9.0, "b": 0.0, "c": 5.0})
        router.observe_prediction(3, 2.9, 3.0, now=0.0)  # meets the deadline
        assert router.route(3, now=1.0) == router.ring.node_for(3)
        assert not router.is_straggler(3)

    def test_straggler_steers_to_least_loaded(self):
        router = _steering_router({"a": 9.0, "b": 0.0, "c": 5.0})
        _flag(router, 3)
        assert router.is_straggler(3)
        assert router.route(3, now=1.0) == "b"
        assert router.steered == {3: "b"}

    def test_sticky_within_dwell(self):
        router = _steering_router({"a": 9.0, "b": 0.0, "c": 5.0}, min_dwell_s=60.0)
        _flag(router, 3)
        assert router.route(3, now=0.0) == "b"
        router._gateway.loads["b"] = 100.0  # b becomes the worst shard
        assert router.route(3, now=59.0) == "b"  # sticky until the dwell

    def test_hysteresis_blocks_marginal_moves(self):
        router = _steering_router(
            {"a": 9.0, "b": 0.0, "c": 5.0}, min_dwell_s=10.0, hysteresis=1.5
        )
        _flag(router, 3)
        assert router.route(3, now=0.0) == "b"
        router._gateway.loads["b"] = 6.0  # worse than c=5, but within 1.5x
        assert router.route(3, now=20.0) == "b"
        assert router.reassignments == 0

    def test_no_flapping_on_a_quiet_tier(self):
        """A steered device's own penalty must not read as load the
        device could escape by moving: on an idle tier the placement
        holds across dwell expiries instead of ping-ponging."""
        router = _steering_router(
            {"a": 0.0, "b": 0.0, "c": 0.0},
            min_dwell_s=10.0,
            steer_penalty_s=0.1,
        )
        _flag(router, 3)
        first = router.route(3, now=0.0)
        placements = [router.route(3, now=20.0 * k) for k in range(1, 6)]
        assert placements == [first] * 5
        assert router.reassignments == 0

    def test_hysteresis_allows_clear_wins(self):
        router = _steering_router(
            {"a": 9.0, "b": 0.0, "c": 5.0}, min_dwell_s=10.0, hysteresis=1.5
        )
        _flag(router, 3)
        assert router.route(3, now=0.0) == "b"
        router._gateway.loads["b"] = 50.0
        assert router.route(3, now=20.0) == "c"
        assert router.reassignments == 1

    def test_recovered_device_released_after_dwell(self):
        router = _steering_router({"a": 9.0, "b": 0.0, "c": 5.0}, min_dwell_s=10.0)
        _flag(router, 3)
        steered_to = router.route(3, now=0.0)
        router.observe_prediction(3, 1.0, 3.0, now=1.0)  # now predicts fast
        assert router.route(3, now=5.0) == steered_to  # held through dwell
        assert router.route(3, now=20.0) == router.ring.node_for(3)
        assert router.steered_count == 0

    def test_observed_latency_needs_a_deadline(self):
        router = _steering_router({"a": 0.0, "b": 1.0})
        router.observe_latency(3, 500.0, now=0.0)  # no deadline known yet
        assert not router.is_straggler(3)

    def test_observed_latency_ema_flags_stragglers(self):
        router = _steering_router({"a": 0.0, "b": 1.0}, ema_alpha=0.5)
        router.observe_prediction(3, 1.0, 3.0, now=0.0)  # predicts fast
        assert not router.is_straggler(3)
        router.observe_latency(3, 30.0, now=1.0)  # measures 10x the deadline
        router.observe_latency(3, 30.0, now=2.0)
        assert router.latency_ratio(3) == pytest.approx(10.0)
        assert router.is_straggler(3)

    def test_candidates_distinct_and_live(self):
        router = _steering_router(
            {f"s{i}": float(i) for i in range(6)}, candidates=2
        )
        for worker in range(50):
            picks = router._candidates(worker)
            assert len(picks) == 2
            assert len(set(picks)) == 2
            assert set(picks) <= set(router.ring.nodes)

    def test_single_shard_degenerates(self):
        router = _steering_router({"only": 3.0})
        _flag(router, 1)
        assert router.route(1, now=0.0) == "only"

    def test_same_seed_same_placement(self):
        def drive(seed: int) -> dict[int, str]:
            router = _steering_router(
                {"a": 4.0, "b": 1.0, "c": 2.0}, candidates=2, seed=seed
            )
            for worker in range(24):
                _flag(router, worker)
                router.route(worker, now=float(worker))
            return router.steered

        assert drive(7) == drive(7)
        # Different seeds deal different candidate hands (placements may
        # coincide per worker, but not across the whole population).
        assert drive(7) != drive(8)

    def test_remove_shard_reassigns_displaced_only(self):
        router = _steering_router({"a": 0.0, "b": 5.0, "c": 9.0}, candidates=2)
        for worker in range(12):
            _flag(router, worker)
            router.route(worker, now=0.0)
        before = router.steered
        displaced = {w for w, s in before.items() if s == "a"}
        assert displaced  # a is the least loaded: someone steered there
        router.remove_shard("a", now=1.0)
        after = router.steered
        assert set(after) == set(before)
        for worker, shard in after.items():
            assert shard in ("b", "c")
            if worker not in displaced:
                assert shard == before[worker]

    def test_remove_shard_is_deterministic(self):
        def drive() -> dict[int, str]:
            router = _steering_router(
                {"a": 0.0, "b": 5.0, "c": 9.0}, candidates=2, seed=3
            )
            for worker in range(12):
                _flag(router, worker)
                router.route(worker, now=0.0)
            router.remove_shard("a", now=1.0)
            return router.steered

        assert drive() == drive()

    def test_add_shard_rebalance_is_bounded(self):
        router = _steering_router(
            {"a": 50.0, "b": 60.0},
            candidates=2,
            min_dwell_s=0.0,
            max_rebalance_fraction=0.25,
        )
        for worker in range(16):
            _flag(router, worker)
            router.route(worker, now=0.0)
        assert router.steered_count == 16
        router._gateway.loads["fresh"] = 0.0
        router.add_shard("fresh", now=1.0)
        moved = sum(1 for s in router.steered.values() if s == "fresh")
        # Bounded: at most 25% of the steered population chases the join.
        assert moved <= max(1, int(0.25 * 16))
        assert router.reassignments == moved

    def test_add_shard_with_zero_fraction_pins_placements(self):
        router = _steering_router(
            {"a": 50.0, "b": 60.0},
            candidates=2,
            min_dwell_s=0.0,
            max_rebalance_fraction=0.0,
        )
        for worker in range(8):
            _flag(router, worker)
            router.route(worker, now=0.0)
        before = router.steered
        router._gateway.loads["fresh"] = 0.0
        router.add_shard("fresh", now=1.0)
        assert router.steered == before
        assert router.reassignments == 0


class TestGatewayIntegration:
    def _deadline_gateway(self, num_shards=3, **spec_kwargs):
        spec_kwargs.setdefault("straggler_factor", 1.5)
        return Gateway.from_spec(
            num_shards,
            lambda i: _fedavg_shard(),
            GatewayConfig(batch_size=1),
            router=RoutingSpec(policy="deadline", **spec_kwargs).build(),
        )

    def test_fleet_server_annotates_predictions(self):
        server = _fedavg_shard()
        response = server.handle_request(_request(1))
        assert isinstance(response, TaskAssignment)
        assert response.annotations["profiler.predicted_time_s"] > 0
        assert response.annotations["profiler.deadline_s"] == 3.0

    def test_gateway_feeds_predictions_to_router(self):
        gateway = self._deadline_gateway()
        response = gateway.handle_request(_request(1), now=0.0)
        assert isinstance(response, TaskAssignment)
        assert gateway.router.latency_ratio(1) > 0

    def test_gateway_observes_round_trip(self):
        gateway = self._deadline_gateway()
        gateway.handle_request(_request(1), now=0.0)
        gateway.handle_result(_result(1), now=30.0)
        # 30s round trip over the 3s deadline: EMA starts at the ratio.
        assert gateway.router._observed[1] == pytest.approx(10.0)
        assert gateway.router.is_straggler(1)

    def test_steered_results_land_on_steered_shard(self):
        gateway = self._deadline_gateway()
        gateway.handle_request(_request(1), now=0.0)
        gateway.handle_result(_result(1), now=30.0)  # flags worker 1
        response = gateway.handle_request(_request(1), now=31.0)  # steers
        steered_to = gateway.shard_for(1)
        before = gateway.shards[steered_to].results_applied
        gateway.handle_result(
            _result(1, pull_step=response.pull_step), now=32.0
        )
        assert gateway.shards[steered_to].results_applied == before + 1

    def test_shard_for_is_a_pure_query(self):
        gateway = self._deadline_gateway()
        gateway.handle_request(_request(1), now=0.0)
        gateway.handle_result(_result(1), now=30.0)  # flags worker 1
        # Introspection must not make steering decisions.
        for _ in range(5):
            gateway.shard_for(1)
        assert gateway.router.steered_count == 0
        gateway.handle_request(_request(1), now=31.0)  # the request path does
        assert gateway.router.steered_count == 1

    def test_hash_equivalent_when_all_devices_fast(self):
        def drive(policy: str) -> Gateway:
            gateway = Gateway.from_spec(
                3,
                lambda i: _fedavg_shard(),
                GatewayConfig(batch_size=4, batch_deadline_s=5.0,
                              sync_every_s=40.0),
                router=RoutingSpec(
                    policy=policy, straggler_factor=1e9
                ).build(),
            )
            rng = np.random.default_rng(5)
            for i in range(120):
                worker = i % 24
                now = i * 0.5
                response = gateway.handle_request(_request(worker), now=now)
                assert isinstance(response, TaskAssignment)
                result = TaskResult(
                    worker_id=worker,
                    device_model="Galaxy S7",
                    features=_features(),
                    pull_step=response.pull_step,
                    gradient=rng.normal(size=DIM),
                    label_counts=np.ones(NUM_LABELS),
                    batch_size=8,
                    computation_time_s=1.0,
                    energy_percent=0.01,
                )
                gateway.handle_result(result, now=now + 0.2)
            gateway.finalize(now=100.0)
            return gateway

        hashed, deadline = drive("hash"), drive("deadline")
        assert isinstance(deadline.router, DeadlineAwareRouter)
        assert deadline.router.steered_count == 0
        assert hashed.clock == deadline.clock
        assert np.array_equal(
            hashed.current_parameters(), deadline.current_parameters()
        )
        for shard_id in hashed.shards:
            assert np.array_equal(
                hashed.shards[shard_id].applied_staleness(),
                deadline.shards[shard_id].applied_staleness(),
            )

    def test_scale_down_resteers_stragglers(self):
        spec = (
            FleetBuilder(np.zeros(DIM))
            .algorithm("fedavg", learning_rate=0.1)
            .routing(policy="deadline", straggler_factor=1.5, min_dwell_s=0.0)
            .spec()
        )
        gateway = Gateway.from_spec(3, spec, GatewayConfig(batch_size=1))
        for worker in range(6):
            start = worker * 100.0
            gateway.handle_request(_request(worker), now=start)
            gateway.handle_result(_result(worker), now=start + 30.0)
            # 30s round trip flagged the worker; its next request steers.
            gateway.handle_request(_request(worker), now=start + 31.0)
        assert gateway.router.steered_count == 6
        removed = gateway.scale_down(now=601.0)
        placements = gateway.router.steered
        assert set(placements) == set(range(6))
        assert removed not in placements.values()
        for worker in range(6):
            assert gateway.shard_for(worker) in gateway.shards

    def test_sync_mode_routing_without_async_runtime(self):
        gateway = Gateway.from_spec(
            2,
            lambda i: _fedavg_shard(),
            GatewayConfig(batch_size=1),
            runtime=RuntimeSpec(mode="sync", routing=RoutingSpec()),
        )
        assert gateway.runtime.spec.mode == "sync"
        assert isinstance(gateway.router, DeadlineAwareRouter)
        gateway.handle_result(_result(0), now=0.0)
        assert gateway.results_applied == 1
        assert gateway.runtime.rejected_batches == 0

    def test_fleet_sim_feeds_iprof_predictions_to_router(self, tiny_dataset):
        """End to end: the simulation's protocol traffic carries real
        I-Prof predictions (assignment annotations) into the router."""
        from repro.data.federated_split import iid_split
        from repro.nn.models import build_logistic
        from repro.simulation.fleet_sim import FleetSimConfig, FleetSimulation

        rng = np.random.default_rng(0)
        model = build_logistic(
            rng,
            in_features=int(np.prod(tiny_dataset.train_x.shape[1:])),
            num_classes=tiny_dataset.num_classes,
        )
        spec = (
            FleetBuilder(model.get_parameters(), num_labels=tiny_dataset.num_classes)
            .algorithm("adasgd", learning_rate=0.05, initial_tau_thres=12.0)
            .slo(3.0)
            .routing(policy="deadline", straggler_factor=1.5)
            .spec()
        )
        gateway = Gateway.from_spec(2, spec, GatewayConfig(batch_size=2))
        simulation = FleetSimulation(
            server=gateway,
            model=model,
            dataset=tiny_dataset,
            partition=iid_split(tiny_dataset.train_y, 6, rng),
            rng=rng,
            config=FleetSimConfig(horizon_s=600.0, mean_think_time_s=30.0),
        )
        result = simulation.run()
        assert result.completed > 0
        router = gateway.router
        predicted = [
            w for w in range(6) if router.latency_ratio(w) > 0.0
        ]
        # Every user that completed a round has a prediction on file, and
        # the measured-round-trip EMA is populated alongside it.
        assert predicted
        assert any(w in router._observed for w in predicted)

    def test_shard_load_prefers_quiet_lanes(self):
        from repro.runtime import AggregationCostModel

        gateway = Gateway.from_spec(
            2,
            lambda i: _fedavg_shard(),
            GatewayConfig(batch_size=1, hash_replicas=16),
            cost_model=AggregationCostModel(per_flush_s=1.0, per_result_s=0.1),
        )
        # Drive traffic to one shard only; its recent-service EWMA grows.
        busy = gateway.shard_for(0)
        for i in range(10):
            gateway.handle_result(_result(0), now=float(i))
        quiet = next(s for s in gateway.shards if s != busy)
        assert gateway.shard_load(busy, now=10.0) > gateway.shard_load(
            quiet, now=10.0
        )
        with pytest.raises(KeyError):
            gateway.shard_load("nope")

    def test_shard_load_counts_a_batch_once(self):
        from repro.runtime import AggregationCostModel

        gateway = Gateway.from_spec(
            2,
            lambda i: _fedavg_shard(),
            GatewayConfig(batch_size=1, hash_replicas=16),
            cost_model=AggregationCostModel(per_flush_s=5.0, per_result_s=0.0),
        )
        worker = 0
        shard = gateway.shard_for(worker)
        gateway.handle_result(_result(worker), now=0.0)
        # One 5s batch just delivered: it is both "recent service" and
        # pending occupancy — the load score must not read it as 10s.
        assert gateway.shard_load(shard, now=0.0) == pytest.approx(5.0)
