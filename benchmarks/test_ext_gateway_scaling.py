"""Extension bench — the sharded serving gateway scales the serving tier.

Two claims, measured separately:

* **throughput** — under a saturating result stream, serving-tier
  throughput (handled results per second of virtual time, queueing
  included) rises monotonically with shard count, and micro-batching
  raises it further by amortizing the fixed cost of an aggregation pass;
* **convergence** — routing the full fleet-simulation workload through
  the gateway does not cost learning: accuracy holds across shard counts,
  and batched aggregation (one optimizer step per micro-batch through
  ``FleetServer.handle_result_batch``) matches unbatched final accuracy
  within 1 % on the synthetic-images workload.
"""

from __future__ import annotations

import time

import numpy as np

from repro.api import FleetBuilder
from repro.data import iid_split, make_mnist_like
from repro.devices import SimulatedDevice, fleet_specs
from repro.devices.device import DeviceFeatures
from repro.gateway import Gateway, GatewayConfig
from repro.nn import build_logistic
from repro.profiler import collect_offline_dataset
from repro.runtime import AggregationCostModel
from repro.server.protocol import TaskResult
from repro.simulation import FleetSimConfig, FleetSimulation

from conftest import fmt_series

SHARD_COUNTS = (1, 2, 4, 8)
BATCH_SIZES = (1, 4, 16)
THROUGHPUT_RESULTS = 1600
GRADIENT_DIM = 512
CONVERGENCE_SHARDS = (1, 2, 4)
NUM_USERS = 20
HORIZON_S = 1200.0


# ----------------------------------------------------------------------
# Throughput under a saturating synthetic stream
# ----------------------------------------------------------------------
def _features() -> DeviceFeatures:
    return DeviceFeatures(
        available_memory_mb=1024.0,
        total_memory_mb=3072.0,
        temperature_c=30.0,
        sum_max_freq_ghz=8.0,
        energy_per_cpu_second=2e-4,
    )


def _drive_saturated(num_shards: int, batch_size: int) -> tuple[float, float]:
    """(virtual results/s, wall seconds) for one gateway configuration."""
    rng = np.random.default_rng(17)
    shard_spec = (
        FleetBuilder(np.zeros(GRADIENT_DIM))
        .algorithm("fedavg", learning_rate=0.01)
        .slo(3.0)
        .spec()
    )
    gateway = Gateway.from_spec(
        num_shards,
        shard_spec,
        GatewayConfig(batch_size=batch_size, batch_deadline_s=1e9, sync_every_s=1e9),
        cost_model=AggregationCostModel(per_flush_s=0.05, per_result_s=0.002),
    )
    features = _features()
    start_wall = time.perf_counter()
    for i in range(THROUGHPUT_RESULTS):
        result = TaskResult(
            worker_id=i % 128,
            device_model="Galaxy S7",
            features=features,
            pull_step=0,
            gradient=rng.normal(size=GRADIENT_DIM),
            label_counts=np.ones(10),
            batch_size=8,
            computation_time_s=1.0,
            energy_percent=0.01,
        )
        # All results land within 0.16 virtual seconds: far beyond any
        # lane's capacity, so the denominator is pure service time.
        gateway.handle_result(result, now=i * 1e-4)
    gateway.finalize(now=THROUGHPUT_RESULTS * 1e-4)
    wall_s = time.perf_counter() - start_wall
    return gateway.virtual_throughput(), wall_s


def test_ext_gateway_throughput_scaling(benchmark, report):
    def _run():
        by_shards = {
            n: _drive_saturated(n, batch_size=8) for n in SHARD_COUNTS
        }
        by_batch = {
            b: _drive_saturated(4, batch_size=b) for b in BATCH_SIZES
        }
        return by_shards, by_batch

    by_shards, by_batch = benchmark.pedantic(_run, rounds=1, iterations=1)

    shard_tp = [by_shards[n][0] for n in SHARD_COUNTS]
    batch_tp = [by_batch[b][0] for b in BATCH_SIZES]
    report(
        "",
        "Extension — sharded gateway: serving-tier throughput "
        f"({THROUGHPUT_RESULTS} results, saturating arrivals)",
        f"  shards {list(SHARD_COUNTS)} @ batch 8: "
        f"{fmt_series(shard_tp, 0)} results/s virtual",
        f"  wall clock per config: "
        f"{fmt_series([by_shards[n][1] for n in SHARD_COUNTS], 2)} s",
        f"  batch size {list(BATCH_SIZES)} @ 4 shards: "
        f"{fmt_series(batch_tp, 0)} results/s virtual",
    )

    # Acceptance: monotonic throughput growth from 1 to 4 shards with
    # batching enabled (8 reported for the curve's shape).
    assert shard_tp[0] < shard_tp[1] < shard_tp[2]
    assert shard_tp[3] > shard_tp[2]
    # Micro-batching amortizes the per-flush cost at fixed shard count.
    assert batch_tp[0] < batch_tp[1] < batch_tp[2]


# ----------------------------------------------------------------------
# Convergence through the full middleware loop
# ----------------------------------------------------------------------
def _run_fleet_through_gateway(num_shards: int, batch_size: int):
    rng = np.random.default_rng(23)
    dataset = make_mnist_like(train_per_class=150, test_per_class=25)
    partition = iid_split(dataset.train_y, NUM_USERS, rng)
    training = [
        SimulatedDevice(spec, np.random.default_rng(60 + i))
        for i, spec in enumerate(fleet_specs(5, np.random.default_rng(6)))
    ]
    xs, ys = collect_offline_dataset(training, slo_seconds=3.0, kind="time")
    model = build_logistic(np.random.default_rng(1), 28 * 28, 10)

    shard_spec = (
        FleetBuilder(model.get_parameters(), num_labels=10)
        .algorithm("adasgd", learning_rate=0.02, initial_tau_thres=12.0)
        .pretrained_profiler(xs, ys)
        .slo(3.0)
        .spec()
    )
    gateway = Gateway.from_spec(
        num_shards, shard_spec,
        GatewayConfig(batch_size=batch_size, batch_deadline_s=30.0,
                      sync_every_s=300.0),
        cost_model=AggregationCostModel(),
    )
    simulation = FleetSimulation(
        server=gateway, model=model, dataset=dataset, partition=partition,
        rng=rng,
        config=FleetSimConfig(horizon_s=HORIZON_S, mean_think_time_s=12.0,
                              eval_every_updates=200),
    )
    result = simulation.run()
    return result, gateway


def test_ext_gateway_batched_convergence(benchmark, report):
    def _run():
        accuracy_by_shards = {}
        for n in CONVERGENCE_SHARDS:
            result, gateway = _run_fleet_through_gateway(n, batch_size=4)
            accuracy_by_shards[n] = (result.final_accuracy(), gateway)
        unbatched_result, unbatched_gw = _run_fleet_through_gateway(1, batch_size=1)
        batched_result, batched_gw = _run_fleet_through_gateway(1, batch_size=8)
        return accuracy_by_shards, (unbatched_result, unbatched_gw), (
            batched_result, batched_gw,
        )

    accuracy_by_shards, unbatched, batched = benchmark.pedantic(
        _run, rounds=1, iterations=1
    )
    unbatched_result, unbatched_gw = unbatched
    batched_result, batched_gw = batched

    accuracies = [accuracy_by_shards[n][0] for n in CONVERGENCE_SHARDS]
    report(
        "",
        "Extension — sharded gateway: convergence on synthetic images "
        f"({NUM_USERS} users, {HORIZON_S / 60:.0f} min virtual)",
        f"  final accuracy by shards {list(CONVERGENCE_SHARDS)} @ batch 4: "
        f"{fmt_series(accuracies)}",
        f"  1 shard batched (8) vs unbatched: "
        f"{batched_result.final_accuracy():.3f} vs "
        f"{unbatched_result.final_accuracy():.3f} "
        f"({batched_gw.clock} vs {unbatched_gw.clock} aggregation passes)",
        f"  upload compression through the batcher: "
        f"{batched_gw.batcher.compression_ratio():.1f}x",
    )

    # Sharding the serving tier must not break learning.
    assert all(accuracy > 0.9 for accuracy in accuracies)
    # Acceptance: batched aggregation matches unbatched final accuracy
    # within 1 % while using ~1/8 the aggregation passes.
    assert abs(
        batched_result.final_accuracy() - unbatched_result.final_accuracy()
    ) <= 0.01
    assert batched_gw.clock < unbatched_gw.clock / 4
    # Both tiers absorbed the same completed-task stream.
    assert batched_result.completed == batched_gw.results_applied
