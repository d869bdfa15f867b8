#!/usr/bin/env python3
"""Sharded serving gateway: one endpoint, N FleetServer shards.

A single ``FleetServer`` serializes every gradient through one aggregation
loop.  The gateway decouples the device-facing endpoint from the
aggregation core: a consistent-hash ring routes each device to one of N
shards, gradients are codec-encoded and coalesced into per-shard
micro-batches (one aggregation step per batch), a token bucket sheds
traffic the tier cannot absorb, and a periodic weighted parameter average
keeps the shard models from drifting apart.

This example runs the same fleet workload through 1, 2 and 4 shards and
shows that the learned accuracy stays put while the tier scales out.  At
this (healthy) load the handled-results rate is arrival-limited, so the
throughput column moves only slightly; the saturated scaling curve — where
shard count sets the ceiling — is measured by
``benchmarks/test_ext_gateway_scaling.py``.

Run:  PYTHONPATH=src python -m examples.sharded_gateway
"""

from __future__ import annotations

import numpy as np

from repro.api import FleetBuilder
from repro.data import iid_split, make_mnist_like
from repro.devices import SimulatedDevice, fleet_specs
from repro.gateway import Gateway, GatewayConfig
from repro.nn import build_logistic
from repro.profiler import collect_offline_dataset
from repro.runtime import AggregationCostModel
from repro.simulation import FleetSimConfig, FleetSimulation


def run_with_shards(num_shards: int, batch_size: int) -> tuple[float, float, Gateway]:
    rng = np.random.default_rng(3)
    dataset = make_mnist_like(train_per_class=200, test_per_class=25)
    partition = iid_split(dataset.train_y, 24, rng)

    training_fleet = [
        SimulatedDevice(spec, np.random.default_rng(50 + i))
        for i, spec in enumerate(fleet_specs(6, np.random.default_rng(5)))
    ]
    xs, ys = collect_offline_dataset(training_fleet, slo_seconds=3.0, kind="time")
    model = build_logistic(np.random.default_rng(1), 28 * 28, 10)

    # One frozen ServerSpec stamps out every shard: fresh optimizer,
    # profiler and stage instances per shard, identical configuration.
    shard_spec = (
        FleetBuilder(model.get_parameters(), num_labels=10)
        .algorithm("adasgd", learning_rate=0.02, initial_tau_thres=12.0)
        .pretrained_profiler(xs, ys)
        .slo(3.0)
        .spec()
    )

    gateway = Gateway.from_spec(
        num_shards,
        shard_spec,
        GatewayConfig(
            batch_size=batch_size,
            batch_deadline_s=30.0,
            sync_every_s=300.0,
        ),
        cost_model=AggregationCostModel(per_flush_s=0.05, per_result_s=0.002),
    )
    simulation = FleetSimulation(
        server=gateway, model=model, dataset=dataset, partition=partition,
        rng=rng,
        config=FleetSimConfig(horizon_s=1800.0, mean_think_time_s=10.0),
    )
    result = simulation.run()
    return result.final_accuracy(), gateway.virtual_throughput(), gateway


def main() -> None:
    batch_size = 4
    print("same fleet workload through 1, 2 and 4 shards "
          f"(micro-batch size {batch_size}):\n")
    print(f"{'shards':>6} {'accuracy':>9} {'results/s':>10} {'updates':>8} "
          f"{'syncs':>6} {'compression':>12}")
    for num_shards in (1, 2, 4):
        accuracy, throughput, gateway = run_with_shards(num_shards, batch_size)
        syncs = len(gateway.synchronizer.history)
        print(f"{num_shards:>6} {accuracy:>9.3f} {throughput:>10.2f} "
              f"{gateway.clock:>8} {syncs:>6} "
              f"{gateway.batcher.compression_ratio():>11.1f}x")

    print("\nper-shard breakdown of the 4-shard run:")
    print(gateway.report())


if __name__ == "__main__":
    main()
