#!/usr/bin/env python3
"""Elastic serving runtime: the tier sizes itself from a diurnal load.

A fleet's request rate is not flat — it follows its users' day.  This
example drives the gateway with a bursty diurnal arrival pattern (two
compressed "days" of a sinusoidal rate with an evening peak 8× the
night-time trough) and lets the elasticity controller do the sizing:
flushed micro-batches execute on per-shard worker lanes behind bounded
queues, and the controller watches occupancy, backlog and shed rate over
a sliding window, growing the tier into the peak and shrinking it back
overnight.  The admission token bucket is re-tuned on every scaling
event, so what the tier promises tracks what it can absorb.

Run:  PYTHONPATH=src python -m examples.elastic_runtime
"""

from __future__ import annotations

import numpy as np

from repro.api import ElasticityPolicy, FleetBuilder
from repro.devices.device import DeviceFeatures
from repro.gateway import Gateway, GatewayConfig
from repro.runtime import AggregationCostModel
from repro.server.protocol import TaskAssignment, TaskRequest, TaskResult

GRADIENT_DIM = 128
DAY_S = 240.0  # one compressed "day" of virtual time
NUM_DAYS = 2
TROUGH_RATE = 4.0  # arrivals/s at night
PEAK_RATE = 32.0  # arrivals/s at the evening peak
RATE_PER_SHARD = 8.0  # admitted requests/s one shard's bucket share buys


def diurnal_rate(t: float) -> float:
    """Sinusoidal arrivals/s with the peak late in each compressed day."""
    phase = 2.0 * np.pi * (t % DAY_S) / DAY_S
    level = 0.5 * (1.0 - np.cos(phase))  # 0 at midnight, 1 at mid-day
    return TROUGH_RATE + (PEAK_RATE - TROUGH_RATE) * level**2


def build_gateway() -> Gateway:
    spec = (
        FleetBuilder(np.zeros(GRADIENT_DIM))
        .algorithm("fedavg", learning_rate=0.01)
        .slo(3.0)
        .runtime(
            mode="async",
            queue_capacity=32,
            autoscale=ElasticityPolicy(
                min_shards=1,
                max_shards=8,
                window_s=10.0,
                cooldown_s=10.0,
                admission_rate_per_shard=RATE_PER_SHARD,
            ),
        )
        .spec()
    )
    return Gateway.from_spec(
        1,
        spec,
        GatewayConfig(
            batch_size=8,
            batch_deadline_s=1.0,
            sync_every_s=1e9,
            admission_rate_per_s=RATE_PER_SHARD,
        ),
        # One aggregation pass: 0.15s fixed + 10ms per gradient — a lane
        # saturates near 35 results/s, so the peak needs several shards.
        cost_model=AggregationCostModel(per_flush_s=0.15, per_result_s=0.01),
    )


def main() -> None:
    gateway = build_gateway()
    features = DeviceFeatures(
        available_memory_mb=1024.0,
        total_memory_mb=3072.0,
        temperature_c=30.0,
        sum_max_freq_ghz=8.0,
        energy_per_cpu_second=2e-4,
    )
    rng = np.random.default_rng(5)
    gradient = rng.normal(size=GRADIENT_DIM)
    label_counts = np.ones(10)

    now, arrivals = 0.0, 0
    horizon = NUM_DAYS * DAY_S
    shard_curve: list[tuple[float, int]] = []
    while now < horizon:
        request = TaskRequest(
            worker_id=arrivals % 256,
            device_model="Galaxy S7",
            features=features,
            label_counts=label_counts,
        )
        response = gateway.handle_request(request, now=now)
        if isinstance(response, TaskAssignment):
            gateway.handle_result(
                TaskResult(
                    worker_id=request.worker_id,
                    device_model="Galaxy S7",
                    features=features,
                    pull_step=response.pull_step,
                    gradient=gradient,
                    label_counts=label_counts,
                    batch_size=8,
                    computation_time_s=1.0,
                    energy_percent=0.01,
                ),
                now=now,
            )
        if not shard_curve or shard_curve[-1][1] != gateway.num_shards:
            shard_curve.append((now, gateway.num_shards))
        arrivals += 1
        now += 1.0 / diurnal_rate(now)
    gateway.finalize(now=horizon)

    autoscaler = gateway.autoscaler
    print(
        f"{NUM_DAYS} diurnal days ({horizon:.0f}s virtual), "
        f"{arrivals} arrivals between {TROUGH_RATE:.0f}/s and "
        f"{PEAK_RATE:.0f}/s:"
    )
    print(
        f"  delivered {gateway.results_applied} results "
        f"({gateway.virtual_throughput():.1f}/s virtual), "
        f"{gateway.requests_shed()} shed at admission, "
        f"{gateway.runtime.rejected_results} shed by full lanes"
    )
    print("  tier size over time: " + " -> ".join(
        f"{n}@{t:.0f}s" for t, n in shard_curve
    ))
    print(f"\nscaling-event timeline ({len(autoscaler.events)} events):")
    print(autoscaler.timeline())


if __name__ == "__main__":
    main()
