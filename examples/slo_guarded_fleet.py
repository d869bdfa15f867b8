#!/usr/bin/env python3
"""SLO-guarded serving: burn-rate alerts feeding alert-driven scale-up.

The elasticity controller's native signals (occupancy, backlog, shed
rate) are *capacity* proxies; the SLO engine watches the *user-facing*
objectives those proxies exist to protect.  This example wires both
together: a fleet runs at a comfortable rate, a load spike arrives, the
upload-latency objective starts burning its error budget, the alert
fires — and because the policy opts in with ``scale_up_on_alert=True``,
the firing alert itself is scale-up pressure.  The tier grows, latency
recovers, the alert resolves.

Everything runs on the virtual clock, so the fire/resolve sequence is
bit-identical on every run: alerting here is a deterministic output of
the discrete-event simulation, not a flaky side channel.

Run:  PYTHONPATH=src python -m examples.slo_guarded_fleet
"""

from __future__ import annotations

import numpy as np

from repro.api import ElasticityPolicy, FleetBuilder
from repro.devices.device import DeviceFeatures
from repro.gateway import Gateway, GatewayConfig
from repro.observability import SLOSpec, alert_timeline
from repro.runtime import AggregationCostModel
from repro.server.protocol import TaskAssignment, TaskRequest, TaskResult

GRADIENT_DIM = 128
HORIZON_S = 360.0
SPIKE_START_S = 120.0
SPIKE_END_S = 240.0
BASE_RATE = 6.0  # arrivals/s outside the spike
SPIKE_RATE = 40.0  # arrivals/s during the spike
RATE_PER_SHARD = 12.0


def arrival_rate(t: float) -> float:
    return SPIKE_RATE if SPIKE_START_S <= t < SPIKE_END_S else BASE_RATE


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
                max_shards=6,
                window_s=10.0,
                cooldown_s=10.0,
                admission_rate_per_shard=RATE_PER_SHARD,
                # The point of the example: a firing SLO alert is
                # treated as scale-up pressure alongside the queue
                # signals.
                scale_up_on_alert=True,
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
        # A lane saturates near 35 results/s — the spike needs shards.
        cost_model=AggregationCostModel(per_flush_s=0.15, per_result_s=0.01),
        # Tight windows so a six-minute demo exercises the full
        # fire -> scale -> recover -> resolve arc; production-shaped
        # defaults (5 min / 1 h) live on SLOSpec itself.
        slo=SLOSpec(
            latency_bound_s=2.0,
            fast_window_s=20.0,
            slow_window_s=80.0,
            evaluate_every_s=1.0,
        ),
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
    while now < HORIZON_S:
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
        arrivals += 1
        now += 1.0 / arrival_rate(now)
    gateway.finalize(now=HORIZON_S)

    engine = gateway.slo_engine
    print(
        f"{HORIZON_S:.0f}s virtual with a {SPIKE_RATE:.0f}/s spike at "
        f"t={SPIKE_START_S:.0f}..{SPIKE_END_S:.0f}s ({arrivals} arrivals):"
    )
    print(
        f"  delivered {gateway.results_applied} results, "
        f"{gateway.requests_shed()} shed, "
        f"{gateway.num_shards} shards at end"
    )
    print()
    print(engine.report())
    print()
    print(alert_timeline(gateway.journal.to_dicts()))
    print()
    print(f"scaling-event timeline ({len(gateway.autoscaler.events)} events):")
    print(gateway.autoscaler.timeline())
    health = gateway.health_snapshot()
    print()
    print(
        f"health: {health['status']} — {health['num_shards']} shards, "
        f"active alerts: {health['active_alerts'] or 'none'}"
    )


if __name__ == "__main__":
    main()
