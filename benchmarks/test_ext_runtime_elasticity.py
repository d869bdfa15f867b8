"""Extension bench — the elastic serving runtime sizes itself from load.

Two claims, measured on the virtual clock:

* **elasticity** — under a 4× load step, a gateway that starts at ONE
  shard and autoscales from queue signals (shed rate, occupancy, backlog)
  reaches ≥ 80 % of the throughput of the best manually-sized static
  tier, while shedding strictly fewer requests than the 1-shard static
  baseline — nobody had to guess the shard count in advance;
* **determinism** — the async runtime with a single worker lane on the
  virtual clock reproduces the synchronous gateway bit for bit
  (parameters, applied log, rejection counts), so the runtime adds
  concurrency structure without forking the math.

Set ``BENCH_FULL=1`` for the paper-size configuration.
"""

from __future__ import annotations

import numpy as np

from repro.api import ElasticityPolicy, FleetBuilder, RuntimeSpec
from repro.devices.device import DeviceFeatures
from repro.gateway import Gateway, GatewayConfig
from repro.runtime import AggregationCostModel
from repro.server.protocol import TaskAssignment, TaskRequest, TaskResult

from conftest import BENCH_FULL, fmt_series

GRADIENT_DIM = 256 if BENCH_FULL else 64
STATIC_SHARDS = (1, 2, 4, 8)
MAX_SHARDS = 8
RATE_PER_SHARD = 12.0  # admitted requests/s each shard's bucket share buys
# Arrival phases: warm-up, 4× load step, cool-down (rate/s, duration s).
PHASES = (
    ((20.0, 40.0), (80.0, 80.0), (4.0, 30.0))
    if BENCH_FULL
    else ((20.0, 20.0), (80.0, 40.0), (4.0, 20.0))
)
# One aggregation pass costs 0.2s + 0.01s per gradient: a lane saturates
# near 28 results/s at batch 8, so shard count genuinely bounds capacity.
COST = AggregationCostModel(per_flush_s=0.2, per_result_s=0.01)
POLICY = ElasticityPolicy(
    min_shards=1,
    max_shards=MAX_SHARDS,
    window_s=5.0,
    cooldown_s=5.0,
    admission_rate_per_shard=RATE_PER_SHARD,
    scale_up_factor=2.0,
)


def _features() -> DeviceFeatures:
    return DeviceFeatures(
        available_memory_mb=1024.0,
        total_memory_mb=3072.0,
        temperature_c=30.0,
        sum_max_freq_ghz=8.0,
        energy_per_cpu_second=2e-4,
    )


def _spec():
    return (
        FleetBuilder(np.zeros(GRADIENT_DIM))
        .algorithm("fedavg", learning_rate=0.01)
        .slo(3.0)
        .spec()
    )


def _gateway(num_shards: int, autoscale: bool) -> Gateway:
    return Gateway.from_spec(
        num_shards,
        _spec(),
        GatewayConfig(
            batch_size=8,
            batch_deadline_s=0.5,
            sync_every_s=1e9,
            admission_rate_per_s=RATE_PER_SHARD * num_shards,
        ),
        cost_model=COST,
        runtime=RuntimeSpec(
            mode="async",
            queue_capacity=64,
            autoscale=POLICY if autoscale else None,
        ),
    )


def _drive_load_step(gateway: Gateway) -> dict:
    """Deterministic arrivals through the full request→result protocol."""
    rng = np.random.default_rng(29)
    gradient = rng.normal(size=GRADIENT_DIM)  # content is irrelevant here
    features = _features()
    label_counts = np.ones(10)
    now = 0.0
    arrivals = 0
    for rate, duration in PHASES:
        end = now + duration
        step = 1.0 / rate
        while now < end:
            request = TaskRequest(
                worker_id=arrivals % 128,
                device_model="Galaxy S7",
                features=features,
                label_counts=label_counts,
            )
            response = gateway.handle_request(request, now=now)
            if isinstance(response, TaskAssignment):
                result = TaskResult(
                    worker_id=request.worker_id,
                    device_model="Galaxy S7",
                    features=features,
                    pull_step=response.pull_step,
                    gradient=gradient,
                    label_counts=label_counts,
                    batch_size=8,
                    computation_time_s=1.0,
                    energy_percent=0.01,
                )
                gateway.handle_result(result, now=now)
            arrivals += 1
            now += step
    gateway.finalize(now=now)
    return {
        "arrivals": arrivals,
        "throughput": gateway.virtual_throughput(),
        "shed": gateway.requests_shed(),
        "delivered": gateway.results_applied,
        "shards": gateway.num_shards,
        "gateway": gateway,
    }


def test_ext_runtime_elasticity_load_step(benchmark, report):
    def _run():
        static = {n: _drive_load_step(_gateway(n, autoscale=False))
                  for n in STATIC_SHARDS}
        elastic = _drive_load_step(_gateway(1, autoscale=True))
        return static, elastic

    static, elastic = benchmark.pedantic(_run, rounds=1, iterations=1)

    static_tp = [static[n]["throughput"] for n in STATIC_SHARDS]
    best_static = max(static_tp)
    autoscaler = elastic["gateway"].autoscaler
    adds = sum(1 for e in autoscaler.events if e.action == "add")
    removes = sum(1 for e in autoscaler.events if e.action == "remove")
    report(
        "",
        "Extension — elastic serving runtime under a 4× load step "
        f"({elastic['arrivals']} arrivals, phases {PHASES})",
        f"  static shards {list(STATIC_SHARDS)}: "
        f"{fmt_series(static_tp, 1)} results/s virtual",
        f"  static sheds: {fmt_series([static[n]['shed'] for n in STATIC_SHARDS], 0)}",
        f"  autoscaled (start 1, max {MAX_SHARDS}): "
        f"{elastic['throughput']:.1f} results/s "
        f"({elastic['throughput'] / best_static:.0%} of best static), "
        f"{elastic['shed']} shed, "
        f"{elastic['shards']} shards at end (+{adds}/-{removes} events)",
        "  scaling timeline:",
        *(f"    {event.describe()}" for event in autoscaler.events),
    )

    # Static capacity must actually be the bottleneck being scaled away.
    assert static_tp[0] < static_tp[-1]
    # Acceptance: the autoscaled tier is competitive with the best static
    # sizing nobody has to know in advance...
    assert elastic["throughput"] >= 0.8 * best_static
    # ...and sheds strictly fewer requests than the undersized baseline.
    assert elastic["shed"] < static[1]["shed"]
    # It grew under the load step (and shrank again in the cool-down).
    assert adds >= 2
    assert removes >= 1
    assert elastic["shards"] < MAX_SHARDS


def test_ext_runtime_single_worker_determinism(benchmark, report):
    """Async(virtual, one worker) ≡ sync, bit for bit, same traffic."""

    def drive(runtime):
        gateway = Gateway.from_spec(
            2,
            _spec(),
            GatewayConfig(batch_size=4, batch_deadline_s=2.0, sync_every_s=30.0),
            runtime=runtime,
        )
        rng = np.random.default_rng(41)
        features = _features()
        for i in range(400 if BENCH_FULL else 150):
            result = TaskResult(
                worker_id=i % 32,
                device_model="Galaxy S7",
                features=features,
                pull_step=0,
                gradient=rng.normal(size=GRADIENT_DIM),
                label_counts=np.ones(10),
                batch_size=8,
                computation_time_s=1.0,
                energy_percent=0.01,
            )
            gateway.handle_result(result, now=i * 0.3)
        gateway.finalize(now=1e9)
        return gateway

    def _run():
        return drive(None), drive(RuntimeSpec(mode="async"))

    sync, asynchronous = benchmark.pedantic(_run, rounds=1, iterations=1)

    assert sync.clock == asynchronous.clock
    assert sync.results_applied == asynchronous.results_applied
    assert np.array_equal(
        sync.current_parameters(), asynchronous.current_parameters()
    )
    for shard_id in sync.shards:
        a, b = sync.shards[shard_id], asynchronous.shards[shard_id]
        assert np.array_equal(a.current_parameters(), b.current_parameters())
        assert a.optimizer.rejected_count == b.optimizer.rejected_count
        assert np.array_equal(
            a.optimizer.applied.weights(), b.optimizer.applied.weights()
        )
        assert np.array_equal(
            a.optimizer.applied.staleness(), b.optimizer.applied.staleness()
        )
    report(
        "",
        "Extension — runtime determinism: async(virtual, 1 worker) vs sync",
        f"  {sync.clock} model updates, {sync.results_applied} results: "
        "parameters, applied log and rejection counts bit-identical",
    )
