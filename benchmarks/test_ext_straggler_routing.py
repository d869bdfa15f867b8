"""Extension bench — deadline-aware routing vs pure consistent hashing.

A heterogeneous fleet (fast phones plus an old-device cohort ~1500×
slower per sample) drives the sharded gateway through the full
request→assignment→result protocol on the virtual clock.  Identity
(hash) routing drops each slow device on whatever shard its id hashes
to; the shard's clock races ahead during the straggler's long round
trip, so its gradients apply with deep staleness — and the hash also
concentrates fast traffic unevenly, so stragglers landing on the hot
shard form the tier's staleness tail.

With ``--routing deadline`` semantics (:class:`DeadlineAwareRouter`),
I-Prof's per-device deadline prediction — annotated on every
``TaskAssignment`` by the shard and fed back by the gateway — flags the
slow cohort after its first assignment, and each straggler is steered to
the least-loaded of its two candidate shards.  Same arrival timeline,
same gradients, same shards; only placement differs:

* p95 of the tier-wide applied-staleness distribution drops (the tail
  IS the stragglers, and they no longer sit behind the hot shard's
  clock);
* the worst applied staleness drops;
* fast devices stay on their hash homes (the router's steered set is
  exactly the slow cohort).

Set ``BENCH_FULL=1`` for the paper-size configuration.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.api import FleetBuilder, RoutingSpec, RuntimeSpec
from repro.devices.device import DeviceFeatures
from repro.gateway import Gateway, GatewayConfig
from repro.runtime import AggregationCostModel
from repro.server.protocol import TaskAssignment, TaskRequest, TaskResult

from conftest import BENCH_FULL, fmt_series

GRADIENT_DIM = 128 if BENCH_FULL else 32
SHARDS = 3
HORIZON_S = 900.0 if BENCH_FULL else 300.0
SLO_S = 1.0
NETWORK_S = 0.5
FAST_THINK_S = 1.0
SLOW_THINK_S = 4.0
# Slopes in seconds/sample: a fast phone computes a 100-sample task in
# ~1 s; an old device takes 15 s for a single sample, so its predicted
# time (and its measured round trip) blows through the 1 s SLO deadline.
FAST_SLOPE = 0.01
SLOW_SLOPE = 15.0
FAST_WORKERS = list(range(32 if BENCH_FULL else 16))
# Half the fleet is the old-device cohort (the paper's motivation: real
# fleets skew old).  The id ranges are arbitrary but fixed; their hash
# homes concentrate on the fast-heavy shard, which is exactly the
# pathology identity routing cannot see.
SLOW_WORKERS = list(range(1352, 1384) if BENCH_FULL else range(1016, 1032))
COST = AggregationCostModel(per_flush_s=0.2, per_result_s=0.01)

FAST_FEATURES = DeviceFeatures(
    available_memory_mb=2048.0,
    total_memory_mb=4096.0,
    temperature_c=30.0,
    sum_max_freq_ghz=8.0,
    energy_per_cpu_second=2e-4,
)
SLOW_FEATURES = DeviceFeatures(
    available_memory_mb=256.0,
    total_memory_mb=1024.0,
    temperature_c=38.0,
    sum_max_freq_ghz=1.2,
    energy_per_cpu_second=8e-4,
)


def _profiler_dataset() -> tuple[np.ndarray, np.ndarray]:
    """Offline (features, slope) pairs covering both device archetypes."""
    rng = np.random.default_rng(7)
    xs, ys = [], []
    for _ in range(16):
        for features, slope in (
            (FAST_FEATURES, FAST_SLOPE),
            (SLOW_FEATURES, SLOW_SLOPE),
        ):
            x = features.as_vector()
            x[0] *= 1.0 + 0.05 * rng.standard_normal()  # condition the fit
            xs.append(x)
            ys.append(slope)
    return np.stack(xs), np.array(ys)


def _gateway(policy: str) -> Gateway:
    xs, ys = _profiler_dataset()
    spec = (
        FleetBuilder(np.zeros(GRADIENT_DIM))
        .algorithm("fedavg", learning_rate=0.01)
        .pretrained_profiler(xs, ys)
        .slo(SLO_S)
        .spec()
    )
    gateway = _build(policy, spec)
    # Warm the per-device-model PA layer of every shard's profiler (one
    # exact observation per archetype): the benchmark measures routing in
    # the steady state of a long-running service, not I-Prof's first-task
    # sizing error, which the 1500× slope spread would otherwise magnify.
    for shard in gateway.shards.values():
        for model_name, features, slope in (
            ("fast-phone", FAST_FEATURES, FAST_SLOPE),
            ("old-device", SLOW_FEATURES, SLOW_SLOPE),
        ):
            shard.profiler.report(
                model_name,
                features.as_vector(),
                batch_size=10,
                computation_time_s=10.0 * slope,
            )
    return gateway


def _build(policy: str, spec) -> Gateway:
    return Gateway.from_spec(
        SHARDS,
        spec,
        GatewayConfig(batch_size=4, batch_deadline_s=4.0, sync_every_s=1e9),
        cost_model=COST,
        runtime=RuntimeSpec(
            mode="async",
            routing=RoutingSpec(
                policy=policy,
                # Fast devices measure ~1.5× the deadline (compute ≈ SLO
                # plus network); only the old cohort (~15×) must steer.
                straggler_factor=3.0,
                min_dwell_s=120.0,
                candidates=2,
                seed=11,
            ),
        ),
    )


def _worker_class(worker_id: int) -> tuple[str, DeviceFeatures, float, float]:
    if worker_id in SLOW_WORKERS:
        return "old-device", SLOW_FEATURES, SLOW_SLOPE, SLOW_THINK_S
    return "fast-phone", FAST_FEATURES, FAST_SLOPE, FAST_THINK_S


def _drive(policy: str) -> dict:
    """One full run: every worker loops request → compute → push."""
    gateway = _gateway(policy)
    rng = np.random.default_rng(23)
    label_counts = np.ones(10)
    heap: list[tuple[float, int, int, TaskResult | None]] = []
    seq = 0
    for index, worker in enumerate(FAST_WORKERS):
        heapq.heappush(heap, (0.17 * index, seq, worker, None))
        seq += 1
    for index, worker in enumerate(SLOW_WORKERS):
        heapq.heappush(heap, (1.0 + 2.3 * index, seq, worker, None))
        seq += 1

    completed = 0
    while heap:
        now, _, worker, payload = heapq.heappop(heap)
        model_name, features, slope, think = _worker_class(worker)
        if payload is not None:
            gateway.handle_result(payload, now=now)
            completed += 1
            if now + think < HORIZON_S:
                heapq.heappush(heap, (now + think, seq, worker, None))
                seq += 1
            continue
        if now >= HORIZON_S:
            continue
        request = TaskRequest(
            worker_id=worker,
            device_model=model_name,
            features=features,
            label_counts=label_counts,
        )
        response = gateway.handle_request(request, now=now)
        if not isinstance(response, TaskAssignment):
            heapq.heappush(heap, (now + think, seq, worker, None))
            seq += 1
            continue
        compute_s = slope * response.batch_size
        result = TaskResult(
            worker_id=worker,
            device_model=model_name,
            features=features,
            pull_step=response.pull_step,
            gradient=rng.normal(size=GRADIENT_DIM),
            label_counts=label_counts,
            batch_size=response.batch_size,
            computation_time_s=compute_s,
            energy_percent=0.01,
        )
        heapq.heappush(heap, (now + NETWORK_S + compute_s, seq, worker, result))
        seq += 1
    gateway.finalize(now=HORIZON_S + 2.0 * (NETWORK_S + SLOW_SLOPE))

    staleness = gateway.applied_staleness()
    per_shard = {
        shard_id: shard.applied_staleness()
        for shard_id, shard in gateway.shards.items()
    }
    return {
        "gateway": gateway,
        "completed": completed,
        "staleness": staleness,
        "per_shard": per_shard,
    }


def test_ext_straggler_routing_cuts_staleness_tail(benchmark, report):
    def _run():
        return _drive("hash"), _drive("deadline")

    hashed, deadline = benchmark.pedantic(_run, rounds=1, iterations=1)

    hash_st, dl_st = hashed["staleness"], deadline["staleness"]
    hash_p95 = float(np.percentile(hash_st, 95))
    dl_p95 = float(np.percentile(dl_st, 95))
    hash_max = float(hash_st.max())
    dl_max = float(dl_st.max())
    router = deadline["gateway"].router

    def shard_tails(run):
        return {
            shard_id: (
                f"n={arr.size} p95={np.percentile(arr, 95):.1f}"
                if arr.size
                else "empty"
            )
            for shard_id, arr in sorted(run["per_shard"].items())
        }

    report(
        "",
        "Extension — straggler-aware routing on a heterogeneous fleet "
        f"({len(FAST_WORKERS)} fast + {len(SLOW_WORKERS)} slow devices, "
        f"{SHARDS} shards, horizon {HORIZON_S:.0f}s)",
        f"  hash routing:     p50/p95/p99/max staleness "
        f"{fmt_series(np.percentile(hash_st, [50, 95, 99]), 1)} / "
        f"{hash_max:.0f}  ({hash_st.size} applied)",
        f"  deadline routing: p50/p95/p99/max staleness "
        f"{fmt_series(np.percentile(dl_st, [50, 95, 99]), 1)} / "
        f"{dl_max:.0f}  ({dl_st.size} applied)",
        f"  p95 cut: {hash_p95:.1f} -> {dl_p95:.1f} "
        f"({1.0 - dl_p95 / hash_p95:.0%}), max cut: "
        f"{hash_max:.0f} -> {dl_max:.0f}",
        f"  router: {router.describe()}",
        f"  per-shard p95 (hash):     {shard_tails(hashed)}",
        f"  per-shard p95 (deadline): {shard_tails(deadline)}",
        f"  shed: hash {hashed['gateway'].requests_shed()}, "
        f"deadline {deadline['gateway'].requests_shed()}",
    )

    # Same workload on both arms (placement perturbs profiler learning
    # and hence batch sizes slightly, so counts match within a hair).
    assert abs(hashed["completed"] - deadline["completed"]) <= (
        0.02 * hashed["completed"]
    )
    # The steered set is exactly the slow cohort — fast devices keep
    # their hash homes (cache/lease affinity preserved).
    assert set(router.steered) == set(SLOW_WORKERS)
    # Acceptance: prediction-driven placement beats identity placement
    # on the staleness tail, with margin.
    assert dl_p95 <= 0.9 * hash_p95
    assert dl_max < hash_max
