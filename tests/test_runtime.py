"""Tests for the elastic async serving runtime and its satellites.

Covers: the determinism contract (single-worker async on the virtual
clock is bit-identical to the synchronous gateway across all four
algorithm presets), bounded-queue shedding, lane-job errors surfacing on
the caller's thread, the elasticity controller's scale-up/-down
decisions and admission retuning, ``TokenBucket.set_rate``, and the
windowed ``AppliedLog`` with reservoir tail.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.api import ElasticityPolicy, FleetBuilder, RuntimeSpec
from repro.core.adasgd import AppliedLog, AppliedUpdate
from repro.devices.device import DeviceFeatures
from repro.durability import DurabilitySpec
from repro.gateway import Gateway, GatewayConfig, TokenBucket
from repro.runtime import AggregationCostModel
from repro.server.protocol import TaskAssignment, TaskRequest, TaskResult
from repro.server.stages import ResultStage


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
        label_counts=np.ones(10),
        batch_size=8,
        computation_time_s=1.0,
        energy_percent=0.01,
    )


def _spec(algorithm: str, dim: int = 32):
    builder = FleetBuilder(np.zeros(dim), num_labels=10).slo(3.0)
    if algorithm == "adasgd":
        builder.algorithm("adasgd", learning_rate=0.05, initial_tau_thres=12.0)
    else:
        builder.algorithm(algorithm, learning_rate=0.05)
    return builder.spec()


# ----------------------------------------------------------------------
# Determinism: async(virtual, 1 worker) ≡ sync, bit for bit
# ----------------------------------------------------------------------
@pytest.mark.parametrize("algorithm", ["adasgd", "dynsgd", "fedavg", "ssgd"])
def test_async_virtual_matches_sync_bit_for_bit(algorithm):
    def drive(runtime):
        gateway = Gateway.from_spec(
            2,
            _spec(algorithm),
            GatewayConfig(batch_size=4, batch_deadline_s=3.0, sync_every_s=40.0),
            runtime=runtime,
        )
        rng = np.random.default_rng(11)
        for i in range(160):
            pull = 0 if algorithm == "ssgd" else max(0, (i % 7) - 3)
            gradient = rng.normal(size=32)
            if i % 50 == 49:  # exercise the NaN-rejection path identically
                gradient = gradient.copy()
                gradient[0] = np.nan
            gateway.handle_result(_result(i % 24, gradient, pull), now=i * 0.7)
        gateway.finalize(now=160 * 0.7)
        return gateway

    default = drive(None)
    assert default.runtime.spec.mode == "sync"
    for other in (
        drive(RuntimeSpec(mode="sync")),
        drive(RuntimeSpec(mode="async")),
    ):
        assert default.clock == other.clock
        assert default.results_applied == other.results_applied
        assert default.journal.to_dicts() == other.journal.to_dicts()
        assert np.array_equal(
            default.current_parameters(), other.current_parameters()
        )
        for shard_id in default.shards:
            a = default.shards[shard_id].optimizer
            b = other.shards[shard_id].optimizer
            assert np.array_equal(a.current_parameters(), b.current_parameters())
            assert a.rejected_count == b.rejected_count
            for column in (
                "weights", "staleness", "similarity", "dampening", "steps"
            ):
                assert np.array_equal(
                    getattr(a.applied, column)(), getattr(b.applied, column)()
                ), (shard_id, column)


# ----------------------------------------------------------------------
# Bounded lanes: a full queue sheds, and the drop is counted
# ----------------------------------------------------------------------
def test_full_lane_rejects_batches():
    gateway = Gateway.from_spec(
        1,
        _spec("fedavg"),
        GatewayConfig(batch_size=4, batch_deadline_s=1e9, sync_every_s=1e9),
        cost_model=AggregationCostModel(per_flush_s=10.0, per_result_s=0.0),
        runtime=RuntimeSpec(mode="async", queue_capacity=2),
    )
    rng = np.random.default_rng(0)
    # 6 batches all arriving at t=0: service is 10s each, so the lane
    # model has every prior batch still unfinished — capacity 2 admits
    # the first two, the rest are shed.
    for i in range(24):
        gateway.handle_result(_result(i, rng.normal(size=32)), now=0.0)
    runtime = gateway.runtime
    assert runtime.rejected_batches == 4
    assert runtime.rejected_results == 16
    assert gateway.results_applied == 8
    # The lane model drains with virtual time: past the backlog, new
    # batches are admitted again.
    for i in range(4):
        gateway.handle_result(_result(100 + i, rng.normal(size=32)), now=100.0)
    assert runtime.rejected_batches == 4
    assert gateway.results_applied == 12


def test_sync_lane_never_sheds_and_has_no_queue_signal():
    def drive(mode):
        gateway = Gateway.from_spec(
            1,
            _spec("fedavg"),
            GatewayConfig(batch_size=4, batch_deadline_s=1e9, sync_every_s=1e9),
            cost_model=AggregationCostModel(per_flush_s=10.0, per_result_s=0.0),
            runtime=RuntimeSpec(mode=mode, queue_capacity=2),
        )
        rng = np.random.default_rng(0)
        # 6 batches at t=0 against 10s of service each: a virtual backlog
        # three times deeper than queue_capacity.
        for i in range(24):
            gateway.handle_result(_result(i, rng.normal(size=32)), now=0.0)
        return gateway

    sync = drive("sync")
    assert sync.max_backlog_s(0.0) == pytest.approx(60.0)
    assert sync.runtime.backlog_s("shard-0", 0.0) == pytest.approx(60.0)
    assert sync.runtime.rejected_batches == 0
    assert sync.runtime.max_queue_depth(0.0) == 0
    assert sync.results_applied == sync.results_received() == 24

    asynchronous = drive("async")
    assert asynchronous.runtime.rejected_batches == 4
    assert asynchronous.results_applied == 8


@pytest.mark.parametrize(
    "runtime",
    [RuntimeSpec(mode="sync"), RuntimeSpec(mode="async")],
    ids=["sync", "async-virtual"],
)
def test_every_delivered_batch_goes_through_a_runtime_lane(runtime, tmp_path):
    gateway = Gateway.from_spec(
        3,
        _spec("fedavg"),
        GatewayConfig(batch_size=4, batch_deadline_s=1e9, sync_every_s=1e9),
        cost_model=AggregationCostModel(per_flush_s=0.5, per_result_s=0.01),
        runtime=runtime,
        durability=DurabilitySpec(root_dir=tmp_path / "dur", auto_failover=False),
    )
    runtime_batches = gateway.metrics.counter("runtime.batches")
    gateway_batches = gateway.metrics.counter("gateway.batches")
    rng = np.random.default_rng(4)
    for i in range(30):
        gateway.handle_result(_result(i, rng.normal(size=32)), now=0.1 * i)
    victim, leaver = sorted(gateway.shards)[:2]
    gateway.crash_shard(victim, now=4.0)
    # Results for the crashed shard are parked, then redelivered at failover.
    parked = [w for w in range(100, 160) if gateway.shard_for(w) == victim]
    for worker in parked:
        gateway.handle_result(_result(worker, rng.normal(size=32)), now=5.0)
    gateway.failover(victim, now=6.0)
    done = [e for e in gateway.journal.events if e.kind == "failover_done"]
    assert done[0].redelivered_results >= len(parked) > 0
    assert runtime_batches.value == gateway_batches.value

    assert gateway.batcher.pending(leaver) > 0
    gateway.remove_shard(leaver, now=7.0)
    assert runtime_batches.value == gateway_batches.value


def test_queue_depth_decays_with_virtual_time():
    gateway = Gateway.from_spec(
        1,
        _spec("fedavg"),
        GatewayConfig(batch_size=2, batch_deadline_s=1e9, sync_every_s=1e9),
        cost_model=AggregationCostModel(per_flush_s=1.0, per_result_s=0.0),
        runtime=RuntimeSpec(mode="async", queue_capacity=64),
    )
    rng = np.random.default_rng(0)
    for i in range(8):
        gateway.handle_result(_result(i, rng.normal(size=32)), now=0.0)
    runtime = gateway.runtime
    # Depth/backlog queries follow virtual time monotonically (pruning a
    # lane's finished batches is destructive, like time itself).
    assert runtime.queue_depth("shard-0", 0.0) == 4
    assert runtime.backlog_s("shard-0", 1.0) == pytest.approx(3.0)
    assert runtime.queue_depth("shard-0", 2.5) == 2
    assert runtime.queue_depth("shard-0", 10.0) == 0
    assert runtime.backlog_s("shard-0", 10.0) == 0.0


# ----------------------------------------------------------------------
# Lane jobs run on the caller's thread: their errors reach the caller
# ----------------------------------------------------------------------
class _FailingStage(ResultStage):
    name = "failing"

    def __init__(self) -> None:
        self.armed = True
        self.error = RuntimeError("stage on_batch failed")
        self.threads: set[int] = set()

    def on_batch(self, updates, server):
        self.threads.add(threading.get_ident())
        if self.armed:
            raise self.error
        return updates


@pytest.mark.parametrize(
    "runtime", [RuntimeSpec(mode="sync"), RuntimeSpec(mode="async")], ids=["sync", "async"]
)
def test_lane_job_errors_surface_on_the_callers_thread(runtime):
    stage = _FailingStage()
    spec = (
        FleetBuilder(np.zeros(32), num_labels=10)
        .algorithm("fedavg", learning_rate=0.05)
        .result_stage(stage)
        .spec()
    )
    gateway = Gateway.from_spec(
        1,
        spec,
        GatewayConfig(batch_size=4, batch_deadline_s=1e9, sync_every_s=1e9),
        cost_model=AggregationCostModel(per_flush_s=0.5, per_result_s=0.01),
        runtime=runtime,
    )
    rng = np.random.default_rng(5)
    for i in range(3):
        assert gateway.handle_result(_result(i, rng.normal(size=32)), now=0.0) is False
    # The fourth result fills the micro-batch: its size-triggered flush
    # runs the lane job, whose stage error propagates out of this call.
    with pytest.raises(RuntimeError) as info:
        gateway.handle_result(_result(3, rng.normal(size=32)), now=0.0)
    assert info.value is stage.error
    assert stage.threads == {threading.get_ident()}
    assert gateway.results_applied == 0

    stage.armed = False
    for i in range(4, 8):
        updated = gateway.handle_result(_result(i, rng.normal(size=32)), now=1.0)
    assert updated is True
    assert gateway.results_applied == 4


# ----------------------------------------------------------------------
# Elasticity controller
# ----------------------------------------------------------------------
def _elastic_gateway(policy: ElasticityPolicy, admission_rate: float | None):
    return Gateway.from_spec(
        policy.min_shards,
        _spec("fedavg"),
        GatewayConfig(
            batch_size=4,
            batch_deadline_s=1.0,
            sync_every_s=1e9,
            admission_rate_per_s=admission_rate,
        ),
        cost_model=AggregationCostModel(per_flush_s=0.2, per_result_s=0.01),
        runtime=RuntimeSpec(mode="async", autoscale=policy),
    )


def _drive_arrivals(gateway, rate_per_s, duration_s, start=0.0, dim=32):
    rng = np.random.default_rng(3)
    t = start
    step = 1.0 / rate_per_s
    while t < start + duration_s:
        request = TaskRequest(
            worker_id=int(t * rate_per_s) % 32,
            device_model="Galaxy S7",
            features=_features(),
            label_counts=np.ones(10),
        )
        response = gateway.handle_request(request, now=t)
        if isinstance(response, TaskAssignment):
            gateway.handle_result(
                _result(request.worker_id, rng.normal(size=dim), response.pull_step),
                now=t,
            )
        t += step
    return t


def test_autoscaler_scales_up_under_shedding_and_retunes_admission():
    policy = ElasticityPolicy(
        min_shards=1,
        max_shards=4,
        window_s=5.0,
        cooldown_s=5.0,
        admission_rate_per_shard=10.0,
    )
    gateway = _elastic_gateway(policy, admission_rate=10.0)
    _drive_arrivals(gateway, rate_per_s=50.0, duration_s=30.0)
    assert gateway.num_shards == 4
    actions = [event.action for event in gateway.autoscaler.events]
    assert actions.count("add") >= 2
    # Admission retuned to rate × shards on the last scaling event.
    assert gateway.bucket.rate_per_s == pytest.approx(40.0)
    assert "shed" in gateway.autoscaler.events[0].reason
    assert gateway.autoscaler.timeline()  # human-readable, non-empty


def test_autoscaler_scales_down_when_quiet():
    policy = ElasticityPolicy(
        min_shards=1,
        max_shards=4,
        window_s=5.0,
        cooldown_s=5.0,
        admission_rate_per_shard=10.0,
    )
    gateway = _elastic_gateway(policy, admission_rate=10.0)
    end = _drive_arrivals(gateway, rate_per_s=50.0, duration_s=30.0)
    assert gateway.num_shards == 4
    # A long lull observed through heartbeats shrinks the tier back.
    for k in range(1, 40):
        gateway.heartbeat(now=end + 2.5 * k)
    assert gateway.num_shards == 1
    removes = [e for e in gateway.autoscaler.events if e.action == "remove"]
    assert len(removes) == 3
    assert gateway.bucket.rate_per_s == pytest.approx(10.0)


def test_autoscaler_requires_a_shard_factory():
    spec = _spec("fedavg")
    with pytest.raises(ValueError, match="factory"):
        Gateway(
            [spec(0)],
            GatewayConfig(),
            runtime=RuntimeSpec(
                mode="async",
                autoscale=ElasticityPolicy(min_shards=1, max_shards=2),
            ),
        )


def test_manual_scale_up_and_down_roundtrip():
    gateway = Gateway.from_spec(
        2,
        _spec("adasgd"),
        GatewayConfig(batch_size=2, batch_deadline_s=1.0, sync_every_s=1e9),
        runtime=RuntimeSpec(mode="async"),
    )
    rng = np.random.default_rng(5)
    for i in range(12):
        gateway.handle_result(_result(i, rng.normal(size=32)), now=float(i))
    new_id = gateway.scale_up(now=12.0)
    assert gateway.num_shards == 3
    assert new_id in gateway.shards
    # The new shard joined with the consensus model.
    assert np.allclose(
        gateway.shards[new_id].current_parameters(), gateway.current_parameters()
    )
    clock_before = gateway.clock
    applied_before = gateway.results_applied
    removed = gateway.scale_down(now=13.0)
    assert removed == new_id
    assert gateway.num_shards == 2
    # Tier-wide counters are monotone across removals: the leaver's model
    # updates and applied results stay counted (the fleet simulation's
    # eval trigger and the CLI report ride on these).
    assert gateway.clock >= clock_before
    assert gateway.results_applied >= applied_before
    for i in range(12, 24):
        gateway.handle_result(_result(i, np.random.default_rng(i).normal(size=32)),
                              now=14.0 + i)
    assert gateway.results_applied == applied_before + 12


# ----------------------------------------------------------------------
# TokenBucket.set_rate (live admission retuning)
# ----------------------------------------------------------------------
def test_set_rate_settles_elapsed_time_at_the_old_rate():
    bucket = TokenBucket(10.0, capacity=100.0)
    for _ in range(100):
        assert bucket.try_acquire(0.0)
    assert bucket.tokens == 0.0
    # 2 seconds pass, THEN the rate changes: those 2s accrued at 10/s.
    bucket.set_rate(100.0, now=2.0)
    assert bucket.tokens == pytest.approx(20.0)


def test_set_rate_up_does_not_mint_a_burst():
    bucket = TokenBucket(5.0, capacity=5.0)
    for _ in range(5):
        assert bucket.try_acquire(0.0)
    bucket.set_rate(50.0, now=0.0)
    # No instantaneous tokens: the raise only speeds up future accrual...
    assert bucket.tokens == 0.0
    assert not bucket.try_acquire(0.0)
    # ...and the burst budget scaled with the rate.
    assert bucket.capacity == pytest.approx(50.0)
    assert bucket.try_acquire(0.1)  # 50/s × 0.1s = 5 tokens


def test_set_rate_down_clamps_tokens_to_the_new_capacity():
    bucket = TokenBucket(40.0, capacity=40.0)
    bucket.try_acquire(0.0)  # initialize the refill clock
    bucket.set_rate(4.0, now=0.0)
    assert bucket.capacity == pytest.approx(4.0)
    assert bucket.tokens <= bucket.capacity


def test_set_rate_rejects_non_positive_rates():
    bucket = TokenBucket(1.0)
    with pytest.raises(ValueError):
        bucket.set_rate(0.0, now=0.0)


# ----------------------------------------------------------------------
# AppliedLog bounded-memory mode
# ----------------------------------------------------------------------
def _fill(log: AppliedLog, n: int, batch: int = 7) -> None:
    i = 0
    while i < n:
        count = min(batch, n - i)
        idx = np.arange(i, i + count, dtype=np.float64)
        log.append_batch(
            step=i,
            staleness=idx,
            similarity=idx / n,
            dampening=np.ones(count),
            weight=idx % 3,
            worker_ids=idx,
        )
        i += count


def test_windowed_log_keeps_exact_recent_rows():
    windowed = AppliedLog(window=50)
    reference = AppliedLog()
    _fill(windowed, 500)
    _fill(reference, 500)
    assert len(windowed) == 50
    assert windowed.spilled == 450
    assert windowed.total_appended == 500
    for column in ("weights", "staleness", "similarity", "dampening", "steps"):
        assert np.array_equal(
            getattr(windowed, column)(), getattr(reference, column)()[-50:]
        ), column
    # Record-oriented access stays consistent with the window.
    assert windowed[0].staleness == reference[450].staleness
    assert windowed[-1].staleness == reference[-1].staleness
    assert len(list(windowed)) == 50


def test_windowed_log_memory_stays_bounded():
    log = AppliedLog(window=64)
    _fill(log, 20_000, batch=32)
    # Physical column capacity is bounded near the window, not the run.
    assert log._step.shape[0] <= 512
    assert len(log) == 64
    assert log.spilled == 20_000 - 64


def test_windowed_log_scalar_append_spills_too():
    log = AppliedLog(window=10)
    for i in range(35):
        log.append(
            AppliedUpdate(
                step=i, staleness=float(i), similarity=1.0,
                dampening=1.0, weight=1.0, worker_id=i,
            )
        )
    assert len(log) == 10
    assert log.spilled == 25
    assert log[0].step == 25 and log[0].worker_id == 25


def test_windowed_log_reservoir_tail_statistics():
    log = AppliedLog(window=100, spill_reservoir=200, spill_seed=7)
    _fill(log, 2_000)
    sample = log.spill_sample("staleness")
    assert sample.size == 200
    # The reservoir samples the spilled past (rows 0..1899), uniformly.
    assert sample.min() < 1900 * 0.2
    assert sample.max() < 1900
    # Pooled percentile is a sane estimate of the exact full-history one.
    estimate = log.percentile("staleness", 50.0)
    assert abs(estimate - 1000.0) < 250.0
    # In-window-only percentile is exact up to the nearest-rank convention
    # (the weighted estimator does not interpolate between ranks).
    exact = log.percentile("staleness", 50.0, include_spilled=False)
    assert abs(exact - np.percentile(np.arange(1900, 2000), 50.0)) <= 1.0
    # Deterministic for a fixed seed.
    log2 = AppliedLog(window=100, spill_reservoir=200, spill_seed=7)
    _fill(log2, 2_000)
    assert np.array_equal(sample, log2.spill_sample("staleness"))


def test_unbounded_log_unchanged_and_percentile_guards():
    log = AppliedLog()
    _fill(log, 100)
    assert log.window is None
    assert log.spilled == 0
    assert log.spill_sample("weight").size == 0
    with pytest.raises(ValueError):
        log.percentile("nope", 50.0)
    with pytest.raises(ValueError):
        AppliedLog(window=0)


def test_server_applied_log_window_plumbs_through():
    from repro.core.adasgd import make_fedavg

    server = make_fedavg(np.zeros(8), learning_rate=0.1)
    assert server.applied.window is None
    from repro.core.adasgd import StalenessAwareServer
    from repro.core.dampening import ConstantDampening

    bounded = StalenessAwareServer(
        np.zeros(8),
        dampening=ConstantDampening(1.0),
        applied_log_window=16,
    )
    assert bounded.applied.window == 16


# ----------------------------------------------------------------------
# RuntimeSpec validation
# ----------------------------------------------------------------------
def test_runtime_spec_validation():
    with pytest.raises(ValueError):
        RuntimeSpec(mode="turbo")
    with pytest.raises(ValueError):
        RuntimeSpec(queue_capacity=0)
    with pytest.raises(ValueError):
        ElasticityPolicy(min_shards=4, max_shards=2)
    with pytest.raises(ValueError):
        ElasticityPolicy(scale_up_factor=1.0)


def test_builder_carries_runtime_spec_to_gateway():
    spec = (
        FleetBuilder(np.zeros(16))
        .algorithm("fedavg", learning_rate=0.1)
        .runtime(mode="async", queue_capacity=8)
        .spec()
    )
    assert spec.runtime is not None and spec.runtime.queue_capacity == 8
    gateway = Gateway.from_spec(2, spec, GatewayConfig(batch_size=2))
    assert gateway.runtime.spec.queue_capacity == 8
    # An explicit argument overrides the spec's runtime.
    override = Gateway.from_spec(
        2, spec, GatewayConfig(batch_size=2),
        runtime=RuntimeSpec(mode="sync"),
    )
    assert override.runtime.spec.mode == "sync"
