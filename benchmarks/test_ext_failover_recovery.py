"""Extension bench — gateway failover: recovery time and acked loss.

4 durable shards under steady load, one crashed mid-run.  The failure
detector must declare it dead within its timeout, the gateway must
restore it from checkpoint + WAL replay under the same shard id, and no
acked upload may be lost (every result the gateway accepted reaches a
shard model by finalize).  Pre/post-crash throughput is reported, not
asserted: wall-clock bars live in ``bench/`` (``durable_d16k`` vs
``served_d16k`` ``uploads_per_s``, ``durability.wal_append_us``), where
they are measured with warm-up and paired medians.

Numbers land in ``BENCH_failover.json`` (picked up by the nightly
artifact glob).  Set ``BENCH_FULL=1`` for the paper-size run.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

from repro.core import make_fedavg
from repro.devices.device import DeviceFeatures
from repro.durability import DurabilitySpec
from repro.gateway import Gateway, GatewayConfig
from repro.profiler import IProf, SLO
from repro.runtime import AggregationCostModel
from repro.server import FleetServer
from repro.server.protocol import TaskAssignment, TaskRequest, TaskResult

from conftest import BENCH_FULL, fmt_row, record_artifact

DIM = 512 if BENCH_FULL else 128
NUM_LABELS = 10
WORKERS = 32
SHARDS = 4
ROUNDS = 40 if BENCH_FULL else 12  # measured rounds per phase
DETECTOR_TIMEOUT_S = 30.0  # virtual seconds of silence before dead
ROUND_GAP_S = 1.0  # virtual seconds between load rounds


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


def _shard_factory(index: int) -> FleetServer:
    return FleetServer(
        make_fedavg(np.zeros(DIM), learning_rate=0.05),
        IProf(),
        SLO(time_seconds=3.0),
    )


def _durable_gateway(root: Path) -> Gateway:
    return Gateway.from_spec(
        SHARDS,
        _shard_factory,
        GatewayConfig(batch_size=8, batch_deadline_s=2.0, sync_every_s=1e9),
        cost_model=AggregationCostModel(per_flush_s=0.01, per_result_s=0.001),
        durability=DurabilitySpec(
            root_dir=root, detector_timeout_s=DETECTOR_TIMEOUT_S
        ),
    )


def _round(gateway: Gateway, now: float, rng) -> None:
    """One request/result round per worker at virtual time ``now``."""
    for worker_id in range(WORKERS):
        response = gateway.handle_request(_request(worker_id), now=now)
        if not isinstance(response, TaskAssignment):
            continue  # the crashed shard's keys bounce during the outage
        gateway.handle_result(
            TaskResult(
                worker_id=worker_id,
                device_model="Galaxy S7",
                features=_features(),
                pull_step=response.pull_step,
                gradient=rng.normal(size=DIM),
                label_counts=np.ones(NUM_LABELS),
                batch_size=8,
                computation_time_s=1.0,
                energy_percent=0.01,
            ),
            now=now,
        )


def _phase(gateway: Gateway, start_s: float, rounds: int, rng) -> tuple[float, float]:
    """Drive ``rounds`` load rounds; returns (uploads/s wall, end time)."""
    started = time.perf_counter()
    now = start_s
    for step in range(rounds):
        now = start_s + step * ROUND_GAP_S
        _round(gateway, now, rng)
    elapsed = time.perf_counter() - started
    return rounds * WORKERS / elapsed, now + ROUND_GAP_S


def test_failover_recovery(report, tmp_path):
    rng = np.random.default_rng(7)
    gateway = _durable_gateway(tmp_path / "dur")
    _phase(gateway, 0.0, 4, rng)  # warmup (outside the measured window)

    pre_rate, now = _phase(gateway, 10.0, ROUNDS, rng)
    victim = sorted(gateway.shards)[0]
    crash_time = now
    gateway.crash_shard(victim, now=crash_time)

    # Outage: load keeps flowing; the victim's keys bounce, everyone
    # else trains on.  The pump's heartbeat probes are what eventually
    # trip the detector — no operator action anywhere.
    outage_rounds = int(DETECTOR_TIMEOUT_S / ROUND_GAP_S) + 2
    _, now = _phase(gateway, crash_time + ROUND_GAP_S, outage_rounds, rng)
    assert victim in gateway.shards, "detector never triggered failover"
    assert gateway.durability.restores == 1

    post_rate, now = _phase(gateway, now, ROUNDS, rng)
    gateway.finalize(now=now)

    # Bounded virtual-time recovery: detection is the timeout plus at
    # most one probe gap; restore + redelivery are instantaneous in
    # virtual time.
    done = [e for e in gateway.journal.events if e.kind == "failover_done"]
    assert len(done) == 1 and done[0].shard_id == victim
    recovery_s = done[0].recovery_s
    assert recovery_s <= DETECTOR_TIMEOUT_S + 2 * ROUND_GAP_S

    # Zero acked-upload loss: every result the gateway accepted was
    # folded into a shard model (parked ones redelivered at failover).
    received = gateway.results_received()
    applied = gateway.results_applied
    assert applied == received, f"lost {received - applied} acked uploads"

    ratio = post_rate / pre_rate
    unavailable = gateway._unavailable.value
    report(
        f"failover recovery, {SHARDS} shards x {DIM}-dim, "
        f"{WORKERS} workers, crash 1 shard mid-load",
        fmt_row("  throughput pre/post (uploads/s)", [pre_rate, post_rate],
                precision=0),
        f"  post/pre throughput                {ratio:.4f}",
        f"  recovery (virtual s)               {recovery_s:.1f} "
        f"(detector timeout {DETECTOR_TIMEOUT_S:.0f})",
        f"  acked uploads applied              {applied}/{received}",
        f"  requests bounced during outage     {unavailable}",
        f"  replayed results at restore        {done[0].replayed_results} "
        f"(+{done[0].redelivered_results} redelivered)",
    )
    record_artifact(
        "failover",
        {
            "pre_throughput_uploads_s": pre_rate,
            "post_throughput_uploads_s": post_rate,
            "post_over_pre": ratio,
            "recovery_virtual_s": recovery_s,
            "acked_received": received,
            "acked_applied": applied,
            "unavailable_requests": unavailable,
            "replayed_results": done[0].replayed_results,
            "redelivered_results": done[0].redelivered_results,
        },
    )
