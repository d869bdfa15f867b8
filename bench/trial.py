"""One trial: set the tier up, drive it over loopback TCP, drain, take counts.

A trial always runs on a fresh gateway: ``FleetBuilder`` spec →
``Gateway.from_spec`` (2 shards) → ``DeviceFrontend`` on an ephemeral
loopback port → two handshaken :class:`~bench.loadgen.BenchClient`
connections, one per shard.  The timed window holds only socket write →
frame parse → gateway → batch → stages → fold → (WAL) → ack read.
"""

from __future__ import annotations

import asyncio
import gc
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.api import FleetBuilder
from repro.durability import DurabilitySpec
from repro.frontend.server import DeviceFrontend, FrontendConfig
from repro.gateway import Gateway, GatewayConfig

from bench.loadgen import BenchClient
from bench.workloads import BATCH_SIZE, CONNECTIONS, NUM_LABELS, WINDOW, Workload

__all__ = [
    "Tier",
    "TrialResult",
    "build_gateway",
    "closed_trial",
    "paced_rung",
    "setup",
    "setup_only",
]

#: The loopback bench's gateway configuration: flush by size only, blend
#: shard models only at drain.
GATEWAY_CONFIG = GatewayConfig(batch_size=BATCH_SIZE, batch_deadline_s=1e9, sync_every_s=1e9)
#: A paced rung passes only if its p99 stays under this.
LATENCY_LIMIT_MS = 100.0
#: Latency percentiles are taken over windows of this many consecutive
#: acks, then the median over a trial's windows: one stall delays every
#: upload in flight, so the p99 of a whole long trial is set by its few
#: worst stalls, while 1000 acks still leave 10 samples beyond the p99.
LATENCY_WINDOW = 1000


def build_gateway(workload: Workload, wal_root: Path | None = None) -> Gateway:
    """The tier under test; ``wal_root`` arms durability."""
    builder = FleetBuilder(np.zeros(workload.dimension), num_labels=NUM_LABELS)
    if workload.algorithm == "adasgd":
        builder.algorithm("adasgd")
    else:
        builder.algorithm(workload.algorithm, learning_rate=0.01)
    builder.slo(3.0)
    if wal_root is not None:
        builder.durability(DurabilitySpec(root_dir=wal_root, auto_failover=False))
    return Gateway.from_spec(CONNECTIONS, builder.spec(), GATEWAY_CONFIG)


def shard_workers(gateway: Gateway) -> dict[str, int]:
    """The lowest worker id each shard owns: one connection per shard."""
    owners: dict[str, int] = {}
    worker_id = 0
    while len(owners) < gateway.num_shards:
        owners.setdefault(gateway.shard_for(worker_id), worker_id)
        worker_id += 1
    return dict(sorted(owners.items()))


@dataclass
class Tier:
    """A running tier with its handshaken connections."""

    gateway: Gateway
    frontend: DeviceFrontend
    clients: list[BenchClient]
    shard_ids: list[str]
    setup_s: float
    wal_root: Path | None

    async def teardown(self) -> None:
        for client in self.clients:
            await client.close()
        if self.gateway.durability is not None:
            self.gateway.durability.close()
        if self.wal_root is not None:
            shutil.rmtree(self.wal_root, ignore_errors=True)


async def setup(workload: Workload, wal_root: Path | None = None) -> Tier:
    """Build spec + gateway (+ durability attach and anchor checkpoint) +
    frontend start + both handshakes WELCOMEd (timed as ``Tier.setup_s``)."""
    wal_root = wal_root if workload.durable else None
    if wal_root is not None:
        shutil.rmtree(wal_root, ignore_errors=True)
    started = time.perf_counter()
    gateway = build_gateway(workload, wal_root)
    frontend = DeviceFrontend(gateway, FrontendConfig(downlink_level=0))
    host, port = await frontend.start()
    owners = shard_workers(gateway)
    clients = [
        await BenchClient.connect(host, port, worker_id) for worker_id in owners.values()
    ]
    setup_s = time.perf_counter() - started
    return Tier(
        gateway=gateway,
        frontend=frontend,
        clients=clients,
        shard_ids=list(owners),
        setup_s=setup_s,
        wal_root=wal_root,
    )


async def setup_only(workload: Workload, wal_root: Path | None = None) -> float:
    """Seconds of one set-up that is torn down unused."""
    tier = await setup(workload, wal_root)
    await tier.frontend.drain()
    await tier.teardown()
    return tier.setup_s


@dataclass
class TrialResult:
    """What one trial measured, and the state the output checks compare."""

    sent: int
    acked: int
    refused: int
    received: int
    applied: int
    wall_s: float
    cpu_s: float
    setup_s: float
    latency_ms: np.ndarray  # in ack order, both connections pooled
    #: Timed segments (perf_counter): the upload window and the drain.
    windows: list[tuple[float, float]]
    parameters: np.ndarray
    clocks: dict[str, int]
    counters: dict[str, float]
    recovery: dict | None = None
    rung: dict | None = None

    @property
    def ok(self) -> int:
        """Uploads acked *and* applied."""
        return min(self.acked, self.applied)

    @property
    def uploads_per_s(self) -> float:
        return self.ok / self.wall_s

    @property
    def cpu_ms_per_upload(self) -> float:
        return 1e3 * self.cpu_s / max(self.ok, 1)

    def percentile_ms(self, q: float) -> float:
        windows = np.array_split(
            self.latency_ms, max(1, self.latency_ms.size // LATENCY_WINDOW)
        )
        return float(np.median([np.percentile(window, q) for window in windows]))


def _recover(tier: Tier) -> dict:
    """Crash a shard and fail it over; the victim must come back bit-identical.

    Upload counts are a multiple of the batch size, so nothing is pending
    at the crash and nothing is parked for redelivery: the timed part is a
    fresh shard from the factory + checkpoint load + WAL-tail replay.
    """
    gateway = tier.gateway
    victim = tier.shard_ids[0]
    before = gateway.shards[victim]
    parameters, clock = before.current_parameters().copy(), before.clock
    started = time.perf_counter()
    gateway.crash_shard(victim, now=tier.frontend.now())
    report = gateway.failover(victim, now=tier.frontend.now())
    recovery_ms = 1e3 * (time.perf_counter() - started)
    after = gateway.shards[victim]
    return {
        "recovery_ms": recovery_ms,
        "replayed_records": report.replayed_records,
        "replayed_results": report.replayed_results,
        "bit_identical": bool(
            after.clock == clock and np.array_equal(after.current_parameters(), parameters)
        ),
        "expected_replayed_records": clock
        % gateway.durability.spec.checkpoint_every_updates,
    }


async def _finish(
    tier: Tier, window_start: float, cpu_start: float, rung: dict | None = None
) -> TrialResult:
    """Close the timed window: (recover,) drain, then read every count."""
    gateway = tier.gateway
    recovery = None
    if gateway.durability is not None:
        # The saver thread's pending archives are part of the cost to
        # serve; recovery itself is timed apart from the upload window.
        gateway.durability.flush_saves()
    uploads_end, cpu_end = time.perf_counter(), time.process_time()
    windows = [(window_start, uploads_end)]
    wall, cpu = uploads_end - window_start, cpu_end - cpu_start
    checkpoints = wal_bytes = 0
    if gateway.durability is not None:
        # Cadence checkpoints on the upload path: the anchors are set-up.
        checkpoints = gateway.durability.checkpoints_written - len(tier.shard_ids)
        wal_bytes = sum(
            path.stat().st_size for path in Path(gateway.durability.root).glob("*/wal/*")
        )
        recovery = _recover(tier)
    drain_start, drain_cpu = time.perf_counter(), time.process_time()
    await tier.frontend.drain()
    drain_end = time.perf_counter()
    windows.append((drain_start, drain_end))
    wall += drain_end - drain_start
    cpu += time.process_time() - drain_cpu

    metrics = gateway.metrics
    latency = np.array([s for c in tier.clients for s in c.latency_s]) * 1e3
    ack_at = np.array([t for c in tier.clients for t in c.ack_at])
    latency = latency[np.argsort(ack_at)]  # unacked uploads (NaN) sort last
    result = TrialResult(
        sent=sum(c.sent for c in tier.clients),
        acked=sum(c.acked for c in tier.clients),
        refused=sum(c.refused for c in tier.clients),
        received=gateway.results_received(),
        applied=gateway.results_applied,
        wall_s=wall,
        cpu_s=cpu,
        setup_s=tier.setup_s,
        latency_ms=latency[np.isfinite(latency)],
        windows=windows,
        parameters=gateway.current_parameters(),
        clocks={shard_id: shard.clock for shard_id, shard in gateway.shards.items()},
        counters={
            "bytes_in": metrics.counter("frontend.bytes_in").value,
            "bytes_out": metrics.counter("frontend.bytes_out").value,
            "batches": metrics.counter("gateway.batches").value,
            "wire_bytes": gateway.batcher.wire_bytes_in,
            "checkpoints": checkpoints,
            "wal_bytes": wal_bytes,
        },
        recovery=recovery,
        rung=rung,
    )
    await tier.teardown()
    return result


async def closed_trial(
    workload: Workload, frames: list[list[bytes]], wal_root: Path | None = None
) -> TrialResult:
    """Closed loop at saturation: ``WINDOW`` uploads in flight per connection."""
    tier = await setup(workload, wal_root)
    gc.collect()
    cpu_start, window_start = time.process_time(), time.perf_counter()
    await asyncio.gather(
        *(client.closed_loop(own, WINDOW) for client, own in zip(tier.clients, frames))
    )
    return await _finish(tier, window_start, cpu_start)


async def paced_rung(
    workload: Workload, frames: list[list[bytes]], rate_per_s: float
) -> TrialResult:
    """Open loop: a fixed-interval schedule split evenly over the connections.

    The rung **passes** iff every upload is acked and applied, the p99 of
    ack latency (from the due instant) is within ``LATENCY_LIMIT_MS``, and
    at least 99 % of the offered uploads complete within the rung + 1 s.
    It is abandoned once a connection has 2 s worth of uploads unacked.
    """
    tier = await setup(workload)
    interval_s = CONNECTIONS / rate_per_s
    offered = sum(len(own) for own in frames)
    rung_s = max(len(own) for own in frames) * interval_s
    gc.collect()
    cpu_start, window_start = time.process_time(), time.perf_counter()
    completed = await asyncio.gather(
        *(
            client.paced(
                own,
                start_at=window_start + index * interval_s / CONNECTIONS,
                interval_s=interval_s,
                max_backlog=int(2.0 * rate_per_s / CONNECTIONS),
            )
            for index, (client, own) in enumerate(zip(tier.clients, frames))
        )
    )
    ack_at = np.array([t for c in tier.clients for t in c.ack_at])
    late_ms = np.array([s for c in tier.clients for s in c.late_s]) * 1e3
    rung = {
        "rate_per_s": rate_per_s,
        "offered": offered,
        "abandoned": not all(completed),
        "in_time": int((ack_at <= window_start + rung_s + 1.0).sum()),
        "late_p99_ms": float(np.percentile(late_ms, 99)),
    }
    result = await _finish(tier, window_start, cpu_start, rung)
    rung["ack_p99_ms"] = result.percentile_ms(99)
    rung["ok"] = bool(
        not rung["abandoned"]
        and result.ok == result.sent == offered
        and rung["ack_p99_ms"] <= LATENCY_LIMIT_MS
        and rung["in_time"] >= 0.99 * offered
    )
    return result
