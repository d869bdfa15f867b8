"""Extension bench — the device-facing frontend holds a fleet, loses nothing.

Measured over real loopback TCP: the asyncio frontend holds hundreds of
concurrent device connections through handshake, saturating uploads and
graceful drain, and loses **zero acked uploads** even when a slice of
the fleet is hard-killed mid-run (transport aborts, no GOODBYE): every
client-side ack has a matching gateway receipt, and after drain
``results_applied == results_received``.  What the served path *costs*
is ``bench/``'s job (``served_*`` workloads and the ``frontend.*``
ledger rows), not a ratio assert here.

Numbers land in ``BENCH_frontend.json`` (nightly artifact glob).  Set
``BENCH_FULL=1`` for the 200-connection acceptance configuration.
"""

from __future__ import annotations

import numpy as np

from repro.api import FleetBuilder
from repro.frontend.harness import run_loopback_sync
from repro.frontend.loadgen import LoadGenConfig
from repro.gateway import Gateway, GatewayConfig

from conftest import BENCH_FULL, record_artifact

# The acceptance bar is >= 200 live device connections.
SCALE_DEVICES = 200 if BENCH_FULL else 48
SCALE_UPLOADS = 4 if BENCH_FULL else 3
SCALE_DIM = 512 if BENCH_FULL else 256
ABORT_FRACTION = 0.15


def _gateway(dimension: int, batch_size: int) -> Gateway:
    spec = (
        FleetBuilder(np.zeros(dimension))
        .algorithm("fedavg", learning_rate=0.01)
        .slo(3.0)
        .spec()
    )
    return Gateway.from_spec(
        2,
        spec,
        GatewayConfig(
            batch_size=batch_size, batch_deadline_s=1e9, sync_every_s=1e9
        ),
    )


# ----------------------------------------------------------------------
# Scale: >= 200 concurrent connections, zero acked loss through aborts
# ----------------------------------------------------------------------
def test_ext_frontend_loopback_scale(benchmark, report):
    gateway = _gateway(SCALE_DIM, batch_size=8)
    config = LoadGenConfig(
        devices=SCALE_DEVICES,
        mode="push",
        uploads_per_device=SCALE_UPLOADS,
        window=4,
        dimension=SCALE_DIM,
        compression_level=0,
        seed=5,
    )

    result = benchmark.pedantic(
        lambda: run_loopback_sync(
            gateway, config, abort_fraction=ABORT_FRACTION
        ),
        rounds=1,
        iterations=1,
    )

    metrics = gateway.metrics
    peak = int(metrics.gauge("frontend.peak_connections").value)
    torn = int(metrics.counter("frontend.torn_disconnects").value)
    report(
        "",
        "Extension — frontend loopback: scale with mid-run aborts "
        f"({SCALE_DEVICES} devices, abort {ABORT_FRACTION:.0%})",
        f"  peak connections {peak}, acked {result.stats.acked}, "
        f"received {result.results_received}, "
        f"applied {result.results_applied}, torn {torn}",
        f"  wall {result.wall_s:.2f} s, "
        f"{result.uploads_per_s:.0f} acked uploads/s, "
        f"drain {result.drain['drain_s'] * 1e3:.1f} ms",
    )
    record_artifact(
        "frontend",
        {
            "scale_devices": SCALE_DEVICES,
            "scale_peak_connections": peak,
            "scale_acked": result.stats.acked,
            "scale_received": result.results_received,
            "scale_applied": result.results_applied,
            "scale_uploads_per_s": result.uploads_per_s,
        },
    )

    # Every device connected before traffic started: the frontend held
    # the whole fleet concurrently.
    assert peak == SCALE_DEVICES
    assert int(metrics.counter("frontend.connections").value) == SCALE_DEVICES
    # Zero acked loss: an ack implies gateway receipt, and the drain
    # flushed every received upload into the model.
    assert result.stats.acked <= result.results_received
    assert result.results_applied == result.results_received
    assert result.stats.acked > 0
