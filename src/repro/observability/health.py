"""The gateway's readiness surface: one strict-JSON health document.

``Gateway.health_snapshot()`` delegates here.  The document aggregates
every per-shard liveness input the tier already tracks — failure-detector
silence, runtime queue depth and lane state, WAL/checkpoint lag, pending
micro-batches, results parked for crashed shards — into the contract a
front-end serves from ``/healthz``: a top-level status plus a per-shard
breakdown, guaranteed to survive ``json.dumps(..., allow_nan=False)``.

Schema (stable keys; optional sections are ``None`` when the subsystem
is not configured)::

    {
      "status": "ok" | "degraded" | "unavailable",
      "time": float,
      "num_shards": int, "crashed_shards": [str, ...],
      "clock": int, "results_applied": int,
      "active_alerts": [str, ...],          # [] without an SLO engine
      "shards": {
        "<shard-id>": {
          "status": "ok" | "suspect" | "down",
          "clock": int | None,              # None while down
          "queue_depth": int,               # 0 for a sync lane
          "lane_alive": bool,
          "pending_batch": int,             # gateway-held, not yet flushed
          "parked_results": int,            # accepted during an outage
          "restore_pending": bool,
          "detector": {"silence_s": float, "timeout_s": float} | None,
          "wal": {"next_seq": int, "last_checkpoint_clock": int,
                  "checkpoint_lag_clock": int} | None,
        }, ...
      }
    }

WAL lag is computed in memory (``shard.clock`` minus the bundle's
``last_checkpoint_clock``) — a health poll never touches disk, so the
snapshot is cheap enough to serve per request.

It is the implementation of a Gateway method, split out so the
observability package owns the document format; it reads only the
gateway's public surface (the crash ledger through ``Gateway.crashes``,
the failure detector through ``gateway.durability``).
"""

from __future__ import annotations

__all__ = ["build_health_snapshot"]


def build_health_snapshot(gateway, now: float) -> dict:
    """Assemble the readiness document for one gateway (see module doc)."""
    runtime = gateway.runtime
    durability = gateway.durability
    detector = durability.detector if durability is not None else None
    crashed = gateway.crashed_shards
    crashes = gateway.crashes
    restore_possible = gateway.has_shard_factory

    def detector_doc(shard_id: str) -> dict | None:
        if detector is None:
            return None
        return {"silence_s": detector.silence_s(shard_id, now), "timeout_s": detector.timeout_s}

    shards: dict[str, dict] = {}
    degraded = False
    for shard_id in sorted(gateway.shards):
        shard = gateway.shards[shard_id]
        status = "ok"
        liveness = detector_doc(shard_id)
        if liveness is not None and (
            detector.is_dead(shard_id) or liveness["silence_s"] > detector.timeout_s
        ):
            status = "suspect"
            degraded = True
        wal_doc = None
        if durability is not None and durability.has(shard_id):
            bundle = durability.shard(shard_id)
            wal_doc = {
                "next_seq": bundle.wal.next_seq,
                "last_checkpoint_clock": bundle.last_checkpoint_clock,
                "checkpoint_lag_clock": max(
                    0, shard.clock - bundle.last_checkpoint_clock
                ),
            }
        lane_alive = runtime.lane_alive(shard_id)
        if not lane_alive:
            status = "suspect"
            degraded = True
        shards[shard_id] = {
            "status": status,
            "clock": shard.clock,
            "queue_depth": runtime.queue_depth(shard_id, now),
            "lane_alive": lane_alive,
            "pending_batch": gateway.batcher.pending(shard_id),
            "parked_results": 0,
            "restore_pending": False,
            "detector": liveness,
            "wal": wal_doc,
        }

    for shard_id in crashed:
        degraded = True
        shards[shard_id] = {
            "status": "down",
            "clock": None,
            "queue_depth": 0,
            "lane_alive": False,
            "pending_batch": 0,
            "parked_results": len(crashes[shard_id].parked),
            "restore_pending": restore_possible,
            "detector": detector_doc(shard_id),
            "wal": None,
        }

    alerts = []
    if gateway.slo_engine is not None:
        alerts = list(gateway.slo_engine.active_alerts())
        if alerts:
            degraded = True

    if gateway.num_shards == 0:
        status = "unavailable"
    elif degraded:
        status = "degraded"
    else:
        status = "ok"

    return {
        "status": status,
        "time": float(now),
        "num_shards": gateway.num_shards,
        "crashed_shards": list(crashed),
        "clock": gateway.clock,
        "results_applied": gateway.results_applied,
        "active_alerts": alerts,
        "shards": shards,
    }
