"""``DurabilitySpec``: the declarative recipe for durable shards.

Rides on :class:`repro.api.ServerSpec` exactly like the runtime recipe
(``FleetBuilder.durability(...)``) and is consumed by
``Gateway.from_spec``: the gateway builds one write-ahead log and one
checkpoint store per shard under ``root_dir/<shard_id>/``, attaches them,
and arms the failure detector that drives ``Gateway.failover``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

__all__ = ["DurabilitySpec"]


@dataclass(frozen=True)
class DurabilitySpec:
    """Knobs of the shard-durability layer.

    Parameters
    ----------
    root_dir:
        Directory holding one subdirectory per shard (``<shard>/wal/`` +
        ``<shard>/checkpoints/``).
    checkpoint_every_updates:
        Model updates between periodic checkpoints.  Between checkpoints
        the WAL alone carries recovery; a smaller cadence shortens replay
        at the cost of more checkpoint writes.  The default (100) keeps
        the snapshot tax well under the WAL's own append cost while the
        replay tail stays bounded at milliseconds of recovery work.
    fsync:
        Fsync every WAL record (and journal stream line) to disk.  Off by
        default: records are still flushed to the OS per append, so a
        *process* crash loses nothing — only a machine crash can eat the
        tail.
    detector_timeout_s:
        Seconds of lane silence before the failure detector declares a
        shard dead and the gateway fails it over.
    auto_failover:
        Fail dead shards over automatically from the gateway's pump (the
        detector's verdict triggers recovery without operator action).
        With False the detector still marks shards dead but recovery
        waits for an explicit ``Gateway.failover`` call.
    journal_path:
        When set, the gateway's event journal streams every record to
        this JSONL file as it is written (append + optional fsync), so
        the ``failover_start``/``failover_done`` events survive the crash
        they describe instead of living only in the in-memory ring.

    WAL segment size and checkpoint retention are the
    :class:`~repro.durability.wal.WriteAheadLog` and
    :class:`~repro.durability.checkpoint.CheckpointStore` defaults.
    """

    root_dir: str | Path
    checkpoint_every_updates: int = 100
    fsync: bool = False
    detector_timeout_s: float = 30.0
    auto_failover: bool = True
    journal_path: str | Path | None = None

    def __post_init__(self) -> None:
        if self.checkpoint_every_updates <= 0:
            raise ValueError("checkpoint_every_updates must be positive")
        if self.detector_timeout_s <= 0:
            raise ValueError("detector_timeout_s must be positive")
