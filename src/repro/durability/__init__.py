"""Durable shards: write-ahead log, checkpoints, deterministic restore.

A crashed shard used to lose its model, lease clocks and dampening
windows; this package gives every shard a durable identity.  Deliveries
are logged write-ahead (:class:`WriteAheadLog`), state is snapshotted
periodically (:class:`CheckpointStore`), and recovery is deterministic
replay (:func:`restore_shard`) — bit-exact against the scalar oracle, so
it is property-testable.  The gateway drives failover end to end via
:class:`DurabilityManager`, which owns the :class:`FailureDetector`;
configuration rides :class:`DurabilitySpec` on the builder
(``FleetBuilder.durability(...)``).
"""

from repro.durability.checkpoint import (
    CheckpointStore,
    checkpoint_summary,
    load_state_into,
    snapshot_state,
)
from repro.durability.detector import FailureDetector
from repro.durability.manager import DurabilityManager, ShardDurability
from repro.durability.restore import RestoreReport, replay, restore_shard
from repro.durability.spec import DurabilitySpec
from repro.durability.wal import (
    WalRecord,
    WriteAheadLog,
    iter_records,
    read_records,
    wal_summary,
)

__all__ = [
    "DurabilitySpec",
    "WriteAheadLog",
    "WalRecord",
    "iter_records",
    "read_records",
    "wal_summary",
    "CheckpointStore",
    "checkpoint_summary",
    "snapshot_state",
    "load_state_into",
    "RestoreReport",
    "replay",
    "restore_shard",
    "FailureDetector",
    "DurabilityManager",
    "ShardDurability",
]
