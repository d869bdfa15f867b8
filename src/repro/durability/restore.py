"""Deterministic replay-to-restore: checkpoint + WAL tail → live shard.

Recovery is a pure function of durable state: build a factory-fresh
shard, load the newest checkpoint into it, then replay every WAL record
recorded at or after the checkpoint's sequence through the *same*
delivery dispatch the live server used (``FleetServer._deliver`` for
apply records, ``StalenessAwareServer.set_parameters`` for parameter
overwrites).  Replayed gradients come back as rows of one contiguous
float64 matrix, so ``stack_gradients`` base-detection hands the fold the
exact same ``(B, D)`` operand shape — bit-identical arithmetic, which the
property test pins against the scalar oracle across every preset.

Replay streams: :func:`~repro.durability.wal.iter_records` decodes one
record at a time and only from the checkpoint's sequence on (records
before it are CRC-checked and skipped), so a restore holds one frame
plus the record being replayed, however long the log has grown.

The WAL must be detached during replay (the manager attaches it only
after ``restore_shard`` returns), otherwise replayed deliveries would be
re-logged and history would duplicate.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path

from repro.durability.checkpoint import CheckpointStore
from repro.durability.wal import WalRecord, iter_records

__all__ = ["RestoreReport", "replay", "restore_shard"]


@dataclass(frozen=True)
class RestoreReport:
    """What a restore did: where it started and how much it replayed."""

    checkpoint_wal_seq: int
    replayed_records: int
    replayed_results: int
    final_clock: int


def replay(server, records: Iterable[WalRecord]) -> tuple[int, int]:
    """Re-deliver WAL records in order; returns ``(records, results)``
    replayed.

    ``records`` may be any iterable — restore hands it a stream, so each
    record is dropped once it has been applied.  ``server`` must have no
    WAL attached: replay goes through the live delivery path and would
    otherwise append every record a second time.
    """
    if server.wal is not None or server.optimizer.wal is not None:
        raise ValueError("detach the WAL before replaying into a server")
    applied = results = 0
    for record in records:
        applied += 1
        if record.kind == "params":
            server.optimizer.set_parameters(record.parameters)
            continue
        updates = record.updates()
        server._deliver(updates, batched=record.batched)
        results += len(updates)
    return applied, results


def restore_shard(
    server,
    store: CheckpointStore,
    wal_dir: str | Path,
) -> RestoreReport:
    """Restore a crashed shard's durable state onto a fresh ``server``.

    Loads the newest checkpoint from ``store`` (or starts from the
    factory-fresh state when none exists yet), then streams the WAL tail
    from ``wal_dir`` through :func:`replay`.  The server's WAL attribute
    is left detached; the caller reattaches durability afterwards so
    post-restore traffic keeps extending the same history.
    """
    start_seq = store.load_latest_into(server)
    records, results = replay(server, iter_records(wal_dir, start_seq=start_seq))
    return RestoreReport(
        checkpoint_wal_seq=start_seq,
        replayed_records=records,
        replayed_results=results,
        final_clock=server.clock,
    )
