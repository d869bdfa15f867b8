# repro: threads
"""Per-shard durability lifecycle: attach, cadence, retire, restore.

``DurabilityManager`` owns one :class:`ShardDurability` bundle (WAL +
checkpoint store) per attached shard, all rooted under
``spec.root_dir/<shard_id>/``, and the tier's heartbeat
:class:`~repro.durability.detector.FailureDetector` (built from
``spec.detector_timeout_s``), which each lifecycle call keeps in step.
The gateway drives it:

* ``attach`` when a shard joins (construction, ``add_shard``, scale-up) —
  writes an immediate anchor checkpoint so any pre-attach state (e.g. the
  parameter blend a joining shard inherits) is covered without a single
  WAL record, and registers the shard with the detector;
* ``on_delivery`` after every delivery (a gateway delivery observer) —
  ``maybe_checkpoint`` snapshots every ``checkpoint_every_updates`` model
  updates, and the delivery beats the detector;
* ``retire`` on planned removal (``remove_shard``/``scale_down``) — WAL
  fsync + final checkpoint, so planned removal and crash recovery share
  one durable format; the detector stops watching the shard;
* ``restore`` on failover — checkpoint + WAL-tail replay onto a fresh
  factory-built server, then reattaches the same WAL directory so
  post-recovery history extends the old one and revives the shard in
  the detector.

The ``# repro: threads`` pragma above marks this module as the one place
the tier starts a thread: the ``ckpt-saver`` that writes cadence
checkpoints off the delivery path (lint rule RPR103).
"""

from __future__ import annotations

import queue
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.durability.checkpoint import CheckpointStore, snapshot_state
from repro.durability.detector import FailureDetector
from repro.durability.restore import RestoreReport, restore_shard
from repro.durability.spec import DurabilitySpec
from repro.durability.wal import WriteAheadLog

__all__ = ["ShardDurability", "DurabilityManager"]


@dataclass
class ShardDurability:
    """One shard's durable attachments."""

    shard_id: str
    wal: WriteAheadLog
    store: CheckpointStore
    last_checkpoint_clock: int


class DurabilityManager:
    """Factory and registry for per-shard WALs and checkpoint stores."""

    def __init__(self, spec: DurabilitySpec) -> None:
        self.spec = spec
        self.root = Path(spec.root_dir)
        self._shards: dict[str, ShardDurability] = {}
        self.detector = FailureDetector(spec.detector_timeout_s)
        self.checkpoints_written = 0
        self.restores = 0
        # Cadence checkpoints persist off the delivery path: the snapshot
        # is captured (and deep-copied) synchronously while the shard is
        # quiescent, then one background worker serializes and writes the
        # archives in order.  Every consumer of the manifest (restore,
        # retire, explicit checkpoint, sync_all, close) drains the queue
        # first, so nothing ever observes a checkpoint that is counted
        # but not yet durable.
        self._saves: queue.Queue | None = None
        self._saver: threading.Thread | None = None
        # Written by the saver thread, consumed by flush_saves on the
        # gateway thread; the queue's join() alone orders the handoff but
        # does not make the swap-and-clear atomic.
        self._saver_lock = threading.Lock()
        self._saver_error: BaseException | None = None  # guarded-by: _saver_lock

    # ------------------------------------------------------------------
    # Background checkpoint persistence
    # ------------------------------------------------------------------
    def _saver_loop(self) -> None:
        while True:
            item = self._saves.get()
            if item is None:
                self._saves.task_done()
                return
            store, arrays, meta, wal_seq, clock, now = item
            try:
                store.save_snapshot(
                    arrays, meta, wal_seq=wal_seq, clock=clock, now=now
                )
            except BaseException as error:  # surfaced on the next drain
                with self._saver_lock:
                    self._saver_error = error
            finally:
                self._saves.task_done()

    def _enqueue_save(self, bundle: ShardDurability, server, now: float) -> None:
        arrays, meta = snapshot_state(server)
        copies = {key: np.array(value, copy=True) for key, value in arrays.items()}
        if self._saves is None:
            self._saves = queue.Queue(maxsize=8)
            self._saver = threading.Thread(
                target=self._saver_loop, name="ckpt-saver", daemon=True
            )
            self._saver.start()
        self._saves.put(
            (
                bundle.store,
                copies,
                meta,
                int(bundle.wal.next_seq),
                int(server.clock),
                float(now),
            )
        )

    def flush_saves(self) -> None:
        """Block until every queued checkpoint archive is on disk."""
        if self._saves is not None:
            self._saves.join()
        with self._saver_lock:
            error, self._saver_error = self._saver_error, None
        if error is not None:
            raise error

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    def wal_dir(self, shard_id: str) -> Path:
        return self.root / shard_id / "wal"

    def checkpoint_dir(self, shard_id: str) -> Path:
        return self.root / shard_id / "checkpoints"

    def has(self, shard_id: str) -> bool:
        return shard_id in self._shards

    def shard(self, shard_id: str) -> ShardDurability:
        return self._shards[shard_id]

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _open_wal(self, shard_id: str) -> WriteAheadLog:
        return WriteAheadLog(self.wal_dir(shard_id), fsync=self.spec.fsync)

    def _open_store(self, shard_id: str) -> CheckpointStore:
        return CheckpointStore(self.checkpoint_dir(shard_id))

    def attach(self, shard_id: str, server, now: float = 0.0) -> ShardDurability:
        """Arm a shard with a WAL + checkpoint store; anchor-checkpoint it.

        The anchor snapshot covers whatever state the shard already holds
        (a joining shard's blended parameters, a warm server handed in at
        construction), so recovery never depends on the factory alone
        reproducing pre-attach history.
        """
        if shard_id in self._shards:
            raise ValueError(f"shard {shard_id!r} already has durability attached")
        wal = self._open_wal(shard_id)
        store = self._open_store(shard_id)
        bundle = ShardDurability(
            shard_id=shard_id,
            wal=wal,
            store=store,
            last_checkpoint_clock=server.clock,
        )
        self._shards[shard_id] = bundle
        server.wal = wal
        server.optimizer.wal = wal
        store.save(server, wal_seq=wal.next_seq, now=now)
        self.checkpoints_written += 1
        self.detector.register(shard_id, now)
        return bundle

    def maybe_checkpoint(self, shard_id: str, server, now: float = 0.0) -> bool:
        """Checkpoint when the cadence has elapsed; True if one was taken.

        The snapshot is captured here, bit for bit; the archive write
        happens on the background saver so the delivery path only pays
        for the state copy.
        """
        bundle = self._shards.get(shard_id)
        if bundle is None:
            return False
        if (
            server.clock - bundle.last_checkpoint_clock
            < self.spec.checkpoint_every_updates
        ):
            return False
        self._enqueue_save(bundle, server, now)
        bundle.last_checkpoint_clock = server.clock
        self.checkpoints_written += 1
        return True

    # hot-path
    def on_delivery(
        self, shard_id: str, shard, entries: list, batch: list, pre_clock: int,
        now: float, start: float, end: float,
    ) -> None:
        """Delivery observer: cadence checkpoint (lane jobs run inline on
        the caller's thread, so the snapshot sees a quiescent shard) and
        a beat — a delivery is proof of life."""
        self.maybe_checkpoint(shard_id, shard, now=now)
        self.detector.beat(shard_id, now)

    def checkpoint(self, shard_id: str, server, now: float = 0.0) -> None:
        """Write a snapshot unconditionally, synchronously."""
        self.flush_saves()
        bundle = self._shards[shard_id]
        bundle.store.save(server, wal_seq=bundle.wal.next_seq, now=now)
        bundle.last_checkpoint_clock = server.clock
        self.checkpoints_written += 1

    def retire(self, shard_id: str, server, now: float = 0.0) -> None:
        """Planned removal: flush the WAL, final checkpoint, detach.

        Leaves the durable directory intact — a retired shard's history
        can be inspected or restored exactly like a crashed one's.  Not a
        failure: the detector just stops watching.
        """
        self.detector.deregister(shard_id)
        bundle = self._shards.get(shard_id)
        if bundle is None:
            return
        bundle.wal.sync()
        self.checkpoint(shard_id, server, now=now)
        self.detach(shard_id)
        server.wal = None
        server.optimizer.wal = None

    def detach(self, shard_id: str) -> None:
        """Close and forget a shard's attachments (dirs stay on disk)."""
        bundle = self._shards.pop(shard_id, None)
        if bundle is not None:
            bundle.wal.close()

    def drop_attachment(self, shard_id: str) -> None:
        """Forget a crashed shard's handles WITHOUT flushing them.

        A crash means the in-memory server is gone; its WAL file handle is
        simply abandoned (the on-disk records up to the last completed
        append are intact by framing) and recovery reopens the directory.
        """
        self._shards.pop(shard_id, None)

    def restore(self, shard_id: str, server, now: float = 0.0) -> RestoreReport:
        """Failover: rebuild a shard's state onto ``server`` and rearm it.

        ``server`` must be factory-fresh with no WAL attached; the WAL
        tail is streamed into it one record at a time, then the same WAL
        directory is reopened by a header-only scan (appends resume at
        the next sequence) and a post-restore checkpoint bounds the next
        recovery's replay tail.  The detector counts the restore as the
        shard's first beat back.
        """
        if shard_id in self._shards:
            raise ValueError(f"shard {shard_id!r} still attached; detach first")
        self.flush_saves()
        store = self._open_store(shard_id)
        report = restore_shard(server, store, self.wal_dir(shard_id))
        wal = self._open_wal(shard_id)
        bundle = ShardDurability(
            shard_id=shard_id,
            wal=wal,
            store=store,
            last_checkpoint_clock=server.clock,
        )
        self._shards[shard_id] = bundle
        server.wal = wal
        server.optimizer.wal = wal
        store.save(server, wal_seq=wal.next_seq, now=now)
        self.checkpoints_written += 1
        self.restores += 1
        self.detector.revive(shard_id, now)
        return report

    def sync_all(self) -> None:
        """Force every attached WAL's records (and queued checkpoint
        archives) to disk (end of run)."""
        self.flush_saves()
        for bundle in self._shards.values():
            bundle.wal.sync()

    def close(self) -> None:
        """Close every WAL handle and stop the saver (end of run)."""
        self.flush_saves()
        if self._saves is not None:
            self._saves.put(None)
            self._saver.join()
            self._saves = None
            self._saver = None
        for shard_id in list(self._shards):
            self.detach(shard_id)
