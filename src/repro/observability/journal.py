"""Structured event journal: the serving tier's decision record.

Every consequential decision the tier makes today — shedding a request at
the token bucket, steering a straggler, scaling the shard count, blending
shard models — either vanished or lived in a subsystem-private list.  The
journal gives them one typed, append-bounded home: each record is a frozen
dataclass with a ``kind`` tag and a flat ``to_dict()`` so the whole stream
exports as JSONL for offline analysis (``repro trace-report``).

The journal is a ring: the most recent ``capacity`` records are retained,
but per-kind counts are monotone, so "how many sheds happened" survives
eviction even when the shed records themselves rotated out.  The journal
is loop-confined: the event loop writes every serving-tier record, so
``record`` takes no lock.
"""

from __future__ import annotations

import json
import os
from collections import deque
from collections.abc import Iterable
from dataclasses import asdict, dataclass

__all__ = [
    "AdmissionShedRecord",
    "SteerRecord",
    "ScaleRecord",
    "SyncRoundRecord",
    "LaneShedRecord",
    "EvalRecord",
    "ShardCrashRecord",
    "FailoverStartRecord",
    "FailoverDoneRecord",
    "FrontendConnectionRecord",
    "FrontendDrainRecord",
    "EventJournal",
    "load_jsonl",
]


@dataclass(frozen=True)
class AdmissionShedRecord:
    """The token bucket refused a request, with the bucket state at refusal."""

    kind = "admission_shed"
    time: float
    worker_id: int
    tokens: float
    rate_per_s: float
    capacity: float


@dataclass(frozen=True)
class SteerRecord:
    """One routing decision of the deadline-aware router.

    ``action`` is ``steer`` (fresh straggler leaves its hash home),
    ``move`` (a sticky placement relocated) or ``release`` (a recovered
    device returned home); ``reason`` is the trigger; the loads are the
    router's scores at decision time — the evidence behind the choice.
    """

    kind = "steer"
    time: float
    worker_id: int
    action: str
    reason: str
    from_shard: str
    to_shard: str
    latency_ratio: float
    from_load: float
    to_load: float


@dataclass(frozen=True)
class ScaleRecord:
    """An elasticity membership change with its triggering window stats."""

    kind = "scale"
    time: float
    action: str  # "add" | "remove"
    shard_ids: tuple[str, ...]
    num_shards: int
    reason: str
    occupancy: float
    shed_rate: float
    backlog_s: float
    queue_depth: float


@dataclass(frozen=True)
class SyncRoundRecord:
    """One cross-shard synchronization round."""

    kind = "sync"
    time: float
    max_divergence: float
    num_shards: int
    weights: dict


@dataclass(frozen=True)
class LaneShedRecord:
    """A full runtime lane dropped a flushed micro-batch."""

    kind = "lane_shed"
    time: float
    shard_id: str
    batch_size: int
    queue_depth: int


@dataclass(frozen=True)
class EvalRecord:
    """A periodic accuracy evaluation of the consensus model."""

    kind = "eval"
    time: float
    accuracy: float
    model_updates: int


@dataclass(frozen=True)
class ShardCrashRecord:
    """A shard's in-memory state was lost (crash observed or injected)."""

    kind = "shard_crash"
    time: float
    shard_id: str
    clock: int
    detected_by: str  # "injection" | "detector"


@dataclass(frozen=True)
class FailoverStartRecord:
    """The gateway began restoring a dead shard."""

    kind = "failover_start"
    time: float
    shard_id: str
    epoch: int


@dataclass(frozen=True)
class FailoverDoneRecord:
    """A dead shard was rebuilt from checkpoint + WAL replay."""

    kind = "failover_done"
    time: float
    shard_id: str
    epoch: int
    recovery_s: float
    checkpoint_wal_seq: int
    replayed_records: int
    replayed_results: int
    restored_clock: int
    redelivered_results: int


@dataclass(frozen=True)
class FrontendConnectionRecord:
    """One device connection's lifetime as seen by the asyncio frontend.

    ``close_reason`` is one of ``"goodbye"`` (orderly GOODBYE exchange),
    ``"eof"`` (clean disconnect between frames), ``"torn"`` (disconnect
    mid-frame — bytes were buffered toward an incomplete frame),
    ``"protocol_error"`` (the server sent ERROR and closed) or
    ``"drain"`` (the server closed it during graceful shutdown).
    """

    kind = "frontend_connection"
    time: float
    session_id: int
    worker_id: int
    device_model: str
    close_reason: str
    requests: int
    results: int
    results_overloaded: int
    duration_s: float


@dataclass(frozen=True)
class FrontendDrainRecord:
    """Graceful frontend shutdown: accept stopped, uploads flushed, closed."""

    kind = "frontend_drain"
    time: float
    connections_closed: int
    results_received: int
    results_applied: int
    drain_s: float


class EventJournal:
    """Append-bounded, loop-confined ring of typed tier events.

    Beyond the in-memory ring, :meth:`stream_to` arms a write-through
    JSONL sink: every subsequent record is appended (and optionally
    fsynced) to disk the moment it is journaled, so records describing a
    failure — ``shard_crash``, ``failover_start`` — survive the crash
    they describe instead of depending on a clean export at exit.
    """

    def __init__(self, capacity: int = 8192) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self._events: deque = deque(maxlen=capacity)
        self._counts: dict[str, int] = {}
        self._recorded = 0
        self._stream = None
        self._stream_fsync = False

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record(self, event) -> None:
        """Append one typed record (anything with ``kind`` and fields)."""
        self._events.append(event)
        self._counts[event.kind] = self._counts.get(event.kind, 0) + 1
        self._recorded += 1
        if self._stream is not None:
            line = json.dumps(
                {"kind": event.kind, **asdict(event)}, default=_jsonable
            )
            self._stream.write(line + "\n")
            self._stream.flush()
            if self._stream_fsync:
                os.fsync(self._stream.fileno())

    def stream_to(self, path, fsync: bool = False) -> None:
        """Write every future record through to ``path`` as it happens.

        Appends to an existing file (a restarted run extends the stream).
        Without ``fsync`` each line is still flushed to the OS, so a
        process crash loses nothing; fsync additionally survives a
        machine crash at a per-record cost.
        """
        parent = os.path.dirname(os.fspath(path))
        if parent:
            os.makedirs(parent, exist_ok=True)
        if self._stream is not None:
            self._stream.close()
        self._stream = open(path, "a", encoding="utf-8")
        self._stream_fsync = fsync

    def close_stream(self) -> None:
        """Stop write-through streaming (the ring keeps recording)."""
        if self._stream is not None:
            self._stream.close()
            self._stream = None

    def admission_shed(
        self,
        time: float,
        worker_id: int,
        tokens: float,
        rate_per_s: float,
        capacity: float,
    ) -> None:
        self.record(
            AdmissionShedRecord(
                time=time,
                worker_id=worker_id,
                tokens=tokens,
                rate_per_s=rate_per_s,
                capacity=capacity,
            )
        )

    def steer(
        self,
        time: float,
        worker_id: int,
        action: str,
        reason: str,
        from_shard: str,
        to_shard: str,
        latency_ratio: float,
        from_load: float,
        to_load: float,
    ) -> None:
        self.record(
            SteerRecord(
                time=time,
                worker_id=worker_id,
                action=action,
                reason=reason,
                from_shard=from_shard,
                to_shard=to_shard,
                latency_ratio=latency_ratio,
                from_load=from_load,
                to_load=to_load,
            )
        )

    def scaling(self, event) -> None:
        """Fold an :class:`~repro.runtime.elasticity.ScalingEvent` in."""
        self.record(
            ScaleRecord(
                time=event.time,
                action=event.action,
                shard_ids=tuple(event.shard_ids),
                num_shards=event.num_shards,
                reason=event.reason,
                occupancy=event.occupancy,
                shed_rate=event.shed_rate,
                backlog_s=event.backlog_s,
                queue_depth=event.queue_depth,
            )
        )

    def sync_round(
        self, time: float, max_divergence: float, num_shards: int, weights: dict
    ) -> None:
        self.record(
            SyncRoundRecord(
                time=time,
                max_divergence=max_divergence,
                num_shards=num_shards,
                weights=dict(weights),
            )
        )

    def lane_shed(
        self, time: float, shard_id: str, batch_size: int, queue_depth: int
    ) -> None:
        self.record(
            LaneShedRecord(
                time=time,
                shard_id=shard_id,
                batch_size=batch_size,
                queue_depth=queue_depth,
            )
        )

    def evaluation(self, time: float, accuracy: float, model_updates: int) -> None:
        self.record(
            EvalRecord(time=time, accuracy=accuracy, model_updates=model_updates)
        )

    def shard_crash(
        self, time: float, shard_id: str, clock: int, detected_by: str
    ) -> None:
        self.record(
            ShardCrashRecord(
                time=time, shard_id=shard_id, clock=clock, detected_by=detected_by
            )
        )

    def frontend_connection(
        self,
        time: float,
        session_id: int,
        worker_id: int,
        device_model: str,
        close_reason: str,
        requests: int,
        results: int,
        results_overloaded: int,
        duration_s: float,
    ) -> None:
        self.record(
            FrontendConnectionRecord(
                time=time,
                session_id=session_id,
                worker_id=worker_id,
                device_model=device_model,
                close_reason=close_reason,
                requests=requests,
                results=results,
                results_overloaded=results_overloaded,
                duration_s=duration_s,
            )
        )

    def frontend_drain(
        self,
        time: float,
        connections_closed: int,
        results_received: int,
        results_applied: int,
        drain_s: float,
    ) -> None:
        self.record(
            FrontendDrainRecord(
                time=time,
                connections_closed=connections_closed,
                results_received=results_received,
                results_applied=results_applied,
                drain_s=drain_s,
            )
        )

    def failover_start(self, time: float, shard_id: str, epoch: int) -> None:
        self.record(
            FailoverStartRecord(time=time, shard_id=shard_id, epoch=epoch)
        )

    def failover_done(
        self,
        time: float,
        shard_id: str,
        epoch: int,
        recovery_s: float,
        checkpoint_wal_seq: int,
        replayed_records: int,
        replayed_results: int,
        restored_clock: int,
        redelivered_results: int,
    ) -> None:
        self.record(
            FailoverDoneRecord(
                time=time,
                shard_id=shard_id,
                epoch=epoch,
                recovery_s=recovery_s,
                checkpoint_wal_seq=checkpoint_wal_seq,
                replayed_records=replayed_records,
                replayed_results=replayed_results,
                restored_clock=restored_clock,
                redelivered_results=redelivered_results,
            )
        )

    # ------------------------------------------------------------------
    # Introspection + export
    # ------------------------------------------------------------------
    @property
    def events(self) -> list:
        """The retained records, oldest first (a copy)."""
        return list(self._events)

    @property
    def recorded(self) -> int:
        """Records ever journaled (not capped by the ring)."""
        return self._recorded

    def counts_by_kind(self) -> dict[str, int]:
        """Monotone per-kind totals (survive ring eviction)."""
        return dict(self._counts)

    def to_dicts(self) -> list[dict]:
        return [
            {"kind": event.kind, **asdict(event)} for event in self.events
        ]

    def export_jsonl(
        self,
        path,
        extra: Iterable[dict] = (),
        append: bool = False,
        fsync: bool = False,
    ) -> int:
        """Write retained events (plus ``extra`` dicts, e.g. finished
        traces) as one JSON object per line; returns lines written.

        ``append`` adds to an existing file instead of truncating it
        (periodic mid-run exports accumulate rather than erase), and
        ``fsync`` forces the lines to disk before returning — an export
        taken right before a risky operation then survives a machine
        crash, not just a process crash.
        """
        written = 0
        with open(path, "a" if append else "w", encoding="utf-8") as handle:
            for record in self.to_dicts():
                handle.write(json.dumps(record, default=_jsonable) + "\n")
                written += 1
            for record in extra:
                handle.write(json.dumps(record, default=_jsonable) + "\n")
                written += 1
            handle.flush()
            if fsync:
                os.fsync(handle.fileno())
        return written


def _jsonable(value):
    """JSON fallback: enums → their value, tuples/sets → lists."""
    if hasattr(value, "value"):
        return value.value
    if isinstance(value, (tuple, set)):
        return list(value)
    return str(value)


def load_jsonl(path) -> list[dict]:
    """Read a journal (or journal+traces) JSONL file back into dicts."""
    records: list[dict] = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records
