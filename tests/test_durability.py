"""Tests for the durability subsystem: WAL, checkpoints, restore, failover.

The property suite pins the core guarantee — crash at a random applied
index, restore from checkpoint + WAL replay, and the restored shard is
*bit-identical* to an uninterrupted run — across all four aggregation
presets, both vectorized backends, and an aggregation-window variant.
The oracle harness mirrors ``tests/test_vectorized_equivalence.py``
(local copies: tests/ has no ``__init__``).
"""

from __future__ import annotations

import hashlib
import json
import zlib
from pathlib import Path

import numpy as np
import pytest

from repro.core import make_adasgd, make_dynsgd, make_fedavg, make_ssgd
from repro.core.adasgd import GradientUpdate, stack_gradients
from repro.devices.device import DeviceFeatures
from repro.durability import (
    CheckpointStore,
    DurabilityManager,
    DurabilitySpec,
    FailureDetector,
    WriteAheadLog,
    checkpoint_summary,
    read_records,
    replay,
    restore_shard,
    snapshot_state,
    wal_summary,
)
from repro.gateway import Gateway, GatewayConfig
from repro.observability.journal import EventJournal, load_jsonl
from repro.profiler import IProf, SLO
from repro.server import FleetServer
from repro.server.protocol import (
    RejectionReason,
    TaskAssignment,
    TaskRejection,
    TaskRequest,
    TaskResult,
)

DIM = 16
NUM_LABELS = 5


def _server(optimizer) -> FleetServer:
    return FleetServer(optimizer, IProf(), SLO(time_seconds=3.0))


def _build(preset: str, vectorized: bool) -> FleetServer:
    if preset == "adasgd":
        optimizer = make_adasgd(
            np.zeros(DIM), num_labels=NUM_LABELS, learning_rate=0.05
        )
    elif preset == "dynsgd":
        optimizer = make_dynsgd(np.zeros(DIM), learning_rate=0.05)
    elif preset == "fedavg":
        optimizer = make_fedavg(np.zeros(DIM), learning_rate=0.05)
    elif preset == "ssgd":
        optimizer = make_ssgd(np.zeros(DIM), learning_rate=0.05)
    elif preset == "fedavg_k3":  # partial aggregation window in checkpoints
        optimizer = make_fedavg(np.zeros(DIM), learning_rate=0.05, aggregation_k=3)
    else:  # pragma: no cover - test bug
        raise ValueError(preset)
    optimizer.vectorized = vectorized
    return _server(optimizer)


PRESETS = ["adasgd", "dynsgd", "fedavg", "ssgd", "fedavg_k3"]


def _update(rng, pull_step: int, worker=None) -> GradientUpdate:
    return GradientUpdate(
        gradient=rng.normal(size=DIM),
        pull_step=pull_step,
        label_counts=rng.integers(0, 8, size=NUM_LABELS).astype(float),
        batch_size=int(rng.integers(1, 9)),
        worker_id=worker,
    )


def _script(seed: int, rounds: int = 24) -> list[tuple]:
    """A deterministic mixed workload: deliveries + parameter overwrites.

    Pull steps are bounded by a conservative clock lower bound (results
    so far / 4) so staleness stays non-negative under any
    ``aggregation_k`` the presets use.
    """
    rng = np.random.default_rng(seed)
    events: list[tuple] = []
    results = 0
    for _ in range(rounds):
        if events and rng.random() < 0.15:
            events.append(("params", rng.normal(size=DIM)))
            continue
        count = int(rng.integers(1, 5))
        floor = results // 4
        updates = [
            _update(
                rng,
                pull_step=max(0, floor - int(rng.integers(0, 3))),
                worker=int(rng.integers(0, 20)) if rng.random() < 0.7 else None,
            )
            for _ in range(count)
        ]
        batched = count > 1 or rng.random() < 0.5
        events.append(("apply", updates, batched))
        results += count
    return events


def _play(server: FleetServer, events: list[tuple], manager=None, shard_id=None):
    for index, event in enumerate(events):
        if event[0] == "params":
            server.optimizer.set_parameters(event[1])
        else:
            server._deliver(list(event[1]), batched=event[2])
        if manager is not None:
            manager.maybe_checkpoint(shard_id, server, now=float(index))


def _assert_bit_identical(actual: FleetServer, expected: FleetServer) -> None:
    """Full mutable-state equality, via the checkpoint snapshot itself.

    The staleness ring is an uninitialized buffer filled as observations
    arrive: only the first ``min(total, size)`` slots carry state, so
    equality is asserted over that prefix (the rest is allocator noise
    in a server that never crashed).
    """
    arrays_a, meta_a = snapshot_state(actual)
    arrays_e, meta_e = snapshot_state(expected)
    assert set(arrays_a) == set(arrays_e)
    for key in sorted(arrays_a):
        value_a, value_e = arrays_a[key], arrays_e[key]
        if key == "staleness_ring":
            valid = min(int(meta_a["tracker_total"]), value_a.size)
            value_a, value_e = value_a[:valid], value_e[:valid]
        np.testing.assert_array_equal(value_a, value_e, err_msg=key)
    assert meta_a == meta_e


# ----------------------------------------------------------------------
# Write-ahead log
# ----------------------------------------------------------------------
class TestWriteAheadLog:
    def test_roundtrip_apply_and_params(self, tmp_path):
        rng = np.random.default_rng(0)
        wal = WriteAheadLog(tmp_path / "wal")
        updates = [
            _update(rng, pull_step=3, worker=7),
            GradientUpdate(  # no labels, no worker: optional-field framing
                gradient=rng.normal(size=DIM),
                pull_step=0,
                label_counts=None,
                batch_size=4,
                worker_id=None,
            ),
        ]
        seq0 = wal.log_apply(updates, clock=5, batched=True)
        params = rng.normal(size=DIM)
        seq1 = wal.log_parameters(params, clock=6)
        wal.close()
        assert (seq0, seq1) == (0, 1)

        records = read_records(tmp_path / "wal")
        assert [r.kind for r in records] == ["apply", "params"]
        apply, overwrite = records
        assert apply.batched is True and apply.clock == 5
        decoded = apply.updates()
        assert len(decoded) == 2
        # Replay folds the decoded matrix itself, not a restacked copy.
        assert stack_gradients([u.gradient for u in decoded]) is apply.gradients
        np.testing.assert_array_equal(decoded[0].gradient, updates[0].gradient)
        np.testing.assert_array_equal(
            decoded[0].label_counts, updates[0].label_counts
        )
        assert decoded[0].worker_id == 7 and decoded[0].pull_step == 3
        assert decoded[1].worker_id is None and decoded[1].label_counts is None
        assert decoded[1].batch_size == 4
        np.testing.assert_array_equal(overwrite.parameters, params)

    def test_rotation_and_resume(self, tmp_path):
        rng = np.random.default_rng(1)
        wal = WriteAheadLog(tmp_path / "wal", segment_max_bytes=600)
        for step in range(8):
            wal.log_apply([_update(rng, pull_step=0)], clock=step, batched=False)
        wal.close()
        segments = sorted((tmp_path / "wal").glob("wal-*.seg"))
        assert len(segments) > 1  # 600 bytes cannot hold 8 gradient records
        records = read_records(tmp_path / "wal")
        assert [r.seq for r in records] == list(range(8))

        resumed = WriteAheadLog(tmp_path / "wal", segment_max_bytes=600)
        assert resumed.next_seq == 8
        resumed.log_apply([_update(rng, pull_step=0)], clock=8, batched=False)
        resumed.close()
        assert [r.seq for r in read_records(tmp_path / "wal")] == list(range(9))

    def test_start_seq_filters_prefix(self, tmp_path):
        rng = np.random.default_rng(2)
        wal = WriteAheadLog(tmp_path / "wal")
        for step in range(5):
            wal.log_apply([_update(rng, pull_step=0)], clock=step, batched=False)
        wal.close()
        tail = read_records(tmp_path / "wal", start_seq=3)
        assert [r.seq for r in tail] == [3, 4]

    def test_torn_tail_tolerated_and_truncated_on_reopen(self, tmp_path):
        rng = np.random.default_rng(3)
        wal = WriteAheadLog(tmp_path / "wal")
        for step in range(4):
            wal.log_apply([_update(rng, pull_step=0)], clock=step, batched=False)
        wal.close()
        segment = sorted((tmp_path / "wal").glob("wal-*.seg"))[0]
        intact_size = segment.stat().st_size
        with open(segment, "ab") as handle:
            handle.write(b"\xff\x00\x00\x00\x00\x00\x00\x00torn")

        # Reads stop at the torn frame; everything before it survives.
        summary = wal_summary(tmp_path / "wal")
        assert summary["intact"] is False
        assert summary["records"] == 4
        assert [r.seq for r in read_records(tmp_path / "wal")] == [0, 1, 2, 3]

        # Reopening truncates the tear so post-recovery appends stay
        # visible to the NEXT recovery.
        resumed = WriteAheadLog(tmp_path / "wal")
        assert segment.stat().st_size == intact_size
        assert resumed.next_seq == 4
        resumed.log_apply([_update(rng, pull_step=0)], clock=4, batched=False)
        resumed.close()
        summary = wal_summary(tmp_path / "wal")
        assert summary["intact"] is True
        assert [r.seq for r in read_records(tmp_path / "wal")] == [0, 1, 2, 3, 4]

    def test_crc_corruption_stops_read(self, tmp_path):
        rng = np.random.default_rng(4)
        wal = WriteAheadLog(tmp_path / "wal")
        for step in range(3):
            wal.log_apply([_update(rng, pull_step=0)], clock=step, batched=False)
        wal.close()
        segment = sorted((tmp_path / "wal").glob("wal-*.seg"))[0]
        data = bytearray(segment.read_bytes())
        data[-1] ^= 0xFF  # flip a byte inside the LAST record's payload
        segment.write_bytes(bytes(data))
        assert [r.seq for r in read_records(tmp_path / "wal")] == [0, 1]
        assert wal_summary(tmp_path / "wal")["intact"] is False

    def test_reads_zlib_bodies_from_earlier_builds(self, tmp_path):
        # Earlier builds could deflate record bodies (flag bit 1); the
        # appender writes raw now, but such logs must still restore.
        rng = np.random.default_rng(6)
        wal = WriteAheadLog(tmp_path / "wal")
        wal.log_apply(
            [_update(rng, pull_step=0) for _ in range(2)], clock=0, batched=True
        )
        wal.close()
        (original,) = read_records(tmp_path / "wal")
        segment = sorted((tmp_path / "wal").glob("wal-*.seg"))[0]
        raw = segment.read_bytes()
        payload = raw[12:]  # magic, then u32 length | u32 crc
        header = bytearray(payload[:28])
        header[1] |= 2
        deflated = bytes(header) + zlib.compress(payload[28:], 6)
        frame = np.array([len(deflated), zlib.crc32(deflated)], dtype="<u4")
        segment.write_bytes(raw[:4] + frame.tobytes() + deflated)
        (record,) = read_records(tmp_path / "wal")
        assert record.batched
        np.testing.assert_array_equal(record.gradients, original.gradients)
        np.testing.assert_array_equal(record.pull_steps, original.pull_steps)
        np.testing.assert_array_equal(record.label_counts, original.label_counts)

    def test_summary_counts(self, tmp_path):
        rng = np.random.default_rng(5)
        wal = WriteAheadLog(tmp_path / "wal")
        wal.log_apply(
            [_update(rng, pull_step=0) for _ in range(3)], clock=0, batched=True
        )
        wal.log_parameters(rng.normal(size=DIM), clock=3)
        wal.log_apply([_update(rng, pull_step=1)], clock=3, batched=False)
        wal.close()
        summary = wal_summary(tmp_path / "wal")
        assert summary["records"] == 3
        assert summary["apply_records"] == 2
        assert summary["param_records"] == 1
        assert summary["results_logged"] == 4
        assert summary["last_clock"] == 3
        assert summary["intact"] is True

    def test_validation(self, tmp_path):
        with pytest.raises(ValueError):
            WriteAheadLog(tmp_path / "wal", segment_max_bytes=0)

    def test_segment_bytes_pinned(self, tmp_path):
        """The on-disk format and the append path are frozen: a seeded
        mix of apply records (every label-histogram framing) and params
        records hashes to the digest the format was pinned at."""
        rng = np.random.default_rng(2024)
        wal = WriteAheadLog(tmp_path / "wal")
        for step in range(12):
            if step % 5 == 4:
                wal.log_parameters(rng.normal(size=DIM), clock=step)
                continue
            count = 1 + step % 4
            updates = [
                GradientUpdate(
                    gradient=rng.normal(size=DIM),
                    pull_step=int(rng.integers(0, step + 1)),
                    label_counts=(
                        None
                        if (step + row) % 3 == 0
                        else rng.integers(0, 8, size=NUM_LABELS).astype(float)
                    ),
                    batch_size=int(rng.integers(1, 9)),
                    worker_id=None if row == 1 else int(rng.integers(0, 50)),
                )
                for row in range(count)
            ]
            wal.log_apply(updates, clock=step, batched=count > 1)
        wal.close()
        (segment,) = sorted((tmp_path / "wal").glob("wal-*.seg"))
        assert hashlib.sha256(segment.read_bytes()).hexdigest() == (
            "fbfca64d1c83353b3d0eea94f9e71ed87308abc425902711b10db96e9e1930f3"
        )

    def test_delivery_past_iov_max_round_trips(self, tmp_path):
        """600 rows frame into 2·600 + 5 writev buffers, past Linux's
        IOV_MAX of 1024: the record still lands whole and bit-exact."""
        rng = np.random.default_rng(7)
        updates = [_update(rng, pull_step=0, worker=row) for row in range(600)]
        wal = WriteAheadLog(tmp_path / "wal")
        assert wal.log_apply(updates, clock=0, batched=True) == 0
        wal.log_parameters(rng.normal(size=DIM), clock=600)
        wal.close()
        apply, overwrite = read_records(tmp_path / "wal")
        assert overwrite.seq == 1 and apply.batched
        np.testing.assert_array_equal(
            apply.gradients, np.stack([u.gradient for u in updates])
        )
        np.testing.assert_array_equal(
            apply.label_counts, np.stack([u.label_counts for u in updates])
        )
        assert apply.worker_ids.tolist() == list(range(600))
        assert apply.batch_sizes.tolist() == [u.batch_size for u in updates]


# ----------------------------------------------------------------------
# Bounded reads: memory follows the frame, not the log
# ----------------------------------------------------------------------
WIDE_DIM = 4096
WIDE_ROWS = 8
LOG_RECORDS = 64
TAIL_RECORDS = 8
RECORD_BYTES = WIDE_ROWS * WIDE_DIM * 8  # one record's gradient matrix


def _wide_server() -> FleetServer:
    return _server(make_fedavg(np.zeros(WIDE_DIM), learning_rate=0.05))


@pytest.fixture
def wide_log(tmp_path):
    """A 64-record log of 8×4096 f64 rows (16 MiB of gradients) whose
    newest checkpoint leaves an 8-record tail, and the live server that
    wrote it."""
    rng = np.random.default_rng(64)
    live = _wide_server()
    wal = WriteAheadLog(tmp_path / "wal")
    live.wal = live.optimizer.wal = wal
    store = CheckpointStore(tmp_path / "ckpt")
    for index in range(LOG_RECORDS):
        if index == LOG_RECORDS - TAIL_RECORDS:
            store.save(live, wal_seq=wal.next_seq)
        updates = [
            GradientUpdate(
                gradient=rng.normal(size=WIDE_DIM),
                pull_step=0,
                label_counts=None,
                batch_size=8,
                worker_id=row,
            )
            for row in range(WIDE_ROWS)
        ]
        live._deliver(updates, batched=True)
    wal.close()
    return tmp_path, live


class TestBoundedReads:
    """Reopen, restore and inspection each peak at a few records' worth
    of traced memory on a 64-record log; reading the log whole would
    cost over 64."""

    def test_reopen_reads_headers_only(self, wide_log, traced_peak):
        root, _ = wide_log
        with traced_peak() as trace:
            wal = WriteAheadLog(root / "wal")
        wal.close()
        assert wal.next_seq == LOG_RECORDS
        assert trace.peak <= TAIL_RECORDS * RECORD_BYTES

    def test_restore_streams_the_tail(self, wide_log, traced_peak):
        root, live = wide_log
        restored = _wide_server()
        store = CheckpointStore(root / "ckpt")
        with traced_peak() as trace:
            report = restore_shard(restored, store, root / "wal")
        assert report.checkpoint_wal_seq == LOG_RECORDS - TAIL_RECORDS
        assert report.replayed_records == TAIL_RECORDS
        assert report.replayed_results == TAIL_RECORDS * WIDE_ROWS
        _assert_bit_identical(restored, live)
        assert trace.peak <= TAIL_RECORDS * RECORD_BYTES

    def test_summary_reads_headers_only(self, wide_log, traced_peak):
        root, _ = wide_log
        with traced_peak() as trace:
            summary = wal_summary(root / "wal")
        assert summary["records"] == LOG_RECORDS
        assert summary["results_logged"] == LOG_RECORDS * WIDE_ROWS
        assert summary["intact"] is True
        assert trace.peak <= TAIL_RECORDS * RECORD_BYTES


# ----------------------------------------------------------------------
# Checkpoints
# ----------------------------------------------------------------------
class TestCheckpointStore:
    def test_snapshot_roundtrip_bit_identical(self, tmp_path):
        source = _build("adasgd", vectorized=True)
        _play(source, _script(seed=10))
        store = CheckpointStore(tmp_path / "ckpt")
        store.save(source, wal_seq=17, now=4.5)

        target = _build("adasgd", vectorized=True)
        assert store.load_latest_into(target) == 17
        _assert_bit_identical(target, source)

        # The restored server keeps evolving identically.
        more = _script(seed=11, rounds=6)
        _play(source, more)
        _play(target, more)
        _assert_bit_identical(target, source)

    def test_manifest_prune_keeps_newest(self, tmp_path):
        server = _build("fedavg", vectorized=True)
        store = CheckpointStore(tmp_path / "ckpt", keep=2)
        for step in range(4):
            _play(server, _script(seed=20 + step, rounds=2))
            store.save(server, wal_seq=step * 3, now=float(step))
        entries = store.manifest()
        assert len(entries) == 2
        assert [e["wal_seq"] for e in entries] == [6, 9]
        archives = sorted(p.name for p in (tmp_path / "ckpt").glob("*.npz"))
        assert archives == [e["file"] for e in entries]
        assert store.latest()["wal_seq"] == 9
        summary = checkpoint_summary(tmp_path / "ckpt")
        assert summary["count"] == 2 and summary["latest_wal_seq"] == 9

    def test_empty_store_means_replay_from_origin(self, tmp_path):
        server = _build("fedavg", vectorized=True)
        assert CheckpointStore(tmp_path / "ckpt").load_latest_into(server) == 0

    def test_shape_mismatch_rejected(self, tmp_path):
        source = _build("fedavg", vectorized=True)
        store = CheckpointStore(tmp_path / "ckpt")
        store.save(source, wal_seq=0)
        wrong = _server(make_fedavg(np.zeros(DIM + 1)))
        with pytest.raises(ValueError):
            store.load_latest_into(wrong)


# ----------------------------------------------------------------------
# Failure detector
# ----------------------------------------------------------------------
class TestFailureDetector:
    def test_silence_past_timeout_marks_dead(self):
        detector = FailureDetector(timeout_s=10.0)
        detector.register("a", now=0.0)
        detector.register("b", now=0.0)
        detector.beat("a", now=8.0)
        assert detector.suspects(now=11.0) == ["b"]
        assert detector.is_dead("b") and not detector.is_dead("a")
        assert detector.suspects(now=11.0) == []  # newly-dead only once
        assert detector.dead() == ["b"]

    def test_dead_stays_dead_until_revived(self):
        detector = FailureDetector(timeout_s=5.0)
        detector.register("a", now=0.0)
        assert detector.suspects(now=6.0) == ["a"]
        detector.beat("a", now=7.0)  # a zombie beat must not resurrect it
        assert detector.is_dead("a")
        detector.revive("a", now=8.0)
        assert not detector.is_dead("a")
        assert detector.suspects(now=12.0) == []  # revival counted as a beat

    def test_deregister_is_not_a_failure(self):
        detector = FailureDetector(timeout_s=5.0)
        detector.register("a", now=0.0)
        detector.deregister("a")
        assert detector.suspects(now=100.0) == []
        assert detector.silence_s("a", now=100.0) == 0.0

    def test_beats_never_rewind(self):
        detector = FailureDetector(timeout_s=5.0)
        detector.register("a", now=10.0)
        detector.beat("a", now=4.0)  # stale beat from an out-of-order pump
        assert detector.silence_s("a", now=12.0) == 2.0

    def test_validation(self):
        with pytest.raises(ValueError):
            FailureDetector(timeout_s=0.0)


# ----------------------------------------------------------------------
# Property: crash anywhere, restore bit-identically
# ----------------------------------------------------------------------
class TestCrashRestoreProperty:
    @pytest.mark.parametrize("vectorized", [True, False])
    @pytest.mark.parametrize("preset", PRESETS)
    def test_restore_matches_uninterrupted_run(self, preset, vectorized, tmp_path):
        seed = zlib.crc32(f"{preset}-{vectorized}".encode()) % (2**31)
        rng = np.random.default_rng(seed)
        events = _script(seed=seed)
        spec = DurabilitySpec(
            root_dir=tmp_path / "dur", checkpoint_every_updates=4
        )
        manager = DurabilityManager(spec)

        for trial in range(3):  # crash at three random applied indices
            shard_id = f"shard-{trial}"
            crash_at = int(rng.integers(1, len(events)))

            live = _build(preset, vectorized)
            manager.attach(shard_id, live, now=0.0)
            _play(live, events[:crash_at], manager=manager, shard_id=shard_id)
            manager.drop_attachment(shard_id)  # crash: state + handles lost

            oracle = _build(preset, vectorized)
            _play(oracle, events[:crash_at])

            restored = _build(preset, vectorized)
            report = manager.restore(shard_id, restored, now=1.0)
            _assert_bit_identical(restored, oracle)
            assert report.final_clock == restored.clock
            assert restored.wal is manager.shard(shard_id).wal

            # Post-recovery traffic continues bit-identically (and keeps
            # being logged: a SECOND restore must see it too).
            _play(restored, events[crash_at:], manager=manager, shard_id=shard_id)
            _play(oracle, events[crash_at:])
            _assert_bit_identical(restored, oracle)

            manager.drop_attachment(shard_id)
            twice = _build(preset, vectorized)
            manager.restore(shard_id, twice, now=2.0)
            _assert_bit_identical(twice, oracle)
            manager.detach(shard_id)

    def test_wal_only_restore_without_checkpoint(self, tmp_path):
        events = _script(seed=77)
        live = _build("dynsgd", vectorized=True)
        wal = WriteAheadLog(tmp_path / "wal")
        live.wal = wal
        live.optimizer.wal = wal
        _play(live, events)
        wal.close()

        oracle = _build("dynsgd", vectorized=True)
        _play(oracle, events)

        restored = _build("dynsgd", vectorized=True)
        report = restore_shard(
            restored, CheckpointStore(tmp_path / "ckpt"), tmp_path / "wal"
        )
        assert report.checkpoint_wal_seq == 0
        assert report.replayed_records == len(read_records(tmp_path / "wal"))
        _assert_bit_identical(restored, oracle)

    def test_replay_refuses_attached_wal(self, tmp_path):
        server = _build("fedavg", vectorized=True)
        wal = WriteAheadLog(tmp_path / "wal")
        server.wal = wal
        server.optimizer.wal = wal
        with pytest.raises(ValueError):
            replay(server, [])
        wal.close()

    def test_manager_lifecycle_errors(self, tmp_path):
        manager = DurabilityManager(DurabilitySpec(root_dir=tmp_path / "dur"))
        server = _build("fedavg", vectorized=True)
        manager.attach("s", server, now=0.0)
        with pytest.raises(ValueError):
            manager.attach("s", server)
        with pytest.raises(ValueError):
            manager.restore("s", _build("fedavg", vectorized=True))
        manager.close()

    def test_spec_validation(self, tmp_path):
        with pytest.raises(ValueError):
            DurabilitySpec(root_dir=tmp_path, checkpoint_every_updates=0)
        with pytest.raises(ValueError):
            DurabilitySpec(root_dir=tmp_path, detector_timeout_s=0.0)


# ----------------------------------------------------------------------
# Gateway failover end to end
# ----------------------------------------------------------------------
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


def _result(worker_id: int, pull_step: int, seed: int = 0) -> TaskResult:
    rng = np.random.default_rng(seed * 1000 + worker_id)
    return TaskResult(
        worker_id=worker_id,
        device_model="Galaxy S7",
        features=_features(),
        pull_step=pull_step,
        gradient=rng.normal(size=DIM),
        label_counts=np.ones(NUM_LABELS),
        batch_size=8,
        computation_time_s=1.0,
        energy_percent=0.01,
    )


def _durable_gateway(tmp_path, **spec_kwargs) -> Gateway:
    spec_kwargs.setdefault("checkpoint_every_updates", 5)
    spec_kwargs.setdefault("detector_timeout_s", 10.0)
    return Gateway.from_spec(
        4,
        lambda i: _server(make_fedavg(np.zeros(DIM), learning_rate=0.1)),
        GatewayConfig(batch_size=2, batch_deadline_s=1.0, sync_every_s=1e9),
        durability=DurabilitySpec(root_dir=tmp_path / "dur", **spec_kwargs),
    )


def _round(gateway: Gateway, now: float, workers, seed: int = 0) -> None:
    """One request/result round per worker at virtual time ``now``."""
    for worker_id in workers:
        response = gateway.handle_request(_request(worker_id), now=now)
        if isinstance(response, TaskAssignment):
            gateway.handle_result(
                _result(worker_id, response.pull_step, seed=seed), now=now
            )


class TestGatewayFailover:
    def test_crash_detect_failover_zero_acked_loss(self, tmp_path):
        gateway = _durable_gateway(tmp_path)
        workers = range(24)
        for step in range(3):
            _round(gateway, now=float(step), workers=workers, seed=step)

        victim = sorted(gateway.shards)[0]
        clock_before = gateway.clock
        applied_before = gateway.results_applied
        gateway.crash_shard(victim, now=3.0)
        assert victim not in gateway.shards
        # Monotone tier counters: the crashed shard's last observed
        # counts hold their place during the outage.
        assert gateway.clock == clock_before
        assert gateway.results_applied == applied_before

        # Requests routed to the crashed shard bounce; results for it
        # (in-flight leases from before the crash) are parked.
        rejected = 0
        for worker_id in workers:
            response = gateway.handle_request(_request(worker_id), now=4.0)
            if isinstance(response, TaskRejection):
                assert response.reason == RejectionReason.OVERLOADED
                rejected += 1
            else:
                gateway.handle_result(
                    _result(worker_id, response.pull_step, seed=9), now=4.0
                )
        assert rejected > 0
        assert gateway._unavailable.value == rejected

        # Silence past the detector timeout -> detected dead -> auto
        # failover from the pump, under the SAME shard id.
        gateway.heartbeat(now=20.0)
        assert victim in gateway.shards
        assert gateway.durability.restores == 1
        assert not gateway.durability.detector.is_dead(victim)
        kinds = gateway.journal.counts_by_kind()
        assert kinds["shard_crash"] == 2  # injection + detector verdicts
        assert kinds["failover_start"] == 1
        assert kinds["failover_done"] == 1
        assert gateway.clock >= clock_before

        _round(gateway, now=21.0, workers=workers, seed=21)
        gateway.finalize(now=30.0)
        # Zero acked-upload loss: every accepted result reached a model.
        assert gateway.results_applied == gateway.results_received()

        done = [e for e in gateway.journal.events if e.kind == "failover_done"]
        assert done[0].shard_id == victim
        assert done[0].restored_clock > 0
        assert done[0].recovery_s == pytest.approx(20.0 - 3.0)

    def test_finalize_forces_failover_of_crashed_shards(self, tmp_path):
        gateway = _durable_gateway(tmp_path)
        _round(gateway, now=0.0, workers=range(16))
        victim = sorted(gateway.shards)[-1]
        gateway.crash_shard(victim, now=1.0)
        gateway.finalize(now=2.0)  # before the detector timeout
        assert victim in gateway.shards
        assert gateway.durability.restores == 1
        assert gateway.results_applied == gateway.results_received()

    def test_manual_failover_when_auto_off(self, tmp_path):
        gateway = _durable_gateway(tmp_path, auto_failover=False)
        _round(gateway, now=0.0, workers=range(16))
        victim = sorted(gateway.shards)[0]
        gateway.crash_shard(victim, now=1.0)
        gateway.heartbeat(now=50.0)
        assert gateway.durability.detector.is_dead(victim)  # detected ...
        assert victim not in gateway.shards  # ... but not auto-restored
        report = gateway.failover(victim, now=51.0)
        assert victim in gateway.shards
        # Parked results are redelivered after the restore, so the live
        # clock may already be past the replayed one.
        assert gateway.shards[victim].clock >= report.final_clock

    def test_failover_redelivers_past_iov_max(self, tmp_path):
        """600 results parked for one crashed shard are redelivered as
        one batch — one WAL record past IOV_MAX buffers — and every one
        of those acked uploads still reaches the model."""
        gateway = _durable_gateway(tmp_path, auto_failover=False)
        _round(gateway, now=0.0, workers=range(16))
        victim = sorted(gateway.shards)[0]
        worker = next(w for w in range(1000) if gateway.shard_for(w) == victim)
        gateway.crash_shard(victim, now=1.0)
        for index in range(600):
            gateway.handle_result(_result(worker, 0, seed=index), now=2.0)
        gateway.failover(victim, now=3.0)
        gateway.finalize(now=4.0)
        assert gateway.results_applied == gateway.results_received()

    def test_failover_requires_a_crash(self, tmp_path):
        gateway = _durable_gateway(tmp_path)
        with pytest.raises(ValueError):
            gateway.failover(sorted(gateway.shards)[0])
        with pytest.raises(KeyError):
            gateway.crash_shard("no-such-shard")

    def test_crash_needs_durability(self):
        gateway = Gateway.from_spec(
            2,
            lambda i: _server(make_fedavg(np.zeros(DIM))),
            GatewayConfig(batch_size=1),
        )
        with pytest.raises(ValueError):
            gateway.crash_shard(sorted(gateway.shards)[0])

    def test_retired_shard_is_restorable(self, tmp_path):
        """Planned removal and crash recovery share one durable format."""
        gateway = _durable_gateway(tmp_path)
        for step in range(3):
            _round(gateway, now=float(step), workers=range(20), seed=step)
        before = set(gateway.shards)
        retired_id = gateway.scale_down(now=5.0)
        assert retired_id in before and retired_id not in gateway.shards

        retired = checkpoint_summary(tmp_path / "dur" / retired_id / "checkpoints")
        assert retired["count"] >= 1

        # The final checkpoint captures the shard AFTER its farewell
        # sync: restoring it yields a live-equivalent server.
        fresh = _server(make_fedavg(np.zeros(DIM), learning_rate=0.1))
        report = restore_shard(
            fresh,
            CheckpointStore(tmp_path / "dur" / retired_id / "checkpoints"),
            tmp_path / "dur" / retired_id / "wal",
        )
        assert report.replayed_records == 0  # retirement checkpoint is final
        assert fresh.clock == retired["latest_clock"]
        assert not gateway.durability.detector.is_dead(retired_id)
        gateway.finalize(now=6.0)
        assert gateway.results_applied == gateway.results_received()

    def test_add_shard_gets_durability_attached(self, tmp_path):
        gateway = _durable_gateway(tmp_path)
        _round(gateway, now=0.0, workers=range(8))
        added = gateway.scale_up(now=1.0)
        assert gateway.durability.has(added)
        assert (tmp_path / "dur" / added / "checkpoints" / "manifest.json").exists()
        _round(gateway, now=2.0, workers=range(8))
        gateway.finalize(now=3.0)
        assert gateway.results_applied == gateway.results_received()

    def test_journal_streams_through_failover(self, tmp_path):
        journal_path = tmp_path / "dur" / "journal.jsonl"
        gateway = _durable_gateway(tmp_path, journal_path=journal_path)
        _round(gateway, now=0.0, workers=range(16))
        victim = sorted(gateway.shards)[0]
        gateway.crash_shard(victim, now=1.0)
        # The crash record is already on disk — BEFORE any recovery.
        kinds = [r["kind"] for r in load_jsonl(journal_path)]
        assert "shard_crash" in kinds
        gateway.heartbeat(now=30.0)
        kinds = [r["kind"] for r in load_jsonl(journal_path)]
        assert "failover_done" in kinds


# ----------------------------------------------------------------------
# Journal streaming / export satellites
# ----------------------------------------------------------------------
class TestJournalExport:
    def test_stream_to_writes_through(self, tmp_path):
        journal = EventJournal()
        path = tmp_path / "nested" / "dir" / "journal.jsonl"
        journal.stream_to(path)  # creates parent directories
        journal.evaluation(time=1.0, accuracy=0.5, model_updates=10)
        # On disk immediately, without close_stream or export.
        records = load_jsonl(path)
        assert len(records) == 1 and records[0]["kind"] == "eval"
        journal.shard_crash(time=2.0, shard_id="s", clock=3, detected_by="detector")
        assert len(load_jsonl(path)) == 2
        journal.close_stream()
        journal.evaluation(time=3.0, accuracy=0.6, model_updates=20)
        assert len(load_jsonl(path)) == 2  # stream closed; ring still records
        assert journal.recorded == 3

    def test_stream_appends_across_restarts(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        first = EventJournal()
        first.stream_to(path, fsync=True)
        first.evaluation(time=1.0, accuracy=0.1, model_updates=1)
        first.close_stream()
        second = EventJournal()
        second.stream_to(path)
        second.evaluation(time=2.0, accuracy=0.2, model_updates=2)
        second.close_stream()
        assert [r["time"] for r in load_jsonl(path)] == [1.0, 2.0]

    def test_export_append_and_fsync(self, tmp_path):
        journal = EventJournal()
        journal.evaluation(time=1.0, accuracy=0.5, model_updates=10)
        path = tmp_path / "out.jsonl"
        assert journal.export_jsonl(path) == 1
        assert journal.export_jsonl(path, append=True, fsync=True) == 1
        assert len(load_jsonl(path)) == 2
        assert journal.export_jsonl(path, extra=[{"kind": "x"}]) == 2
        assert len(load_jsonl(path)) == 2  # truncating export replaced the file


# ----------------------------------------------------------------------
# Builder + simulation plumbing
# ----------------------------------------------------------------------
class TestDurabilityPlumbing:
    def test_builder_spec_rides_to_gateway(self, tmp_path):
        from repro.api import FleetBuilder

        spec = (
            FleetBuilder(np.zeros(DIM))
            .algorithm("fedavg")
            .durability(root_dir=tmp_path / "dur", checkpoint_every_updates=7)
            .spec()
        )
        assert spec.durability.checkpoint_every_updates == 7
        gateway = Gateway.from_spec(2, spec, GatewayConfig(batch_size=1))
        assert gateway.durability is not None
        assert gateway.durability.detector is not None
        for shard_id in gateway.shards:
            assert gateway.durability.has(shard_id)
        gateway.finalize(now=1.0)

    def test_builder_rejects_spec_plus_kwargs(self, tmp_path):
        from repro.api import FleetBuilder

        with pytest.raises(ValueError):
            FleetBuilder().durability(
                DurabilitySpec(root_dir=tmp_path), root_dir=tmp_path
            )

    def test_fleet_sim_crash_config_validation(self):
        from repro.simulation.fleet_sim import FleetSimConfig

        with pytest.raises(ValueError):
            FleetSimConfig(crash_shard_at_s=-1.0)
