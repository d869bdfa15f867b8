"""Seeded inputs and the bench's own device client.

Everything the tier receives is made here from ``--seed``: gradients
(f32-exact float64, so the wire rounding is lossless), label histograms,
I-Prof measurements and the staleness draws folded into ``pull_step``.
RESULT frames are packed *before* any timed window; the timed client only
writes bytes, parses acks and takes timestamps.

The client is built from public :mod:`repro.frontend.framing` functions
only — it is a second implementation of the device side, independent of
``repro.frontend.loadgen``.
"""

from __future__ import annotations

import asyncio
import time
from collections.abc import Iterator

import numpy as np

from repro.frontend import framing
from repro.frontend.framing import FrameDecoder, FrameType, Hello
from repro.frontend.loadgen import DEFAULT_FEATURES
from repro.server.codec import VectorCodec
from repro.server.protocol import TaskResult

from bench.workloads import (
    BATCH_SIZE,
    NUM_LABELS,
    STALENESS_MU,
    STALENESS_SIGMA,
    Workload,
)

__all__ = ["DEVICE_MODEL", "BenchClient", "prepack", "results"]

DEVICE_MODEL = "Galaxy S7"
#: Uplink codec: f32, deflate level 0 (stored blocks) — the device does
#: not spend its battery compressing incompressible gradients.
UPLINK = VectorCodec(precision="f32", compression_level=0)


def results(
    workload: Workload, seed: int, conn: int, worker_id: int, count: int
) -> Iterator[TaskResult]:
    """The ``count`` uploads of connection ``conn``, in send order.

    Upload ``i`` lands in its shard's batch ``i // BATCH_SIZE`` (one
    connection per shard, one model update per batch), so ``pull_step``
    is that clock minus a Gaussian staleness draw: the applied staleness
    is the seeded draw, clamped at 0.
    """
    rng = np.random.default_rng([seed, conn])
    label_mix = rng.dirichlet(np.full(NUM_LABELS, 0.5))
    for i in range(count):
        batch_size = int(rng.integers(8, 65))
        staleness = max(0, round(rng.normal(STALENESS_MU, STALENESS_SIGMA)))
        yield TaskResult(
            worker_id=worker_id,
            device_model=DEVICE_MODEL,
            features=DEFAULT_FEATURES,
            pull_step=max(0, i // BATCH_SIZE - staleness),
            gradient=rng.standard_normal(workload.dimension, dtype=np.float32).astype(
                np.float64
            ),
            label_counts=rng.multinomial(batch_size, label_mix).astype(np.float64),
            batch_size=batch_size,
            computation_time_s=batch_size * float(rng.uniform(0.02, 0.05)),
            energy_percent=batch_size * 1e-4,
        )


def prepack(workload: Workload, seed: int, conn: int, count: int) -> list[bytes]:
    """RESULT frames of one connection; frame ``i`` carries ``seq == i``."""
    # worker_id is not on the RESULT wire (HELLO carries it).
    return [
        framing.pack_result(seq, result, UPLINK)
        for seq, result in enumerate(results(workload, seed, conn, 0, count))
    ]


class _ClientDecoder(FrameDecoder):
    """The client's decoder keeps the original ``feed``.

    A traced trial patches ``FrameDecoder.feed`` to time the *server's*
    frame parsing; binding the unpatched function here at import keeps
    client-side parsing out of that ledger.
    """

    feed = FrameDecoder.feed


class BenchClient:
    """One device connection: handshake, timed sends, ack bookkeeping."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self.reader = reader
        self.writer = writer
        self._decoder = _ClientDecoder()
        self.sent = 0
        self.acked = 0
        #: OVERLOADED / REJECTION / ERROR frames — any of them fails a run.
        self.refused = 0
        self._origin: list[float] = []  # per seq: write time, or due time when paced
        self.latency_s: list[float] = []  # per seq, filled on ack
        self.ack_at: list[float] = []
        self.late_s: list[float] = []  # paced: write time minus due time
        self._sending = False

    @classmethod
    async def connect(cls, host: str, port: int, worker_id: int) -> "BenchClient":
        reader, writer = await asyncio.open_connection(host, port)
        client = cls(reader, writer)
        writer.write(framing.pack_hello(Hello(worker_id, DEVICE_MODEL)))
        while True:
            data = await reader.read(65536)
            if not data:
                raise ConnectionError("frontend closed the connection at handshake")
            for ftype, _flags, body in client._decoder.feed(data):
                if ftype != FrameType.WELCOME:
                    raise ConnectionError(f"handshake answered with frame 0x{ftype:02X}")
                framing.unpack_welcome(body)
                return client

    def _begin(self, count: int) -> None:
        self._origin = [0.0] * count
        self.latency_s = [float("nan")] * count
        self.ack_at = [float("nan")] * count

    def _write(self, seq: int, frame: bytes, origin: float | None = None) -> float:
        now = time.perf_counter()
        self._origin[seq] = now if origin is None else origin
        self.writer.write(frame)
        self.sent += 1
        return now

    async def _read_acks(self) -> None:
        data = await self.reader.read(65536)
        if not data:
            raise ConnectionError("frontend closed the connection mid-run")
        for ftype, _flags, body in self._decoder.feed(data):
            if ftype == FrameType.RESULT_ACK:
                seq = framing.unpack_result_ack(body).seq
                now = time.perf_counter()
                self.ack_at[seq] = now
                self.latency_s[seq] = now - self._origin[seq]
                self.acked += 1
            elif ftype != FrameType.GOODBYE:
                self.refused += 1

    async def closed_loop(self, frames: list[bytes], window: int) -> None:
        """Saturation: keep ``window`` uploads in flight until all are acked."""
        self._begin(len(frames))
        while self.acked + self.refused < len(frames):
            while self.sent < len(frames) and self.sent - self.acked < window:
                self._write(self.sent, frames[self.sent])
            await self._read_acks()

    async def paced(
        self, frames: list[bytes], start_at: float, interval_s: float, max_backlog: int
    ) -> bool:
        """Open loop: frame ``k`` is due at ``start_at + k * interval_s``.

        Latency runs from the due instant, so a stall is charged to every
        upload it delays.  Returns False when the rung was abandoned: more
        than ``max_backlog`` uploads written but unacked.
        """
        self._begin(len(frames))
        self.late_s = []
        completed = True
        self._sending = True
        receiver = asyncio.ensure_future(self._receive_until_idle())
        try:
            for seq, frame in enumerate(frames):
                if self.sent - self.acked > max_backlog:
                    completed = False
                    break
                due = start_at + seq * interval_s
                # Always yields, so a generator running late still lets the
                # server (same loop) work through what it has been sent.
                await asyncio.sleep(max(0.0, due - time.perf_counter()))
                self.late_s.append(self._write(seq, frame, origin=due) - due)
        finally:
            self._sending = False
            await receiver
        return completed

    async def _receive_until_idle(self) -> None:
        # The last ack always follows the last write, so a read that is
        # waiting when the sender finishes is woken by that ack.
        while self._sending or self.acked + self.refused < self.sent:
            await self._read_acks()

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except ConnectionError:
            pass
