# repro: wall-clock
"""Frontend edge cases: torn frames, windows, drain, slow readers.

The deterministic tests drive :meth:`_Connection.dispatch` directly with
fabricated frames (no sockets, no TCP segmentation nondeterminism); the
socket tests run a real :class:`DeviceFrontend` on loopback inside
``asyncio.run``. Together they cover the behaviours docs/protocol.md
declares normative: handshake refusal (§4), per-connection windows and
OVERLOADED (§7.1), slow-reader pausing (§7.2), torn disconnects with
zero acked loss (§7.3), and graceful drain (§8).
"""

from __future__ import annotations

import asyncio
import dataclasses
import zlib

import numpy as np
import pytest

from repro.core import make_fedavg
from repro.devices.device import DeviceFeatures
from repro.frontend import framing
from repro.frontend.framing import (
    ErrorCode,
    FrameDecoder,
    FrameType,
    GoodbyeReason,
    Hello,
    OverloadScope,
    PROTOCOL_VERSION,
    ProtocolError,
)
from repro.frontend.harness import run_loopback
from repro.frontend.loadgen import DeviceClient, LoadGenConfig
from repro.frontend.server import DeviceFrontend, FrontendConfig
from repro.gateway import Gateway, GatewayConfig
from repro.profiler import IProf, SLO
from repro.server import FleetServer, VectorCodec
from repro.server.protocol import RejectionReason, TaskRequest, TaskResult
from repro.server.sparsification import ErrorFeedbackCompressor

DIM = 32
NUM_LABELS = 4


def _features() -> DeviceFeatures:
    return DeviceFeatures(
        available_memory_mb=1024.0,
        total_memory_mb=3072.0,
        temperature_c=30.0,
        sum_max_freq_ghz=8.0,
        energy_per_cpu_second=2e-4,
    )


def _request(worker_id: int = 0) -> TaskRequest:
    return TaskRequest(
        worker_id=worker_id,
        device_model="Galaxy S7",
        features=_features(),
        label_counts=np.ones(NUM_LABELS),
    )


def _result(worker_id: int = 0, gradient: np.ndarray | None = None) -> TaskResult:
    return TaskResult(
        worker_id=worker_id,
        device_model="Galaxy S7",
        features=_features(),
        pull_step=0,
        gradient=gradient if gradient is not None else np.ones(DIM) * 0.1,
        label_counts=np.ones(NUM_LABELS),
        batch_size=8,
        computation_time_s=1.0,
        energy_percent=0.01,
    )


def _gateway(**config_kwargs) -> Gateway:
    config_kwargs.setdefault("batch_size", 1)
    config_kwargs.setdefault("batch_deadline_s", 1e9)
    config_kwargs.setdefault("sync_every_s", 1e9)
    return Gateway.from_spec(
        2,
        lambda i: FleetServer(
            make_fedavg(np.zeros(DIM), learning_rate=0.1),
            IProf(),
            SLO(time_seconds=3.0),
        ),
        GatewayConfig(**config_kwargs),
    )


CODEC = VectorCodec(precision="f32", compression_level=0)


def _hello_frame(
    worker_id: int = 0, version: int = PROTOCOL_VERSION, max_inflight: int = 0
) -> bytes:
    return framing.pack_hello(
        Hello(
            worker_id=worker_id,
            device_model="Galaxy S7",
            version=version,
            max_inflight=max_inflight,
        )
    )


def _result_frame(seq: int, **kwargs) -> bytes:
    return framing.pack_result(seq, _result(**kwargs), CODEC)


class _StubWriter:
    """Captures writes; ``drain`` optionally blocks on an event (the
    deterministic stand-in for a slow device's full socket buffer)."""

    def __init__(self, gate: asyncio.Event | None = None) -> None:
        self.sent = bytearray()
        self.gate = gate
        self.drains = 0
        self._closed = False

    def write(self, data: bytes) -> None:
        self.sent.extend(data)

    async def drain(self) -> None:
        self.drains += 1
        if self.gate is not None:
            await self.gate.wait()

    def close(self) -> None:
        self._closed = True

    async def wait_closed(self) -> None:
        return None

    def is_closing(self) -> bool:
        return self._closed

    def frames(self) -> list[tuple[int, int, bytes]]:
        out = FrameDecoder().feed(bytes(self.sent))
        self.sent.clear()
        return out


def _conn(frontend: DeviceFrontend, handshake: bool = True):
    """A test connection with a capturing stub writer, optionally past
    the handshake already."""
    conn = frontend.connection_for_test()
    stub = _StubWriter()
    conn.writer = stub
    if handshake:
        assert _dispatch_all(conn, _hello_frame()) is True
        (ftype, _flags, _body) = stub.frames()[0]
        assert ftype == FrameType.WELCOME
    return conn, stub


def _dispatch_all(conn, data: bytes) -> bool:
    """Feed whole frames through the connection's decoder and dispatch."""
    alive = True
    for ftype, _flags, body in conn.decoder.feed(data):
        alive = conn.dispatch(ftype, body)
        if not alive:
            break
    return alive


# ---------------------------------------------------------------------------
# Torn / partial framing (docs/protocol.md §3.1, §7.3)
# ---------------------------------------------------------------------------
class TestFrameDecoder:
    def test_byte_at_a_time_reassembly(self):
        wire = _hello_frame() + framing.pack_result_ack(7, True)
        decoder = FrameDecoder()
        frames = []
        for i in range(len(wire)):
            frames.extend(decoder.feed(wire[i : i + 1]))
        assert [f[0] for f in frames] == [FrameType.HELLO, FrameType.RESULT_ACK]
        assert decoder.pending_bytes == 0

    def test_many_frames_in_one_chunk(self):
        wire = b"".join(framing.pack_result_ack(i, False) for i in range(5))
        frames = FrameDecoder().feed(wire)
        assert [framing.unpack_result_ack(b).seq for _, _, b in frames] == list(range(5))

    def test_partial_frame_stays_pending(self):
        wire = _result_frame(1)
        decoder = FrameDecoder()
        assert decoder.feed(wire[:-3]) == []
        assert decoder.pending_bytes == len(wire) - 3
        frames = decoder.feed(wire[-3:])
        assert len(frames) == 1 and decoder.pending_bytes == 0

    def test_header_split_across_chunks(self):
        wire = framing.pack_goodbye(GoodbyeReason.CLIENT_DONE)
        decoder = FrameDecoder()
        assert decoder.feed(wire[:5]) == []  # not even a full header yet
        assert decoder.pending_bytes == 5
        assert len(decoder.feed(wire[5:])) == 1

    def test_oversized_frame_is_a_protocol_error(self):
        decoder = FrameDecoder(max_frame_bytes=64)
        huge = framing.FRAME_HEADER.pack(65, FrameType.RESULT, 0, 0)
        with pytest.raises(ProtocolError) as excinfo:
            decoder.feed(huge)
        assert excinfo.value.code == ErrorCode.FRAME_TOO_LARGE

    def test_nonzero_reserved_is_a_protocol_error(self):
        bad = framing.FRAME_HEADER.pack(0, FrameType.GOODBYE, 0, 1)
        with pytest.raises(ProtocolError) as excinfo:
            FrameDecoder().feed(bad)
        assert excinfo.value.code == ErrorCode.MALFORMED_FRAME


class TestFrameRoundtrips:
    def test_result_roundtrip_dense(self):
        original = _result(gradient=np.linspace(-1.0, 1.0, DIM))
        seq, decoded = framing.unpack_result(
            _result_frame(3, gradient=original.gradient)[8:],
            original.worker_id,
            original.device_model,
            CODEC,
        )
        assert seq == 3
        np.testing.assert_allclose(decoded.gradient, original.gradient, atol=1e-6)
        np.testing.assert_allclose(decoded.label_counts, original.label_counts)
        assert decoded.features == original.features

    def test_result_roundtrip_sparse(self):
        compressor = ErrorFeedbackCompressor(dimension=DIM, k=4)
        sparse = compressor.compress(np.linspace(-1.0, 1.0, DIM))
        frame = framing.pack_result(9, _result(gradient=sparse), CODEC)
        seq, decoded = framing.unpack_result(frame[8:], 0, "Galaxy S7", CODEC)
        assert seq == 9
        np.testing.assert_allclose(decoded.gradient.densify(), sparse.densify())

    def test_request_roundtrip(self):
        frame = framing.pack_request(5, _request(worker_id=11))
        seq, decoded = framing.unpack_request(frame[8:], 11, "Galaxy S7")
        assert seq == 5 and decoded.worker_id == 11
        np.testing.assert_allclose(decoded.label_counts, np.ones(NUM_LABELS))

    def test_error_roundtrip(self):
        frame = framing.pack_error(ErrorCode.VERSION_MISMATCH, "nope")
        decoded = framing.unpack_error(frame[8:])
        assert decoded.code == ErrorCode.VERSION_MISMATCH and decoded.detail == "nope"


# ---------------------------------------------------------------------------
# Handshake (docs/protocol.md §4)
# ---------------------------------------------------------------------------
class TestHandshake:
    def test_welcome_grants_min_of_requested_and_server_window(self):
        frontend = DeviceFrontend(
            _gateway(), FrontendConfig(max_inflight=8), clock=lambda: 0.0
        )
        conn = frontend.connection_for_test()
        stub = _StubWriter()
        conn.writer = stub
        assert _dispatch_all(conn, _hello_frame(max_inflight=3)) is True
        ftype, _, body = stub.frames()[0]
        welcome = framing.unpack_welcome(body)
        assert ftype == FrameType.WELCOME
        assert welcome.max_inflight == 3 and conn.window == 3
        assert welcome.version == PROTOCOL_VERSION

    def test_requesting_more_than_server_allows_is_clamped(self):
        frontend = DeviceFrontend(
            _gateway(), FrontendConfig(max_inflight=4), clock=lambda: 0.0
        )
        conn, stub = _conn(frontend, handshake=False)
        _dispatch_all(conn, _hello_frame(max_inflight=1000))
        assert framing.unpack_welcome(stub.frames()[0][2]).max_inflight == 4

    def test_version_mismatch_is_refused_with_error_code_2(self):
        frontend = DeviceFrontend(_gateway(), clock=lambda: 0.0)
        conn, stub = _conn(frontend, handshake=False)
        assert _dispatch_all(conn, _hello_frame(version=99)) is False
        ftype, _, body = stub.frames()[0]
        assert ftype == FrameType.ERROR
        assert framing.unpack_error(body).code == ErrorCode.VERSION_MISMATCH
        assert frontend.gateway.metrics.counter("frontend.handshake_errors").value == 1

    def test_bad_magic_is_refused(self):
        frontend = DeviceFrontend(_gateway(), clock=lambda: 0.0)
        conn, stub = _conn(frontend, handshake=False)
        body = framing.HELLO_BODY.pack(0xDEADBEEF, PROTOCOL_VERSION, 0, 0, 0)
        assert conn.dispatch(FrameType.HELLO, body) is False
        assert framing.unpack_error(stub.frames()[0][2]).code == ErrorCode.BAD_MAGIC

    def test_first_frame_must_be_hello(self):
        frontend = DeviceFrontend(_gateway(), clock=lambda: 0.0)
        conn, stub = _conn(frontend, handshake=False)
        assert _dispatch_all(conn, _result_frame(1)) is False
        assert (
            framing.unpack_error(stub.frames()[0][2]).code
            == ErrorCode.HANDSHAKE_REQUIRED
        )
        assert frontend.gateway.results_received() == 0

    def test_duplicate_hello_closes_the_connection(self):
        frontend = DeviceFrontend(_gateway(), clock=lambda: 0.0)
        conn, stub = _conn(frontend)
        assert _dispatch_all(conn, _hello_frame()) is False
        assert (
            framing.unpack_error(stub.frames()[0][2]).code == ErrorCode.MALFORMED_FRAME
        )

    def test_unknown_frame_type_closes_the_connection(self):
        frontend = DeviceFrontend(_gateway(), clock=lambda: 0.0)
        conn, stub = _conn(frontend)
        assert conn.dispatch(0x7F, b"") is False
        assert (
            framing.unpack_error(stub.frames()[0][2]).code
            == ErrorCode.UNKNOWN_FRAME_TYPE
        )

    def test_server_to_client_frame_from_client_is_malformed(self):
        frontend = DeviceFrontend(_gateway(), clock=lambda: 0.0)
        conn, stub = _conn(frontend)
        assert conn.dispatch(FrameType.RESULT_ACK, b"\x00" * 5) is False
        assert (
            framing.unpack_error(stub.frames()[0][2]).code == ErrorCode.MALFORMED_FRAME
        )

    @pytest.mark.parametrize("state", ["normal", "window_full", "draining"])
    @pytest.mark.parametrize("length", [0, 3, 4, 75])
    def test_truncated_result_is_malformed_never_internal(self, length, state):
        """Every body shorter than RESULT_BODY (76 bytes) is a typed
        MALFORMED_FRAME, whichever admission branch it would have hit."""
        frontend = DeviceFrontend(
            _gateway(), FrontendConfig(max_inflight=1), clock=lambda: 0.0
        )
        conn, stub = _conn(frontend)
        if state == "window_full":
            _dispatch_all(conn, _result_frame(1))
            stub.frames()
        frontend.draining = state == "draining"
        assert conn.dispatch(FrameType.RESULT, b"\x01" * length) is False
        error = framing.unpack_error(stub.frames()[0][2])
        assert error.code == ErrorCode.MALFORMED_FRAME
        assert error.detail == "truncated RESULT"

    def test_decompression_bomb_result_is_malformed(self, deflate_bomb):
        """A RESULT whose 4-element f32 blob inflates to 256 MiB is
        refused as MALFORMED_FRAME (docs/protocol.md §3.3) and never
        reaches the gateway."""
        frontend = DeviceFrontend(_gateway(), clock=lambda: 0.0)
        conn, stub = _conn(frontend)
        body = _result_frame(1, gradient=np.ones(4))[framing.FRAME_HEADER.size :]
        blob_at = framing.RESULT_BODY.size + 8 * NUM_LABELS
        bomb = framing.BLOB_HEADER.pack(
            framing.DTYPE_CODE["f32"], 4, len(deflate_bomb)
        )
        assert conn.dispatch(FrameType.RESULT, body[:blob_at] + bomb + deflate_bomb) is False
        error = framing.unpack_error(stub.frames()[0][2])
        assert error.code == ErrorCode.MALFORMED_FRAME
        assert frontend.gateway.results_received() == 0

    def test_declared_length_never_sizes_a_buffer(self, traced_peak):
        """A RESULT declaring 2**30 f32 (not the model's D) is refused as
        MALFORMED_FRAME before its payload is inflated (docs/protocol.md
        §3.3): the peak allocation stays within twice the frame."""
        frontend = DeviceFrontend(_gateway(), clock=lambda: 0.0)
        conn, stub = _conn(frontend)
        body = _result_frame(1)[framing.FRAME_HEADER.size :]
        blob_at = framing.RESULT_BODY.size + 8 * NUM_LABELS
        payload = zlib.compress(bytes(16 << 20))  # 16 MiB of zeros
        header = framing.BLOB_HEADER.pack(framing.DTYPE_CODE["f32"], 2**30, len(payload))
        body = body[:blob_at] + header + payload
        with traced_peak() as trace:
            alive = conn.dispatch(FrameType.RESULT, body)
        assert alive is False
        error = framing.unpack_error(stub.frames()[0][2])
        assert error.code == ErrorCode.MALFORMED_FRAME
        assert frontend.gateway.results_received() == 0
        assert trace.peak <= 2 * (framing.FRAME_HEADER.size + len(body))

    def test_zero_batch_size_result_is_malformed(self):
        """``batch_size`` MUST be ≥ 1 (docs/protocol.md §5.6): a zero is
        refused as MALFORMED_FRAME and never counted by the gateway."""
        frontend = DeviceFrontend(_gateway(), clock=lambda: 0.0)
        conn, stub = _conn(frontend)
        assert _dispatch_all(conn, _result_frame(1)) is True
        assert [f[0] for f in stub.frames()] == [FrameType.RESULT_ACK]
        assert frontend.gateway.results_received() == 1
        bad = dataclasses.replace(_result(), batch_size=0)
        assert _dispatch_all(conn, framing.pack_result(2, bad, CODEC)) is False
        error = framing.unpack_error(stub.frames()[0][2])
        assert error.code == ErrorCode.MALFORMED_FRAME == 3
        assert frontend.gateway.results_received() == 1


# ---------------------------------------------------------------------------
# Window backpressure and typed rejections (docs/protocol.md §7.1, §6.3)
# ---------------------------------------------------------------------------
class TestWindowBackpressure:
    def test_result_past_the_window_gets_overloaded_not_gateway(self):
        frontend = DeviceFrontend(
            _gateway(), FrontendConfig(max_inflight=2), clock=lambda: 0.0
        )
        conn, stub = _conn(frontend)
        for seq in (1, 2, 3):
            assert _dispatch_all(conn, _result_frame(seq)) is True
        replies = stub.frames()
        assert [f[0] for f in replies] == [
            FrameType.RESULT_ACK,
            FrameType.RESULT_ACK,
            FrameType.OVERLOADED,
        ]
        over = framing.unpack_overloaded(replies[2][2])
        assert over.scope == OverloadScope.WINDOW and over.seq == 3
        # The refused upload never reached the gateway: nothing acked is lost.
        assert frontend.gateway.results_received() == 2
        assert frontend.gateway.metrics.counter("frontend.results_overloaded").value == 1

    def test_flush_reopens_the_window(self):
        frontend = DeviceFrontend(
            _gateway(), FrontendConfig(max_inflight=1), clock=lambda: 0.0
        )
        conn, stub = _conn(frontend)
        _dispatch_all(conn, _result_frame(1))
        _dispatch_all(conn, _result_frame(2))  # over the window
        asyncio.run(conn.flush())
        _dispatch_all(conn, _result_frame(3))  # window reopened
        kinds = [f[0] for f in stub.frames()]
        assert kinds == [FrameType.RESULT_ACK, FrameType.OVERLOADED, FrameType.RESULT_ACK]
        assert frontend.gateway.results_received() == 2

    def test_shed_request_comes_back_as_typed_rejection(self):
        gateway = _gateway(admission_rate_per_s=1.0, admission_burst=1.0)
        frontend = DeviceFrontend(gateway, clock=lambda: 0.0)
        conn, stub = _conn(frontend)
        for seq in (1, 2, 3):
            _dispatch_all(conn, framing.pack_request(seq, _request()))
        replies = stub.frames()
        assert replies[0][0] == FrameType.ASSIGNMENT  # burst budget of 1
        for _, _, body in replies[1:]:
            rejection = framing.unpack_rejection(body)
            assert rejection.reason == RejectionReason.OVERLOADED
        assert gateway.requests_shed() == 2

    def test_assignment_carries_the_model_parameters(self):
        gateway = _gateway()
        frontend = DeviceFrontend(gateway, clock=lambda: 0.0)
        conn, stub = _conn(frontend)
        _dispatch_all(conn, framing.pack_request(1, _request()))
        ftype, _, body = stub.frames()[0]
        assert ftype == FrameType.ASSIGNMENT
        seq, assignment = framing.unpack_assignment(body, frontend.codec)
        assert seq == 1
        np.testing.assert_allclose(assignment.parameters, np.zeros(DIM), atol=1e-6)


# ---------------------------------------------------------------------------
# Drain (docs/protocol.md §8)
# ---------------------------------------------------------------------------
class TestDrainDispatch:
    def test_draining_frontend_refuses_uploads_with_scope_3(self):
        frontend = DeviceFrontend(_gateway(), clock=lambda: 0.0)
        conn, stub = _conn(frontend)
        frontend.draining = True
        _dispatch_all(conn, _result_frame(1))
        ftype, _, body = stub.frames()[0]
        assert ftype == FrameType.OVERLOADED
        assert framing.unpack_overloaded(body).scope == OverloadScope.DRAINING
        assert frontend.gateway.results_received() == 0

    def test_draining_frontend_refuses_requests(self):
        frontend = DeviceFrontend(_gateway(), clock=lambda: 0.0)
        conn, stub = _conn(frontend)
        frontend.draining = True
        _dispatch_all(conn, framing.pack_request(1, _request()))
        assert stub.frames()[0][0] == FrameType.OVERLOADED


# ---------------------------------------------------------------------------
# Slow readers (docs/protocol.md §7.2) — deterministic, no sockets
# ---------------------------------------------------------------------------
class TestSlowReader:
    def test_no_reads_while_writes_are_undrained(self):
        async def scenario():
            gateway = _gateway()
            frontend = DeviceFrontend(gateway, clock=lambda: 0.0)
            gate = asyncio.Event()
            conn = frontend.connection_for_test()
            stub = _StubWriter(gate=gate)
            conn.writer = stub
            conn.reader = asyncio.StreamReader()
            conn.reader.feed_data(
                _hello_frame() + _result_frame(1) + _result_frame(2)
            )
            task = asyncio.ensure_future(conn.run())
            await asyncio.sleep(0.01)
            # First chunk dispatched, connection parked in writer.drain().
            assert gateway.results_received() == 2
            conn.reader.feed_data(_result_frame(3) + _result_frame(4))
            await asyncio.sleep(0.01)
            # Still 2: a slow reader stops the server reading this socket.
            assert gateway.results_received() == 2
            gate.set()
            await asyncio.sleep(0.01)
            assert gateway.results_received() == 4
            conn.reader.feed_eof()
            await task
            assert conn.close_reason == "eof"

        asyncio.run(scenario())


# ---------------------------------------------------------------------------
# Socket-level: torn disconnects, drain, zero acked loss
# ---------------------------------------------------------------------------
class TestLoopback:
    def test_version_mismatch_over_a_real_socket(self):
        async def scenario():
            frontend = DeviceFrontend(_gateway())
            host, port = await frontend.start()
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(_hello_frame(version=99))
            await writer.drain()
            reply = await reader.read(4096)
            frames = FrameDecoder().feed(reply)
            assert frames and frames[0][0] == FrameType.ERROR
            assert (
                framing.unpack_error(frames[0][2]).code == ErrorCode.VERSION_MISMATCH
            )
            assert await reader.read(4096) == b""  # server closed on us
            writer.close()
            await frontend.drain()

        asyncio.run(scenario())

    def test_mid_upload_disconnect_is_torn_and_loses_nothing_acked(self):
        async def scenario():
            gateway = _gateway()
            frontend = DeviceFrontend(gateway)
            host, port = await frontend.start()
            client = DeviceClient(0, LoadGenConfig(dimension=DIM, num_labels=NUM_LABELS),
                                  np.random.default_rng(0))
            await client.connect(host, port)
            ack = await client.send_result(wait_ack=True)
            assert ack is not None and ack.applied
            await client.abort_mid_frame()
            # Let the server observe the reset before draining; drain
            # would otherwise close the socket first and relabel the
            # disconnect as its own.
            for _ in range(200):
                if not frontend._connections:
                    break
                await asyncio.sleep(0.01)
            drain = await frontend.drain()
            metrics = gateway.metrics
            assert metrics.counter("frontend.torn_disconnects").value == 1
            # Everything acked was applied; the torn upload was never admitted.
            assert drain["results_received"] == drain["results_applied"] == 1
            assert client.stats.acked == 1
            records = [
                r for r in gateway.journal.events
                if getattr(r, "kind", "") == "frontend_connection"
            ]
            assert len(records) == 1 and records[0].close_reason == "torn"

        asyncio.run(scenario())

    def test_drain_announces_goodbye_and_reaches_equality(self):
        async def scenario():
            gateway = _gateway()
            frontend = DeviceFrontend(gateway)
            host, port = await frontend.start()
            client = DeviceClient(0, LoadGenConfig(dimension=DIM, num_labels=NUM_LABELS),
                                  np.random.default_rng(1))
            await client.connect(host, port)
            for _ in range(3):
                await client.send_result(wait_ack=True)
            drain = await frontend.drain()
            assert drain["results_received"] == drain["results_applied"] == 3
            await client.closed.wait()
            assert client.draining and client.stats.goodbyes == 1
            drains = [
                r for r in gateway.journal.events
                if getattr(r, "kind", "") == "frontend_drain"
            ]
            assert len(drains) == 1
            assert drains[0].results_received == drains[0].results_applied == 3
            await client.close(goodbye=False)
            # The listener is gone: new devices cannot connect mid-drain.
            with pytest.raises(OSError):
                await asyncio.open_connection(host, port)

        asyncio.run(scenario())

    def test_abortive_fleet_keeps_the_zero_acked_loss_invariant(self):
        gateway = _gateway(batch_size=4)
        config = LoadGenConfig(
            devices=12,
            mode="push",
            uploads_per_device=6,
            window=4,
            dimension=DIM,
            num_labels=NUM_LABELS,
            seed=7,
        )
        report = asyncio.run(
            run_loopback(gateway, config, abort_fraction=0.25)
        )
        assert report.results_applied == report.results_received
        assert report.stats.acked <= report.results_received
        assert report.stats.acked > 0
        assert gateway.metrics.counter("frontend.connections").value == 12


# ---------------------------------------------------------------------------
# Client-side error feedback (docs/protocol.md §7.3)
# ---------------------------------------------------------------------------
class TestErrorFeedbackRestore:
    def test_disconnect_restores_unacked_payload_into_residual(self):
        async def scenario():
            config = LoadGenConfig(dimension=DIM, sparse_k=4, num_labels=NUM_LABELS)
            client = DeviceClient(0, config, np.random.default_rng(2))
            gradient = np.linspace(-1.0, 1.0, DIM)
            payload = client.compressor.compress(gradient)
            # Ship-and-lose: register the payload as unacked, then fail.
            client._unacked_payloads[1] = payload
            client._pending[1] = asyncio.get_running_loop().create_future()
            client._fail_pending("socket died")
            # The residual is whole again: compensation equals the full
            # gradient, as if the upload had never been attempted.
            np.testing.assert_allclose(client.compressor.residual, gradient)
            assert client.stats.restored_payloads == 1

        asyncio.run(scenario())

    def test_overloaded_reply_restores_the_payload(self):
        async def scenario():
            config = LoadGenConfig(dimension=DIM, sparse_k=4, num_labels=NUM_LABELS)
            client = DeviceClient(0, config, np.random.default_rng(3))
            client._window = asyncio.Semaphore(1)
            gradient = np.linspace(0.0, 2.0, DIM)
            payload = client.compressor.compress(gradient)
            client._unacked_payloads[5] = payload
            client._on_frame(
                FrameType.OVERLOADED,
                framing.pack_overloaded(5, OverloadScope.WINDOW, 0.05)[8:],
            )
            np.testing.assert_allclose(client.compressor.residual, gradient)
            assert client.stats.overloaded == 1
            assert client.stats.restored_payloads == 1

        asyncio.run(scenario())
