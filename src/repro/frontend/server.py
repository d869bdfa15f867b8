# repro: wall-clock
"""Asyncio device-facing frontend terminating many device connections.

This is the tier's service boundary: simulated devices connect over TCP,
speak the length-prefixed framing of :mod:`repro.frontend.framing`
(normative spec: ``docs/protocol.md``), and their uploads flow into the
in-process :class:`~repro.gateway.gateway.Gateway` exactly as
``fleet_sim``'s in-process calls do — same admission, same micro-batcher,
same journal and metrics.

Backpressure is explicit at every layer (docs/protocol.md §7):

* **admission** — a ``REQUEST`` shed by the gateway token bucket comes
  back as a typed ``REJECTION`` (reason code 3, OVERLOADED), never a
  silent drop;
* **in-flight window** — each connection is granted ``max_inflight``
  unacked ``RESULT`` uploads at handshake; a result past the window is
  answered with ``OVERLOADED`` scope 1 (WINDOW) and *not* delivered to
  the gateway, so nothing acked is ever lost;
* **slow readers** — the connection loop awaits ``writer.drain()`` after
  dispatching each read chunk, so a device that stops reading stops the
  server writing *and therefore reading* on that connection; TCP flow
  control pushes the stall back to the device.

The ``# repro: wall-clock`` pragma above marks this module as the
real-time boundary: repro-lint (RPR001) bans ambient clock reads in the
deterministic core, and the frontend is exactly the place where real
sockets meet the virtual-time gateway.  All gateway calls take ``now``
from one injectable ``clock`` callable (the running loop's ``time`` by
default), keeping the gateway's monotone-time contract intact and letting
tests drive the frontend on a fake clock.
"""

from __future__ import annotations

import asyncio
import contextlib
from dataclasses import dataclass
from typing import Callable

from repro.frontend import framing
from repro.frontend.framing import (
    DEFAULT_MAX_FRAME_BYTES,
    ErrorCode,
    FrameDecoder,
    FrameType,
    GoodbyeReason,
    OverloadScope,
    PROTOCOL_VERSION,
    ProtocolError,
    Welcome,
)
from repro.server.codec import VectorCodec
from repro.server.protocol import TaskAssignment

__all__ = ["FrontendConfig", "DeviceFrontend"]


#: Bytes requested per socket read.
READ_CHUNK_BYTES = 64 * 1024
#: Seconds an OVERLOADED frame tells the device to back off.
RETRY_AFTER_S = 0.05
#: Wire precision of ASSIGNMENT parameter blobs.
DOWNLINK_PRECISION = "f32"
#: Seconds a drain waits for connections to close before giving up.
DRAIN_TIMEOUT_S = 10.0


@dataclass(frozen=True)
class FrontendConfig:
    """Tunables of the device-facing frontend.

    ``max_inflight`` is the per-connection unacked-upload window granted
    at handshake (a HELLO may request less, never more).
    ``downlink_level`` is the deflate level for ASSIGNMENT parameter
    blobs — downlink bytes are re-encoded per assignment, so the default
    trades ratio for latency.  Frame size, read chunk, back-off hint,
    downlink precision and drain timeout are module constants; the
    transport keeps asyncio's default write high-water mark.
    """

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; DeviceFrontend.start() returns the bound port
    max_inflight: int = 32
    downlink_level: int = 1


class _Connection:
    """One device connection: handshake state, window, and frame dispatch.

    Frame handling is split so tests can drive it deterministically:
    :meth:`dispatch` is synchronous (bytes in, queued writes out, gateway
    calls inline) and :meth:`flush` is the only awaiting step (drain the
    socket, then reopen the unacked window).  The socket loop in
    :meth:`run` is a thin shell around those two.
    """

    def __init__(
        self,
        frontend: "DeviceFrontend",
        reader: asyncio.StreamReader | None,
        writer: asyncio.StreamWriter | None,
    ) -> None:
        self.frontend = frontend
        self.reader = reader
        self.writer = writer
        self.decoder = FrameDecoder(DEFAULT_MAX_FRAME_BYTES)
        self.hello: framing.Hello | None = None
        self.session_id = 0
        self.window = frontend.config.max_inflight
        self.unacked = 0  # results accepted since the last flush()
        self.requests = 0
        self.results = 0
        self.results_overloaded = 0
        self.close_reason = "eof"
        self.opened_at = frontend.now()
        self.done = asyncio.Event()

    # -- write path ----------------------------------------------------
    def _send(self, frame: bytes) -> None:
        if self.writer is not None:
            self.writer.write(frame)
        self.frontend._bytes_out.increment(len(frame))

    async def flush(self) -> None:
        """Drain queued writes; a completed drain reopens the window.

        This is the slow-reader pause point: if the device is not
        reading, ``drain()`` blocks once the transport buffer passes its
        high-water mark, and :meth:`run` stops reading new frames until
        the device catches up (docs/protocol.md §7.2).
        """
        if self.writer is not None:
            await self.writer.drain()
        self.unacked = 0

    # -- frame dispatch ------------------------------------------------
    def dispatch(self, ftype: int, body: bytes) -> bool:
        """Handle one frame; return False when the connection must close."""
        self.frontend._frames_in.increment()
        try:
            return self._dispatch_inner(ftype, body)
        except ProtocolError as exc:
            self._protocol_failure(exc)
            return False
        except Exception as exc:  # pragma: no cover - gateway-side defects
            self._protocol_failure(
                ProtocolError(ErrorCode.INTERNAL, f"{type(exc).__name__}: {exc}")
            )
            return False

    def _dispatch_inner(self, ftype: int, body: bytes) -> bool:
        if self.hello is None:
            return self._handshake(ftype, body)
        if ftype == FrameType.REQUEST:
            self._on_request(body)
            return True
        if ftype == FrameType.RESULT:
            self._on_result(body)
            return True
        if ftype == FrameType.GOODBYE:
            framing.unpack_goodbye(body)
            self.close_reason = "goodbye"
            return False
        if ftype == FrameType.HELLO:
            raise ProtocolError(ErrorCode.MALFORMED_FRAME, "duplicate HELLO")
        if ftype in FrameType._value2member_map_:
            raise ProtocolError(
                ErrorCode.MALFORMED_FRAME,
                f"frame type {FrameType(ftype).name} is not client-to-server",
            )
        raise ProtocolError(
            ErrorCode.UNKNOWN_FRAME_TYPE, f"unknown frame type 0x{ftype:02X}"
        )

    def _handshake(self, ftype: int, body: bytes) -> bool:
        if ftype != FrameType.HELLO:
            self.frontend._handshake_errors.increment()
            self._protocol_failure(
                ProtocolError(
                    ErrorCode.HANDSHAKE_REQUIRED,
                    "first frame on a connection must be HELLO",
                ),
                count=False,
            )
            return False
        try:
            hello = framing.unpack_hello(body)
        except ProtocolError as exc:
            self.frontend._handshake_errors.increment()
            self._protocol_failure(exc, count=False)
            return False
        if hello.version != PROTOCOL_VERSION:
            self.frontend._handshake_errors.increment()
            self._protocol_failure(
                ProtocolError(
                    ErrorCode.VERSION_MISMATCH,
                    f"server speaks version {PROTOCOL_VERSION}, "
                    f"client sent {hello.version}",
                ),
                count=False,
            )
            return False
        self.hello = hello
        if hello.max_inflight:
            self.window = min(hello.max_inflight, self.frontend.config.max_inflight)
        self.session_id = self.frontend._next_session_id()
        self._send(
            framing.pack_welcome(
                Welcome(
                    version=PROTOCOL_VERSION,
                    max_inflight=self.window,
                    max_frame_bytes=DEFAULT_MAX_FRAME_BYTES,
                    session_id=self.session_id,
                )
            )
        )
        return True

    def _on_request(self, body: bytes) -> None:
        assert self.hello is not None
        frontend = self.frontend
        seq, request = framing.unpack_request(
            body, self.hello.worker_id, self.hello.device_model
        )
        self.requests += 1
        frontend._requests.increment()
        if frontend.draining:
            self._send(
                framing.pack_overloaded(
                    seq, OverloadScope.DRAINING, RETRY_AFTER_S
                )
            )
            return
        response = frontend.gateway.handle_request(request, now=frontend.now())
        if isinstance(response, TaskAssignment):
            self._send(framing.pack_assignment(seq, response, frontend.codec))
        else:
            self._send(framing.pack_rejection(seq, response))

    def _on_result(self, body: bytes) -> None:
        assert self.hello is not None
        frontend = self.frontend
        frontend._results.increment()
        if len(body) < framing.RESULT_BODY.size:
            raise ProtocolError(ErrorCode.MALFORMED_FRAME, "truncated RESULT")
        # Window and drain checks come *before* the gateway sees the
        # upload: a refused result is answered, never half-admitted.
        seq = framing.RESULT_BODY.unpack_from(body)[0]
        if frontend.draining:
            self.results_overloaded += 1
            frontend._results_overloaded.increment()
            self._send(
                framing.pack_overloaded(
                    seq, OverloadScope.DRAINING, RETRY_AFTER_S
                )
            )
            return
        if self.unacked >= self.window:
            self.results_overloaded += 1
            frontend._results_overloaded.increment()
            self._send(
                framing.pack_overloaded(
                    seq, OverloadScope.WINDOW, RETRY_AFTER_S
                )
            )
            return
        seq, result = framing.unpack_result(
            body, self.hello.worker_id, self.hello.device_model, frontend.codec,
            frontend.dimension,
        )
        applied = frontend.gateway.handle_result(result, now=frontend.now())
        self.unacked += 1
        self.results += 1
        frontend._results_acked.increment()
        self._send(framing.pack_result_ack(seq, applied))

    def _protocol_failure(self, exc: ProtocolError, count: bool = True) -> None:
        if count:
            self.frontend._protocol_errors.increment()
        self.close_reason = "protocol_error"
        with contextlib.suppress(Exception):
            self._send(framing.pack_error(exc.code, exc.detail))

    # -- socket loop ---------------------------------------------------
    async def run(self) -> None:
        assert self.reader is not None and self.writer is not None
        try:
            while True:
                data = await self.reader.read(READ_CHUNK_BYTES)
                if not data:
                    if self.decoder.pending_bytes and self.close_reason == "eof":
                        self.close_reason = "torn"
                        self.frontend._torn_disconnects.increment()
                    break
                self.frontend._bytes_in.increment(len(data))
                closing = False
                try:
                    frames = self.decoder.feed(data)
                except ProtocolError as exc:
                    self._protocol_failure(exc)
                    frames, closing = [], True
                for ftype, _flags, body in frames:
                    if not self.dispatch(ftype, body):
                        closing = True
                        break
                await self.flush()
                if closing:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            if self.decoder.pending_bytes:
                self.close_reason = "torn"
                self.frontend._torn_disconnects.increment()
        finally:
            await self._close()

    async def _close(self) -> None:
        if self.done.is_set():
            return
        self.done.set()
        frontend = self.frontend
        frontend._journal_connection(self)
        if self.writer is not None:
            with contextlib.suppress(Exception):
                self.writer.close()
            with contextlib.suppress(Exception):
                await self.writer.wait_closed()

    def send_goodbye(self, reason: GoodbyeReason) -> None:
        with contextlib.suppress(Exception):
            self._send(framing.pack_goodbye(reason))


class DeviceFrontend:
    """The asyncio socket server in front of a :class:`Gateway`.

    Lifecycle: :meth:`start` binds and begins accepting; :meth:`drain`
    performs the graceful shutdown of docs/protocol.md §8 — stop
    accepting, refuse new uploads (OVERLOADED scope 3), announce GOODBYE
    to connected devices, flush every admitted upload through the gateway
    via ``finalize``, then close.  After a completed drain the tier
    invariant ``results_applied == results_received`` holds: everything
    acked was applied.

    Metrics live on the gateway's own :class:`MetricsRegistry` under the
    ``frontend.*`` namespace, and connection/drain events land in the
    gateway journal, so ``frontend-sim`` inherits every existing
    observability surface unchanged.
    """

    def __init__(
        self,
        gateway,
        config: FrontendConfig | None = None,
        clock: Callable[[], float] | None = None,
    ) -> None:
        self.gateway = gateway
        self.config = config or FrontendConfig()
        # Model size D: bounds every RESULT's gradient blob (protocol §3.3).
        self.dimension = gateway.current_parameters().size
        self.codec = VectorCodec(
            precision=DOWNLINK_PRECISION,
            compression_level=self.config.downlink_level,
        )
        self._clock = clock
        self.draining = False
        self._server: asyncio.base_events.Server | None = None
        self._connections: set[_Connection] = set()
        self._sessions = 0
        self._drain_stats: dict | None = None
        metrics = gateway.metrics
        self._connections_total = metrics.counter(
            "frontend.connections", "Device connections accepted"
        )
        self._open_connections = metrics.gauge(
            "frontend.open_connections", "Device connections currently open"
        )
        self._peak_connections = metrics.gauge(
            "frontend.peak_connections", "High-water mark of open connections"
        )
        self._frames_in = metrics.counter(
            "frontend.frames_in", "Complete frames decoded from devices"
        )
        self._bytes_in = metrics.counter(
            "frontend.bytes_in", "Bytes read from device sockets"
        )
        self._bytes_out = metrics.counter(
            "frontend.bytes_out", "Bytes written to device sockets"
        )
        self._requests = metrics.counter(
            "frontend.requests", "REQUEST frames received"
        )
        self._results = metrics.counter(
            "frontend.results", "RESULT frames received"
        )
        self._results_acked = metrics.counter(
            "frontend.results_acked", "RESULT frames delivered to the gateway and acked"
        )
        self._results_overloaded = metrics.counter(
            "frontend.results_overloaded",
            "RESULT frames refused with OVERLOADED (window or drain)",
        )
        self._handshake_errors = metrics.counter(
            "frontend.handshake_errors", "Connections refused at handshake"
        )
        self._protocol_errors = metrics.counter(
            "frontend.protocol_errors", "Connections closed on a protocol error"
        )
        self._torn_disconnects = metrics.counter(
            "frontend.torn_disconnects", "Disconnects that cut a frame mid-body"
        )

    # -- time ----------------------------------------------------------
    def now(self) -> float:
        """Gateway timestamps, all from one injectable clock."""
        if self._clock is None:
            self._clock = asyncio.get_event_loop().time
        return self._clock()

    def _next_session_id(self) -> int:
        self._sessions += 1
        return self._sessions

    # -- lifecycle -----------------------------------------------------
    async def start(self) -> tuple[str, int]:
        """Bind and accept; returns the (host, port) actually bound."""
        if self._clock is None:
            self._clock = asyncio.get_running_loop().time
        self._server = await asyncio.start_server(
            self._serve, self.config.host, self.config.port
        )
        host, port = self._server.sockets[0].getsockname()[:2]
        return host, port

    @property
    def address(self) -> tuple[str, int]:
        assert self._server is not None, "frontend not started"
        host, port = self._server.sockets[0].getsockname()[:2]
        return host, port

    async def _serve(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn = _Connection(self, reader, writer)
        self._connections.add(conn)
        self._connections_total.increment()
        self._open_connections.set(len(self._connections))
        self._peak_connections.set(
            max(self._peak_connections.value, len(self._connections))
        )
        try:
            await conn.run()
        finally:
            self._connections.discard(conn)
            self._open_connections.set(len(self._connections))

    def connection_for_test(self) -> _Connection:
        """A writer-less connection for driving :meth:`_Connection.dispatch`
        deterministically (window/drain tests fabricate frames directly,
        sidestepping TCP segmentation nondeterminism)."""
        return _Connection(self, None, None)

    async def drain(self) -> dict:
        """Graceful shutdown (docs/protocol.md §8); returns drain stats.

        Ordering matters: ``draining`` flips *before* the first await, so
        no connection coroutine can admit another upload once drain has
        begun; everything admitted earlier is flushed by ``finalize``
        before the listener's last socket closes.
        """
        started = self.now()
        self.draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for conn in list(self._connections):
            conn.send_goodbye(GoodbyeReason.SERVER_DRAINING)
            conn.close_reason = "drain"
        self.gateway.finalize(now=self.now())
        for conn in list(self._connections):
            if conn.writer is not None:
                with contextlib.suppress(Exception):
                    conn.writer.close()
        waiters = [conn.done.wait() for conn in list(self._connections)]
        if waiters:
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(
                    asyncio.gather(*waiters), timeout=DRAIN_TIMEOUT_S
                )
        received = self.gateway.results_received()
        applied = self.gateway.results_applied
        stats = {
            "connections_closed": self._connections_total.value,
            "results_received": received,
            "results_applied": applied,
            "drain_s": self.now() - started,
        }
        self._drain_stats = stats
        self.gateway.journal.frontend_drain(
            time=self.now(),
            connections_closed=int(stats["connections_closed"]),
            results_received=received,
            results_applied=applied,
            drain_s=stats["drain_s"],
        )
        return stats

    def _journal_connection(self, conn: _Connection) -> None:
        if conn.hello is None:
            return
        self.gateway.journal.frontend_connection(
            time=self.now(),
            session_id=conn.session_id,
            worker_id=conn.hello.worker_id,
            device_model=conn.hello.device_model,
            close_reason=conn.close_reason,
            requests=conn.requests,
            results=conn.results,
            results_overloaded=conn.results_overloaded,
            duration_s=self.now() - conn.opened_at,
        )
