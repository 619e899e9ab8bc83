"""The JPSE socket front: a threaded TCP codec over the request core.

:class:`JumpPoseServer` binds a listening socket (port 0 picks an
ephemeral port, surfaced via :attr:`address`), accepts connections on a
background thread, and serves each connection on its own daemon thread.
Requests on one connection are handled strictly in arrival order, so
every client sees deterministic per-client ordering; the underlying
:class:`~repro.serving.service.JumpPoseService` serialises dispatches
internally, and decoding is bit-identical to a local
``JumpPoseAnalyzer.analyze_clips`` call because it *is* that code path
behind the socket.

Request types (see :mod:`repro.serving.protocol` for the frame layout):

``ping``               liveness + server/model/replica identification
``analyze_clips``      payload carries packed inline clip archives
``analyze_paths``      header lists server-visible ``.npz`` paths
``analyze_directory``  header names a server-visible clip directory
``stream_analyze``     one inline clip; per-frame partial replies (v2)
``stats``              service throughput/latency + per-request-type stats
``metrics``            Prometheus text exposition in the reply payload
``shutdown``           reply ``bye``, then stop accepting and drain

This module is framing only (frames, connection state, v2 pipelining,
stream partials, ``corrupt`` garbage); operations, error taxonomy,
accounting, events and the fault seam live in
:class:`~repro.serving.core.RequestCore`, shared with the HTTP gateway.
A v2 request header may carry a ``trace`` object (see
:mod:`repro.obs.trace`), echoed on the reply and stamped on the request's
event; junk trace fields are ignored rather than rejected.

Protocol-v2 requests may carry an ``id``, in which case they are
*pipelined*: the read loop hands them to per-request daemon threads and
keeps reading, replies go out in completion order (tagged with the
request's ``id``), and up to
:data:`~repro.serving.protocol.MAX_INFLIGHT_REQUESTS` may be in flight
per connection.  Requests without an id — all v1 traffic included — are
handled strictly in arrival order exactly as before, so v1 clients keep
working against a v2 server.

Malformed bytes never kill the server: recoverable protocol errors (the
frame was fully consumed) get a structured ``error`` reply on the same
connection; unrecoverable ones (framing lost) get a best-effort ``error``
reply and a close, and the listener keeps accepting.  Request failures
from the library (missing clip path, unreadable archive...) are reported
as ``error`` replies with the exception class as the code.
"""

from __future__ import annotations

import json
import socket
import threading
from pathlib import Path

from repro.errors import ConfigurationError, ProtocolError
from repro.obs.trace import parse_trace_header
from repro.serving.core import RequestCore, bad_request
from repro.serving.protocol import (
    MAX_INFLIGHT_REQUESTS,
    MAX_PAYLOAD_BYTES,
    clip_result_to_wire,
    frame_head,
    frame_result_to_wire,
    read_frame,
    unpack_blobs,
)

#: Every request type the socket front serves.
_REQUEST_TYPES = (
    "ping", "analyze_clips", "analyze_paths", "analyze_directory",
    "stream_analyze", "stats", "metrics", "shutdown",
)


class _Connection:
    """Per-connection state shared by the read loop and request threads.

    ``send_lock`` serialises frame writes so pipelined replies (and
    mid-stream partial frames) never interleave bytes; ``closing`` lets
    a request thread tell the read loop to stop; ``broken`` marks a
    failed write (the peer is gone, so later writes are skipped);
    ``inflight`` counts id-bearing requests being handled on this
    connection (the per-connection pipelining ceiling).
    """

    def __init__(self, conn: socket.socket) -> None:
        self.conn = conn
        self.send_lock = threading.Lock()
        self.state_lock = threading.Lock()
        self.closing = threading.Event()
        self.broken = False
        self.inflight = 0
        self.threads: "list[threading.Thread]" = []

    def hang_up(self) -> None:
        """Stop the read loop, waking it if blocked in a read."""
        self.closing.set()
        try:
            self.conn.shutdown(socket.SHUT_RD)
        except OSError:
            pass  # already closed by the peer or the server

#: Seconds a connection may sit idle mid-read before the server drops it.
DEFAULT_IDLE_TIMEOUT_S = 300.0


class JumpPoseServer:
    """Serve one model artifact over TCP until told to stop.

    Args:
        artifact_path: saved model artifact (schema-checked eagerly).
        host: bind address; loopback by default.
        port: bind port; 0 (the default) picks an ephemeral port — read
            :attr:`address` after :meth:`start` for the real one.
        jobs / batch_size / decode: forwarded to the
            :class:`~repro.serving.service.JumpPoseService` the request
            core builds.
        replica_id: optional replica name surfaced by ``ping`` and the
            ``stats`` roll-up (``serve --replica-id``, set by
            :class:`~repro.serving.supervisor.ReplicaSupervisor`).
        max_payload_bytes: per-request payload ceiling (oversized length
            prefixes are rejected before allocation).
        idle_timeout_s: per-connection socket timeout.
        fault_injector: optional
            :class:`~repro.serving.faults.FaultInjector` consulted once
            per well-framed request — the testing seam the supervisor's
            recovery paths are exercised through.  ``None`` (the
            default) costs nothing on the hot path.

    Use as a context manager, or :meth:`start` / :meth:`close`;
    :meth:`serve_forever` blocks until a ``shutdown`` request (or
    :meth:`close` from another thread).
    """

    def __init__(
        self,
        artifact_path: "str | Path",
        host: str = "127.0.0.1",
        port: int = 0,
        jobs: int = 1,
        batch_size: int = 4,
        decode: "str | None" = None,
        replica_id: "str | None" = None,
        max_payload_bytes: int = MAX_PAYLOAD_BYTES,
        idle_timeout_s: float = DEFAULT_IDLE_TIMEOUT_S,
        drain_timeout_s: float = 30.0,
        fault_injector=None,
    ) -> None:
        if max_payload_bytes < 1:
            raise ConfigurationError(
                f"max_payload_bytes must be >= 1, got {max_payload_bytes}"
            )
        self.core = RequestCore(
            artifact_path, jobs=jobs, batch_size=batch_size, decode=decode,
            replica_id=replica_id, fault_injector=fault_injector,
            transport="jpse",
        )
        self.service = self.core.service
        self.replica_id = replica_id
        self.host = host
        self.port = port
        self.max_payload_bytes = max_payload_bytes
        self.idle_timeout_s = idle_timeout_s
        self.drain_timeout_s = drain_timeout_s
        self._listener: "socket.socket | None" = None
        self._accept_thread: "threading.Thread | None" = None
        self._connections: "set[socket.socket]" = set()
        self._connections_lock = threading.Lock()
        self._shutdown = threading.Event()
        # requests currently being handled (frame read, reply not yet
        # sent); close() drains these before dropping connections
        self._inflight = 0
        self._inflight_cv = threading.Condition()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def address(self) -> "tuple[str, int]":
        """The bound ``(host, port)``; valid after :meth:`start`."""
        if self._listener is None:
            raise ConfigurationError("server is not started")
        return self._listener.getsockname()[:2]

    @property
    def is_running(self) -> bool:
        """True while the listener accepts connections."""
        return self._listener is not None and not self._shutdown.is_set()

    def start(self) -> "JumpPoseServer":
        """Bind the listener and accept on a background thread.

        Idempotent; returns this server so construction chains.  Raises
        ``OSError`` when the bind fails (port taken, bad host) — the
        already-started service is closed again before it propagates.
        """
        if self._listener is not None:
            return self
        self.service.start()
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind((self.host, self.port))
            listener.listen(16)
        except OSError:
            listener.close()
            self.service.close()
            raise
        self._shutdown.clear()
        self._listener = listener
        # the listener travels as an argument: a close() racing this
        # start() may null self._listener before the thread runs
        self._accept_thread = threading.Thread(
            target=self._accept_loop,
            args=(listener,),
            name="jumppose-accept",
            daemon=True,
        )
        self._accept_thread.start()
        return self

    def serve_forever(self) -> None:
        """Block until a ``shutdown`` request arrives or :meth:`close`."""
        self.start()
        self._shutdown.wait()
        self.close()

    @staticmethod
    def _close_listener(listener: socket.socket) -> None:
        """Close a listening socket so it actually stops listening.

        ``close()`` alone is not enough while the accept thread is blocked
        in ``accept()``: the in-flight syscall keeps the socket alive, so
        the port would go on accepting connections nobody serves.
        ``shutdown()`` wakes the blocked ``accept()`` and disables the
        socket immediately.
        """
        try:
            listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # never connected / already shut down — fine
        listener.close()

    def close(self) -> None:
        """Stop accepting, drain in-flight requests, join the service pool.

        Requests whose frames were already read get up to
        ``drain_timeout_s`` to finish and send their replies before the
        remaining connections are dropped — a shutdown request from one
        client must not throw away another client's completed results.
        """
        self._shutdown.set()
        listener, self._listener = self._listener, None
        if listener is not None:
            self._close_listener(listener)
        if self._accept_thread is not None:
            if self._accept_thread is not threading.current_thread():
                self._accept_thread.join(timeout=5.0)
            self._accept_thread = None
        with self._inflight_cv:
            self._inflight_cv.wait_for(
                lambda: self._inflight == 0, timeout=self.drain_timeout_s
            )
        with self._connections_lock:
            connections = list(self._connections)
            self._connections.clear()
        for conn in connections:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            conn.close()
        self.service.close()

    def __enter__(self) -> "JumpPoseServer":
        """Start on entry, so ``with JumpPoseServer(...)`` serves."""
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        """Close on exit, even when the body raised."""
        self.close()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    def _accept_loop(self, listener: socket.socket) -> None:
        while not self._shutdown.is_set():
            try:
                conn, _addr = listener.accept()
            except OSError:
                break  # listener closed by close()/shutdown request
            conn.settimeout(self.idle_timeout_s)
            with self._connections_lock:
                self._connections.add(conn)
            thread = threading.Thread(
                target=self._serve_connection,
                args=(conn,),
                name="jumppose-conn",
                daemon=True,
            )
            thread.start()

    def _serve_connection(self, conn: socket.socket) -> None:
        state = _Connection(conn)
        try:
            with conn.makefile("rb") as reader:
                while not self._shutdown.is_set() and not state.closing.is_set():
                    try:
                        frame = read_frame(
                            reader, max_payload_bytes=self.max_payload_bytes
                        )
                    except ProtocolError as exc:
                        self._reply_error(
                            state, self.core.reject("unframed", None, exc)
                        )
                        if exc.recoverable:
                            continue
                        break  # framing lost — drop this connection
                    if frame is None:
                        break  # clean end-of-stream
                    if frame.request_id is not None:
                        # v2 pipelining: hand off and keep reading
                        self._dispatch_pipelined(state, frame)
                        continue
                    # id-less (v1-style) requests: strict arrival order,
                    # reply before the next frame is read
                    with self._inflight_cv:
                        self._inflight += 1
                    try:
                        keep_going = self._serve_frame(state, frame)
                    finally:
                        with self._inflight_cv:
                            self._inflight -= 1
                            self._inflight_cv.notify_all()
                    if not keep_going:
                        break
        except OSError:
            pass  # peer vanished or went idle; nothing left to tell it
        finally:
            with state.state_lock:
                pending = list(state.threads)
            for thread in pending:
                thread.join(timeout=self.drain_timeout_s)
            with self._connections_lock:
                self._connections.discard(conn)
            conn.close()


    # ------------------------------------------------------------------
    # v2 pipelining
    # ------------------------------------------------------------------
    def _dispatch_pipelined(self, state: _Connection, frame) -> None:
        """Run one id-bearing request on its own thread, ceiling-gated."""
        with state.state_lock:
            state.threads = [t for t in state.threads if t.is_alive()]
            overflow = state.inflight >= MAX_INFLIGHT_REQUESTS
            if not overflow:
                state.inflight += 1
        if overflow:
            error = ProtocolError(
                f"more than {MAX_INFLIGHT_REQUESTS} requests in flight "
                f"on one connection",
                code="pipeline-overflow",
                recoverable=True,
            )
            self._reply_error(
                state, self.core.reject("unframed", None, error), frame
            )
            return
        with self._inflight_cv:
            self._inflight += 1
        thread = threading.Thread(
            target=self._run_pipelined,
            args=(state, frame),
            name="jumppose-pipeline",
            daemon=True,
        )
        with state.state_lock:
            state.threads.append(thread)
        thread.start()

    def _run_pipelined(self, state: _Connection, frame) -> None:
        """Thread body for one pipelined request."""
        try:
            if not self._serve_frame(state, frame):
                state.hang_up()
        finally:
            with state.state_lock:
                state.inflight -= 1
            with self._inflight_cv:
                self._inflight -= 1
                self._inflight_cv.notify_all()

    # ------------------------------------------------------------------
    # Frames
    # ------------------------------------------------------------------
    @staticmethod
    def _write(state: _Connection, head: bytes, payload: bytes = b"") -> None:
        """Write one frame's bytes under the connection's send lock.

        Delivery is best effort: a peer that vanished (or stopped
        reading past the idle timeout) breaks and hangs up the
        connection, later writes to it are skipped, and the request it
        asked for still counts as served.
        """
        with state.send_lock:
            if state.broken:
                return
            try:
                state.conn.sendall(head)
                if payload:
                    state.conn.sendall(payload)
            except OSError:
                state.broken = True
                state.hang_up()

    def _reply_error(
        self, state: _Connection, failure, frame=None, trace=None
    ) -> None:
        """Send an already-accounted failure as an ``error`` frame.

        Read-level failures (no decoded ``frame`` to mirror) get a
        version-1 error frame, which every peer can read; frame-level
        failures mirror the request's version and — for pipelined
        requests — its ``id`` so the client can match the error to the
        request it answers.  ``trace`` is echoed so a failed hop stays
        attributable to its trace.
        """
        header: "dict[str, object]" = {
            "type": "error", "code": failure.code, "message": failure.message,
        }
        if trace is not None:
            header["trace"] = trace.to_header()
        if frame is not None and frame.request_id is not None:
            header["id"] = frame.request_id  # only v2 frames carry ids
        version = frame.version if frame is not None else 1
        self._write(state, frame_head(header, b"", version))

    def _serve_frame(self, state: _Connection, frame) -> bool:
        """Handle one well-framed request; False ends the connection."""
        request_type = frame.header.get("type")
        # Lenient by contract: a junk/oversized/ill-typed trace field
        # parses to None and the request runs untraced (see
        # repro.obs.trace); only the trace goes missing, never the reply.
        trace = parse_trace_header(frame.header.get("trace"))
        if isinstance(request_type, str):
            action = self.core.fault(request_type)
            if action == "corrupt":
                self._write(state, b"\xff\x00GARBAGE-NOT-A-FRAME" * 3)
            if action != "run":
                return False  # drop and corrupt both end the connection
            label = request_type if request_type in _REQUEST_TYPES else "unknown"
        else:
            label = "unframed"

        def encode(reply, latency_s, stages):
            header, payload = reply
            if frame.request_id is not None:
                header["id"] = frame.request_id
            if trace is not None:
                header["trace"] = trace.to_header()
            header.setdefault("latency_s", latency_s)
            if stages:
                # this request's own worker stage spans, distinct from
                # the lifetime `stats` accumulation
                header["stages"] = stages
            head = frame_head(header, payload, frame.version)
            return lambda: self._write(state, head, payload)

        failure = self.core.run(
            label, trace,
            lambda profile: self._operate(state, frame, profile),
            encode,
        )
        if failure is not None:
            self._reply_error(state, failure, frame, trace)
            return failure.recoverable
        if request_type == "shutdown":
            # only after the bye reply is on the wire: waking
            # serve_forever() any earlier lets close() drop this
            # connection mid-reply
            self.request_shutdown()
            return False
        return True

    # ------------------------------------------------------------------
    # Operations — each returns (reply header, reply payload)
    # ------------------------------------------------------------------
    def _operate(self, state: _Connection, frame, profile):
        request_type = frame.header.get("type")
        if not isinstance(request_type, str):
            raise bad_request("header is missing a string 'type'")
        if request_type not in _REQUEST_TYPES:
            raise bad_request(
                f"unknown request type {request_type!r} "
                f"(expected one of {sorted(_REQUEST_TYPES)})"
            )
        if request_type == "ping":
            header = {"type": "pong", **self.core.identity()}
            if "echo" in frame.header:
                header["echo"] = frame.header["echo"]
            return header, b""
        if request_type == "stream_analyze":
            return self._stream(state, frame)
        if request_type.startswith("analyze_"):
            mode = request_type[len("analyze_"):]
            return _results_reply(self.core.analyze(
                mode,
                unpack_blobs(frame.payload) if mode == "clips"
                else frame.header.get(mode),
                profile,
            ))
        if request_type == "stats":
            return {"type": "stats", **self.core.stats()}, b""
        if request_type == "metrics":
            header = {
                "type": "metrics",
                "content_type": "text/plain; version=0.0.4",
            }
            if self.replica_id is not None:
                header["replica_id"] = self.replica_id
            return header, self.core.metrics_text().encode("utf-8")
        return {"type": "bye"}, b""  # shutdown, run once the reply is out

    def _stream(self, state: _Connection, frame):
        """Handle one ``stream_analyze`` request (v2 only).

        Per-frame ``stream_frame`` partials go out as the clip decodes
        (fed by the service's :meth:`~JumpPoseService.stream_clip`
        generator); the returned ``result`` reply — bit-identical to an
        ``analyze_clips`` of the same clip — ends the stream.  An error
        mid-stream ends it with an ``error`` frame carrying the id.
        """
        if frame.version < 2:
            raise bad_request("stream_analyze requires protocol version 2")
        blobs = unpack_blobs(frame.payload)
        if len(blobs) != 1:
            raise bad_request(
                f"stream_analyze expects exactly one inline clip "
                f"archive, got {len(blobs)}"
            )
        stream = self.core.stream(blobs[0])
        seq = 0
        while True:
            try:
                partial = next(stream)
            except StopIteration as stop:
                return _results_reply([stop.value])
            header: "dict[str, object]" = {
                "type": "stream_frame",
                "seq": seq,
                "frame": frame_result_to_wire(partial),
            }
            if frame.request_id is not None:
                header["id"] = frame.request_id
            self._write(state, frame_head(header, b"", frame.version))
            seq += 1

    def server_stats_snapshot(self) -> "dict[str, object]":
        """The front's request accounting, read under its lock.

        Returns:
            ``{"requests": ..., "errors": ..., "request_stages": ...}``
            — the ``server`` block of the ``stats`` reply.
        """
        return self.core.server_stats_snapshot()

    def request_shutdown(self) -> None:
        """Start the graceful shutdown; signal-safe.

        What a wire ``shutdown`` request does once its ``bye`` is out,
        and what the ``serve`` CLI's SIGTERM/SIGINT handlers call: stops
        the accept loop and wakes :meth:`serve_forever`, whose
        :meth:`close` then drains in-flight requests, so a supervisor
        (or ``docker stop``) never cuts replies mid-frame.
        """
        self._shutdown.set()
        listener = self._listener
        if listener is not None:
            self._close_listener(listener)


def _results_reply(results) -> "tuple[dict[str, object], bytes]":
    # results ride the payload channel, not the JSON header: the header
    # is capped at 1 MiB while a directory of long clips can
    # legitimately exceed it
    payload = json.dumps(
        [clip_result_to_wire(result) for result in results],
        separators=(",", ":"),
    ).encode("utf-8")
    return {"type": "result", "count": len(results)}, payload
