"""The HTTP/JSON gateway: the serving stack for clients that speak HTTP.

The JPSE socket front (:mod:`repro.serving.net`) is the efficient path,
but browsers, load-balancers, and health-checkers speak HTTP/1.1 —
:class:`JumpPoseHttpServer` puts the same
:class:`~repro.serving.service.JumpPoseService` behind a stdlib
``ThreadingHTTPServer`` (no third-party dependencies) so commodity
producers can submit clips with nothing but ``curl``:

``POST /v1/analyze``
    JSON body selecting exactly one input mode — ``{"clips": [...]}``
    (base64 clip archives, the inline analog of the socket front's
    ``analyze_clips``), ``{"paths": [...]}`` (server-visible archive
    paths), or ``{"directory": "..."}``.  Replies
    ``{"results": [...], "count": N, "latency_s": ...}`` with the same
    per-clip wire rendering as the JPSE protocol, so decoded results are
    bit-identical to a local ``JumpPoseAnalyzer.analyze_clips`` call.
``GET /v1/healthz``
    Liveness + model identification (the ``ping`` analog), plus the
    pose-quality ``quality_alert`` state.
``GET /v1/stats``
    Service throughput/latency plus per-route gateway accounting.
``GET /v1/metrics``
    Prometheus text exposition of the process-global metrics registry
    (``text/plain; version=0.0.4`` — the gateway's one non-JSON reply).
``POST /v1/shutdown``
    Stops the gateway — guarded by a shared token (403 without it; the
    endpoint is disabled entirely when no token was configured).

This module is framing only (body framing and limits, stdlib error
rerouting, the status-code mapping, the shutdown token); operations,
error taxonomy, accounting, events and the fault seam live in
:class:`~repro.serving.core.RequestCore`, shared with the JPSE front.

Error taxonomy (see ``docs/protocol.md`` for the normative table): every
failure is a JSON body ``{"error": {"code": ..., "message": ...}}``.
:func:`~repro.serving.core.classify` picks the code; the caller's
failures map to 400, :class:`~repro.errors.ModelError` and internal bugs
to 500, and gateway refusals carry their own status (404 unknown route,
405 wrong method, 411/413 unframed or oversized body).  Hostile bodies
never take the gateway down: the worst case closes one connection while
the listener keeps serving.
"""

from __future__ import annotations

import base64
import binascii
import hmac
import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from repro.errors import ConfigurationError, ProtocolError
from repro.obs.trace import HTTP_TRACE_HEADER, parse_trace_header
from repro.serving.core import RequestCore, bad_request
from repro.serving.protocol import MAX_PAYLOAD_BYTES, clip_result_to_wire

#: Seconds a keep-alive connection may sit idle before it is dropped.
DEFAULT_HTTP_IDLE_TIMEOUT_S = 300.0

#: Default request-body ceiling.  Inline clips inflate by 4/3 under
#: base64 (plus JSON quoting), so matching the JPSE front's payload
#: capacity needs a correspondingly larger byte ceiling — without this,
#: a batch the socket front accepts would 413 over HTTP.
DEFAULT_MAX_BODY_BYTES = MAX_PAYLOAD_BYTES + MAX_PAYLOAD_BYTES // 3 + (1 << 20)

#: Header carrying the shutdown token (the JSON body ``token`` field is
#: accepted too, for clients that cannot set custom headers).
SHUTDOWN_TOKEN_HEADER = "X-JPSE-Shutdown-Token"


class _HttpFailure(ProtocolError):
    """An HTTP-only refusal with its own status, raised by the gateway.

    ``close`` marks failures where the request body was not (or could not
    be) fully consumed, so HTTP/1.1 keep-alive framing is lost and the
    connection must be closed after the reply — the HTTP face of an
    unrecoverable :class:`~repro.errors.ProtocolError`.
    """

    def __init__(
        self, status: int, code: str, message: str, close: bool = False
    ) -> None:
        super().__init__(message, code=code, recoverable=not close)
        self.status = status


class _GatewayHTTPServer(ThreadingHTTPServer):
    """A ``ThreadingHTTPServer`` that knows its owning gateway."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address, handler, gateway: "JumpPoseHttpServer") -> None:
        self.gateway = gateway
        super().__init__(address, handler)


class _GatewayHandler(BaseHTTPRequestHandler):
    """Per-connection handler; all logic lives on the gateway object."""

    protocol_version = "HTTP/1.1"
    server_version = "JumpPoseHttp/1"
    # The stock handler writes unbuffered — one TCP segment per header
    # line — which under Nagle + delayed ACK costs ~40ms per reply on
    # loopback.  Buffer the whole reply and disable Nagle instead.
    wbufsize = -1
    disable_nagle_algorithm = True

    def setup(self) -> None:
        """Apply the gateway's idle timeout before the stream opens."""
        self.timeout = self.server.gateway.idle_timeout_s
        super().setup()

    def log_message(self, format: str, *args: object) -> None:
        """Silence the default stderr access log (stats carry the counts)."""

    def do_GET(self) -> None:
        """Route GET requests (healthz, stats)."""
        self.server.gateway._dispatch(self, "GET")

    def do_POST(self) -> None:
        """Route POST requests (analyze, shutdown)."""
        self.server.gateway._dispatch(self, "POST")

    def send_error(self, code, message=None, explain=None) -> None:
        """Keep stdlib-generated failures on the JSON error contract.

        The base handler answers unsupported methods (HEAD, PUT, ...)
        and malformed request lines with an HTML error page; the
        gateway's contract is that *every* failure is a structured JSON
        body, so those paths are rerouted through the gateway too.
        """
        self.server.gateway._send_stdlib_error(self, code, message)

    def handle(self) -> None:
        """Serve the connection, swallowing peer-vanished errors.

        A client that resets the connection before reading its reply
        (load-balancers and health-checkers do this routinely) would
        otherwise escape as ``ConnectionError`` out of the buffered
        ``wfile.flush()`` and dump a traceback via
        ``socketserver.handle_error``.
        """
        try:
            super().handle()
        except ConnectionError:
            self.close_connection = True

    def finish(self) -> None:
        """Close the stream pair, tolerating an already-dead peer."""
        try:
            super().finish()
        except ConnectionError:
            pass


class JumpPoseHttpServer:
    """Serve one model artifact over HTTP/1.1 + JSON until told to stop.

    Args:
        artifact_path: saved model artifact (schema-checked eagerly).
        host: bind address; loopback by default.
        port: bind port; 0 (the default) picks an ephemeral port — read
            :attr:`address` after :meth:`start` for the real one.
        jobs / batch_size / decode: forwarded to the
            :class:`~repro.serving.service.JumpPoseService` the request
            core builds.
        replica_id: optional replica name, surfaced by ``/v1/healthz``
            and ``/v1/stats`` so a load-balancer probing many gateways
            can attribute each answer.
        max_body_bytes: request-body ceiling; larger declared bodies are
            rejected with 413 before a single byte is read.  The default
            is the JPSE payload ceiling scaled for base64 inflation, so
            both fronts accept the same inline clip batches.
        shutdown_token: shared secret for ``POST /v1/shutdown``.  ``None``
            (the default) disables remote shutdown entirely.
        idle_timeout_s: per-connection socket timeout.
        fault_injector: optional
            :class:`~repro.serving.faults.FaultInjector` consulted once
            per routed request (request types are the route stems:
            ``healthz``, ``stats``, ``metrics``, ``analyze``,
            ``shutdown``) — the same testing seam the socket front
            carries.  ``None`` costs nothing.

    Use as a context manager, or :meth:`start` / :meth:`close`;
    :meth:`serve_forever` blocks until a token-bearing shutdown request
    (or :meth:`close` from another thread).

    Raises:
        ConfigurationError: a non-positive ``max_body_bytes``.
    """

    def __init__(
        self,
        artifact_path: "str | Path",
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        jobs: int = 1,
        batch_size: int = 4,
        decode: "str | None" = None,
        replica_id: "str | None" = None,
        max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
        shutdown_token: "str | None" = None,
        idle_timeout_s: float = DEFAULT_HTTP_IDLE_TIMEOUT_S,
        fault_injector=None,
    ) -> None:
        if max_body_bytes < 1:
            raise ConfigurationError(
                f"max_body_bytes must be >= 1, got {max_body_bytes}"
            )
        self.core = RequestCore(
            artifact_path, jobs=jobs, batch_size=batch_size, decode=decode,
            replica_id=replica_id, fault_injector=fault_injector,
            transport="http",
        )
        self.service = self.core.service
        self.host = host
        self.port = port
        self.max_body_bytes = max_body_bytes
        self.shutdown_token = shutdown_token
        self.idle_timeout_s = idle_timeout_s
        self._httpd: "_GatewayHTTPServer | None" = None
        self._serve_thread: "threading.Thread | None" = None
        self._shutdown = threading.Event()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def address(self) -> "tuple[str, int]":
        """The bound ``(host, port)``; valid after :meth:`start`."""
        if self._httpd is None:
            raise ConfigurationError("gateway is not started")
        return self._httpd.server_address[:2]

    @property
    def is_running(self) -> bool:
        """True while the listener accepts requests."""
        return self._httpd is not None and not self._shutdown.is_set()

    def start(self) -> "JumpPoseHttpServer":
        """Bind the listener and serve on a background thread.

        Returns:
            This gateway, so ``JumpPoseHttpServer(...).start()`` chains.

        Raises:
            OSError: the bind failed (port taken, bad host); the service
                is closed again before the error propagates.
        """
        if self._httpd is not None:
            return self
        self.service.start()
        try:
            httpd = _GatewayHTTPServer(
                (self.host, self.port), _GatewayHandler, self
            )
        except OSError:
            self.service.close()
            raise
        self._shutdown.clear()
        self._httpd = httpd
        self._serve_thread = threading.Thread(
            target=httpd.serve_forever,
            name="jumppose-http",
            daemon=True,
        )
        self._serve_thread.start()
        return self

    def serve_forever(self) -> None:
        """Block until a shutdown request arrives or :meth:`close`."""
        self.start()
        self._shutdown.wait()
        self.close()

    def close(self) -> None:
        """Stop the listener, join the serving thread, close the service.

        Idempotent, and safe to call while requests are in flight: the
        accept loop stops first and in-flight handler threads are
        daemonic.
        """
        self._shutdown.set()
        httpd, self._httpd = self._httpd, None
        if httpd is not None:
            httpd.shutdown()
            httpd.server_close()
        if self._serve_thread is not None:
            if self._serve_thread is not threading.current_thread():
                self._serve_thread.join(timeout=5.0)
            self._serve_thread = None
        self.service.close()

    def __enter__(self) -> "JumpPoseHttpServer":
        """Start on entry, so ``with JumpPoseHttpServer(...)`` serves."""
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        """Close on exit, even when the body raised."""
        self.close()

    def request_shutdown(self) -> None:
        """Start the graceful shutdown; signal-safe.

        What a token-bearing ``POST /v1/shutdown`` does once its reply
        is out, and what the ``serve`` CLI's SIGTERM/SIGINT handlers
        call: stops the listener and wakes :meth:`serve_forever`.
        ``httpd.shutdown()`` blocks until the accept loop exits, so it
        runs on a helper thread instead of stalling a handler.
        """
        self._shutdown.set()
        httpd = self._httpd
        if httpd is not None:
            threading.Thread(
                target=httpd.shutdown, name="jumppose-http-stop", daemon=True
            ).start()

    # ------------------------------------------------------------------
    # Request plumbing
    # ------------------------------------------------------------------
    _ROUTES = {
        "/v1/healthz": ("GET", "_route_healthz"),
        "/v1/stats": ("GET", "_route_stats"),
        "/v1/metrics": ("GET", "_route_metrics"),
        "/v1/analyze": ("POST", "_route_analyze"),
        "/v1/shutdown": ("POST", "_route_shutdown"),
    }

    def _dispatch(self, handler: _GatewayHandler, method: str) -> None:
        """Resolve one request to a route and run it through the core."""
        path = handler.path.split("?", 1)[0]
        route = self._ROUTES.get(path)
        stage = path.rsplit("/", 1)[-1] if route is not None else "unrouted"
        # Trace context off the X-Request-Id header: lenient (junk means
        # untraced, never a rejection), echoed on every reply below, and
        # stamped on the request's event-log line.
        trace = parse_trace_header(handler.headers.get(HTTP_TRACE_HEADER))
        handler.jpse_trace = trace
        handler.jpse_stage = stage
        # a request we refuse to route may still carry a body; left
        # unread it would corrupt keep-alive framing, so such refusals
        # close the connection (POSTs always declare one)
        declared = handler.headers.get("Content-Length")
        body_unread = method == "POST" or (
            declared is not None and declared.strip() not in ("", "0")
        )
        try:
            if route is None:
                raise _HttpFailure(
                    404,
                    "not-found",
                    f"unknown route {path!r} "
                    f"(expected one of {sorted(self._ROUTES)})",
                    close=body_unread,
                )
            expected_method, route_name = route
            if method != expected_method:
                raise _HttpFailure(
                    405,
                    "method-not-allowed",
                    f"{path} expects {expected_method}, got {method}",
                    close=body_unread,
                )
            if method == "GET":
                # a GET may legally carry a body; it means nothing here,
                # but leaving it unread would corrupt keep-alive framing
                # (the next request would be parsed from the stale bytes)
                self._read_body(handler, required=False)
        except _HttpFailure as refusal:
            self._send_failure(handler, self.core.reject(stage, trace, refusal))
            return
        action = self.core.fault(stage)
        if action != "run":
            handler.close_connection = True
            if action == "corrupt":
                try:
                    handler.wfile.write(b"\xff\x00GARBAGE-NOT-HTTP\r\n" * 3)
                except OSError:
                    pass  # the peer is already gone; the drop stands
            return

        def encode(payload, latency_s, stages):
            # the request event carries `stages`; the reply body stays
            # as documented in docs/protocol.md
            if isinstance(payload, str):
                # the metrics route replies with Prometheus text
                # exposition, not JSON — the one non-JSON body
                body = payload.encode("utf-8")
                content_type = "text/plain; version=0.0.4; charset=utf-8"
            else:
                payload.setdefault("latency_s", latency_s)
                body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
                content_type = "application/json"
            return lambda: self._send_body(handler, 200, body, content_type)

        failure = self.core.run(
            stage, trace,
            lambda profile: getattr(self, route_name)(handler, profile),
            encode,
        )
        if failure is not None:
            self._send_failure(handler, failure)
        elif stage == "shutdown":
            # only after the reply is on the wire, so the requester gets
            # its acknowledgement before the listener goes away
            self.request_shutdown()

    def _send_body(
        self,
        handler: _GatewayHandler,
        status: int,
        body: bytes,
        content_type: str,
        close: bool = False,
    ) -> None:
        """Write one response with explicit framing + the trace echo."""
        try:
            handler.send_response(status)
            handler.send_header("Content-Type", content_type)
            handler.send_header("Content-Length", str(len(body)))
            trace = getattr(handler, "jpse_trace", None)
            if trace is not None:
                handler.send_header(HTTP_TRACE_HEADER, trace.to_http_header())
            if close:
                handler.send_header("Connection", "close")
                handler.close_connection = True
            handler.end_headers()
            handler.wfile.write(body)
        except OSError:
            handler.close_connection = True  # peer vanished mid-reply

    def _send_failure(self, handler: _GatewayHandler, failure) -> None:
        """Send one already-accounted failure as ``{"error": ...}``.

        The status is the refusal's own (404, 411, ...) or follows the
        failure side: the caller's 400, the model's or an internal 500.
        Unrecoverable failures close the connection.
        """
        status = getattr(failure.error, "status", None)
        body = json.dumps(
            {"error": {"code": failure.code, "message": failure.message}},
            separators=(",", ":"),
        ).encode("utf-8")
        if status is None:
            status = 400 if failure.fault == "caller" else 500
        self._send_body(
            handler,
            status,
            body,
            "application/json",
            close=not failure.recoverable,
        )

    #: JSON error codes for the statuses the stdlib handler generates
    #: itself (before a do_* method ever runs).
    _STDLIB_ERROR_CODES = {
        501: "unsupported-method",
        505: "unsupported-http-version",
        400: "bad-request",
        414: "oversized-uri",
        431: "oversized-header",
        408: "timeout",
    }

    def _send_stdlib_error(
        self, handler: _GatewayHandler, status: int, message: "str | None"
    ) -> None:
        """JSON replacement for ``BaseHTTPRequestHandler.send_error``.

        Covers failures the stdlib raises before routing — unsupported
        methods (HEAD, PUT, ...), unparseable request lines, oversized
        header blocks — so even those honour the JSON error contract.
        The connection always closes: request framing is unknown here.
        """
        code = self._STDLIB_ERROR_CODES.get(status, "http-error")
        refusal = _HttpFailure(
            status, code, message or f"HTTP {status}", close=True
        )
        stage = getattr(handler, "jpse_stage", "unframed")
        trace = getattr(handler, "jpse_trace", None)
        self._send_failure(handler, self.core.reject(stage, trace, refusal))

    def _read_body(
        self, handler: _GatewayHandler, required: bool = True
    ) -> bytes:
        """Read a bounded request body, enforcing explicit framing.

        ``required=False`` treats a missing Content-Length as an empty
        body (for GET routes, which only drain to preserve keep-alive
        framing) instead of a 411.

        Raises:
            _HttpFailure: 411 without a Content-Length (chunked uploads
                are not accepted), 413 when the declared length exceeds
                ``max_body_bytes`` — checked *before* any byte is read,
                so an oversized upload costs the gateway no memory.
            ProtocolError: an unparseable length or a truncated body
                (400; framing is lost, so the connection closes).
        """
        declared = handler.headers.get("Content-Length")
        if declared is None:
            if not required:
                return b""
            raise _HttpFailure(
                411,
                "length-required",
                "requests must declare Content-Length "
                "(chunked bodies are not accepted)",
                close=True,
            )
        try:
            length = int(declared)
        except ValueError:
            raise ProtocolError(
                f"Content-Length {declared!r} is not an integer",
                code="bad-request",
            )
        if length < 0:
            raise ProtocolError(
                f"Content-Length must be >= 0, got {length}",
                code="bad-request",
            )
        if length > self.max_body_bytes:
            raise _HttpFailure(
                413,
                "oversized-body",
                f"declared body of {length} bytes exceeds the "
                f"{self.max_body_bytes}-byte limit",
                close=True,
            )
        chunks: "list[bytes]" = []
        remaining = length
        while remaining:
            chunk = handler.rfile.read(remaining)
            if not chunk:
                raise ProtocolError(
                    f"connection closed mid-body "
                    f"({length - remaining}/{length} bytes)",
                    code="truncated-body",
                )
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    @staticmethod
    def _parse_json_object(body: bytes) -> "dict[str, object]":
        """Decode a request body as one JSON object (400 otherwise)."""
        try:
            parsed = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ProtocolError(
                f"request body is not valid JSON: {exc}",
                code="bad-json",
                recoverable=True,
            )
        if not isinstance(parsed, dict):
            raise bad_request(
                f"request body must be a JSON object, "
                f"got {type(parsed).__name__}"
            )
        return parsed

    # ------------------------------------------------------------------
    # Routes — each returns the reply payload (a JSON object, or text)
    # ------------------------------------------------------------------
    def _route_healthz(self, handler: _GatewayHandler, profile):
        """Liveness + model identification (the socket ``ping`` analog).

        Carries ``quality_alert`` — the service's pose-quality alert
        state (see :mod:`repro.obs.quality`) — read without the dispatch
        lock (plain integer counters; a probe must answer even while a
        long dispatch holds the lock), so the value may trail an
        in-flight dispatch by a few clips.
        """
        return {
            "status": "ok",
            **self.core.identity(),
            "quality_alert": self.service.stats.quality_dict()["alert"],
        }

    def _route_metrics(self, handler: _GatewayHandler, profile):
        """Prometheus text exposition (``text/plain; version=0.0.4``)."""
        return self.core.metrics_text()

    def _route_stats(self, handler: _GatewayHandler, profile):
        """Service throughput/latency plus per-route gateway counters."""
        return self.core.stats()

    def _route_analyze(self, handler: _GatewayHandler, profile):
        """Decode clips named by exactly one of clips/paths/directory."""
        request = self._parse_json_object(self._read_body(handler))
        selectors = [
            key for key in ("clips", "paths", "directory") if key in request
        ]
        if len(selectors) != 1:
            raise bad_request(
                "the request must carry exactly one of "
                "'clips', 'paths', 'directory'; "
                f"got {selectors or 'none of them'}"
            )
        (mode,) = selectors
        results = self.core.analyze(
            mode,
            self._decode_base64(request[mode]) if mode == "clips"
            else request[mode],
            profile,
        )
        return {
            "results": [clip_result_to_wire(result) for result in results],
            "count": len(results),
        }

    @staticmethod
    def _decode_base64(entries: object) -> "list[bytes]":
        """Turn a list of base64 archive strings into archive bytes."""
        if not isinstance(entries, list) or not all(
            isinstance(entry, str) for entry in entries
        ):
            raise bad_request(
                "'clips' must be a list of base64-encoded archive strings"
            )
        blobs = []
        for index, entry in enumerate(entries):
            try:
                blobs.append(
                    base64.b64decode(entry.encode("ascii"), validate=True)
                )
            except (binascii.Error, UnicodeEncodeError) as exc:
                raise ProtocolError(
                    f"clip {index} is not valid base64: {exc}",
                    code="bad-base64",
                    recoverable=True,
                )
        return blobs

    def _route_shutdown(self, handler: _GatewayHandler, profile):
        """Stop the gateway iff the caller presents the shared token."""
        body = self._read_body(handler)
        presented = handler.headers.get(SHUTDOWN_TOKEN_HEADER)
        if presented is None and body:
            token_field = self._parse_json_object(body).get("token")
            if token_field is not None and not isinstance(token_field, str):
                raise bad_request("'token' must be a string")
            presented = token_field
        if self.shutdown_token is None:
            raise _HttpFailure(
                403,
                "shutdown-disabled",
                "this gateway was started without a shutdown token",
            )
        if presented is None or not hmac.compare_digest(
            presented.encode("utf-8"), self.shutdown_token.encode("utf-8")
        ):
            raise _HttpFailure(403, "bad-token", "shutdown token mismatch")
        return {"status": "bye"}
