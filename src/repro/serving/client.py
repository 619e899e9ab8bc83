"""Typed clients for the serving fronts: JPSE sockets, HTTP/JSON, fleets.

:class:`JumpPoseClient` owns one TCP connection to a
:class:`~repro.serving.net.JumpPoseServer` and speaks the framed JPSE
protocol — including the v2 capabilities: pipelined requests
(:meth:`~JumpPoseClient.analyze_clips_pipelined`) and per-frame
streaming replies (:meth:`~JumpPoseClient.stream_analyze`).
:class:`HttpJumpPoseClient` targets a
:class:`~repro.serving.http.JumpPoseHttpServer` over HTTP/1.1 with the
same retry/timeout semantics (shared via :class:`RetryingClientBase`).
:class:`RoutingClient` is the scale-out entry point: a client-side
router sharding ``analyze_clips`` over many replicas with automatic
failover (see ``docs/scaling.md``).  All of them expose the request
surface as methods returning real library types — ``analyze_clips``
hands back :class:`~repro.core.results.ClipResult` objects that compare
equal to what a local ``JumpPoseAnalyzer.analyze_clips`` produces (the
conformance suites pin this bit-for-bit).

Failure taxonomy, identical for all transports:

* :class:`~repro.errors.TransportError` — could not connect (after the
  configured retries), the socket timed out, or the peer vanished;
* :class:`~repro.errors.RemoteError` — the server replied with a
  structured error (its ``code`` — and for HTTP the status — preserved);
* :class:`~repro.errors.ProtocolError` — the server's bytes themselves
  were malformed (should never happen against a healthy server).
"""

from __future__ import annotations

import base64
import bisect
import hashlib
import http.client
import json
import random
import socket
import threading
import time
from pathlib import Path
from typing import TYPE_CHECKING

from repro.errors import (
    ConfigurationError,
    ProtocolError,
    RemoteError,
    TransportError,
)
from repro.obs.events import emit_event
from repro.obs.metrics import get_registry
from repro.obs.trace import HTTP_TRACE_HEADER, TraceContext, new_trace
from repro.serving.protocol import (
    MAX_INFLIGHT_REQUESTS,
    Frame,
    clip_result_from_wire,
    frame_result_from_wire,
    pack_blobs,
    read_frame,
    send_frame,
)

if TYPE_CHECKING:
    from repro.core.results import ClipResult, FrameResult
    from repro.synth.dataset import JumpClip

# Client-side routing instruments.  The registry is process-global, so
# an in-process router and its servers report into one scrape; across
# real processes each side exposes its own copy.
_METRICS = get_registry()
_ROUTE_FAILOVERS = _METRICS.counter(
    "jpse_route_failovers_total",
    "Shards re-dispatched after a replica transport failure.",
)
_REPLICA_DISAGREEMENTS = _METRICS.counter(
    "jpse_replica_disagreements_total",
    "Clips whose redundantly-routed replicas returned different results.",
)


class RetryingClientBase:
    """Connect-with-retry and timeout policy shared by both clients.

    The back-off between attempts is exponential, *capped*, and
    *jittered*: attempt ``i`` waits
    ``min(retry_delay_s * 2**(i-1), retry_max_delay_s)`` stretched by up
    to ``retry_jitter_frac`` of itself.  The jitter matters at scale —
    after a replica restart, every client that lost its connection
    retries; pure exponential delays keep those clients in lock-step and
    the reconnect storm re-arrives as a thundering herd each round,
    while jittered delays spread it out.

    Args:
        host / port: the server's bound address.
        timeout_s: per-operation socket timeout (connect, send, receive).
        connect_retries: additional connection attempts after the first
            fails (covers the serve-process-still-starting race).
        retry_delay_s: initial back-off between attempts; doubles each
            retry up to ``retry_max_delay_s``.
        retry_max_delay_s: ceiling on the (pre-jitter) back-off delay.
        retry_jitter_frac: each delay is stretched by a uniform random
            fraction in ``[0, retry_jitter_frac]`` of itself; 0 disables
            jitter.
        retry_rng: the ``random.Random`` drawing the jitter (a fresh,
            OS-seeded one by default — tests inject a seeded rng).
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout_s: float = 30.0,
        connect_retries: int = 3,
        retry_delay_s: float = 0.1,
        retry_max_delay_s: float = 2.0,
        retry_jitter_frac: float = 0.25,
        retry_rng: "random.Random | None" = None,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout_s = timeout_s
        self.connect_retries = connect_retries
        self.retry_delay_s = retry_delay_s
        self.retry_max_delay_s = retry_max_delay_s
        self.retry_jitter_frac = retry_jitter_frac
        self._retry_rng = retry_rng if retry_rng is not None else random.Random()
        self._trace_root: "TraceContext | None" = None

    def _span(self, trace: "TraceContext | None" = None) -> "TraceContext":
        """A fresh per-request span under ``trace`` (or this client's root).

        Every outbound request gets its own span id so replies and log
        events can be matched hop by hop.  Requests of one client share
        a lazily-minted root trace id unless the caller supplies a
        context — a :class:`RoutingClient` does exactly that, so every
        shard of one routed call carries one trace id end to end.
        """
        if trace is None:
            if self._trace_root is None:
                self._trace_root = new_trace()
            trace = self._trace_root
        return trace.child()

    def _retry_sleep_s(self, attempt: int) -> float:
        """The jittered, capped back-off before attempt ``attempt`` (1-based)."""
        base = min(
            self.retry_delay_s * (2 ** (attempt - 1)), self.retry_max_delay_s
        )
        return base * (1.0 + self.retry_jitter_frac * self._retry_rng.random())

    def _open_with_retry(self, open_once):
        """Call ``open_once`` with capped, jittered back-off on ``OSError``.

        Returns:
            Whatever ``open_once`` returns, on the first success.

        Raises:
            TransportError: every attempt failed; the last ``OSError``
                is chained as the cause.
        """
        last_error: "OSError | None" = None
        for attempt in range(self.connect_retries + 1):
            if attempt:
                time.sleep(self._retry_sleep_s(attempt))
            try:
                return open_once()
            except OSError as exc:
                last_error = exc
        raise TransportError(
            f"could not connect to {self.host}:{self.port} after "
            f"{self.connect_retries + 1} attempts: {last_error}"
        ) from last_error

    def connect(self):
        """Open the connection (subclasses implement)."""
        raise NotImplementedError

    def close(self) -> None:
        """Drop the connection (subclasses implement)."""
        raise NotImplementedError

    def __enter__(self):
        """Connect on entry, so ``with Client(...) as c`` is ready to use."""
        return self.connect()

    def __exit__(self, *exc_info: object) -> None:
        """Close on exit, even when the body raised."""
        self.close()


class JumpPoseClient(RetryingClientBase):
    """Connect, retry, time out — then speak the JPSE wire protocol.

    Constructor arguments are those of :class:`RetryingClientBase`.  The
    connection is opened lazily on the first request (or explicitly via
    :meth:`connect`).  Use as a context manager, or call :meth:`close`.
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout_s: float = 30.0,
        connect_retries: int = 3,
        retry_delay_s: float = 0.1,
        retry_max_delay_s: float = 2.0,
        retry_jitter_frac: float = 0.25,
        retry_rng: "random.Random | None" = None,
    ) -> None:
        super().__init__(
            host, port, timeout_s, connect_retries, retry_delay_s,
            retry_max_delay_s, retry_jitter_frac, retry_rng,
        )
        self._sock: "socket.socket | None" = None
        self._reader = None
        self._next_request_id = 0

    # ------------------------------------------------------------------
    # Connection lifecycle
    # ------------------------------------------------------------------
    @property
    def is_connected(self) -> bool:
        """True while a socket to the server is open."""
        return self._sock is not None

    def connect(self) -> "JumpPoseClient":
        """Open the connection, retrying with exponential back-off.

        Returns:
            This client, connected.

        Raises:
            TransportError: no attempt could reach the server.
        """
        if self._sock is not None:
            return self

        def open_once() -> None:
            self._sock = socket.create_connection(
                (self.host, self.port), timeout=self.timeout_s
            )
            self._reader = self._sock.makefile("rb")

        self._open_with_retry(open_once)
        return self

    def close(self) -> None:
        """Drop the connection; safe to call twice."""
        if self._reader is not None:
            try:
                self._reader.close()
            except OSError:
                pass
            self._reader = None
        if self._sock is not None:
            self._sock.close()
            self._sock = None

    # ------------------------------------------------------------------
    # The request surface
    # ------------------------------------------------------------------
    def ping(
        self,
        echo: "object | None" = None,
        deadline_s: "float | None" = None,
    ) -> "dict[str, object]":
        """Liveness probe; returns the server's ``pong`` header.

        The header carries a ``supervision`` block (state, uptime,
        restart count, last error) when the server runs under a
        :class:`~repro.serving.supervisor.ReplicaSupervisor`.
        ``deadline_s`` bounds the whole exchange (see
        :meth:`analyze_clips`) — a ping that cannot answer inside the
        deadline is a failed probe, whatever the socket timeout says.
        """
        header: "dict[str, object]" = {"type": "ping"}
        if echo is not None:
            header["echo"] = echo
        return self._request(header, deadline_s=deadline_s).header

    def analyze_clips(
        self,
        clips: "list[JumpClip] | tuple[JumpClip, ...]",
        deadline_s: "float | None" = None,
        trace: "TraceContext | None" = None,
    ) -> "list[ClipResult]":
        """Ship clips inline and decode them remotely, in request order.

        Args:
            clips: the clips to decode.
            deadline_s: optional hard bound on the whole post-connect
                exchange.  The per-operation ``timeout_s`` only fires on
                a *silent* socket — a server replying one byte per
                ``timeout_s`` never trips it — so deadline-bound callers
                (failover routers, health probes) pass ``deadline_s``
                and get a :class:`~repro.errors.TransportError` once the
                budget is spent, however chatty the peer.
            trace: optional trace context to issue this request's span
                under (instead of this client's own root trace) — a
                router passes its per-call context here so all shards
                share one trace id.

        Returns:
            One :class:`~repro.core.results.ClipResult` per clip,
            bit-identical to a local ``analyze_clips`` on the server's
            model.

        Raises:
            RemoteError: the server rejected or failed the request.
            TransportError: the connection died mid-request, or the
                deadline expired first.
        """
        from repro.synth.io import clip_to_bytes

        payload = pack_blobs([clip_to_bytes(clip) for clip in clips])
        return self._results(
            self._request(
                {"type": "analyze_clips"},
                payload,
                deadline_s=deadline_s,
                trace=trace,
            )
        )

    def analyze_paths(
        self, paths: "list[str | Path] | tuple[str | Path, ...]"
    ) -> "list[ClipResult]":
        """Decode server-visible clip archives addressed by path."""
        header = {
            "type": "analyze_paths",
            "paths": [str(path) for path in paths],
        }
        return self._results(self._request(header))

    def analyze_directory(self, directory: "str | Path") -> "list[ClipResult]":
        """Decode every ``*.npz`` under a server-visible directory."""
        header = {"type": "analyze_directory", "directory": str(directory)}
        return self._results(self._request(header))

    def stats(self) -> "dict[str, object]":
        """Service + server accounting (throughput, latency, errors)."""
        return self._request({"type": "stats"}).header

    def metrics(self) -> str:
        """The server's metrics in Prometheus text exposition format.

        Returns:
            The scrape body (the same text ``GET /v1/metrics`` serves on
            the HTTP gateway) — counters, gauges, and latency
            histograms; see ``docs/observability.md`` for the catalog.

        Raises:
            ProtocolError: the reply was not a ``metrics`` frame or its
                payload was not UTF-8 text.
        """
        response = self._request({"type": "metrics"})
        if response.header.get("type") != "metrics":
            raise ProtocolError(
                f"expected a metrics frame, got "
                f"{response.header.get('type')!r}",
                code="bad-result",
                recoverable=True,
            )
        try:
            return response.payload.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(
                f"metrics payload is not UTF-8 text: {exc}",
                code="bad-result",
                recoverable=True,
            ) from exc

    def shutdown(self) -> "dict[str, object]":
        """Ask the server to stop; returns its ``bye`` header."""
        response = self._request({"type": "shutdown"}).header
        self.close()
        return response

    def analyze_clips_pipelined(
        self,
        batches: "list[list[JumpClip]]",
        max_inflight: int = 8,
    ) -> "list[list[ClipResult]]":
        """Overlap many ``analyze_clips`` requests on this one connection.

        Protocol-v2 pipelining: each batch goes out as its own
        id-tagged request, up to ``max_inflight`` of them in flight at
        once, without waiting for earlier replies.  The server answers
        in completion order; replies are matched back to their request
        by id, so the returned lists are in *batch* order regardless of
        completion order — element ``i`` equals what
        ``analyze_clips(batches[i])`` would have returned.

        Args:
            batches: one clip list per request.  An empty batch list is
                legal and returns ``[]``.
            max_inflight: pipelining window, capped by the protocol's
                per-connection ceiling
                (:data:`~repro.serving.protocol.MAX_INFLIGHT_REQUESTS`).

        Returns:
            One ``list[ClipResult]`` per batch, in batch order.

        Raises:
            ConfigurationError: ``max_inflight`` is out of range.
            RemoteError: the server failed one of the requests; the
                connection is closed (other replies may still be in
                flight, so its state is not reusable).
            TransportError: the connection died mid-pipeline.
        """
        from repro.synth.io import clip_to_bytes

        if not 1 <= max_inflight <= MAX_INFLIGHT_REQUESTS:
            raise ConfigurationError(
                f"max_inflight must be in [1, {MAX_INFLIGHT_REQUESTS}], "
                f"got {max_inflight}"
            )
        batches = [list(batch) for batch in batches]
        if not batches:
            return []
        results: "dict[int, list[ClipResult]]" = {}
        pending: "dict[int | str, int]" = {}  # request id -> batch index
        next_batch = 0
        try:
            while len(results) < len(batches):
                while next_batch < len(batches) and len(pending) < max_inflight:
                    rid = self._take_id()
                    payload = pack_blobs(
                        [clip_to_bytes(clip) for clip in batches[next_batch]]
                    )
                    self._send_request(
                        {"type": "analyze_clips", "id": rid}, payload
                    )
                    pending[rid] = next_batch
                    next_batch += 1
                response = self._read_reply("analyze_clips (pipelined)")
                rid = response.header.get("id")
                if response.header.get("type") == "error":
                    self._raise_remote(response.header)
                if rid not in pending:
                    raise ProtocolError(
                        f"pipelined reply carries unknown id {rid!r} "
                        f"(awaiting {sorted(map(str, pending))})",
                        code="bad-result",
                    )
                results[pending.pop(rid)] = self._results(response)
        except (RemoteError, ProtocolError):
            # replies for the remaining in-flight requests may still be
            # inbound; the connection cannot be reused coherently
            self.close()
            raise
        return [results[index] for index in range(len(batches))]

    def stream_analyze(self, clip: "JumpClip"):
        """Decode one clip remotely with per-frame partial results.

        A generator over the protocol-v2 ``stream_analyze`` exchange:
        it yields one :class:`~repro.core.results.FrameResult` per clip
        frame *as the server decodes it* (causal ``filter``-mode
        predictions — feedback arrives before the clip finishes), and
        finally yields the complete
        :class:`~repro.core.results.ClipResult`, which is bit-identical
        to what ``analyze_clips([clip])[0]`` returns for the same
        server.  The final item is always the ``ClipResult``::

            *partials, final = client.stream_analyze(clip)

        Abandoning the generator mid-stream closes the connection (the
        unread partial frames would desynchronise later requests); the
        next request reconnects lazily.

        Args:
            clip: the clip to ship inline and decode remotely.

        Yields:
            ``FrameResult`` per frame, then the final ``ClipResult``.

        Raises:
            RemoteError: the server rejected or failed the request
                (possibly mid-stream, after some partials).
            TransportError: the connection died mid-stream.
        """
        from repro.synth.io import clip_to_bytes

        rid = self._take_id()
        self._send_request(
            {"type": "stream_analyze", "id": rid},
            pack_blobs([clip_to_bytes(clip)]),
        )
        complete = False
        try:
            while True:
                response = self._read_reply("stream_analyze")
                header = response.header
                if header.get("type") == "error":
                    self._raise_remote(header)
                if header.get("id") != rid:
                    raise ProtocolError(
                        f"stream reply carries id {header.get('id')!r}, "
                        f"expected {rid!r}",
                        code="bad-result",
                    )
                frame_type = header.get("type")
                if frame_type == "stream_frame":
                    entry = header.get("frame")
                    if not isinstance(entry, dict):
                        raise ProtocolError(
                            "stream_frame reply is missing a 'frame' object",
                            code="bad-result",
                        )
                    yield frame_result_from_wire(entry)
                    continue
                if frame_type == "result":
                    results = self._results(response)
                    if len(results) != 1:
                        raise ProtocolError(
                            f"stream_analyze final frame carries "
                            f"{len(results)} results, expected 1",
                            code="bad-result",
                        )
                    complete = True
                    yield results[0]
                    return
                raise ProtocolError(
                    f"unexpected {frame_type!r} frame inside a stream",
                    code="bad-result",
                )
        finally:
            if not complete:
                self.close()

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def _take_id(self) -> int:
        """The next request id for pipelined/streaming exchanges."""
        self._next_request_id += 1
        return self._next_request_id

    @staticmethod
    def _raise_remote(header: "dict[str, object]") -> None:
        """Turn a structured ``error`` frame header into a RemoteError."""
        code = str(header.get("code", "server-error"))
        message = str(header.get("message", "(no message)"))
        raise RemoteError(f"{code}: {message}", code=code)

    def _send_request(
        self, header: "dict[str, object]", payload: bytes = b""
    ) -> None:
        """Connect lazily and put one request frame on the wire.

        Every request leaves with a ``trace`` header (a fresh span under
        this client's root trace) unless the caller already attached
        one; servers echo it on the reply and stamp it on their log
        events, so a request is followable across processes.
        """
        if "trace" not in header:
            header["trace"] = self._span().to_header()
        self.connect()
        try:
            send_frame(self._sock, header, payload)
        except socket.timeout as exc:
            self.close()
            raise TransportError(
                f"request {header.get('type')!r} timed out after "
                f"{self.timeout_s}s"
            ) from exc
        except OSError as exc:
            self.close()
            raise TransportError(
                f"connection to {self.host}:{self.port} failed: {exc}"
            ) from exc

    def _read_reply(self, context: str) -> Frame:
        """Read one reply frame, mapping low-level failures to the taxonomy."""
        try:
            response = read_frame(self._reader)
        except ProtocolError as exc:
            # framing from the server is broken either way, so drop the
            # connection; a truncated reply means the server died
            # mid-send, which callers handle as a transport failure
            self.close()
            if exc.code == "truncated":
                raise TransportError(
                    f"server closed the connection mid-reply "
                    f"({context!r}): {exc}"
                ) from exc
            raise
        except socket.timeout as exc:
            self.close()
            raise TransportError(
                f"request {context!r} timed out after {self.timeout_s}s"
            ) from exc
        except OSError as exc:
            self.close()
            raise TransportError(
                f"connection to {self.host}:{self.port} failed: {exc}"
            ) from exc
        if response is None:
            self.close()
            raise TransportError(
                f"server closed the connection mid-request ({context!r})"
            )
        return response

    def _apply_deadline(self, expiry: float, context: str) -> None:
        """Shrink the socket timeout to the deadline's remaining budget.

        Raises:
            TransportError: the deadline has already expired (the
                connection is closed first — its state mid-exchange is
                unknown).
        """
        remaining = expiry - time.monotonic()
        if remaining <= 0:
            self.close()
            raise TransportError(
                f"request {context!r} exceeded its deadline"
            )
        if self._sock is not None:
            self._sock.settimeout(min(remaining, self.timeout_s))

    def _request(
        self,
        header: "dict[str, object]",
        payload: bytes = b"",
        deadline_s: "float | None" = None,
        trace: "TraceContext | None" = None,
    ) -> Frame:
        context = str(header.get("type"))
        if trace is not None:
            header["trace"] = self._span(trace).to_header()
        if deadline_s is None:
            self._send_request(header, payload)
            response = self._read_reply(context)
        else:
            # the deadline bounds the post-connect exchange; connecting
            # keeps the usual timeout + retry policy
            expiry = time.monotonic() + deadline_s
            self.connect()
            try:
                self._apply_deadline(expiry, context)
                self._send_request(header, payload)
                self._apply_deadline(expiry, context)
                response = self._read_reply(context)
            finally:
                if self._sock is not None:
                    self._sock.settimeout(self.timeout_s)
        if response.header.get("type") == "error":
            self._raise_remote(response.header)
        return response

    @staticmethod
    def _results(response: Frame) -> "list[ClipResult]":
        if response.header.get("type") != "result":
            raise ProtocolError(
                f"expected a result frame, got {response.header.get('type')!r}",
                code="bad-result",
                recoverable=True,
            )
        try:
            results = json.loads(response.payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ProtocolError(
                f"result payload is not valid JSON: {exc}",
                code="bad-result",
                recoverable=True,
            ) from exc
        if not isinstance(results, list):
            raise ProtocolError(
                f"result payload must be a JSON list, got "
                f"{type(results).__name__}",
                code="bad-result",
                recoverable=True,
            )
        return [clip_result_from_wire(entry) for entry in results]


class HttpJumpPoseClient(RetryingClientBase):
    """The HTTP/JSON counterpart of :class:`JumpPoseClient`.

    Speaks to a :class:`~repro.serving.http.JumpPoseHttpServer` over one
    keep-alive HTTP/1.1 connection (stdlib ``http.client``, no new
    dependencies) with the same lazy connect, exponential-back-off
    retries, and per-operation timeout as the socket client.

    Constructor arguments are those of :class:`RetryingClientBase`.
    Use as a context manager, or call :meth:`close`.
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout_s: float = 30.0,
        connect_retries: int = 3,
        retry_delay_s: float = 0.1,
        retry_max_delay_s: float = 2.0,
        retry_jitter_frac: float = 0.25,
        retry_rng: "random.Random | None" = None,
    ) -> None:
        super().__init__(
            host, port, timeout_s, connect_retries, retry_delay_s,
            retry_max_delay_s, retry_jitter_frac, retry_rng,
        )
        self._conn: "http.client.HTTPConnection | None" = None

    # ------------------------------------------------------------------
    # Connection lifecycle
    # ------------------------------------------------------------------
    @property
    def is_connected(self) -> bool:
        """True while an HTTP connection to the gateway is open."""
        return self._conn is not None

    def connect(self) -> "HttpJumpPoseClient":
        """Open the connection, retrying with exponential back-off.

        Returns:
            This client, connected.

        Raises:
            TransportError: no attempt could reach the gateway.
        """
        if self._conn is not None:
            return self

        def open_once() -> None:
            conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout_s
            )
            conn.connect()
            # small request + wait-for-reply is exactly the pattern
            # Nagle's algorithm penalises; requests must leave now
            conn.sock.setsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
            )
            self._conn = conn

        self._open_with_retry(open_once)
        return self

    def close(self) -> None:
        """Drop the connection; safe to call twice."""
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    # ------------------------------------------------------------------
    # The request surface
    # ------------------------------------------------------------------
    def healthz(self) -> "dict[str, object]":
        """Liveness probe; returns the gateway's health payload."""
        return self._request("GET", "/v1/healthz")

    def analyze_clips(
        self, clips: "list[JumpClip] | tuple[JumpClip, ...]"
    ) -> "list[ClipResult]":
        """Ship clips inline (base64 archives) and decode them remotely.

        Returns:
            One :class:`~repro.core.results.ClipResult` per clip,
            bit-identical to a local ``analyze_clips`` on the server's
            model.

        Raises:
            RemoteError: the gateway rejected or failed the request
                (HTTP status and error code preserved).
            TransportError: the connection died mid-request.
        """
        from repro.synth.io import clip_to_bytes

        encoded = [
            base64.b64encode(clip_to_bytes(clip)).decode("ascii")
            for clip in clips
        ]
        return self._results(
            self._request("POST", "/v1/analyze", {"clips": encoded})
        )

    def analyze_paths(
        self, paths: "list[str | Path] | tuple[str | Path, ...]"
    ) -> "list[ClipResult]":
        """Decode server-visible clip archives addressed by path."""
        body = {"paths": [str(path) for path in paths]}
        return self._results(self._request("POST", "/v1/analyze", body))

    def analyze_directory(self, directory: "str | Path") -> "list[ClipResult]":
        """Decode every ``*.npz`` under a server-visible directory."""
        body = {"directory": str(directory)}
        return self._results(self._request("POST", "/v1/analyze", body))

    def stats(self) -> "dict[str, object]":
        """Service + gateway accounting (throughput, latency, errors)."""
        return self._request("GET", "/v1/stats")

    def metrics(self) -> str:
        """``GET /v1/metrics`` — Prometheus text exposition format.

        Returns:
            The scrape body as text (``docs/observability.md`` catalogs
            the metric names and labels).

        Raises:
            RemoteError: the gateway rejected the request.
            TransportError: the connection died mid-request.
        """
        return self._request("GET", "/v1/metrics", raw=True)

    def shutdown(self, token: str) -> "dict[str, object]":
        """Ask the gateway to stop, presenting the shared token.

        Returns:
            The gateway's ``{"status": "bye"}`` payload.

        Raises:
            RemoteError: the token was wrong, or remote shutdown is
                disabled on this gateway (both HTTP 403).
        """
        response = self._request("POST", "/v1/shutdown", {"token": token})
        self.close()
        return response

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def _request(
        self,
        method: str,
        path: str,
        body: "dict[str, object] | None" = None,
        trace: "TraceContext | None" = None,
        raw: bool = False,
    ) -> "dict[str, object] | str":
        if self._conn is not None and self._conn.sock is None:
            # http.client dropped the socket after a Connection: close
            # reply; reconnect through connect() rather than letting its
            # auto_open path bypass TCP_NODELAY and the retry policy
            self.close()
        self.connect()
        payload = (
            json.dumps(body, separators=(",", ":")).encode("utf-8")
            if body is not None
            else b""
        )
        try:
            self._conn.request(
                method,
                path,
                body=payload,
                headers={
                    "Content-Type": "application/json",
                    # every gateway request is traced: a fresh span under
                    # this client's root (or the caller's context),
                    # echoed back on the X-Request-Id reply header
                    HTTP_TRACE_HEADER: self._span(trace).to_http_header(),
                },
            )
            response = self._conn.getresponse()
            status = response.status
            data = response.read()
            if response.will_close:
                # the server ended this connection with its reply; drop
                # our side now so the next request reconnects cleanly
                self.close()
        except socket.timeout as exc:
            self.close()
            raise TransportError(
                f"request {method} {path} timed out after {self.timeout_s}s"
            ) from exc
        except (http.client.HTTPException, OSError) as exc:
            # the peer may have rejected the request before reading all
            # of it (a 413 races our sendall of a large body); the
            # structured reply is then already in the receive buffer
            salvaged = self._salvage_early_reply()
            self.close()
            if salvaged is None:
                # nothing to salvage: the gateway closed mid-reply or
                # spoke something that is not HTTP — a transport-level
                # death from the caller's perspective
                raise TransportError(
                    f"connection to {self.host}:{self.port} failed during "
                    f"{method} {path}: {exc}"
                ) from exc
            status, data = salvaged
        if raw and status < 400:
            # a text endpoint (the Prometheus scrape); errors still
            # arrive as structured JSON and go through _parse_reply
            return data.decode("utf-8", errors="replace")
        return self._parse_reply(method, path, status, data)

    def _salvage_early_reply(self) -> "tuple[int, bytes] | None":
        """Read a reply the server sent before our request body finished.

        Returns ``(status, body)`` if a complete HTTP response could be
        parsed off the socket, else ``None``.
        """
        conn = self._conn
        if conn is None or conn.sock is None:
            return None
        try:
            response = http.client.HTTPResponse(conn.sock)
            response.begin()
            return response.status, response.read()
        except (http.client.HTTPException, OSError, ValueError):
            return None

    @staticmethod
    def _parse_reply(
        method: str, path: str, status: int, data: bytes
    ) -> "dict[str, object]":
        """Decode one JSON reply; structured errors raise ``RemoteError``."""
        try:
            parsed = json.loads(data.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ProtocolError(
                f"{method} {path} reply is not valid JSON: {exc}",
                code="bad-response",
                recoverable=True,
            ) from exc
        if not isinstance(parsed, dict):
            raise ProtocolError(
                f"{method} {path} reply must be a JSON object, got "
                f"{type(parsed).__name__}",
                code="bad-response",
                recoverable=True,
            )
        if status >= 400:
            error = parsed.get("error")
            if not isinstance(error, dict):
                error = {}
            code = str(error.get("code", "server-error"))
            message = str(error.get("message", "(no message)"))
            raise RemoteError(
                f"{code}: {message}", code=code, http_status=status
            )
        return parsed

    @staticmethod
    def _results(payload: "dict[str, object]") -> "list[ClipResult]":
        results = payload.get("results")
        if not isinstance(results, list):
            raise ProtocolError(
                f"analyze reply is missing a 'results' list "
                f"(got keys {sorted(payload)})",
                code="bad-response",
                recoverable=True,
            )
        return [clip_result_from_wire(entry) for entry in results]


#: Replica-picking policies understood by :class:`RoutingClient`.
ROUTING_POLICIES = ("round-robin", "clip-hash")

#: Hash-ring points per replica for the ``clip-hash`` policy.  More
#: points smooth the load split; the count only affects balance, never
#: results (every replica serves the same artifact).
HASH_RING_POINTS = 64


class RoutingClient:
    """A client-side router sharding work over many server replicas.

    The scale-out counterpart of :class:`JumpPoseClient`: given the
    addresses of N :class:`~repro.serving.net.JumpPoseServer` replicas
    (typically a :class:`~repro.serving.supervisor.ReplicaSupervisor`'s
    :attr:`~repro.serving.supervisor.ReplicaSupervisor.addresses`), it
    shards each ``analyze_clips`` request across them, dispatches the
    shards concurrently, and merges the replies back into input order —
    **bit-identical** to what a single server (or a local
    ``JumpPoseAnalyzer.analyze_clips``) returns, because every replica
    serves the same artifact and order is restored by original index.

    Replica-picking policies (``docs/scaling.md`` discusses the
    trade-offs):

    * ``round-robin`` — clip *i* of a request goes to alive replica
      ``(start + i) % n``; the start rotates between requests so
      successive small requests spread evenly.
    * ``clip-hash`` — consistent hashing of ``clip_id`` over a ring of
      :data:`HASH_RING_POINTS` points per replica: the same clip id
      always lands on the same replica while that replica is alive, and
      a dead replica's clips redistribute without remapping anyone
      else's.

    Failover: a replica that fails *transport-wise* (connection refused,
    died mid-request, timed out) is marked dead and its shard is
    re-dispatched to the survivors — transparently, inside the same
    ``analyze_clips`` call.  Structured server errors
    (:class:`~repro.errors.RemoteError`) are **not** failover: a request
    the artifact itself rejects would fail identically everywhere, so
    they propagate.  Failover is not forever: :meth:`readmit` puts a
    recovered replica back in rotation (a
    :class:`~repro.serving.supervisor.ReplicaSupervisor` calls it after
    its consecutive-healthy-probe check) and :meth:`evict` takes one out
    proactively; both are safe from other threads mid-request.

    Args:
        addresses: ``(host, port)`` pairs, one per replica.
        policy: one of :data:`ROUTING_POLICIES`.
        timeout_s / connect_retries / retry_delay_s /
        retry_max_delay_s / retry_jitter_frac: per-replica
            :class:`JumpPoseClient` settings (the connect-retry policy
            of :class:`RetryingClientBase`).
        request_deadline_s: optional hard per-shard deadline forwarded
            to every :meth:`JumpPoseClient.analyze_clips` call.  Without
            it, a replica that *hangs* (accepts, then never answers)
            stalls its shard for the full socket timeout; with it, the
            hang converts to a :class:`~repro.errors.TransportError`
            after ``request_deadline_s`` and fails over like a death.

    Use as a context manager, or call :meth:`close`.

    Raises:
        ConfigurationError: no addresses, or an unknown policy.
    """

    def __init__(
        self,
        addresses: "list[tuple[str, int]]",
        policy: str = "round-robin",
        timeout_s: float = 30.0,
        connect_retries: int = 3,
        retry_delay_s: float = 0.1,
        retry_max_delay_s: float = 2.0,
        retry_jitter_frac: float = 0.25,
        request_deadline_s: "float | None" = None,
    ) -> None:
        addresses = [(str(host), int(port)) for host, port in addresses]
        if not addresses:
            raise ConfigurationError(
                "RoutingClient needs at least one replica address"
            )
        if policy not in ROUTING_POLICIES:
            raise ConfigurationError(
                f"policy must be one of {ROUTING_POLICIES}, got {policy!r}"
            )
        if request_deadline_s is not None and request_deadline_s <= 0:
            raise ConfigurationError(
                f"request_deadline_s must be > 0, got {request_deadline_s}"
            )
        self.addresses = addresses
        self.policy = policy
        self.request_deadline_s = request_deadline_s
        self._clients = [
            JumpPoseClient(
                host, port, timeout_s=timeout_s,
                connect_retries=connect_retries, retry_delay_s=retry_delay_s,
                retry_max_delay_s=retry_max_delay_s,
                retry_jitter_frac=retry_jitter_frac,
            )
            for host, port in addresses
        ]
        self._alive = set(range(len(addresses)))
        # guards _alive: a supervisor's monitor thread readmits/evicts
        # while request threads fail over
        self._alive_lock = threading.Lock()
        self._rr_start = 0
        self._ring = self._build_ring()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def alive_addresses(self) -> "list[tuple[str, int]]":
        """Addresses of replicas not yet marked dead by failover."""
        with self._alive_lock:
            alive = sorted(self._alive)
        return [self.addresses[index] for index in alive]

    def _index_of(self, address: "tuple[str, int]") -> int:
        """The replica index behind one address.

        Raises:
            ConfigurationError: the address is not one of this router's
                replicas (readmission cannot grow the fleet).
        """
        address = (str(address[0]), int(address[1]))
        try:
            return self.addresses.index(address)
        except ValueError:
            raise ConfigurationError(
                f"{address[0]}:{address[1]} is not one of this router's "
                f"replicas"
            ) from None

    def readmit(self, address: "tuple[str, int]") -> bool:
        """Put a recovered replica back into the routing rotation.

        The replica's connection is dropped first (a socket that
        predates the replica's death is stale even if the address came
        back), so the next shard dials fresh.  Idempotent and safe from
        another thread — a supervisor's monitor loop calls this on every
        tick for every healthy replica.

        Returns:
            True when the replica was actually dead and is now back;
            False when it was already in rotation (no-op).

        Raises:
            ConfigurationError: the address is not one of this router's
                replicas.
        """
        index = self._index_of(address)
        with self._alive_lock:
            if index in self._alive:
                return False
            self._clients[index].close()
            self._alive.add(index)
            return True

    def evict(self, address: "tuple[str, int]") -> bool:
        """Take a replica out of rotation without waiting for failover.

        The proactive twin of transport-failure failover: a supervisor
        that *knows* a replica is down (dead process, failed probes)
        evicts it so no shard has to fail first.  Idempotent.

        Returns:
            True when the replica was in rotation and is now out; False
            when it was already out (no-op).

        Raises:
            ConfigurationError: the address is not one of this router's
                replicas.
        """
        index = self._index_of(address)
        with self._alive_lock:
            if index not in self._alive:
                return False
            self._alive.discard(index)
            self._clients[index].close()
            return True

    def _mark_dead(self, indices: "list[int]") -> None:
        """Drop failed replicas from rotation and close their stale clients."""
        with self._alive_lock:
            for index in indices:
                self._alive.discard(index)
                self._clients[index].close()

    def close(self) -> None:
        """Drop every per-replica connection; safe to call twice."""
        for client in self._clients:
            client.close()

    def __enter__(self) -> "RoutingClient":
        """No eager connect — replicas are dialled on first use."""
        return self

    def __exit__(self, *exc_info: object) -> None:
        """Close on exit, even when the body raised."""
        self.close()

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    @staticmethod
    def _hash_point(key: str) -> int:
        """A stable 64-bit ring position (process-seed independent)."""
        digest = hashlib.sha1(key.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big")

    def _build_ring(self) -> "list[tuple[int, int]]":
        """The consistent-hash ring: sorted (point, replica index)."""
        points: "list[tuple[int, int]]" = []
        for index, (host, port) in enumerate(self.addresses):
            for vnode in range(HASH_RING_POINTS):
                points.append(
                    (self._hash_point(f"{host}:{port}#{vnode}"), index)
                )
        points.sort()
        return points

    def _replica_for_clip(self, clip_id: str, alive: "set[int]") -> int:
        """The ring successor of ``clip_id`` among alive replicas."""
        start = bisect.bisect_right(
            self._ring, (self._hash_point(clip_id), len(self.addresses))
        )
        for offset in range(len(self._ring)):
            _, index = self._ring[(start + offset) % len(self._ring)]
            if index in alive:
                return index
        raise TransportError("no alive replica on the hash ring")

    def _assign(
        self, pending: "list[tuple[int, JumpClip]]", alive: "list[int]"
    ) -> "dict[int, list[tuple[int, JumpClip]]]":
        """Split (original index, clip) pairs into per-replica shards."""
        shards: "dict[int, list[tuple[int, JumpClip]]]" = {}
        if self.policy == "round-robin":
            start = self._rr_start % len(alive)
            self._rr_start += len(pending)
            for position, entry in enumerate(pending):
                index = alive[(start + position) % len(alive)]
                shards.setdefault(index, []).append(entry)
        else:  # clip-hash
            alive_set = set(alive)
            for entry in pending:
                index = self._replica_for_clip(entry[1].clip_id, alive_set)
                shards.setdefault(index, []).append(entry)
        return shards

    # ------------------------------------------------------------------
    # The request surface
    # ------------------------------------------------------------------
    def _address_of(self, index: int) -> str:
        """One replica's address as the ``host:port`` log/event key."""
        host, port = self.addresses[index]
        return f"{host}:{port}"

    def analyze_clips(
        self,
        clips: "list[JumpClip] | tuple[JumpClip, ...]",
        trace: "TraceContext | None" = None,
    ) -> "list[ClipResult]":
        """Shard clips over the replicas and merge replies in input order.

        The whole routed call runs under **one trace context** (minted
        here unless the caller supplies one): every shard request — and
        every re-dispatched shard after a failover — carries a child
        span of the same trace id, so the call is followable through
        the router's own ``route_dispatch`` / ``route_failover`` /
        ``route_complete`` log events *and* each replica's request
        events (see ``docs/observability.md``).

        Args:
            clips: the clips to decode.
            trace: optional trace context to route under; minted fresh
                per call when omitted.

        Returns:
            One :class:`~repro.core.results.ClipResult` per clip, in
            input order — bit-identical to a single-server (or local)
            ``analyze_clips`` of the same clips, with or without
            mid-request replica failures.

        Raises:
            RemoteError: a replica rejected or failed a shard for
                library reasons (not retried — see the class docs).
            TransportError: every replica became unreachable before the
                request completed.
        """
        clips = list(clips)
        if not clips:
            return []
        if trace is None:
            trace = new_trace()
        results: "list[ClipResult | None]" = [None] * len(clips)
        pending = list(enumerate(clips))
        while pending:
            with self._alive_lock:
                alive = sorted(self._alive)
            if not alive:
                raise TransportError(
                    f"all {len(self.addresses)} replicas are unreachable "
                    f"({len(pending)} clips undelivered)"
                )
            shards = self._assign(pending, alive)
            emit_event(
                "route_dispatch",
                policy=self.policy,
                clips=len(pending),
                shards={
                    self._address_of(index): len(shard)
                    for index, shard in sorted(shards.items())
                },
                **trace.event_fields(),
            )
            lock = threading.Lock()
            redispatch: "list[tuple[int, JumpClip]]" = []
            dead: "list[int]" = []
            fatal: "list[Exception]" = []

            def run_shard(index: int, shard) -> None:
                client = self._clients[index]
                try:
                    shard_results = client.analyze_clips(
                        [clip for _, clip in shard],
                        deadline_s=self.request_deadline_s,
                        trace=trace,
                    )
                except TransportError as exc:
                    _ROUTE_FAILOVERS.inc()
                    emit_event(
                        "route_failover",
                        replica=self._address_of(index),
                        clips=len(shard),
                        reason=str(exc),
                        **trace.event_fields(),
                    )
                    with lock:
                        dead.append(index)
                        redispatch.extend(shard)
                except Exception as exc:  # RemoteError, ProtocolError, ...
                    with lock:
                        fatal.append(exc)
                else:
                    with lock:
                        for (original, _), result in zip(
                            shard, shard_results
                        ):
                            results[original] = result

            threads = [
                threading.Thread(
                    target=run_shard, args=(index, shard),
                    name="jumppose-route", daemon=True,
                )
                for index, shard in sorted(shards.items())
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            self._mark_dead(dead)  # even when a fatal error raises next
            if fatal:
                raise fatal[0]
            pending = redispatch
        assert all(result is not None for result in results)
        emit_event(
            "route_complete",
            clips=len(clips),
            **trace.event_fields(),
        )
        return results  # type: ignore[return-value]

    def analyze_clips_redundant(
        self,
        clips: "list[JumpClip] | tuple[JumpClip, ...]",
        redundancy: int = 2,
        trace: "TraceContext | None" = None,
    ) -> "tuple[list[ClipResult], list[str]]":
        """Send the *same* clips to several replicas and cross-check.

        Redundant routing trades throughput for a quality signal no
        single replica can produce: every replica serves the same
        artifact, so any divergence between their results means a
        replica is corrupting data (bad memory, truncated artifact,
        injected ``corrupt`` fault).  Each disagreement increments
        ``jpse_replica_disagreements_total`` and emits a
        ``replica_disagreement`` event naming the clip and replicas.

        Args:
            clips: the clips to decode (each replica decodes all of
                them).
            redundancy: how many distinct replicas to ask, ``>= 2``;
                capped at the alive fleet size.
            trace: optional trace context; minted fresh when omitted.

        Returns:
            ``(results, disagreeing_clip_ids)`` — results come from the
            lowest-indexed replica that answered and are in input order;
            the id list is empty when every copy agreed.

        Raises:
            ConfigurationError: ``redundancy < 2``.
            RemoteError: a replica rejected the request for library
                reasons.
            TransportError: fewer than two replicas answered (one
                answer cannot be cross-checked).
        """
        clips = list(clips)
        if redundancy < 2:
            raise ConfigurationError(
                f"redundancy must be >= 2, got {redundancy}"
            )
        if not clips:
            return [], []
        if trace is None:
            trace = new_trace()
        with self._alive_lock:
            alive = sorted(self._alive)
        chosen = alive[:redundancy]
        if len(chosen) < 2:
            raise TransportError(
                f"redundant routing needs >= 2 alive replicas, "
                f"have {len(chosen)}"
            )
        lock = threading.Lock()
        outcomes: "dict[int, list[ClipResult]]" = {}
        dead: "list[int]" = []
        fatal: "list[Exception]" = []

        def run_copy(index: int) -> None:
            try:
                copy = self._clients[index].analyze_clips(
                    clips, deadline_s=self.request_deadline_s, trace=trace
                )
            except TransportError:
                with lock:
                    dead.append(index)
            except Exception as exc:  # RemoteError, ProtocolError, ...
                with lock:
                    fatal.append(exc)
            else:
                with lock:
                    outcomes[index] = copy

        threads = [
            threading.Thread(
                target=run_copy, args=(index,),
                name="jumppose-route-redundant", daemon=True,
            )
            for index in chosen
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        self._mark_dead(dead)
        if fatal:
            raise fatal[0]
        if len(outcomes) < 2:
            raise TransportError(
                f"redundant routing got {len(outcomes)} answers from "
                f"{len(chosen)} replicas; cannot cross-check"
            )
        reference_index = min(outcomes)
        reference = outcomes[reference_index]
        disagreements: "list[str]" = []
        for position, clip in enumerate(clips):
            dissenters = [
                self._address_of(index)
                for index, copy in sorted(outcomes.items())
                if copy[position] != reference[position]
            ]
            if dissenters:
                disagreements.append(clip.clip_id)
                _REPLICA_DISAGREEMENTS.inc()
                emit_event(
                    "replica_disagreement",
                    clip_id=clip.clip_id,
                    reference=self._address_of(reference_index),
                    dissenters=dissenters,
                    **trace.event_fields(),
                )
        return reference, disagreements

    def ping(self) -> "dict[str, dict[str, object]]":
        """Ping every alive replica; returns ``{"host:port": pong}``.

        A replica that fails the ping is marked dead (and skipped on
        subsequent requests) rather than raising.
        """
        pongs: "dict[str, dict[str, object]]" = {}
        with self._alive_lock:
            alive = sorted(self._alive)
        for index in alive:
            host, port = self.addresses[index]
            try:
                pongs[f"{host}:{port}"] = self._clients[index].ping()
            except TransportError:
                self._mark_dead([index])
        return pongs

    def stats(self) -> "dict[str, dict[str, object]]":
        """Per-replica stats roll-up, keyed ``"host:port"``.

        Each value is that replica's full ``stats`` reply (service +
        server accounting, including its ``replica_id`` when the server
        was started with one).  Unreachable replicas are marked dead
        and omitted.

        Raises:
            TransportError: no replica could be reached at all.
        """
        rollup: "dict[str, dict[str, object]]" = {}
        with self._alive_lock:
            alive = sorted(self._alive)
        for index in alive:
            host, port = self.addresses[index]
            try:
                rollup[f"{host}:{port}"] = self._clients[index].stats()
            except TransportError:
                self._mark_dead([index])
        if not rollup:
            raise TransportError(
                f"all {len(self.addresses)} replicas are unreachable"
            )
        return rollup
