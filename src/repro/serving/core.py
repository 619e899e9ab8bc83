"""The transport-agnostic request core behind both network fronts.

:class:`RequestCore` is everything a served request means apart from how
its bytes are framed.  The JPSE socket front (:mod:`repro.serving.net`)
and the HTTP gateway (:mod:`repro.serving.http`) each own one and stay
thin codecs over it.  The core owns:

* the :class:`~repro.serving.service.JumpPoseService` it builds from the
  artifact arguments;
* the front metrics (``jpse_requests_total``,
  ``jpse_request_latency_seconds``, ``jpse_supervised_restarts``);
* request accounting under one lock — requests, errors, and the
  per-type :class:`~repro.perf.timing.ProfileReport` that makes up the
  ``server`` stats block — plus the ``request`` event line;
* the fault-seam decision (run, drop, or corrupt);
* the error taxonomy (:func:`classify`);
* the operation bodies: the identity block of ``ping`` and
  ``/v1/healthz``, stats, metrics text, and analyze of inline clips,
  paths, or a directory;
* :meth:`RequestCore.run`, the one timed, accounted wrapper every JPSE
  frame, JPSE stream, and HTTP route goes through.  It records each
  request exactly once: one outcome, one counter increment, one event.

``type`` labels are always server-chosen vocabulary (JPSE request types,
HTTP route stems, ``unknown``, ``unframed``, ``unrouted``), never raw
wire bytes, so metric cardinality is bounded by construction.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from pathlib import Path

from repro.errors import ModelError, ProtocolError, ReproError
from repro.obs.events import emit_event
from repro.obs.metrics import get_registry, render_prometheus
from repro.perf.timing import ProfileReport, Timer
from repro.serving.protocol import PROTOCOL_VERSION
from repro.serving.service import JumpPoseService

_METRICS = get_registry()
_REQUESTS_TOTAL = _METRICS.counter(
    "jpse_requests_total",
    "Requests served by the network fronts, by type and outcome.",
    ("type", "outcome"),
)
_REQUEST_LATENCY = _METRICS.histogram(
    "jpse_request_latency_seconds",
    "Whole-request wall-clock at the network fronts, by request type.",
    ("type",),
)
_SUPERVISED_RESTARTS = _METRICS.gauge(
    "jpse_supervised_restarts",
    "Restart count the supervisor stamped on this replica's environment.",
)

@dataclass(frozen=True)
class Failure:
    """One request failure, classified (see :func:`classify`).

    ``fault`` is ``"caller"`` (bad input), ``"model"`` (the model or
    service side broke), or ``"internal"`` (an unexpected bug).
    ``recoverable`` says whether the connection may keep serving.
    ``error`` is the exception itself, for transport-specific detail
    such as an HTTP status.
    """

    code: str
    message: str
    fault: str
    recoverable: bool
    error: BaseException


def classify(error: BaseException) -> Failure:
    """Map an exception to its wire code, fault side, and recoverability.

    * :class:`~repro.errors.ProtocolError` — the caller's, with its own
      ``code`` and ``recoverable`` flag;
    * :class:`~repro.errors.ModelError` — the model's, the exception
      class as the code; the connection stays usable;
    * any other :class:`~repro.errors.ReproError` (missing path,
      unreadable archive, empty directory) — the caller's, the
      exception class as the code;
    * anything else — ``internal-error``; the request state is unknown,
      so the connection is not kept.
    """
    if isinstance(error, ProtocolError):
        return Failure(error.code, str(error), "caller", error.recoverable, error)
    if isinstance(error, ModelError):
        return Failure(type(error).__name__, str(error), "model", True, error)
    if isinstance(error, ReproError):
        return Failure(type(error).__name__, str(error), "caller", True, error)
    return Failure(
        "internal-error", f"{type(error).__name__}: {error}",
        "internal", False, error,
    )


def bad_request(message: str) -> ProtocolError:
    """The recoverable ``bad-request`` error of an ill-formed request."""
    return ProtocolError(message, code="bad-request", recoverable=True)


class RequestCore:
    """One served model plus the accounting of the requests it answers.

    Args:
        artifact_path / jobs / batch_size / decode / replica_id /
            fault_injector: build the owned
            :class:`~repro.serving.service.JumpPoseService`.
            ``fault_injector`` is also the request seam (see
            :meth:`fault`).
        transport: the ``transport`` field of this core's ``request``
            events (``"jpse"`` or ``"http"``).
    """

    def __init__(
        self,
        artifact_path: "str | Path",
        *,
        jobs: int,
        batch_size: int,
        decode: "str | None",
        replica_id: "str | None",
        fault_injector,
        transport: str,
    ) -> None:
        self.service = JumpPoseService(
            artifact_path, jobs=jobs, batch_size=batch_size, decode=decode,
            replica_id=replica_id, fault_injector=fault_injector,
        )
        self.fault_injector = fault_injector
        self.transport = transport
        self._lock = threading.Lock()
        self._requests = 0
        self._errors = 0
        self._request_profile = ProfileReport()

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def run(self, request_type: str, trace, operation, encode) -> "Failure | None":
        """Run, account, and ship one request.

        Args:
            request_type: the request's ``type`` label.
            trace: the request's parsed trace context, or ``None``.
            operation: ``operation(profile) -> reply``; stage spans the
                operation merges into ``profile`` ride on the event.
            encode: ``encode(reply, latency_s, stages) -> ship`` turns
                the reply into wire form and returns the callable that
                writes it.  Raising here (an unshippable reply) makes
                the request an error instead of a second outcome.
                ``ship`` runs after the accounting, so a caller holding
                the reply already finds it counted in the stats.

        Returns:
            ``None`` when the reply went out, else the classified
            :class:`Failure` for the front to report.
        """
        profile = ProfileReport()
        try:
            with Timer() as timer:
                reply = operation(profile)
            stages = profile.as_dict() if profile.stages else None
            ship = encode(reply, timer.elapsed, stages)
        except Exception as error:  # every failure becomes a reply
            return self.reject(request_type, trace, error)
        with self._lock:
            self._request_profile.add(request_type, timer.elapsed)
            self._requests += 1
        _REQUESTS_TOTAL.inc(type=request_type, outcome="ok")
        _REQUEST_LATENCY.observe(timer.elapsed, type=request_type)
        self._emit(request_type, "ok", trace, latency_s=timer.elapsed,
                   stages=stages)
        ship()
        return None

    def reject(self, request_type: str, trace, error: BaseException) -> Failure:
        """Classify and account a request that failed (or was refused)."""
        failure = classify(error)
        with self._lock:
            self._errors += 1
        _REQUESTS_TOTAL.inc(type=request_type, outcome="error")
        self._emit(request_type, "error", trace, code=failure.code)
        return failure

    def _emit(self, request_type: str, outcome: str, trace, **extra) -> None:
        """One ``request`` line in the JSON event log (no-op when off)."""
        fields: "dict[str, object]" = {
            "type": request_type,
            "outcome": outcome,
            "transport": self.transport,
        }
        if self.service.replica_id is not None:
            fields["replica_id"] = self.service.replica_id
        if trace is not None:
            fields.update(trace.event_fields())
        fields.update(
            {key: value for key, value in extra.items() if value is not None}
        )
        emit_event("request", **fields)

    def server_stats_snapshot(self) -> "dict[str, object]":
        """The front's request accounting, read under its lock.

        Returns:
            ``{"requests": ..., "errors": ..., "request_stages": ...}``
            — the ``server`` block of the stats reply.
        """
        with self._lock:
            return {
                "requests": self._requests,
                "errors": self._errors,
                "request_stages": self._request_profile.as_dict(),
            }

    def fault(self, request_type: str) -> str:
        """The fault seam: ``"run"``, ``"drop"``, or ``"corrupt"``.

        ``crash`` never returns (the injector kills the process), and
        ``hang``/``slow`` have already slept inside the injector, so
        both run.  On ``drop`` the front closes without a reply; on
        ``corrupt`` it writes garbage where the reply belongs, then
        closes.  Neither is accounted as a request.
        """
        if self.fault_injector is None:
            return "run"
        action = self.fault_injector.on_request(request_type)
        if action is None or action.kind in ("hang", "slow"):
            return "run"
        return action.kind

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def identity(self) -> "dict[str, object]":
        """The identity block shared by ``ping`` and ``/v1/healthz``."""
        block: "dict[str, object]" = {
            "protocol_version": PROTOCOL_VERSION,
            "model_schema": self.service.metadata.get("schema"),
            "jobs": self.service.jobs,
        }
        if self.service.replica_id is not None:
            block["replica_id"] = self.service.replica_id
        block["supervision"] = self.service.supervision_snapshot()
        return block

    def stats(self) -> "dict[str, object]":
        """Service throughput/latency plus this front's request accounting.

        Carries ``replica_id`` when the service has one, so stats scraped
        from many replicas stay attributable after aggregation.
        """
        payload: "dict[str, object]" = {
            "service": self.service.stats_snapshot(),
            "server": self.server_stats_snapshot(),
        }
        if self.service.replica_id is not None:
            payload["replica_id"] = self.service.replica_id
        return payload

    def metrics_text(self) -> str:
        """Prometheus text exposition of the process-global registry.

        The supervision gauge is refreshed at scrape time: the restart
        count lives in this replica's environment, not in any hot path.
        """
        restarts = self.service.supervision_snapshot().get("restarts", 0)
        if isinstance(restarts, int):
            _SUPERVISED_RESTARTS.set(restarts)
        return render_prometheus()

    def analyze(self, mode: str, value: object, profile: ProfileReport) -> list:
        """Decode the clips one analyze request names.

        Args:
            mode: ``"clips"``, ``"paths"``, or ``"directory"``.
            value: for ``clips`` a list of clip archive bytes (pass a
                temporary, so the archives are freed once decoded); for
                ``paths`` the request's ``paths`` field; for
                ``directory`` its ``directory`` field.  Field types are
                checked here, with the same code and message on both
                fronts.
            profile: collects this request's worker stage spans.

        Returns:
            One :class:`~repro.core.results.ClipResult` per clip, in
            request order.
        """
        if mode == "clips":
            # looked up per call, so a wrapped codec is the one called
            from repro.synth.io import clip_from_bytes

            clips = [clip_from_bytes(blob) for blob in value]
            # callers pass the archives as a temporary: dropping them
            # here frees them before the analysis, not after
            del value
            return self.service.analyze_clips(clips, profile)
        if mode == "paths":
            if not isinstance(value, list) or not all(
                isinstance(path, str) for path in value
            ):
                raise bad_request("'paths' must be a list of strings")
            return self.service.analyze_paths(value, profile)
        if not isinstance(value, str):
            raise bad_request("'directory' must be a string")
        return self.service.analyze_directory(value, profile)

    def stream(self, blob: bytes):
        """Decode one clip archive frame by frame (see
        :meth:`~repro.serving.service.JumpPoseService.stream_clip`)."""
        from repro.synth.io import clip_from_bytes

        return self.service.stream_clip(clip_from_bytes(blob))
