"""The long-lived serving layer: one artifact, many workers, many clips.

:class:`JumpPoseService` is the process-resident face of the system the
ROADMAP's north star asks for: it loads one saved model artifact into
long-lived worker processes (each worker deserialises the artifact once,
in the pool initializer — no analyzer is ever pickled per task), accepts
clip or clip-path requests, fans them out in micro-batches, and returns
results in deterministic request order while accumulating throughput and
latency statistics via :mod:`repro.perf`.

Clip-path requests are the streaming-friendly entry point: the parent
never materialises the clips — each worker loads its own batch from disk,
so serving a directory of recordings is bounded by worker memory, not by
the request list.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.core.dbnclassifier import DECODE_MODES
from repro.core.pipeline import JumpPoseAnalyzer
from repro.core.results import ClipResult
from repro.errors import ConfigurationError, ModelError
from repro.obs.metrics import get_registry
from repro.obs.quality import ClipQuality, alert_state, merge_quality
from repro.perf.timing import ProfileReport, Timer
from repro.serving.artifacts import load_analyzer, read_artifact_metadata

if TYPE_CHECKING:
    from repro.synth.dataset import JumpClip

#: Environment variables a supervisor sets when (re)spawning a replica
#: process, surfaced back through ``ping``/``healthz`` supervision
#: detail so operators can read a replica's restart history from the
#: replica itself (see :mod:`repro.serving.supervisor`).
SUPERVISION_RESTARTS_ENV = "JPSE_RESTARTS"
SUPERVISION_LAST_ERROR_ENV = "JPSE_LAST_ERROR"

#: Per-worker analyzer, installed once by the pool initializer.
_WORKER_ANALYZER: "JumpPoseAnalyzer | None" = None


def _service_init(artifact_path: str, decode: "str | None") -> None:
    global _WORKER_ANALYZER
    _WORKER_ANALYZER = load_analyzer(artifact_path, decode=decode)


def _handle_clip(
    analyzer: JumpPoseAnalyzer, clip: "JumpClip"
) -> "tuple[ClipResult, int, float, ProfileReport]":
    """One request: decode a clip, timing the stages and the whole call."""
    profile = ProfileReport()
    with Timer() as timer:
        result = analyzer.analyze_clip(clip, profile)
    return result, len(clip), timer.elapsed, profile


def _analyze_clip_batch(
    analyzer: JumpPoseAnalyzer, clips: "list[JumpClip]"
) -> "list[tuple[ClipResult, int, float, ProfileReport]]":
    """Handle one micro-batch through the batched decode kernels.

    The vision front-end runs (and is timed) per clip; the DBN decode is
    one ``classify_batch`` tensor pass whose wall-clock is apportioned
    to clips by frame share.  Every clip still gets exactly one
    ``frontend`` and one ``decode`` profile entry, so stage ``calls``
    keep counting clips, and per-clip latency stays the clip's own
    frontend time plus its share of the batched decode.
    """
    if not clips:
        return []
    if len(clips) == 1:
        return [_handle_clip(analyzer, clips[0])]
    front_elapsed: "list[float]" = []
    candidate_clips = []
    for clip in clips:
        with Timer() as timer:
            candidate_clips.append(
                analyzer.front_end.candidates_for_clip(
                    clip.frames, clip.background
                )
            )
        front_elapsed.append(timer.elapsed)
    with Timer() as decode_timer:
        batches = analyzer.classifier.classify_batch(candidate_clips)
    total_frames = sum(len(clip) for clip in clips)
    entries = []
    for clip, predictions, front_s in zip(clips, batches, front_elapsed):
        if total_frames > 0:
            decode_s = decode_timer.elapsed * (len(clip) / total_frames)
        else:
            decode_s = decode_timer.elapsed / len(clips)
        profile = ProfileReport()
        profile.add("frontend", front_s)
        profile.add("decode", decode_s)
        result = analyzer._result_for(clip, predictions)
        entries.append((result, len(clip), front_s + decode_s, profile))
    return entries


def _analyze_path_batch(
    analyzer: JumpPoseAnalyzer, paths: "list[str]"
) -> "list[tuple[ClipResult, int, float, ProfileReport]]":
    """Path-addressed variant: load worker-side, then batch-decode."""
    from repro.synth.io import load_clip

    clips = []
    load_elapsed: "list[float]" = []
    for path in paths:
        with Timer() as timer:
            clips.append(load_clip(path))
        load_elapsed.append(timer.elapsed)
    entries = []
    for (result, frames, elapsed, profile), load_s in zip(
        _analyze_clip_batch(analyzer, clips), load_elapsed
    ):
        profile.add("load", load_s)
        entries.append((result, frames, elapsed + load_s, profile))
    return entries


def _worker_clip_batch(batch: "list[JumpClip]"):
    assert _WORKER_ANALYZER is not None
    return _analyze_clip_batch(_WORKER_ANALYZER, batch)


def _worker_path_batch(batch: "list[str]"):
    assert _WORKER_ANALYZER is not None
    return _analyze_path_batch(_WORKER_ANALYZER, batch)


#: Per-clip latencies kept for quantile estimates; counters stay exact
#: forever, but a server that lives for millions of clips must not hold
#: (or re-sort) an unbounded history on every ``stats`` request.
LATENCY_WINDOW = 4096

# Process-global serving metrics (see repro.obs.metrics); registered at
# import so every front sharing this process exports one coherent set.
_METRICS = get_registry()
_CLIPS_TOTAL = _METRICS.counter(
    "jpse_service_clips_total", "Clips decoded by this service."
)
_FLAGGED_TOTAL = _METRICS.counter(
    "jpse_service_flagged_clips_total",
    "Clips whose pose-quality diagnostics flagged them as suspect.",
)
_CLIP_LATENCY = _METRICS.histogram(
    "jpse_clip_latency_seconds",
    "Per-clip handling latency measured inside the workers.",
)
_STAGE_LATENCY = _METRICS.histogram(
    "jpse_stage_latency_seconds",
    "Worker stage wall-clock per clip (frontend, decode, load).",
    ("stage",),
)
_INFLIGHT = _METRICS.gauge(
    "jpse_service_inflight_clips",
    "Clips currently being decoded by the dispatch in progress.",
)
_QUEUE_DEPTH = _METRICS.gauge(
    "jpse_service_queue_depth_clips",
    "Clips waiting on the dispatch lock behind the current dispatch.",
)


@dataclass
class ServiceStats:
    """Accumulated request accounting for one service lifetime.

    ``wall_s`` is parent-side wall-clock across dispatches; ``latencies_s``
    are per-clip handling times measured inside the workers (decode plus,
    for path requests, the clip load), kept as a trailing window of the
    most recent :data:`LATENCY_WINDOW` clips so a long-lived server's
    memory stays bounded — quantiles and the mean describe recent traffic.
    ``profile`` merges the workers' per-stage reports, so its totals are
    CPU-seconds across workers.

    ``replica_id`` names the service these numbers belong to once many
    replicas serve the same artifact (see
    :class:`~repro.serving.supervisor.ReplicaSupervisor`): a roll-up
    that merges stats across replicas (:func:`merge_service_stats`)
    would otherwise lose which replica did the work.  ``None`` (the default) means a standalone, unnamed
    service; when set, :meth:`as_dict` carries it so every stats payload
    is attributable.
    """

    clips: int = 0
    frames: int = 0
    wall_s: float = 0.0
    latencies_s: "deque[float]" = field(
        default_factory=lambda: deque(maxlen=LATENCY_WINDOW)
    )
    profile: ProfileReport = field(default_factory=ProfileReport)
    replica_id: "str | None" = None
    flagged_clips: int = 0
    low_likelihood_frames: int = 0
    pose_jumps: int = 0
    stage_violations: int = 0

    def record_quality(self, quality: ClipQuality) -> None:
        """Fold one clip's pose-quality diagnostics into the counters."""
        self.flagged_clips += int(quality.flagged)
        self.low_likelihood_frames += quality.low_likelihood
        self.pose_jumps += quality.pose_jumps
        self.stage_violations += quality.stage_violations

    def quality_dict(self) -> "dict[str, object]":
        """The fleet-mergeable quality block (see ``merge_quality``)."""
        return {
            "clips": self.clips,
            "flagged_clips": self.flagged_clips,
            "low_likelihood_frames": self.low_likelihood_frames,
            "pose_jumps": self.pose_jumps,
            "stage_violations": self.stage_violations,
            "alert": alert_state(self.clips, self.flagged_clips),
        }

    @property
    def clip_throughput(self) -> float:
        """Clips per wall-clock second."""
        return self.clips / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def frame_throughput(self) -> float:
        """Frames per wall-clock second."""
        return self.frames / self.wall_s if self.wall_s > 0 else 0.0

    def latency_quantile(self, q: float) -> float:
        """Per-clip latency quantile ``q`` over the trailing window.

        Returns 0.0 before any clip has been served.
        """
        if not self.latencies_s:
            return 0.0
        return float(np.quantile(np.array(self.latencies_s), q))

    @property
    def latency_mean_s(self) -> float:
        """Mean per-clip latency over the trailing window (0.0 if empty)."""
        return float(np.mean(self.latencies_s)) if self.latencies_s else 0.0

    def as_dict(self) -> "dict[str, object]":
        """The machine-readable stats payload served by both fronts."""
        payload: "dict[str, object]" = {
            "clips": self.clips,
            "frames": self.frames,
            "wall_s": self.wall_s,
            "clip_throughput": self.clip_throughput,
            "frame_throughput": self.frame_throughput,
            "latency_mean_s": self.latency_mean_s,
            "latency_p50_s": self.latency_quantile(0.5),
            "latency_p95_s": self.latency_quantile(0.95),
            "stages": self.profile.as_dict(),
            "quality": self.quality_dict(),
        }
        if self.replica_id is not None:
            payload["replica_id"] = self.replica_id
        return payload

    def render(self) -> str:
        """Human-readable summary for the CLI's ``serve`` command."""
        lines = [
            f"served {self.clips} clips / {self.frames} frames "
            f"in {self.wall_s:.3f}s wall",
            f"throughput: {self.clip_throughput:.2f} clips/s, "
            f"{self.frame_throughput:.1f} frames/s",
            f"per-clip latency: mean {self.latency_mean_s:.4f}s, "
            f"p50 {self.latency_quantile(0.5):.4f}s, "
            f"p95 {self.latency_quantile(0.95):.4f}s",
            f"quality: {self.flagged_clips} flagged clips "
            f"({self.pose_jumps} teleports, "
            f"{self.stage_violations} stage violations, "
            f"{self.low_likelihood_frames} low-likelihood frames) "
            f"-- alert state {alert_state(self.clips, self.flagged_clips)}",
        ]
        if self.profile.stages:
            lines.append("worker stages (CPU-seconds across workers):")
            lines.append(self.profile.render())
        return "\n".join(lines)


def merge_service_stats(
    snapshots: "dict[str, dict[str, object]]",
) -> "dict[str, object]":
    """Cross-replica totals from per-replica ``ServiceStats`` payloads.

    Counters (``clips``, ``frames``) and wall-clock sum; throughput is
    recomputed from the summed counters over the summed wall — with
    replicas serving in parallel their walls overlap, so the summed
    wall is busy-seconds across replicas (it can exceed elapsed time)
    and the recomputed throughput is a *conservative* fleet rate.
    Latency quantiles are omitted on purpose: quantiles measured over
    different windows cannot be merged, so they remain in the
    per-replica blocks.  Pose-quality counters *do* compose: the
    per-replica ``quality`` blocks are summed by
    :func:`repro.obs.quality.merge_quality` and the fleet-level alert
    state is recomputed from the merged flagged-clip fraction, so one
    replica decoding garbage flips the whole rollup's ``alert``.

    Args:
        snapshots: ``replica_id -> ServiceStats.as_dict()`` payloads.

    Returns:
        A dict with ``clips``, ``frames``, ``wall_s``,
        ``clip_throughput``, ``frame_throughput``, ``replicas``
        (the count merged over), and the merged ``quality`` block.
    """
    clips = sum(int(snap.get("clips", 0)) for snap in snapshots.values())
    frames = sum(int(snap.get("frames", 0)) for snap in snapshots.values())
    wall_s = sum(float(snap.get("wall_s", 0.0)) for snap in snapshots.values())
    return {
        "replicas": len(snapshots),
        "clips": clips,
        "frames": frames,
        "wall_s": wall_s,
        "clip_throughput": clips / wall_s if wall_s > 0 else 0.0,
        "frame_throughput": frames / wall_s if wall_s > 0 else 0.0,
        "quality": merge_quality(
            snap.get("quality") for snap in snapshots.values()
        ),
    }


class JumpPoseService:
    """Serve pose decoding from one saved artifact, without retraining.

    Args:
        artifact_path: a :func:`repro.serving.artifacts.save_analyzer`
            file.  The metadata is schema-checked eagerly so a bad
            artifact fails at construction, not mid-traffic.
        jobs: worker processes.  1 serves in-process; higher values spawn
            a ``multiprocessing`` pool whose initializer loads the
            artifact once per worker.
        batch_size: requests handed to a worker per task
            (micro-batching amortises task dispatch and feeds the
            batched decode kernels without hurting request ordering).
        decode: optional decode-mode override applied on top of the
            artifact's stored classifier configuration.
        replica_id: optional name identifying this service instance in
            stats payloads when many replicas serve the same artifact
            (``serve --replica-id``, set by
            :class:`~repro.serving.supervisor.ReplicaSupervisor`).
        fault_injector: optional
            :class:`~repro.serving.faults.FaultInjector` consulted once
            per dispatch (request type ``"dispatch"``, which only
            explicitly-typed ``:dispatch`` rules match) — lets tests
            fault the service layer itself, below the network fronts.

    Results always come back in request order, whatever the completion
    order, so serving output is reproducible.  Use as a context manager,
    or call :meth:`start` / :meth:`close` explicitly.
    """

    def __init__(
        self,
        artifact_path: "str | Path",
        jobs: int = 1,
        batch_size: int = 4,
        decode: "str | None" = None,
        replica_id: "str | None" = None,
        fault_injector=None,
    ) -> None:
        if jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
        if batch_size < 1:
            raise ConfigurationError(f"batch_size must be >= 1, got {batch_size}")
        if decode is not None and decode not in DECODE_MODES:
            # checked here so a bad override fails at construction instead
            # of inside a pool worker's initializer
            raise ConfigurationError(
                f"decode must be one of {DECODE_MODES}, got {decode!r}"
            )
        self.artifact_path = Path(artifact_path)
        self.metadata = read_artifact_metadata(self.artifact_path)
        self.jobs = jobs
        self.batch_size = batch_size
        self.decode = decode
        self.replica_id = replica_id
        self.fault_injector = fault_injector
        self.stats = ServiceStats(replica_id=replica_id)
        self._started_at: "float | None" = None
        self._analyzer: "JumpPoseAnalyzer | None" = None
        # lazily-loaded in-process analyzer for stream_clip (jobs > 1
        # keeps the batch analyzers inside pool workers, where a
        # frame-at-a-time generator cannot reach them)
        self._stream_analyzer: "JumpPoseAnalyzer | None" = None
        self._stream_analyzer_lock = threading.Lock()
        self._pool = None
        # one dispatch at a time: stats accumulation and pool.map are not
        # re-entrant, and the network front serves many connection threads
        # against one service
        self._dispatch_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def is_running(self) -> bool:
        """True between :meth:`start` and :meth:`close`."""
        return self._analyzer is not None or self._pool is not None

    def start(self) -> "JumpPoseService":
        """Load the analyzer (``jobs=1``) or spawn the worker pool.

        Idempotent; returns this service so construction chains.  With
        ``jobs > 1`` each worker process loads the artifact once in its
        pool initializer — nothing is pickled per request.
        """
        if self.is_running:
            return self
        self._started_at = time.monotonic()
        if self.jobs == 1:
            self._analyzer = load_analyzer(
                self.artifact_path, decode=self.decode
            )
        else:
            import multiprocessing

            self._pool = multiprocessing.get_context().Pool(
                processes=self.jobs,
                initializer=_service_init,
                initargs=(str(self.artifact_path), self.decode),
            )
        return self

    def close(self) -> None:
        """Stop serving and join the worker pool.

        Always runs to completion: the pool reference is dropped first so
        a failure mid-teardown cannot leave the service half-running, and
        if the graceful close/join is interrupted the pool is terminated
        so worker processes are never leaked.  Safe to call twice, and
        called by ``__exit__`` even when a request raised inside the
        ``with`` block.  Takes the dispatch lock, so an in-flight request
        from another thread drains before teardown instead of
        dereferencing a half-closed pool.
        """
        with self._dispatch_lock:
            pool, self._pool = self._pool, None
            self._analyzer = None
        with self._stream_analyzer_lock:
            self._stream_analyzer = None
        if pool is None:
            return
        try:
            pool.close()
            pool.join()
        except BaseException:
            pool.terminate()
            pool.join()
            raise

    def __enter__(self) -> "JumpPoseService":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------
    def analyze_clips(
        self,
        clips: "list[JumpClip] | tuple[JumpClip, ...]",
        profile: "ProfileReport | None" = None,
    ) -> "list[ClipResult]":
        """Decode already-materialised clips in request order.

        ``profile`` (optional) collects this call's worker stage
        timings — the per-request span report the network front attaches
        to traced log events, separate from the lifetime ``stats``
        accumulation.
        """
        return self._dispatch(
            list(clips), _worker_clip_batch, _analyze_clip_batch, profile
        )

    def analyze_paths(
        self,
        paths: "list[str | Path] | tuple[str | Path, ...]",
        profile: "ProfileReport | None" = None,
    ) -> "list[ClipResult]":
        """Decode clips addressed by ``.npz`` path, loaded worker-side.

        ``profile`` collects per-request stage spans as in
        :meth:`analyze_clips`.
        """
        return self._dispatch(
            [str(path) for path in paths], _worker_path_batch,
            _analyze_path_batch, profile,
        )

    def stats_snapshot(self) -> "dict[str, object]":
        """A consistent ``stats.as_dict()`` taken under the dispatch lock.

        Reading ``stats`` directly while another thread dispatches races
        the accumulation loop (the latency deque must not be iterated
        mid-append); the network front's ``stats`` request uses this.
        """
        with self._dispatch_lock:
            return self.stats.as_dict()

    def supervision_snapshot(self) -> "dict[str, object]":
        """Supervision detail for ``ping``/``healthz`` payloads.

        Returns:
            ``{"state", "uptime_s", "restarts", "last_error"}`` — the
            replica's own view of its supervised life.  ``state`` is
            ``"healthy"`` while the service runs and ``"failed"``
            otherwise; ``restarts`` and ``last_error`` come from the
            :data:`SUPERVISION_RESTARTS_ENV` /
            :data:`SUPERVISION_LAST_ERROR_ENV` environment a supervisor
            set when it (re)spawned this process — 0 and ``None`` for an
            unsupervised server, so the block is always present and
            stable for clients to parse.
        """
        try:
            restarts = int(os.environ.get(SUPERVISION_RESTARTS_ENV, "0"))
        except ValueError:
            restarts = 0
        uptime_s = (
            time.monotonic() - self._started_at
            if self._started_at is not None and self.is_running
            else 0.0
        )
        return {
            "state": "healthy" if self.is_running else "failed",
            "uptime_s": uptime_s,
            "restarts": restarts,
            "last_error": os.environ.get(SUPERVISION_LAST_ERROR_ENV) or None,
        }

    def analyze_directory(
        self,
        directory: "str | Path",
        profile: "ProfileReport | None" = None,
    ) -> "list[ClipResult]":
        """Serve every ``*.npz`` clip under ``directory``, sorted by name."""
        directory = Path(directory)
        paths = sorted(directory.glob("*.npz"))
        if not paths:
            raise ConfigurationError(f"no .npz clips under {directory}")
        return self.analyze_paths(paths, profile)

    def _streaming_analyzer(self) -> "JumpPoseAnalyzer":
        """The in-process analyzer streaming requests decode with.

        ``jobs == 1`` reuses the service's own analyzer; otherwise the
        artifact is loaded once more in-process (it is a few kB) and
        cached, since the pool workers' analyzers are unreachable from a
        frame-at-a-time generator.
        """
        if self._analyzer is not None:
            return self._analyzer
        with self._stream_analyzer_lock:
            if self._stream_analyzer is None:
                if not self.is_running:
                    raise ModelError(
                        "service is not running; call start() first"
                    )
                self._stream_analyzer = load_analyzer(
                    self.artifact_path, decode=self.decode
                )
            return self._stream_analyzer

    def stream_clip(self, clip: "JumpClip"):
        """Decode one clip frame-incrementally, yielding partial results.

        A generator over the paper's per-frame pipeline: each of the
        clip's frames runs the vision front-end and one causal
        :class:`~repro.serving.streaming.StreamingDecoder` step
        (``lag=0``, i.e. ``decode="filter"`` semantics), and the
        corresponding :class:`~repro.core.results.FrameResult` is
        yielded as soon as that frame is decoded — long clips produce
        feedback before they finish.  When the stream is exhausted the
        *final* :class:`~repro.core.results.ClipResult` — computed with
        the service's configured decode mode over the same candidate
        features, hence bit-identical to :meth:`analyze_clips` — is the
        generator's return value (``StopIteration.value``).

        Args:
            clip: the materialised clip to decode.

        Returns:
            A generator yielding one ``FrameResult`` per frame and
            returning the final ``ClipResult``.

        Raises:
            ModelError: the service is not running.
        """
        from repro.core.results import FrameResult
        from repro.errors import FeatureError, ImageError, SkeletonError
        from repro.serving.streaming import StreamingDecoder

        analyzer = self._streaming_analyzer()
        front_end = analyzer.front_end
        with Timer() as wall:
            subtractor = front_end.subtractor_for(clip.background)
            decoder = StreamingDecoder(analyzer.classifier, lag=0)
            candidates_per_frame = []
            for index, rgb in enumerate(clip.frames):
                try:
                    skeleton = front_end.skeleton_of_frame(rgb, subtractor)
                    candidates = front_end.candidate_features(skeleton)
                except (ImageError, SkeletonError, FeatureError):
                    candidates = []
                candidates_per_frame.append(candidates)
                (prediction,) = decoder.push(candidates)
                yield FrameResult(
                    index=index,
                    truth=clip.labels[index],
                    predicted=prediction.pose,
                    posterior=prediction.posterior,
                )
            predictions = analyzer.classifier.classify(candidates_per_frame)
            result = analyzer._result_for(clip, predictions)
        quality = result.quality()
        with self._dispatch_lock:
            self.stats.clips += 1
            self.stats.frames += len(clip)
            self.stats.latencies_s.append(wall.elapsed)
            self.stats.wall_s += wall.elapsed
            self.stats.record_quality(quality)
        _CLIPS_TOTAL.inc()
        _CLIP_LATENCY.observe(wall.elapsed)
        if quality.flagged:
            _FLAGGED_TOTAL.inc()
        return result

    def _dispatch(
        self, items: list, pool_fn, batch_fn,
        request_profile: "ProfileReport | None" = None,
    ) -> "list[ClipResult]":
        if not items:
            return []
        if self.fault_injector is not None:
            # the dispatch seam: only rules typed `:dispatch` match, and
            # only crash/hang/slow make sense here (no socket to drop)
            self.fault_injector.on_request("dispatch", seam="dispatch")
        _QUEUE_DEPTH.inc(len(items))
        with self._dispatch_lock:
            _QUEUE_DEPTH.dec(len(items))
            _INFLIGHT.inc(len(items))
            try:
                # checked under the lock: a concurrent close() drains here
                # and then nulls the pool, so a stale is_running answer
                # can't let a request dereference torn-down workers
                if not self.is_running:
                    raise ModelError(
                        "service is not running; call start() first"
                    )
                return self._dispatch_locked(
                    items, pool_fn, batch_fn, request_profile
                )
            finally:
                _INFLIGHT.dec(len(items))

    def _dispatch_locked(
        self, items: list, pool_fn, batch_fn,
        request_profile: "ProfileReport | None" = None,
    ) -> "list[ClipResult]":
        with Timer() as wall:
            batches = [
                items[i : i + self.batch_size]
                for i in range(0, len(items), self.batch_size)
            ]
            if self._pool is not None:
                handled = [
                    entry
                    for batch in self._pool.map(pool_fn, batches)
                    for entry in batch
                ]
            else:
                # in-process serving rides the same batched tensor
                # kernels the pool workers use, one micro-batch at a time
                assert self._analyzer is not None
                handled = [
                    entry
                    for batch in batches
                    for entry in batch_fn(self._analyzer, batch)
                ]
        results: list[ClipResult] = []
        for result, frames, elapsed, profile in handled:
            results.append(result)
            self.stats.clips += 1
            self.stats.frames += frames
            self.stats.latencies_s.append(elapsed)
            self.stats.profile.merge(profile)
            quality = result.quality()
            self.stats.record_quality(quality)
            if quality.flagged:
                _FLAGGED_TOTAL.inc()
            if request_profile is not None:
                request_profile.merge(profile)
            _CLIPS_TOTAL.inc()
            _CLIP_LATENCY.observe(elapsed)
            for stage, stage_stats in profile.stages.items():
                _STAGE_LATENCY.observe(stage_stats.total, stage=stage)
        self.stats.wall_s += wall.elapsed
        return results
