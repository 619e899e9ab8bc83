"""Where the traced run records spans: the layers' public functions.

:func:`install` wraps each layer boundary of the per-layer table in
``perfbench/README.md`` with a :class:`~perfbench.spans.SpanRecorder`
span.  The benchmark process installs it for its own calls; server
processes get it from ``perfbench/hook/sitecustomize.py`` at interpreter
start.  The wrappers only record; ``src/`` is not edited.  Two seams are
private names, because no public function sits there: the thinner table
that skeleton extractors bind when built, and the service's per-batch
handler, the only call between its dispatch lock and the analysis.
"""

from __future__ import annotations

import http.client


def _count(name: str, of):
    """An ``after`` callback recording ``{name: of(args, kwargs, result)}``."""
    return lambda args, kwargs, result, state: {name: of(args, kwargs, result)}


def _cache_counters(args, kwargs):
    classifier = args[0]
    return classifier.cache_hits, classifier.cache_misses


def _decode_attrs(clips_of):
    def after(args, kwargs, result, state):
        classifier = args[0]
        return {
            "clips": clips_of(args),
            "hits": classifier.cache_hits - state[0],
            "misses": classifier.cache_misses - state[1],
        }

    return after


def _payload_bytes(args, kwargs, result):
    payload = args[2] if len(args) > 2 else kwargs.get("payload", b"")
    return len(payload)


def install(recorder) -> None:
    """Wrap every traced layer boundary in this process."""
    from repro.core import dbnclassifier, estimator
    from repro.imaging import background
    from repro.serving import client, service, streaming
    from repro.skeleton import pipeline as skeleton
    from repro.synth import io

    wrap = recorder.wrap
    # §2 silhouette extraction
    subtractor = background.BackgroundSubtractor
    wrap(subtractor, "extract", "extract")
    wrap(subtractor, "fit_background", "extract.fit_background")
    wrap(subtractor, "difference_image", "extract.difference")
    wrap(background, "median_filter", "extract.median")
    wrap(background, "largest_component", "extract.largest_component")
    # §3 thinning and skeleton repair; extractors bind their thinner when
    # built, so the table entries are wrapped before any analyzer exists
    wrap(skeleton.SkeletonExtractor, "extract", "skeleton")
    for key, thinner in list(skeleton._THINNERS.items()):
        skeleton._THINNERS[key] = recorder.traced(thinner, "skeleton.thin")
    wrap(skeleton.PixelGraph, "from_mask", "skeleton.graph")
    wrap(skeleton, "remove_adjacent_junctions", "skeleton.simplify")
    wrap(skeleton, "cut_loops", "skeleton.cut_loops")
    wrap(skeleton, "prune_short_branches", "skeleton.prune")
    # §4 key points and encoding
    wrap(
        estimator.VisionFrontEnd, "candidate_features", "features",
        after=_count("candidates", lambda a, k, result: len(result)),
    )
    # DBN decode
    classifier = dbnclassifier.DBNPoseClassifier
    wrap(classifier, "classify", "decode", before=_cache_counters,
         after=_decode_attrs(lambda args: 1))
    wrap(classifier, "classify_batch", "decode", before=_cache_counters,
         after=_decode_attrs(lambda args: len(args[1])))
    wrap(classifier, "observation_matrix", "decode.observation")
    # serving: service dispatch, streaming decoder, archive codec, wire
    wrap(service.JumpPoseService, "analyze_clips", "service",
         after=_count("clips", lambda a, k, result: len(result)))
    wrap(service, "_analyze_clip_batch", "service.handle")
    wrap(streaming.StreamingDecoder, "push", "stream.push")
    wrap(io, "clip_to_bytes", "io.encode",
         after=_count("bytes", lambda a, k, result: len(result)))
    wrap(io, "clip_from_bytes", "io.decode")
    wrap(client, "send_frame", "wire.send", after=_count("bytes", _payload_bytes))
    wrap(http.client.HTTPConnection, "request", "wire.send",
         after=_count("bytes", lambda a, k, result: len(k.get("body") or b"")))
    wrap(client.JumpPoseClient, "analyze_clips", "client.request",
         after=_count("port", lambda args, k, result: args[0].port))
