"""End-to-end observability through the serving stack.

The PR-7 acceptance criteria, pinned:

- One ``analyze_clips`` through a :class:`RoutingClient` with a killed
  replica yields a **single trace_id** visible in the JSON event log of
  the router side and of every replica touched, with per-stage spans on
  the request events.
- Trace contexts round-trip over the socket (JPSE header) and HTTP
  (``X-Request-Id``) fronts, and the pipelined path is traced too.
- A synthetic clip with an injected pose teleport arrives **flagged**
  on its :class:`ClipResult` and flips the aggregated quality alert in
  ``/v1/stats`` and ``/v1/healthz``.
"""

from __future__ import annotations

import dataclasses
import http.client
import json

import pytest

from repro.obs.events import configure_event_log
from repro.obs.trace import HTTP_TRACE_HEADER, new_trace
from repro.serving.client import (
    HttpJumpPoseClient,
    JumpPoseClient,
    RoutingClient,
)
from repro.serving.http import JumpPoseHttpServer
from repro.serving.net import JumpPoseServer

pytestmark = pytest.mark.network


@pytest.fixture(scope="module")
def artifact(tmp_path_factory, analyzer):
    path = tmp_path_factory.mktemp("obs") / "model.npz"
    return analyzer.save(path)


@pytest.fixture()
def event_log(tmp_path):
    """A configured global JSON event log, reset to the null sink after."""
    path = tmp_path / "events.jsonl"
    configure_event_log(path)
    try:
        yield path
    finally:
        configure_event_log(None)


def _events(path):
    return [
        json.loads(line)
        for line in path.read_text(encoding="utf-8").splitlines()
    ]


# ----------------------------------------------------------------------
# Trace propagation
# ----------------------------------------------------------------------
@pytest.mark.parametrize("front", ["jpse", "http"])
def test_socket_requests_are_traced_with_per_stage_spans(
    artifact, dataset, event_log, front
):
    """Plain (and, over JPSE, pipelined) calls from one client share its
    root trace; every served request logs its own span and its stage
    timings — on both fronts."""
    clips = list(dataset.test)
    if front == "jpse":
        server_type, client_type, probe = JumpPoseServer, JumpPoseClient, "ping"
        analyze_type = "analyze_clips"
    else:
        server_type, client_type, probe = (
            JumpPoseHttpServer, HttpJumpPoseClient, "healthz",
        )
        analyze_type = "analyze"
    with server_type(artifact) as server:
        host, port = server.address
        with client_type(host, port, timeout_s=30.0) as client:
            getattr(client, probe)()
            client.analyze_clips(clips)
            if front == "jpse":
                client.analyze_clips_pipelined([[clip] for clip in clips])
    requests = [e for e in _events(event_log) if e["event"] == "request"]
    # probe + one analyze (+ one pipelined request per clip), all traced
    assert len(requests) == 2 + (len(clips) if front == "jpse" else 0)
    assert {e["trace_id"] for e in requests} == {requests[0]["trace_id"]}
    assert len({e["span_id"] for e in requests}) == len(requests)
    analyzes = [e for e in requests if e["type"] == analyze_type]
    assert analyzes
    for event in analyzes:
        assert event["outcome"] == "ok"
        assert event["stages"]  # per-stage spans rode along
        assert event["latency_s"] > 0


def test_explicit_trace_parents_the_request_span(artifact, dataset, event_log):
    trace = new_trace()
    with JumpPoseServer(artifact) as server:
        host, port = server.address
        with JumpPoseClient(host, port, timeout_s=30.0) as client:
            client.analyze_clips(list(dataset.test), trace=trace)
    (request,) = [e for e in _events(event_log) if e["event"] == "request"]
    assert request["trace_id"] == trace.trace_id
    assert request["parent_id"] == trace.span_id
    assert request["span_id"] != trace.span_id


def test_http_echoes_x_request_id(artifact):
    trace = new_trace()
    with JumpPoseHttpServer(artifact) as gateway:
        host, port = gateway.address
        conn = http.client.HTTPConnection(host, port, timeout=10.0)
        try:
            conn.request(
                "GET", "/v1/healthz",
                headers={HTTP_TRACE_HEADER: trace.to_http_header()},
            )
            response = conn.getresponse()
            response.read()
            assert response.status == 200
            assert response.getheader(HTTP_TRACE_HEADER) == trace.to_http_header()
            # junk ids mean "untraced", never a rejection — and no echo
            conn.request(
                "GET", "/v1/healthz",
                headers={HTTP_TRACE_HEADER: "junk !! not an id"},
            )
            response = conn.getresponse()
            response.read()
            assert response.status == 200
            assert response.getheader(HTTP_TRACE_HEADER) is None
        finally:
            conn.close()


@pytest.mark.network(timeout=180)
def test_routed_call_with_killed_replica_is_one_trace(
    artifact, replica_servers, dataset, analyzer, tmp_path
):
    """The acceptance criterion: after a replica dies, one routed call
    still resolves to a single trace_id across the router's dispatch /
    failover / completion events and every surviving replica's request
    events — each with its own span parented to the call's root."""
    clips = list(dataset.test) * 3
    local = analyzer.analyze_clips(clips)
    path = tmp_path / "routed.jsonl"
    with replica_servers(artifact, 3) as servers:
        addresses = [server.address for server in servers]
        with RoutingClient(addresses, timeout_s=30.0,
                           connect_retries=1, retry_delay_s=0.05) as router:
            assert router.analyze_clips(clips) == local  # warm-up, unlogged
            servers[1].close()  # one replica dies
            configure_event_log(path)
            try:
                routed = router.analyze_clips(clips)
            finally:
                configure_event_log(None)
    assert routed == local  # failover never changes results

    events = _events(path)
    by_type: "dict[str, list[dict]]" = {}
    for event in events:
        by_type.setdefault(event["event"], []).append(event)

    # a single trace id spans every router- and replica-side event
    trace_ids = {e["trace_id"] for e in events if "trace_id" in e}
    assert len(trace_ids) == 1

    (complete,) = by_type["route_complete"]
    root_span = complete["span_id"]
    assert by_type["route_dispatch"][0]["span_id"] == root_span

    failovers = by_type["route_failover"]
    assert failovers  # the dead replica's shard was re-dispatched
    assert failovers[0]["reason"] and failovers[0]["clips"] >= 1
    assert failovers[0]["trace_id"] in trace_ids

    served = [e for e in by_type["request"] if e["type"] == "analyze_clips"]
    assert {e["replica_id"] for e in served} >= {"r0", "r2"}  # survivors
    assert len({e["span_id"] for e in served}) == len(served)
    for event in served:
        assert event["parent_id"] == root_span
        assert event["stages"]


# ----------------------------------------------------------------------
# Pose-quality diagnostics on the serving path
# ----------------------------------------------------------------------
def _teleport_clip(dataset):
    """Splice standing frames onto another clip's landing frames.

    The decoder follows the evidence across the cut, so the decoded
    sequence teleports across the pose vocabulary — the pathology the
    quality diagnostics exist to flag (deterministic on the pilot
    artifact: same model, same frames, same decode).
    """
    a, b = dataset.test[0], dataset.test[1]
    spliced = {
        attr: tuple(getattr(a, attr)[:12]) + tuple(getattr(b, attr)[38:])
        for attr in (
            "frames", "silhouettes", "labels", "stages", "joints", "motion"
        )
    }
    return dataclasses.replace(a, clip_id="teleport-clip", **spliced)


def test_pose_teleport_flags_the_result_and_flips_the_stats_alert(
    artifact, dataset
):
    clip = _teleport_clip(dataset)
    with JumpPoseHttpServer(artifact) as gateway:
        host, port = gateway.address
        with HttpJumpPoseClient(host, port, timeout_s=60.0) as client:
            assert client.healthz()["quality_alert"] == "ok"
            (result,) = client.analyze_clips([clip])
            quality = result.quality()
            assert quality.pose_jumps >= 1  # the injected teleport decoded
            assert quality.flagged
            stats_quality = client.stats()["service"]["quality"]
            assert stats_quality["clips"] == 1
            assert stats_quality["flagged_clips"] == 1
            assert stats_quality["pose_jumps"] >= 1
            assert stats_quality["alert"] == "alert"  # 1/1 flagged
            assert client.healthz()["quality_alert"] == "alert"


def test_clean_clips_leave_the_alert_ok(artifact, dataset):
    with JumpPoseServer(artifact) as server:
        host, port = server.address
        with JumpPoseClient(host, port, timeout_s=60.0) as client:
            results = client.analyze_clips(list(dataset.test))
            stats_quality = client.stats()["service"]["quality"]
    assert stats_quality["clips"] == len(results)
    assert stats_quality["alert"] in ("ok", "warn")  # no teleport injected
