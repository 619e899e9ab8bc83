"""Protocol fuzzing: hostile bytes never take the server down.

Every malformed input in here must leave the server alive and responsive:
either a structured ``error`` frame comes back, or the connection is
closed cleanly — and in both cases a subsequent well-formed request (on
the same connection when framing survived, on a fresh one otherwise)
still gets a correct answer.
"""

from __future__ import annotations

import json
import socket
import struct

import numpy as np
import pytest

from repro.obs.events import configure_event_log
from repro.serving.client import JumpPoseClient
from repro.serving.net import JumpPoseServer
from repro.serving.protocol import (
    MAX_HEADER_BYTES,
    PREFIX_BYTES,
    PROTOCOL_MAGIC,
    PROTOCOL_VERSION,
    encode_frame,
    pack_blobs,
    read_frame,
)

pytestmark = pytest.mark.network

#: Small per-request payload ceiling so oversize probes stay cheap.
FUZZ_MAX_PAYLOAD = 1 << 16


@pytest.fixture(scope="module")
def artifact(tmp_path_factory, analyzer):
    path = tmp_path_factory.mktemp("fuzz") / "model.npz"
    return analyzer.save(path)


@pytest.fixture(scope="module")
def server(artifact):
    with JumpPoseServer(
        artifact, max_payload_bytes=FUZZ_MAX_PAYLOAD, idle_timeout_s=10.0
    ) as served:
        yield served


@pytest.fixture()
def raw(server):
    """A raw socket to the server, bypassing the typed client."""
    sock = socket.create_connection(server.address, timeout=10.0)
    yield sock
    sock.close()


def _prefix(
    magic: bytes = PROTOCOL_MAGIC,
    version: int = PROTOCOL_VERSION,
    header_size: int = 0,
    payload_size: int = 0,
) -> bytes:
    return struct.pack(">4sHIQ", magic, version, header_size, payload_size)


def _recv_response(sock: socket.socket):
    """Read one response frame, or None if the server closed instead."""
    with sock.makefile("rb") as reader:
        return read_frame(reader)


def _assert_alive(server) -> None:
    """The liveness invariant: a fresh well-formed request still works."""
    host, port = server.address
    with JumpPoseClient(host, port, timeout_s=10.0) as probe:
        assert probe.ping()["type"] == "pong"


def _send_ping(sock: socket.socket) -> None:
    sock.sendall(encode_frame({"type": "ping"}))


def test_truncated_prefix_then_disconnect(server, raw):
    raw.sendall(PROTOCOL_MAGIC[:2])
    raw.close()
    _assert_alive(server)


def test_truncated_header_then_disconnect(server, raw):
    raw.sendall(_prefix(header_size=500))
    raw.sendall(b'{"type":')  # 8 of the declared 500 bytes, then vanish
    raw.close()
    _assert_alive(server)


def test_mid_request_disconnect_in_payload(server, raw):
    frame = encode_frame({"type": "analyze_clips"}, b"x" * 1000)
    raw.sendall(frame[: PREFIX_BYTES + 30])  # prefix + part of the header
    raw.close()
    _assert_alive(server)


def test_bad_magic_gets_structured_error_and_close(server, raw):
    raw.sendall(_prefix(magic=b"HTTP"))
    response = _recv_response(raw)
    assert response is not None
    assert response.header["type"] == "error"
    assert response.header["code"] == "bad-magic"
    assert _recv_response(raw) is None  # connection closed after the reply
    _assert_alive(server)


def test_wrong_protocol_version_rejected(server, raw):
    raw.sendall(_prefix(version=PROTOCOL_VERSION + 41))
    response = _recv_response(raw)
    assert response.header["type"] == "error"
    assert response.header["code"] == "bad-version"
    assert str(PROTOCOL_VERSION) in response.header["message"]
    _assert_alive(server)


def test_oversized_header_prefix_rejected(server, raw):
    raw.sendall(_prefix(header_size=1 << 30))
    response = _recv_response(raw)
    assert response.header["type"] == "error"
    assert response.header["code"] == "oversized-header"
    _assert_alive(server)


def test_oversized_payload_prefix_rejected(server, raw):
    # over the server's configured ceiling, way under the declared bytes:
    # rejection happens on the prefix alone, no allocation
    raw.sendall(_prefix(payload_size=FUZZ_MAX_PAYLOAD + 1))
    response = _recv_response(raw)
    assert response.header["type"] == "error"
    assert response.header["code"] == "oversized-payload"
    _assert_alive(server)


def test_junk_json_header_keeps_connection(server, raw):
    junk = b"\xffnot json at all\x00"
    raw.sendall(_prefix(header_size=len(junk)) + junk)
    with raw.makefile("rb") as reader:
        response = read_frame(reader)
        assert response.header["type"] == "error"
        assert response.header["code"] == "bad-header"
        # framing was consumed cleanly: the same connection still serves
        _send_ping(raw)
        assert read_frame(reader).header["type"] == "pong"
    _assert_alive(server)


def test_non_object_json_header_keeps_connection(server, raw):
    junk = json.dumps([1, 2, 3]).encode()
    raw.sendall(_prefix(header_size=len(junk)) + junk)
    with raw.makefile("rb") as reader:
        response = read_frame(reader)
        assert response.header["type"] == "error"
        assert response.header["code"] == "bad-header"
        _send_ping(raw)
        assert read_frame(reader).header["type"] == "pong"


def test_unknown_request_type_keeps_connection(server, raw):
    raw.sendall(encode_frame({"type": "make-coffee"}))
    with raw.makefile("rb") as reader:
        response = read_frame(reader)
        assert response.header["type"] == "error"
        assert response.header["code"] == "bad-request"
        assert "make-coffee" in response.header["message"]
        _send_ping(raw)
        assert read_frame(reader).header["type"] == "pong"


def test_missing_type_field_keeps_connection(server, raw):
    raw.sendall(encode_frame({"paths": ["x.npz"]}))
    with raw.makefile("rb") as reader:
        assert read_frame(reader).header["code"] == "bad-request"
        _send_ping(raw)
        assert read_frame(reader).header["type"] == "pong"


def test_bad_request_field_types_keep_connection(server, raw):
    with raw.makefile("rb") as reader:
        raw.sendall(encode_frame({"type": "analyze_paths", "paths": "x.npz"}))
        assert read_frame(reader).header["code"] == "bad-request"
        raw.sendall(encode_frame({"type": "analyze_directory",
                                  "directory": 7}))
        assert read_frame(reader).header["code"] == "bad-request"
        _send_ping(raw)
        assert read_frame(reader).header["type"] == "pong"


def test_garbage_clip_payload_gets_structured_error(server, raw):
    payload = pack_blobs([b"this is not an npz archive"])
    raw.sendall(encode_frame({"type": "analyze_clips"}, payload))
    with raw.makefile("rb") as reader:
        response = read_frame(reader)
        assert response.header["type"] == "error"
        assert response.header["code"] == "DatasetError"
        _send_ping(raw)
        assert read_frame(reader).header["type"] == "pong"


def test_malformed_blob_framing_gets_structured_error(server, raw):
    # declares 3 blobs but supplies bytes for none
    payload = struct.pack(">I", 3)
    raw.sendall(encode_frame({"type": "analyze_clips"}, payload))
    with raw.makefile("rb") as reader:
        response = read_frame(reader)
        assert response.header["type"] == "error"
        assert response.header["code"] == "bad-payload"
        _send_ping(raw)
        assert read_frame(reader).header["type"] == "pong"


# ----------------------------------------------------------------------
# Protocol-v2 fuzzing: ids, pipelining, streaming
# ----------------------------------------------------------------------
def test_ill_typed_request_id_keeps_connection(server, raw):
    """An id that is neither integer nor string is a recoverable error."""
    with raw.makefile("rb") as reader:
        for bad_id in ([1, 2], {"n": 1}, 1.5, True):
            junk = json.dumps({"type": "ping", "id": bad_id}).encode()
            raw.sendall(_prefix(version=2, header_size=len(junk)) + junk)
            response = read_frame(reader)
            assert response.header["type"] == "error"
            assert response.header["code"] == "bad-request"
        _send_ping(raw)
        assert read_frame(reader).header["type"] == "pong"
    _assert_alive(server)


def test_id_on_a_v1_frame_is_rejected_recoverably(server, raw):
    """v1 frames predate ids; one carrying an id is a malformed request,
    not a framing loss."""
    junk = json.dumps({"type": "ping", "id": 7}).encode()
    raw.sendall(_prefix(version=1, header_size=len(junk)) + junk)
    with raw.makefile("rb") as reader:
        response = read_frame(reader)
        assert response.header["type"] == "error"
        assert response.header["code"] == "bad-request"
        _send_ping(raw)
        assert read_frame(reader).header["type"] == "pong"
    _assert_alive(server)


def test_pipelined_errors_carry_the_request_id(server, raw):
    """A failing id-tagged request is answered with an error frame
    carrying that id, so a pipelining client can attribute it."""
    payload = struct.pack(">I", 3)  # declares 3 blobs, supplies none
    raw.sendall(encode_frame({"type": "analyze_clips", "id": 41}, payload))
    with raw.makefile("rb") as reader:
        response = read_frame(reader)
        assert response.header["type"] == "error"
        assert response.header["code"] == "bad-payload"
        assert response.header["id"] == 41
        _send_ping(raw)
        assert read_frame(reader).header["type"] == "pong"
    _assert_alive(server)


def test_unknown_pipelined_type_keeps_connection(server, raw):
    raw.sendall(encode_frame({"type": "make-espresso", "id": "x-1"}))
    with raw.makefile("rb") as reader:
        response = read_frame(reader)
        assert response.header["type"] == "error"
        assert response.header["code"] == "bad-request"
        assert response.header["id"] == "x-1"
        _send_ping(raw)
        assert read_frame(reader).header["type"] == "pong"


def test_stream_analyze_garbage_archive_keeps_connection(server, raw):
    payload = pack_blobs([b"definitely not an npz archive"])
    raw.sendall(encode_frame({"type": "stream_analyze", "id": 9}, payload))
    with raw.makefile("rb") as reader:
        response = read_frame(reader)
        assert response.header["type"] == "error"
        assert response.header["code"] == "DatasetError"
        assert response.header["id"] == 9
        _send_ping(raw)
        assert read_frame(reader).header["type"] == "pong"
    _assert_alive(server)


def test_stream_analyze_wrong_blob_count_is_bad_request(server, raw):
    raw.sendall(encode_frame({"type": "stream_analyze", "id": 10},
                             pack_blobs([])))
    with raw.makefile("rb") as reader:
        response = read_frame(reader)
        assert response.header["type"] == "error"
        assert response.header["code"] == "bad-request"
        assert "exactly one" in response.header["message"]
        _send_ping(raw)
        assert read_frame(reader).header["type"] == "pong"


def test_stream_analyze_requires_v2(server, raw):
    """A v1 frame asking for streaming gets a recoverable refusal."""
    junk = json.dumps({"type": "stream_analyze"}).encode()
    raw.sendall(_prefix(version=1, header_size=len(junk)) + junk)
    with raw.makefile("rb") as reader:
        response = read_frame(reader)
        assert response.header["type"] == "error"
        assert response.header["code"] == "bad-request"
        assert "version 2" in response.header["message"]
        _send_ping(raw)
        assert read_frame(reader).header["type"] == "pong"
    _assert_alive(server)


def test_mid_pipeline_disconnect_leaves_server_serving(server):
    """A client that pipelines requests and vanishes before reading any
    reply must not wedge the server."""
    host, port = server.address
    sock = socket.create_connection((host, port), timeout=10.0)
    try:
        for rid in range(4):
            sock.sendall(encode_frame({"type": "ping", "id": rid}))
    finally:
        sock.close()  # without reading a single reply
    _assert_alive(server)


def test_random_junk_streams_never_kill_the_server(server):
    """Seeded junk blasts on fresh connections; the server outlives all."""
    rng = np.random.default_rng(0xFACE)
    host, port = server.address
    for round_index in range(12):
        blob = rng.integers(0, 256, size=int(rng.integers(1, 400)),
                            dtype=np.uint8).tobytes()
        sock = socket.create_connection((host, port), timeout=10.0)
        try:
            sock.sendall(blob)
            sock.shutdown(socket.SHUT_WR)
            # drain whatever the server says (error frame or clean close)
            while sock.recv(4096):
                pass
        except OSError:
            pass  # server slammed the door — that's an allowed outcome
        finally:
            sock.close()
    _assert_alive(server)


# ----------------------------------------------------------------------
# Observability fuzzing: trace headers and metrics requests
# ----------------------------------------------------------------------
def test_junk_trace_headers_never_reject_requests(server, raw):
    """A malformed trace context means 'untraced', never an error: the
    request is answered normally and no trace echo comes back."""
    junk_traces = [
        7, 1.5, True, [1, 2], "zz-not-hex", "x" * 500,
        {"trace_id": 7, "span_id": "abcd"},
        {"trace_id": "nope!", "span_id": "abcd"},
        {"span_id": "abcd"},                       # missing trace_id
        {"trace_id": "a" * 200, "span_id": "ab"},  # oversized id
        {},
    ]
    with raw.makefile("rb") as reader:
        for junk in junk_traces:
            raw.sendall(encode_frame({"type": "ping", "trace": junk}))
            response = read_frame(reader)
            assert response.header["type"] == "pong", f"rejected {junk!r}"
            assert "trace" not in response.header
    _assert_alive(server)


def test_duplicate_trace_keys_last_one_wins_harmlessly(server, raw):
    """Raw JSON with a duplicated ``trace`` key (a hostile encoder can
    write one) must not kill the request — the decoded header keeps one
    of them, and either a valid echo or an untraced pong is fine."""
    dup = (
        b'{"type": "ping",'
        b' "trace": {"trace_id": "ab12", "span_id": "cd34"},'
        b' "trace": "definitely junk!"}'
    )
    raw.sendall(_prefix(header_size=len(dup)) + dup)
    with raw.makefile("rb") as reader:
        response = read_frame(reader)
        assert response.header["type"] == "pong"
        _send_ping(raw)
        assert read_frame(reader).header["type"] == "pong"
    _assert_alive(server)


def test_valid_trace_is_echoed_on_the_reply(server, raw):
    """The round-trip contract the clients rely on: a well-formed trace
    context comes back verbatim on the reply header."""
    context = {"trace_id": "ab" * 16, "span_id": "cd" * 8}
    raw.sendall(encode_frame({"type": "ping", "trace": context}))
    with raw.makefile("rb") as reader:
        response = read_frame(reader)
        assert response.header["type"] == "pong"
        assert response.header["trace"]["trace_id"] == context["trace_id"]
        assert response.header["trace"]["span_id"] == context["span_id"]


def test_malformed_metrics_requests_leave_server_serving(server, raw):
    """``metrics`` with junk riders (payload bytes, ill-typed ids, junk
    trace) either answers or errors recoverably — and the scrape output
    stays valid afterwards."""
    with raw.makefile("rb") as reader:
        # junk payload bytes on a metrics request are ignored
        raw.sendall(encode_frame({"type": "metrics"}, b"\x00junk\xff"))
        assert read_frame(reader).header["type"] == "metrics"
        # junk trace on a metrics request: answered, untraced
        raw.sendall(encode_frame({"type": "metrics", "trace": [1]}))
        assert read_frame(reader).header["type"] == "metrics"
        # ill-typed id is the usual recoverable bad-request
        junk = json.dumps({"type": "metrics", "id": {"n": 1}}).encode()
        raw.sendall(_prefix(version=2, header_size=len(junk)) + junk)
        assert read_frame(reader).header["code"] == "bad-request"
        _send_ping(raw)
        assert read_frame(reader).header["type"] == "pong"
    host, port = server.address
    with JumpPoseClient(host, port, timeout_s=10.0) as probe:
        text = probe.metrics()
    assert "# TYPE jpse_requests_total counter" in text
    _assert_alive(server)


def test_error_accounting_is_visible_in_stats(server):
    host, port = server.address
    # self-contained: provoke one counted error rather than relying on
    # the other fuzz tests having run against this shared server
    sock = socket.create_connection((host, port), timeout=10.0)
    try:
        sock.sendall(encode_frame({"type": "make-coffee"}))
        with sock.makefile("rb") as reader:
            assert read_frame(reader).header["type"] == "error"
    finally:
        sock.close()
    with JumpPoseClient(host, port, timeout_s=10.0) as probe:
        stats = probe.stats()
    assert stats["server"]["errors"] > 0


def test_unshippable_reply_is_counted_once(artifact, tmp_path):
    """A reply over the header ceiling is one error — not an ``ok`` that
    is then also counted as an ``error``."""
    log = tmp_path / "events.jsonl"
    configure_event_log(log)
    try:
        with JumpPoseServer(artifact) as fresh:
            sock = socket.create_connection(fresh.address, timeout=10.0)
            try:
                # the request fits; the pong echoing it does not
                echo = "x" * (MAX_HEADER_BYTES - 200)
                sock.sendall(encode_frame({"type": "ping", "echo": echo}))
                response = _recv_response(sock)
            finally:
                sock.close()
            assert response.header["code"] == "oversized-header"
            server = fresh.server_stats_snapshot()
    finally:
        configure_event_log(None)
    assert (server["requests"], server["errors"]) == (0, 1)
    events = [
        json.loads(line)
        for line in log.read_text(encoding="utf-8").splitlines()
    ]
    assert [
        (event["type"], event["outcome"])
        for event in events
        if event["event"] == "request"
    ] == [("ping", "error")]
