"""HTTP gateway conformance: HTTP changes nothing but the transport.

The contract under test (the HTTP side of ``docs/protocol.md``): a clip
analyzed through ``HttpJumpPoseClient`` against a running
``JumpPoseHttpServer`` yields **bit-identical** ``ClipResult`` sequences
to local ``JumpPoseAnalyzer.analyze_clips`` — same poses, same
posteriors to the last ulp — plus deterministic per-client ordering
under concurrency, the documented status-code mapping for malformed /
oversized / unroutable requests (none of which may take the gateway
down), and the token guard on remote shutdown.
"""

from __future__ import annotations

import base64
import http.client
import http.server
import json
import socket
import threading
import time

import pytest

from repro.cli import main
from repro.errors import (
    ConfigurationError,
    ProtocolError,
    RemoteError,
    TransportError,
)
from repro.serving.client import HttpJumpPoseClient, JumpPoseClient
from repro.serving.http import JumpPoseHttpServer
from repro.serving.net import JumpPoseServer
from repro.serving.protocol import (
    PROTOCOL_VERSION,
    encode_frame,
    pack_blobs,
    read_frame,
)
from repro.synth.io import save_clip

pytestmark = pytest.mark.network

#: Small request-body ceiling so oversize probes stay cheap.
SMALL_MAX_BODY = 1 << 16

SHUTDOWN_TOKEN = "test-shutdown-token"


@pytest.fixture(scope="module")
def artifact(tmp_path_factory, analyzer):
    path = tmp_path_factory.mktemp("http") / "model.npz"
    return analyzer.save(path)


@pytest.fixture(scope="module")
def clips_dir(tmp_path_factory, dataset):
    directory = tmp_path_factory.mktemp("http-clips")
    for clip in dataset.test:
        save_clip(clip, directory / f"{clip.clip_id}.npz")
    return directory


@pytest.fixture(scope="module")
def gateway(artifact):
    """One served artifact on an ephemeral loopback port."""
    with JumpPoseHttpServer(artifact, shutdown_token=SHUTDOWN_TOKEN) as served:
        yield served


@pytest.fixture(scope="module")
def hardened(artifact):
    """A gateway with a small body ceiling for the malformed-body probes."""
    with JumpPoseHttpServer(artifact, max_body_bytes=SMALL_MAX_BODY) as served:
        yield served


@pytest.fixture()
def client(gateway):
    host, port = gateway.address
    with HttpJumpPoseClient(host, port, timeout_s=20.0) as connected:
        yield connected


def _raw_request(address, method, path, body=None, headers=None):
    """One HTTP exchange on a fresh connection, bypassing the typed client."""
    host, port = address
    conn = http.client.HTTPConnection(host, port, timeout=10.0)
    try:
        conn.request(method, path, body=body, headers=headers or {})
        response = conn.getresponse()
        data = response.read()
    finally:
        conn.close()
    return response.status, json.loads(data.decode("utf-8")) if data else None


def _assert_alive(gateway) -> None:
    """The liveness invariant: a fresh well-formed request still works."""
    host, port = gateway.address
    with HttpJumpPoseClient(host, port, timeout_s=10.0) as probe:
        assert probe.healthz()["status"] == "ok"


# ----------------------------------------------------------------------
# Conformance
# ----------------------------------------------------------------------
def test_healthz_identifies_the_gateway(client):
    health = client.healthz()
    assert health["status"] == "ok"
    assert health["protocol_version"] == PROTOCOL_VERSION
    assert health["model_schema"] == "repro.serving/artifact"
    assert health["latency_s"] >= 0


def test_inline_clips_round_trip_bit_identical(client, analyzer, dataset):
    """The acceptance criterion: remote == local, to the last bit."""
    remote = client.analyze_clips(dataset.test)
    local = analyzer.analyze_clips(list(dataset.test))
    assert remote == local
    for remote_clip, local_clip in zip(remote, local):
        for ours, theirs in zip(remote_clip.frames, local_clip.frames):
            assert ours.posterior == theirs.posterior  # exact, not approx


def test_paths_and_directory_round_trip(client, analyzer, clips_dir, dataset):
    by_id = {clip.clip_id: clip for clip in dataset.test}
    paths = sorted(clips_dir.glob("*.npz"))
    via_paths = client.analyze_paths(paths)
    via_directory = client.analyze_directory(clips_dir)
    assert via_paths == via_directory
    assert [result.clip_id for result in via_paths] == sorted(by_id)
    for result in via_paths:
        assert result == analyzer.analyze_clip(by_id[result.clip_id])


def test_stats_reflect_served_traffic(client, dataset):
    clip = dataset.test[0]
    client.healthz()
    client.analyze_clips([clip])
    stats = client.stats()
    assert stats["service"]["clips"] >= 1
    assert stats["service"]["latency_p95_s"] >= 0
    server_side = stats["server"]
    assert server_side["requests"] >= 2
    assert "analyze" in server_side["request_stages"]
    assert "healthz" in server_side["request_stages"]


def test_remote_library_errors_keep_the_connection(client, tmp_path):
    with pytest.raises(RemoteError, match="DatasetError") as excinfo:
        client.analyze_paths([tmp_path / "missing.npz"])
    assert excinfo.value.http_status == 400
    with pytest.raises(RemoteError, match="no .npz clips"):
        client.analyze_directory(tmp_path)
    # the same keep-alive connection still serves well-formed requests
    assert client.healthz()["status"] == "ok"


@pytest.mark.network(timeout=180)  # 8 serialized decodes under suite load
def test_concurrent_clients_get_per_client_order(gateway, analyzer, dataset):
    """N clients, interleaved requests, each sees its own deterministic
    sequence back."""
    host, port = gateway.address
    clips = list(dataset.test)
    expected = {clip.clip_id: analyzer.analyze_clip(clip) for clip in clips}
    n_clients, rounds = 4, 2
    failures: "list[str]" = []

    def run_client(index: int) -> None:
        sequence = [clips[(index + r) % len(clips)] for r in range(rounds)]
        try:
            with HttpJumpPoseClient(host, port, timeout_s=20.0) as remote:
                for clip in sequence:
                    (result,) = remote.analyze_clips([clip])
                    if result != expected[clip.clip_id]:
                        failures.append(
                            f"client {index}: mismatch on {clip.clip_id}"
                        )
        except Exception as exc:  # surfaced after join
            failures.append(f"client {index}: {type(exc).__name__}: {exc}")

    threads = [
        threading.Thread(target=run_client, args=(index,))
        for index in range(n_clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not failures, failures


# ----------------------------------------------------------------------
# Malformed requests: every one gets a structured reply, none kills the
# gateway (the HTTP analog of the JPSE fuzz suite)
# ----------------------------------------------------------------------
def test_junk_json_body_gets_400(hardened):
    status, payload = _raw_request(
        hardened.address, "POST", "/v1/analyze", body=b"\xffnot json\x00"
    )
    assert status == 400
    assert payload["error"]["code"] == "bad-json"
    _assert_alive(hardened)


def test_non_object_json_body_gets_400(hardened):
    status, payload = _raw_request(
        hardened.address, "POST", "/v1/analyze", body=json.dumps([1]).encode()
    )
    assert status == 400
    assert payload["error"]["code"] == "bad-request"
    _assert_alive(hardened)


def test_missing_and_ambiguous_selectors_get_400(hardened):
    status, payload = _raw_request(
        hardened.address, "POST", "/v1/analyze", body=b"{}"
    )
    assert (status, payload["error"]["code"]) == (400, "bad-request")
    status, payload = _raw_request(
        hardened.address, "POST", "/v1/analyze",
        body=json.dumps({"paths": [], "directory": "x"}).encode(),
    )
    assert (status, payload["error"]["code"]) == (400, "bad-request")
    _assert_alive(hardened)


def test_bad_base64_and_garbage_archives_get_400(hardened):
    status, payload = _raw_request(
        hardened.address, "POST", "/v1/analyze",
        body=json.dumps({"clips": ["!!not-base64!!"]}).encode(),
    )
    assert (status, payload["error"]["code"]) == (400, "bad-base64")
    status, payload = _raw_request(
        hardened.address, "POST", "/v1/analyze",
        body=json.dumps({"clips": ["aGVsbG8="]}).encode(),  # b"hello"
    )
    assert (status, payload["error"]["code"]) == (400, "DatasetError")
    _assert_alive(hardened)


def test_bad_field_types_get_400(hardened):
    for body in (
        {"paths": "not-a-list"},
        {"paths": [7]},
        {"directory": 7},
        {"clips": "not-a-list"},
        {"clips": [7]},
    ):
        status, payload = _raw_request(
            hardened.address, "POST", "/v1/analyze",
            body=json.dumps(body).encode(),
        )
        assert (status, payload["error"]["code"]) == (400, "bad-request"), body
    _assert_alive(hardened)


def test_unknown_route_gets_404(hardened):
    status, payload = _raw_request(hardened.address, "GET", "/v1/nope")
    assert status == 404
    assert payload["error"]["code"] == "not-found"
    assert "/v1/analyze" in payload["error"]["message"]
    _assert_alive(hardened)


def test_wrong_method_gets_405(hardened):
    status, payload = _raw_request(hardened.address, "GET", "/v1/analyze")
    assert (status, payload["error"]["code"]) == (405, "method-not-allowed")
    status, payload = _raw_request(
        hardened.address, "POST", "/v1/healthz", body=b""
    )
    assert (status, payload["error"]["code"]) == (405, "method-not-allowed")
    _assert_alive(hardened)


def test_oversized_body_rejected_before_reading(hardened):
    """The declared length alone triggers the 413 — no bytes are read."""
    status, payload = _raw_request(
        hardened.address, "POST", "/v1/analyze",
        headers={"Content-Length": str(SMALL_MAX_BODY + 1)},
    )
    assert status == 413
    assert payload["error"]["code"] == "oversized-body"
    _assert_alive(hardened)


def test_missing_content_length_gets_411(hardened):
    host, port = hardened.address
    raw = socket.create_connection((host, port), timeout=10.0)
    try:
        raw.sendall(b"POST /v1/analyze HTTP/1.1\r\nHost: t\r\n\r\n")
        status_line = raw.makefile("rb").readline()
    finally:
        raw.close()
    assert b"411" in status_line
    _assert_alive(hardened)


def test_truncated_body_gets_400_then_close(hardened):
    host, port = hardened.address
    raw = socket.create_connection((host, port), timeout=10.0)
    try:
        raw.sendall(
            b"POST /v1/analyze HTTP/1.1\r\nHost: t\r\n"
            b"Content-Length: 100\r\n\r\nhello"
        )
        raw.shutdown(socket.SHUT_WR)
        status_line = raw.makefile("rb").readline()
    finally:
        raw.close()
    assert b"400" in status_line
    _assert_alive(hardened)


def test_unrouted_requests_with_bodies_close_the_connection(hardened):
    """A body the gateway refuses to route is never left on the wire:
    404/405 replies to body-carrying requests close the connection."""
    for method, path, expected in (
        ("GET", "/v1/nope", 404),
        ("GET", "/v1/analyze", 405),
    ):
        host, port = hardened.address
        conn = http.client.HTTPConnection(host, port, timeout=10.0)
        try:
            conn.request(method, path, body=b"hello")
            response = conn.getresponse()
            payload = json.loads(response.read().decode("utf-8"))
            assert response.status == expected
            assert "error" in payload
            assert response.getheader("Connection") == "close"
        finally:
            conn.close()
    _assert_alive(hardened)


def test_unsupported_methods_get_structured_json(hardened):
    """HEAD/PUT/... must honour the JSON error contract, not the
    stdlib's HTML 501 page — health-checkers probe with HEAD."""
    for method in ("HEAD", "PUT", "DELETE"):
        host, port = hardened.address
        conn = http.client.HTTPConnection(host, port, timeout=10.0)
        try:
            conn.request(method, "/v1/healthz")
            response = conn.getresponse()
            assert response.status == 501
            assert response.getheader("Content-Type") == "application/json"
            if method != "HEAD":  # HEAD replies carry no readable body
                payload = json.loads(response.read().decode("utf-8"))
                assert payload["error"]["code"] == "unsupported-method"
        finally:
            conn.close()
    _assert_alive(hardened)


def test_client_reset_before_reply_is_quiet(hardened, capfd):
    """A peer that RSTs before reading its reply must not dump a
    traceback to the serve process's stderr (load-balancers do this)."""
    import struct

    host, port = hardened.address
    for _ in range(3):
        sock = socket.create_connection((host, port), timeout=10.0)
        sock.setsockopt(
            socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
        )
        sock.sendall(b"GET /v1/healthz HTTP/1.1\r\nHost: t\r\n\r\n")
        sock.close()  # linger(0) close -> RST
    time.sleep(0.3)
    _assert_alive(hardened)
    captured = capfd.readouterr()
    assert "Traceback" not in captured.err


def test_get_with_body_preserves_keepalive_framing(hardened):
    """A GET carrying a body must be drained, not left to poison the
    next request on the same keep-alive connection."""
    host, port = hardened.address
    conn = http.client.HTTPConnection(host, port, timeout=10.0)
    try:
        conn.request("GET", "/v1/healthz", body=b'{"x": 1}')
        first = conn.getresponse()
        first.read()
        assert first.status == 200
        # same connection: framing must still line up
        conn.request("GET", "/v1/healthz")
        second = conn.getresponse()
        payload = json.loads(second.read().decode("utf-8"))
        assert second.status == 200
        assert payload["status"] == "ok"
    finally:
        conn.close()
    _assert_alive(hardened)


def test_random_junk_streams_never_kill_the_gateway(hardened):
    import numpy as np

    rng = np.random.default_rng(0xFACE)
    host, port = hardened.address
    for _ in range(12):
        blob = rng.integers(
            0, 256, size=int(rng.integers(1, 400)), dtype=np.uint8
        ).tobytes()
        sock = socket.create_connection((host, port), timeout=10.0)
        try:
            sock.sendall(blob)
            sock.shutdown(socket.SHUT_WR)
            while sock.recv(4096):
                pass
        except OSError:
            pass  # the gateway slammed the door — an allowed outcome
        finally:
            sock.close()
    _assert_alive(hardened)


def test_default_body_ceiling_covers_base64_inflation():
    """A clip batch the JPSE front accepts must fit over HTTP too."""
    from repro.serving.http import DEFAULT_MAX_BODY_BYTES
    from repro.serving.protocol import MAX_PAYLOAD_BYTES

    assert DEFAULT_MAX_BODY_BYTES > MAX_PAYLOAD_BYTES * 4 / 3


def test_client_recovers_nodelay_and_retry_after_server_close(
    hardened, dataset
):
    """After a Connection: close reply (413), the next request must go
    through connect() again — keeping TCP_NODELAY and the retry policy
    rather than http.client's silent auto-reconnect."""
    host, port = hardened.address
    with HttpJumpPoseClient(host, port, timeout_s=20.0) as remote:
        # a real clip archive is far over the hardened 64 KiB ceiling
        with pytest.raises(RemoteError, match="oversized-body") as excinfo:
            remote.analyze_clips([dataset.test[0]])
        assert excinfo.value.http_status == 413
        # the 413 closed the connection server-side; the next request
        # reconnects through connect() and still works...
        assert remote.healthz()["status"] == "ok"
        # ...with Nagle disabled on the fresh socket
        nodelay = remote._conn.sock.getsockopt(
            socket.IPPROTO_TCP, socket.TCP_NODELAY
        )
        assert nodelay != 0


def test_error_accounting_is_visible_in_stats(hardened):
    _raw_request(hardened.address, "GET", "/v1/nope")
    host, port = hardened.address
    with HttpJumpPoseClient(host, port, timeout_s=10.0) as probe:
        stats = probe.stats()
    assert stats["server"]["errors"] > 0


# ----------------------------------------------------------------------
# Shutdown token guard
# ----------------------------------------------------------------------
def test_shutdown_without_token_configured_is_403(hardened):
    host, port = hardened.address
    with HttpJumpPoseClient(host, port, timeout_s=10.0) as probe:
        with pytest.raises(RemoteError, match="shutdown-disabled") as excinfo:
            probe.shutdown("anything")
    assert excinfo.value.http_status == 403
    _assert_alive(hardened)


def test_shutdown_with_wrong_token_is_403(gateway):
    host, port = gateway.address
    with HttpJumpPoseClient(host, port, timeout_s=10.0) as probe:
        with pytest.raises(RemoteError, match="bad-token") as excinfo:
            probe.shutdown("not-the-token")
    assert excinfo.value.http_status == 403
    # the header transport for the token is honoured (and also guarded)
    status, payload = _raw_request(
        gateway.address, "POST", "/v1/shutdown", body=b"",
        headers={"X-JPSE-Shutdown-Token": "nope"},
    )
    assert (status, payload["error"]["code"]) == (403, "bad-token")
    _assert_alive(gateway)


def test_shutdown_with_token_stops_the_gateway(artifact):
    served = JumpPoseHttpServer(artifact, shutdown_token="once").start()
    host, port = served.address
    with HttpJumpPoseClient(host, port, timeout_s=10.0) as remote:
        assert remote.shutdown("once")["status"] == "bye"
    deadline = time.monotonic() + 10.0
    while served.is_running and time.monotonic() < deadline:
        time.sleep(0.01)
    assert not served.is_running
    served.close()  # idempotent
    with pytest.raises(TransportError):
        HttpJumpPoseClient(host, port, timeout_s=1.0,
                           connect_retries=1, retry_delay_s=0.01).connect()


# ----------------------------------------------------------------------
# Client transport semantics
# ----------------------------------------------------------------------
def test_connect_failure_raises_transport_error():
    probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    probe.bind(("127.0.0.1", 0))
    _, dead_port = probe.getsockname()
    probe.close()
    client = HttpJumpPoseClient(
        "127.0.0.1", dead_port, timeout_s=1.0,
        connect_retries=1, retry_delay_s=0.01,
    )
    with pytest.raises(TransportError, match="could not connect"):
        client.connect()


def test_client_retries_until_the_listener_is_up():
    """The serve-process-still-starting race: bind now, listen later."""
    placeholder = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    placeholder.bind(("127.0.0.1", 0))
    host, port = placeholder.getsockname()

    def listen_late() -> None:
        time.sleep(0.2)
        placeholder.listen(1)

    thread = threading.Thread(target=listen_late)
    thread.start()
    try:
        client = HttpJumpPoseClient(
            host, port, timeout_s=5.0, connect_retries=10, retry_delay_s=0.05
        )
        client.connect()
        assert client.is_connected
        client.close()
    finally:
        thread.join()
        placeholder.close()


def test_non_json_reply_raises_protocol_error():
    """A listener that speaks HTTP but not JSON is a protocol failure."""

    class _Plain(http.server.BaseHTTPRequestHandler):
        def do_GET(self):
            body = b"<html>not json</html>"
            self.send_response(200)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):
            pass

    httpd = http.server.HTTPServer(("127.0.0.1", 0), _Plain)
    host, port = httpd.server_address[:2]
    thread = threading.Thread(target=httpd.handle_request, daemon=True)
    thread.start()
    try:
        with HttpJumpPoseClient(host, port, timeout_s=5.0) as client:
            with pytest.raises(ProtocolError, match="not valid JSON"):
                client.healthz()
    finally:
        thread.join(timeout=5.0)
        httpd.server_close()


# ----------------------------------------------------------------------
# Cross-front parity: one error vocabulary, one stats block
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def socket_front(artifact):
    """A JPSE server on the same artifact, for the parity probes."""
    with JumpPoseServer(artifact) as served:
        yield served


def _jpse_error(address, mode, value):
    """Send one raw ``analyze_<mode>`` frame; return the error reply."""
    header = {"type": f"analyze_{mode}"}
    payload = b""
    if mode == "clips":
        payload = pack_blobs(value)
    else:
        header[mode] = value
    with socket.create_connection(address, timeout=30.0) as sock:
        sock.sendall(encode_frame(header, payload))
        with sock.makefile("rb") as reader:
            reply = read_frame(reader)
    assert reply.header["type"] == "error", reply.header
    return reply.header["code"], reply.header["message"]


def _http_error(address, mode, value):
    """POST the same input to ``/v1/analyze``; return the error body."""
    if mode == "clips":
        value = [base64.b64encode(blob).decode("ascii") for blob in value]
    status, payload = _raw_request(
        address, "POST", "/v1/analyze", body=json.dumps({mode: value}).encode()
    )
    assert status == 400, payload
    return payload["error"]["code"], payload["error"]["message"]


@pytest.mark.parametrize(
    "mode, make_value, code",
    [
        ("paths", lambda tmp: "not-a-list", "bad-request"),
        ("directory", lambda tmp: 7, "bad-request"),
        ("paths", lambda tmp: [str(tmp / "missing.npz")], "DatasetError"),
        ("directory", lambda tmp: str(tmp), "ConfigurationError"),
        ("clips", lambda tmp: [b"hello"], "DatasetError"),
    ],
    ids=[
        "ill-typed-paths", "non-string-directory", "missing-clip-path",
        "empty-directory", "garbage-archive",
    ],
)
def test_both_fronts_share_the_error_taxonomy(
    socket_front, gateway, tmp_path, mode, make_value, code
):
    """``docs/protocol.md``: the HTTP ``code`` vocabulary is shared with
    JPSE where the failure is shared — same input, same code."""
    value = make_value(tmp_path)
    jpse = _jpse_error(socket_front.address, mode, value)
    http_reply = _http_error(gateway.address, mode, value)
    assert jpse[0] == http_reply[0] == code
    assert jpse == http_reply
    with JumpPoseClient(*socket_front.address, timeout_s=10.0) as probe:
        jpse_server = probe.stats()["server"]
    with HttpJumpPoseClient(*gateway.address, timeout_s=10.0) as probe:
        http_server = probe.stats()["server"]
    assert set(jpse_server) == set(http_server)
    assert jpse_server["errors"] > 0 and http_server["errors"] > 0


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_analyze_connect_http(gateway, dataset, tmp_path, capsys):
    host, port = gateway.address
    clip = dataset.test[0]
    clip_path = save_clip(clip, tmp_path / "remote-clip.npz")
    code = main([
        "analyze", str(clip_path), "--connect-http", f"{host}:{port}",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "accuracy vs ground truth" in out


def test_cli_connect_http_endpoint_validation(tmp_path, dataset):
    clip_path = save_clip(dataset.test[0], tmp_path / "clip.npz")
    with pytest.raises(ConfigurationError, match="--connect-http expects"):
        main(["analyze", str(clip_path), "--connect-http", "nonsense"])


def test_cli_connect_transports_are_mutually_exclusive(tmp_path, dataset):
    clip_path = save_clip(dataset.test[0], tmp_path / "clip.npz")
    with pytest.raises(ConfigurationError, match="mutually exclusive"):
        main(["analyze", str(clip_path),
              "--connect", "127.0.0.1:1", "--connect-http", "127.0.0.1:2"])


def test_cli_serve_fronts_are_mutually_exclusive(tmp_path):
    with pytest.raises(ConfigurationError, match="mutually exclusive"):
        main(["serve", "--model", str(tmp_path / "model.npz"),
              "--port", "0", "--http-port", "0"])


def test_cli_serve_http_rejects_clips_dir(tmp_path):
    with pytest.raises(ConfigurationError, match="clips-dir"):
        main(["serve", "--model", str(tmp_path / "model.npz"),
              "--http-port", "0", "--clips-dir", str(tmp_path)])


def test_cli_shutdown_token_requires_http_port(tmp_path):
    with pytest.raises(ConfigurationError, match="http-port"):
        main(["serve", "--model", str(tmp_path / "model.npz"),
              "--shutdown-token", "t", "--clips-dir", str(tmp_path)])
    # the JPSE socket front has no shutdown endpoint either — the token
    # must not be silently ignored there
    with pytest.raises(ConfigurationError, match="http-port"):
        main(["serve", "--model", str(tmp_path / "model.npz"),
              "--port", "0", "--shutdown-token", "t"])


def test_cli_connect_http_rejects_local_model_flags(tmp_path, dataset):
    """The refusal names the flag the user actually passed."""
    clip_path = save_clip(dataset.test[0], tmp_path / "clip.npz")
    with pytest.raises(ConfigurationError, match="--connect-http decodes"):
        main(["analyze", str(clip_path), "--connect-http", "127.0.0.1:1",
              "--model", str(tmp_path / "model.npz")])
