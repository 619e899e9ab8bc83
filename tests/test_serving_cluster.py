"""Routing conformance: replicas scale throughput, never change results.

The acceptance criteria under test: a sharded
``RoutingClient.analyze_clips`` over several replicas is **bit-identical**
(results *and* order) to a single-server request and to a local
``JumpPoseAnalyzer.analyze_clips`` — including when one replica is killed
mid-run and its shard fails over to the survivors.  Plus the stats
roll-up: every replica's numbers stay attributable by replica id after
aggregation.  The replicas are in-process servers from the
``replica_servers`` fixture; the supervised process fleet has its own
suite in ``tests/test_serving_supervisor.py``.
"""

from __future__ import annotations

import threading

import pytest

from repro.cli import main
from repro.errors import (
    ConfigurationError,
    ProtocolError,
    RemoteError,
    TransportError,
)
from repro.serving.client import (
    HASH_RING_POINTS,
    ROUTING_POLICIES,
    JumpPoseClient,
    RoutingClient,
)
from repro.obs.quality import empty_quality_totals
from repro.serving.faults import FaultInjector
from repro.serving.service import merge_service_stats
from repro.synth.io import save_clip


@pytest.fixture(scope="module")
def artifact(tmp_path_factory, analyzer):
    path = tmp_path_factory.mktemp("cluster") / "model.npz"
    return analyzer.save(path)


@pytest.fixture(scope="module")
def fleet(artifact, replica_servers):
    """Three replicas of the pilot artifact, shared by read-only tests."""
    with replica_servers(artifact, 3) as servers:
        yield servers


@pytest.fixture(scope="module")
def addresses(fleet):
    return [server.address for server in fleet]


@pytest.fixture(scope="module")
def clips(dataset):
    """Six clips (the two pilot test clips, three rounds) so every
    replica of a 3-replica fleet receives work under round-robin."""
    return list(dataset.test) * 3


@pytest.fixture(scope="module")
def local_results(analyzer, clips):
    return analyzer.analyze_clips(clips)


# ----------------------------------------------------------------------
# Replica identity
# ----------------------------------------------------------------------
pytestmark = pytest.mark.network


def test_ping_reports_replica_identity(addresses):
    for index, (host, port) in enumerate(addresses):
        with JumpPoseClient(host, port, timeout_s=10.0) as probe:
            assert probe.ping()["replica_id"] == f"r{index}"


# ----------------------------------------------------------------------
# Routing policies: bit-identity and stickiness
# ----------------------------------------------------------------------
@pytest.mark.network(timeout=120)
def test_round_robin_sharding_bit_identical(addresses, clips, local_results):
    """The headline acceptance criterion, round-robin flavour."""
    with RoutingClient(addresses, policy="round-robin",
                       timeout_s=20.0) as router:
        routed = router.analyze_clips(clips)
    assert routed == local_results
    assert [r.clip_id for r in routed] == [c.clip_id for c in clips]


@pytest.mark.network(timeout=120)
def test_clip_hash_sharding_bit_identical(addresses, clips, local_results):
    with RoutingClient(addresses, policy="clip-hash",
                       timeout_s=20.0) as router:
        routed = router.analyze_clips(clips)
        # single-server comparison: replica 0 alone gives the same answer
        host, port = addresses[0]
        with JumpPoseClient(host, port, timeout_s=20.0) as single:
            assert single.analyze_clips(clips) == routed
    assert routed == local_results


def test_clip_hash_is_sticky_and_consistent(addresses):
    """Same clip id → same replica; removing a replica only remaps its
    own clips (the consistency guarantee docs/scaling.md promises)."""
    router = RoutingClient(addresses, policy="clip-hash")
    everyone = set(range(3))
    clip_ids = [f"clip-{n:03d}" for n in range(64)]
    placement = {
        cid: router._replica_for_clip(cid, everyone) for cid in clip_ids
    }
    # deterministic across router instances (no process-seed hashing)
    again = RoutingClient(addresses, policy="clip-hash")
    assert placement == {
        cid: again._replica_for_clip(cid, everyone) for cid in clip_ids
    }
    # kill replica 1: its clips redistribute, everyone else's stay put
    survivors = {0, 2}
    for cid, before in placement.items():
        after = router._replica_for_clip(cid, survivors)
        if before in survivors:
            assert after == before, f"{cid} moved despite its replica living"
        else:
            assert after in survivors
    router.close()


def test_routing_client_validation():
    with pytest.raises(ConfigurationError, match="at least one"):
        RoutingClient([])
    with pytest.raises(ConfigurationError, match="policy"):
        RoutingClient([("127.0.0.1", 1)], policy="random")
    assert "round-robin" in ROUTING_POLICIES and "clip-hash" in ROUTING_POLICIES
    assert HASH_RING_POINTS > 0


# ----------------------------------------------------------------------
# Failover
# ----------------------------------------------------------------------
@pytest.mark.network(timeout=180)
def test_failover_after_replica_death(
    artifact, replica_servers, clips, local_results
):
    """A replica that died between requests is detected and re-dispatched."""
    with replica_servers(artifact, 3) as servers:
        addresses = [server.address for server in servers]
        with RoutingClient(addresses, timeout_s=20.0,
                           connect_retries=1, retry_delay_s=0.05) as router:
            assert router.analyze_clips(clips) == local_results
            servers[1].close()  # dies with connections established
            assert router.analyze_clips(clips) == local_results
            assert len(router.alive_addresses) == 2
            assert addresses[1] not in router.alive_addresses


@pytest.mark.network(timeout=180)
def test_failover_mid_request_is_bit_identical(
    artifact, replica_servers, clips, local_results
):
    """The acceptance criterion: kill one replica *mid-run* and the merged
    output still matches the local decode bit for bit."""
    with replica_servers(artifact, 3, drain_timeout_s=0.0) as servers:
        addresses = [server.address for server in servers]
        with RoutingClient(addresses, timeout_s=20.0,
                           connect_retries=1, retry_delay_s=0.05) as router:
            # the kill lands while shards are in flight (decode of the
            # first clips takes well over 0.3s on any machine)
            killer = threading.Timer(0.3, servers[0].close)
            killer.start()
            try:
                routed = router.analyze_clips(clips)
            finally:
                killer.join()
            assert routed == local_results


def test_all_replicas_dead_raises_transport_error(
    artifact, replica_servers, dataset
):
    with replica_servers(artifact, 2) as servers:
        addresses = [server.address for server in servers]
    # every server is closed: every connect now fails
    with RoutingClient(addresses, timeout_s=2.0, connect_retries=0,
                       retry_delay_s=0.01) as router:
        with pytest.raises(TransportError, match="unreachable"):
            router.analyze_clips(list(dataset.test))


@pytest.mark.network(timeout=120)
def test_remote_errors_are_not_failover(addresses, tmp_path):
    """A library-level failure propagates instead of killing replicas:
    the same request would fail identically on every replica."""
    with RoutingClient(addresses, timeout_s=20.0) as router:
        with pytest.raises(RemoteError):
            # analyze_paths is not routed, but a RemoteError through the
            # per-replica client must not mark the replica dead either
            router._clients[0].analyze_paths([tmp_path / "missing.npz"])
        assert len(router.alive_addresses) == 3


@pytest.mark.network(timeout=120)
def test_fatal_shard_error_still_evicts_failed_over_replicas(
    artifact, replica_servers, dataset
):
    """A routed call that raises keeps its own failover evictions: r0 is
    down (transport failure, failover) while r1 corrupts its reply (a
    ProtocolError, which is fatal) in the same dispatch round — after
    the raise, the dead r0 must already be out of rotation instead of
    being dialled (and failed over) again by the next call."""
    corrupt = FaultInjector.from_spec("corrupt@1:analyze_clips")
    with replica_servers(artifact, 2, fault_injector=corrupt) as servers:
        addresses = [server.address for server in servers]
        servers[0].close()
        with RoutingClient(addresses, timeout_s=20.0, connect_retries=0,
                           retry_delay_s=0.01) as router:
            # round-robin: clip 0 -> r0 (down), clip 1 -> r1 (corrupt)
            with pytest.raises(ProtocolError):
                router.analyze_clips(list(dataset.test)[:2])
            assert router.alive_addresses == [addresses[1]]


# ----------------------------------------------------------------------
# Stats roll-up: RoutingClient.stats() + merge_service_stats
# ----------------------------------------------------------------------
@pytest.mark.network(timeout=120)
def test_stats_rollup_keeps_replica_identity(addresses, clips, local_results):
    with RoutingClient(addresses, timeout_s=20.0) as router:
        assert router.analyze_clips(clips) == local_results
        client_side = router.stats()
    by_replica = {
        payload.get("replica_id"): payload for payload in client_side.values()
    }
    assert set(by_replica) == {"r0", "r1", "r2"}
    for replica_id, payload in by_replica.items():
        served = payload["service"]
        assert served["clips"]  # round-robin gave every replica work
        # the service payload itself carries the id, so merged
        # scrapes stay attributable
        assert served["replica_id"] == replica_id
    totals = merge_service_stats(
        {rid: payload["service"] for rid, payload in by_replica.items()}
    )
    assert totals["replicas"] == 3
    assert totals["clips"] == sum(
        payload["service"]["clips"] for payload in by_replica.values()
    )
    # latency quantiles stay per-replica (they do not compose)
    assert "latency_p95_s" not in totals


def test_merge_service_stats_totals():
    merged = merge_service_stats({
        "r0": {"clips": 4, "frames": 100, "wall_s": 2.0},
        "r1": {"clips": 6, "frames": 140, "wall_s": 2.0},
    })
    assert merged == {
        "replicas": 2,
        "clips": 10,
        "frames": 240,
        "wall_s": 4.0,
        "clip_throughput": 2.5,
        "frame_throughput": 60.0,
        "quality": empty_quality_totals(),
    }
    empty = merge_service_stats({})
    assert empty["clips"] == 0 and empty["clip_throughput"] == 0.0


def test_merge_service_stats_quality_composes():
    """Per-replica quality blocks sum and the fleet alert recomputes."""
    merged = merge_service_stats({
        "r0": {
            "clips": 4, "frames": 100, "wall_s": 2.0,
            "quality": {
                "clips": 4, "flagged_clips": 0,
                "low_likelihood_frames": 1, "pose_jumps": 0,
                "stage_violations": 0, "alert": "ok",
            },
        },
        "r1": {
            "clips": 4, "frames": 100, "wall_s": 2.0,
            "quality": {
                "clips": 4, "flagged_clips": 4,
                "low_likelihood_frames": 9, "pose_jumps": 4,
                "stage_violations": 2, "alert": "alert",
            },
        },
    })
    quality = merged["quality"]
    assert quality["clips"] == 8
    assert quality["flagged_clips"] == 4
    assert quality["low_likelihood_frames"] == 10
    assert quality["pose_jumps"] == 4
    assert quality["stage_violations"] == 2
    # 4/8 flagged >= the alert fraction: one bad replica flips the fleet
    assert quality["alert"] == "alert"


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_serve_replicas_validation(tmp_path):
    model = tmp_path / "model.npz"
    with pytest.raises(ConfigurationError, match="--port"):
        main(["serve", "--model", str(model), "--replicas", "2"])
    with pytest.raises(ConfigurationError, match="--http-port"):
        main(["serve", "--model", str(model), "--replicas", "2",
              "--http-port", "0"])
    with pytest.raises(ConfigurationError, match="--replicas"):
        main(["serve", "--model", str(model), "--replicas", "0",
              "--port", "0"])


@pytest.mark.network(timeout=120)
def test_cli_analyze_multi_endpoint_routes(addresses, dataset, tmp_path, capsys):
    clip = dataset.test[0]
    clip_path = save_clip(clip, tmp_path / "routed-clip.npz")
    endpoints = ",".join(f"{h}:{p}" for h, p in addresses)
    code = main(["analyze", str(clip_path), "--connect", endpoints])
    assert code == 0
    assert "accuracy vs ground truth" in capsys.readouterr().out
