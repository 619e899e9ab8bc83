"""Supervised fleets: crash, restart, re-admit — results never change.

The acceptance criterion under test: with replicas running as real OS
processes under :class:`ReplicaSupervisor`, ``kill -9`` one of them
mid-``analyze_clips`` and the routed results are still **bit-identical**
to a local analyzer's, the dead replica is restarted on its *same* port,
and it rejoins the routing rotation only after consecutive healthy
probes.  The fault matrix (injected crash, hang past a deadline, a
flapping replica exhausting its restart budget) rides on the same
machinery via :mod:`repro.serving.faults`.

Every fleet here is scoped to the test's own processes and ports; the
``faultinject`` marker lets ``-m "not faultinject"`` skip the drills.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.cli import main
from repro.errors import ConfigurationError
from repro.serving.client import JumpPoseClient, RoutingClient
from repro.serving.supervisor import (
    DEFAULT_START_GRACE_S,
    DEFAULT_TERM_GRACE_S,
    REPLICA_STATES,
    ReplicaSupervisor,
)

pytestmark = [pytest.mark.network, pytest.mark.faultinject]


@pytest.fixture(scope="module")
def artifact(tmp_path_factory, analyzer):
    path = tmp_path_factory.mktemp("supervisor") / "model.npz"
    return analyzer.save(path)


@pytest.fixture(scope="module")
def clips(dataset):
    """Six clips (two pilot test clips, three rounds) so every replica
    of a 3-fleet receives work under round-robin."""
    return list(dataset.test) * 3


@pytest.fixture(scope="module")
def local_results(analyzer, clips):
    return analyzer.analyze_clips(clips)


def make_supervisor(artifact, tmp_path, **overrides):
    """A supervisor tuned for test speed: fast probes, short backoff."""
    settings = dict(
        replicas=3,
        probe_interval_s=0.15,
        probe_deadline_s=5.0,
        probes_to_admit=2,
        probe_failures_to_restart=2,
        backoff_base_s=0.1,
        backoff_max_s=0.5,
        start_grace_s=30.0,
        term_grace_s=3.0,
        workdir=tmp_path,
    )
    settings.update(overrides)
    return ReplicaSupervisor(artifact, **settings)


@pytest.fixture(scope="module")
def fleet(artifact, tmp_path_factory):
    """One 3-replica supervised fleet shared by the non-fault tests
    (the kill-9 test restarts a member but leaves the fleet healthy)."""
    workdir = tmp_path_factory.mktemp("fleet")
    with make_supervisor(artifact, workdir) as supervisor:
        assert supervisor.wait_until_healthy(timeout_s=60.0), (
            supervisor.render_health()
        )
        yield supervisor


# ----------------------------------------------------------------------
# Construction and validation
# ----------------------------------------------------------------------
def test_supervisor_validation(artifact):
    with pytest.raises(ConfigurationError, match="replicas"):
        ReplicaSupervisor(artifact, replicas=0)
    with pytest.raises(ConfigurationError, match="probes_to_admit"):
        ReplicaSupervisor(artifact, probes_to_admit=0)
    with pytest.raises(ConfigurationError, match="restart_budget"):
        ReplicaSupervisor(artifact, restart_budget=0)
    with pytest.raises(ConfigurationError, match="backoff"):
        ReplicaSupervisor(artifact, backoff_base_s=2.0, backoff_max_s=1.0)
    with pytest.raises(ConfigurationError, match="unknown replicas"):
        ReplicaSupervisor(artifact, replicas=2, fault_specs={"r9": "crash"})
    supervisor = ReplicaSupervisor(artifact, replicas=2)
    with pytest.raises(ConfigurationError, match="not started"):
        supervisor.addresses
    with pytest.raises(ConfigurationError, match="unknown replica id"):
        supervisor.replica_pid("rx")
    assert supervisor.replica_ids == ["r0", "r1"]
    assert REPLICA_STATES[0] == "starting" and REPLICA_STATES[-1] == "failed"
    assert DEFAULT_START_GRACE_S > 0 and DEFAULT_TERM_GRACE_S > 0


# ----------------------------------------------------------------------
# Healthy fleet: admission, supervision detail, bit-identity
# ----------------------------------------------------------------------
@pytest.mark.network(timeout=120)
def test_fleet_admits_and_reports_supervision(fleet):
    health = fleet.health()
    assert health["status"] == "ok"
    assert sorted(health["replicas"]) == ["r0", "r1", "r2"]
    for rid, block in health["replicas"].items():
        assert block["state"] == "healthy"
        assert block["pid"] is not None
        assert block["uptime_s"] > 0
        assert fleet.replica_pid(rid) == block["pid"]
    # the replicas surface their own supervision history over ping
    for rid, (host, port) in zip(fleet.replica_ids, fleet.addresses):
        with JumpPoseClient(host, port, timeout_s=10.0) as probe:
            pong = probe.ping()
        assert pong["replica_id"] == rid
        supervision = pong["supervision"]
        assert supervision["state"] == "healthy"
        assert supervision["uptime_s"] > 0
        assert isinstance(supervision["restarts"], int)
    assert "fleet status: ok" in fleet.render_health()


@pytest.mark.network(timeout=120)
def test_supervised_routing_bit_identical(fleet, clips, local_results):
    with RoutingClient(fleet.addresses, timeout_s=20.0) as router:
        fleet.attach_router(router)
        assert router.analyze_clips(clips) == local_results


# ----------------------------------------------------------------------
# The acceptance criterion: kill -9, restart, re-admission
# ----------------------------------------------------------------------
@pytest.mark.network(timeout=180)
def test_kill9_mid_run_restart_readmission_bit_identical(
    fleet, clips, local_results
):
    """SIGKILL one of three replicas mid-run: the routed results stay
    bit-identical, the victim restarts on its *same* port, and rejoins
    routing only after consecutive healthy probes."""
    assert fleet.wait_until_healthy(timeout_s=60.0), fleet.render_health()
    victim_address = fleet.addresses[0]
    restarts_before = fleet.health()["replicas"]["r0"]["restarts"]
    pid = fleet.replica_pid("r0")
    assert pid is not None

    with RoutingClient(fleet.addresses, timeout_s=20.0) as router:
        fleet.attach_router(router)
        killer = threading.Timer(0.3, os.kill, args=(pid, signal.SIGKILL))
        killer.start()
        try:
            routed = router.analyze_clips(clips)
        finally:
            killer.cancel()
        assert routed == local_results

        # the supervisor restarts the victim on the same port and
        # re-admits it after consecutive healthy probes
        assert fleet.wait_for(
            lambda health: (
                health["replicas"]["r0"]["state"] == "healthy"
                and health["replicas"]["r0"]["restarts"] > restarts_before
            ),
            timeout_s=90.0,
        ), fleet.render_health()
        assert fleet.addresses[0] == victim_address

        deadline = time.monotonic() + 30.0
        while victim_address not in router.alive_addresses:
            assert time.monotonic() < deadline, "victim never re-admitted"
            time.sleep(0.05)

        # the restarted process knows its own history, and still serves
        host, port = victim_address
        with JumpPoseClient(host, port, timeout_s=20.0) as probe:
            pong = probe.ping()
            assert pong["supervision"]["restarts"] > restarts_before
            single = probe.analyze_clips(list(clips[:2]))
        assert single == local_results[: len(single)]
        assert router.analyze_clips(clips) == local_results


# ----------------------------------------------------------------------
# The fault matrix: injected crash, hang, flapping budget exhaustion
# ----------------------------------------------------------------------
@pytest.mark.network(timeout=180)
def test_injected_crash_mid_request_fails_over_and_restarts(
    artifact, tmp_path, clips, local_results
):
    """``crash@1:analyze_clips`` kills r0 the moment work reaches it:
    the shard fails over, results stay bit-identical, and the
    supervisor restarts the replica."""
    with make_supervisor(
        artifact, tmp_path, replicas=2,
        fault_specs={"r0": "crash@1:analyze_clips"},
    ) as supervisor:
        assert supervisor.wait_until_healthy(timeout_s=60.0), (
            supervisor.render_health()
        )
        with RoutingClient(supervisor.addresses, timeout_s=20.0) as router:
            supervisor.attach_router(router)
            assert router.analyze_clips(clips) == local_results
        assert supervisor.wait_for(
            lambda health: health["replicas"]["r0"]["restarts"] >= 1,
            timeout_s=60.0,
        ), supervisor.render_health()


@pytest.mark.network(timeout=180)
def test_injected_hang_converts_to_failover_via_deadline(
    artifact, tmp_path, clips, local_results
):
    """``hang=120:analyze_clips`` wedges r0's shard without killing it:
    ``request_deadline_s`` converts the hang into failover long before
    the socket timeout, and results stay bit-identical.  The deadline
    must leave room for a healthy replica's *legitimate* multi-clip
    shard — too tight and failover evicts the survivors too."""
    with make_supervisor(
        artifact, tmp_path, replicas=2, term_grace_s=1.0,
        fault_specs={"r0": "hang=120:analyze_clips"},
    ) as supervisor:
        assert supervisor.wait_until_healthy(timeout_s=60.0), (
            supervisor.render_health()
        )
        with RoutingClient(
            supervisor.addresses, timeout_s=60.0, request_deadline_s=10.0
        ) as router:
            started = time.monotonic()
            assert router.analyze_clips(clips) == local_results
            # far under the 120 s hang (and the 60 s socket timeout):
            # the per-request deadline did the failover
            assert time.monotonic() - started < 45.0


@pytest.mark.network(timeout=180)
def test_flapping_replica_exhausts_budget_fleet_degrades_but_serves(
    artifact, tmp_path, clips, local_results
):
    """An untyped ``crash@2`` kills r0 on every second probe, every
    incarnation: the restart budget runs out, r0 is marked ``failed``,
    the fleet reports ``degraded`` — and keeps serving on r1."""
    with make_supervisor(
        artifact, tmp_path, replicas=2, restart_budget=2,
        fault_specs={"r0": "crash@2"},
    ) as supervisor:
        assert supervisor.wait_for(
            lambda health: health["replicas"]["r0"]["state"] == "failed",
            timeout_s=120.0,
        ), supervisor.render_health()
        health = supervisor.health()
        assert health["status"] == "degraded"
        assert health["replicas"]["r0"]["budget_used"] == 2
        assert health["replicas"]["r0"]["last_error"] is not None
        assert supervisor.wait_for(
            lambda health: health["replicas"]["r1"]["state"] == "healthy",
            timeout_s=60.0,
        ), supervisor.render_health()
        with RoutingClient(supervisor.addresses, timeout_s=20.0) as router:
            supervisor.attach_router(router)
            assert router.analyze_clips(clips) == local_results


# ----------------------------------------------------------------------
# CLI integration: flags, signals, graceful drain
# ----------------------------------------------------------------------
def test_cli_supervised_flag_validation(artifact):
    with pytest.raises(ConfigurationError, match="--replicas requires"):
        main(["serve", "--model", str(artifact), "--replicas", "2"])
    with pytest.raises(ConfigurationError, match="--http-port"):
        main(["serve", "--model", str(artifact), "--replicas", "2",
              "--http-port", "0"])
    with pytest.raises(ConfigurationError, match="--restart-budget"):
        main(["serve", "--model", str(artifact), "--restart-budget", "3"])
    with pytest.raises(ConfigurationError, match="--fault-seed"):
        main(["serve", "--model", str(artifact), "--fault-seed", "1"])
    with pytest.raises(ConfigurationError, match="--fault-spec"):
        main(["serve", "--model", str(artifact), "--fault-spec", "crash@1"])
    with pytest.raises(ConfigurationError, match="--replica-id"):
        main(["serve", "--model", str(artifact), "--replicas", "1",
              "--port", "0", "--replica-id", "r0"])


def _spawn_serve(artifact, *extra):
    """Start a ``serve`` CLI subprocess with unbuffered, piped stdout."""
    src_root = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath(src_root) + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    env["PYTHONUNBUFFERED"] = "1"
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve",
         "--model", str(artifact), *extra],
        env=env,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )


def _await_line(process, needle):
    """Read stdout lines until one contains ``needle`` (returns it)."""
    for line in process.stdout:
        if needle in line:
            return line
    raise AssertionError(f"serve exited without printing {needle!r}")


@pytest.mark.network(timeout=120)
def test_cli_sigterm_runs_graceful_drain(artifact):
    """The satellite: SIGTERM on ``serve --port`` runs the same drain a
    protocol shutdown does — exit code 0 and the final stats report."""
    process = _spawn_serve(artifact, "--port", "0")
    try:
        line = _await_line(process, "serving")
        endpoint = line.split(" on ", 1)[1].split()[0]
        host, _, port = endpoint.rpartition(":")
        with JumpPoseClient(host, int(port), timeout_s=10.0) as client:
            assert client.ping()["type"] == "pong"
        process.send_signal(signal.SIGTERM)
        output, _ = process.communicate(timeout=30.0)
    finally:
        if process.poll() is None:
            process.kill()
            process.communicate()
    assert process.returncode == 0, output
    assert "clips" in output  # the post-drain stats render


@pytest.mark.network(timeout=180)
def test_cli_supervised_serves_and_drains_on_sigterm(artifact):
    """``serve --replicas`` end to end: replicas come up, answer
    pings with supervision detail, and SIGTERM drains the whole fleet
    (exit 0 plus the fleet-health report)."""
    process = _spawn_serve(
        artifact, "--replicas", "2", "--port", "0",
        "--restart-budget", "2",
    )
    try:
        line = _await_line(process, "supervising")
        endpoints = line.split("processes: ", 1)[1].split()[0]
        deadline = time.monotonic() + 90.0
        for endpoint in endpoints.split(","):
            host, _, port = endpoint.rpartition(":")
            while True:
                try:
                    with JumpPoseClient(
                        host, int(port), timeout_s=5.0, connect_retries=0
                    ) as client:
                        pong = client.ping()
                    break
                except Exception:
                    assert time.monotonic() < deadline, "replica never up"
                    time.sleep(0.2)
            assert pong["supervision"]["restarts"] == 0
        process.send_signal(signal.SIGTERM)
        output, _ = process.communicate(timeout=60.0)
    finally:
        if process.poll() is None:
            process.kill()
            process.communicate()
    assert process.returncode == 0, output
    assert "fleet status" in output
