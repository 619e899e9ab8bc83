"""Replica clusters: many :class:`JumpPoseServer`\\ s behind one handle.

The DBN decoder is per-clip, per-frame — jump analysis is embarrassingly
parallel across clips — so the scale-out unit is simply *more servers of
the same artifact*.  :class:`JumpPoseCluster` spawns N
:class:`~repro.serving.net.JumpPoseServer` replicas in one process (each
server already runs its accept loop and connection handlers on
background threads), all loading the same model artifact, named
``r0 ... r{N-1}``; clients shard across them with
:class:`~repro.serving.client.RoutingClient`.  Because every replica
serves the same artifact, sharded output merged in input order is
bit-identical to a single server's — the cluster changes throughput,
never results.

The cluster rolls per-replica accounting up into one stats payload
(:meth:`JumpPoseCluster.stats`): per-replica blocks keyed by replica id
plus cross-replica totals computed by :func:`merge_service_stats`.
Latency quantiles deliberately stay per-replica — quantiles do not
compose across windows, so the roll-up reports them where they were
measured (``docs/serving.md`` documents the aggregation rules).

Shutdown is graceful and cluster-wide: :meth:`JumpPoseCluster.close`
closes every replica, and each :meth:`JumpPoseServer.close` drains its
in-flight requests before dropping connections.  A ``shutdown`` request
received by *any* replica stops the whole cluster once
:meth:`serve_forever` notices (the CLI's ``serve --replicas N`` mode).

In-process replicas share the GIL and a fate: none can crash alone and
none can be restarted.  The production shape — replicas as real OS
processes, crash-detected, restarted with backoff, health-probed back
into rotation — lives in :mod:`repro.serving.supervisor` (the CLI's
``serve --supervised`` mode); :func:`rollup_health` defines the shared
fleet-health vocabulary both use.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path

from repro.errors import ConfigurationError
from repro.obs.quality import merge_quality
from repro.serving.net import JumpPoseServer


def rollup_health(states: "list[str]") -> str:
    """Fold per-replica states into one fleet status word.

    The vocabulary shared by :meth:`JumpPoseCluster.health` and
    :meth:`~repro.serving.supervisor.ReplicaSupervisor.health`:
    ``"ok"`` only when *every* replica is ``healthy``; ``"down"`` only
    when none is (an empty fleet included); ``"degraded"`` for anything
    in between — a partially-failed fleet keeps serving and says so,
    instead of dying or lying.

    Args:
        states: one state word per replica (``healthy`` counts as up;
            ``starting``/``degraded``/``restarting``/``failed`` do not).

    Returns:
        ``"ok"``, ``"degraded"``, or ``"down"``.
    """
    healthy = sum(1 for state in states if state == "healthy")
    if healthy == len(states) and states:
        return "ok"
    if healthy == 0:
        return "down"
    return "degraded"


def merge_service_stats(
    snapshots: "dict[str, dict[str, object]]",
) -> "dict[str, object]":
    """Cross-replica totals from per-replica ``ServiceStats`` payloads.

    Counters (``clips``, ``frames``) and wall-clock sum; throughput is
    recomputed from the summed counters over the summed wall — with
    replicas serving in parallel their walls overlap, so the summed
    wall is busy-seconds across replicas (it can exceed elapsed time)
    and the recomputed throughput is a *conservative* cluster rate.
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


class JumpPoseCluster:
    """Spawn and manage N server replicas of one model artifact.

    Args:
        artifact_path: the saved model every replica loads
            (schema-checked eagerly, once per replica).
        replicas: how many :class:`JumpPoseServer` instances to run.
        host: bind address shared by all replicas.
        base_port: 0 (the default) gives every replica its own ephemeral
            port; a positive value binds replica *i* to ``base_port + i``.
        jobs / batch_size / decode: forwarded to every replica's
            :class:`~repro.serving.service.JumpPoseService`.
        max_payload_bytes / idle_timeout_s / drain_timeout_s: forwarded
            to every replica's server.

    Replica ids are ``r0 ... r{N-1}``; read :attr:`addresses` after
    :meth:`start` and hand them to
    :class:`~repro.serving.client.RoutingClient`.  Use as a context
    manager, or :meth:`start` / :meth:`close`; :meth:`serve_forever`
    blocks until any replica is shut down remotely (then drains all).

    Raises:
        ConfigurationError: a non-positive replica count.
    """

    def __init__(
        self,
        artifact_path: "str | Path",
        replicas: int = 2,
        host: str = "127.0.0.1",
        base_port: int = 0,
        jobs: int = 1,
        batch_size: int = 4,
        decode: "str | None" = None,
        max_payload_bytes: "int | None" = None,
        idle_timeout_s: "float | None" = None,
        drain_timeout_s: float = 30.0,
    ) -> None:
        if replicas < 1:
            raise ConfigurationError(f"replicas must be >= 1, got {replicas}")
        self.artifact_path = Path(artifact_path)
        extra: "dict[str, object]" = {}
        if max_payload_bytes is not None:
            extra["max_payload_bytes"] = max_payload_bytes
        if idle_timeout_s is not None:
            extra["idle_timeout_s"] = idle_timeout_s
        self.servers = [
            JumpPoseServer(
                self.artifact_path,
                host=host,
                port=(base_port + index if base_port else 0),
                jobs=jobs,
                batch_size=batch_size,
                decode=decode,
                replica_id=f"r{index}",
                drain_timeout_s=drain_timeout_s,
                **extra,
            )
            for index in range(replicas)
        ]
        self._started = False
        self._stop_requested = threading.Event()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def replica_ids(self) -> "list[str]":
        """The replica names, in index order (``r0``, ``r1``, ...)."""
        return [server.replica_id for server in self.servers]

    @property
    def addresses(self) -> "list[tuple[str, int]]":
        """Every replica's bound ``(host, port)``; valid after start."""
        return [server.address for server in self.servers]

    @property
    def is_running(self) -> bool:
        """True while every replica's listener accepts connections."""
        return self._started and all(
            server.is_running for server in self.servers
        )

    def start(self) -> "JumpPoseCluster":
        """Start every replica; on any failure, stop the ones started.

        Idempotent; returns this cluster so construction chains.

        Raises:
            OSError: a replica's bind failed (port taken, bad host) —
                already-started replicas are closed again first.
        """
        if self._started:
            return self
        self._stop_requested.clear()
        started: "list[JumpPoseServer]" = []
        try:
            for server in self.servers:
                server.start()
                started.append(server)
        except BaseException:
            for server in started:
                server.close()
            raise
        self._started = True
        return self

    def serve_forever(self, poll_s: float = 0.1) -> None:
        """Block until any replica stops serving, then drain the rest.

        A remote ``shutdown`` request lands on one replica; this loop
        notices that replica going down and closes the whole cluster —
        one shutdown stops the fleet, each member draining gracefully.
        :meth:`request_shutdown` (the CLI's signal handlers) stops it
        the same way from this process.
        """
        self.start()
        try:
            while (
                not self._stop_requested.is_set()
                and all(server.is_running for server in self.servers)
            ):
                time.sleep(poll_s)
        finally:
            self.close()

    def request_shutdown(self) -> None:
        """Ask :meth:`serve_forever` to drain and return; signal-safe."""
        self._stop_requested.set()

    def close(self) -> None:
        """Gracefully stop every replica (drain, then drop); idempotent."""
        self._started = False
        for server in self.servers:
            server.close()

    def __enter__(self) -> "JumpPoseCluster":
        """Start on entry, so ``with JumpPoseCluster(...)`` serves."""
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        """Close on exit, even when the body raised."""
        self.close()

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def healthy(self) -> "dict[str, bool]":
        """Liveness by replica id (listener up and accepting)."""
        return {
            server.replica_id: server.is_running for server in self.servers
        }

    def health(self) -> "dict[str, object]":
        """The fleet-status roll-up in the shared supervision vocabulary.

        Returns:
            ``{"status": "ok"|"degraded"|"down", "replicas": {rid:
            "healthy"|"failed"}, "quality_alert": "ok"|"warn"|"alert"}``
            via :func:`rollup_health` — in-process replicas have no
            supervisor restarting them, so a down listener is simply
            ``failed``.  ``quality_alert`` is the fleet-merged
            pose-quality alert state (:func:`repro.obs.quality.merge_quality`),
            so liveness and decode quality are read in one probe.
        """
        states = {
            server.replica_id: ("healthy" if server.is_running else "failed")
            for server in self.servers
        }
        quality = merge_quality(
            server.service.stats_snapshot().get("quality")
            for server in self.servers
            if server.is_running
        )
        return {
            "status": rollup_health(list(states.values())),
            "replicas": states,
            "quality_alert": quality["alert"],
        }

    def stats(self) -> "dict[str, object]":
        """The cluster-wide stats roll-up, attributable per replica.

        Returns:
            ``{"replicas": {rid: {"service": ..., "server": ...}},
            "cluster": ...}`` — per-replica blocks carry full service +
            front accounting (latency quantiles included); the
            ``cluster`` block carries only the counters that compose
            across replicas (:func:`merge_service_stats` totals plus
            summed request/error counts from the fronts).
        """
        per_replica: "dict[str, dict[str, object]]" = {}
        service_snapshots: "dict[str, dict[str, object]]" = {}
        for server in self.servers:
            snapshot = server.service.stats_snapshot()
            service_snapshots[server.replica_id] = snapshot
            per_replica[server.replica_id] = {
                "service": snapshot,
                "server": server.server_stats_snapshot(),
            }
        totals = merge_service_stats(service_snapshots)
        totals["requests"] = sum(
            block["server"]["requests"] for block in per_replica.values()
        )
        totals["errors"] = sum(
            block["server"]["errors"] for block in per_replica.values()
        )
        return {
            "replicas": per_replica,
            "cluster": totals,
        }

    def render_stats(self) -> str:
        """Human-readable roll-up for the CLI's ``serve --replicas``."""
        rollup = self.stats()
        cluster = rollup["cluster"]
        lines = [
            f"cluster of {cluster['replicas']} replicas: "
            f"{cluster['clips']} clips / {cluster['frames']} frames "
            f"in {cluster['wall_s']:.3f} busy-seconds",
        ]
        for rid, block in rollup["replicas"].items():
            service = block["service"]
            server = block["server"]
            lines.append(
                f"  {rid}: {service['clips']} clips, "
                f"{server['requests']} requests, "
                f"{server['errors']} errors, "
                f"p95 latency {service['latency_p95_s']:.4f}s"
            )
        return "\n".join(lines)
