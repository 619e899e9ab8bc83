"""Serving: model artifacts, streaming decoding, long-lived workers.

Three layers, bottom-up:

* :mod:`repro.serving.artifacts` — versioned save/load of a trained
  :class:`~repro.core.pipeline.JumpPoseAnalyzer` as one ``.npz`` file
  (bit-identical predictions after a round-trip);
* :mod:`repro.serving.streaming` — :class:`StreamingDecoder` /
  :class:`StreamingSession`, recursive forward filtering with optional
  fixed-lag smoothing, one frame at a time;
* :mod:`repro.serving.service` — :class:`JumpPoseService`, a pool of
  long-lived workers sharing one loaded artifact, with micro-batching
  and throughput/latency accounting (:func:`merge_service_stats` rolls
  per-replica accounting up into fleet totals);
* :mod:`repro.serving.protocol` — the versioned, length-prefixed
  JSON/binary wire format (frame codec, blob packing, result codec);
* :mod:`repro.serving.core` — :class:`~repro.serving.core.RequestCore`, the
  transport-agnostic request core both fronts own (operations, error
  taxonomy, request accounting, fault seam);
* :mod:`repro.serving.net` — :class:`JumpPoseServer`, a threaded TCP
  front over the request core with protocol-v2 request pipelining and
  per-frame streaming replies;
* :mod:`repro.serving.http` — :class:`JumpPoseHttpServer`, the
  HTTP/1.1 + JSON gateway for producers that speak HTTP rather than
  JPSE frames (browsers, load-balancers, ``curl``);
* :mod:`repro.serving.supervisor` — :class:`ReplicaSupervisor`, the
  fleet (``serve --replicas N``): replicas as real OS processes,
  crash-detected, restarted with backoff, health-probed back into
  rotation, with :func:`rollup_health` as the fleet-status vocabulary;
* :mod:`repro.serving.faults` — :class:`FaultInjector`, deterministic
  fault injection (crash/hang/slow/drop/corrupt) for supervision
  drills and tests;
* :mod:`repro.serving.client` — :class:`JumpPoseClient`,
  :class:`HttpJumpPoseClient`, and the scale-out
  :class:`RoutingClient` (client-side sharding + failover over many
  replicas), all with shared connect/retry/timeout semantics.

The architecture, wire protocol, scale-out design, and operational
semantics are documented under ``docs/`` (``architecture.md``,
``protocol.md``, ``scaling.md``, ``serving.md``).
"""

from repro.serving.artifacts import (
    ARTIFACT_SCHEMA,
    ARTIFACT_VERSION,
    load_analyzer,
    read_artifact_metadata,
    save_analyzer,
)
from repro.serving.client import (
    HttpJumpPoseClient,
    JumpPoseClient,
    RoutingClient,
)
from repro.serving.faults import FaultInjector, FaultRule, parse_fault_spec
from repro.serving.http import JumpPoseHttpServer
from repro.serving.net import JumpPoseServer
from repro.serving.protocol import (
    MAX_INFLIGHT_REQUESTS,
    PROTOCOL_MAGIC,
    PROTOCOL_VERSION,
    SUPPORTED_PROTOCOL_VERSIONS,
)
from repro.serving.service import (
    JumpPoseService,
    ServiceStats,
    merge_service_stats,
)
from repro.serving.streaming import StreamingDecoder, StreamingSession
from repro.serving.supervisor import ReplicaSupervisor, rollup_health

__all__ = [
    "ARTIFACT_SCHEMA",
    "ARTIFACT_VERSION",
    "MAX_INFLIGHT_REQUESTS",
    "PROTOCOL_MAGIC",
    "PROTOCOL_VERSION",
    "SUPPORTED_PROTOCOL_VERSIONS",
    "load_analyzer",
    "read_artifact_metadata",
    "save_analyzer",
    "FaultInjector",
    "FaultRule",
    "HttpJumpPoseClient",
    "JumpPoseClient",
    "JumpPoseHttpServer",
    "JumpPoseServer",
    "JumpPoseService",
    "ReplicaSupervisor",
    "RoutingClient",
    "ServiceStats",
    "StreamingDecoder",
    "StreamingSession",
    "merge_service_stats",
    "parse_fault_spec",
    "rollup_health",
]
