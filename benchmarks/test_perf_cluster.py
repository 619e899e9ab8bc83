"""Fleet perf: replica throughput scaling + pipelining latency, in JSON.

The full-scale measurement (``--perf``) serves one fitted artifact from
supervised fleets (:class:`~repro.serving.supervisor.ReplicaSupervisor`,
one OS process per replica) of 1, 2, and 4 replicas, shards the same
clip batch through :class:`~repro.serving.client.RoutingClient` against
each once every replica is healthy, and records clips/second — the
process-level scaling curve.  On one connection to one in-process
:class:`~repro.serving.net.JumpPoseServer` it also times the same
request set issued serially vs pipelined (protocol-v2 request ids,
``analyze_clips_pipelined``): pipelining removes the per-request
round-trip wait, so the pipelined wall must not exceed the serial wall
by more than measurement noise.  Floors are asserted and
``BENCH_cluster.json`` is written at the repo root next to the other
artifacts.

Two deliberate choices (``docs/scaling.md#single-machine-limits``):
each replica decodes in its own process with ``jobs=1`` — replicas do
not share a GIL, so no per-replica worker pool is needed to scale;
and the replica-scaling floor is asserted only on machines with >= 4
cores, since on fewer cores no architecture can make 4 replicas outrun
1 (the curve is still recorded).

The model is fitted directly from synthetic feature vectors (the
``test_perf_decode`` trick) and the clips are small rendered studio
clips, so one run stays inside a coffee break.  A smoke variant runs in
tier-1 on a 1-replica fleet and a pair of requests: same measurement
and artifact code paths, no floors.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.perf import Timer, write_bench_json
from repro.serving.client import JumpPoseClient, RoutingClient
from repro.serving.net import JumpPoseServer
from repro.serving.supervisor import ReplicaSupervisor
from test_perf_decode import _bench_analyzer, _fitted_models

REPO_ROOT = Path(__file__).resolve().parents[1]
BENCH_PATH = REPO_ROOT / "BENCH_cluster.json"

#: Full-scale floors.  Scaling efficiency is deliberately loose — the
#: pilot clips are small, so dispatch overhead eats into ideal linear
#: scaling — but 4 replicas falling below 1.2x a single replica, or
#: pipelining losing to serial round-trips by >25%, is a real
#: regression.
MIN_SCALING_4_REPLICAS = 1.2
MAX_PIPELINE_VS_SERIAL = 1.25

#: Bound on a fleet's replica processes all turning healthy.
FLEET_READY_S = 120.0


def _bench_clips(n_clips: int):
    """Small rendered studio clips (distinct ids for clip-hash tests)."""
    from repro.synth.dataset import make_clip

    return [
        make_clip(f"cluster-bench-{index:02d}", seed=index, target_frames=36)
        for index in range(n_clips)
    ]


def _measure(
    replica_counts: "tuple[int, ...]",
    n_clips: int,
    pipeline_batches: int,
    tmp_path: Path,
) -> "dict[str, dict[str, float]]":
    """Time routed throughput per replica count + pipelined vs serial."""
    observation, transitions = _fitted_models()
    analyzer = _bench_analyzer(observation, transitions)
    artifact = analyzer.save(tmp_path / "bench-model.npz")
    clips = _bench_clips(n_clips)
    local = analyzer.analyze_clips(clips)

    results: "dict[str, dict[str, float]]" = {}
    for replicas in replica_counts:
        with ReplicaSupervisor(
            artifact, replicas=replicas, batch_size=1,
            workdir=tmp_path / f"fleet-{replicas}",
        ) as fleet:
            assert fleet.wait_until_healthy(FLEET_READY_S), (
                fleet.render_health()
            )
            with RoutingClient(fleet.addresses, timeout_s=60.0) as router:
                # one clip per replica: warm every connection and process
                router.analyze_clips(clips[:replicas])
                with Timer() as timer:
                    routed = router.analyze_clips(clips)
        assert routed == local  # scaling must not change results
        results[f"routed_{replicas}_replicas"] = {
            "seconds": timer.elapsed,
            "clips": float(n_clips),
            "clips_per_s": n_clips / timer.elapsed,
        }

    # pipelined vs serial on ONE connection to ONE server
    batches = [[clip] for clip in clips[:pipeline_batches]]
    with JumpPoseServer(artifact) as server:
        host, port = server.address
        with JumpPoseClient(host, port, timeout_s=60.0) as client:
            client.ping()  # connection established outside the timing
            with Timer() as serial_timer:
                serial = [client.analyze_clips(batch) for batch in batches]
            with Timer() as piped_timer:
                piped = client.analyze_clips_pipelined(
                    batches, max_inflight=len(batches)
                )
    assert piped == serial  # reordering must reconstruct batch order
    results["one_connection"] = {
        "requests": float(len(batches)),
        "serial_s": serial_timer.elapsed,
        "pipelined_s": piped_timer.elapsed,
        "pipelined_vs_serial": piped_timer.elapsed / serial_timer.elapsed,
    }
    return results


def test_cluster_bench_smoke(tmp_path):
    """Tier-1 variant: tiny sizes, same code paths, no floors."""
    results = _measure(
        replica_counts=(1,), n_clips=2, pipeline_batches=2, tmp_path=tmp_path
    )
    assert results["routed_1_replicas"]["clips_per_s"] > 0
    assert results["one_connection"]["pipelined_s"] > 0
    path = write_bench_json(
        tmp_path / "BENCH_cluster.json", results, context={"clips": 2}
    )
    payload = json.loads(path.read_text())
    assert payload["benchmarks"]["routed_1_replicas"]["seconds"] > 0


@pytest.mark.perf
def test_cluster_bench_full(tmp_path):
    """Full-scale run: floors asserted, BENCH_cluster.json written."""
    replica_counts, n_clips, pipeline_batches = (1, 2, 4), 16, 8
    cores = os.cpu_count() or 1
    results = _measure(
        replica_counts=replica_counts,
        n_clips=n_clips,
        pipeline_batches=pipeline_batches,
        tmp_path=tmp_path,
    )
    base = results["routed_1_replicas"]["clips_per_s"]
    results["scaling"] = {
        f"speedup_{replicas}_replicas": (
            results[f"routed_{replicas}_replicas"]["clips_per_s"] / base
        )
        for replicas in replica_counts
    }
    write_bench_json(
        BENCH_PATH,
        results,
        context={
            "clips": n_clips,
            "cores": cores,
            "jobs_per_replica": 1,
            "replicas": "ReplicaSupervisor OS processes",
            "pipeline_batches": pipeline_batches,
            "replica_counts": list(replica_counts),
            "transport": "JPSE v2, loopback",
            "min_scaling_4_replicas": MIN_SCALING_4_REPLICAS,
            "max_pipeline_vs_serial": MAX_PIPELINE_VS_SERIAL,
            "scaling_floor_asserted": cores >= 4,
        },
    )
    if cores >= 4:
        # on fewer cores no architecture makes 4 replicas outrun 1;
        # the curve is recorded above either way
        scaling4 = results["scaling"]["speedup_4_replicas"]
        assert scaling4 >= MIN_SCALING_4_REPLICAS, (
            f"4 replicas deliver only {scaling4:.2f}x one replica "
            f"(floor {MIN_SCALING_4_REPLICAS}x)"
        )
    ratio = results["one_connection"]["pipelined_vs_serial"]
    assert ratio <= MAX_PIPELINE_VS_SERIAL, (
        f"pipelined requests took {ratio:.2f}x the serial wall "
        f"(ceiling {MAX_PIPELINE_VS_SERIAL}x)"
    )
