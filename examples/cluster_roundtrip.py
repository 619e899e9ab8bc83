"""Fleet round-trip: train → save → 3 replica processes → route → kill one → verify.

The end-to-end scale-out path (``docs/scaling.md``):

1. train the system at small scale and save a versioned model artifact,
2. stand up a :class:`~repro.serving.supervisor.ReplicaSupervisor` fleet
   of three ``serve`` replica processes on ephemeral loopback ports,
3. shard a clip batch across them through
   :class:`~repro.serving.client.RoutingClient` (attached to the
   supervisor, so its rotation follows the fleet's health),
4. ``SIGKILL`` replica ``r0`` **mid-run** while a second batch is in
   flight, and
5. assert that both the clean and the failed-over outputs are
   **bit-identical** to a local ``JumpPoseAnalyzer.analyze_clips`` —
   the fleet changes throughput, never results — then wait for the
   supervisor to restart ``r0`` and print the fleet roll-up.

Usage::

    python examples/cluster_roundtrip.py
"""

import os
import signal
import tempfile
import threading
from pathlib import Path

from repro import JumpPoseAnalyzer, make_paper_protocol_dataset
from repro.serving import (
    ReplicaSupervisor,
    RoutingClient,
    merge_service_stats,
)

REPLICAS = 3


def main() -> int:
    """Run the round-trip; returns 0 on (asserted) success."""
    workdir = Path(tempfile.mkdtemp(prefix="repro-cluster-"))
    print("Training at small scale (2 train clips, 2 test clips)...")
    dataset = make_paper_protocol_dataset(
        seed=0, train_lengths=(44, 43), test_lengths=(45, 44)
    )
    analyzer = JumpPoseAnalyzer.train(dataset.train)
    artifact = analyzer.save(workdir / "model.npz")
    print(f"  artifact: {artifact} ({artifact.stat().st_size} bytes)")

    clips = list(dataset.test) * REPLICAS  # work for every replica
    local = analyzer.analyze_clips(clips)

    print(f"\nStarting {REPLICAS} replica processes on ephemeral ports...")
    with ReplicaSupervisor(artifact, replicas=REPLICAS,
                           workdir=workdir / "fleet") as fleet:
        assert fleet.wait_until_healthy(120.0), fleet.render_health()
        for rid, (host, port) in zip(fleet.replica_ids, fleet.addresses):
            print(f"  {rid}: {host}:{port} (pid {fleet.replica_pid(rid)})")
        with RoutingClient(fleet.addresses, policy="round-robin",
                           timeout_s=60.0, connect_retries=1,
                           retry_delay_s=0.05) as router:
            fleet.attach_router(router)
            routed = router.analyze_clips(clips)
            assert routed == local, "sharded results diverged from local"
            print(f"  sharded {len(clips)} clips over {REPLICAS} replicas: "
                  f"bit-identical to the local decode")

            print("\nKilling replica r0 (SIGKILL) mid-run...")
            victim = fleet.replica_pid("r0")
            killer = threading.Timer(
                0.3, os.kill, args=(victim, signal.SIGKILL)
            )
            killer.start()
            try:
                failed_over = router.analyze_clips(clips)
            finally:
                killer.join()
            assert failed_over == local, "failover results diverged"
            print("  r0's shard failed over: "
                  "still bit-identical to the local decode")

            assert fleet.wait_for(
                lambda health: health["status"] == "ok"
                and health["replicas"]["r0"]["restarts"] >= 1
                and len(router.alive_addresses) == REPLICAS,
                timeout_s=120.0,
            ), fleet.render_health()
            print(f"  r0 restarted and re-admitted "
                  f"(pid {victim} -> {fleet.replica_pid('r0')})")

            per_replica = router.stats()
        totals = merge_service_stats({
            payload.get("replica_id", key): payload["service"]
            for key, payload in per_replica.items()
        })
        print(f"\nFleet served {totals['clips']} clips / "
              f"{totals['frames']} frames across "
              f"{totals['replicas']} replicas (r0 counts since its restart):")
        for payload in per_replica.values():
            print(f"  {payload.get('replica_id')}: "
                  f"{payload['service']['clips']} clips, "
                  f"{payload['server']['requests']} requests")
    print("\nRound trip complete: cluster output == local output, to the bit.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
