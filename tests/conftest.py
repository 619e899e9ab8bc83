"""Shared fixtures: one pilot corpus and one trained system per session.

Training the full system is the expensive step (tens of seconds), so the
pilot protocol (4 train / 2 test clips) is trained once and shared by
every test that needs a working analyzer.  Tests that mutate nothing may
use these session fixtures freely.

Markers (registered in the repo-root ``conftest.py``; run with
``--strict-markers`` to catch typos):

``perf``
    Full-scale benchmark — skipped unless ``pytest --perf`` is given.
    The ``--perf`` runs assert speed floors and (re)write the
    ``BENCH_*.json`` artifacts at the repo root; the smoke variants of
    the same benchmarks always run in tier-1.  See
    ``docs/serving.md#perf-harness``.
``network``
    Talks to a real socket (JPSE or HTTP, always loopback + ephemeral
    ports).  Guarded by the per-test SIGALRM timeout below so a wedged
    read fails fast instead of hanging tier-1; override the budget with
    ``@pytest.mark.network(timeout=N)``.
``slow``
    Long-running (training-scale) test; no special gating, the marker
    exists so a quick iteration loop can ``-m "not slow"``.
``faultinject``
    Deliberately crashes, hangs, or corrupts parts of the serving stack
    (always scoped to the test's own processes); ``-m "not faultinject"``
    skips the drills.
"""

from __future__ import annotations

import contextlib
import signal

import numpy as np
import pytest

from repro.core.estimator import VisionFrontEnd
from repro.experiments.protocol import pilot_dataset, trained_pilot_analyzer
from repro.serving.net import JumpPoseServer
from repro.skeleton.pipeline import SkeletonExtractor
from repro.synth.dataset import make_clip


@pytest.fixture(scope="session")
def dataset():
    """The pilot corpus (4 train / 2 test clips)."""
    return pilot_dataset(0)


@pytest.fixture(scope="session")
def analyzer(dataset):
    """The full system trained on the pilot corpus."""
    return trained_pilot_analyzer(0)


@pytest.fixture(scope="session")
def sample_clip():
    """One standalone clip with ground truth."""
    return make_clip("fixture-clip", seed=11, variant=0, target_frames=40)


@pytest.fixture(scope="session")
def sample_silhouette(sample_clip):
    """A clean ground-truth silhouette mid-jump."""
    return sample_clip.silhouettes[12]


@pytest.fixture(scope="session")
def sample_skeleton(sample_silhouette):
    """The §3 skeleton of the sample silhouette."""
    return SkeletonExtractor().extract(sample_silhouette)


@pytest.fixture(scope="session")
def front_end():
    """A default vision front-end."""
    return VisionFrontEnd()


@pytest.fixture()
def rng():
    """A fresh deterministic generator per test."""
    return np.random.default_rng(1234)


@contextlib.contextmanager
def _replica_servers(artifact, replicas, **server_kwargs):
    with contextlib.ExitStack() as stack:
        yield [
            stack.enter_context(
                JumpPoseServer(artifact, replica_id=f"r{index}", **server_kwargs)
            )
            for index in range(replicas)
        ]


@pytest.fixture(scope="session")
def replica_servers():
    """Start N in-process :class:`JumpPoseServer` replicas of one artifact.

    ``with replica_servers(artifact, 3) as servers:`` serves ``r0..r2``
    on ephemeral loopback ports (extra keyword arguments go to every
    server) and closes them all on exit.  Routing tests "kill" a replica
    by closing its server.  This is a test fixture, not a fleet manager:
    the fleet is :class:`~repro.serving.supervisor.ReplicaSupervisor`.
    """
    return _replica_servers


#: Default wall-clock budget for a ``network``-marked test — generous,
#: because the guard exists to catch hung sockets, not slow machines.
NETWORK_TEST_TIMEOUT_S = 60


@pytest.fixture(autouse=True)
def _network_timeout_guard(request):
    """Hard per-test timeout for ``@pytest.mark.network`` tests.

    A wedged socket read would otherwise hang tier-1 forever; SIGALRM
    interrupts the main thread and fails the test instead.  Override the
    budget with ``@pytest.mark.network(timeout=N)``.  On platforms
    without SIGALRM the guard degrades to a no-op.
    """
    marker = request.node.get_closest_marker("network")
    if marker is None or not hasattr(signal, "SIGALRM"):
        yield
        return
    seconds = int(marker.kwargs.get("timeout", NETWORK_TEST_TIMEOUT_S))

    def _expired(signum, frame):
        pytest.fail(
            f"network test exceeded its {seconds}s timeout guard", pytrace=False
        )

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
