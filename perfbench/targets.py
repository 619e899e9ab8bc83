"""Systems under test: how each workload sets up, calls and stops the program.

Every target is built the same way (:func:`set_up`): train on the fixed
corpus, save the artifact, load it back, start whatever serves it until
healthy, and send one warm-up request.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.pipeline import JumpPoseAnalyzer
from repro.core.results import ClipResult, FrameResult
from repro.serving.client import HttpJumpPoseClient, JumpPoseClient, RoutingClient
from repro.serving.supervisor import ReplicaSupervisor

clock = time.monotonic

#: Bound on any one client call; far above the slowest request seen.
CLIENT_TIMEOUT_S = 60.0
#: Bound on a server or fleet becoming healthy.
READY_TIMEOUT_S = 60.0
SHUTDOWN_TOKEN = "perfbench"
FLEET_REPLICAS = 2
#: ``fleet-open`` sender threads, each with its own router: at most this
#: many requests are in flight.
FLEET_SENDERS = 2


@dataclass
class Outcome:
    """What one request returned, and when each frame's pose arrived."""

    results: "list[ClipResult]"
    arrivals: "list[float]"
    partials: "list[int]" = field(default_factory=list)


def _replied(results: "list[ClipResult]") -> Outcome:
    """A whole-clip reply: every frame's pose arrives now."""
    done = clock()
    return Outcome(results, [done] * sum(len(result.frames) for result in results))


@dataclass
class SetupTimes:
    train_s: float
    artifact_load_s: float
    server_ready_s: float
    total_s: float


class LocalTarget:
    """``batch-local``: the loaded analyzer, called in this process."""

    def __init__(self, analyzer: JumpPoseAnalyzer) -> None:
        self.analyzer = analyzer

    def request(self, clips) -> Outcome:
        return _replied(self.analyzer.analyze_clips(clips, jobs=1))

    def warm_up(self, clip) -> None:
        self.request([clip])

    def metrics_scrapes(self) -> "list[str]":
        return []

    def close(self) -> None:
        pass


class ServerTarget:
    """One ``serve`` process; subclasses pick the front and the call."""

    front_args: "tuple[str, ...]" = ()

    def __init__(self, model: Path, workdir: Path, env: "dict[str, str]") -> None:
        log_path = workdir / "server.log"
        with open(log_path, "wb") as log:
            self.process = subprocess.Popen(
                [sys.executable, "-u", "-m", "repro.cli", "serve",
                 "--model", str(model), *self.front_args],
                stdin=subprocess.DEVNULL, stdout=log, stderr=subprocess.STDOUT,
                env=env, cwd=workdir,
            )
        try:
            self.port = _wait_for_port(self.process, log_path)
            self.client = self.make_client()
            self.probe()
        except BaseException:
            _stop(self.process)
            raise

    def make_client(self):
        raise NotImplementedError

    def probe(self) -> None:
        raise NotImplementedError

    def warm_up(self, clip) -> None:
        self.request([clip])

    def metrics_scrapes(self) -> "list[str]":
        with self.make_client() as control:
            return [control.metrics()]

    def close(self) -> None:
        try:
            self.shutdown()
        except Exception:  # a server that will not answer is stopped below
            pass
        self.client.close()
        _stop(self.process)


class HttpTarget(ServerTarget):
    """``http-clip``: ``POST /v1/analyze`` to a ``serve --http-port`` process."""

    front_args = ("--http-port", "0", "--shutdown-token", SHUTDOWN_TOKEN)

    def make_client(self):
        return HttpJumpPoseClient("127.0.0.1", self.port, timeout_s=CLIENT_TIMEOUT_S)

    def probe(self) -> None:
        self.client.healthz()

    def request(self, clips) -> Outcome:
        return _replied(self.client.analyze_clips(clips))

    def shutdown(self) -> None:
        self.client.shutdown(SHUTDOWN_TOKEN)


class StreamTarget(ServerTarget):
    """``jpse-stream``: ``stream_analyze`` against a ``serve --port`` process."""

    front_args = ("--port", "0")

    def make_client(self):
        return JumpPoseClient("127.0.0.1", self.port, timeout_s=CLIENT_TIMEOUT_S)

    def probe(self) -> None:
        self.client.ping()

    def request(self, clips) -> Outcome:
        (clip,) = clips
        arrivals: "list[float]" = []
        partials: "list[int]" = []
        final = None
        for item in self.client.stream_analyze(clip):
            if isinstance(item, FrameResult):
                arrivals.append(clock())
                partials.append(item.index)
            else:
                final = item
        return Outcome([final], arrivals, partials)

    def shutdown(self) -> None:
        self.client.shutdown()


class FleetTarget:
    """``fleet-open``: ``RoutingClient`` round-robin over a supervised fleet.

    Each sender thread owns one router (a router's per-replica
    connections carry one request at a time); every router is attached
    to the supervisor, which evicts and re-admits replicas in it.
    """

    def __init__(self, model: Path, workdir: Path) -> None:
        self.supervisor = ReplicaSupervisor(
            model, replicas=FLEET_REPLICAS, workdir=workdir / "fleet"
        )
        self.supervisor.start()
        try:
            if not self.supervisor.wait_until_healthy(READY_TIMEOUT_S):
                raise RuntimeError(f"fleet not healthy: {self.supervisor.health()}")
            self.routers = [
                RoutingClient(self.supervisor.addresses, timeout_s=CLIENT_TIMEOUT_S)
                for _ in range(FLEET_SENDERS)
            ]
        except BaseException:
            self.supervisor.close()
            raise
        for router in self.routers:
            self.supervisor.attach_router(router)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._assigned = 0

    def _router(self) -> RoutingClient:
        router = getattr(self._local, "router", None)
        if router is None:
            with self._lock:
                router = self.routers[self._assigned % len(self.routers)]
                self._assigned += 1
            self._local.router = router
        return router

    def request(self, clips) -> Outcome:
        return _replied(self._router().analyze_clips(clips))

    def warm_up(self, clip) -> None:
        # One clip per replica through the first router, then one through
        # each further router so that router i starts its round-robin at
        # replica i: routers stepping in lockstep would send concurrent
        # requests to the same replica while the other idles.
        self.routers[0].analyze_clips([clip] * FLEET_REPLICAS)
        for index, router in enumerate(self.routers[1:], start=1):
            router.analyze_clips([clip] * index)

    def restarts(self) -> int:
        return sum(block["restarts"] for block in self.supervisor.health()["replicas"].values())

    def metrics_scrapes(self) -> "list[str]":
        scrapes = []
        for host, port in self.supervisor.addresses:
            with JumpPoseClient(host, port, timeout_s=CLIENT_TIMEOUT_S) as control:
                scrapes.append(control.metrics())
        return scrapes

    def close(self) -> None:
        for router in self.routers:
            router.close()
        self.supervisor.close()


def _wait_for_port(process: subprocess.Popen, log_path: Path) -> int:
    """The port a ``serve`` process printed on its first line."""
    deadline = clock() + READY_TIMEOUT_S
    while True:
        text = log_path.read_text(errors="replace")
        match = re.search(r" on (?:http://)?[\d.]+:(\d+)", text)
        if match:
            return int(match.group(1))
        if process.poll() is not None:
            raise RuntimeError(f"server exited before listening:\n{text}")
        if clock() > deadline:
            raise RuntimeError(f"server did not listen within {READY_TIMEOUT_S}s")
        time.sleep(0.005)


def _stop(process: subprocess.Popen, grace_s: float = 20.0) -> None:
    """Wait for a server asked to shut down; terminate, then kill, if it lingers."""
    for action in (None, process.terminate, process.kill):
        if action is not None:
            action()
        try:
            process.wait(timeout=grace_s)
            return
        except subprocess.TimeoutExpired:
            continue


def server_env(src: Path, hook: "Path | None", spans_dir: "Path | None") -> "dict[str, str]":
    """Environment for server processes: the tree's ``src``, optional span hook."""
    env = dict(os.environ)
    env.pop("PERFBENCH_SPANS_DIR", None)
    paths = [str(src)] + ([str(hook)] if hook is not None else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    if spans_dir is not None:
        env["PERFBENCH_SPANS_DIR"] = str(spans_dir)
    return env


def set_up(workload: str, training, warmup, workdir: Path, env):
    """Train, save, load, start, warm up; returns (target, artifact path, times)."""
    workdir.mkdir(parents=True, exist_ok=True)
    start = clock()
    analyzer = JumpPoseAnalyzer.train(training)
    trained = clock()
    model = analyzer.save(workdir / "model.npz")
    saved = clock()
    loaded_analyzer = JumpPoseAnalyzer.load(model)
    loaded = clock()
    if workload == "batch-local":
        target = LocalTarget(loaded_analyzer)
    elif workload == "http-clip":
        target = HttpTarget(model, workdir, env)
    elif workload == "jpse-stream":
        target = StreamTarget(model, workdir, env)
    else:
        # replicas inherit this process's environment
        os.environ.pop("PERFBENCH_SPANS_DIR", None)
        os.environ.update(env)
        target = FleetTarget(model, workdir)
    ready = clock()
    try:
        target.warm_up(warmup)
    except BaseException:
        target.close()
        raise
    done = clock()
    times = SetupTimes(
        train_s=trained - start,
        artifact_load_s=loaded - saved,
        server_ready_s=ready - loaded,
        total_s=done - start,
    )
    return target, model, times
