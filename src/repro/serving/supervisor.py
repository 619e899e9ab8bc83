"""Process-level replica supervision: spawn, probe, restart, re-admit.

The scale-out unit is *more servers of the same artifact* — the DBN
decode is per clip, so sharded output merged in input order is
bit-identical to one server's.  :class:`ReplicaSupervisor` is the one
fleet manager (the CLI's ``serve --replicas N`` mode): each replica is
a real OS process running the ``serve`` CLI entrypoint, so replicas
crash alone, restart alone, and scale past the GIL.  A monitor thread
closes the failure loop —

1. **Detect.**  Process liveness (``Popen.poll``) catches crashes and
   kills; a periodic protocol ``ping`` with a hard deadline catches
   hangs and wedged event loops that a live PID hides.
2. **Restart.**  A dead or hung replica is killed (``SIGKILL`` — it
   already failed softer measures) and respawned on the *same* port
   after an exponential backoff with jitter, so a crash-looping replica
   cannot hot-loop the CPU and a fleet of restarts cannot synchronise.
3. **Give up, visibly.**  Restarts draw from a budget; when the budget
   is exhausted the replica is marked ``failed`` and left down — the
   fleet reports ``degraded`` (see :func:`rollup_health`) and keeps
   serving on the survivors instead of dying in a restart storm.  Sustained health
   refills the budget, so a flap long past is not held against a
   replica forever.
4. **Re-admit.**  A restarted replica rejoins routing only after K
   *consecutive* healthy probes (:attr:`probes_to_admit`) — one lucky
   ping after a crash proves nothing.  Attached
   :class:`~repro.serving.client.RoutingClient`\\ s are re-synced every
   tick: healthy replicas are re-admitted, everything else evicted.

Ports are reserved up front, so every replica's address is stable across
restarts — the routing ring never needs rebuilding, and clients hold the
same endpoint list for the lifetime of the fleet.

Replica processes learn their own supervision history through the
:data:`~repro.serving.service.SUPERVISION_RESTARTS_ENV` /
:data:`~repro.serving.service.SUPERVISION_LAST_ERROR_ENV` environment
(surfaced back through ``ping``/``healthz``), and fault injection
(:mod:`repro.serving.faults`) is armed per replica through
``JPSE_FAULTS`` — which is how every path above is exercised end to end
in ``tests/test_serving_supervisor.py``.
"""

from __future__ import annotations

import os
import socket
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from random import Random

from repro.errors import ConfigurationError, ReproError, TransportError
from repro.obs.events import emit_event
from repro.obs.metrics import get_registry
from repro.serving.client import JumpPoseClient
from repro.serving.faults import FAULT_SEED_ENV, FAULTS_ENV
from repro.serving.service import (
    SUPERVISION_LAST_ERROR_ENV,
    SUPERVISION_RESTARTS_ENV,
)

# Supervisor-side instruments.  Labelled by replica id — bounded by the
# fleet size, which the supervisor itself fixes at construction.
_METRICS = get_registry()
_RESTARTS_TOTAL = _METRICS.counter(
    "jpse_supervisor_restarts_total",
    "Replica restarts scheduled by the supervisor.",
    ("replica",),
)
_CONDEMNED_TOTAL = _METRICS.counter(
    "jpse_supervisor_condemned_total",
    "Replicas marked failed after exhausting their restart budget.",
    ("replica",),
)

#: The supervisor's replica state machine, in lifecycle order:
#: ``starting`` (spawned, not yet admitted) → ``healthy`` (admitted to
#: routing) → ``degraded`` (probes failing, evicted, not yet condemned)
#: → ``restarting`` (killed, waiting out the backoff) → back to
#: ``starting`` — or ``failed``, the terminal state, once the restart
#: budget is exhausted.
REPLICA_STATES = ("starting", "healthy", "degraded", "restarting", "failed")

#: Seconds a freshly spawned replica gets to come up before failed
#: probes start counting toward a restart (process *death* always
#: counts): a cold Python + artifact load must not look like a hang.
DEFAULT_START_GRACE_S = 30.0

#: Seconds a SIGTERM'd replica gets to drain before SIGKILL.
DEFAULT_TERM_GRACE_S = 10.0


def rollup_health(states: "list[str]") -> str:
    """Fold per-replica states into one fleet status word.

    The vocabulary of :meth:`ReplicaSupervisor.health` and the CLI's
    ``stats --connect``: ``"ok"`` only when *every* replica is
    ``healthy``; ``"down"`` only when none is (an empty fleet
    included); ``"degraded"`` for anything in between — a partially-failed fleet keeps serving and says so,
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


class _Replica:
    """Mutable supervision record for one replica process.

    Everything the monitor loop knows about one replica: its identity
    and reserved port, the live ``Popen`` handle, where it is in
    :data:`REPLICA_STATES`, probe streaks, restart accounting (both the
    all-time ``restarts`` counter surfaced to the replica and the
    resettable ``budget_used`` the circuit breaker charges against), and
    its log file.
    """

    def __init__(self, replica_id: str, port: int, fault_spec: "str | None") -> None:
        self.replica_id = replica_id
        self.port = port
        self.fault_spec = fault_spec
        self.process: "subprocess.Popen | None" = None
        self.state = "starting"
        self.restarts = 0          # all-time, surfaced via JPSE_RESTARTS
        self.budget_used = 0       # resettable, drives the circuit breaker
        self.consecutive_ok = 0
        self.consecutive_fail = 0
        self.last_error: "str | None" = None
        self.spawned_at = 0.0      # monotonic, set by each spawn
        self.healthy_since: "float | None" = None
        self.restart_at = 0.0      # monotonic, end of the current backoff
        self.log_path: "Path | None" = None


class ReplicaSupervisor:
    """Run N ``serve`` processes; keep them probed, restarted, routed.

    Args:
        artifact_path: the saved model artifact every replica serves.
        replicas: how many replica processes to run (ids ``r0..rN-1``).
        host: bind address shared by all replicas (loopback by default).
        base_port: 0 (the default) reserves an ephemeral port per
            replica up front; a positive value assigns replica *i* port
            ``base_port + i``.  Either way the assignment is fixed for
            the supervisor's lifetime — restarts rebind the same port.
        jobs / batch_size / decode: forwarded to each replica's
            ``serve`` invocation.
        probe_interval_s: monitor tick period (liveness + ping).
        probe_deadline_s: hard deadline on each health probe — a ping
            slower than this counts as a failure (hang detection).
        probes_to_admit: consecutive healthy probes required before a
            ``starting``/``degraded`` replica is (re-)admitted to
            routing.
        probe_failures_to_restart: consecutive failed probes on a *live*
            process before it is declared hung and killed.
        restart_budget: restarts the circuit breaker allows before the
            replica is marked ``failed`` for good.
        budget_reset_s: seconds of sustained health after which a
            replica's spent budget is forgiven.
        backoff_base_s / backoff_max_s / backoff_jitter_frac: restart
            *i* (1-based) waits ``min(base * 2**(i-1), max)`` seconds,
            stretched by up to ``jitter_frac`` of itself (seeded rng, so
            runs are reproducible).
        start_grace_s: see :data:`DEFAULT_START_GRACE_S`.
        term_grace_s: see :data:`DEFAULT_TERM_GRACE_S`.
        seed: seeds the backoff-jitter rng.
        fault_specs: optional ``{replica_id: fault spec}`` — each named
            replica's process is armed with that
            :mod:`repro.serving.faults` spec via ``JPSE_FAULTS``.
        fault_seed: forwarded to armed replicas via ``JPSE_FAULT_SEED``.
        workdir: directory for per-replica log files (default: a fresh
            temporary directory).
        log_json: optional structured-event-log path; each replica gets
            a per-replica derivation of it (``fleet.jsonl`` →
            ``fleet.r0.jsonl``) via ``--log-json``, so one supervised
            fleet yields one JSON event log per process — greppable by
            trace id across all of them (``docs/observability.md``).
            The supervisor's own events go to whatever event log *this*
            process configured (the CLI's ``--log-json``).
        python: interpreter for replica processes (default: this one).

    Use as a context manager, or :meth:`start` / :meth:`close`;
    :meth:`serve_forever` blocks until :meth:`request_shutdown`.

    Raises:
        ConfigurationError: non-positive ``replicas``, a fault spec
            naming an unknown replica id, or nonsensical probe/backoff
            parameters.
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
        probe_interval_s: float = 1.0,
        probe_deadline_s: float = 5.0,
        probes_to_admit: int = 2,
        probe_failures_to_restart: int = 3,
        restart_budget: int = 5,
        budget_reset_s: float = 60.0,
        backoff_base_s: float = 0.5,
        backoff_max_s: float = 30.0,
        backoff_jitter_frac: float = 0.25,
        start_grace_s: float = DEFAULT_START_GRACE_S,
        term_grace_s: float = DEFAULT_TERM_GRACE_S,
        seed: int = 0,
        fault_specs: "dict[str, str] | None" = None,
        fault_seed: int = 0,
        workdir: "str | Path | None" = None,
        log_json: "str | Path | None" = None,
        python: str = sys.executable,
    ) -> None:
        if replicas < 1:
            raise ConfigurationError(f"replicas must be >= 1, got {replicas}")
        if probes_to_admit < 1:
            raise ConfigurationError(
                f"probes_to_admit must be >= 1, got {probes_to_admit}"
            )
        if probe_failures_to_restart < 1:
            raise ConfigurationError(
                f"probe_failures_to_restart must be >= 1, "
                f"got {probe_failures_to_restart}"
            )
        if restart_budget < 1:
            raise ConfigurationError(
                f"restart_budget must be >= 1, got {restart_budget}"
            )
        if probe_interval_s <= 0 or probe_deadline_s <= 0:
            raise ConfigurationError(
                "probe_interval_s and probe_deadline_s must be > 0"
            )
        if backoff_base_s < 0 or backoff_max_s < backoff_base_s:
            raise ConfigurationError(
                "backoff must satisfy 0 <= backoff_base_s <= backoff_max_s"
            )
        replica_ids = [f"r{index}" for index in range(replicas)]
        fault_specs = dict(fault_specs or {})
        unknown = set(fault_specs) - set(replica_ids)
        if unknown:
            raise ConfigurationError(
                f"fault_specs name unknown replicas {sorted(unknown)} "
                f"(this fleet has {replica_ids})"
            )
        self.artifact_path = Path(artifact_path)
        self.host = host
        self.base_port = base_port
        self.jobs = jobs
        self.batch_size = batch_size
        self.decode = decode
        self.probe_interval_s = probe_interval_s
        self.probe_deadline_s = probe_deadline_s
        self.probes_to_admit = probes_to_admit
        self.probe_failures_to_restart = probe_failures_to_restart
        self.restart_budget = restart_budget
        self.budget_reset_s = budget_reset_s
        self.backoff_base_s = backoff_base_s
        self.backoff_max_s = backoff_max_s
        self.backoff_jitter_frac = backoff_jitter_frac
        self.start_grace_s = start_grace_s
        self.term_grace_s = term_grace_s
        self.fault_seed = fault_seed
        self.python = python
        self._rng = Random(seed)
        self._workdir = Path(workdir) if workdir is not None else None
        self.log_json = Path(log_json) if log_json is not None else None
        self._replicas = [
            _Replica(rid, 0, fault_specs.get(rid)) for rid in replica_ids
        ]
        self._routers: "list[object]" = []
        self._lock = threading.RLock()
        self._monitor: "threading.Thread | None" = None
        self._stop = threading.Event()
        self._started = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def replica_ids(self) -> "list[str]":
        """The replica names, in index order (``r0``, ``r1``, ...)."""
        return [replica.replica_id for replica in self._replicas]

    @property
    def addresses(self) -> "list[tuple[str, int]]":
        """Every replica's fixed ``(host, port)``; valid after start.

        Stable across restarts by construction (ports are reserved up
        front), so a :class:`~repro.serving.client.RoutingClient` built
        from this list stays valid for the fleet's whole life.
        """
        if not self._started:
            raise ConfigurationError("supervisor is not started")
        return [(self.host, replica.port) for replica in self._replicas]

    @property
    def is_running(self) -> bool:
        """True between :meth:`start` and :meth:`close`."""
        return self._started

    def _reserve_port(self) -> int:
        """Reserve one ephemeral port by binding and releasing it.

        The port is free the instant this returns — a race with other
        binders is theoretically possible but fine for loopback fleets;
        replicas bind with ``SO_REUSEADDR``, and a genuinely stolen port
        surfaces as a replica that never turns healthy.
        """
        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            probe.bind((self.host, 0))
            return probe.getsockname()[1]
        finally:
            probe.close()

    def start(self) -> "ReplicaSupervisor":
        """Reserve ports, spawn every replica, start the monitor thread.

        Idempotent; returns this supervisor so construction chains.
        Returns *before* the replicas are healthy — admission is the
        monitor's job; block on :meth:`wait_for` if you need it.
        """
        if self._started:
            return self
        if self._workdir is None:
            self._workdir = Path(tempfile.mkdtemp(prefix="jpse-supervisor-"))
        self._workdir.mkdir(parents=True, exist_ok=True)
        for index, replica in enumerate(self._replicas):
            replica.port = (
                self.base_port + index if self.base_port else self._reserve_port()
            )
            replica.log_path = self._workdir / f"{replica.replica_id}.log"
        self._stop.clear()
        self._started = True
        for replica in self._replicas:
            self._spawn(replica)
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="jumppose-supervisor", daemon=True
        )
        self._monitor.start()
        return self

    def serve_forever(self) -> None:
        """Block until :meth:`request_shutdown` (the CLI's foreground mode)."""
        self.start()
        self._stop.wait()
        self.close()

    def request_shutdown(self) -> None:
        """Wake :meth:`serve_forever`; safe from any thread or signal handler."""
        self._stop.set()

    def close(self) -> None:
        """Stop monitoring, then stop every replica: SIGTERM, grace, SIGKILL.

        SIGTERM first so replicas run their graceful drain (the ``serve``
        CLI installs handlers for exactly this); stragglers past
        ``term_grace_s`` are killed.  Idempotent.
        """
        self._stop.set()
        monitor, self._monitor = self._monitor, None
        if monitor is not None and monitor is not threading.current_thread():
            monitor.join(timeout=self.probe_interval_s * 4 + 5.0)
        if not self._started:
            return
        self._started = False
        with self._lock:
            processes = [
                replica.process
                for replica in self._replicas
                if replica.process is not None and replica.process.poll() is None
            ]
        for process in processes:
            try:
                process.terminate()
            except OSError:
                pass  # exited between poll and signal
        deadline = time.monotonic() + self.term_grace_s
        for process in processes:
            remaining = max(0.0, deadline - time.monotonic())
            try:
                process.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()

    def __enter__(self) -> "ReplicaSupervisor":
        """Start on entry, so ``with ReplicaSupervisor(...)`` supervises."""
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        """Close on exit, even when the body raised."""
        self.close()

    # ------------------------------------------------------------------
    # Spawning
    # ------------------------------------------------------------------
    def _replica_log_json(self, replica: _Replica) -> "Path | None":
        """The per-replica derivation of :attr:`log_json`.

        ``fleet.jsonl`` becomes ``fleet.r0.jsonl`` and so on — replicas
        are separate processes, so they must not share one append
        handle; per-replica files keep every line attributable and are
        still greppable as a set by trace id.
        """
        if self.log_json is None:
            return None
        return self.log_json.with_name(
            f"{self.log_json.stem}.{replica.replica_id}{self.log_json.suffix}"
        )

    def _spawn_command(self, replica: _Replica) -> "list[str]":
        """The ``serve`` invocation for one replica."""
        command = [
            self.python, "-m", "repro.cli", "serve",
            "--model", str(self.artifact_path),
            "--host", self.host,
            "--port", str(replica.port),
            "--replica-id", replica.replica_id,
            "--jobs", str(self.jobs),
            "--batch-size", str(self.batch_size),
        ]
        if self.decode is not None:
            command += ["--decode", self.decode]
        log_json = self._replica_log_json(replica)
        if log_json is not None:
            command += ["--log-json", str(log_json)]
        return command

    def _spawn_env(self, replica: _Replica) -> "dict[str, str]":
        """The replica's environment: import path, history, faults."""
        env = dict(os.environ)
        # the child must import the same repro this process runs
        src_root = str(Path(__file__).resolve().parents[2])
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            src_root if not existing
            else src_root + os.pathsep + existing
        )
        env[SUPERVISION_RESTARTS_ENV] = str(replica.restarts)
        if replica.last_error is not None:
            env[SUPERVISION_LAST_ERROR_ENV] = replica.last_error
        else:
            env.pop(SUPERVISION_LAST_ERROR_ENV, None)
        if replica.fault_spec is not None:
            env[FAULTS_ENV] = replica.fault_spec
            env[FAULT_SEED_ENV] = str(self.fault_seed)
        else:
            env.pop(FAULTS_ENV, None)
        return env

    def _spawn(self, replica: _Replica) -> None:
        """(Re)spawn one replica process into the ``starting`` state."""
        assert replica.log_path is not None
        with open(replica.log_path, "ab") as log:
            replica.process = subprocess.Popen(
                self._spawn_command(replica),
                env=self._spawn_env(replica),
                stdin=subprocess.DEVNULL,
                stdout=log,
                stderr=subprocess.STDOUT,
            )
        replica.state = "starting"
        replica.spawned_at = time.monotonic()
        replica.consecutive_ok = 0
        replica.consecutive_fail = 0
        replica.healthy_since = None
        emit_event(
            "replica_spawn",
            replica_id=replica.replica_id,
            address=f"{self.host}:{replica.port}",
            pid=replica.process.pid,
            restarts=replica.restarts,
        )

    # ------------------------------------------------------------------
    # Monitoring
    # ------------------------------------------------------------------
    def _probe(self, replica: _Replica) -> "str | None":
        """One health probe: fresh connection, hard deadline, one ping.

        Returns ``None`` on health, else a short failure description.  A
        fresh connection per probe is deliberate: a cached socket can
        stay warm while the listener behind it is wedged for new work.
        """
        try:
            with JumpPoseClient(
                self.host, replica.port,
                timeout_s=self.probe_deadline_s, connect_retries=0,
            ) as probe:
                probe.ping(deadline_s=self.probe_deadline_s)
            return None
        except (TransportError, ReproError) as exc:
            return f"{type(exc).__name__}: {exc}"

    def _backoff_s(self, replica: _Replica) -> float:
        """The jittered exponential delay before restart ``budget_used``."""
        exponent = max(0, replica.budget_used - 1)
        base = min(self.backoff_max_s, self.backoff_base_s * (2 ** exponent))
        return base * (1.0 + self.backoff_jitter_frac * self._rng.random())

    def _condemn(self, replica: _Replica, reason: str) -> None:
        """Kill (if needed) and schedule a restart — or fail for good."""
        process = replica.process
        if process is not None and process.poll() is None:
            try:
                process.kill()  # it already failed softer measures
            except OSError:
                pass
            process.wait()
        replica.last_error = reason
        replica.healthy_since = None
        replica.consecutive_ok = 0
        if replica.budget_used >= self.restart_budget:
            replica.state = "failed"
            _CONDEMNED_TOTAL.inc(replica=replica.replica_id)
            emit_event(
                "replica_condemned",
                replica_id=replica.replica_id,
                reason=reason,
                restarts=replica.restarts,
            )
            return
        replica.budget_used += 1
        replica.restarts += 1
        replica.state = "restarting"
        backoff_s = self._backoff_s(replica)
        replica.restart_at = time.monotonic() + backoff_s
        _RESTARTS_TOTAL.inc(replica=replica.replica_id)
        emit_event(
            "replica_restart",
            replica_id=replica.replica_id,
            reason=reason,
            restarts=replica.restarts,
            backoff_s=backoff_s,
        )

    def _tick_replica(self, replica: _Replica) -> None:
        """One monitor pass over one replica (runs under the lock)."""
        now = time.monotonic()
        if replica.state == "failed":
            return
        if replica.state == "restarting":
            if now >= replica.restart_at:
                self._spawn(replica)
            return
        process = replica.process
        if process is None or process.poll() is not None:
            code = process.returncode if process is not None else None
            self._condemn(replica, f"process exited with code {code}")
            return
        failure = self._probe(replica)
        if failure is None:
            replica.consecutive_fail = 0
            replica.consecutive_ok += 1
            if replica.state in ("starting", "degraded"):
                if replica.consecutive_ok >= self.probes_to_admit:
                    replica.state = "healthy"
                    replica.healthy_since = now
            elif replica.state == "healthy":
                if (
                    replica.budget_used
                    and replica.healthy_since is not None
                    and now - replica.healthy_since >= self.budget_reset_s
                ):
                    # sustained health forgives the spent budget: an old
                    # flap must not condemn the next unrelated crash
                    replica.budget_used = 0
            return
        replica.consecutive_ok = 0
        replica.consecutive_fail += 1
        replica.last_error = failure
        if replica.state == "healthy":
            replica.state = "degraded"
        in_start_grace = (
            replica.state == "starting"
            and now - replica.spawned_at < self.start_grace_s
        )
        if (
            not in_start_grace
            and replica.consecutive_fail >= self.probe_failures_to_restart
        ):
            self._condemn(replica, f"unresponsive: {failure}")

    def _sync_routers(self) -> None:
        """Re-sync attached routers to the current states (idempotent).

        Healthy replicas are re-admitted, everything else evicted — every
        tick, unconditionally, so a router that failed over on its own
        (or was attached late) converges to the supervisor's view.
        """
        with self._lock:
            routers = list(self._routers)
            placements = [
                ((self.host, replica.port), replica.state == "healthy")
                for replica in self._replicas
            ]
        for router in routers:
            for address, healthy in placements:
                if healthy:
                    router.readmit(address)
                else:
                    router.evict(address)

    def _monitor_loop(self) -> None:
        """The monitor thread body: tick every replica, sync routers."""
        while not self._stop.is_set():
            with self._lock:
                replicas = list(self._replicas)
            for replica in replicas:
                with self._lock:
                    self._tick_replica(replica)
            self._sync_routers()
            self._stop.wait(self.probe_interval_s)

    # ------------------------------------------------------------------
    # Routing integration and observability
    # ------------------------------------------------------------------
    def attach_router(self, router) -> None:
        """Keep a :class:`~repro.serving.client.RoutingClient` in sync.

        From the next monitor tick on, the router's alive set follows
        the supervisor's view: replicas are
        :meth:`~repro.serving.client.RoutingClient.readmit`-ed when they
        reach ``healthy`` and
        :meth:`~repro.serving.client.RoutingClient.evict`-ed otherwise.
        The router must have been built from :attr:`addresses`.
        """
        with self._lock:
            self._routers.append(router)
        self._sync_routers()

    def health(self) -> "dict[str, object]":
        """The fleet's supervision roll-up.

        Returns:
            ``{"status": "ok"|"degraded"|"down", "replicas": {rid:
            {"state", "address", "pid", "restarts", "budget_used",
            "last_error", "uptime_s"}}}`` — ``status`` via
            :func:`rollup_health` (``ok`` only
            when every replica is healthy, ``down`` only when none is).
        """
        now = time.monotonic()
        with self._lock:
            blocks: "dict[str, object]" = {}
            states: "list[str]" = []
            for replica in self._replicas:
                process = replica.process
                alive = process is not None and process.poll() is None
                states.append(replica.state)
                blocks[replica.replica_id] = {
                    "state": replica.state,
                    "address": f"{self.host}:{replica.port}",
                    "pid": process.pid if alive else None,
                    "restarts": replica.restarts,
                    "budget_used": replica.budget_used,
                    "last_error": replica.last_error,
                    "uptime_s": (
                        now - replica.spawned_at
                        if alive and replica.spawned_at
                        else 0.0
                    ),
                }
        return {"status": rollup_health(states), "replicas": blocks}

    def wait_for(self, predicate, timeout_s: float = 60.0,
                 poll_s: float = 0.05) -> bool:
        """Poll :meth:`health` until ``predicate(health)`` or timeout.

        Args:
            predicate: callable taking the :meth:`health` payload.
            timeout_s / poll_s: polling budget and period.

        Returns:
            True when the predicate held; False on timeout (never
            raises — callers assert with their own context).
        """
        deadline = time.monotonic() + timeout_s
        while True:
            if predicate(self.health()):
                return True
            if time.monotonic() >= deadline:
                return False
            time.sleep(poll_s)

    def wait_until_healthy(self, timeout_s: float = 60.0) -> bool:
        """Block until every replica is ``healthy`` (or timeout)."""
        return self.wait_for(
            lambda health: health["status"] == "ok", timeout_s=timeout_s
        )

    def replica_pid(self, replica_id: str) -> "int | None":
        """The live PID of one replica (``None`` while down).

        Raises:
            ConfigurationError: unknown ``replica_id``.
        """
        with self._lock:
            for replica in self._replicas:
                if replica.replica_id == replica_id:
                    process = replica.process
                    if process is not None and process.poll() is None:
                        return process.pid
                    return None
        raise ConfigurationError(f"unknown replica id {replica_id!r}")

    def render_health(self) -> str:
        """Human-readable fleet summary for the CLI's ``serve --replicas``."""
        health = self.health()
        lines = [f"fleet status: {health['status']}"]
        for rid, block in health["replicas"].items():
            error = f" ({block['last_error']})" if block["last_error"] else ""
            lines.append(
                f"  {rid} @ {block['address']}: {block['state']}, "
                f"restarts={block['restarts']}{error}"
            )
        return "\n".join(lines)
