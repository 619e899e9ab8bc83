"""CLI: generate, train, analyze, evaluate, report, serve, stats.

The subcommands mirror how a PE department would actually use the
system::

    python -m repro.cli generate --out clips/ --clips 5 --seed 3
    python -m repro.cli train --save model.npz --seed 0
    python -m repro.cli analyze clips/clip-00.npz --model model.npz
    python -m repro.cli evaluate --seed 0 --decode smooth
    python -m repro.cli report clips/clip-00.npz --model model.npz
    python -m repro.cli serve --model model.npz --clips-dir clips/ --jobs 4

``generate`` writes synthetic studio clips; ``train`` fits the system once
and saves it as a versioned model artifact; ``analyze`` prints the decoded
pose timeline of one clip; ``evaluate`` runs the full paper protocol;
``report`` produces the coaching report of §1's tutor scenario; ``serve``
drives the long-lived :class:`~repro.serving.service.JumpPoseService`
over a directory (or a stdin stream) of clips with no retraining, or —
with ``--port`` — binds the TCP network front so remote producers can
stream clips in over :class:`~repro.serving.client.JumpPoseClient`, or —
with ``--http-port`` — the HTTP/JSON gateway for producers that speak
HTTP (see ``docs/protocol.md``)::

    python -m repro.cli serve --model model.npz --port 7345 --jobs 4
    python -m repro.cli analyze clips/clip-00.npz --connect 127.0.0.1:7345

    python -m repro.cli serve --model model.npz --http-port 8080
    python -m repro.cli analyze clips/clip-00.npz --connect-http 127.0.0.1:8080

``serve --replicas N --port BASE`` scales the JPSE front out to N
replica processes of the same artifact under
:class:`~repro.serving.supervisor.ReplicaSupervisor` — crashed or
unresponsive replicas are restarted with exponential backoff and
re-admitted after consecutive healthy probes, and ``--fault-spec`` arms
deterministic fault injection for drills (``docs/scaling.md``).  A
comma-separated ``--connect`` shards through
:class:`~repro.serving.client.RoutingClient`::

    python -m repro.cli serve --model model.npz --replicas 3 --port 7345
    python -m repro.cli analyze clips/clip-00.npz \
        --connect 127.0.0.1:7345,127.0.0.1:7346,127.0.0.1:7347

``serve`` installs SIGTERM/SIGINT handlers on every bound front, so
``kill`` (or ``docker stop``) triggers the same graceful drain a
protocol shutdown request does.

``stats --connect`` queries a live fleet and prints the merged stats,
health, and pose-quality roll-up (``--metrics`` appends each replica's
Prometheus scrape; ``--json`` emits one machine-readable document), and
``--log-json PATH`` on ``serve``/``analyze`` appends structured JSON
events — requests with trace ids and stage timings, restarts,
failovers, armed faults — to a file (``docs/observability.md``)::

    python -m repro.cli stats --connect 127.0.0.1:7345,127.0.0.1:7346

``analyze`` and ``report`` accept ``--model`` to reuse a saved artifact;
without it they fall back to training a small throwaway model.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

from repro.core.dbnclassifier import DECODE_MODES, ClassifierConfig
from repro.core.pipeline import AnalyzerSettings, JumpPoseAnalyzer
from repro.errors import ConfigurationError, TransportError
from repro.obs.events import configure_event_log, emit_event
from repro.perf.timing import ProfileReport, Timer
from repro.scoring.evaluator import JumpEvaluator
from repro.scoring.report import render_report
from repro.synth.dataset import make_clip, make_paper_protocol_dataset
from repro.synth.io import load_clip, save_clip
from repro.synth.variation import Fault


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Standing-long-jump pose estimation (Hsu et al., 2008)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser("generate", help="write synthetic clips")
    generate.add_argument("--out", type=Path, required=True)
    generate.add_argument("--clips", type=int, default=3)
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--frames", type=int, default=44)
    generate.add_argument(
        "--fault", action="append", default=[],
        choices=[fault.name for fault in Fault],
        help="inject a standard violation (repeatable)",
    )

    train = commands.add_parser(
        "train", help="train once and save a model artifact"
    )
    train.add_argument("--save", type=Path, required=True,
                       help="artifact path (.npz)")
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--clips", type=int, default=0,
                       help="training clips (0 = the paper's 12)")
    train.add_argument("--decode", choices=DECODE_MODES, default="smooth")

    analyze = commands.add_parser("analyze", help="decode one saved clip")
    analyze.add_argument("clip", type=Path)
    analyze.add_argument("--model", type=Path, default=None,
                         help="saved artifact (skips retraining)")
    analyze.add_argument("--connect", metavar="HOST:PORT[,HOST:PORT...]",
                         default=None,
                         help="send the clip to a running `serve --port` "
                              "server instead of decoding locally; several "
                              "comma-separated replica endpoints route "
                              "through RoutingClient")
    analyze.add_argument("--policy", choices=["round-robin", "clip-hash"],
                         default="round-robin",
                         help="replica-picking policy with a multi-endpoint "
                              "--connect")
    analyze.add_argument("--connect-http", metavar="HOST:PORT", default=None,
                         help="send the clip to a running `serve --http-port` "
                              "gateway instead of decoding locally")
    analyze.add_argument("--timeout", type=float, default=30.0,
                         help="socket timeout in seconds (with --connect "
                              "or --connect-http)")
    analyze.add_argument("--log-json", type=Path, default=None,
                         help="append structured JSON events (one per "
                              "routed request) to this file")
    analyze.add_argument("--train-seed", type=int, default=0)
    analyze.add_argument("--train-clips", type=int, default=4)
    analyze.add_argument("--decode", choices=DECODE_MODES, default=None)

    evaluate = commands.add_parser("evaluate", help="run the paper protocol")
    evaluate.add_argument("--seed", type=int, default=0)
    evaluate.add_argument("--decode", choices=DECODE_MODES, default="smooth")
    evaluate.add_argument("--pilot", action="store_true",
                          help="4 train / 2 test clips instead of 12 / 3")
    evaluate.add_argument("--jobs", type=int, default=1,
                          help="worker processes for batch clip analysis")
    evaluate.add_argument("--profile", action="store_true",
                          help="print a per-stage wall-clock table")

    report = commands.add_parser("report", help="coaching report for a clip")
    report.add_argument("clip", type=Path)
    report.add_argument("--model", type=Path, default=None,
                        help="saved artifact (skips retraining)")
    report.add_argument("--student", default="the jumper")
    report.add_argument("--train-seed", type=int, default=0)
    report.add_argument("--train-clips", type=int, default=4)

    serve = commands.add_parser(
        "serve", help="serve clips from one saved artifact, no retraining"
    )
    serve.add_argument("--model", type=Path, required=True)
    serve.add_argument("--clips-dir", type=Path, default=None,
                       help="directory of .npz clips (default: stdin paths)")
    serve.add_argument("--port", type=int, default=None,
                       help="listen on this TCP port instead of serving "
                            "local clips (0 picks an ephemeral port)")
    serve.add_argument("--replicas", type=int, default=None,
                       help="run this many replica processes of the "
                            "artifact under ReplicaSupervisor: crash "
                            "detection, backoff restarts, health-probe "
                            "re-admission (requires --port; replica i binds "
                            "port+i, or all-ephemeral with --port 0; see "
                            "docs/scaling.md)")
    serve.add_argument("--restart-budget", type=int, default=None,
                       help="with --replicas: restarts a replica may burn "
                            "before it is marked failed (default 5; the "
                            "budget refills after sustained health)")
    serve.add_argument("--replica-id", default=None,
                       help="name this server in stats/ping payloads (used "
                            "by the supervisor when spawning replicas; "
                            "single --port front only)")
    serve.add_argument("--fault-spec", default=None,
                       help="arm deterministic fault injection on the bound "
                            "front, e.g. 'crash@3' or 'slow=0.2~0.5:analyze' "
                            "(testing only; also read from $JPSE_FAULTS)")
    serve.add_argument("--fault-seed", type=int, default=None,
                       help="seed for probabilistic fault rules "
                            "(default 0; requires --fault-spec)")
    serve.add_argument("--http-port", type=int, default=None,
                       help="listen on this port with the HTTP/JSON gateway "
                            "instead of the JPSE socket front (0 picks an "
                            "ephemeral port)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address for --port/--http-port "
                            "(default loopback)")
    serve.add_argument("--shutdown-token", default=None,
                       help="enable POST /v1/shutdown on the HTTP gateway, "
                            "guarded by this token (default: disabled)")
    serve.add_argument("--jobs", type=int, default=1,
                       help="long-lived worker processes")
    serve.add_argument("--batch-size", type=int, default=4,
                       help="clips per worker task (micro-batching)")
    serve.add_argument("--decode", choices=DECODE_MODES, default=None,
                       help="override the artifact's decode mode")
    serve.add_argument("--log-json", type=Path, default=None,
                       help="append structured JSON events (requests, "
                            "restarts, failovers, armed faults) to this "
                            "file; with --replicas each replica logs to "
                            "a per-replica derivation (NAME.rI.jsonl)")

    stats = commands.add_parser(
        "stats", help="dump stats, health, and metrics from a live fleet"
    )
    stats.add_argument("--connect", metavar="HOST:PORT[,HOST:PORT...]",
                       required=True,
                       help="the JPSE endpoints of the replicas to query")
    stats.add_argument("--timeout", type=float, default=10.0,
                       help="socket timeout per replica in seconds")
    stats.add_argument("--metrics", action="store_true",
                       help="append each replica's Prometheus scrape text")
    stats.add_argument("--json", action="store_true",
                       help="emit one machine-readable JSON document "
                            "instead of the human-readable summary")
    return parser


def _train_small(seed: int, n_clips: int, decode: str) -> JumpPoseAnalyzer:
    lengths = tuple(44 if i % 2 == 0 else 43 for i in range(n_clips))
    dataset = make_paper_protocol_dataset(
        seed=seed, train_lengths=lengths, test_lengths=(45,)
    )
    settings = AnalyzerSettings(classifier=ClassifierConfig(decode=decode))
    return JumpPoseAnalyzer.train(dataset.train, settings)


def _analyzer_for(
    model: "Path | None",
    train_seed: int,
    train_clips: int,
    decode: "str | None",
) -> JumpPoseAnalyzer:
    """Load a saved artifact, or fall back to a small throwaway model."""
    if model is not None:
        from repro.serving.artifacts import load_analyzer

        return load_analyzer(model, decode=decode)
    print(f"no --model given; training on {train_clips} synthetic clips...")
    return _train_small(train_seed, train_clips, decode or "smooth")


def _command_generate(args: argparse.Namespace) -> int:
    args.out.mkdir(parents=True, exist_ok=True)
    faults = tuple(Fault[name] for name in args.fault)
    for index in range(args.clips):
        clip = make_clip(
            f"clip-{index:02d}",
            seed=args.seed + index,
            target_frames=args.frames,
            faults=faults,
        )
        path = save_clip(clip, args.out / f"clip-{index:02d}.npz")
        print(f"wrote {path} ({len(clip)} frames, faults={list(args.fault)})")
    return 0


def _command_train(args: argparse.Namespace) -> int:
    if args.clips:
        analyzer = _train_small(args.seed, args.clips, args.decode)
    else:
        dataset = make_paper_protocol_dataset(seed=args.seed)
        settings = AnalyzerSettings(
            classifier=ClassifierConfig(decode=args.decode)
        )
        analyzer = JumpPoseAnalyzer.train(dataset.train, settings)
    report = analyzer.models.report
    path = analyzer.save(args.save)
    print(
        f"trained on {report.used_frames}/{report.total_frames} usable frames; "
        f"saved artifact to {path}"
    )
    return 0


def _configure_event_log(args: argparse.Namespace) -> None:
    """Point the process-global JSON event log at ``--log-json``, if given."""
    log_json = getattr(args, "log_json", None)
    if log_json is not None:
        configure_event_log(log_json)


def _parse_endpoint(endpoint: str, flag: str = "--connect") -> "tuple[str, int]":
    """Split an ``analyze --connect[-http]`` HOST:PORT argument."""
    host, separator, port = endpoint.rpartition(":")
    if not separator or not host or not port.isdigit():
        raise ConfigurationError(
            f"{flag} expects HOST:PORT, got {endpoint!r}"
        )
    return host, int(port)


def _parse_endpoints(value: str, flag: str = "--connect") -> "list[tuple[str, int]]":
    """Split a comma-separated list of HOST:PORT replica endpoints."""
    endpoints = [entry.strip() for entry in value.split(",") if entry.strip()]
    if not endpoints:
        raise ConfigurationError(f"{flag} expects at least one HOST:PORT")
    return [_parse_endpoint(entry, flag) for entry in endpoints]


def _print_clip_result(result) -> None:
    for frame in result.frames:
        marker = " " if frame.is_correct else "*"
        decoded = (
            frame.predicted.label if frame.predicted is not None else "(unknown)"
        )
        print(f"{frame.index:4d}{marker} {decoded}")
    print(f"accuracy vs ground truth: {result.accuracy:.1%}")


def _command_analyze(args: argparse.Namespace) -> int:
    _configure_event_log(args)
    clip = load_clip(args.clip)
    if args.connect is not None and args.connect_http is not None:
        raise ConfigurationError(
            "--connect and --connect-http are mutually exclusive "
            "(pick one transport)"
        )
    if args.connect is not None or args.connect_http is not None:
        from repro.serving.client import (
            HttpJumpPoseClient,
            JumpPoseClient,
            RoutingClient,
        )

        flag = "--connect" if args.connect is not None else "--connect-http"
        # decoding happens server-side with the server's model: local
        # model/decode flags would be silently meaningless, so refuse them
        if args.model is not None or args.decode is not None:
            raise ConfigurationError(
                f"{flag} decodes on the server; --model/--decode do not "
                f"apply (configure them on the `serve` process instead)"
            )
        if args.connect is not None:
            endpoints = _parse_endpoints(args.connect)
            if len(endpoints) > 1:
                with RoutingClient(
                    endpoints, policy=args.policy, timeout_s=args.timeout
                ) as router:
                    result = router.analyze_clips([clip])[0]
                _print_clip_result(result)
                return 0
            host, port = endpoints[0]
            client_type = JumpPoseClient
        else:
            host, port = _parse_endpoint(args.connect_http, "--connect-http")
            client_type = HttpJumpPoseClient
        with client_type(host, port, timeout_s=args.timeout) as client:
            result = client.analyze_clips([clip])[0]
    else:
        analyzer = _analyzer_for(
            args.model, args.train_seed, args.train_clips, args.decode
        )
        result = analyzer.analyze_clip(clip)
    _print_clip_result(result)
    return 0


def _command_evaluate(args: argparse.Namespace) -> int:
    if args.jobs < 1:
        raise ConfigurationError(f"--jobs must be >= 1, got {args.jobs}")
    if args.pilot:
        dataset = make_paper_protocol_dataset(
            seed=args.seed, train_lengths=(44, 43, 44, 43), test_lengths=(45, 45)
        )
    else:
        dataset = make_paper_protocol_dataset(seed=args.seed)
    settings = AnalyzerSettings(classifier=ClassifierConfig(decode=args.decode))
    profile = ProfileReport() if args.profile else None
    with Timer() as train_timer:
        analyzer = JumpPoseAnalyzer.train(dataset.train, settings)
    result = analyzer.evaluate(dataset.test, jobs=args.jobs, profile=profile)
    print(result.summary())
    if profile is not None:
        profile.add("train", train_timer.elapsed)
        print()
        print(profile.render())
    return 0


def _command_report(args: argparse.Namespace) -> int:
    clip = load_clip(args.clip)
    analyzer = _analyzer_for(args.model, args.train_seed, args.train_clips, None)
    predictions = analyzer.predict_frames(clip.frames, clip.background)
    evaluation = JumpEvaluator().evaluate([p.pose for p in predictions])
    print(render_report(evaluation, args.student))
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    _configure_event_log(args)
    if args.port is not None and args.http_port is not None:
        raise ConfigurationError(
            "--port and --http-port are mutually exclusive (run two serve "
            "processes to offer both fronts)"
        )
    if args.shutdown_token is not None and args.http_port is None:
        # the JPSE front and local mode have no shutdown endpoint; a
        # silently ignored token would look armed without being so
        raise ConfigurationError(
            "--shutdown-token only applies to the HTTP gateway "
            "(add --http-port)"
        )
    if args.replicas is not None and args.replicas < 1:
        raise ConfigurationError(
            f"--replicas must be >= 1, got {args.replicas}"
        )
    if args.fault_seed is not None and args.fault_spec is None:
        raise ConfigurationError(
            "--fault-seed only applies with --fault-spec "
            "(nothing to seed otherwise)"
        )
    if args.fault_spec is not None and args.port is None \
            and args.http_port is None:
        # local serve has no request seam to inject into; a silently
        # ignored spec would look armed without being so
        raise ConfigurationError(
            "--fault-spec needs a bound front (add --port or --http-port)"
        )
    if args.replica_id is not None and (
        args.replicas is not None or args.port is None
    ):
        raise ConfigurationError(
            "--replica-id names a single --port server; replica fleets "
            "name their members r0..r{N-1} themselves"
        )
    if args.restart_budget is not None and args.replicas is None:
        raise ConfigurationError(
            "--restart-budget only applies with --replicas "
            "(nothing restarts otherwise)"
        )
    if args.replicas is not None:
        if args.http_port is not None:
            raise ConfigurationError(
                "--replicas runs JPSE replicas; it does not combine "
                "with --http-port"
            )
        if args.port is None:
            raise ConfigurationError(
                "--replicas requires --port (use --port 0 for "
                "all-ephemeral replica ports)"
            )
        return _serve_supervised(args)
    if args.http_port is not None:
        return _serve_http(args)
    if args.port is not None:
        return _serve_network(args)
    return _serve_local(args)


def _reject_clips_dir_for(flag: str, args: argparse.Namespace) -> None:
    """Clips come from the network with a bound front; a silently ignored
    directory would look like a hung serve run."""
    if args.clips_dir is not None:
        raise ConfigurationError(
            f"--clips-dir does not apply with {flag} (clients send clips "
            f"over the network; drop {flag} to serve a local directory)"
        )


def _install_drain_handlers(request_shutdown) -> None:
    """SIGTERM/SIGINT run the same graceful drain a shutdown request does.

    ``docker stop``, a supervisor's terminate, and Ctrl-C all deliver
    signals, not protocol requests; without handlers the process dies
    mid-reply.  The handler only sets a flag (``request_shutdown`` is
    signal-safe on every front), so ``serve_forever`` returns and the
    ``finally`` block drains in-flight work as usual.  Installing
    handlers is skipped off the main thread (tests drive ``main()``
    from worker threads, where CPython forbids ``signal.signal``).
    """
    def _handler(signum: int, frame: object) -> None:
        request_shutdown()

    try:
        signal.signal(signal.SIGTERM, _handler)
        signal.signal(signal.SIGINT, _handler)
    except ValueError:
        pass  # not the main thread; Ctrl-C still raises KeyboardInterrupt


def _fault_injector_for(args: argparse.Namespace):
    """Build the serve front's FaultInjector, or None when unarmed.

    ``--fault-spec`` wins; otherwise ``$JPSE_FAULTS`` is honoured (the
    supervisor arms per-replica faults through the environment).  Prints
    a loud notice when armed — an injector must never run silently.
    """
    from repro.serving.faults import FaultInjector

    if args.fault_spec is not None:
        injector = FaultInjector.from_spec(
            args.fault_spec, seed=args.fault_seed or 0
        )
    else:
        injector = FaultInjector.from_env()
    if injector is not None:
        spec = args.fault_spec or "$JPSE_FAULTS"
        print(f"FAULT INJECTION ARMED ({spec}) -- testing only")
        fields: "dict[str, object]" = {"spec": spec}
        if getattr(args, "replica_id", None) is not None:
            fields["replica_id"] = args.replica_id
        emit_event("fault_armed", **fields)
    return injector


def _serve_http(args: argparse.Namespace) -> int:
    """Bind the HTTP gateway; block until a shutdown request (or Ctrl-C)."""
    from repro.serving.http import JumpPoseHttpServer

    _reject_clips_dir_for("--http-port", args)
    gateway = JumpPoseHttpServer(
        args.model,
        host=args.host,
        port=args.http_port,
        jobs=args.jobs,
        batch_size=args.batch_size,
        decode=args.decode,
        shutdown_token=args.shutdown_token,
        fault_injector=_fault_injector_for(args),
    )
    _install_drain_handlers(gateway.request_shutdown)
    try:
        gateway.start()
        host, port = gateway.address
        print(f"serving {args.model} on http://{host}:{port}/v1 "
              f"(jobs={args.jobs}, batch-size={args.batch_size}, "
              f"shutdown={'enabled' if args.shutdown_token else 'disabled'})")
        gateway.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        gateway.close()
        print()
        print(gateway.service.stats.render())
    return 0


def _serve_supervised(args: argparse.Namespace) -> int:
    """Run N replicas as supervised OS processes; block until a signal.

    Each replica can crash alone and come back: the supervisor restarts
    dead or unresponsive replicas with backoff and re-admits them into
    rotation after consecutive healthy probes (see ``docs/scaling.md``).
    """
    from repro.serving.supervisor import ReplicaSupervisor

    _reject_clips_dir_for("--replicas", args)
    fault_specs = None
    if args.fault_spec is not None:
        # the demo shape: every replica armed the same way (tests wanting
        # per-replica specs construct ReplicaSupervisor directly)
        fault_specs = {
            f"r{index}": args.fault_spec for index in range(args.replicas)
        }
        print(f"FAULT INJECTION ARMED ({args.fault_spec}) -- testing only")
        emit_event(
            "fault_armed", spec=args.fault_spec, replicas=args.replicas
        )
    extra: "dict[str, object]" = {}
    if args.restart_budget is not None:
        extra["restart_budget"] = args.restart_budget
    supervisor = ReplicaSupervisor(
        args.model,
        replicas=args.replicas,
        host=args.host,
        base_port=args.port,
        jobs=args.jobs,
        batch_size=args.batch_size,
        decode=args.decode,
        fault_specs=fault_specs,
        fault_seed=args.fault_seed or 0,
        log_json=args.log_json,
        **extra,
    )
    _install_drain_handlers(supervisor.request_shutdown)
    try:
        supervisor.start()
        endpoints = ",".join(
            f"{host}:{port}" for host, port in supervisor.addresses
        )
        print(f"supervising {args.model} on {args.replicas} replica "
              f"processes: {endpoints} (jobs={args.jobs}, "
              f"batch-size={args.batch_size})")
        print(f"route clients with: analyze CLIP --connect {endpoints}")
        supervisor.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        supervisor.close()
        print()
        print(supervisor.render_health())
    return 0


def _command_stats(args: argparse.Namespace) -> int:
    """Query a live fleet's JPSE endpoints; print the merged view.

    One ``stats`` + (optionally) one ``metrics`` request per endpoint;
    unreachable replicas are reported as ``failed`` rather than aborting
    the dump — an operator asking "how is the fleet?" needs an answer
    precisely when part of it is down.
    """
    from repro.serving.client import JumpPoseClient
    from repro.serving.service import merge_service_stats
    from repro.serving.supervisor import rollup_health

    endpoints = _parse_endpoints(args.connect)
    replicas: "dict[str, dict[str, object]]" = {}
    scrapes: "dict[str, str]" = {}
    states: "list[str]" = []
    for host, port in endpoints:
        key = f"{host}:{port}"
        try:
            with JumpPoseClient(
                host, port, timeout_s=args.timeout, connect_retries=0
            ) as client:
                payload = client.stats()
                if args.metrics:
                    scrapes[key] = client.metrics()
        except TransportError as exc:
            states.append("failed")
            replicas[key] = {"error": str(exc)}
            continue
        states.append("healthy")
        replicas[key] = payload
    service_snapshots = {
        key: block["service"]
        for key, block in replicas.items()
        if isinstance(block.get("service"), dict)
    }
    merged = merge_service_stats(service_snapshots)
    rollup: "dict[str, object]" = {
        "status": rollup_health(states),
        "cluster": merged,
        "replicas": replicas,
    }
    if args.json:
        if scrapes:
            rollup["metrics"] = scrapes
        print(json.dumps(rollup, indent=2, sort_keys=True))
        return 0 if states.count("healthy") else 1
    quality = merged["quality"]
    print(
        f"fleet status: {rollup['status']} "
        f"({states.count('healthy')}/{len(endpoints)} replicas reachable)"
    )
    print(
        f"cluster: {merged['clips']} clips / {merged['frames']} frames "
        f"in {merged['wall_s']:.3f} busy-seconds"
    )
    print(
        f"quality: alert={quality['alert']} "
        f"flagged={quality['flagged_clips']}/{quality['clips']} clips, "
        f"{quality['pose_jumps']} pose jumps, "
        f"{quality['stage_violations']} stage violations, "
        f"{quality['low_likelihood_frames']} low-likelihood frames"
    )
    for key, block in replicas.items():
        if "error" in block:
            print(f"  {key}: UNREACHABLE ({block['error']})")
            continue
        service = block["service"]
        server = block["server"]
        rid = block.get("replica_id")
        name = f"{key} ({rid})" if rid else key
        print(
            f"  {name}: {service['clips']} clips, "
            f"{server['requests']} requests, {server['errors']} errors, "
            f"p95 latency {service['latency_p95_s']:.4f}s, "
            f"quality alert {service['quality']['alert']}"
        )
    for key, scrape in scrapes.items():
        print()
        print(f"# ---- metrics from {key} ----")
        print(scrape, end="")
    return 0 if states.count("healthy") else 1


def _serve_network(args: argparse.Namespace) -> int:
    """Bind a TCP front; block until a shutdown request (or Ctrl-C)."""
    from repro.serving.net import JumpPoseServer

    _reject_clips_dir_for("--port", args)

    server = JumpPoseServer(
        args.model,
        host=args.host,
        port=args.port,
        jobs=args.jobs,
        batch_size=args.batch_size,
        decode=args.decode,
        replica_id=args.replica_id,
        fault_injector=_fault_injector_for(args),
    )
    _install_drain_handlers(server.request_shutdown)
    try:
        server.start()
        host, port = server.address
        print(f"serving {args.model} on {host}:{port} "
              f"(jobs={args.jobs}, batch-size={args.batch_size})")
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
        print()
        print(server.service.stats.render())
    return 0


def _serve_local(args: argparse.Namespace) -> int:
    from repro.serving.service import JumpPoseService

    def emit(results) -> None:
        for result in results:
            print(
                f"{result.clip_id}: accuracy {result.accuracy:.1%} over "
                f"{len(result.frames)} frames "
                f"(unknown {result.unknown_rate:.1%})"
            )

    with JumpPoseService(
        args.model,
        jobs=args.jobs,
        batch_size=args.batch_size,
        decode=args.decode,
    ) as service:
        if args.clips_dir is not None:
            emit(service.analyze_directory(args.clips_dir))
        else:
            # stdin streams clip paths, one per line; dispatch once every
            # worker can get a full micro-batch, so output keeps up with
            # input without idling the pool.
            flush_at = args.batch_size * args.jobs
            pending: "list[str]" = []
            for line in sys.stdin:
                path = line.strip()
                if not path:
                    continue
                pending.append(path)
                if len(pending) >= flush_at:
                    emit(service.analyze_paths(pending))
                    pending.clear()
            if pending:
                emit(service.analyze_paths(pending))
        print()
        print(service.stats.render())
    return 0


_COMMANDS = {
    "generate": _command_generate,
    "train": _command_train,
    "analyze": _command_analyze,
    "evaluate": _command_evaluate,
    "report": _command_report,
    "serve": _command_serve,
    "stats": _command_stats,
}


def main(argv: "list[str] | None" = None) -> int:
    """Entry point (returns a process exit code)."""
    args = _build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
