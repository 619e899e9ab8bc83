"""Run one workload: set up, measure a window, tear down, check, report.

``--trace 0`` sets the system up three times (``setup_s`` is their
median), measures one untraced window after the last set-up and reports
the end-to-end metrics.  ``--trace 1`` measures an untraced window and
then a traced one, each after one set-up, and reports the per-layer
metrics from the traced window's spans plus the tracing overhead on
every end-to-end metric.  Served results are compared bit for bit with the loaded
artifact's in-process result for the same clip, computed after the
window.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import re
import statistics
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

from perfbench import gen, procs
from perfbench.layers import install
from perfbench.spans import SpanRecorder, load_spans, self_times
from perfbench.stats import (
    arrival_times,
    frame_gaps,
    percentile,
    run_closed_loop,
    run_open_loop,
    tail,
)
from perfbench.targets import FLEET_SENDERS, FleetTarget, SetupTimes, server_env, set_up

clock = time.monotonic

#: workload -> clips per request
WORKLOADS = {"batch-local": 2, "http-clip": 1, "jpse-stream": 1, "fleet-open": 1}
#: The only open-loop workload; the others are closed loops with one caller.
OPEN_LOOP = "fleet-open"
SETUPS = 3
LIMIT_S = 6.0
FLEET_RATE = 0.3
#: The open loop's arrival schedule is drawn from this constant, not from
#: ``--seed``: with a handful of arrivals per window, whether two requests
#: overlap decides the latency, and a schedule that changed with the seed
#: would make seed-to-seed spread measure the schedule, not the program.
ARRIVAL_SEED = 2008
#: Request types whose server-side latency ``front.server_request_s`` reads.
ANALYZE_TYPES = ("analyze", "analyze_clips", "stream_analyze")


@dataclass
class Window:
    """The measured window of one phase and everything recorded around it."""

    records: list = field(default_factory=list)
    clip_indices: "list[list[int]]" = field(default_factory=list)
    start: float = 0.0
    end: float = 0.0
    setups: "list[SetupTimes]" = field(default_factory=list)
    client_cpu_s: float = 0.0
    server_cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    leaked: int = 0
    scrapes: "tuple[list[str], list[str]]" = ((), ())
    restarts: int = 0
    failovers: float = 0.0
    fleet_ready_s: float = 0.0
    ports: "list[int]" = field(default_factory=list)
    correct: "list[bool]" = field(default_factory=list)

    @property
    def elapsed(self) -> float:
        return self.end - self.start

    def covers(self, start: float, end: float) -> bool:
        return self.start <= start and end <= self.end


def _failover_count() -> float:
    from repro.obs.metrics import get_registry

    return get_registry().counter(
        "jpse_route_failovers_total", "Routed shards re-dispatched after a failure."
    ).value()


def measure(workload, inputs, run_dir: Path, seconds: float, setups: int, env,
            recorder: "SpanRecorder | None" = None) -> "tuple[Window, object]":
    """Set up ``setups`` times; measure one window of ``seconds`` after the last.

    The earlier set-ups are torn down unmeasured: they only add samples
    to ``setup_s``.  The whole window goes to one server (or fleet), so
    it sees several requests in steady state and, once the pool is used
    up, repeated clips, which are what a result or score cache acts on.
    """
    training, warmup, pool = inputs
    window = Window()
    model = None
    for attempt in range(setups):
        target, model, times = set_up(
            workload, training, warmup, run_dir / f"setup-{attempt}", env
        )
        window.setups.append(times)
        try:
            if attempt == setups - 1:
                _measure_window(window, workload, target, pool, seconds, recorder)
        finally:
            target.close()
        window.leaked += _reap_leftovers(run_dir)
    return window, model


def _measure_window(window: Window, workload, target, pool, seconds, recorder) -> None:
    """Run the window's requests and record them and their accounting in ``window``."""
    clips_per_request = WORKLOADS[workload]

    def clips_for(index: int) -> "list[int]":
        return [(index * clips_per_request + k) % len(pool) for k in range(clips_per_request)]

    def send(index: int):
        if recorder is not None:
            recorder.set_request(str(index))
        return target.request([pool[k] for k in clips_for(index)])

    traced = recorder is not None
    scrapes_before = target.metrics_scrapes() if traced else []
    failovers_before = _failover_count()
    servers_before = procs.cpu_snapshot(procs.descendants(os.getpid()))
    client_before = procs.cpu_seconds(os.getpid())
    start = clock()
    if workload == OPEN_LOOP:
        records = run_open_loop(
            arrival_times(ARRIVAL_SEED, FLEET_RATE, seconds), send, FLEET_SENDERS
        )
    else:
        records = run_closed_loop(send, seconds)
    if traced:
        recorder.set_request(None)
    window.start, window.end = start, max(record.done for record in records)
    window.client_cpu_s = procs.cpu_seconds(os.getpid()) - client_before
    servers = procs.descendants(os.getpid())
    window.server_cpu_s = procs.cpu_delta(servers_before, procs.cpu_snapshot(servers))
    window.peak_rss_mb = sum(procs.peak_rss_mb(pid) for pid in servers) if servers else (
        procs.peak_rss_mb(os.getpid())
    )
    window.failovers = _failover_count() - failovers_before
    window.records = records
    window.clip_indices = [clips_for(record.index) for record in records]
    if traced:
        window.scrapes = (scrapes_before, target.metrics_scrapes())
    if isinstance(target, FleetTarget):
        window.restarts = target.restarts()
        window.fleet_ready_s = window.setups[-1].server_ready_s
        window.ports = [port for _, port in target.supervisor.addresses]


def _reap_leftovers(run_dir: Path) -> int:
    """Kill and count processes that outlived their teardown."""
    leftovers = set(procs.descendants(os.getpid()))
    leftovers.update(procs.processes_mentioning(str(run_dir)))
    for pid in sorted(leftovers):
        print(f"outlived teardown: {procs.command_line(pid)}", file=sys.stderr)
    if leftovers:
        procs.kill_all(sorted(leftovers))
    return len(leftovers)


def reference_results(model: Path, pool) -> list:
    """Each pool clip analysed on its own by a fresh load of the artifact.

    Runs after the windows, in this process: a worker pool forked from a
    process that has run servers and router threads can inherit a held
    lock, and a spawned one leaves a helper process behind.
    """
    from repro.core.pipeline import JumpPoseAnalyzer

    analyzer = JumpPoseAnalyzer.load(model)
    return [analyzer.analyze_clip(clip) for clip in pool]


def check(window: Window, pool, references) -> None:
    """Mark each request correct when it matches the in-process reference."""
    window.correct = []
    for record, indices in zip(window.records, window.clip_indices):
        outcome = record.outcome
        ok = not record.error and outcome is not None
        if ok:
            ok = len(outcome.results) == len(indices) and all(
                result == references[k] for result, k in zip(outcome.results, indices)
            )
            frames = sum(len(pool[k]) for k in indices)
            ok = ok and len(outcome.arrivals) == frames
            if outcome.partials:
                ok = ok and outcome.partials == list(range(frames))
        window.correct.append(ok)


def end_to_end(window: Window, pool, references, setup_s: float) -> "dict[str, float]":
    good = [r for r, ok in zip(window.records, window.correct) if ok]
    frames = sum(
        len(pool[k])
        for indices, ok in zip(window.clip_indices, window.correct) if ok
        for k in indices
    )
    # with no correct request at all, charge the whole window
    latencies = [record.latency for record in good] or [window.elapsed]
    gaps = [
        gap for record in good for gap in frame_gaps(record.sent, record.outcome.arrivals)
    ] or [0.0]
    first = [min(record.outcome.arrivals) - record.due for record in good] or [0.0]
    total_frames = sum(len(r.frames) for r in references)
    correct_frames = sum(f.is_correct for r in references for f in r.frames)
    return {
        "setup_s": setup_s,
        "frames_per_s": frames / window.elapsed,
        "request_p50_s": statistics.median(latencies),
        "request_tail_s": tail(latencies).value,
        "cpu_s_per_frame": (window.client_cpu_s + window.server_cpu_s) / max(frames, 1),
        "frame_accuracy": correct_frames / total_frames,
        "peak_rss_mb": window.peak_rss_mb,
        "first_frame_p50_s": statistics.median(first),
        "frame_gap_p50_s": percentile(gaps, 50),
        "frame_gap_p90_s": percentile(gaps, 90),
        "within_limit_share": sum(
            ok and record.latency <= LIMIT_S
            for record, ok in zip(window.records, window.correct)
        ) / len(window.records),
    }


def attribute_requests(spans, records) -> None:
    """Give server-side spans the id of the client request they served.

    Server processes cannot see the benchmark's request ids, so a span
    without one takes the id of the only request in flight over its whole
    interval; when requests overlap (the fleet) it stays unattributed.
    """
    for span in spans:
        if span.request is None:
            owners = [
                record.index for record in records
                if record.sent <= span.start and span.end <= record.done
            ]
            if len(owners) == 1:
                span.request = str(owners[0])


def _scraped_requests(scrapes: "list[str]") -> "tuple[float, float]":
    """Summed (seconds, count) of analysis requests over Prometheus scrapes."""
    seconds = count = 0.0
    pattern = re.compile(
        r'^jpse_request_latency_seconds_(sum|count)\{type="([a-z_]+)"\} (\S+)$', re.M
    )
    for scrape in scrapes:
        for kind, request_type, value in pattern.findall(scrape):
            if request_type in ANALYZE_TYPES:
                if kind == "sum":
                    seconds += float(value)
                else:
                    count += float(value)
    return seconds, count


def per_layer(window: Window, spans, pool) -> "dict[str, float]":
    """Per-layer metrics from the spans that fall inside the window."""
    spans = [s for s in spans if window.covers(s.start, s.end)]
    by_name: "dict[str, list]" = {}
    for record in spans:
        by_name.setdefault(record.name, []).append(record)

    def total(name: str) -> float:
        return sum(record.duration for record in by_name.get(name, ()))

    def count(name: str) -> int:
        return len(by_name.get(name, ()))

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    frames = count("extract")
    decode_ids = {record.id for record in by_name.get("decode", ())}
    decodes = [r for r in by_name.get("decode", ()) if r.parent not in decode_ids]
    decoded_clips = sum(r.attrs.get("clips", 0) for r in decodes)
    hits = sum(r.attrs.get("hits", 0) for r in decodes)
    lookups = hits + sum(r.attrs.get("misses", 0) for r in decodes)
    service = by_name.get("service", ())
    service_clips = sum(r.attrs.get("clips", 0) for r in service)
    own = self_times(spans)
    candidates = [r.attrs.get("candidates", 0) for r in by_name.get("features", ())
                  if not r.attrs.get("error")]
    encodes = by_name.get("io.encode", ())
    sent_clips = sum(len(indices) for indices in window.clip_indices)
    requests = len(window.records)
    client_requests = by_name.get("client.request", ())
    served = [r.attrs["port"] for r in client_requests if "port" in r.attrs]
    per_port = [served.count(port) for port in window.ports]
    (sum_before, n_before), (sum_after, n_after) = map(_scraped_requests, window.scrapes)
    front_s = ratio(sum_after - sum_before, n_after - n_before)
    latency = statistics.mean(record.done - record.sent for record in window.records)
    encode_per_request = ratio(total("io.encode"), requests)
    frames_done = sum(len(pool[k]) for indices in window.clip_indices for k in indices)
    distinct_clips = len({k for indices in window.clip_indices for k in indices})
    setup = window.setups[-1]
    return {
        "extract.s_per_frame": ratio(total("extract"), frames),
        "extract.fit_background_s_per_clip": ratio(
            total("extract.fit_background"), count("extract.fit_background")),
        "extract.difference_s_per_frame": ratio(total("extract.difference"), frames),
        "extract.median_s_per_frame": ratio(total("extract.median"), frames),
        "extract.largest_component_s_per_frame": ratio(
            total("extract.largest_component"), frames),
        "skeleton.s_per_frame": ratio(total("skeleton"), frames),
        "skeleton.thin_s_per_frame": ratio(total("skeleton.thin"), frames),
        "skeleton.graph_s_per_frame": ratio(total("skeleton.graph"), frames),
        "skeleton.simplify_s_per_frame": ratio(total("skeleton.simplify"), frames),
        "skeleton.cut_loops_s_per_frame": ratio(total("skeleton.cut_loops"), frames),
        "skeleton.prune_s_per_frame": ratio(total("skeleton.prune"), frames),
        "features.s_per_frame": ratio(total("features"), frames),
        "features.candidates_per_frame": ratio(sum(candidates), frames),
        "features.empty_frame_share": ratio(
            frames - sum(1 for c in candidates if c > 0), frames),
        "io.encode_s_per_clip": ratio(total("io.encode"), len(encodes)),
        "io.archive_bytes_per_clip": ratio(
            sum(r.attrs.get("bytes", 0) for r in encodes), len(encodes)),
        "wire.request_bytes_per_clip": ratio(
            sum(r.attrs.get("bytes", 0) for r in by_name.get("wire.send", ())),
            sent_clips if encodes else 0),
        "io.decode_s_per_clip": ratio(total("io.decode"), count("io.decode")),
        "wire.transit_s_per_request": (
            max(latency - encode_per_request - front_s, 0.0) if encodes else 0.0),
        "front.server_request_s": front_s,
        "service.busy_s_per_clip": ratio(total("service.handle"), service_clips),
        "service.wait_s_per_clip": ratio(sum(own[r.id] for r in service), service_clips),
        "decode.s_per_clip": ratio(sum(r.duration for r in decodes), decoded_clips),
        "decode.observation_s_per_clip": ratio(total("decode.observation"), decoded_clips),
        "decode.clips_per_batch": ratio(decoded_clips, len(decodes)),
        "decode.score_cache_hit_ratio": ratio(hits, lookups),
        "stream.push_s_per_frame": ratio(total("stream.push"), count("stream.push")),
        "route.shard_skew": (
            ratio(max(per_port), statistics.mean(per_port)) - 1.0 if per_port else 0.0),
        "route.failovers": window.failovers,
        "supervisor.restarts": float(window.restarts),
        "supervisor.ready_s": window.fleet_ready_s,
        "client.cpu_s_per_frame": ratio(window.client_cpu_s, frames_done),
        "server.cpu_s_per_frame": ratio(window.server_cpu_s, frames_done),
        "setup.train_s": setup.train_s,
        "setup.artifact_load_s": setup.artifact_load_s,
        "setup.server_ready_s": setup.server_ready_s,
        "gen.send_late_p50_s": statistics.median(record.late for record in window.records),
        "gen.repeat_share": ratio(sent_clips - distinct_clips, sent_clips),
    }


def _cache_dir(root: Path) -> Path:
    """A cache directory private to this exact source tree and benchmark."""
    digest = hashlib.sha1()
    for path in sorted([*(root / "src").rglob("*.py"), *(root / "perfbench").rglob("*.py")]):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return root / ".perfbench_out" / "cache" / digest.hexdigest()[:16]


def _cached(path: Path, build):
    """``build()``, pickled to ``path`` on first use and read back after.

    Only this benchmark writes these files, so unpickling them is safe.
    """
    if path.exists():
        with open(path, "rb") as source:
            return pickle.load(source)
    value = build()
    path.parent.mkdir(parents=True, exist_ok=True)
    partial = path.with_name(f"{path.name}.{os.getpid()}")
    with open(partial, "wb") as sink:
        pickle.dump(value, sink)
    os.replace(partial, path)
    return value


def run(workload: str, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    """Run one workload; returns the result object printed as the last line."""
    out = root / ".perfbench_out" / f"{workload}-s{seed}-{os.getpid()}"
    out.mkdir(parents=True, exist_ok=True)
    src = root / "src"
    cache = _cache_dir(root)
    phases = [("start", clock())]
    training = _cached(cache / "training.pkl", gen.training_clips)
    pool = [gen.pool_clip(seed, slot) for slot in range(len(gen.POOL_SLOTS))]
    inputs = training, gen.warmup_clip(training), pool
    phases.append(("inputs", clock()))
    plain_env = server_env(src, None, None)
    window, model = measure(
        workload, inputs, out / "plain", seconds, 1 if trace else SETUPS, plain_env
    )
    windows = [window]
    if trace:
        spans_dir = out / "spans"
        spans_dir.mkdir()
        recorder = SpanRecorder()
        install(recorder)
        traced_window, _ = measure(
            workload, inputs, out / "traced", seconds, 1,
            server_env(src, root / "perfbench" / "hook", spans_dir), recorder,
        )
        recorder.dump(spans_dir / f"spans-{os.getpid()}.jsonl")
        windows.append(traced_window)
    phases.append(("set-ups and windows", clock()))
    # The reference depends only on this tree's code and the seed (training
    # is deterministic), so a seed's references are computed once per tree.
    references = _cached(
        cache / f"references-{seed}.pkl", lambda: reference_results(model, pool)
    )
    phases.append(("references", clock()))
    leaked = sum(w.leaked for w in windows) + _reap_leftovers(out)
    for w in windows:
        check(w, pool, references)
    attempted = sum(len(w.records) for w in windows)
    failed = sum(not ok for w in windows for ok in w.correct)
    e2e = [
        end_to_end(w, pool, references, statistics.median(s.total_s for s in w.setups))
        for w in windows
    ]
    declared = json.loads((root / "BENCHMARK.json").read_text())
    e2e_spec = {m["name"]: m for m in declared["end_to_end"]}
    if trace:
        metrics = _traced_metrics(out, windows, e2e, e2e_spec, pool)
        units = {m["name"]: m["unit"] for m in declared["per_layer"]}
    else:
        metrics = e2e[0]
        units = {name: m["unit"] for name, m in e2e_spec.items()}
    if set(metrics) != set(units):
        raise RuntimeError(
            f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}"
        )
    report = _report_lines(workload, windows, e2e, e2e_spec)
    report += [f"  {name:40s} {value:.6g} {units[name]}" for name, value in metrics.items()
               if trace]
    report.append("phases: " + ", ".join(
        f"{name} {end - begin:.1f}s" for (_, begin), (name, end) in zip(phases, phases[1:])
    ))
    for line in report:
        print(line)
    errors = sorted({r.error for w in windows for r in w.records if r.error})
    for error in errors:
        print(f"request error: {error}", file=sys.stderr)
    if leaked:
        print(f"{leaked} server process(es) outlived teardown", file=sys.stderr)
    result = {
        "correct": failed == 0 and leaked == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }
    (out / "result.json").write_text(json.dumps(result, indent=2))
    return result


def _traced_metrics(out: Path, windows, e2e, e2e_spec, pool) -> "dict[str, float]":
    """Per-layer metrics of the traced window, and tracing's overhead.

    Also writes every process's spans, attributed to requests, to
    ``waterfall.jsonl`` in start order.
    """
    spans = load_spans(sorted((out / "spans").glob("*.jsonl")))
    attribute_requests(spans, windows[1].records)
    with open(out / "waterfall.jsonl", "w", encoding="utf-8") as waterfall:
        for span in sorted(spans, key=lambda span: span.start):
            waterfall.write(json.dumps(asdict(span)) + "\n")
    metrics = per_layer(windows[1], spans, pool)
    for name, untraced in e2e[0].items():
        # the share by which tracing makes the metric worse
        worse = e2e[1][name] - untraced
        if e2e_spec[name]["better"] == "higher":
            worse = -worse
        metrics[f"overhead.{name}"] = worse / untraced if untraced else 0.0
    return metrics


def _report_lines(workload: str, windows, e2e, e2e_spec) -> "list[str]":
    lines = []
    for label, window, values in zip(("untraced", "traced"), windows, e2e):
        latencies = [r.latency for r, ok in zip(window.records, window.correct) if ok]
        lines.append(
            f"{workload} {label}: {len(window.records)} requests, "
            f"{sum(window.correct)} correct, measured {window.elapsed:.2f}s"
        )
        if latencies:
            t = tail(latencies)
            lines.append(
                f"  request_tail_s at p{t.pct:.1f} of {t.samples} samples"
                + ("" if t.resolved else " (too few samples for a tail: median)")
            )
        for name, value in values.items():
            lines.append(f"  {name:40s} {value:.6g} {e2e_spec[name]['unit']}")
    return lines
