"""serve-small and serve-heavy: closed-loop load on a fresh daemon.

Two load threads, each with its own keep-alive ``ServeClient`` (so two
connections), send the next request only after the previous reply.
Every answer is kept and checked by :mod:`oracles` after the load.

A run boots BOOTS daemons in turn; each is timed to readiness (the
set-up time), warmed, then loaded for an equal share of the run.

Untraced runs give the end-to-end metrics.  A traced run alternates
untraced and traced boots of the same load (the difference is the
tracing overhead), records spans around the client's calls into the
wire layer, scrapes each daemon's ``/metrics`` before and after its
load, and then replays a sample of the run's request bodies, in this
process, through the public functions the daemon calls: ``wire.decode_terms``,
an inline codegen ``RewriteEngine``, a two-worker ``ShardPool``,
``wire.encode_outcomes`` and ``EquationalProver.prove``.
"""

from __future__ import annotations

import json
import math
import statistics
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import counters
import oracles
import procs
import workloads
from spans import Spans

LOAD_THREADS = 2
#: Each run boots BOOTS fresh daemons, one after another, and measures
#: an equal share of the run on each: placement and layout differ from
#: boot to boot, and pooling several boots keeps runs comparable.
BOOTS = 4
#: Extra boots that are only timed to readiness, so the set-up time is
#: a median of SETUP_ONLY_BOOTS + BOOTS samples.
SETUP_ONLY_BOOTS = 3
WARMUP_S = 0.5
#: Which of a traced run's four phases (boots here, quarters of the
#: run in process) record spans.
TRACED_PHASES = (False, True, False, True)
#: Every SAMPLE_EVERY-th request of a traced run is kept for replay.
SAMPLE_EVERY = {"serve-small": 8, "serve-heavy": 4}
REPLAY_MAX = {"normalize": 48, "prove": 16}
#: encode + round trip + decode against the traced requests' latency.
SUM_TOLERANCE = 0.05


@dataclass
class Done:
    rid: str
    request: workloads.Request
    reply: object
    error: Optional[str]
    latency: float
    boot: int
    measured: bool
    traced: bool


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in (0, 1]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def run(
    workload: str, seed: int, seconds: float, trace: bool, root: Path, out: Path
) -> dict:
    from repro.parallel import wire
    from repro.serve import ServeClient, ServeError

    problems: list[str] = []
    spans = Spans()
    samples: list[tuple] = []
    streams = [workloads.requests(workload, seed, t) for t in range(LOAD_THREADS)]
    done: list[Done] = []
    counts = [0] * LOAD_THREADS
    encode_terms, decode_outcomes = wire.encode_terms, wire.decode_outcomes

    def drive(client, t: int, deadline: float, boot: int, measured: bool) -> None:
        stream = streams[t]
        while time.perf_counter() < deadline:
            request = next(stream)
            n, counts[t] = counts[t], counts[t] + 1
            rid = f"t{t}r{n}"
            traced = spans.recording
            start = time.perf_counter()
            try:
                with spans.span("client.request", request=rid):
                    if request.kind == "normalize":
                        reply = client.normalize(request.subjects, spec="Queue")
                    else:
                        reply = client.prove(request.subjects, spec="Queue")
                error = None
            except ServeError as exc:
                reply, error = None, f"{exc.status} {exc.reason}"
            end = time.perf_counter()
            if trace and measured and (
                request.kind == "prove" or n % SAMPLE_EVERY[workload] == 0
            ):
                samples.append((request, encode_terms(_flat(request))))
            request.subjects = None  # the oracle needs only the plain data
            done.append(
                Done(rid, request, reply, error, end - start, boot, measured, traced)
            )

    def load(clients, duration: float, boot: int, measured: bool) -> float:
        started = time.perf_counter()
        threads = [
            threading.Thread(
                target=drive,
                args=(clients[t], t, started + duration, boot, measured),
            )
            for t in range(LOAD_THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return time.perf_counter() - started

    setups, rss, walls = [], [], []
    scraped: dict[str, float] = {}  # /metrics deltas over the traced boots
    peak_intern = 0.0
    for _ in range(SETUP_ONLY_BOOTS):
        daemon = procs.Daemon(root).start()
        setups.append(daemon.setup_s)
        leaked = daemon.stop()
        if leaked:
            problems.append(f"set-up boot: clean shutdown left {leaked}")
    if trace:
        wire.encode_terms = _spanned(spans, "client.encode", encode_terms)
        wire.decode_outcomes = _spanned(spans, "client.decode", decode_outcomes)
    try:
        phases = TRACED_PHASES if trace else (False,) * BOOTS
        for boot, recording in enumerate(phases):
            daemon = procs.Daemon(root).start()
            setups.append(daemon.setup_s)
            clients = [
                ServeClient(
                    daemon.host, daemon.port, timeout=30.0, retries=0, seed=seed + t
                )
                for t in range(LOAD_THREADS)
            ]
            try:
                load(clients, WARMUP_S, boot, measured=False)
                before = counters.parse(daemon.get("/metrics")[1])
                spans.recording = recording
                walls.append(load(clients, seconds / BOOTS, boot, measured=True))
                spans.recording = False
                after = counters.parse(daemon.get("/metrics")[1])
                rss.append(daemon.peak_rss_mb())
            finally:
                for client in clients:
                    client.close()
                leaked = daemon.stop()
            if leaked:
                problems.append(f"boot {boot}: clean shutdown left {leaked}")
            if recording:
                # Per-layer counters describe the traced boots, the
                # same requests the client spans cover.
                for key, value in counters.delta(before, after).items():
                    scraped[key] = scraped.get(key, 0.0) + value
            peak_intern = max(peak_intern, after.get("repro_intern_table_size", 0.0))
    finally:
        spans.recording = False
        wire.encode_terms, wire.decode_outcomes = encode_terms, decode_outcomes

    wrong = set()
    for item in done:
        found = _check(item.request, item.reply) if item.error is None else []
        if found:
            wrong.add(item.rid)
            problems.extend(f"{item.rid}: {p}" for p in found[:2])
    measured = [x for x in done if x.measured]
    good = [x for x in measured if x.error is None and x.rid not in wrong]
    wall = sum(walls)
    latencies = [x.latency * 1000.0 for x in good]
    metrics = {
        "setup_s": statistics.median(setups),
        "req_per_s": len(good) / wall,
        "ops_per_s": sum(len(x.reply) for x in good) / wall,
        "latency_p50_ms": percentile(latencies, 0.50),
        "latency_p95_ms": percentile(latencies, 0.95),
        "success_ratio": len(good) / len(measured),
        "peak_rss_mb": statistics.median(rss),
    }
    if trace:
        metrics.update(_traced_layers(spans, measured, scraped, problems))
        metrics.update(_replay(spans, samples, root, problems))
        metrics["algebra.intern_table_peak"] = peak_intern
        spans.write(out / f"spans-{workload}-seed{seed}.jsonl")
    return {
        "correct": not problems,
        "attempted": len(measured),
        "failed": len(measured) - len(good),
        "metrics": metrics,
        "problems": problems,
        "self_times": spans.summary(),
        "config": {
            "load_threads": LOAD_THREADS,
            "connections": LOAD_THREADS,
            "loop": "closed",
            "daemon_argv": ["python", "-m", "repro", *procs.DAEMON_ARGS],
            "boots": BOOTS,
            "setup_s_samples": setups,
            "boot_walls_s": walls,
            "boot_req_per_s": [
                sum(1 for x in good if x.boot == b) / w for b, w in enumerate(walls)
            ],
            "latency_samples": len(latencies),
            "shape": _shape(workload),
        },
    }


def _shape(workload: str) -> dict:
    if workload == "serve-small":
        return {
            "items": workloads.SMALL_ITEMS,
            "queue": workloads.SMALL_QUEUE,
            "prove_every": workloads.PROVE_EVERY,
            "goals": len(workloads.PROVE_EXPECTED),
        }
    return {
        "items": workloads.HEAVY_ITEMS,
        "queue": workloads.HEAVY_QUEUE,
        "shared_prefix": workloads.HEAVY_SHARED,
        "k_stride": workloads.HEAVY_STRIDE,
    }


def _check(request: workloads.Request, reply) -> list[str]:
    if request.kind == "prove":
        return oracles.check_proofs(reply, request.expected)
    if request.ks:
        return oracles.check_removes(reply, request.queues, request.ks)
    return oracles.check_fronts(reply, request.queues)


def _flat(request: workloads.Request) -> list:
    """The terms a request sends: its subjects, or its goals' sides."""
    if request.kind == "prove":
        return [side for goal in request.subjects for side in goal]
    return request.subjects


def _spanned(spans: Spans, name: str, fn):
    def wrapper(*args, **kwargs):
        with spans.span(name):
            return fn(*args, **kwargs)

    return wrapper


def _kb(body: dict) -> float:
    return len(json.dumps(body)) / 1024.0


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def _per_request(scraped: dict, name: str) -> float:
    """Mean ms of a daemon histogram over the scraped window."""
    count = scraped.get(f"repro_{name}_count", 0.0)
    return 1000.0 * scraped.get(f"repro_{name}_sum", 0.0) / count if count else 0.0


def _traced_layers(spans, measured, scraped, problems) -> dict:
    """The client split from spans, and the daemon's layers from its
    ``/metrics`` counters."""
    per_request: dict[str, dict[str, float]] = {}
    for _, name, start, end, _, request in spans.events:
        own = per_request.setdefault(request, {})
        own[name] = own.get(name, 0.0) + (end - start) * 1000.0
    traced = [x for x in measured if x.traced]
    if any(x.rid not in per_request for x in traced):
        problems.append("a traced request recorded no spans")
    parts = [per_request.get(x.rid, {}) for x in traced]
    encode = _mean(p.get("client.encode", 0.0) for p in parts)
    decode = _mean(p.get("client.decode", 0.0) for p in parts)
    request = _mean(p.get("client.request", 0.0) for p in parts)
    round_trip = request - encode - decode
    latency = _mean(x.latency * 1000.0 for x in traced)
    untraced = _mean(x.latency * 1000.0 for x in measured if not x.traced)
    server = _per_request(scraped, "serve_request_seconds")
    if abs((encode + round_trip + decode) / latency - 1.0) > SUM_TOLERANCE:
        problems.append(
            f"encode {encode:.3f} + round trip {round_trip:.3f} + decode "
            f"{decode:.3f} ms is not within {SUM_TOLERANCE:.0%} of the traced "
            f"latency {latency:.3f} ms"
        )
    if server > round_trip:
        problems.append(
            f"server time {server:.3f} ms exceeds round trip {round_trip:.3f} ms"
        )
    chunks = scraped.get("repro_parallel_chunks_total", 0.0)
    metrics = {
        "serve.client_encode_ms": encode,
        "serve.client_decode_ms": decode,
        "serve.round_trip_ms": round_trip,
        "serve.server_ms": server,
        "serve.transport_ms": round_trip - server,
        "serve.queue_wait_ms": _per_request(scraped, "serve_queue_wait_seconds"),
        "serve.shed": scraped.get("repro_serve_shed_total", 0.0),
        "serve.worker_crashes": scraped.get("repro_serve_worker_crashes_total", 0.0),
        "pool.items_per_chunk": (
            scraped.get("repro_parallel_items_total", 0.0) / chunks if chunks else 0.0
        ),
        "pool.serial_items": scraped.get("repro_parallel_serial_items_total", 0.0),
        "trace.overhead_pct": 100.0 * (latency / untraced - 1.0),
    }
    items = scraped.get("repro_serve_items_total", 0.0)
    metrics.update(counters.rewrite_layers(scraped, items))
    return metrics


def _replay(spans: Spans, samples: list, root: Path, problems: list) -> dict:
    """Time the daemon's layers on a sample of this run's bodies."""
    from repro.analysis.classify import classify
    from repro.parallel import wire
    from repro.parallel.pool import ShardPool
    from repro.rewriting import RewriteEngine
    from repro.serve import ServeLimits
    from repro.spec.parser import parse_specification
    from repro.verify.prover import EquationalProver
    from repro.verify.skolem import skolemize_pair

    spec = parse_specification((root / procs.SPEC_FILE).read_text())
    engine = RewriteEngine.for_specification(spec, backend="codegen")
    cls = classify(spec)
    prover = EquationalProver(
        engine.rules,
        constructors={cls.type_of_interest: tuple(cls.constructors)},
        fuel=ServeLimits().max_fuel,
    )
    # One sample more than REPLAY_MAX: the first replay of each kind
    # only warms the paths.
    normalize = [s for s in samples if s[0].kind == "normalize"]
    normalize = normalize[: REPLAY_MAX["normalize"] + 1]
    prove = [s for s in samples if s[0].kind == "prove"][: REPLAY_MAX["prove"] + 1]
    spans.recording = False
    sizes_in, sizes_out = [], []
    pool = ShardPool(engine.rules, 2, backend="codegen")
    # Each batch runs on both paths, alternating which goes first.
    paths = {
        "engine": engine.normalize_many_outcomes,
        "pool": pool.normalize_many_outcomes,
    }
    try:
        pool.warm()
        for n, (request, body) in enumerate(normalize):
            spans.recording = n > 0
            outcomes = {}
            with spans.span("replay.request", request=f"replay{n}"):
                with spans.span("wire.decode"):
                    terms = wire.decode_terms(body)
                for path in ("engine", "pool") if n % 2 else ("pool", "engine"):
                    with spans.span(f"{path}.batch"):
                        outcomes[path] = paths[path](terms)
                with spans.span("wire.encode"):
                    encoded = wire.encode_outcomes(outcomes["engine"])
            for path, answers in outcomes.items():
                found = _check(request, answers)
                if found:
                    problems.append(f"replay {n} {path}: {found[0]}")
            if n > 0:
                sizes_in.append(_kb({"spec": spec.name, "terms": body}))
                sizes_out.append(_kb({"spec": spec.name, "outcomes": encoded}))
            del terms, outcomes
        for n, (request, body) in enumerate(prove):
            spans.recording = n > 0
            terms = wire.decode_terms(body)
            results = []
            with spans.span("verify.prove", request=f"prove{n}"):
                for lhs, rhs in zip(terms[::2], terms[1::2]):
                    lhs, rhs, _ = skolemize_pair(lhs, rhs)
                    results.append({"proved": prover.prove(lhs, rhs).proved})
            found = oracles.check_proofs(results, request.expected)
            if found:
                problems.append(f"replay prove {n}: {found[0]}")
    finally:
        spans.recording = False
        pool.close(wait=True)
    times = spans.self_times()
    engine_ms = _mean(times.get("engine.batch", []))
    pool_ms = _mean(times.get("pool.batch", []))
    return {
        "wire.decode_ms": _mean(times.get("wire.decode", [])),
        "wire.encode_ms": _mean(times.get("wire.encode", [])),
        "wire.request_kb": _mean(sizes_in),
        "wire.response_kb": _mean(sizes_out),
        "engine.batch_ms": engine_ms,
        "pool.batch_ms": pool_ms,
        "pool.fanout_gain": engine_ms / pool_ms if pool_ms else 0.0,
        "verify.prove_ms": _mean(times.get("verify.prove", [])),
    }
