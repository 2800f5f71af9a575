"""End-to-end serving smoke: ``python -m repro.serve.smoke``.

The CI ``serve`` job's script, kept in-tree so it can be run anywhere:

1. boot a daemon (Queue spec + a deliberately cycling spec, two shard
   workers per session);
2. drive a mixed healthy / diverging / fault-injected request load
   through the stdlib client — the Queue batches are sized at
   :data:`~repro.serve.server.FANOUT_MIN_SIZE` so they fan out to the
   shard workers rather than evaluating inline;
3. SIGKILL a shard worker mid-batch;
4. assert ``/readyz`` reports recovery within the respawn backoff
   window;
5. scrape ``/metrics`` to ``--metrics-out`` (the CI artifact);
6. with ``--otlp-out``, run the whole load traced (``sample=1.0``),
   drive one traced client request (client span → daemon → shard
   workers), and validate every exported OTLP document's span-tree
   invariants — parent links resolve, worker spans nest under their
   request span, one trace id per document.

Exit status 0 means every step held; any broken invariant raises and
fails the job.  ``--quick`` shrinks the load for sub-second local runs.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import threading
import time

from repro.adt.queue import FRONT, QUEUE_SPEC, queue_term
from repro.algebra.terms import App
from repro.serve import (
    FANOUT_MIN_SIZE,
    ReproServer,
    ServeClient,
    ServeLimits,
    ServeUnavailable,
)
from repro.spec.parser import parse_specification
from repro.testing.faults import FaultSpec, inject_faults

CYCLE_SPEC_TEXT = """
type P

operations
  MKP:  -> P
  PING: P -> P
  PONG: P -> P

vars
  p: P

axioms
  (C1) PING(p) = PONG(p)
  (C2) PONG(p) = PING(p)
"""


def _queue_subjects(n: int, tag: str, length: int = 2) -> list:
    return [
        App(FRONT, (queue_term([f"{tag}{i}e{m}" for m in range(length)]),))
        for i in range(n)
    ]


def _pool_subjects(n: int, tag: str) -> list:
    """``n`` FRONT observations whose total size reaches the fan-out
    threshold (FRONT over a k-item queue has size 2k + 2), so the
    daemon ships the batch to its shard workers."""
    length = -(-FANOUT_MIN_SIZE // (2 * n)) - 1
    return _queue_subjects(n, tag, length)


def _drive_load(host, port, cycle_spec, requests, results):
    client = ServeClient(host, port, timeout=20.0, retries=2, backoff=0.01)
    cycling = App(
        cycle_spec.operation("PING"),
        (App(cycle_spec.operation("MKP"), ()),),
    )
    for i in range(requests):
        try:
            if i % 2:
                outcomes = client.normalize([cycling], spec=cycle_spec.name)
                assert outcomes[0].status in ("truncated", "diverged"), (
                    f"diverging term came back {outcomes[0].status}"
                )
            else:
                outcomes = client.normalize(
                    _pool_subjects(3, f"r{i}"), spec="Queue"
                )
                assert len(outcomes) == 3 and all(o.ok for o in outcomes)
            results.append("completed")  # list.append: thread-safe
        except ServeUnavailable:
            results.append("shed")  # structured 429/503/drop — acceptable


def _traced_exercise(host: str, port: int) -> None:
    """One fully traced request: the client holds its own tracer (the
    daemon shares this interpreter, so the global slot is the daemon's),
    sends ``traceparent``, asks for the span subtree back, and must end
    up holding the whole client → daemon → worker tree."""
    from repro.obs import trace as _trace
    from repro.obs.otlp import to_otlp, validate_otlp

    tracer = _trace.Tracer(sample=1.0)
    client = ServeClient(
        host, port, timeout=20.0, retries=2, tracer=tracer, trace_return=True
    )
    outcomes = client.normalize(_pool_subjects(6, "traced"), spec="Queue")
    assert all(outcome.ok for outcome in outcomes)
    names = {
        event["name"]
        for event in tracer.events
        if event["ev"] == "span_start"
    }
    for tier in ("client.request", "serve.request", "worker.chunk"):
        assert tier in names, f"traced request missing {tier} span: {names}"
    document = to_otlp(
        tracer.events,
        tracer.trace_id,
        span_hex=tracer.span_hex,
        resource={"service.name": "repro-smoke-client"},
    )
    problems = validate_otlp(document)
    assert not problems, f"client trace invalid: {problems}"
    print(  # allow-print: smoke script progress
        f"smoke: traced request spans {sorted(names)} — one trace, "
        "three tiers",
        flush=True,
    )


def _validate_otlp_artifact(path: str) -> None:
    """Every daemon-exported OTLP document must hold the span-tree
    invariants, and at least one must reach the shard workers."""
    from repro.obs.otlp import read_otlp_file, read_otlp_spans, validate_otlp

    documents = read_otlp_file(path)
    assert documents, f"no OTLP documents exported to {path}"
    worker_docs = 0
    for index, document in enumerate(documents):
        problems = validate_otlp(document)
        assert not problems, f"trace[{index}] invalid: {problems}"
        if any(
            span["name"] == "worker.chunk"
            for span in read_otlp_spans(document)
        ):
            worker_docs += 1
    assert worker_docs > 0, "no exported trace reached a shard worker"
    print(  # allow-print: smoke script progress
        f"smoke: {len(documents)} OTLP trace(s) valid, "
        f"{worker_docs} spanning shard workers",
        flush=True,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--metrics-out", default=None)
    parser.add_argument(
        "--otlp-out",
        default=None,
        help="trace every request (sample=1.0), append one OTLP/JSON "
        "document per request here, and validate the span trees",
    )
    args = parser.parse_args(argv)

    cycle_spec = parse_specification(CYCLE_SPEC_TEXT)
    threads = 2 if args.quick else 4
    requests = 4 if args.quick else 10

    with ReproServer(
        [QUEUE_SPEC, cycle_spec],
        workers=2,
        limits=ServeLimits(
            max_fuel=3_000,
            max_inflight=2,
            queue_depth=4,
            queue_timeout=1.0,
            retry_after=0.02,
        ),
        supervisor_options={"backoff_base": 0.05, "backoff_cap": 0.5},
        trace_sample=1.0 if args.otlp_out else None,
        otlp_path=args.otlp_out,
    ) as server:
        host, port = server.address
        print(f"smoke: daemon on {host}:{port}", flush=True)  # allow-print: smoke script progress
        plan = {
            "serve.handle": FaultSpec(
                kind="sleep", delay=0.02, probability=0.2
            ),
            "serve.respond": FaultSpec(
                exception=BrokenPipeError, probability=0.05, limit=2
            ),
        }
        results: list[str] = []
        workers = [
            threading.Thread(
                target=_drive_load,
                args=(host, port, cycle_spec, requests, results),
            )
            for _ in range(threads)
        ]
        with inject_faults(plan):
            for worker in workers:
                worker.start()
            time.sleep(0.1)
            victims = server.sessions["Queue"].supervisor.worker_pids()
            if victims:
                os.kill(victims[0], signal.SIGKILL)
                print(  # allow-print: smoke script progress
                    f"smoke: SIGKILLed shard worker {victims[0]}", flush=True
                )
            for worker in workers:
                worker.join(timeout=120.0)
            assert not any(w.is_alive() for w in workers), "hung client thread"

        total = threads * requests
        completed = results.count("completed")
        shed = results.count("shed")
        assert completed + shed == total, (
            f"lost requests: {completed}+{shed} of {total}"
        )
        assert completed > 0, "no request completed"
        print(  # allow-print: smoke script progress
            f"smoke: {completed}/{total} completed, "
            f"{shed} shed (structured)",
            flush=True,
        )

        client = ServeClient(host, port, timeout=10.0, retries=0)
        deadline = time.monotonic() + 15.0
        ready = client.readyz()
        while time.monotonic() < deadline and not ready["ready"]:
            time.sleep(0.1)
            ready = client.readyz()
        assert ready["ready"], f"/readyz never recovered: {ready}"
        assert ready["specs"]["Queue"]["circuit"] == "closed"
        if victims:
            assert victims[0] not in ready["specs"]["Queue"]["worker_pids"]
        print(  # allow-print: smoke script progress
            "smoke: /readyz recovered, circuit closed", flush=True
        )

        post = client.normalize(_queue_subjects(2, "post"), spec="Queue")
        assert all(outcome.ok for outcome in post)

        if args.otlp_out:
            _traced_exercise(host, port)
            _validate_otlp_artifact(args.otlp_out)

        if args.metrics_out:
            with open(args.metrics_out, "w") as handle:
                handle.write(client.metrics())
            print(  # allow-print: smoke script progress
                f"smoke: metrics scraped to {args.metrics_out}", flush=True
            )
    print("smoke: OK", flush=True)  # allow-print: smoke script progress
    return 0


if __name__ == "__main__":
    sys.exit(main())
