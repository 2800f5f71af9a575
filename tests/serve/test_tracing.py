"""End-to-end tests for traced serving: a client with its own tracer
talking to a traced daemon (serial sessions and shard workers), OTLP
export, the JSONL access log, and trace-id exemplars on the latency
histogram.

Client and daemon share this test process, which is exactly why the
client takes an explicit ``tracer=`` instead of installing one
globally — the daemon's instrumentation must keep reading its own.
"""

from __future__ import annotations

import json

import pytest

from repro.adt.queue import FRONT, QUEUE_SPEC, queue_term
from repro.algebra.terms import App
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.obs.otlp import read_otlp_file, read_otlp_spans, validate_otlp
from repro.serve import ReproServer, ServeClient
from tests.serve.batches import fanout_batch


def _server(**kwargs) -> ReproServer:
    kwargs.setdefault("registry", _metrics.MetricsRegistry("tracing-test"))
    return ReproServer([QUEUE_SPEC], **kwargs)


def _subjects(count: int) -> list:
    return [
        App(FRONT, (queue_term([f"x{i}", f"y{i}"]),)) for i in range(count)
    ]


def _names(tracer: _trace.Tracer) -> list[str]:
    return [
        event["name"]
        for event in tracer.events
        if event["ev"] == "span_start"
    ]


def _dispatch_path(tracer: _trace.Tracer) -> str:
    """The inline-or-pool choice, recorded on serve.dispatch's end."""
    (path,) = [
        event["path"]
        for event in tracer.events
        if event["ev"] == "span_end" and event["name"] == "serve.dispatch"
    ]
    return path


class TestEndToEnd:
    def test_one_trace_spans_client_daemon_and_workers(self, tmp_path):
        # A batch at the fan-out threshold: the daemon ships it to the
        # shard workers, so their spans join the trace.
        otlp = tmp_path / "daemon.otlp.jsonl"
        tracer = _trace.Tracer()
        with _server(
            trace_sample=1.0, otlp_path=str(otlp), workers=2
        ) as server:
            host, port = server.address
            with ServeClient(
                host,
                port,
                timeout=30.0,
                retries=0,
                tracer=tracer,
                trace_return=True,
            ) as client:
                subjects = fanout_batch("traced")
                outcomes = client.normalize(subjects, spec="Queue")
        assert len(outcomes) == len(subjects)
        assert all(outcome.ok for outcome in outcomes)
        names = _names(tracer)
        # The client's own tracer now holds the whole three-tier tree.
        for expected in (
            "client.request",
            "serve.request",
            "serve.admission",
            "serve.dispatch",
            "parallel.batch",
            "worker.chunk",
        ):
            assert expected in names, f"missing span {expected}: {names}"
        assert _dispatch_path(tracer) == "pool"
        # One trace id end to end: the daemon exported under the
        # *client's* trace id, and the remote-parent link points at the
        # client's request span.
        docs = read_otlp_file(str(otlp))
        assert len(docs) == 1
        (doc,) = docs
        assert validate_otlp(doc) == []
        spans = read_otlp_spans(doc)
        assert {span["traceId"] for span in spans} == {tracer.trace_id}
        request = next(
            span for span in spans if span["name"] == "serve.request"
        )
        client_span = next(
            event
            for event in tracer.events
            if event["ev"] == "span_start"
            and event["name"] == "client.request"
        )
        assert request["parentSpanId"] == tracer.span_hex(
            client_span["span"]
        )
        dispatch = next(
            span for span in spans if span["name"] == "serve.dispatch"
        )
        assert {"key": "path", "value": {"stringValue": "pool"}} in (
            dispatch["attributes"]
        )

    def test_small_batch_traces_inline_without_workers(self):
        tracer = _trace.Tracer()
        with _server(trace_sample=1.0, workers=2) as server:
            host, port = server.address
            with ServeClient(
                host,
                port,
                timeout=30.0,
                retries=0,
                tracer=tracer,
                trace_return=True,
            ) as client:
                outcomes = client.normalize(_subjects(6), spec="Queue")
        assert all(outcome.ok for outcome in outcomes)
        names = _names(tracer)
        for expected in ("serve.request", "serve.dispatch", "serve.evaluate"):
            assert expected in names, f"missing span {expected}: {names}"
        assert "parallel.batch" not in names
        assert "worker.chunk" not in names
        assert _dispatch_path(tracer) == "inline"

    def test_daemon_tracer_buffer_stays_bounded(self):
        # pop_subtree per finished request: nothing may accumulate.
        # Raw POSTs, not ServeClient — an in-process client without an
        # explicit tracer would record client.request spans into the
        # daemon's globally-installed tracer and muddy the assertion.
        import http.client

        with _server(trace_sample=1.0) as server:
            host, port = server.address
            for _ in range(3):
                conn = http.client.HTTPConnection(host, port, timeout=10.0)
                try:
                    conn.request(
                        "POST",
                        "/v1/normalize",
                        body=json.dumps(
                            {"text": ["FRONT(ADD(NEW, 1))"], "spec": "Queue"}
                        ),
                        headers={"Content-Type": "application/json"},
                    )
                    assert conn.getresponse().status == 200
                finally:
                    conn.close()
            assert server.tracer is not None
            assert server.tracer.events == []


class TestTraceparentNegotiation:
    def test_response_echoes_sampled_traceparent(self):
        tracer = _trace.Tracer()
        with _server(trace_sample=1.0) as server:
            host, port = server.address
            with ServeClient(
                host, port, retries=0, tracer=tracer, trace_return=True
            ) as client:
                client.normalize(_subjects(1), spec="Queue")
                conn_header = None
                # Raw exchange to read the response header itself.
                import http.client

                conn = http.client.HTTPConnection(host, port, timeout=10.0)
                try:
                    context = _trace.TraceContext.generate(sampled=True)
                    conn.request(
                        "POST",
                        "/v1/normalize",
                        body=json.dumps(
                            {"text": ["FRONT(ADD(NEW, 1))"], "spec": "Queue"}
                        ),
                        headers={
                            "Content-Type": "application/json",
                            "traceparent": context.to_traceparent(),
                        },
                    )
                    response = conn.getresponse()
                    response.read()
                    conn_header = response.getheader("traceparent")
                finally:
                    conn.close()
        echoed = _trace.TraceContext.parse_traceparent(conn_header)
        assert echoed is not None
        assert echoed.trace_id == context.trace_id
        assert echoed.sampled is True
        assert echoed.span_id != context.span_id  # the daemon's span

    def test_unsampled_incoming_context_is_honoured(self, tmp_path):
        # The caller said sampled=0: the daemon must not record, and
        # the echo must keep the flag down.
        otlp = tmp_path / "unsampled.jsonl"
        with _server(trace_sample=1.0, otlp_path=str(otlp)) as server:
            host, port = server.address
            import http.client

            context = _trace.TraceContext.generate(sampled=False)
            conn = http.client.HTTPConnection(host, port, timeout=10.0)
            try:
                conn.request(
                    "POST",
                    "/v1/normalize",
                    body=json.dumps(
                        {"text": ["FRONT(ADD(NEW, 1))"], "spec": "Queue"}
                    ),
                    headers={
                        "Content-Type": "application/json",
                        "traceparent": context.to_traceparent(),
                    },
                )
                response = conn.getresponse()
                response.read()
                header = response.getheader("traceparent")
            finally:
                conn.close()
            assert server.tracer is not None
            assert server.tracer.events == []
        echoed = _trace.TraceContext.parse_traceparent(header)
        assert echoed is not None and echoed.sampled is False
        assert echoed.trace_id == context.trace_id
        assert not otlp.exists()  # nothing was exported

    def test_malformed_traceparent_degrades_to_daemon_trace(self):
        with _server(trace_sample=1.0) as server:
            host, port = server.address
            import http.client

            conn = http.client.HTTPConnection(host, port, timeout=10.0)
            try:
                conn.request(
                    "POST",
                    "/v1/normalize",
                    body=json.dumps(
                        {"text": ["FRONT(ADD(NEW, 1))"], "spec": "Queue"}
                    ),
                    headers={
                        "Content-Type": "application/json",
                        "traceparent": "totally-not-a-traceparent",
                    },
                )
                response = conn.getresponse()
                payload = json.loads(response.read())
                header = response.getheader("traceparent")
            finally:
                conn.close()
            assert response.status == 200 and "outcomes" in payload
            echoed = _trace.TraceContext.parse_traceparent(header)
            assert echoed is not None
            assert server.tracer is not None
            assert echoed.trace_id == server.tracer.trace_id


class TestRequestArtifacts:
    def test_access_log_lines_carry_latency_breakdown(self, tmp_path):
        log = tmp_path / "access.jsonl"
        with _server(trace_sample=1.0, access_log=str(log)) as server:
            host, port = server.address
            with ServeClient(host, port, retries=0) as client:
                client.normalize(_subjects(2), spec="Queue")
                client.healthz()
        records = [
            json.loads(line) for line in log.read_text().splitlines()
        ]
        assert len(records) == 2
        post = next(r for r in records if r["method"] == "POST")
        get = next(r for r in records if r["method"] == "GET")
        assert post["path"] == "/v1/normalize" and post["status"] == 200
        assert post["reason"] == "ok"
        # The breakdown: queueing and evaluation both accounted, and
        # bounded by the total.
        assert 0 <= post["queue_s"] <= post["total_s"]
        assert 0 < post["eval_s"] <= post["total_s"]
        assert len(post["trace_id"]) == 32 and post["sampled"] is True
        assert get["path"] == "/healthz" and get["status"] == 200

    def test_latency_histogram_carries_trace_exemplar(self):
        # The exemplar lands in the handler's finally block, *after*
        # the response is sent — snapshot only once the server has
        # closed (close joins the handler threads).
        with _server(trace_sample=1.0) as server:
            host, port = server.address
            with ServeClient(host, port, retries=0) as client:
                client.normalize(_subjects(1), spec="Queue")
        snapshot = server.registry.snapshot()
        histogram = snapshot["histograms"]["serve.request_seconds"]
        exemplars = histogram.get("exemplars", {})
        assert exemplars, "latency histogram recorded no exemplar"
        (exemplar,) = list(exemplars.values())
        assert server.tracer is not None
        assert exemplar["trace_id"] == server.tracer.trace_id
        assert len(exemplar["span_id"]) == 16
        assert exemplar["value"] > 0

    def test_untraced_daemon_pays_no_artifacts(self, tmp_path):
        with _server() as server:
            host, port = server.address
            with ServeClient(host, port, retries=0) as client:
                client.normalize(_subjects(1), spec="Queue")
            assert server.tracer is None
        snapshot = server.registry.snapshot()
        histogram = snapshot["histograms"]["serve.request_seconds"]
        assert "exemplars" not in histogram


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(pytest.main([__file__, "-q"]))
