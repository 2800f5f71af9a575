"""Tests for the OTLP/JSON export: W3C context, document shape,
span-tree validation, the exporter sinks, and the offline CLI.

The export is consumed by tooling outside this repository, so these
tests pin the *wire* contract: attribute typing (OTLP wants intValue
as a string), id hexification, remote-parent links, and the validator
invariants the CI serve job runs against real daemon artifacts.
"""

from __future__ import annotations

import json

import pytest

from repro.obs.otlp import (
    OTLPExporter,
    read_otlp_file,
    read_otlp_spans,
    to_otlp,
    validate_otlp,
)
from repro.obs.otlp import main as otlp_main
from repro.obs.trace import TraceContext, Tracer


class TestTraceContext:
    def test_traceparent_round_trip(self):
        context = TraceContext.generate(sampled=True)
        header = context.to_traceparent()
        assert header.startswith("00-")
        parsed = TraceContext.parse_traceparent(header)
        assert parsed == context

    def test_sampled_flag_survives(self):
        down = TraceContext.generate(sampled=False)
        parsed = TraceContext.parse_traceparent(down.to_traceparent())
        assert parsed is not None and parsed.sampled is False
        assert down.to_traceparent().endswith("-00")

    @pytest.mark.parametrize(
        "header",
        [
            None,
            "",
            "garbage",
            "01-" + "a" * 32 + "-" + "b" * 16 + "-01",  # wrong version
            "00-" + "0" * 32 + "-" + "b" * 16 + "-01",  # zero trace id
            "00-" + "a" * 32 + "-" + "0" * 16 + "-01",  # zero span id
            "00-" + "a" * 31 + "-" + "b" * 16 + "-01",  # short trace id
            "00-" + "A" * 32 + "-" + "b" * 16 + "-zz",  # bad flags
        ],
    )
    def test_malformed_headers_degrade_to_none(self, header):
        assert TraceContext.parse_traceparent(header) is None

    def test_uppercase_header_accepted(self):
        # The W3C spec mandates lowercase on emit but tolerant parsing.
        context = TraceContext.generate()
        parsed = TraceContext.parse_traceparent(
            context.to_traceparent().upper()
        )
        assert parsed is not None
        assert parsed.trace_id == context.trace_id


def _sample_events() -> tuple[Tracer, list[dict]]:
    tracer = Tracer()
    with tracer.span("serve.request", path="/v1/normalize", retries=0):
        with tracer.span("serve.evaluate", items=3, ok=True):
            tracer.firings({"r1": 2, "r2": 5})
    return tracer, tracer.events


class TestToOtlp:
    def test_resource_spans_shape(self):
        tracer, events = _sample_events()
        doc = to_otlp(
            events,
            tracer.trace_id,
            span_hex=tracer.span_hex,
            resource={"service.name": "repro-test"},
        )
        resource = doc["resourceSpans"][0]
        attrs = {
            a["key"]: a["value"] for a in resource["resource"]["attributes"]
        }
        assert attrs["service.name"] == {"stringValue": "repro-test"}
        spans = resource["scopeSpans"][0]["spans"]
        assert [s["name"] for s in spans] == [
            "serve.request",
            "serve.evaluate",
        ]

    def test_ids_are_hex_and_parents_link(self):
        tracer, events = _sample_events()
        doc = to_otlp(events, tracer.trace_id, span_hex=tracer.span_hex)
        request, evaluate = read_otlp_spans(doc)
        for span in (request, evaluate):
            assert span["traceId"] == tracer.trace_id
            assert len(span["spanId"]) == 16
            int(span["spanId"], 16)  # valid hex
        assert evaluate["parentSpanId"] == request["spanId"]
        assert "parentSpanId" not in request

    def test_attribute_typing(self):
        tracer, events = _sample_events()
        doc = to_otlp(events, tracer.trace_id, span_hex=tracer.span_hex)
        request, evaluate = read_otlp_spans(doc)
        req_attrs = {
            a["key"]: a["value"] for a in request["attributes"]
        }
        eval_attrs = {
            a["key"]: a["value"] for a in evaluate["attributes"]
        }
        assert req_attrs["path"] == {"stringValue": "/v1/normalize"}
        # OTLP ints ride as strings; bools must not be swallowed by the
        # int branch (bool is an int subclass in Python).
        assert req_attrs["retries"] == {"intValue": "0"}
        assert eval_attrs["ok"] == {"boolValue": True}
        # The firings point event collapses its per-rule counts dict
        # into totals on a span event (the detail stays in the JSONL).
        (firing_event,) = evaluate["events"]
        assert firing_event["name"] == "firings"
        event_attrs = {
            a["key"]: a["value"] for a in firing_event["attributes"]
        }
        assert event_attrs["firings"] == {"intValue": "7"}
        assert event_attrs["rules"] == {"intValue": "2"}

    def test_late_attributes_from_span_end(self):
        tracer = Tracer()
        with tracer.span("serve.dispatch", endpoint="/v1/normalize"):
            tracer.annotate(path="pool")
        doc = to_otlp(tracer.events, tracer.trace_id, tracer.span_hex)
        (span,) = read_otlp_spans(doc)
        attrs = {a["key"]: a["value"] for a in span["attributes"]}
        assert attrs == {
            "endpoint": {"stringValue": "/v1/normalize"},
            "path": {"stringValue": "pool"},
        }

    def test_remote_parent_marks_cross_process_link(self):
        tracer = Tracer()
        remote = TraceContext.generate()
        with tracer.span("serve.request", remote_parent=remote.span_id):
            pass
        doc = to_otlp(tracer.events, remote.trace_id, tracer.span_hex)
        (span,) = read_otlp_spans(doc)
        assert span["parentSpanId"] == remote.span_id
        attrs = {a["key"]: a["value"] for a in span["attributes"]}
        assert attrs["repro.parent.remote"] == {"boolValue": True}

    def test_timestamps_are_ordered_nanos(self):
        tracer, events = _sample_events()
        doc = to_otlp(events, tracer.trace_id, span_hex=tracer.span_hex)
        for span in read_otlp_spans(doc):
            start = int(span["startTimeUnixNano"])
            end = int(span["endTimeUnixNano"])
            assert start > 10**18  # nanoseconds since the epoch
            assert end >= start


class TestValidate:
    def test_clean_document_validates(self):
        tracer, events = _sample_events()
        doc = to_otlp(events, tracer.trace_id, span_hex=tracer.span_hex)
        assert validate_otlp(doc) == []

    def test_dangling_parent_is_flagged(self):
        tracer, events = _sample_events()
        doc = to_otlp(events, tracer.trace_id, span_hex=tracer.span_hex)
        spans = read_otlp_spans(doc)
        spans[1]["parentSpanId"] = "deadbeefdeadbeef"
        problems = validate_otlp(doc)
        assert any("parent" in p for p in problems)

    def test_mixed_trace_ids_are_flagged(self):
        tracer, events = _sample_events()
        doc = to_otlp(events, tracer.trace_id, span_hex=tracer.span_hex)
        read_otlp_spans(doc)[1]["traceId"] = "ab" * 16
        problems = validate_otlp(doc)
        assert any("trace id" in p for p in problems)

    def test_orphan_worker_span_is_flagged(self):
        # The nesting rule only applies to request-bearing documents: a
        # worker span that is a *sibling* of serve.request means context
        # propagation broke somewhere between dispatch and the shard.
        tracer = Tracer()
        with tracer.span("serve.request"):
            pass
        with tracer.span("worker.chunk", pid=123):
            pass
        doc = to_otlp(tracer.events, tracer.trace_id, tracer.span_hex)
        problems = validate_otlp(doc)
        assert any("worker" in p for p in problems)

    def test_worker_under_request_is_clean(self):
        tracer = Tracer()
        with tracer.span("serve.request"):
            with tracer.span("parallel.batch"):
                with tracer.span("worker.chunk", pid=123):
                    pass
        doc = to_otlp(tracer.events, tracer.trace_id, tracer.span_hex)
        assert validate_otlp(doc) == []


class TestExporter:
    def test_file_sink_appends_one_document_per_export(self, tmp_path):
        path = tmp_path / "traces.jsonl"
        exporter = OTLPExporter(path=str(path))
        for _ in range(2):
            tracer, events = _sample_events()
            exporter.export(
                events, tracer.trace_id, span_hex=tracer.span_hex
            )
        assert exporter.exported == 2 and exporter.errors == 0
        docs = read_otlp_file(str(path))
        assert len(docs) == 2
        for doc in docs:
            assert validate_otlp(doc) == []

    def test_unreachable_endpoint_counts_error_not_raise(self):
        exporter = OTLPExporter(
            endpoint="http://127.0.0.1:1/v1/traces", timeout=0.2
        )
        tracer, events = _sample_events()
        exporter.export(events, tracer.trace_id, span_hex=tracer.span_hex)
        assert exporter.errors == 1 and exporter.exported == 0


class TestOfflineCli:
    def test_convert_jsonl_trace_to_otlp(self, tmp_path, capsys):
        tracer, events = _sample_events()
        source = tmp_path / "trace.jsonl"
        source.write_text(
            "".join(json.dumps(event) + "\n" for event in events)
        )
        out = tmp_path / "trace.otlp.json"
        assert otlp_main([str(source), "--out", str(out)]) == 0
        (doc,) = read_otlp_file(str(out))
        assert validate_otlp(doc) == []
        assert len(read_otlp_spans(doc)) == 2

    def test_validate_passes_clean_and_fails_corrupt(self, tmp_path, capsys):
        tracer, events = _sample_events()
        doc = to_otlp(events, tracer.trace_id, span_hex=tracer.span_hex)
        clean = tmp_path / "clean.jsonl"
        clean.write_text(json.dumps(doc) + "\n")
        assert otlp_main([str(clean), "--validate"]) == 0
        read_otlp_spans(doc)[1]["parentSpanId"] = "deadbeefdeadbeef"
        corrupt = tmp_path / "corrupt.jsonl"
        corrupt.write_text(json.dumps(doc) + "\n")
        assert otlp_main([str(corrupt), "--validate"]) == 1
        assert "violation" in capsys.readouterr().out
