"""The span tracer: JSONL trace events with context propagation.

A :class:`Tracer` records a tree of **spans** (named, timed scopes with
parent links) and the point events that happen inside them — rewrite
steps with their rule and a capped subject summary, aggregated compiled
rule firings, budget exhaustions, fault-injection hits.  Installation
follows the fault registry's pattern: a module-global :data:`ACTIVE`
that instrumented code checks with one attribute load, so the disabled
path costs a ``None`` test and nothing else.

Event schema (one JSON object per line when written to a sink)::

    {"ev": "span_start", "span": 3, "parent": 1, "name": "engine.normalize",
     "ts": 12.345678, ...attrs}
    {"ev": "span_end",   "span": 3, "name": "...", "ts": ..., "dur_us": ...,
     ...late attrs}
    {"ev": "step",       "span": 3, "rule": "[4] FRONT(ADD(q, i)) -> ...",
     "subject": "FRONT(ADD(NEW, 'a'))", "ts": ...}
    {"ev": "firings",    "span": 3, "counts": {"[4] ...": 17, ...}, "ts": ...}
    {"ev": "budget_exhausted", "reason": "fuel", "subject": "...", ...}
    {"ev": "fault",      "site": "engine.match_root", "kind": "raise", ...}

``step`` events are emitted per rule firing by the interpreted backend;
the compiled backend's closures count firings in flat lists instead, so
it emits one aggregated ``firings`` event per evaluation with the
per-rule deltas.  :func:`firing_counts` folds both forms into one
per-rule count dict, which — with sampling off — matches the metrics
registry's firing family exactly, on either backend.

Sampling: the ``sample`` knob (0.0–1.0) decides, deterministically by
running credit rather than by random draw, whether each **top-level**
span is recorded; an unrecorded span suppresses its entire subtree,
steps included.  ``sample=0.0`` records nothing; metrics counters are
unaffected by sampling (they are always on).

Distributed tracing: span scopes (the open-span stack, the mute depth,
the sampling credit) are **thread-local**, so one tracer serves every
request thread of the ``repro serve`` daemon with correct parent links,
while span ids stay process-unique.  A :class:`TraceContext` carries the
W3C ``traceparent`` triple (``trace_id``/``span_id``/``sampled``) across
process boundaries — the client sends it, the daemon honours its
sampling decision, and shard workers ship their span batches home for
:meth:`Tracer.merge_remote_events` to graft into the parent's tree.
Span ids are small process-local ints in the JSONL form; the OTLP
export maps them through :meth:`Tracer.span_hex` (a per-tracer random
base) so ids from different processes never collide inside one trace.
"""

from __future__ import annotations

import json
import os
import re
import threading
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from itertools import count
from time import monotonic, time
from typing import Iterable, Optional

from repro.runtime.render import summarize_term

__all__ = [
    "ACTIVE",
    "TraceContext",
    "Tracer",
    "firing_counts",
    "install",
    "maybe_span",
    "new_span_id_hex",
    "new_trace_id",
    "read_trace",
    "rule_id",
    "tracing",
]


def rule_id(rule: object) -> str:
    """The canonical trace/metrics label for a rewrite rule: its full
    ``[label] lhs -> rhs`` rendering (unique per distinct rule)."""
    return str(rule)


# ----------------------------------------------------------------------
# W3C trace context
# ----------------------------------------------------------------------

_TRACEPARENT = re.compile(
    r"^00-([0-9a-f]{32})-([0-9a-f]{16})-([0-9a-f]{2})$"
)


def new_trace_id() -> str:
    """A fresh random 128-bit trace id (32 lowercase hex chars, nonzero)."""
    value = os.urandom(16).hex()
    return value if value != "0" * 32 else new_trace_id()


def new_span_id_hex() -> str:
    """A fresh random 64-bit span id (16 lowercase hex chars, nonzero)."""
    value = os.urandom(8).hex()
    return value if value != "0" * 16 else new_span_id_hex()


@dataclass(frozen=True)
class TraceContext:
    """One hop of W3C trace context: the ``traceparent`` header triple.

    ``trace_id`` identifies the whole distributed trace, ``span_id`` the
    caller's span (the remote parent of whatever the callee starts), and
    ``sampled`` carries the caller's recording decision — a callee must
    not record a trace the caller decided to drop, or sampling would
    re-roll at every hop and traces would arrive as fragments.
    """

    trace_id: str
    span_id: str
    sampled: bool = True

    def to_traceparent(self) -> str:
        return f"00-{self.trace_id}-{self.span_id}-{'01' if self.sampled else '00'}"

    @classmethod
    def parse_traceparent(cls, header: Optional[str]) -> Optional["TraceContext"]:
        """Parse a ``traceparent`` header; ``None`` for a missing or
        malformed one (a bad header must not fail the request — the
        trace degrades to a fresh root, the evaluation proceeds)."""
        if not header:
            return None
        match = _TRACEPARENT.match(header.strip().lower())
        if match is None:
            return None
        trace_id, span_id, flags = match.groups()
        if trace_id == "0" * 32 or span_id == "0" * 16:
            return None
        return cls(trace_id, span_id, sampled=bool(int(flags, 16) & 0x01))

    @classmethod
    def generate(cls, sampled: bool = True) -> "TraceContext":
        return cls(new_trace_id(), new_span_id_hex(), sampled=sampled)


class _Scope(threading.local):
    """Per-thread span scope: the open-span stack, the mute depth for
    unsampled subtrees, the deterministic sampling credit, and the
    late attributes :meth:`Tracer.annotate` parks on open spans."""

    def __init__(self) -> None:
        self.stack: list[int] = []
        self.mute = 0
        self.credit = 0.0
        self.notes: dict[int, dict] = {}


class Tracer:
    """Records trace events, in memory and optionally to a JSONL sink.

    Parameters
    ----------
    sink:
        A writable text stream; each event is written as one JSON line
        as it happens.  Events are *also* retained in ``self.events``
        (as dicts) so post-processing — the per-rule profile, the CLI
        summary — needs no re-parse.
    sample:
        Fraction of top-level spans to record (see module docstring).
    trace_id:
        The 32-hex W3C trace id this tracer's spans belong to by
        default (requests that arrive with their own ``traceparent``
        override it per subtree).  Auto-generated when omitted.

    Thread-safety: span scopes are thread-local and emission holds a
    lock, so one tracer instance serves concurrent request threads;
    span ids come from one shared counter and stay process-unique.
    """

    def __init__(
        self,
        sink=None,
        sample: float = 1.0,
        trace_id: Optional[str] = None,
    ) -> None:
        if not 0.0 <= sample <= 1.0:
            raise ValueError(f"sample must be in [0, 1], got {sample}")
        self.sink = sink
        self.sample = sample
        self.trace_id = trace_id if trace_id is not None else new_trace_id()
        self.events: list[dict] = []
        self._ids = count(1)
        self._scope = _Scope()
        self._emit_lock = threading.Lock()
        # Fast mute: thread-local reads cost ~2.5x a plain attribute,
        # which the per-firing ``step()`` hot path cannot afford when
        # tracing is effectively off.  A ``sample=0.0`` tracer keeps
        # this plain flag set except while a *forced* span (an incoming
        # sampled traceparent) is open, so instrumented code pays one
        # plain attribute test — the PR-5 disabled-overhead contract.
        self.never = sample == 0.0
        self._forced_open = 0
        # Per-process random base for 16-hex span ids: XORing the small
        # process-local int ids with one random 64-bit value keeps them
        # unique in-process and collision-free (p ~ 2^-64) against the
        # ids another process contributes to the same distributed trace.
        self._hex_base = int.from_bytes(os.urandom(8), "big") or 1

    # -- plumbing ------------------------------------------------------
    def _emit(self, event: dict) -> None:
        with self._emit_lock:
            self.events.append(event)
            if self.sink is not None:
                self.sink.write(json.dumps(event, default=str) + "\n")

    def _sampled(self, forced: Optional[bool]) -> bool:
        if forced is not None:
            return forced
        scope = self._scope
        scope.credit += self.sample
        if scope.credit >= 1.0:
            scope.credit -= 1.0
            return True
        return False

    @property
    def active_span(self) -> Optional[int]:
        stack = self._scope.stack
        return stack[-1] if stack else None

    def span_hex(self, span_id: int) -> str:
        """The 16-hex OTLP form of a process-local span id."""
        return f"{self._hex_base ^ span_id:016x}"

    def context(self, sampled: bool = True) -> TraceContext:
        """The outgoing :class:`TraceContext` for the calling thread:
        this tracer's trace id and the currently open span (or a fresh
        random span id when none is open)."""
        span = self.active_span
        span_hex = (
            self.span_hex(span) if span is not None else new_span_id_hex()
        )
        return TraceContext(self.trace_id, span_hex, sampled=sampled)

    # -- spans ---------------------------------------------------------
    @contextmanager
    def span(self, name: str, sampled: Optional[bool] = None, **attrs):
        """A named, timed scope.  Nested spans carry ``parent`` links —
        the propagated context that stitches an engine evaluation to the
        façade call to the oracle run that caused it.

        ``sampled`` overrides the credit-based sampling decision for a
        *top-level* span: ``True`` forces recording, ``False`` forces
        muting — the hook an incoming ``traceparent`` flag uses to make
        the caller's sampling decision stick across the process hop.
        """
        scope = self._scope
        if (self.never and sampled is not True) or (
            scope.mute
            or (not scope.stack and not self._sampled(sampled))
        ):
            scope.mute += 1
            try:
                yield None
            finally:
                scope.mute -= 1
            return
        span_id = next(self._ids)
        parent = scope.stack[-1] if scope.stack else None
        forced_on_never = self.sample == 0.0
        if forced_on_never:
            # A forced span on a never-sampling tracer: lift the fast
            # mute while it is open so nested spans and steps record.
            with self._emit_lock:
                self._forced_open += 1
                self.never = False
        start = monotonic()
        event = {
            "ev": "span_start",
            "span": span_id,
            "name": name,
            "ts": round(time(), 6),
        }
        if parent is not None:
            event["parent"] = parent
        event.update(attrs)
        self._emit(event)
        scope.stack.append(span_id)
        try:
            yield span_id
        finally:
            scope.stack.pop()
            end = monotonic()
            end_event = {
                "ev": "span_end",
                "span": span_id,
                "name": name,
                "ts": round(time(), 6),
                "dur_us": round((end - start) * 1e6, 1),
            }
            if scope.notes:
                end_event.update(scope.notes.pop(span_id, ()))
            self._emit(end_event)
            if forced_on_never:
                with self._emit_lock:
                    self._forced_open -= 1
                    if self._forced_open == 0:
                        self.never = True

    def annotate(self, **attrs) -> None:
        """Attach attributes to the calling thread's innermost open
        span, for facts learnt only after it started (the serve daemon's
        inline-or-pool dispatch choice).  They ride on the span's
        ``span_end`` event, so a streaming sink never has to rewrite a
        line it already wrote; the OTLP export folds them into the
        span's attributes."""
        if self.never:
            return
        scope = self._scope
        if scope.mute or not scope.stack:
            return
        scope.notes.setdefault(scope.stack[-1], {}).update(attrs)

    # -- point events --------------------------------------------------
    def step(self, rule: object, subject=None) -> None:
        """One rewrite step: the fired rule and a capped subject
        summary.  Emitted by the interpreted backend per firing."""
        if self.never:
            return
        scope = self._scope
        if scope.mute:
            return
        event: dict = {
            "ev": "step",
            "ts": round(time(), 6),
            "rule": rule_id(rule),
        }
        stack = scope.stack
        if stack:
            event["span"] = stack[-1]
        if subject is not None:
            event["subject"] = summarize_term(subject)
        self._emit(event)

    def firings(self, counts: dict) -> None:
        """Aggregated per-rule firing deltas for one compiled
        evaluation (the closures count in flat lists; per-step events
        would mean a Python call per firing on the compiled hot path)."""
        if self.never:
            return
        scope = self._scope
        if scope.mute or not counts:
            return
        event: dict = {
            "ev": "firings",
            "ts": round(time(), 6),
            "counts": {rule_id(rule): n for rule, n in counts.items()},
        }
        stack = scope.stack
        if stack:
            event["span"] = stack[-1]
        self._emit(event)

    def event(self, ev: str, **fields) -> None:
        """A generic point event (``budget_exhausted``, ``fault``...)."""
        if self.never:
            return
        scope = self._scope
        if scope.mute:
            return
        event: dict = {"ev": ev, "ts": round(time(), 6)}
        stack = scope.stack
        if stack:
            event["span"] = stack[-1]
        event.update(fields)
        self._emit(event)

    # -- cross-process stitching ---------------------------------------
    def merge_remote_events(
        self,
        events: Iterable[dict],
        parent: Optional[int] = None,
        **root_attrs,
    ) -> dict[int, int]:
        """Graft a span batch recorded by another process into this
        tracer's tree.

        Remote span ids are remapped onto fresh local ids (the two
        processes' counters both start at 1, so ids would collide);
        remote parent links are rewritten through the same mapping; and
        remote *root* spans — those with no parent of their own — are
        re-parented under ``parent`` and stamped with ``root_attrs``
        (the shard pool passes the worker pid).  Timestamps ship as-is:
        both processes record epoch seconds, so the merged timeline is
        coherent on one machine.  Returns the id mapping.
        """
        mapping: dict[int, int] = {}
        for event in events:
            event = dict(event)
            span = event.get("span")
            if span is not None:
                if event.get("ev") == "span_start" and span not in mapping:
                    mapping[span] = next(self._ids)
                local = mapping.get(span)
                if local is None:
                    # An event for a span that never started in this
                    # batch (truncated ship); keep it parentless rather
                    # than aliasing someone else's id.
                    del event["span"]
                else:
                    event["span"] = local
            if event.get("ev") == "span_start":
                remote_parent = event.get("parent")
                if remote_parent is not None and remote_parent in mapping:
                    event["parent"] = mapping[remote_parent]
                else:
                    event.pop("parent", None)
                    if parent is not None:
                        event["parent"] = parent
                    event.update(root_attrs)
            self._emit(event)
        return mapping

    def pop_subtree(self, root_span: int) -> list[dict]:
        """Remove and return every retained event in ``root_span``'s
        subtree (the span's own start/end, nested spans, and their point
        events).  The ``repro serve`` daemon calls this per finished
        request: the subtree becomes the request's exported trace, and
        the in-memory event list stays bounded by the *in-flight*
        requests instead of growing for the daemon's lifetime."""
        members = {root_span}
        taken: list[dict] = []
        kept: list[dict] = []
        with self._emit_lock:
            for event in self.events:
                if (
                    event.get("ev") == "span_start"
                    and event.get("parent") in members
                ):
                    members.add(event["span"])
                if event.get("span") in members:
                    taken.append(event)
                else:
                    kept.append(event)
            self.events[:] = kept
        return taken


#: The installed tracer, or None (the fast path).  Instrumented code
#: reads this module attribute directly — ``if trace.ACTIVE is not
#: None`` — so installation is a plain assignment.
ACTIVE: Optional[Tracer] = None


def install(tracer: Optional[Tracer]) -> Optional[Tracer]:
    """Install ``tracer`` (or None to disable); returns the previous
    one so scopes nest correctly."""
    global ACTIVE
    previous = ACTIVE
    ACTIVE = tracer
    return previous


@contextmanager
def tracing(tracer: Tracer):
    """Install ``tracer`` for the duration of the block."""
    previous = install(tracer)
    try:
        yield tracer
    finally:
        install(previous)


def maybe_span(name: str, **attrs):
    """A span on the active tracer, or a no-op context when tracing is
    off — the one-liner for instrumenting non-hot call sites."""
    tracer = ACTIVE
    if tracer is None:
        return nullcontext()
    return tracer.span(name, **attrs)


# ----------------------------------------------------------------------
# Trace analysis
# ----------------------------------------------------------------------
def firing_counts(events: Iterable[dict]) -> dict[str, int]:
    """Per-rule firing counts from a trace: one per ``step`` event,
    plus the aggregated ``firings`` deltas the compiled backend emits.
    With sampling off, this matches the metrics registry's
    ``engine.rule_firings`` family exactly."""
    counts: dict[str, int] = {}
    for event in events:
        kind = event.get("ev")
        if kind == "step":
            rule = event["rule"]
            counts[rule] = counts.get(rule, 0) + 1
        elif kind == "firings":
            for rule, n in event["counts"].items():
                counts[rule] = counts.get(rule, 0) + n
    return counts


def read_trace(path) -> list[dict]:
    """Parse a JSONL trace file back into event dicts."""
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]
