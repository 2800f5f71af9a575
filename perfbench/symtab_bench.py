"""symtab-compile: the paper's compiler example, in process.

One thread parses and analyses a seeded stream of Block programs from
``compiler.workloads.generate_program`` against ``SpecBackend()``: the
Symboltable specification run by the interpreted engine through the
symbolic façade, library defaults throughout.  After the timed loop,
every program's ``(code, span)`` diagnostics are compared with those of
the hand-written ``ConcreteBackend`` on the same program.

A traced run alternates untraced and traced slices; traced programs run
with a timing wrapper around the backend, so each abstract operation is
a span under ``compiler.analyze``.
"""

from __future__ import annotations

import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import counters
import oracles
from serve_bench import TRACED_PHASES, percentile
from spans import Spans

SHAPE = {
    "blocks": 16,
    "declarations_per_block": 4,
    "statements_per_block": 6,
    "max_depth": 4,
    "error_rate": 0.05,
}
SETUP_PROCESSES = 7
WARMUP_PROGRAMS = 8
OPERATIONS = ("enterblock", "leaveblock", "add", "is_inblock", "retrieve")
_SETUP_CODE = (
    "from repro.compiler import SpecBackend\n"
    "SpecBackend()\n"
    "print('ready', flush=True)\n"
)


def setup_once(root: Path) -> float:
    """Seconds from process start, through ``import repro``, until the
    façade is built."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    started = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, "-c", _SETUP_CODE],
        cwd=root,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
    ) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - started
        child.wait(timeout=60)
    if line.strip() != "ready" or child.returncode != 0:
        raise RuntimeError(f"façade set-up failed: {line!r}, exit {child.returncode}")
    return elapsed


class TimedBackend:
    """A symbol-table backend that records each operation as a span."""

    def __init__(self, inner, spans: Spans) -> None:
        self._inner = inner
        self._spans = spans

    def enterblock(self):
        with self._spans.span("symtab.enterblock"):
            return TimedBackend(self._inner.enterblock(), self._spans)

    def leaveblock(self):
        with self._spans.span("symtab.leaveblock"):
            return TimedBackend(self._inner.leaveblock(), self._spans)

    def add(self, name, attrs):
        with self._spans.span("symtab.add"):
            return TimedBackend(self._inner.add(name, attrs), self._spans)

    def is_inblock(self, name):
        with self._spans.span("symtab.is_inblock"):
            return self._inner.is_inblock(name)

    def retrieve(self, name):
        with self._spans.span("symtab.retrieve"):
            return self._inner.retrieve(name)


def program_shape(seed: int, n: int):
    """The shape, seed included, of program ``n`` of the stream."""
    from repro.compiler import WorkloadShape

    return WorkloadShape(**SHAPE, seed=seed * 1_000_003 + n)


def _snapshot() -> dict:
    from repro.obs import aggregate_snapshot, render_prometheus

    return counters.parse(render_prometheus(aggregate_snapshot()))


def run(
    workload: str, seed: int, seconds: float, trace: bool, root: Path, out: Path
) -> dict:
    setups = [setup_once(root) for _ in range(SETUP_PROCESSES)]

    from repro.algebra.terms import intern_table_size
    from repro.compiler import (
        ConcreteBackend,
        SemanticAnalyzer,
        SpecBackend,
        generate_program,
        parse_program,
    )

    spans = Spans()

    def compile_one(source: str, rid: str, traced: bool):
        spans.recording = traced
        with spans.span("compile", request=rid):
            with spans.span("compiler.parse"):
                program = parse_program(source)
            backend = SpecBackend()
            if traced:
                backend = TimedBackend(backend, spans)
            with spans.span("compiler.analyze"):
                result = SemanticAnalyzer(backend).analyze(program)
        spans.recording = False
        return program, result

    for n in range(WARMUP_PROGRAMS):
        compile_one(generate_program(program_shape(seed, -n - 1)), f"warm{n}", False)

    before = _snapshot()
    records = []
    intern_peak = intern_table_size()
    walls = []
    n = 0
    for recording in TRACED_PHASES if trace else (False,) * len(TRACED_PHASES):
        started = time.perf_counter()
        deadline = started + seconds / len(TRACED_PHASES)
        while time.perf_counter() < deadline:
            source = generate_program(program_shape(seed, n))
            t0 = time.perf_counter()
            program, result = compile_one(source, f"p{n}", recording)
            latency = time.perf_counter() - t0
            # Keep only plain data: the oracle regenerates the program, so
            # the process's memory does not grow with the programs compiled.
            keys = oracles.diagnostic_keys(result)
            records.append((n, keys, result.stats.total, latency, recording))
            del program, result
            if trace:
                intern_peak = max(intern_peak, intern_table_size())
            n += 1
        walls.append(time.perf_counter() - started)
    wall = sum(walls)
    after = _snapshot()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems: list[str] = []
    wrong = set()
    spans.recording = trace
    for n, got, _, _, _ in records:
        program = parse_program(generate_program(program_shape(seed, n)))
        with spans.span("compiler.concrete", request=f"p{n}"):
            expected = SemanticAnalyzer(ConcreteBackend()).analyze(program)
        found = oracles.check_diagnostics(got, oracles.diagnostic_keys(expected))
        if found:
            wrong.add(n)
            problems.extend(f"p{n}: {p}" for p in found)
    spans.recording = False

    good = [r for r in records if r[0] not in wrong]
    latencies = [r[3] * 1000.0 for r in good]
    operations = sum(r[2] for r in records)
    metrics = {
        "setup_s": statistics.median(setups),
        "req_per_s": len(good) / wall,
        "ops_per_s": sum(r[2] for r in good) / sum(r[3] for r in good),
        "latency_p50_ms": percentile(latencies, 0.50),
        "latency_p95_ms": percentile(latencies, 0.95),
        "success_ratio": len(good) / len(records),
        "peak_rss_mb": rss_mb,
    }
    if trace:
        times = spans.self_times()
        for op in OPERATIONS:
            op_ms = times.get(f"symtab.{op}", [0.0])
            metrics[f"symtab.{op}_us"] = 1000.0 * statistics.median(op_ms)
        metrics["compiler.parse_ms"] = statistics.fmean(times["compiler.parse"])
        metrics["compiler.analyze_self_ms"] = statistics.fmean(
            times["compiler.analyze"]
        )
        metrics["compiler.concrete_ms"] = statistics.fmean(times["compiler.concrete"])
        metrics["algebra.intern_table_peak"] = float(intern_peak)
        metrics.update(
            counters.rewrite_layers(counters.delta(before, after), operations)
        )
        traced_ms = [r[3] for r in records if r[4]]
        untraced_ms = [r[3] for r in records if not r[4]]
        metrics["trace.overhead_pct"] = 100.0 * (
            statistics.fmean(traced_ms) / statistics.fmean(untraced_ms) - 1.0
        )
        spans.write(out / f"spans-{workload}-seed{seed}.jsonl")
    return {
        "correct": not problems,
        "attempted": len(records),
        "failed": len(records) - len(good),
        "metrics": metrics,
        "problems": problems,
        "self_times": spans.summary(),
        "config": {
            "load_threads": 1,
            "connections": 0,
            "loop": "closed, in process",
            "daemon_argv": None,
            "backend": "SpecBackend() (interpreted engine, library defaults)",
            "setup_processes": SETUP_PROCESSES,
            "setup_s_samples": setups,
            "latency_samples": len(latencies),
            "shape": SHAPE,
        },
    }
