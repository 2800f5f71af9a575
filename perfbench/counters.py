"""Per-layer metrics from the counters the program already exports.

The daemon exports them on ``/metrics`` in Prometheus text format; in
process, the same text comes from ``render_prometheus(aggregate_snapshot())``.
Both go through :func:`parse` and are compared before and after the
measured window with :func:`delta`.
"""

from __future__ import annotations

import re

OUTCOME_STATUSES = ("normalized", "error_value", "truncated", "diverged")
_LINE = re.compile(r'^([A-Za-z_:][\w:]*)(?:\{key="((?:[^"\\]|\\.)*)"\})? (\S+)$')


def parse(text: str) -> dict[str, float]:
    """Unlabelled samples by name; ``key``-labelled samples as
    ``name{label}`` and summed under ``name``.  Histogram buckets are
    skipped (their ``_sum`` and ``_count`` are kept)."""
    values: dict[str, float] = {}
    for line in text.splitlines():
        match = _LINE.match(line)
        if match is None:
            continue
        name, label, raw = match.groups()
        value = float(raw)
        if label is None:
            values[name] = value
        else:
            values[f"{name}{{{label}}}"] = value
            values[name] = values.get(name, 0.0) + value
    return values


def delta(before: dict, after: dict) -> dict[str, float]:
    return {k: v - before.get(k, 0.0) for k, v in after.items()}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def rewrite_layers(d: dict[str, float], items: float) -> dict[str, float]:
    """The rewriting, rule-index and interning layers, from a counter
    delta ``d`` covering ``items`` evaluated items."""
    outcomes = d.get("repro_engine_outcomes_total", 0.0)
    metrics = {
        "rewrite.steps_per_item": _ratio(d.get("repro_engine_steps_total", 0.0), items),
        "rewrite.eval_ms_per_item": 1000.0
        * _ratio(
            d.get("repro_engine_eval_seconds_sum", 0.0),
            d.get("repro_engine_eval_seconds_count", 0.0),
        ),
        "rewrite.memo_hit_ratio": _ratio(
            d.get("repro_engine_memo_hits_total", 0.0),
            d.get("repro_engine_memo_probes_total", 0.0),
        ),
        "rules.shape_memo_hit_ratio": _ratio(
            d.get("repro_rule_index_shape_memo_hits_total", 0.0),
            d.get("repro_rule_index_shape_memo_hits_total", 0.0)
            + d.get("repro_rule_index_shape_memo_misses_total", 0.0),
        ),
        "algebra.intern_hit_ratio": _ratio(
            d.get("repro_intern_hits_total", 0.0),
            d.get("repro_intern_hits_total", 0.0)
            + d.get("repro_intern_misses_total", 0.0),
        ),
    }
    for status in OUTCOME_STATUSES:
        metrics[f"rewrite.outcomes.{status}"] = _ratio(
            d.get(f"repro_engine_outcomes_total{{{status}}}", 0.0), outcomes
        )
    return metrics
