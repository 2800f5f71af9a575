"""Inline-or-pool dispatch in a live ``repro serve`` daemon.

A session with a shard pool evaluates a batch inline on its warm engine
when the batch's total subject size is below ``FANOUT_MIN_SIZE`` and
fans it out to the pool at or above it.  The two paths must be
indistinguishable to the client (the differential below, on both sides
of the line), and the choice must be visible: shipped chunks, the
``serve.dispatched_items`` family on ``/metrics``.
"""

from __future__ import annotations

import pytest

from repro.adt.queue import QUEUE_SPEC
from repro.adt.stack import STACK_SPEC
from repro.obs import metrics as _metrics
from repro.serve import FANOUT_MIN_SIZE, ReproServer, ServeClient, clamp_budget
from tests.serve.batches import sized_batch

CHUNKS = "repro_parallel_chunks_total"
INLINE = 'repro_serve_dispatched_items_total{key="inline"}'
POOL = 'repro_serve_dispatched_items_total{key="pool"}'


@pytest.fixture(scope="module")
def served():
    with ReproServer(
        [QUEUE_SPEC, STACK_SPEC],
        workers=2,
        registry=_metrics.MetricsRegistry("dispatch-test"),
    ) as server:
        host, port = server.address
        with ServeClient(host, port, timeout=30.0, retries=0) as client:
            yield server, client


def _scrape(client: ServeClient) -> dict[str, float]:
    samples = {}
    for line in client.metrics().splitlines():
        for name in (CHUNKS, INLINE, POOL):
            if line.startswith(name + " "):
                samples[name] = float(line.split(" ")[1])
    return samples


def _delta(before: dict, after: dict, name: str) -> float:
    return after.get(name, 0.0) - before.get(name, 0.0)


@pytest.mark.parametrize("spec", ["Queue", "Stack"])
@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_inline_and_pool_paths_agree(served, spec, offset):
    server, client = served
    total = FANOUT_MIN_SIZE + offset
    terms = sized_batch(total, f"diff{spec}{offset}", spec)
    answered = client.normalize(terms, spec=spec)
    session = server.sessions[spec]
    budget = clamp_budget(None, server.limits)
    pooled = session.supervisor.normalize_many_outcomes(terms, budget)
    with session.lock:
        inline = session.engine.normalize_many_outcomes(terms, budget)

    # Normal forms and statuses only.  Fuel charged is deliberately not
    # compared: it depends on each engine's memo history (ROADMAP item
    # 1), and the inline engine and the pool workers have different
    # histories by construction.
    def view(outcomes):
        return [(outcome.status, outcome.term) for outcome in outcomes]

    assert view(answered) == view(pooled)
    assert view(inline) == view(pooled)
    statuses = {outcome.status for outcome in pooled}
    assert statuses == {"normalized", "error_value"}


def test_dispatch_follows_batch_size(served):
    _, client = served
    small = sized_batch(FANOUT_MIN_SIZE - 1, "route-small")
    before = _scrape(client)
    assert all(o.ok for o in client.normalize(small, spec="Queue"))
    after = _scrape(client)
    assert _delta(before, after, CHUNKS) == 0
    assert _delta(before, after, INLINE) == len(small)
    assert _delta(before, after, POOL) == 0

    large = sized_batch(FANOUT_MIN_SIZE, "route-large")
    before = after
    assert all(o.ok for o in client.normalize(large, spec="Queue"))
    after = _scrape(client)
    assert _delta(before, after, CHUNKS) >= 1
    assert _delta(before, after, POOL) == len(large)
    assert _delta(before, after, INLINE) == 0


def test_serial_daemon_counts_every_item_inline():
    registry = _metrics.MetricsRegistry("dispatch-serial-test")
    with ReproServer([QUEUE_SPEC], registry=registry) as server:
        host, port = server.address
        with ServeClient(host, port, timeout=30.0, retries=0) as client:
            terms = sized_batch(FANOUT_MIN_SIZE + 1, "serial")
            client.normalize(terms, spec="Queue")
    family = registry.snapshot()["families"]["serve.dispatched_items"]
    assert family == {"inline": len(terms)}
