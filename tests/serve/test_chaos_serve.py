"""Chaos suite for the serving boundary — the PR's acceptance test.

Covers the two request-level fault sites (``serve.handle`` slow
handler, ``serve.respond`` dropped connection; the oversized-body shed
is deterministic and lives in ``test_server.py``), plus the headline
scenario: concurrent mixed healthy/diverging load with injected faults
and a SIGKILLed shard worker, through which the daemon must keep
returning per-item Outcomes, shed with structured 429/503, and recover
``/readyz`` within the respawn backoff window — never a hung connection
or a process exit.
"""

from __future__ import annotations

import os
import signal
import threading
import time

import pytest

from repro.adt.queue import FRONT, QUEUE_SPEC, queue_term
from repro.algebra.terms import App
from repro.obs import metrics as _metrics
from repro.serve import (
    ReproServer,
    ServeClient,
    ServeError,
    ServeLimits,
    ServeUnavailable,
)
from repro.testing.faults import FaultSpec, inject_faults
from tests.runtime.test_outcomes import CYCLE_SPEC, _cycling_term
from tests.serve.batches import fanout_batch


def _queue_subjects(n: int, tag: str) -> list:
    return [
        App(FRONT, (queue_term([f"{tag}{i}a", f"{tag}{i}b"]),))
        for i in range(n)
    ]


class TestRequestLevelFaultSites:
    def test_slow_handler_stalls_only_its_own_request(self):
        with ReproServer(
            [QUEUE_SPEC],
            limits=ServeLimits(max_inflight=4),
            registry=_metrics.MetricsRegistry("chaos-slow-test"),
        ) as server:
            host, port = server.address
            done: dict[str, float] = {}

            def slow_request() -> None:
                client = ServeClient(host, port, timeout=10.0, retries=0)
                client.normalize(_queue_subjects(1, "slow"))
                done["slow"] = time.monotonic()

            plan = {
                "serve.handle": FaultSpec(
                    kind="sleep", delay=0.5, probability=1.0, limit=1
                )
            }
            with inject_faults(plan) as injector:
                thread = threading.Thread(target=slow_request)
                thread.start()
                time.sleep(0.1)  # let the slow request absorb the fault
                fast = ServeClient(host, port, timeout=10.0, retries=0)
                outcomes = fast.normalize(_queue_subjects(1, "fast"))
                done["fast"] = time.monotonic()
                thread.join(timeout=10.0)
                assert not thread.is_alive()
            assert injector.fired.get("serve.handle") == 1
            assert outcomes[0].ok
            # The stalled handler held only its own connection: the
            # fast request finished while the slow one was sleeping.
            assert done["fast"] < done["slow"]

    def test_dropped_connection_is_contained(self):
        with ReproServer(
            [QUEUE_SPEC],
            registry=_metrics.MetricsRegistry("chaos-drop-test"),
        ) as server:
            host, port = server.address
            client = ServeClient(host, port, timeout=10.0, retries=0)
            plan = {
                "serve.respond": FaultSpec(
                    exception=BrokenPipeError, probability=1.0, limit=1
                )
            }
            with inject_faults(plan) as injector:
                with pytest.raises(ServeUnavailable):
                    client.normalize(_queue_subjects(1, "dropped"))
            assert injector.fired.get("serve.respond") == 1
            # The daemon survived its own dropped connection.
            assert client.healthz()["ok"] is True
            assert client.normalize(_queue_subjects(1, "after"))[0].ok

    def test_overload_sheds_structured_429(self):
        with ReproServer(
            [QUEUE_SPEC],
            limits=ServeLimits(
                max_inflight=1, queue_depth=0, retry_after=0.01
            ),
            registry=_metrics.MetricsRegistry("chaos-shed-test"),
        ) as server:
            host, port = server.address
            plan = {
                "serve.handle": FaultSpec(
                    kind="sleep", delay=0.5, probability=1.0, limit=1
                )
            }
            with inject_faults(plan):
                holder = threading.Thread(
                    target=lambda: ServeClient(
                        host, port, timeout=10.0, retries=0
                    ).normalize(_queue_subjects(1, "hold"))
                )
                holder.start()
                time.sleep(0.1)  # the holder owns the only slot now
                with pytest.raises(ServeError) as exc:
                    ServeClient(host, port, timeout=10.0, retries=0).normalize(
                        _queue_subjects(1, "shed")
                    )
                holder.join(timeout=10.0)
            assert exc.value.status == 429
            assert exc.value.reason == "queue_full"
            # Shedding is not dying: the next request sails through.
            client = ServeClient(host, port, timeout=10.0, retries=0)
            assert client.normalize(_queue_subjects(1, "next"))[0].ok


class TestChaosAcceptance:
    """Concurrent load + injected faults + a SIGKILLed worker.

    The Queue batches are sized at the fan-out threshold, so they reach
    the shard workers the SIGKILL targets instead of evaluating inline.
    """

    THREADS = 4
    REQUESTS = 5

    def _worker_load(self, host, port, results, tag):
        client = ServeClient(
            host,
            port,
            timeout=20.0,
            retries=2,
            backoff=0.01,
            seed=sum(map(ord, tag)),
        )
        for i in range(self.REQUESTS):
            diverging = i % 2 == 1
            try:
                if diverging:
                    outcomes = client.normalize(
                        [_cycling_term()], spec=CYCLE_SPEC.name
                    )
                    sent = 1
                else:
                    subjects = fanout_batch(f"{tag}{i}")
                    outcomes = client.normalize(subjects, spec="Queue")
                    sent = len(subjects)
                results.append(("ok", diverging, sent, outcomes))
            except ServeUnavailable as exc:
                results.append(("shed", diverging, 0, exc))
            except ServeError as exc:  # pragma: no cover - would fail below
                results.append(("final", diverging, 0, exc))

    def test_acceptance(self):
        registry = _metrics.MetricsRegistry("chaos-acceptance-test")
        with ReproServer(
            [QUEUE_SPEC, CYCLE_SPEC],
            workers=2,
            limits=ServeLimits(
                max_fuel=3_000,
                max_inflight=2,
                queue_depth=2,
                queue_timeout=0.5,
                retry_after=0.02,
            ),
            supervisor_options={
                "backoff_base": 0.05,
                "backoff_cap": 0.5,
                "max_crashes": 20,
            },
            registry=registry,
        ) as server:
            host, port = server.address
            plan = {
                "serve.handle": FaultSpec(
                    kind="sleep", delay=0.02, probability=0.2
                ),
                "serve.respond": FaultSpec(
                    exception=BrokenPipeError, probability=0.05, limit=3
                ),
            }
            results: list = []
            threads = [
                threading.Thread(
                    target=self._worker_load,
                    args=(host, port, results, f"t{n}"),
                )
                for n in range(self.THREADS)
            ]
            with inject_faults(plan):
                for thread in threads:
                    thread.start()
                # Mid-load: SIGKILL one live shard worker of the Queue
                # session — the executor will not notice until the next
                # batch; /readyz probing and the supervisor must.
                time.sleep(0.1)
                victims = server.sessions["Queue"].supervisor.worker_pids()
                if victims:
                    os.kill(victims[0], signal.SIGKILL)
                for thread in threads:
                    thread.join(timeout=60.0)
                # Never a hung connection: every thread came back.
                assert not any(thread.is_alive() for thread in threads)

            # Every request resolved: per-item Outcomes, or a
            # structured shed/drop — zero silently lost batches.
            assert len(results) == self.THREADS * self.REQUESTS
            assert not [r for r in results if r[0] == "final"]
            completed = [r for r in results if r[0] == "ok"]
            assert completed, "chaos run completed no requests at all"
            for _, diverging, sent, outcomes in completed:
                assert len(outcomes) == sent  # per-item, in order
                if diverging:
                    # The cycling term resolves *as data* for its own
                    # caller; neighbours and the process keep serving.
                    assert outcomes[0].status in ("truncated", "diverged")
                else:
                    assert all(outcome.ok for outcome in outcomes)
            for _, _, _, exc in [r for r in results if r[0] == "shed"]:
                # Structured shedding or an injected dropped
                # connection — never a timeout-shaped hang.
                assert exc.status in (429, 503, 0)

            # /readyz recovers within the backoff window: the killed
            # worker's pool respawns and the circuit settles closed.
            deadline = time.monotonic() + 15.0
            client = ServeClient(host, port, timeout=10.0, retries=0)
            ready = client.readyz()
            while time.monotonic() < deadline and not ready["ready"]:
                time.sleep(0.1)
                ready = client.readyz()
            assert ready["ready"] is True
            assert ready["status"] == 200
            assert ready["specs"]["Queue"]["circuit"] == "closed"
            new_pids = ready["specs"]["Queue"]["worker_pids"]
            if victims:
                assert victims[0] not in new_pids
                assert registry.counters["serve.worker_crashes"].value >= 1
                assert registry.counters["serve.pool_respawns"].value >= 1

            # And the respawned pool still evaluates correctly after
            # the storm.
            subjects = fanout_batch("post")
            outcomes = client.normalize(subjects, spec="Queue")
            assert len(outcomes) == len(subjects)
            assert all(outcome.ok for outcome in outcomes)
