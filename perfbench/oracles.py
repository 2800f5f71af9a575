"""Answer checkers, independent of the rewrite engine under test.

Each checker returns a list of human-readable mismatches (empty when
every answer is right).  The expected answers come from plain Python
models: the first payload of a queue, a ``collections.deque`` replay of
``REMOVE``, the known truth of each proof goal, and the diagnostics of
the hand-written ``ConcreteBackend`` symbol table.  The checkers run
after the timed region.
"""

from __future__ import annotations

from collections import deque
from typing import Sequence

NORMALIZED = "normalized"
ERROR_VALUE = "error_value"


def _literal(outcome) -> object:
    return getattr(getattr(outcome, "term", None), "value", None)


def check_fronts(outcomes: Sequence, queues: Sequence[Sequence[str]]) -> list[str]:
    """``FRONT(q)`` must normalize to the first payload of ``q``."""
    if len(outcomes) != len(queues):
        return [f"{len(outcomes)} outcomes for {len(queues)} terms"]
    wrong = []
    for n, (outcome, payloads) in enumerate(zip(outcomes, queues)):
        if outcome.status != NORMALIZED or _literal(outcome) != payloads[0]:
            wrong.append(
                f"item {n}: FRONT gave {outcome.status} "
                f"{_literal(outcome)!r}, expected {payloads[0]!r}"
            )
    return wrong


def check_proofs(results: Sequence[dict], expected: Sequence[bool]) -> list[str]:
    """Each goal's ``proved`` flag must equal its known truth."""
    got = [r.get("proved") for r in results]
    if got != list(expected):
        return [f"proofs {got}, expected {list(expected)}"]
    return []


def check_removes(
    outcomes: Sequence, queues: Sequence[Sequence[str]], ks: Sequence[int]
) -> list[str]:
    """``FRONT(REMOVE^k(q))`` must equal item ``k`` of a deque replay of
    ``q``, and be the ``error`` value once the replay has emptied it."""
    if len(outcomes) != len(ks):
        return [f"{len(outcomes)} outcomes for {len(ks)} terms"]
    wrong = []
    for n, (outcome, payloads, k) in enumerate(zip(outcomes, queues, ks)):
        replay = deque(payloads)
        for _ in range(k):
            replay.popleft()
        if replay:
            ok = outcome.status == NORMALIZED and _literal(outcome) == replay[0]
            want = repr(replay[0])
        else:
            ok = outcome.status == ERROR_VALUE
            want = "error"
        if not ok:
            wrong.append(
                f"item {n}: FRONT(REMOVE^{k}) gave {outcome.status} "
                f"{_literal(outcome)!r}, expected {want}"
            )
    return wrong


def diagnostic_keys(result) -> list[tuple]:
    """The comparable part of an analysis: ``(code, span)`` in order."""
    return [
        (d.code.name, d.span.line, d.span.column)
        for d in result.diagnostics.diagnostics
    ]


def check_diagnostics(got: Sequence[tuple], expected: Sequence[tuple]) -> list[str]:
    """The spec-backed analysis must report exactly the concrete
    backend's diagnostics."""
    got, expected = list(got), list(expected)
    if got != expected:
        first = next(
            (n for n, pair in enumerate(zip(got, expected)) if pair[0] != pair[1]),
            min(len(got), len(expected)),
        )
        return [
            f"diagnostic {first}: got {got[first:first + 1]}, "
            f"expected {expected[first:first + 1]} "
            f"({len(got)} vs {len(expected)} diagnostics)"
        ]
    return []
