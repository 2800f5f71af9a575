"""Seeded request streams for the serve workloads.

Everything the daemon receives is built here from ``(seed, workload,
thread)``: the same seed gives the same requests.  Each request carries
its subjects (terms for the client) and the plain-Python data its
oracle needs (payload strings, ``k`` values, known goal truths); the
oracle never looks at the terms.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

#: serve-small: a normalize of SMALL_ITEMS ``FRONT`` observations over
#: SMALL_QUEUE-element queues; every PROVE_EVERY-th request is a prove.
SMALL_ITEMS = 8
SMALL_QUEUE = 3
PROVE_EVERY = 8
#: serve-heavy: HEAVY_ITEMS terms ``FRONT(REMOVE^k(q))`` per request,
#: each over its own HEAVY_QUEUE-element queue of fresh payloads whose
#: first HEAVY_SHARED payloads are common to the request.  ``k`` steps
#: through 0..HEAVY_QUEUE by HEAVY_STRIDE (coprime to HEAVY_QUEUE + 1),
#: so every request spreads over the whole range and, once per cycle,
#: an item evaluates ``FRONT(NEW)`` to ``error``.
HEAVY_ITEMS = 8
HEAVY_QUEUE = 56
HEAVY_SHARED = 28
HEAVY_STRIDE = 7


@dataclass
class Request:
    kind: str  # "normalize" or "prove"
    subjects: list  # terms, or (lhs, rhs) goal pairs for a prove
    queues: list  # payloads of each item's queue
    ks: list  # serve-heavy: REMOVE count of each item
    expected: list  # prove: each goal's truth


# Goal templates over the variables o.q: Queue and o.i, o.j: Item, by
# their known truth.
# The daemon skolemises the variables, so each is a universal claim.
_TRUE_GOALS = (
    lambda o: (o.IS_EMPTY(o.ADD(o.q, o.i)), o.FALSE),
    lambda o: (o.FRONT(o.ADD(o.NEW(), o.i)), o.i),
    lambda o: (o.REMOVE(o.ADD(o.NEW(), o.i)), o.NEW()),
    lambda o: (o.FRONT(o.ADD(o.ADD(o.NEW(), o.i), o.j)), o.i),
    lambda o: (o.IS_EMPTY(o.REMOVE(o.ADD(o.NEW(), o.i))), o.TRUE),
    lambda o: (
        o.REMOVE(o.ADD(o.ADD(o.NEW(), o.i), o.j)),
        o.ADD(o.NEW(), o.j),
    ),
    lambda o: (
        o.FRONT(o.ADD(o.ADD(o.q, o.i), o.j)),
        o.FRONT(o.ADD(o.q, o.i)),
    ),
)
_FALSE_GOALS = (
    lambda o: (o.FRONT(o.ADD(o.ADD(o.NEW(), o.i), o.j)), o.j),
    lambda o: (o.IS_EMPTY(o.ADD(o.q, o.i)), o.TRUE),
    lambda o: (
        o.REMOVE(o.ADD(o.ADD(o.NEW(), o.i), o.j)),
        o.ADD(o.NEW(), o.i),
    ),
)
PROVE_EXPECTED = [True, True, True, False]


class _Ops:
    """Term builders over the library's Queue specification."""

    def __init__(self) -> None:
        from repro.adt import queue
        from repro.algebra.terms import App, Var
        from repro.spec.prelude import FALSE, TRUE

        self._q, self._App = queue, App
        self.TRUE, self.FALSE = App(TRUE, ()), App(FALSE, ())
        self.q = Var("q", queue.QUEUE)
        self.i = Var("i", queue.ADD.domain[1])
        self.j = Var("j", queue.ADD.domain[1])

    def NEW(self):
        return self._App(self._q.NEW, ())

    def ADD(self, q, i):
        return self._App(self._q.ADD, (q, i))

    def FRONT(self, q):
        return self._App(self._q.FRONT, (q,))

    def REMOVE(self, q):
        return self._App(self._q.REMOVE, (q,))

    def IS_EMPTY(self, q):
        return self._App(self._q.IS_EMPTY, (q,))

    def queue(self, payloads):
        return self._q.queue_term(payloads)


def requests(workload: str, seed: int, thread: int) -> Iterator[Request]:
    """The endless request stream of one load thread."""
    rng = random.Random(f"{seed}:{workload}:{thread}")
    ops = _Ops()
    n = 0
    while True:
        tag = f"s{seed}t{thread}r{n}"
        if workload == "serve-small":
            if n % PROVE_EVERY == PROVE_EVERY - 1:
                yield _prove(ops, rng)
            else:
                yield _small(ops, tag)
        elif workload == "serve-heavy":
            yield _heavy(ops, rng, tag)
        else:
            raise ValueError(f"not a serve workload: {workload}")
        n += 1


def _small(ops: _Ops, tag: str) -> Request:
    queues = [
        [f"{tag}i{n}e{m}" for m in range(SMALL_QUEUE)]
        for n in range(SMALL_ITEMS)
    ]
    subjects = [ops.FRONT(ops.queue(payloads)) for payloads in queues]
    return Request("normalize", subjects, queues, [], [])


def _prove(ops: _Ops, rng: random.Random) -> Request:
    templates = rng.sample(_TRUE_GOALS, 3) + [rng.choice(_FALSE_GOALS)]
    goals = [template(ops) for template in templates]
    return Request("prove", goals, [], [], list(PROVE_EXPECTED))


def _heavy(ops: _Ops, rng: random.Random, tag: str) -> Request:
    shared = [f"{tag}p{m}" for m in range(HEAVY_SHARED)]
    queues = [
        shared + [f"{tag}i{n}e{m}" for m in range(HEAVY_SHARED, HEAVY_QUEUE)]
        for n in range(HEAVY_ITEMS)
    ]
    start = rng.randrange(HEAVY_QUEUE + 1)
    ks = [(start + n * HEAVY_STRIDE) % (HEAVY_QUEUE + 1) for n in range(HEAVY_ITEMS)]
    subjects = []
    for payloads, k in zip(queues, ks):
        term = ops.queue(payloads)
        for _ in range(k):
            term = ops.REMOVE(term)
        subjects.append(ops.FRONT(term))
    return Request("normalize", subjects, queues, ks, [])
