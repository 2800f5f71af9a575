"""Request batches of an exact total subject size.

``repro serve`` evaluates a batch inline when ``sum(t.size() for t in
terms)`` is below :data:`~repro.serve.server.FANOUT_MIN_SIZE` and fans
it out to the shard pool otherwise, so tests that must land on one side
of that line build their batches here, from the constant.
"""

from __future__ import annotations

from repro.adt.queue import FRONT, REMOVE, queue_term
from repro.adt.stack import ELEM, NEWSTACK, POP, PUSH, TOP
from repro.algebra.terms import App, Lit


def _stack_term(values) -> App:
    term = App(NEWSTACK, ())
    for value in values:
        term = App(PUSH, (term, Lit(value, ELEM)))
    return term


#: spec name -> (observer, dropper, constructor term from payloads)
_SHAPES = {
    "Queue": (FRONT, REMOVE, queue_term),
    "Stack": (TOP, POP, _stack_term),
}


def sized_batch(total: int, tag: str, spec: str = "Queue") -> list:
    """Terms over ``spec`` whose sizes sum to exactly ``total`` (>= 5).

    The first item observes an empty structure (``FRONT(NEW)``, an
    ``error_value``); the rest observe 14-element structures (size 30)
    and one last ``k``-element structure (size ``2k + 2``), wrapped in
    one REMOVE/POP (size ``2k + 3``) when ``total`` is odd.  Payloads
    are unique per ``tag``.
    """
    observe, drop, build = _SHAPES[spec]

    def structure(n: int, k: int):
        return build([f"{tag}i{n}e{m}" for m in range(k)])

    terms = [App(observe, (structure(0, 0),))]
    remaining = total - 2
    while remaining >= 60:
        terms.append(App(observe, (structure(len(terms), 14),)))
        remaining -= 30
    if remaining % 2:
        last = App(drop, (structure(len(terms), (remaining - 3) // 2),))
    else:
        last = structure(len(terms), (remaining - 2) // 2)
    terms.append(App(observe, (last,)))
    assert sum(term.size() for term in terms) == total
    return terms


def fanout_batch(tag: str, spec: str = "Queue") -> list:
    """The smallest batch the daemon ships to its shard pool."""
    from repro.serve import FANOUT_MIN_SIZE

    return sized_batch(FANOUT_MIN_SIZE, tag, spec)
