"""Each answer checker accepts the program's right answers and rejects a
planted wrong one.

    python3 -m pytest perfbench/test_oracles.py -q
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import oracles  # noqa: E402
import workloads  # noqa: E402
from repro.adt.queue import QUEUE_SPEC  # noqa: E402
from repro.algebra.terms import Err  # noqa: E402
from repro.rewriting import RewriteEngine  # noqa: E402
from repro.runtime.outcome import Outcome  # noqa: E402
from repro.spec.prelude import item  # noqa: E402


def _answers(workload: str):
    request = next(workloads.requests(workload, seed=7, thread=0))
    engine = RewriteEngine.for_specification(QUEUE_SPEC, backend="codegen")
    return request, engine.normalize_many_outcomes(request.subjects)


def test_fronts_accepts_right_and_rejects_wrong_payload():
    request, outcomes = _answers("serve-small")
    assert oracles.check_fronts(outcomes, request.queues) == []
    planted = list(outcomes)
    planted[3] = Outcome.of_normal_form(item(request.queues[3][1]))
    assert len(oracles.check_fronts(planted, request.queues)) == 1
    assert oracles.check_fronts(outcomes[:-1], request.queues) != []


def test_removes_accepts_right_and_rejects_wrong_item_or_status():
    request, outcomes = _answers("serve-heavy")
    assert oracles.check_removes(outcomes, request.queues, request.ks) == []
    n = next(i for i, k in enumerate(request.ks) if k < workloads.HEAVY_QUEUE - 1)
    planted = list(outcomes)
    planted[n] = Outcome.of_normal_form(item(request.queues[n][request.ks[n] + 1]))
    assert len(oracles.check_removes(planted, request.queues, request.ks)) == 1
    # At k = len(q) the answer must be the error value, not a payload.
    ks = list(request.ks)
    ks[n] = workloads.HEAVY_QUEUE
    assert len(oracles.check_removes(outcomes, request.queues, ks)) == 1
    # Below len(q) the error value is wrong.
    error = Outcome.of_normal_form(Err(QUEUE_SPEC.operation("FRONT").range))
    assert error.status == oracles.ERROR_VALUE
    planted = list(outcomes)
    planted[n] = error
    assert len(oracles.check_removes(planted, request.queues, request.ks)) == 1


def test_proofs_rejects_a_false_goal_proved():
    expected = workloads.PROVE_EXPECTED
    right = [{"proved": p} for p in expected]
    assert oracles.check_proofs(right, expected) == []
    assert oracles.check_proofs([{"proved": True}] * 4, expected) != []
    assert oracles.check_proofs(right[:3], expected) != []


def test_prove_goals_have_the_stated_truth():
    from repro.analysis.classify import classify
    from repro.rewriting import RuleSet
    from repro.verify.prover import EquationalProver
    from repro.verify.skolem import skolemize_pair

    cls = classify(QUEUE_SPEC)
    prover = EquationalProver(
        RuleSet.from_specification(QUEUE_SPEC),
        constructors={cls.type_of_interest: tuple(cls.constructors)},
    )
    ops = workloads._Ops()
    for truth, templates in (
        (True, workloads._TRUE_GOALS),
        (False, workloads._FALSE_GOALS),
    ):
        for template in templates:
            lhs, rhs = template(ops)
            assert prover.prove(*skolemize_pair(lhs, rhs)[:2]).proved is truth


def test_diagnostics_rejects_a_missing_or_moved_diagnostic():
    from repro.compiler import (
        ConcreteBackend,
        SemanticAnalyzer,
        SpecBackend,
        WorkloadShape,
        generate_program,
        parse_program,
    )
    from symtab_bench import SHAPE

    program = parse_program(generate_program(WorkloadShape(**SHAPE, seed=3)))
    got = oracles.diagnostic_keys(SemanticAnalyzer(SpecBackend()).analyze(program))
    concrete = SemanticAnalyzer(ConcreteBackend()).analyze(program)
    expected = oracles.diagnostic_keys(concrete)
    assert got and oracles.check_diagnostics(got, expected) == []
    assert oracles.check_diagnostics(got[1:], expected) != []
    code, line, column = got[0]
    moved = [(code, line + 1, column), *got[1:]]
    assert oracles.check_diagnostics(moved, expected) != []


def test_requests_are_a_function_of_the_seed():
    def first(seed):
        stream = workloads.requests("serve-heavy", seed, 0)
        return [dataclasses.replace(next(stream), subjects=None) for _ in range(3)]

    assert first(5) == first(5)
    assert first(5) != first(6)
