"""The solver against the one it replaced, on the CNFs the oracle builds.

oracle._dpll_models indexes its occurrence lists by literal and tests
literal values inline; tests/oracle_reference.py's dpll_models is the
solver as it was before.  Both must decide the same variables in the same
order and backtrack the same way, so on every CNF they must yield the same
sequence of assignments, with and without projection: the models the
oracle reports, and the order in which it enumerates reducts, depend on it.

The CNFs are the ones the oracle hands its solver while it answers the
corpus questions and the property-suite cases, and hand-written edge cases.
"""

import random

import pytest
from oracle_reference import dpll_models
from test_property_suites import SEEDS, random_target, random_theory

from sitcalc import oracle
from sitcalc.forgetting import GroundAtom, forget_atom
from sitcalc.oracle import OracleConfig, _dpll_models, _Search
from sitcalc.syntax import Signature, Theory

CFG = OracleConfig(max_extra=1)
NO_UNA = OracleConfig(max_extra=1, una=False)
DELTA = Signature(objects=frozenset({"c1"}), statics=frozenset({("P", 1)}))


def assignments(solver, nvars, clauses, project):
    """The values of variables 1..nvars in each assignment the solver yields."""
    budget = _Search(OracleConfig(), Signature(), frozenset())
    return [tuple(a[1 : nvars + 1]) for a in solver(nvars, clauses, budget, project)]


def assert_same_models(nvars, clauses, project):
    want = assignments(dpll_models, nvars, clauses, project)
    got = assignments(_dpll_models, nvars, clauses, project)
    assert got == want, (nvars, clauses, project)


def recorded_cnfs(monkeypatch, questions):
    """Each (nvars, clauses, project) the oracle solves while asking questions."""
    cnfs = []
    solve = oracle._dpll_models

    def record(nvars, clauses, budget, project=()):
        cnfs.append((nvars, [list(cl) for cl in clauses], list(project)))
        return solve(nvars, clauses, budget, project)

    monkeypatch.setattr(oracle, "_dpll_models", record)
    for ask in questions:
        ask()
    monkeypatch.undo()
    return cnfs


def check_recorded(cnfs):
    assert cnfs
    for nvars, clauses, project in cnfs:
        assert_same_models(nvars, clauses, project)
        if project:  # the question's own CNF without its projection, too
            assert_same_models(nvars, clauses, [])


def test_corpus_questions(monkeypatch, chain, insep_pair, blocks_stacks):
    _, theory = chain
    (_, one), (_, two) = insep_pair
    g = GroundAtom("R", ("c", "c"), None)
    forgot1, forgot2 = forget_atom(one, g), forget_atom(two, g)
    delta_r = Signature(objects=frozenset({"c"}), statics=frozenset({("R", 2)}))
    stacks = blocks_stacks.init
    questions = [
        lambda: oracle.entails(theory, theory.axioms[-1], CFG),
        lambda: oracle.satisfiable(theory, NO_UNA),
        lambda: oracle.equivalent(one, two, CFG),
        lambda: oracle.equivalent(one, two, NO_UNA),
        lambda: oracle.satisfiable(stacks, OracleConfig(max_extra=0)),
        lambda: oracle.verify_forgetting(one, g, forgot1, CFG),
        lambda: oracle.check_inseparable(forgot1, forgot2, delta_r, CFG),
        lambda: oracle.check_expansion(one, two, CFG),
        lambda: list(oracle.models(Theory(theory.axioms[:1]), NO_UNA)),
    ]
    check_recorded(recorded_cnfs(monkeypatch, questions))


@pytest.mark.parametrize("cfg", [CFG, NO_UNA], ids=["una", "no-una"])
def test_property_suite_questions(monkeypatch, cfg):
    # the short witness search tries sentences by evaluation, not by solving
    short_witnesses = OracleConfig(max_extra=0, una=cfg.una, witness_depth=1)
    questions = []
    for seed in SEEDS[::4]:
        rng = random.Random(seed)
        t, other, g = random_theory(rng), random_theory(rng), random_target(rng)
        questions += [
            lambda t=t, other=other: oracle.equivalent(t, other, cfg),
            lambda t=t, g=g: oracle.verify_forgetting(t, g, forget_atom(t, g), cfg),
            lambda t=t, other=other: oracle.check_inseparable(t, other, DELTA, short_witnesses),
        ]
    check_recorded(recorded_cnfs(monkeypatch, questions))


@pytest.mark.parametrize(
    "nvars, clauses",
    [
        (1, [[1], []]),
        (2, [[]]),
        (1, [[1], [-1]]),
        (2, [[1, 2], [2], [-2]]),
        (2, [[1, 1], [-1, 2]]),
        (2, [[-2, -2], [1, 1, 2], [-1, -1]]),
        (2, [[1, -1], [2]]),
        (3, [[1, -1, 2], [-2, 3, 3], [-3, -1]]),
        (4, [[2, 3]]),
        (3, []),
        (0, []),
    ],
    ids=[
        "empty-clause-after-a-unit",
        "empty-clause-alone",
        "conflicting-units",
        "conflicting-units-behind-a-clause",
        "duplicated-literal",
        "duplicated-literals-to-a-conflict",
        "complementary-literals",
        "complementary-and-duplicated",
        "variables-in-no-clause",
        "no-clauses",
        "no-variables",
    ],
)
def test_edge_cases(nvars, clauses):
    for project in ([], list(range(1, nvars + 1)), list(range(nvars, 0, -2))):
        assert_same_models(nvars, clauses, project)


def test_random_cnfs_with_repeated_and_unused_variables():
    rng = random.Random(17)
    for _ in range(300):
        nvars = rng.randrange(1, 8)
        clauses = [
            [rng.choice((1, -1)) * rng.randrange(1, nvars + 1) for _ in range(rng.randrange(1, 4))]
            for _ in range(rng.randrange(0, 3 * nvars))
        ]
        project = rng.sample(range(1, nvars + 1), rng.randrange(0, nvars + 1))
        assert_same_models(nvars, clauses, project)


def test_repeated_projected_variables_and_cnfs_that_units_settle():
    # a variable listed twice in project is ranked once, among the projected
    rng = random.Random(19)
    for _ in range(200):
        nvars = rng.randrange(1, 7)
        clauses = [
            [rng.choice((1, -1)) * rng.randrange(1, nvars + 1) for _ in range(rng.randrange(1, 4))]
            for _ in range(rng.randrange(0, 3 * nvars))
        ]
        project = [rng.randrange(1, nvars + 1) for _ in range(rng.randrange(0, 2 * nvars))]
        assert_same_models(nvars, clauses, project)
    # units and propagation assign every variable before any decision
    for project in ([], [3, 1], [2, 2]):
        assert_same_models(3, [[1], [-1, 2], [-2, -3]], project)
        assert_same_models(3, [[-3], [1, 3], [-1, 3, -2]], project)
