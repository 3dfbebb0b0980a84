"""Randomized invariant checks for forgetting, over small seeded vocabularies.

Each property gets one hundred generated cases.  Cases are derived from the
seed alone, so every run sees the same theories.  The verification suite uses
a two-constant vocabulary, small enough for the brute-force reference that
test_oracle_differential.py runs on cases from the same generators.
"""

import random

import pytest

from sitcalc.forgetting import GroundAtom, forget_atom
from sitcalc.oracle import (
    OracleConfig,
    entails,
    equivalent,
    is_positive,
    verify_forgetting,
)
from sitcalc.syntax import (
    And,
    Const,
    Exists,
    Forall,
    Implies,
    Not,
    ObjEq,
    Or,
    StaticAtom,
    Theory,
    Var,
)

CFG = OracleConfig(max_extra=1)
CONSTS = ("c1", "c2", "c3")
SMALL_CONSTS = ("c1", "c2")
ALL_PREDS = ("P", "R", "=")
NO_P = ("R", "=")
SEEDS = range(100)


def _term(rng, scope, consts):
    if scope and rng.random() < 0.5:
        return Var(rng.choice(scope))
    return Const(rng.choice(consts))


def _atom(rng, scope, preds, consts):
    name = rng.choice(preds)
    if name == "P":
        return StaticAtom("P", (_term(rng, scope, consts),))
    if name == "R":
        return StaticAtom("R", (_term(rng, scope, consts), _term(rng, scope, consts)))
    return ObjEq(_term(rng, scope, consts), _term(rng, scope, consts))


def random_formula(rng, depth, scope, preds, consts=CONSTS):
    if depth == 0 or rng.random() < 0.3:
        return _atom(rng, scope, preds, consts)
    k = rng.randrange(6)
    if k == 0:
        return Not(random_formula(rng, depth - 1, scope, preds, consts))
    if k <= 3:
        cls = (And, Implies, Or)[k - 1]
        return cls(
            random_formula(rng, depth - 1, scope, preds, consts),
            random_formula(rng, depth - 1, scope, preds, consts),
        )
    v = "xyz"[len(scope) % 3]
    cls = Forall if k == 4 else Exists
    return cls(Var(v), random_formula(rng, depth - 1, scope + [v], preds, consts))


def random_theory(rng, preds=ALL_PREDS, consts=CONSTS):
    n = rng.randrange(1, 4)
    return Theory(tuple(random_formula(rng, 2, [], preds, consts) for _ in range(n)))


def random_target(rng, consts=CONSTS):
    return GroundAtom("P", (rng.choice(consts),), None)


def check_idempotence(seed: int, cfg: OracleConfig = CFG) -> None:
    rng = random.Random(1000 + seed)
    t = random_theory(rng)
    g = random_target(rng)
    once = forget_atom(t, g)
    twice = forget_atom(once, g)
    assert is_positive(equivalent(once, twice, cfg))


def check_commutativity(seed: int, cfg: OracleConfig = CFG) -> None:
    rng = random.Random(2000 + seed)
    t = random_theory(rng)
    g1, g2 = random_target(rng), random_target(rng)
    a = forget_atom(forget_atom(t, g1), g2)
    b = forget_atom(forget_atom(t, g2), g1)
    assert is_positive(equivalent(a, b, cfg))


def check_irrelevance(seed: int, cfg: OracleConfig = CFG) -> None:
    rng = random.Random(3000 + seed)
    t = random_theory(rng, preds=NO_P)
    g = random_target(rng)
    assert forget_atom(t, g) is t


def check_consequence_preservation(seed: int, cfg: OracleConfig = CFG) -> None:
    rng = random.Random(4000 + seed)
    t = random_theory(rng)
    g = random_target(rng)
    phi = random_formula(rng, 2, [], NO_P)
    res = forget_atom(t, g)
    before = is_positive(entails(t, phi, cfg))
    after = is_positive(entails(res, phi, cfg))
    assert before == after


def check_distributivity(seed: int, cfg: OracleConfig = CFG) -> None:
    rng = random.Random(5000 + seed)
    t1 = random_theory(rng)
    t2 = random_theory(rng, preds=NO_P)
    g = random_target(rng)
    joint = forget_atom(Theory(t1.axioms + t2.axioms), g)
    piecewise = Theory(forget_atom(t1, g).axioms + t2.axioms)
    assert is_positive(equivalent(joint, piecewise, cfg))


def check_verified_forgetting(seed: int, cfg: OracleConfig = CFG) -> None:
    rng = random.Random(6000 + seed)
    t = random_theory(rng, consts=SMALL_CONSTS)
    g = random_target(rng, consts=SMALL_CONSTS)
    res = forget_atom(t, g)
    assert is_positive(verify_forgetting(t, g, res, cfg))


SUITES = (
    check_idempotence,
    check_commutativity,
    check_irrelevance,
    check_consequence_preservation,
    check_distributivity,
    check_verified_forgetting,
)


@pytest.mark.parametrize("seed", SEEDS)
def test_forgetting_twice_equals_forgetting_once(seed):
    check_idempotence(seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_forgetting_order_does_not_matter(seed):
    check_commutativity(seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_forgetting_an_absent_atom_changes_nothing(seed):
    check_irrelevance(seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_consequences_without_the_atom_are_preserved(seed):
    check_consequence_preservation(seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_forgetting_skips_axioms_outside_the_atoms_vocabulary(seed):
    check_distributivity(seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_computed_result_passes_the_semantic_check(seed):
    check_verified_forgetting(seed)
