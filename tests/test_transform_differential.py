"""The ground-action transform and the instantiation of successor state
axioms against the generic constructions they replaced
(tests/transform_reference.py).

bat.transform_ssa settles each disjunct's action equality and binds the
quantified action arguments to the action's constants while it builds the
disjunct; the reference builds the equalities as formulas and leaves them
to simplify's one-point rule.  bat.instantiate_ssas builds F'(c), !F'(c)
or F'(c) <-> F(c) directly when the blocks' head constants settle both
effect conditions; the reference simplifies every biconditional.  Both
must give equal results, rendered alike, or raise the same error class.
Inputs are the corpus, as tests/golden/transform_ssa.txt covers it, and
generated SSAs whose action terms repeat constants and variables, use
another action function, and whose contexts mention the quantified
variables, also under quantifiers of the same name.
"""

import itertools
import random

import pytest
import transform_reference as reference
from test_property_suites import random_formula
from test_transform_golden import _bats

from sitcalc.bat import (
    BAT,
    SSA,
    EffectDisjunct,
    GroundAction,
    characteristic_set,
    instantiate_ssas,
    transform_ssa,
)
from sitcalc.errors import SitcalcError
from sitcalc.forgetting import GroundAtom
from sitcalc.surface import render
from sitcalc.syntax import TRUE, ActionTerm, Const, Exists, Signature, Stage, Theory, Var

CONSTS = ("A", "B", "C")
SIG = Signature(
    objects=frozenset(CONSTS),
    statics=frozenset({("P", 1), ("R", 2)}),
    fluents=frozenset({("F", 2)}),
    actions=frozenset({("g", 3), ("h", 2)}),
)
HEAD = (Var("x1"), Var("x2"))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except SitcalcError as e:
        return type(e).__name__


def _same_transform(s, alpha, label):
    got = _outcome(transform_ssa, s, alpha)
    want = _outcome(reference.transform_ssa, s, alpha)
    if isinstance(want, str):
        assert got == want, label
        return False
    assert got == want, label
    assert (render(got.gamma_pos), render(got.gamma_neg)) == (
        render(want.gamma_pos), render(want.gamma_neg)), label
    assert got.blocks == want.blocks, label
    return True


def _same_instances(b, alpha, atoms, label):
    got = instantiate_ssas(b, alpha, atoms)
    want = reference.instantiate_ssas(b, alpha, atoms)
    assert got == want, label
    assert [render(a) for a in got.axioms] == [render(a) for a in want.axioms], label


def test_corpus_transforms_match_the_reference():
    for name, b in _bats():
        objects = sorted(b.sig.objects)
        for fn, ar in sorted(b.sig.actions):
            for args in itertools.product(objects, repeat=ar):
                alpha = GroundAction(fn, args)
                label = f"{name} {alpha}"
                if not all(_same_transform(s, alpha, f"{label} {s.fluent}") for s in b.ssas):
                    continue
                omega = characteristic_set(b, alpha)
                assert omega == reference.characteristic_set(b, alpha), label
                _same_instances(b, alpha, omega, label)


def _disjunct(rng):
    """[exists ys] a == g(..) or h(..) & context, its action arguments drawn
    from the head variables, the quantified variables and the constants,
    with repeats."""
    ys = [Var(y) for y in ("y1", "y2") if rng.random() < 0.6]
    fn, ar = rng.choice((("g", 3), ("h", 2)))
    pool = list(HEAD) + ys + [Const(c) for c in CONSTS[:2]]
    args = tuple(rng.choice(pool) for _ in range(ar))
    context = TRUE
    if rng.random() < 0.7:
        scope = [v.name for v in HEAD + tuple(ys)]
        context = random_formula(rng, 2, scope, ("P", "R", "="), CONSTS)
        if ys and rng.random() < 0.3:  # a quantifier that shadows a quantified variable
            context = Exists(ys[0], random_formula(rng, 1, [ys[0].name, "x1"], ("P", "R", "="), CONSTS))
    return EffectDisjunct(tuple(ys), ActionTerm(fn, args), context)


def generated_ssas(rng, n):
    for _ in range(n):
        pos = tuple(_disjunct(rng) for _ in range(rng.randrange(0, 3)))
        neg = tuple(_disjunct(rng) for _ in range(rng.randrange(0, 3)))
        yield SSA("F", HEAD, pos, neg)


@pytest.mark.parametrize("seed", range(3))
def test_generated_transforms_match_the_reference(seed):
    rng = random.Random(23_000 + seed)
    atoms = frozenset(GroundAtom("F", args, Stage.NOW) for args in itertools.product(CONSTS, repeat=2))
    settled = 0
    for i, s in enumerate(generated_ssas(rng, 40)):
        b = BAT(SIG, Theory(()), ssas=(s,))
        for fn, ar in (("g", 3), ("h", 2)):
            for args in itertools.product(CONSTS, repeat=ar):
                alpha = GroundAction(fn, args)
                label = f"seed {seed}, SSA {i}, {alpha}"
                if _same_transform(s, alpha, label):
                    # every atom of F, in and out of the characteristic set
                    _same_instances(b, alpha, atoms, label)
                    settled += 1
    assert settled > 100
