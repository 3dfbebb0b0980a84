"""The compiled grounder against the recursive interpreter it replaced.

For every formula, domain spec and polarity, grounding through the compiled
closure tree must give the same ground tree as tests/oracle_reference.py's
ground, and must number the atoms in the same order: the CNF, the solver's
search and so every reported model depend on both.  The formulas are
compiled into one program once and instantiated on every spec, as the
oracle does with a theory; the negative polarity is the dual (_negate) of
the tree grounded.

The oracle takes a theory's negation as the dual of the conjunction of its
ground axioms; that must be the tree, and the atom order, of grounding
Not(conj(axioms)), the formula it stands for.
"""

import random

import pytest
from blocks_worlds import ground_world
from oracle_reference import ground
from test_property_suites import CONSTS, SEEDS, SMALL_CONSTS, random_formula, random_theory

from sitcalc import corpus_path, parse_bat, parse_theory
from sitcalc.oracle import OracleConfig, _compile, _domain_specs, _Grounder, _negate, _pand
from sitcalc.progression import progress, progress_sequence
from sitcalc.surface import parse_formula, parse_ground_action
from sitcalc.syntax import (
    FALSE,
    TRUE,
    And,
    Const,
    Exists,
    Forall,
    Iff,
    Implies,
    Not,
    ObjEq,
    Or,
    StaticAtom,
    Var,
    conj,
    disj,
    signature_of,
)

CONFIGS = [OracleConfig(max_extra=x, una=u) for u in (True, False) for x in (0, 1, 2)]


def _specs(formulas, per_config=5):
    """A spread of the domain specs the oracle searches for these formulas:
    the smallest ones and some of every size, with and without unique names."""
    vocab = signature_of(conj(formulas))
    out = []
    for cfg in CONFIGS:
        specs = _domain_specs(vocab, cfg)
        out += specs[:: max(1, len(specs) // per_config)]
    return out


def assert_same_grounding(formulas, specs):
    program = _compile(formulas)
    for n, consts in specs:
        for neg in (False, True):
            want_g, got_g = _Grounder(n, consts), _Grounder(n, consts)
            want = [ground(want_g, f, {}, neg) for f in formulas]
            got = program.ground(got_g)
            got = [_negate(t) for t in got] if neg else got
            assert got == want, (n, consts, neg)
            assert [_negate(_negate(t)) for t in got] == got
            assert list(got_g.atom_vars.items()) == list(want_g.atom_vars.items()), (n, consts, neg)
            assert got_g.nvars == want_g.nvars


def assert_negation_grounds_as_negated_conjunction(axioms, specs):
    """The dual of the axioms' conjoined trees against Not(conj(axioms)),
    on a fresh grounder and after the axioms were grounded positively, as
    the equivalence question over a theory and itself does."""
    program = _compile(axioms)
    whole = _compile((Not(conj(axioms)),))
    for n, consts in specs:
        for first in ((), (program,)):
            want_g, got_g = _Grounder(n, consts), _Grounder(n, consts)
            for g in (want_g, got_g):
                for p in first:
                    p.ground(g)
            want = whole.ground(want_g)[0]
            got = _negate(_pand(program.ground(got_g)))
            assert got == want, (n, consts, len(first))
            assert list(got_g.atom_vars.items()) == list(want_g.atom_vars.items()), (n, consts, len(first))


x, y = Var("x"), Var("y")
a, b = Const("a"), Const("b")
P = lambda t: StaticAtom("P", (t,))  # noqa: E731
R = lambda s, t: StaticAtom("R", (s, t))  # noqa: E731

# Shapes the property-suite generator does not make: units, Iff, Not chains,
# spines nested both ways, shadowed binders and nullary atoms.
SHAPES = [
    TRUE,
    FALSE,
    Not(Not(Not(TRUE))),
    StaticAtom("Q"),
    Iff(P(a), Not(R(a, b))),
    Not(Iff(Forall(x, P(x)), Exists(x, Iff(P(x), R(x, b))))),
    And(TRUE, And(P(a), Or(FALSE, P(b)))),
    Or(Or(P(a), Not(And(P(b), TRUE))), Or(R(a, a), FALSE)),
    Not(And(And(P(a), P(b)), Not(Or(R(a, b), Implies(P(a), FALSE))))),
    Forall(x, Exists(x, R(x, x))),
    Forall(x, Exists(y, And(R(x, y), Forall(x, Or(ObjEq(x, y), Not(ObjEq(x, a))))))),
    Exists(x, Not(Forall(y, Iff(ObjEq(x, y), R(y, x))))),
    conj([P(a), P(b), Not(R(b, a)), disj([ObjEq(a, b), R(a, b), Not(Not(P(a)))])]),
]


def test_hand_written_shapes():
    assert_same_grounding(SHAPES, _specs(SHAPES))


@pytest.mark.parametrize("consts", [SMALL_CONSTS, CONSTS], ids=["two-constants", "three-constants"])
def test_property_suite_formulas(consts):
    for seed in SEEDS[::5]:
        rng = random.Random(9000 + seed)
        formulas = list(random_theory(rng, consts=consts).axioms)
        f, g = random_formula(rng, 3, [], ("P", "R", "="), consts), random_formula(rng, 2, [], ("P", "="), consts)
        formulas += [f, Iff(f, g), Not(Iff(g, Not(f)))]
        assert_same_grounding(formulas, _specs(formulas, per_config=3))


CORPUS_THEORIES = ["propositional_chain.bat", "insep_forgetting_t1.bat", "insep_forgetting_t2.bat"]
CORPUS_BATS = sorted(
    p.name for p in corpus_path("blocks_world.bat").parent.glob("*.bat") if p.name not in CORPUS_THEORIES
)


@pytest.mark.parametrize("name", CORPUS_THEORIES)
def test_corpus_theories(name):
    _, t = parse_theory(corpus_path(name).read_text(), name)
    axioms = list(t.axioms)
    assert_same_grounding(axioms, _specs(axioms))


@pytest.mark.parametrize("name", CORPUS_BATS)
def test_corpus_initial_theories(name):
    axioms = list(parse_bat(corpus_path(name).read_text(), name).init.axioms)
    assert_same_grounding(axioms, _specs(axioms))


def test_progressed_blocks_and_heap_theories(blocks_stacks):
    b = blocks_stacks
    moves = [parse_ground_action(s, b.sig) for s in ("move(A, B, C)", "move(A, C, B)")]
    once = progress(b, moves[0]).theory
    twice = progress_sequence(b, moves)
    for t in (once, twice):
        axioms = list(t.axioms)
        # a negated conjunction, the grounding TestNegatedTheory holds the
        # oracle's negation of a theory to
        formulas = axioms + [Not(conj(axioms)), parse_formula("forall x (Clear(x) -> !exists y On(y, x))", b.sig)]
        assert_same_grounding(formulas, _specs(formulas))


def test_progressed_ground_blocks_world():
    b, alpha = ground_world(random.Random(5), 3)
    axioms = list(progress(b, alpha).theory.axioms)
    assert_same_grounding(axioms, _specs(axioms, per_config=2))


def test_wide_spines_and_negation_chains_ground_without_recursion():
    atoms = [P(Const(f"c{i}")) for i in range(10_000)]
    consts = tuple((f"c{i}", i % 3) for i in range(10_000))
    for f, kind in ((conj(atoms), "A"), (disj(atoms), "O")):
        g = _Grounder(3, consts)
        assert _compile((f,)).ground(g)[0] == (kind, [1, 2, 3] * 3333 + [1])
        assert _compile((Not(f),)).ground(g)[0] == ("O" if kind == "A" else "A", [-1, -2, -3] * 3333 + [-1])
    deep = P(a)
    for _ in range(3_000):
        deep = Not(deep)
    g = _Grounder(1, (("a", 0),))
    assert _compile((deep,)).ground(g)[0] == 1
    assert _compile((Not(deep),)).ground(g)[0] == -1


class TestNegatedTheory:
    def test_empty_theory_and_hand_written_shapes(self):
        assert_negation_grounds_as_negated_conjunction([], _specs([TRUE]))
        for shapes in (SHAPES, SHAPES[::-1], SHAPES[:1], SHAPES[-3:]):
            assert_negation_grounds_as_negated_conjunction(shapes, _specs(shapes))

    @pytest.mark.parametrize("consts", [SMALL_CONSTS, CONSTS], ids=["two-constants", "three-constants"])
    def test_property_suite_theories(self, consts):
        for seed in SEEDS:
            axioms = list(random_theory(random.Random(9500 + seed), consts=consts).axioms)
            assert_negation_grounds_as_negated_conjunction(axioms, _specs(axioms, per_config=3))

    @pytest.mark.parametrize("name", CORPUS_THEORIES)
    def test_corpus_theories(self, name):
        _, t = parse_theory(corpus_path(name).read_text(), name)
        axioms = list(t.axioms)
        assert_negation_grounds_as_negated_conjunction(axioms, _specs(axioms))

    @pytest.mark.parametrize("name", CORPUS_BATS)
    def test_corpus_initial_theories(self, name):
        axioms = list(parse_bat(corpus_path(name).read_text(), name).init.axioms)
        assert_negation_grounds_as_negated_conjunction(axioms, _specs(axioms))

    def test_progressed_blocks_and_heap_theories(self, blocks_stacks):
        b = blocks_stacks
        moves = [parse_ground_action(s, b.sig) for s in ("move(A, B, C)", "move(A, C, B)")]
        for t in (progress(b, moves[0]).theory, progress_sequence(b, moves)):
            axioms = list(t.axioms)
            assert_negation_grounds_as_negated_conjunction(axioms, _specs(axioms))
