"""The oracle's short paths for literal axioms against its general paths.

A literal over constants, which is what every axiom of a complete ground
world is, skips _comp when it is compiled and skips the walker when it is
evaluated.  Compiling must record the same constant slots, symbols and
stages as _comp, in the same order, and give the same ground trees and atom
numbering as tests/oracle_reference.py's grounder; evaluating must give the
walker's truth value, and raise the walker's error for a constant or a
predicate the model does not interpret.  The general paths are reached by
hiding literal_atom from the oracle module, or, for evaluate, by putting
the literal under a conjunction.
"""

import itertools
import random

import pytest
from test_grounding_differential import _specs, assert_same_grounding

from sitcalc import oracle
from sitcalc.errors import SitcalcError
from sitcalc.oracle import FiniteModel, _compile, _Grounder, evaluate
from sitcalc.syntax import (
    TRUE,
    And,
    Const,
    Exists,
    FluentAtom,
    Forall,
    Not,
    Or,
    Stage,
    StaticAtom,
    Var,
    conj,
    symbols_and_stages,
)

CONSTS = ("a", "b", "c")
x = Var("x")


def random_literal(rng, consts=CONSTS, terms=()):
    """A literal of either sign over P/1, R/2, Q/0, F/1 or G/2, the fluents
    at either stage, with arguments drawn from consts and terms."""
    pick = lambda: rng.choice(terms) if terms and rng.random() < 0.5 else Const(rng.choice(consts))  # noqa: E731
    stage = rng.choice((Stage.NOW, Stage.NEXT))
    atom = rng.choice(
        (
            lambda: StaticAtom("P", (pick(),)),
            lambda: StaticAtom("R", (pick(), pick())),
            lambda: StaticAtom("Q"),
            lambda: FluentAtom("F", (pick(),), stage),
            lambda: FluentAtom("G", (pick(), pick()), stage),
        )
    )()
    return atom if rng.random() < 0.5 else Not(atom)


def general_program(monkeypatch, formulas):
    """The program _compile builds when every axiom goes through _comp."""
    with monkeypatch.context() as m:
        m.setattr(oracle, "literal_atom", lambda f: None)
        return _compile(formulas)


def assert_same_program(monkeypatch, formulas):
    """The short path records what _comp records, and grounds as the
    reference grounder does over a spread of specs, with and without
    unique names."""
    got, want = _compile(formulas), general_program(monkeypatch, formulas)
    assert list(got.consts.items()) == list(want.consts.items())
    assert got.nslots == want.nslots
    assert (got.vocab, got.stages) == (want.vocab, want.stages) == symbols_and_stages(conj(formulas))
    assert_same_grounding(formulas, _specs(formulas, per_config=3))


class TestCompile:
    @pytest.mark.parametrize("seed", range(12))
    def test_literal_only_theories(self, monkeypatch, seed):
        rng = random.Random(4100 + seed)
        formulas = [random_literal(rng) for _ in range(rng.randrange(1, 12))]
        assert_same_program(monkeypatch, formulas)

    def test_both_signs_and_both_stages_of_each_symbol(self, monkeypatch):
        a, b = Const("a"), Const("b")
        atoms = [StaticAtom("Q"), StaticAtom("P", (a,)), StaticAtom("R", (b, a))]
        atoms += [FluentAtom(name, args, s) for s in Stage for name, args in (("F", (b,)), ("G", (a, b)))]
        formulas = [lit for atom in atoms for lit in (atom, Not(atom))]
        for order in (formulas, formulas[::-1]):
            assert_same_program(monkeypatch, order)

    @pytest.mark.parametrize("seed", range(12))
    def test_literals_among_quantified_axioms(self, monkeypatch, seed):
        # the binders of the quantified axioms take slots between the
        # constants of the literals
        rng = random.Random(4200 + seed)
        formulas = [random_literal(rng) for _ in range(rng.randrange(2, 8))]
        for _ in range(3):
            body = Or(random_literal(rng, terms=(x,)), random_literal(rng, terms=(x,)))
            formulas.insert(rng.randrange(len(formulas) + 1), rng.choice((Forall, Exists))(x, body))
        assert_same_program(monkeypatch, formulas)

    def test_a_literal_with_a_constant_outside_the_domain_spec_fails_when_grounded(self, monkeypatch):
        a, d = Const("a"), Const("d")
        for f in (StaticAtom("R", (a, d)), Not(FluentAtom("F", (d,), Stage.NEXT))):
            for program in (_compile([f]), general_program(monkeypatch, [f])):
                with pytest.raises(SitcalcError, match="^constant d missing from oracle vocabulary$"):
                    program.ground(_Grounder(1, (("a", 0),)))

    def test_a_literal_with_a_free_variable_fails_when_compiled(self, monkeypatch):
        for f in (StaticAtom("R", (Const("a"), x)), Not(FluentAtom("F", (x,)))):
            for compile_ in (_compile, lambda fs: general_program(monkeypatch, fs)):
                with pytest.raises(SitcalcError, match="^formula has free variable x$"):
                    compile_([f])


KEYS = ((("P", ""), 1), (("R", ""), 2), (("Q", ""), 0), (("F", "now"), 1), (("F", "next"), 1), (("G", "now"), 2),
        (("G", "next"), 2))


def random_model(rng):
    """A model over one to three elements that interprets some of the
    constants a, b, c and some of the relations of KEYS."""
    size = rng.randrange(1, 4)
    consts = tuple((c, rng.randrange(size)) for c in CONSTS if rng.random() < 0.85)
    rels = tuple(
        (key, frozenset(t for t in itertools.product(range(size), repeat=ar) if rng.random() < 0.5))
        for key, ar in KEYS
        if rng.random() < 0.85
    )
    return FiniteModel(size, consts, tuple(sorted(rels)))


def outcome(m, f, env=None):
    try:
        return evaluate(m, f, env)
    except SitcalcError as e:
        return str(e)


class TestEvaluate:
    def test_ground_literals_against_the_walker(self):
        rng = random.Random(43)
        seen = set()
        for _ in range(400):
            m = random_model(rng)
            for _ in range(8):
                lit = random_literal(rng)
                got, want = outcome(m, lit), outcome(m, And(TRUE, lit))
                assert got == want, (m, lit)
                seen.add(got if type(got) is bool else got.split()[0])
        # true and false literals, and both errors, were met
        assert seen == {True, False, "constant", "predicate"}

    def test_the_errors_are_the_walkers(self):
        m = FiniteModel(2, (("a", 0),), ((("P", ""), frozenset({(0,)})),))
        cases = [
            (StaticAtom("P", (Const("d"),)), "constant d is not interpreted in this model"),
            (Not(StaticAtom("R", (Const("a"), Const("a")))), "predicate ('R', '') is not interpreted in this model"),
            (FluentAtom("P", (Const("a"),), Stage.NEXT), "predicate ('P', 'next') is not interpreted in this model"),
            # the arguments are read before the table, as the walker reads them
            (StaticAtom("R", (Const("a"), Const("d"))), "constant d is not interpreted in this model"),
        ]
        for f, message in cases:
            assert outcome(m, f) == outcome(m, And(TRUE, f)) == message

    def test_literals_with_variables_read_the_environment(self):
        rng = random.Random(44)
        for _ in range(200):
            m = random_model(rng)
            lit = random_literal(rng, terms=(x,))
            env = {"x": rng.randrange(m.size)} if rng.random() < 0.8 else None
            assert outcome(m, lit, env) == outcome(m, And(TRUE, lit), env)
