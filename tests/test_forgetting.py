"""Ground-atom and ground-symbol forgetting."""

import random
from pathlib import Path

import pytest
from blocks_worlds import ground_world
from forgetting_reference import forget_atom as reference
from test_syntax import _bottom_up

from sitcalc import corpus_path, forgetting
from sitcalc.bat import characteristic_set, instantiate_ssas
from sitcalc.errors import NonGroundOccurrence
from sitcalc.forgetting import (
    GroundAtom,
    forget_atom,
    forget_atoms,
    forget_ground_symbol,
    occurring_ground_atoms,
    relativize,
    replace_ground,
)
from sitcalc.oracle import OracleConfig, entails, equivalent, is_positive, verify_forgetting
from sitcalc.surface import parse_bat, parse_formula, parse_ground_action, render
from sitcalc.syntax import TRUE, Const, FluentAtom, Or, Signature, Stage, StaticAtom, Theory, Var, atoms_of, simplify

SIG = Signature(
    objects=frozenset({"b", "c"}),
    statics=frozenset({("P", 1), ("R", 2)}),
    fluents=frozenset({("F", 1)}),
)
CFG = OracleConfig(max_extra=1)


def f(text):
    return parse_formula(text, SIG, allow_free=True)


def t(*texts):
    return Theory(tuple(f(s) for s in texts))


Pc = GroundAtom("P", ("c",), None)


class TestGroundAtom:
    def test_only_a_next_stage_atom_prints_its_stage(self):
        assert str(GroundAtom("F", ("a",), Stage.NEXT)) == "F(a)@next"
        assert str(GroundAtom("F", ("a",), Stage.NOW)) == "F(a)"
        assert str(GroundAtom("R", ("a", "b"), None)) == "R(a, b)"
        assert str(GroundAtom("Q", (), None)) == "Q"


class TestAtomForgetting:
    def test_forgetting_the_only_literal_leaves_no_information(self):
        out = forget_atom(t("!P(c)"), Pc)
        assert out.axioms == (TRUE,)

    def test_forgetting_a_universal_leaves_the_other_instances(self):
        out = forget_atom(t("forall x P(x)"), Pc)
        want = t("forall x (x != c -> P(x))")
        assert is_positive(equivalent(out, want, CFG))

    def test_unrelated_axioms_pass_through_untouched(self):
        theory = t("R(b, c)", "forall x P(x)", "F(b)")
        out = forget_atom(theory, Pc)
        assert theory.axioms[0] in out.axioms
        assert theory.axioms[2] in out.axioms

    def test_same_predicate_other_arguments_is_untouched(self):
        theory = t("P(b)")
        assert forget_atom(theory, Pc) == theory

    def test_stages_keep_atoms_apart(self):
        theory = Theory((parse_formula("F'(c)", SIG),))
        out = forget_atom(theory, GroundAtom("F", ("c",), Stage.NOW))
        assert out == theory

    def test_result_never_mentions_the_atom(self):
        theory = t("forall x (P(x) -> R(x, c))", "P(c) | R(c, c)")
        out = forget_atom(theory, Pc)
        assert "P(c)" not in " ".join(render(ax) for ax in out.axioms)

    def test_order_does_not_matter_semantically(self):
        theory = t("P(c) -> P(b)", "P(b) -> R(b, b)")
        pb = GroundAtom("P", ("b",), None)
        one = forget_atoms(theory, [Pc, pb])
        other = forget_atoms(theory, [pb, Pc])
        assert is_positive(equivalent(one, other, CFG))

    def test_forgetting_weakens_but_preserves_free_consequences(self):
        theory = t("forall x P(x)", "forall x (P(x) -> R(x, x))")
        out = forget_atom(theory, Pc)
        assert is_positive(entails(theory, f("R(c, c)"), CFG))
        assert is_positive(entails(out, f("R(c, c)"), CFG))
        assert not is_positive(entails(out, f("P(c)"), CFG))


class TestLocality:
    @pytest.fixture
    def relativized(self, monkeypatch):
        """The axioms forget_atom relativizes, in call order."""
        calls = []
        real = forgetting.relativize

        def counting(f, g, una=True, splits=None):
            calls.append(f)
            return real(f, g, una, splits)

        monkeypatch.setattr(forgetting, "relativize", counting)
        return calls

    def test_only_the_axiom_that_can_denote_the_atom_is_relativized(self, relativized):
        b, _ = ground_world(random.Random(24), 24)
        g = GroundAtom("On", ("B3", "B5"), Stage.NOW)
        out = forget_atom(b.init, g)
        (own,) = [ax for ax in b.init.axioms if g.to_formula() in atoms_of(ax)]
        assert len(b.init.axioms) == 675
        # the one axiom that can denote g is a literal of g: a literal step,
        # which relativizes nothing
        assert relativized == []
        others = [ax for ax in b.init.axioms if ax is not own]
        assert len(out.axioms) == len(others) + 1
        assert all(got is ax for got, ax in zip(out.axioms, others))
        assert out.axioms[-1] == TRUE
        # in its place an axiom that is not a literal is relativized, alone
        wider = Or(own, StaticAtom("Block", (Const("B3"),)))
        t2 = Theory(tuple(wider if ax is own else ax for ax in b.init.axioms))
        out2 = forget_atom(t2, g)
        assert len(relativized) == 1 and relativized[0] is wider
        assert all(got is ax for got, ax in zip(out2.axioms, others))
        assert out2 == reference(t2, g)

    def test_without_unique_names_other_constants_may_denote_the_atom(self, relativized):
        theory = t("P(b)", "R(b, c)")
        assert forget_atom(theory, Pc) is theory
        assert relativized == []
        out = forget_atom(theory, Pc, una=False)
        assert relativized == [theory.axioms[0]]
        assert out.axioms[0] is theory.axioms[1]
        assert out != theory


class TestSharing:
    def test_an_atom_in_two_axioms_gets_one_split_object(self, monkeypatch):
        b = parse_bat(Path(corpus_path("blocks_stacks.bat")).read_text())
        alpha = parse_ground_action("move(A, B, C)", b.sig)
        omega = characteristic_set(b, alpha)
        combined = Theory(instantiate_ssas(b, alpha, omega).axioms + b.init.axioms)
        calls = []
        real = forgetting.relativize

        def recording(f, g, una=True, splits=None):
            out = real(f, g, una, splits)
            calls.append((g, out, splits))
            return out

        monkeypatch.setattr(forgetting, "relativize", recording)
        forget_atoms(combined, omega)
        # On(x, y) occurs in `forall x (exists y On(x, y) -> Block(x))` and in
        # the axiom that forgetting Clear(B) and Clear(C) made first.
        on_ab = [(out, splits) for g, out, splits in calls if g == GroundAtom("On", ("A", "B"))]
        assert len(on_ab) == 2 and on_ab[0][1] is on_ab[1][1]
        split = simplify(on_ab[0][1][(Var("x"), Var("y"))])
        assert render(split) == "x == A & y == B & On(A, B) | !(x == A & y == B) & On(x, y)"
        for out, _ in on_ab:
            assert any(node is split for node in _bottom_up(out))

    def test_each_relativized_axiom_is_walked_once_for_both_images(self, monkeypatch):
        b = parse_bat(Path(corpus_path("blocks_stacks.bat")).read_text())
        alpha = parse_ground_action("move(A, B, C)", b.sig)
        omega = characteristic_set(b, alpha)
        combined = Theory(instantiate_ssas(b, alpha, omega).axioms + b.init.axioms)
        relativized, walked = [], []
        real_relativize, real_walk = forgetting.relativize, forgetting.map_atoms_twice

        def relativizing(*args):
            relativized.append(args[0])
            return real_relativize(*args)

        def walking(x, fn):
            walked.append(len(x))
            return real_walk(x, fn)

        monkeypatch.setattr(forgetting, "relativize", relativizing)
        monkeypatch.setattr(forgetting, "map_atoms_twice", walking)
        monkeypatch.setattr(forgetting, "replace_ground", lambda *args: walked.append(None))
        forget_atoms(combined, omega)
        assert len(walked) == len(omega)  # one walk per step
        assert sum(walked) == len(relativized) > len(omega)


class TestSemanticCheck:
    def test_correct_results_verify(self):
        theory = t("forall x P(x)")
        out = forget_atom(theory, Pc)
        v = verify_forgetting(theory, Pc, out, CFG)
        assert is_positive(v)

    def test_unforgotten_claim_is_too_strong(self):
        theory = t("P(c)")
        v = verify_forgetting(theory, Pc, theory, CFG)
        assert not is_positive(v)
        assert v.direction == "result-too-strong"

    def test_overweak_claim_is_rejected(self):
        theory = t("P(c) & P(b)")
        v = verify_forgetting(theory, Pc, Theory(()), CFG)
        assert not is_positive(v)
        assert v.direction == "result-too-weak"

    def test_identified_constants_share_the_atom(self):
        # Without unique names b may denote c, and then P(b) is the atom released.
        theory = t("P(b)")
        no_una = OracleConfig(max_extra=1, una=False)
        assert is_positive(verify_forgetting(theory, Pc, theory, CFG))
        v = verify_forgetting(theory, Pc, theory, no_una)
        assert v.direction == "result-too-strong"
        assert v.model.const("b") == v.model.const("c")
        assert is_positive(verify_forgetting(theory, Pc, forget_atom(theory, Pc, una=False), no_una))

    def test_next_stage_atom_is_released_apart_from_the_current_one(self):
        theory = t("F'(c) & (F(c) | P(c))")
        g = GroundAtom("F", ("c",), Stage.NEXT)
        assert is_positive(verify_forgetting(theory, g, forget_atom(theory, g), CFG))
        assert is_positive(verify_forgetting(theory, g, t("F(c) | P(c)"), CFG))
        v = verify_forgetting(theory, g, theory, CFG)
        assert v.direction == "result-too-strong"
        assert not v.model.holds(("F", "next"), (v.model.const("c"),))


class TestSymbolForgetting:
    def test_middle_symbol_elimination_keeps_the_chain(self, chain, cfg1):
        sig, theory = chain
        out = forget_ground_symbol(theory, "P")
        assert is_positive(entails(out, parse_formula("A -> B", sig), cfg1))
        assert not is_positive(entails(out, parse_formula("A -> P", sig), cfg1))

    def test_componentwise_forgetting_loses_the_chain(self, chain, cfg1):
        sig, theory = chain
        left = forget_ground_symbol(Theory(theory.axioms[:1]), "P")
        right = forget_ground_symbol(Theory(theory.axioms[1:]), "P")
        for piece in (left, right):
            assert is_positive(equivalent(piece, Theory(()), cfg1))
        both = Theory(left.axioms + right.axioms)
        assert not is_positive(entails(both, parse_formula("A -> B", sig), cfg1, sig=sig))

    def test_absent_symbol_is_a_no_op(self):
        theory = t("R(b, c)")
        assert forget_ground_symbol(theory, "P") == theory

    def test_quantified_occurrences_cannot_be_symbol_forgotten(self):
        with pytest.raises(NonGroundOccurrence):
            forget_ground_symbol(t("forall x P(x)"), "P")

    def test_occurring_ground_atoms_collects_every_stage(self):
        theory = Theory((parse_formula("F(c) & F'(b)", SIG),))
        atoms = occurring_ground_atoms(theory, "F")
        assert set(atoms) == {
            GroundAtom("F", ("c",), Stage.NOW),
            GroundAtom("F", ("b",), Stage.NEXT),
        }


class TestRewriteHelpers:
    def test_relativize_restores_distinct_constant_occurrences(self):
        g = relativize(f("P(b)"), Pc)
        assert g == f("P(b)")

    def test_relativize_guards_variable_occurrences(self):
        g = relativize(f("forall x P(x)"), Pc)
        assert g != f("forall x P(x)")
        assert "P(c)" in render(g)

    def test_replace_ground_hits_exact_occurrences_only(self):
        g = replace_ground(f("P(c) & P(b)"), Pc, TRUE)
        assert g == parse_formula("true & P(b)", SIG)


class TestDeepAndWide:
    LEAF = Or(StaticAtom("P", (Const("c"),)), FluentAtom("F", (Const("b"),), Stage.NEXT))

    def test_occurring_ground_atoms(self, deep):
        f, _ = deep(self.LEAF)
        assert occurring_ground_atoms(Theory((f,)), "P") == (Pc,)
        assert occurring_ground_atoms(Theory((f,)), "F") == (GroundAtom("F", ("b",), Stage.NEXT),)

    def test_replace_ground(self, deep):
        f, copies = deep(self.LEAF)
        g = replace_ground(f, Pc, TRUE)
        assert sum(at is TRUE for at in atoms_of(g)) == copies
        assert replace_ground(f, GroundAtom("P", ("b",), None), TRUE) is f
