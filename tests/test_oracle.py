"""Bounded finite-model reasoning: entailment, equivalence, inseparability."""

import itertools

import pytest

from sitcalc import oracle
from sitcalc.errors import BudgetExceeded
from sitcalc.forgetting import GroundAtom, forget_atom
from sitcalc.oracle import (
    Countermodel,
    EntailedFinite,
    EquivalentFinite,
    FiniteModel,
    InseparableFinite,
    NotEquivalent,
    OracleConfig,
    Sat,
    Separated,
    UnsatFinite,
    _domain_specs,
    check_expansion,
    check_inseparable,
    entails,
    equivalent,
    evaluate,
    is_positive,
    models,
    satisfiable,
    search_bound,
    theory_holds,
)
from sitcalc.surface import parse_formula, render
from sitcalc.syntax import Signature, Theory

SIG = Signature(objects=frozenset({"c"}), statics=frozenset({("P", 1), ("R", 2)}))
CFG = OracleConfig(max_extra=1)
DELTA_P = Signature(statics=frozenset({("P", 1)}))
DELTA_R = Signature(statics=frozenset({("R", 2)}))


def f(text):
    return parse_formula(text, SIG, allow_free=True)


def t(*texts):
    return Theory(tuple(f(s) for s in texts))


class TestEvaluation:
    def test_evaluate_on_a_hand_built_model(self):
        m = FiniteModel(2, (("c", 0),), ((("P", ""), frozenset({(0,)})),))
        assert evaluate(m, f("P(c)"))
        assert not evaluate(m, f("forall x P(x)"))
        assert evaluate(m, f("exists x !P(x)"))
        assert theory_holds(m, t("P(c)", "exists x !P(x)"))

    def test_model_enumeration_counts(self):
        sig = Signature(objects=frozenset({"c"}), statics=frozenset({("P", 1)}))
        assert len(list(models(Theory(()), CFG, sig=sig))) == 6
        no_una = OracleConfig(max_extra=1, una=False)
        assert len(list(models(Theory(()), no_una, sig=sig))) == 10

    def test_sort_key_ignores_how_tables_were_built(self):
        one = FiniteModel(3, (), ((("R", ""), frozenset([(0, 0), (2, 2)])),))
        other = FiniteModel(3, (), ((("R", ""), frozenset([(2, 2), (0, 0)])),))
        assert one == other and repr(one) != repr(other)
        assert one.sort_key() == other.sort_key()

    def test_unique_names_constrain_models(self):
        sig = Signature(objects=frozenset({"a", "b"}))
        with_una = list(models(Theory(()), CFG, sig=sig))
        assert all(m.const("a") != m.const("b") for m in with_una)
        without = list(models(Theory(()), OracleConfig(max_extra=1, una=False), sig=sig))
        assert any(m.const("a") == m.const("b") for m in without)


class TestDomainSpecs:
    NO_UNA = OracleConfig(max_extra=1, una=False)

    @staticmethod
    def _canonical_form(placement):
        """The placement with elements renamed in order of first use."""
        first = {}
        return tuple(first.setdefault(e, len(first)) for e in placement)

    def test_canonical_placements_are_one_per_identification(self):
        vocab = Signature(objects=frozenset({"a", "b", "c"}))
        every = _domain_specs(vocab, self.NO_UNA)
        canonical = _domain_specs(vocab, self.NO_UNA, canonical=True)
        assert (len(every), len(canonical)) == (100, 15)
        assert canonical == [
            (n, consts) for n, consts in every
            if self._canonical_form([e for _, e in consts]) == tuple(e for _, e in consts)
        ]
        for n, consts in every:
            relabelled = tuple(zip(("a", "b", "c"), self._canonical_form([e for _, e in consts])))
            assert (n, relabelled) in canonical

    def test_unique_names_have_one_placement_per_size(self):
        vocab = Signature(objects=frozenset({"a", "b", "c"}))
        cfg = OracleConfig(max_extra=2)
        assert _domain_specs(vocab, cfg, canonical=True) == _domain_specs(vocab, cfg)
        assert [n for n, _ in _domain_specs(vocab, cfg)] == [3, 4, 5]

    def test_search_bound_is_the_largest_domain_searched(self):
        for k, extra, una in itertools.product(range(4), range(3), (True, False)):
            vocab = Signature(objects=frozenset(f"c{i}" for i in range(k)))
            cfg = OracleConfig(max_extra=extra, una=una)
            assert search_bound(vocab, cfg) == max(n for n, _ in _domain_specs(vocab, cfg))


class TestEntailment:
    def test_universal_entails_instance(self):
        v = entails(t("forall x P(x)"), f("P(c)"), CFG)
        assert v == EntailedFinite(bound=2)

    def test_instance_does_not_entail_universal(self):
        v = entails(t("P(c)"), f("forall x P(x)"), CFG)
        assert isinstance(v, Countermodel)
        assert v.model.size == 2
        assert evaluate(v.model, f("P(c)"))
        assert not evaluate(v.model, f("forall x P(x)"))

    def test_extra_elements_matter(self):
        tight = OracleConfig(max_extra=0)
        v = entails(t("P(c)"), f("forall x P(x)"), tight)
        assert is_positive(v)

    def test_unique_names_matter(self):
        sig2 = Signature(objects=frozenset({"a", "b"}), statics=frozenset({("P", 1)}))
        t1 = Theory((parse_formula("P(a)", sig2),))
        q = parse_formula("!P(b)", sig2)
        no_una = OracleConfig(max_extra=0, una=False)
        assert not is_positive(entails(t1, q, no_una))


class TestEquivalenceAndSat:
    def test_different_presentations_are_equivalent(self):
        one = t("forall x (P(x) -> R(x, x))")
        other = t("forall x (!R(x, x) -> !P(x))")
        assert isinstance(equivalent(one, other, CFG), EquivalentFinite)

    def test_direction_of_inequivalence_is_reported(self):
        v = equivalent(t("forall x P(x)"), t("P(c)"), CFG)
        assert isinstance(v, NotEquivalent)
        assert v.direction == "2!=>1"

    def test_satisfiable_returns_a_model(self):
        v = satisfiable(t("exists x (P(x) & !P(c))"), CFG)
        assert isinstance(v, Sat)
        assert evaluate(v.model, f("exists x (P(x) & !P(c))"))

    def test_contradictions_are_unsat_at_every_size(self):
        v = satisfiable(t("P(c)", "!P(c)"), CFG)
        assert isinstance(v, UnsatFinite)


class TestInseparability:
    def test_identical_theories_are_inseparable(self):
        v = check_inseparable(t("P(c)"), t("P(c)"), DELTA_P, CFG)
        assert v == InseparableFinite(bound=2, reduct_counts=((1, 1, 1), (2, 2, 2)))

    def test_witness_separates_strict_strengthening(self):
        v = check_inseparable(t("forall x P(x)"), t("P(c)"), DELTA_P, CFG)
        assert isinstance(v, Separated)
        assert v.entailed_by == 1
        assert render(v.witness) == "forall v0 P(v0)"

    def test_depth_limit_falls_back_to_a_characteristic_sentence(self):
        one = t("forall x exists y R(x, y)", "c == c")
        two = t("c == c")
        v = check_inseparable(one, two, DELTA_R, OracleConfig(max_extra=1, witness_depth=1))
        assert isinstance(v, Separated)
        assert v.entailed_by == 1
        # The one-element structure with an empty R, which only two realizes.
        assert render(v.witness) == "!exists v0 (forall v1 (v1 == v0) & !R(v0, v0))"
        v2 = check_inseparable(one, two, DELTA_R, OracleConfig(max_extra=1, witness_depth=2))
        assert isinstance(v2, Separated)
        assert render(v2.witness) == "forall v0 exists v1 R(v0, v1)"
        assert v2.entailed_by == 1

    def renamed_pair(self):
        # Under unique names a sits at 0 and b at 1, so the reducts to {P}
        # differ as tables but not up to renaming the elements.
        sig = Signature(objects=frozenset({"a", "b"}), statics=frozenset({("P", 1)}))
        return tuple(Theory((parse_formula(text, sig),)) for text in ("P(a) & !P(b)", "!P(a) & P(b)"))

    def test_reducts_equal_up_to_isomorphism_are_inseparable(self):
        one, two = self.renamed_pair()
        v = check_inseparable(one, two, DELTA_P, CFG)
        assert v == InseparableFinite(bound=3, reduct_counts=((2, 1, 1), (3, 2, 2)))

    def test_reducts_equal_up_to_isomorphism_skip_the_witness_search(self, monkeypatch):
        # No sentence separates such a pair, so the short search never starts.
        def no_search(*args):
            raise AssertionError("short witness search ran")

        monkeypatch.setattr(oracle, "_delta_sentences", no_search)
        one, two = self.renamed_pair()
        assert isinstance(check_inseparable(one, two, DELTA_P, CFG), InseparableFinite)

    def test_fluents_only_at_the_next_stage_are_searched_there(self):
        sig = Signature(objects=frozenset({"c"}), fluents=frozenset({("F", 1)}))
        one = Theory((parse_formula("F'(c)", sig),))
        two = Theory((parse_formula("F'(c) | !F'(c)", sig),))
        v = check_inseparable(one, two, Signature(fluents=frozenset({("F", 1)})), CFG)
        assert isinstance(v, Separated) and v.entailed_by == 1
        assert render(v.witness) == "exists v0 F'(v0)"


class TestReductEnumeration:
    def test_forgotten_corpus_pair_reduct_counts(self, insep_pair):
        (sig1, one), (sig2, two) = insep_pair
        delta = Signature(objects=frozenset({"c"}), statics=frozenset({("R", 2)}))
        g = GroundAtom("R", ("c", "c"), None)
        t1, t2 = forget_atom(one, g), forget_atom(two, g)
        vocab = sig1 | sig2 | delta
        sets = oracle._reduct_sets_by_size(t1, t2, delta, vocab, frozenset(), OracleConfig(max_extra=1))
        assert tuple((n, len(r1), len(r2)) for n, r1, r2 in sets) == ((2, 6, 12), (3, 196, 392))

    def test_delta_atoms_the_theories_do_not_mention_count_both_ways(self):
        v = check_inseparable(t("c == c"), t("c == c"), DELTA_P, CFG)
        assert v == InseparableFinite(bound=2, reduct_counts=((1, 2, 2), (2, 4, 4)))

    def test_enumeration_budget_counts_reducts(self):
        tiny = OracleConfig(max_extra=1, max_models=5)
        with pytest.raises(BudgetExceeded, match="reduct enumeration"):
            check_inseparable(t("c == c"), t("c == c"), DELTA_P, tiny)


class TestExpansion:
    def test_joint_consistency_of_chain_halves(self, chain, cfg1):
        sig, theory = chain
        rep = check_expansion(Theory(theory.axioms[:1]), Theory(theory.axioms[1:]), cfg1)
        assert rep.t1_expandable and rep.t2_expandable

    def test_expansion_detects_one_sided_dependence(self, insep_pair, cfg1):
        (sig1, one), (sig2, two) = insep_pair
        rep = check_expansion(one, two, cfg1)
        assert rep.t1_expandable
        assert not rep.t2_expandable

    def test_forgetting_breaks_plain_inseparability_but_separation_is_witnessed(
        self, insep_pair, cfg1
    ):
        (sig1, one), (sig2, two) = insep_pair
        delta = Signature(objects=frozenset({"c"}), statics=frozenset({("R", 2)}))
        g = GroundAtom("R", ("c", "c"), None)
        v = check_inseparable(forget_atom(one, g), forget_atom(two, g), delta, cfg1)
        assert isinstance(v, Separated)
        assert v.entailed_by == 1
        want = Theory((parse_formula("forall x exists y R(x, y)", sig1),))
        assert is_positive(equivalent(Theory((v.witness,)), want, cfg1))
