"""Bounded finite-model reasoning: entailment, equivalence, inseparability."""

import gc
import itertools
import tracemalloc
from dataclasses import dataclass

import pytest

from sitcalc import oracle
from sitcalc.errors import BudgetExceeded, SitcalcError
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
    _compile,
    _domain_specs,
    _Grounder,
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
    verify_forgetting,
)
from sitcalc.surface import parse_formula, render
from sitcalc.syntax import (
    TRUE,
    ActionTerm,
    And,
    Const,
    Formula,
    Iff,
    Not,
    Signature,
    StaticAtom,
    Theory,
    disj,
    signature_of,
)

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

    def test_evaluate_walks_a_thousand_long_implication_chain(self):
        m = FiniteModel(2, (("c", 0),), ((("P", ""), frozenset({(0,)})),))
        assert evaluate(m, f(" -> ".join(["P(c)"] * 1_000)))
        assert not evaluate(m, f(" -> ".join(["P(c)"] * 999 + ["!P(c)"])))

    def test_evaluate_folds_a_chain_of_three_thousand_negations(self):
        m = FiniteModel(2, (("c", 0),), ((("P", ""), frozenset({(0,)})),))
        deep = f("P(c)")
        for _ in range(3_000):
            deep = Not(deep)
        assert evaluate(m, deep)
        assert not evaluate(m, Not(deep))

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
        every = list(_domain_specs(vocab, self.NO_UNA))
        canonical = list(_domain_specs(vocab, self.NO_UNA, canonical=True))
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
        assert list(_domain_specs(vocab, cfg, canonical=True)) == list(_domain_specs(vocab, cfg))
        assert [n for n, _ in _domain_specs(vocab, cfg)] == [3, 4, 5]

    def test_search_bound_is_the_largest_domain_searched(self):
        for k, extra, una in itertools.product(range(4), range(3), (True, False)):
            vocab = Signature(objects=frozenset(f"c{i}" for i in range(k)))
            cfg = OracleConfig(max_extra=extra, una=una)
            assert search_bound(vocab, cfg) == max(n for n, _ in _domain_specs(vocab, cfg))

    def test_the_time_limit_holds_while_domain_specs_are_made(self):
        # every placement of six constants in domains of up to eight
        # elements is 446,964 specs, which took 208 MB to list up front
        # before the first time check
        wide = disj(StaticAtom("P", (Const(f"c{i}"),)) for i in range(6))
        t = Theory((wide,))
        delta = Signature(statics=frozenset({("P", 1)}))
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceeded, match="exceeded the time budget$"):
                check_inseparable(t, t, delta, OracleConfig(max_extra=2, una=False, time_limit=0.5))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2**20


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


@dataclass(frozen=True, slots=True)
class Unsupported(Formula):
    """A node kind the grounder does not know."""


class TestGroundingErrors:
    def test_a_free_variable_is_reported(self):
        with pytest.raises(SitcalcError, match="^formula has free variable x$"):
            entails(t("P(c)"), f("P(x)"), CFG)

    def test_a_term_that_is_not_an_object_is_reported(self):
        bad = StaticAtom("P", (ActionTerm("a", ()),))
        with pytest.raises(SitcalcError, match=r"^cannot ground term ActionTerm\(fn='a', args=\(\)\)$"):
            entails(t("P(c)"), bad, CFG)

    @pytest.mark.parametrize(
        "bad, message",
        [(f("P(x)"), "formula has free variable x"), (And(TRUE, Unsupported()), "cannot ground Unsupported()")],
        ids=["free-variable", "unknown-node"],
    )
    def test_errors_are_raised_by_grounding_not_by_compiling(self, bad, message):
        ground = _compile((Not(bad),)).ground
        with pytest.raises(SitcalcError) as e:
            ground(_Grounder(1, (("c", 0),)))
        assert str(e.value) == message


class TestConfigBounds:
    @pytest.mark.parametrize(
        "kw, message",
        [
            ({"max_extra": -1}, "max_extra must be at least 0, not -1"),
            ({"max_models": 0}, "max_models must be at least 1, not 0"),
            ({"witness_depth": -1}, "witness_depth must be at least 0, not -1"),
            ({"time_limit": 0}, "time_limit must be positive, not 0"),
            ({"time_limit": -2.5}, "time_limit must be positive, not -2.5"),
        ],
        ids=["max-extra", "max-models", "witness-depth", "zero-time-limit", "negative-time-limit"],
    )
    def test_out_of_range_bounds_are_rejected(self, kw, message):
        with pytest.raises(SitcalcError, match=f"^{message}$"):
            OracleConfig(**kw)

    def test_the_smallest_bounds_in_range_are_accepted(self):
        cfg = OracleConfig(max_extra=0, max_models=1, witness_depth=0, time_limit=1e-9)
        assert (cfg.max_extra, cfg.max_models, cfg.witness_depth, cfg.time_limit) == (0, 1, 0, 1e-9)

    def test_every_time_limit_sets_a_deadline(self):
        # time_limit=0 used to pass as no limit at all
        assert oracle._Search(OracleConfig(time_limit=1e-9), Signature(), frozenset()).deadline is not None
        assert oracle._Search(OracleConfig(), Signature(), frozenset()).deadline is None


class TestEquivalenceAndSat:
    def test_different_presentations_are_equivalent(self):
        one = t("forall x (P(x) -> R(x, x))")
        other = t("forall x (!R(x, x) -> !P(x))")
        assert isinstance(equivalent(one, other, CFG), EquivalentFinite)

    def test_direction_of_inequivalence_is_reported(self):
        v = equivalent(t("forall x P(x)"), t("P(c)"), CFG)
        assert isinstance(v, NotEquivalent)
        assert v.direction == "2!=>1"

    def test_both_directions_share_one_vocabulary(self, monkeypatch):
        # the compile walk of each theory gives the vocabulary and stages:
        # no theory is walked a second time to find them
        one, other = t("forall x P(x)"), t("P(c)", "forall x P(x)")
        read = []
        monkeypatch.setattr(oracle, "signature_of", lambda x: read.append(x) or signature_of(x))
        assert not hasattr(oracle, "stages_of")
        compiled = []
        real = oracle._compile
        monkeypatch.setattr(oracle, "_compile", lambda x: compiled.append(x) or real(x))
        assert isinstance(equivalent(one, other, CFG), EquivalentFinite)
        assert read == []
        assert compiled == [one.axioms, other.axioms]

    def test_each_axiom_is_compiled_once(self, monkeypatch):
        # both directions are searched, and neither compiles a negation of its own
        one, other = t("forall x P(x)", "R(c, c)"), t("R(c, c)", "P(c)", "forall x P(x)")
        compiled = []
        real = oracle._compile
        monkeypatch.setattr(oracle, "_compile", lambda x: compiled.extend(x) or real(x))
        assert isinstance(equivalent(one, other, CFG), EquivalentFinite)
        assert compiled == [*one.axioms, *other.axioms]

    def test_entailment_compiles_the_query_not_its_negation(self, monkeypatch):
        compiled = []
        real = oracle._compile
        monkeypatch.setattr(oracle, "_compile", lambda x: compiled.extend(x) or real(x))
        theory, query = t("forall x P(x)"), f("P(c)")
        assert isinstance(entails(theory, query, CFG), EntailedFinite)
        assert compiled == [*theory.axioms, query]

    def test_satisfiable_returns_a_model(self):
        v = satisfiable(t("exists x (P(x) & !P(c))"), CFG)
        assert isinstance(v, Sat)
        assert evaluate(v.model, f("exists x (P(x) & !P(c))"))

    def test_a_thousand_long_implication_chain_is_satisfiable(self):
        text = " -> ".join(["P(c)", "exists x R(x, c)"] * 500)
        v = satisfiable(t(text), CFG)
        assert isinstance(v, Sat)
        assert evaluate(v.model, f(text))

    def test_three_thousand_negations_before_an_atom_are_satisfiable(self):
        # re-validation evaluates the axiom: the parent walked one frame per !
        deep = f("P(c)")
        for _ in range(3_000):
            deep = Not(deep)
        v = satisfiable(Theory((deep,)), CFG)
        assert isinstance(v, Sat)
        assert evaluate(v.model, f("P(c)"))

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

    def test_fluents_at_both_stages_are_searched_at_both(self):
        # Only a sentence with a next-stage atom separates this pair.  With
        # fluent atoms at the current stage alone, the short search ran all
        # its candidates (about 90 s) before the characteristic sentence.
        sig = Signature(objects=frozenset({"c"}), fluents=frozenset({("F", 1)}))
        one = Theory((parse_formula("forall x (F(x) -> F'(x))", sig),))
        two = Theory((parse_formula("F(c) | !F'(c)", sig),))
        v = check_inseparable(one, two, sig, OracleConfig(max_extra=1, time_limit=10))
        assert isinstance(v, Separated) and v.entailed_by == 2
        assert render(v.witness) == "exists v0 (F'(v0) -> F(v0))"


class TestReductEnumeration:
    def test_forgotten_corpus_pair_reduct_counts(self, insep_pair):
        (sig1, one), (sig2, two) = insep_pair
        delta = Signature(objects=frozenset({"c"}), statics=frozenset({("R", 2)}))
        g = GroundAtom("R", ("c", "c"), None)
        t1, t2 = forget_atom(one, g), forget_atom(two, g)
        vocab = sig1 | sig2 | delta
        sides = (oracle._compile(t1.axioms),), (oracle._compile(t2.axioms),)
        search = oracle._Search(OracleConfig(max_extra=1), vocab, frozenset())
        sets = oracle._reduct_sets_by_size(search, *sides, delta)
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


class TestNoCyclicGarbage:
    """An oracle call frees what it builds by reference counting: it leaves
    no reference cycle for the collector to find.  Closures that refer to
    themselves, as a recursive walker nested in the function that calls it
    does, would leave one per call."""

    @staticmethod
    def collected_after(call):
        gc.collect()
        gc.disable()
        try:
            call()
            return gc.collect()
        finally:
            gc.enable()

    def test_entailment_equivalence_and_satisfiability(self, chain, insep_pair, cfg1):
        (_, one), (_, two) = insep_pair
        _, theory = chain
        no_una = OracleConfig(max_extra=1, una=False)
        calls = {
            "entails": lambda: entails(theory, theory.axioms[-1], cfg1),
            "equivalent": lambda: equivalent(one, two, cfg1),
            "satisfiable": lambda: satisfiable(one, cfg1),
            "satisfiable-no-una": lambda: satisfiable(one, no_una),
        }
        assert {name: self.collected_after(call) for name, call in calls.items()} == dict.fromkeys(calls, 0)

    def test_forgetting_verification_and_inseparability(self, insep_pair, cfg1):
        (_, one), (_, two) = insep_pair
        g = GroundAtom("R", ("c", "c"), None)
        forgot1, forgot2 = forget_atom(one, g), forget_atom(two, g)
        delta = Signature(objects=frozenset({"c"}), statics=frozenset({("R", 2)}))
        calls = {
            "verify_forgetting": lambda: verify_forgetting(one, g, forgot1, cfg1),
            "check_inseparable": lambda: check_inseparable(forgot1, forgot2, delta, cfg1),
        }
        assert {name: self.collected_after(call) for name, call in calls.items()} == dict.fromkeys(calls, 0)


class TestOneSearchPerCall:
    """Each public oracle call fixes its vocabulary, stages, bound and budget
    once, in one search that every phase of the call reads."""

    @pytest.fixture
    def searches(self, monkeypatch):
        built = []
        search = oracle._Search

        def record(*args):
            built.append(search(*args))
            return built[-1]

        monkeypatch.setattr(oracle, "_Search", record)
        return built

    def test_each_public_call_builds_one_search(self, searches, chain, insep_pair, cfg1):
        (_, one), (_, two) = insep_pair
        _, theory = chain
        g = GroundAtom("R", ("c", "c"), None)
        delta = Signature(objects=frozenset({"c"}), statics=frozenset({("R", 2)}))
        calls = {
            "entails": lambda: entails(theory, theory.axioms[-1], cfg1),
            "satisfiable": lambda: satisfiable(one, cfg1),
            # both directions run: the second one finds the countermodel
            "equivalent": lambda: equivalent(one, two, cfg1),
            "verify_forgetting": lambda: verify_forgetting(one, g, forget_atom(one, g), cfg1),
            "check_inseparable": lambda: check_inseparable(one, two, delta, cfg1),
            "check_expansion": lambda: check_expansion(one, two, cfg1),
            "models": lambda: list(models(one, cfg1)),
        }
        built = {}
        for name, call in calls.items():
            searches.clear()
            verdict = call()
            built[name] = len(searches)
            if name == "equivalent":
                assert verdict.direction == "2!=>1"
            if name == "check_inseparable":
                assert isinstance(verdict, Separated)
        assert built == dict.fromkeys(calls, 1)

    def test_max_models_holds_for_the_whole_call(self, searches, insep_pair):
        # check_expansion enumerates reducts twice, on one budget
        (_, one), (_, two) = insep_pair
        check_expansion(one, two, OracleConfig(max_extra=1))
        total = searches[-1].count
        check_expansion(one, two, OracleConfig(max_extra=1, max_models=total))
        with pytest.raises(BudgetExceeded, match="reduct enumeration"):
            check_expansion(one, two, OracleConfig(max_extra=1, max_models=total - 1))


class TestGroundOnce:
    """A negation is the dual of the tree already grounded, never a second
    grounding, and the time budget covers grounding and encoding."""

    def test_forgetting_verification_grounds_each_theory_once_per_spec(self, monkeypatch, insep_pair, cfg1):
        (_, one), _ = insep_pair
        g = GroundAtom("R", ("c", "c"), None)
        r = forget_atom(one, g)
        calls = []
        ground = oracle._Program.ground
        monkeypatch.setattr(oracle._Program, "ground", lambda p, gr: calls.append((gr, p.theory)) or ground(p, gr))
        assert isinstance(verify_forgetting(one, g, r, cfg1), oracle.VerifiedFinite)
        grounders = list(dict.fromkeys(gr for gr, _ in calls))
        vocab = signature_of(one) | signature_of(r) | g.signature()
        assert len(grounders) == len(list(_domain_specs(vocab, cfg1, canonical=True))) > 1
        assert calls == [(gr, theory) for gr in grounders for theory in (one, r)]

    def test_a_biconditional_looks_up_each_atom_occurrence_once(self):
        looked = []

        class Lookups(dict):
            def get(self, key, default=None):
                looked.append(key)
                return super().get(key, default)

        g = _Grounder(1, (("c", 0),))
        g.atom_vars = Lookups()
        _compile((f("P(c) <-> !(R(c, c) <-> P(c))"),)).ground(g)
        assert looked == [(("P", ""), (0,)), (("R", ""), (0, 0)), (("P", ""), (0,))]

    def test_the_time_limit_bounds_grounding(self):
        # each <-> of the chain doubles the tree: 2^16 connectives to build
        atoms = [StaticAtom(f"A{i}") for i in range(16)]
        chain = atoms[-1]
        for a in reversed(atoms[:-1]):
            chain = Iff(a, chain)
        with pytest.raises(BudgetExceeded, match="^(grounding|encoding) exceeded the time budget$"):
            satisfiable(Theory((chain,)), OracleConfig(time_limit=1e-9))

    def test_the_time_limit_bounds_encoding(self):
        s = oracle._Search(OracleConfig(time_limit=1e-9), Signature(), frozenset())
        cnf = oracle._CNF(2, s.check_time)
        with pytest.raises(BudgetExceeded, match="^encoding exceeded the time budget$"):
            cnf.assert_root(("O", [("A", [1, 2])] * 1_000))
