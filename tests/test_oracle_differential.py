"""The oracle's solver-based enumerations against brute-force references.

Theories come from the property-suite generators, seeded per case, over the
two-constant vocabulary of the verification suite.  Reduct sets are compared
as sets; forgetting verdicts by kind, since a result that is wrong in both
directions may be reported by either.

Without unique names the one-model questions try one constant placement per
identification of the constants; their verdicts, models included, must equal
those of a search over every placement.

With the short witness search switched off, inseparability must separate
exactly the pairs whose reference reduct sets differ up to isomorphism, by
the characteristic sentence of the first reduct only one side realizes.
"""

import itertools
import random

import pytest
from oracle_reference import interpretations, reduct_sets_by_size, verify_forgetting
from test_property_suites import NO_P, SEEDS, SMALL_CONSTS, random_formula, random_target, random_theory

from sitcalc import oracle
from sitcalc.forgetting import forget_atom
from sitcalc.oracle import (
    FiniteModel,
    InseparableFinite,
    OracleConfig,
    Separated,
    VerifiedFinite,
    check_inseparable,
    entails,
    equivalent,
    evaluate,
    models,
    satisfiable,
    theory_holds,
)
from sitcalc.surface import parse_theory, render
from sitcalc.syntax import Signature, Stage, Theory, signature_of, stages_of

CONFIGS = [
    pytest.param(OracleConfig(max_extra=x, una=u), id=f"max_extra={x}-{'una' if u else 'no-una'}")
    for u in (True, False)
    for x in (0, 1)
]


def _case(seed):
    """A theory, an atom to forget, and the theory with the atom forgotten."""
    rng = random.Random(7000 + seed)
    t = random_theory(rng, consts=SMALL_CONSTS)
    g = random_target(rng, consts=SMALL_CONSTS)
    return t, g, forget_atom(t, g)


@pytest.mark.parametrize("cfg", CONFIGS)
def test_reduct_sets_match_diagram_pinning(cfg):
    for seed in SEEDS:
        t1, _, t2 = _case(seed)
        shown = frozenset(SMALL_CONSTS[: seed % 3])
        # The binary R joins delta where the domains stay at two elements.
        preds = {("P", 1)} if cfg.max_extra else {("P", 1), ("R", 2)}
        delta = Signature(objects=shown, statics=frozenset(preds))
        vocab = signature_of(t1) | signature_of(t2) | delta
        stages = stages_of(t1) | stages_of(t2)
        sides = (oracle._compile(t1.axioms),), (oracle._compile(t2.axioms),)
        got = oracle._reduct_sets_by_size(oracle._Search(cfg, vocab, stages), *sides, delta)
        want = reduct_sets_by_size(t1, t2, delta, vocab, stages, cfg)
        assert got == want, f"seed {seed}"


def _seeds(cfg, every=1):
    """Each every-th property-suite seed, and only a quarter of those where
    the reference streams every interpretation without unique names at
    max_extra 1, which costs up to 3 s a case."""
    return SEEDS[:: 4 * every] if not cfg.una and cfg.max_extra else SEEDS[::every]


@pytest.mark.parametrize("cfg", CONFIGS)
def test_forgetting_verdicts_match_streaming(cfg):
    for seed in _seeds(cfg):
        t, g, forgotten = _case(seed)
        # The forgotten theory passes; adding g is usually too strong, and the
        # empty theory usually too weak.
        r = (forgotten, Theory(t.axioms + (g.to_formula(),)), Theory(()))[seed % 3]
        got = oracle.verify_forgetting(t, g, r, cfg)
        want = verify_forgetting(t, g, r, cfg)
        assert type(got) is type(want), f"seed {seed}"
        if isinstance(want, VerifiedFinite):
            assert got == want, f"seed {seed}"


@pytest.mark.parametrize("cfg", CONFIGS)
def test_models_match_filtered_interpretations(cfg):
    for seed in _seeds(cfg, every=10):
        t, _, _ = _case(seed)
        want = {m for m in interpretations(signature_of(t), stages_of(t), cfg) if theory_holds(m, t)}
        got = list(models(t, cfg))
        assert len(got) == len(set(got)) and set(got) == want, f"seed {seed}"


def test_canonical_placements_give_the_verdicts_of_every_placement(monkeypatch):
    cfg = OracleConfig(max_extra=1, una=False)

    def verdicts():
        out = []
        for seed in SEEDS[::4]:
            rng = random.Random(9000 + seed)
            t = random_theory(rng)
            g = random_target(rng)
            forgotten = forget_atom(t, g, una=False)
            r = (forgotten, Theory(t.axioms + (g.to_formula(),)), Theory(()))[seed % 3]
            out.append((
                entails(t, random_formula(rng, 2, [], NO_P), cfg),
                satisfiable(t, cfg),
                equivalent(t, forgotten, cfg),
                oracle.verify_forgetting(t, g, r, cfg),
            ))
        return out

    canonical = verdicts()
    every = oracle._domain_specs
    monkeypatch.setattr(oracle, "_domain_specs", lambda vocab, cfg, canonical=False, quantified=True: every(vocab, cfg))
    assert canonical == verdicts()


@pytest.fixture
def no_short_witness(monkeypatch):
    """Make check_inseparable skip straight to its characteristic-sentence witness."""
    monkeypatch.setattr(oracle, "_delta_sentences", lambda *args, **kwargs: iter(()))


def _relabelled(m, perm):
    return FiniteModel(
        m.size,
        tuple((c, perm[e]) for c, e in m.consts),
        tuple((k, frozenset(tuple(perm[e] for e in tup) for tup in table)) for k, table in m.relations),
    )


def _first_unmatched(sets):
    """The first reduct, smallest domains first and in sort_key order, that
    only one side realizes up to isomorphism, with the side lacking it."""
    for n, r1, r2 in sets:
        for m in sorted(r1 ^ r2, key=FiniteModel.sort_key):
            other = r2 if m in r1 else r1
            if not {_relabelled(m, p) for p in itertools.permutations(range(n))} & other:
                return m, (2 if m in r1 else 1)
    return None


@pytest.mark.parametrize("una", [True, False], ids=["una", "no-una"])
def test_fallback_separates_exactly_where_reducts_differ(no_short_witness, una):
    cfg = OracleConfig(max_extra=1, una=una)
    separated = 0
    for seed in SEEDS:
        t1, _, t2 = _case(seed)
        delta = Signature(objects=frozenset(SMALL_CONSTS[: seed % 3]), statics=frozenset({("P", 1)}))
        vocab = signature_of(t1) | signature_of(t2) | delta
        sets = reduct_sets_by_size(t1, t2, delta, vocab, stages_of(t1) | stages_of(t2), cfg)
        unmatched = _first_unmatched(sets)
        v = check_inseparable(t1, t2, delta, cfg)
        if unmatched is None:
            assert isinstance(v, InseparableFinite), f"seed {seed}"
            continue
        separated += 1
        m, lacking = unmatched
        assert isinstance(v, Separated) and v.entailed_by == lacking, f"seed {seed}"
        assert not evaluate(m, v.witness), f"seed {seed}"
        lacking_reducts = [r for _, r1, r2 in sets for r in (r1, r2)[lacking - 1]]
        assert all(evaluate(r, v.witness) for r in lacking_reducts), f"seed {seed}"
    assert separated >= 20


def _theory(decls, *axioms):
    return parse_theory(decls + "\ntheory {\n" + "".join(f"  {a};\n" for a in axioms) + "}\n")[1]


def test_fallback_covers_a_fluent_at_both_stages(no_short_witness):
    decls = "object c;\nfluent F/1;"
    delta = Signature(objects=frozenset({"c"}), fluents=frozenset({("F", 1)}))
    v = check_inseparable(
        _theory(decls, "forall x (F(x) -> F'(x))"), _theory(decls, "F(c) | !F'(c)"), delta, OracleConfig(max_extra=1)
    )
    assert isinstance(v, Separated) and v.entailed_by == 1
    assert render(v.witness) == "!(forall v0 (v0 == c) & !F'(c) & F(c))"
    assert stages_of(v.witness) == {Stage.NOW, Stage.NEXT}


def test_fallback_states_constants_identified_without_unique_names(no_short_witness):
    decls = "object c1, c2;\nstatic P/1;"
    delta = Signature(objects=frozenset({"c1", "c2"}), statics=frozenset({("P", 1)}))
    cfg = OracleConfig(max_extra=0, una=False)
    v = check_inseparable(_theory(decls, "c1 != c2"), _theory(decls, "P(c1) | !P(c2)"), delta, cfg)
    assert isinstance(v, Separated) and v.entailed_by == 1
    assert render(v.witness) == "!(c1 == c2 & forall v0 (v0 == c1) & !P(c1))"


def test_fallback_with_empty_delta_counts_elements(no_short_witness):
    decls = "object c;\nstatic P/1;"
    v = check_inseparable(_theory(decls, "P(c)", "!P(c)"), _theory(decls, "P(c)"), Signature(), OracleConfig(max_extra=1))
    assert isinstance(v, Separated) and v.entailed_by == 1
    assert render(v.witness) == "!exists v0 forall v1 (v1 == v0)"


def test_fallback_over_a_domain_of_named_elements_needs_no_existential(no_short_witness):
    decls = "object c1, c2;\nstatic P/1;"
    delta = Signature(objects=frozenset({"c1", "c2"}), statics=frozenset({("P", 1)}))
    v = check_inseparable(_theory(decls, "P(c1)"), _theory(decls, "P(c2) | !P(c2)"), delta, OracleConfig(max_extra=0))
    assert isinstance(v, Separated) and v.entailed_by == 1
    assert render(v.witness) == "!(c1 != c2 & forall v0 (v0 == c1 | v0 == c2) & !P(c1) & !P(c2))"
