"""The oracle's solver-based enumerations against brute-force references.

Theories come from the property-suite generators, seeded per case, over the
two-constant vocabulary of the verification suite.  Reduct sets are compared
as sets; forgetting verdicts by kind, since a result that is wrong in both
directions may be reported by either.

Without unique names the one-model questions try one constant placement per
identification of the constants; their verdicts, models included, must equal
those of a search over every placement.
"""

import random

import pytest
from oracle_reference import interpretations, reduct_sets_by_size, verify_forgetting
from test_property_suites import NO_P, SEEDS, SMALL_CONSTS, random_formula, random_target, random_theory

from sitcalc import oracle
from sitcalc.forgetting import forget_atom
from sitcalc.oracle import (
    OracleConfig,
    VerifiedFinite,
    entails,
    equivalent,
    models,
    satisfiable,
    theory_holds,
)
from sitcalc.syntax import Signature, Theory, signature_of, stages_of

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
        got = oracle._reduct_sets_by_size(t1, t2, delta, vocab, stages, cfg)
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
    monkeypatch.setattr(oracle, "_domain_specs", lambda vocab, cfg, canonical=False: every(vocab, cfg))
    assert canonical == verdicts()
