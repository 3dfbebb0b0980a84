"""The oracle's quantifier-free pruning against the search over every spec.

A question none of whose formulas has a quantifier grounds to the same
atoms over one placement of its constants at every domain size, so
_countermodel and verify_forgetting search each restricted-growth placement
once, at the least size that holds it, and under unique names only the
least size.  Every verdict must be the one the search over every spec
returns, with the same model, bound and direction; that search is reached
by monkeypatching _domain_specs to ignore the pruning.  The questions are
asked on the corpus, on quantifier-free property-suite theories and on
complete blocks worlds, with and without unique names, at max_extra 0 to 2.

The guards: a quantifier anywhere in a question, in the theory, in the
query or only under <->, keeps every size.
"""

import random

import pytest
from blocks_worlds import ground_world
from conftest import load_bat, load_theory
from test_property_suites import ALL_PREDS, CONSTS, NO_P, SMALL_CONSTS, random_formula, random_target

from sitcalc import oracle
from sitcalc.forgetting import GroundAtom, forget_atom
from sitcalc.oracle import (
    Countermodel,
    EntailedFinite,
    ForgettingMismatch,
    NotEquivalent,
    OracleConfig,
    Sat,
    entails,
    equivalent,
    satisfiable,
    verify_forgetting,
)
from sitcalc.progression import executable, progress, project
from sitcalc.surface import parse_formula, parse_ground_action
from sitcalc.syntax import Const, Exists, FluentAtom, Forall, Iff, Not, StaticAtom, Theory, Var

CONFIGS = [OracleConfig(max_extra=x, una=u) for u in (True, False) for x in (0, 1, 2)]
CONFIG_IDS = [f"{'una' if c.una else 'no-una'}-{c.max_extra}" for c in CONFIGS]

x = Var("x")
P = lambda t: StaticAtom("P", (t,))  # noqa: E731
Q = StaticAtom("Q")
c = Const("c")


def every_spec(monkeypatch):
    """Make every question search every spec its quantifiers would need."""
    specs = oracle._domain_specs
    monkeypatch.setattr(
        oracle, "_domain_specs", lambda vocab, cfg, canonical=False, quantified=True: specs(vocab, cfg, canonical)
    )


def assert_same_verdicts(monkeypatch, questions, cfg):
    """Each question's verdict, pruned and over every spec, by repr."""
    pruned = [repr(ask(cfg)) for ask in questions]
    with monkeypatch.context() as m:
        every_spec(m)
        full = [repr(ask(cfg)) for ask in questions]
    assert pruned == full


def _quantifier_free(f) -> bool:
    return "Forall(" not in repr(f) and "Exists(" not in repr(f)


def qf_formula(rng, preds=ALL_PREDS, consts=CONSTS):
    """A property-suite formula that has no quantifier."""
    while True:
        f = random_formula(rng, 2, [], preds, consts)
        if _quantifier_free(f):
            return f


def qf_theory(rng, consts=CONSTS):
    return Theory(tuple(qf_formula(rng, consts=consts) for _ in range(rng.randrange(1, 4))))


@pytest.mark.parametrize("cfg", CONFIGS, ids=CONFIG_IDS)
def test_corpus(monkeypatch, cfg):
    chain_sig, chain = load_theory("propositional_chain.bat")
    b = load_bat("blocks_world.bat")
    moves = [parse_ground_action(a, b.sig) for a in ("move(A, B, C)", "move(A, C, B)")]
    after = progress(b, moves[0]).theory
    query = parse_formula("On(A, C) & Clear(B) & !Clear(C)", b.sig)
    eh = GroundAtom("EH", ("A",))
    questions = [
        lambda cfg: entails(chain, parse_formula("A -> B", chain_sig), cfg),
        lambda cfg: entails(chain, parse_formula("B -> A", chain_sig), cfg),
        lambda cfg: satisfiable(chain, cfg),
        lambda cfg: equivalent(b.init, after, cfg),
        lambda cfg: equivalent(after, after, cfg),
        lambda cfg: satisfiable(Theory(after.axioms + (Not(query),)), cfg),
        lambda cfg: project(b, moves[:1], query, cfg),
        lambda cfg: project(b, moves[:1], Not(query), cfg),
        lambda cfg: executable(b, moves, cfg),
        lambda cfg: verify_forgetting(b.init, eh, forget_atom(b.init, eh), cfg),
        lambda cfg: verify_forgetting(b.init, eh, b.init, cfg),
    ]
    assert_same_verdicts(monkeypatch, questions, cfg)


@pytest.mark.parametrize("cfg", CONFIGS, ids=CONFIG_IDS)
def test_property_suite_theories(monkeypatch, cfg):
    questions = []
    for seed in range(0, 100, 5):
        rng = random.Random(27000 + seed)
        # three constants with unique names, two without, as the
        # verification suite uses: every placement of three at max_extra 2
        # is 5^3 specs per question
        consts = CONSTS if cfg.una else SMALL_CONSTS
        t, other = qf_theory(rng, consts), qf_theory(rng, consts)
        g = random_target(rng, consts)
        phi = qf_formula(rng, NO_P, consts)
        forgotten = forget_atom(t, g, una=cfg.una)
        r = (forgotten, Theory(t.axioms + (g.to_formula(),)), Theory(()))[seed % 3]
        questions += [
            lambda cfg, t=t, phi=phi: entails(t, phi, cfg),
            lambda cfg, t=t: satisfiable(t, cfg),
            lambda cfg, t=t, other=other: equivalent(t, other, cfg),
            lambda cfg, t=t, forgotten=forgotten: equivalent(t, forgotten, cfg),
            lambda cfg, t=t, g=g, r=r: verify_forgetting(t, g, r, cfg),
        ]
    assert_same_verdicts(monkeypatch, questions, cfg)


@pytest.mark.parametrize("cfg", CONFIGS, ids=CONFIG_IDS)
def test_complete_blocks_worlds(monkeypatch, cfg):
    questions = []
    # two blocks and the table without unique names, as perfbench's
    # decide workload asks them
    for seed in range(4):
        b, alpha = ground_world(random.Random(f"pruning-{seed}"), 3 if cfg.una else 2)
        after = progress(b, alpha).theory
        moved, _, onto = alpha.args
        on = FluentAtom("On", (Const(moved), Const(onto)))
        flipped = Theory(tuple(Not(ax) if ax == on else ax for ax in after.axioms))
        questions += [
            lambda cfg, after=after: equivalent(after, after, cfg),
            lambda cfg, after=after, flipped=flipped: equivalent(after, flipped, cfg),
            lambda cfg, after=after: satisfiable(after, cfg),
            lambda cfg, after=after, on=on: satisfiable(Theory(after.axioms + (Not(on),)), cfg),
            lambda cfg, b=b, alpha=alpha, on=on: project(b, [alpha], on, cfg),
            lambda cfg, b=b, alpha=alpha, on=on: project(b, [alpha], Not(on), cfg),
            lambda cfg, b=b, alpha=alpha: executable(b, [alpha, alpha], cfg),
            lambda cfg, b=b: verify_forgetting(
                b.init, GroundAtom("Clear", ("T",)), forget_atom(b.init, GroundAtom("Clear", ("T",))), cfg
            ),
        ]
    assert_same_verdicts(monkeypatch, questions, cfg)


class TestGroundersPerQuestion:
    """Each grounder a pruned question makes is one spec it searched."""

    THEORY = Theory((P(Const("a")), StaticAtom("R", (Const("b"), Const("c")))))
    QUERY = Iff(P(Const("a")), StaticAtom("R", (Const("b"), Const("c"))))

    @staticmethod
    def grounders(monkeypatch, ask):
        made = []
        grounder = oracle._Grounder

        class Counted(grounder):
            def __init__(self, *args, **kwargs):
                made.append(args[0])
                super().__init__(*args, **kwargs)

        with monkeypatch.context() as m:
            m.setattr(oracle, "_Grounder", Counted)
            ask()
        return made

    @pytest.mark.parametrize("max_extra", (0, 1, 2))
    def test_one_per_direction_under_unique_names(self, monkeypatch, max_extra):
        cfg = OracleConfig(max_extra=max_extra)
        t = self.THEORY
        for ask, sizes in (
            (lambda: entails(t, self.QUERY, cfg), [3]),
            (lambda: equivalent(t, t, cfg), [3, 3]),
            (lambda: satisfiable(t, cfg), [3]),
            (lambda: verify_forgetting(t, GroundAtom("P", ("a",), None), Theory(t.axioms[1:]), cfg), [3]),
        ):
            assert self.grounders(monkeypatch, ask) == sizes

    @pytest.mark.parametrize("max_extra", (0, 1, 2))
    def test_one_per_set_partition_without_unique_names(self, monkeypatch, max_extra):
        cfg = OracleConfig(max_extra=max_extra, una=False)
        t = self.THEORY
        # the five partitions of {a, b, c}: one block, three of two blocks,
        # and all apart, each at the size of its number of blocks
        partitions = [1, 2, 2, 2, 3]
        for ask, sizes in (
            (lambda: entails(t, self.QUERY, cfg), partitions),
            (lambda: equivalent(t, t, cfg), partitions * 2),
            (lambda: verify_forgetting(t, GroundAtom("P", ("a",), None), Theory(t.axioms[1:]), cfg), partitions),
        ):
            assert self.grounders(monkeypatch, ask) == sizes

    def test_no_constant_is_one_element(self, monkeypatch):
        for una in (True, False):
            cfg = OracleConfig(max_extra=2, una=una)
            assert self.grounders(monkeypatch, lambda: satisfiable(Theory((Q,)), cfg)) == [1]


class TestQuantifiersKeepEverySize:
    """A countermodel that needs an element no constant names is found
    wherever the quantifier is."""

    CFG = OracleConfig(max_extra=1)

    def test_quantifier_in_the_query(self):
        v = entails(Theory((P(c),)), Forall(x, P(x)), self.CFG)
        assert isinstance(v, Countermodel) and v.model.size == 2

    def test_quantifier_in_the_theory(self):
        v = satisfiable(Theory((P(c), Exists(x, Not(P(x))))), self.CFG)
        assert isinstance(v, Sat) and v.model.size == 2

    def test_quantifier_only_under_a_biconditional(self):
        v = entails(Theory((P(c), Q)), Iff(Q, Forall(x, P(x))), self.CFG)
        assert isinstance(v, Countermodel) and v.model.size == 2

    def test_quantifier_in_one_theory_of_an_equivalence(self):
        v = equivalent(Theory((P(c),)), Theory((P(c), Forall(x, P(x)))), self.CFG)
        assert isinstance(v, NotEquivalent) and v.model.size == 2 and v.direction == "1!=>2"

    def test_quantifier_in_the_forgotten_theory(self):
        v = verify_forgetting(Theory((Forall(x, P(x)),)), GroundAtom("P", ("c",), None), Theory(()), self.CFG)
        assert isinstance(v, ForgettingMismatch) and v.model.size == 2 and v.direction == "result-too-weak"

    def test_without_a_quantifier_the_least_size_answers(self):
        v = entails(Theory((P(c),)), P(Const("d")), self.CFG)
        assert isinstance(v, Countermodel) and v.model.size == 2
        assert entails(Theory((P(c),)), P(c), self.CFG) == EntailedFinite(bound=2)
