"""simplify against the copy it replaced (tests/simplify_reference.py).

The reference rewrites to a fixed point by repeating one-step passes.
simplify instead memoizes each node's normal form on the node, marks normal
each node that a rule builds from normal parts and that no rule could
rewrite again, and normalizes any other rule result in turn.  On every
input here it must return a result equal to the reference's and rendered
alike, with and without unique names.
Inputs are the formulas of the corpus, the property-suite formulas and
theories, wide conjunctions and disjunctions of literals (test_syntax),
disjunctions that stripping leaves unsettled, and every formula simplified
while the progress benchmark's
theories of seeds 1-3 are progressed, whole and componentwise.  Every node
marked normal must be one that a rewriting pass returns as itself.
"""

import importlib
import random
import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import pytest
import simplify_reference as reference
import transform_reference
from test_property_suites import SEEDS, random_formula, random_target, random_theory
from test_syntax import _negated_chains, _wide_formulas

from sitcalc import bat, corpus_path, forgetting, progression, syntax
from sitcalc.decomposition import group_ssas, syntactic_decompose
from sitcalc.progression import progress, progress_componentwise
from sitcalc.surface import parse_bat, parse_file, parse_ground_action, render
from sitcalc.syntax import FALSE, TRUE, And, Not, Or, Signature, StaticAtom, conj, disj, simplify

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
CORPUS = sorted(p.name for p in corpus_path("blocks_world.bat").parent.glob("*.bat"))


@contextmanager
def recorded():
    """Record (formula, una) for every simplify call made inside the block."""
    calls = []

    def recording(f, una=True):
        calls.append((f, una))
        return simplify(f, una)

    modules = (syntax, bat, forgetting, progression, transform_reference)
    for m in modules:
        m.simplify = recording
    try:
        yield calls
    finally:
        for m in modules:
            m.simplify = simplify


def benchmark_specs(seed):
    """The progress workload's inputs for one seed, from perfbench/gen.py."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        gen = importlib.import_module("gen")
    finally:
        sys.path.remove(str(PERFBENCH))
    return gen.progress_specs(seed)


def progressed_inputs(seed):
    """Every simplify call made while progressing one seed's theories, as
    the progress workload does: through each move, and componentwise
    through the first move of the blocks-and-heap theories.  Each move's
    successor state axioms are also instantiated the generic way
    (tests/transform_reference.py), whose simplify calls progress skips
    where the effect conditions are settled."""
    delta2 = Signature(statics=frozenset({("Block", 1)}))
    with recorded() as calls:
        for spec in benchmark_specs(seed):
            b0 = b = parse_bat(spec.text)
            for a in spec.actions:
                alpha = parse_ground_action(a, b.sig)
                r = progress(b, alpha)
                transform_reference.instantiate_ssas(b, alpha, r.omega)
                b = replace(b, init=r.theory)
            if spec.kind == "stacks":
                decomp = syntactic_decompose(b0.init, delta2)
                alpha = parse_ground_action(spec.actions[0], b0.sig)
                progress_componentwise(b0, decomp, group_ssas(b0), alpha)
    return calls


def corpus_inputs():
    out = []
    for name in CORPUS:
        _, t, b = parse_file(corpus_path(name).read_text(), name)
        out += t.axioms
        if b is not None:
            out += [p.formula for p in b.preconditions]
            out += [d.context for s in b.ssas for d in s.pos + s.neg]
    return out


def property_inputs(seed):
    rng = random.Random(7000 + seed)
    out = list(random_theory(rng))
    out += [random_formula(rng, 3, [], ("P", "R")) for _ in range(4)]
    return out


def nodes(roots):
    """Every node reachable from the roots, each once."""
    seen = {}
    stack = list(roots)
    while stack:
        f = stack.pop()
        if id(f) in seen:
            continue
        seen[id(f)] = f
        if isinstance(f, (syntax.And, syntax.Or, syntax.Implies, syntax.Iff)):
            stack += (f.lhs, f.rhs)
        elif isinstance(f, (syntax.Not, syntax.Forall, syntax.Exists)):
            stack.append(f.body)
    return seen.values()


def check(cases):
    results = []
    for f, una in cases:
        got = simplify(f, una)
        want = reference.simplify(f, una)
        assert got == want
        assert render(got) == render(want)
        results.append((got, una))
    for una in (False, True):
        roots = [f for f, u in cases if u == una] + [g for g, u in results if u == una]
        for n in nodes(roots):
            if getattr(n, syntax._SLOT[una], None) is syntax._NORMAL:
                assert syntax._rewrite(n, una) is n


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_progressed_benchmark_theories_simplify_alike(seed):
    cases = progressed_inputs(seed)
    assert len(cases) > 1000
    check(cases)


def test_corpus_formulas_simplify_alike():
    check([(f, una) for f in corpus_inputs() for una in (False, True)])


@pytest.mark.parametrize("seed", SEEDS)
def test_property_formulas_simplify_alike(seed):
    check([(f, una) for f in property_inputs(seed) for una in (False, True)])


def stripped_disjunctions():
    """Disjunctions where stripping a refuted conjunct leaves work for the
    next pass: d | (!d & e) | (e & f) absorbs e & f only then.  Hand-written
    cases, staircases that take a round per step, then random disjunctions
    of short conjunctions of literals over three atoms, where such chains
    are common."""
    d, e, f, g = (StaticAtom(n, ()) for n in "DEFG")
    out = [
        disj([d, And(Not(d), e), And(e, f)]),  # then absorbed
        disj([d, And(Not(d), e), e]),  # then a repeat
        disj([d, And(Not(d), e), And(Not(e), g)]),  # then stripped again
        disj([d, e, And(Not(d), Not(e))]),  # then TRUE
        disj([d, And(Not(d), Or(e, f)), g]),  # then a nested disjunction
    ]
    # staircases D0 | (!D0 & D1) | ... strip one conjunct a round, for as
    # many rounds as they have steps, in either order; from 16 disjuncts on
    # the parts are kept in an index
    for n in (8, 20, 40):
        s = [StaticAtom(f"D{i}", ()) for i in range(n)]
        steps = [s[0]] + [And(Not(s[i - 1]), s[i]) for i in range(1, n)]
        out += [disj(steps), disj(reversed(steps)), disj(steps + [And(Not(s[-1]), d)])]
    rng = random.Random(21)
    for _ in range(300):
        def literal():
            atom = rng.choice((d, e, f))
            return Not(atom) if rng.random() < 0.5 else atom
        out.append(disj(conj(literal() for _ in range(rng.randint(1, 3))) for _ in range(rng.randint(2, 5))))
    return out


def test_stripped_disjunctions_simplify_alike():
    check([(f, una) for f in stripped_disjunctions() for una in (False, True)])


def test_an_untouched_part_is_tested_against_the_parts_rebuilt_before_it():
    # stripping the refuted !C leaves !Z | W, or Z | W, to be flattened into
    # the next round; the untouched Z is then the complement, or a repeat,
    # of a part rebuilt the round before
    c, z, w = (StaticAtom(n, ()) for n in "CZW")
    refuted, repeated = disj([c, And(Not(c), Or(Not(z), w)), z]), disj([c, And(Not(c), Or(z, w)), z])
    check([(f, una) for f in (refuted, repeated) for una in (False, True)])
    assert simplify(refuted) == TRUE
    assert render(simplify(repeated)) == "C | Z | W"


def test_chains_of_negated_links_simplify_alike():
    # up to 30 links, over distinct atoms, where no rule fires, and over
    # leaves drawn from a few atoms, TRUE and FALSE, where rules fire at
    # many links
    rng = random.Random(56)
    pool = [StaticAtom(n, ()) for n in "DEF"] + [TRUE, FALSE, Not(StaticAtom("D", ()))]
    cases = []
    for n in range(2, 31):
        distinct = [StaticAtom(f"P{i}", ()) for i in range(n)]
        drawn = [rng.choice(pool) for _ in range(n)]
        cases += [(f, una) for leaves in (distinct, drawn) for f in _negated_chains(leaves) for una in (False, True)]
    check(cases)


def test_wide_formulas_simplify_alike():
    check([(f, una) for f in _wide_formulas() for una in (False, True)])


def test_forgetting_property_theories_simplify_alike():
    # what forgetting simplifies: relativized axioms and the disjunction of
    # each step, built from the property-suite theories
    with recorded() as calls:
        for seed in SEEDS:
            rng = random.Random(9000 + seed)
            t, g = random_theory(rng), random_target(rng)
            forgetting.forget_atom(t, g)
            forgetting.forget_atom(t, g, una=False)
    assert calls
    check(calls)


def test_a_stacks_progression_rewrites_fewer_nodes(monkeypatch):
    # the simplifier before normal marks made 480 _rewrite calls here, and
    # 323 before the ground-action transform bound the quantified action
    # arguments itself and settled effect conditions were instantiated
    # without simplify.  It made 263 while a disjunction that stripping
    # changed was proved normal by a trial pass of _disjuncts and _absorb.
    # Now the 7 such disjunctions take that pass as a further round of
    # _disjunction_of's loop, and one conjunction with an And part is
    # normalized again through _rewrite: 1 more call.  The disjunction
    # work itself, counted by the _disjuncts and _absorb calls, stays at
    # 54 and 53
    calls = {"_rewrite": 0, "_disjuncts": 0, "_absorb": 0}
    for name in calls:
        def counted(*args, _fn=getattr(syntax, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(syntax, name, counted)
    b = parse_bat(corpus_path("blocks_stacks.bat").read_text())
    progress(b, parse_ground_action("move(A, B, C)", b.sig))
    assert calls == {"_rewrite": 264, "_disjuncts": 54, "_absorb": 53}
