"""Headline checks, one test per criterion, each with an explicit time budget.

Run with -v to get one pass/fail line per criterion.  Every expected value
here is pinned down independently by the per-module tests; this file ties
them together end to end and enforces the runtime limits.
"""

import dataclasses
import time

from test_progression import STACKS_PROGRESSED, union
from test_property_suites import SEEDS, SUITES

from sitcalc.bat import argument_set, characteristic_set, transform_ssa
from sitcalc.decomposition import (
    Decomposition,
    check_local_effect_preservation,
    check_strong_preservation,
    detect_split,
    group_ssas,
    syntactic_decompose,
)
from sitcalc.forgetting import GroundAtom, forget_atom, forget_ground_symbol
from sitcalc.oracle import (
    EquivalentFinite,
    Separated,
    check_inseparable,
    equivalent,
    is_positive,
)
from sitcalc.progression import progress, progress_componentwise, progress_sequence
from sitcalc.surface import parse_formula, parse_ground_action
from sitcalc.syntax import (
    And,
    FluentAtom,
    Not,
    Or,
    Signature,
    Stage,
    Theory,
    simplify,
)

DELTA_BLOCK = Signature(statics=frozenset({("Block", 1)}))


def within(budget: float, t0: float) -> None:
    elapsed = time.monotonic() - t0
    assert elapsed < budget, f"took {elapsed:.1f}s, budget {budget}s"


def rhs_of(transformed):
    head = FluentAtom(transformed.fluent, transformed.head_vars, Stage.NOW)
    return simplify(Or(transformed.gamma_pos, And(head, Not(transformed.gamma_neg))))


def test_criterion_01_per_action_transform_and_characteristic_set(bw_pipeline):
    t0 = time.monotonic()
    alpha = parse_ground_action("move(C1, C2, C3)", bw_pipeline.sig)

    clear = transform_ssa(bw_pipeline.ssa("Clear"), alpha)
    want_clear = simplify(parse_formula(
        "x == C2 | Clear(x) & !(x == C3)", bw_pipeline.sig, allow_free=True
    ))
    assert rhs_of(clear) == want_clear

    on = transform_ssa(bw_pipeline.ssa("On"), alpha)
    want_on = simplify(parse_formula(
        "x == C1 & z == C3 | On(x, z) & !(x == C1 & z == C2)",
        bw_pipeline.sig, allow_free=True,
    ))
    assert rhs_of(on) == want_on
    assert argument_set(clear) == frozenset({("C2",), ("C3",)})

    omega = characteristic_set(bw_pipeline, alpha)
    assert omega == frozenset({
        GroundAtom("Clear", ("C2",)),
        GroundAtom("Clear", ("C3",)),
        GroundAtom("On", ("C1", "C3")),
        GroundAtom("On", ("C1", "C2")),
    })
    within(1.0, t0)


def test_criterion_02_single_fluent_progression_closed_form(decomp_lost, cfg2):
    t0 = time.monotonic()
    alpha = parse_ground_action("A(c)", decomp_lost.sig)
    got = progress(decomp_lost, alpha).theory
    want = Theory(tuple(
        parse_formula(s, decomp_lost.sig) for s in ("F(c) <-> P(c)", "exists x P(x)")
    ))
    assert isinstance(equivalent(got, want, cfg2), EquivalentFinite)
    within(5.0, t0)


def test_criterion_03_two_domain_progression_closed_form(blocks_stacks, cfg1):
    t0 = time.monotonic()
    alpha = parse_ground_action("move(A, B, C)", blocks_stacks.sig)
    got = progress(blocks_stacks, alpha).theory
    want = Theory(tuple(parse_formula(s, blocks_stacks.sig) for s in STACKS_PROGRESSED))
    assert isinstance(equivalent(got, want, cfg1), EquivalentFinite)
    within(60.0, t0)


def test_criterion_04_componentwise_progression_agrees_with_monolithic(
    blocks_stacks, cfg1
):
    t0 = time.monotonic()
    d = syntactic_decompose(blocks_stacks.init, DELTA_BLOCK)
    alpha = parse_ground_action("move(A, B, C)", blocks_stacks.sig)
    after = progress_componentwise(blocks_stacks, d, group_ssas(blocks_stacks), alpha)
    assert after.components[1] is d.components[1]
    whole = progress(blocks_stacks, alpha).theory
    assert isinstance(equivalent(union(after), whole, cfg1), EquivalentFinite)
    within(60.0, t0)


def test_criterion_05_forgetting_ground_atoms_and_symbols(chain, cfg1):
    sig = Signature(objects=frozenset({"c"}), statics=frozenset({("P", 1)}))

    t0 = time.monotonic()
    gone = forget_atom(Theory((parse_formula("!P(c)", sig),)), GroundAtom("P", ("c",), None))
    assert is_positive(equivalent(gone, Theory(()), cfg1))
    within(1.0, t0)

    t0 = time.monotonic()
    released = forget_atom(
        Theory((parse_formula("forall x P(x)", sig),)), GroundAtom("P", ("c",), None)
    )
    want = Theory((parse_formula("forall x (x != c -> P(x))", sig),))
    assert is_positive(equivalent(released, want, cfg1))
    within(1.0, t0)

    t0 = time.monotonic()
    chain_sig, chain_theory = chain
    collapsed = forget_ground_symbol(chain_theory, "P")
    want = Theory((parse_formula("A -> B", chain_sig),))
    assert is_positive(equivalent(collapsed, want, cfg1))
    within(1.0, t0)


def test_criterion_06_forgetting_is_detected_by_a_separating_sentence(
    insep_pair, cfg1
):
    t0 = time.monotonic()
    (sig1, one), (sig2, two) = insep_pair
    g = GroundAtom("R", ("c", "c"), None)
    delta = Signature(objects=frozenset({"c"}), statics=frozenset({("R", 2)}))
    v = check_inseparable(forget_atom(one, g), forget_atom(two, g), delta, cfg1)
    assert isinstance(v, Separated)
    assert v.entailed_by == 1
    want = Theory((parse_formula("forall x exists y R(x, y)", sig1),))
    assert is_positive(equivalent(Theory((v.witness,)), want, cfg1))
    within(30.0, t0)


def test_criterion_07_progression_can_destroy_decomposability(
    decomp_lost, split_lost
):
    t0 = time.monotonic()
    alpha = parse_ground_action("A(c)", decomp_lost.sig)
    after = progress(decomp_lost, alpha).theory
    assert syntactic_decompose(after, Signature()) is None
    assert syntactic_decompose(after, Signature(objects=frozenset({"c"}))) is None

    delta = Signature(statics=frozenset({("D", 1), ("R", 2)}))
    before = Decomposition(
        delta,
        (Theory(split_lost.init.axioms[:3]), Theory(split_lost.init.axioms[3:])),
    )
    beta = parse_ground_action("A(c)", split_lost.sig)
    progressed = progress(split_lost, beta).theory
    after_d = syntactic_decompose(progressed, delta)
    assert after_d is not None and len(after_d.components) == 3
    rep = detect_split(before, after_d)
    assert rep.splits == ((0, (0, 1)),)
    within(10.0, t0)


def test_criterion_08_componentwise_preconditions_hold_and_are_sharp(blocks_stacks):
    t0 = time.monotonic()
    d = syntactic_decompose(blocks_stacks.init, DELTA_BLOCK)
    partition = group_ssas(blocks_stacks)
    rep = check_local_effect_preservation(
        blocks_stacks, Signature(), DELTA_BLOCK, partition, d
    )
    assert rep.passed and rep.f_map == {0: 0, 1: 1}

    alpha = parse_ground_action("move(A, B, C)", blocks_stacks.sig)
    strong = check_strong_preservation(
        blocks_stacks, Signature(), DELTA_BLOCK, alpha, partition, d
    )
    assert strong.passed

    trimmed = dataclasses.replace(
        blocks_stacks,
        init=Theory(tuple(a for i, a in enumerate(blocks_stacks.init.axioms) if i != 4)),
    )
    d2 = syntactic_decompose(trimmed.init, DELTA_BLOCK)
    rep2 = check_local_effect_preservation(
        trimmed, Signature(), DELTA_BLOCK, partition, d2
    )
    assert not rep2.passed
    assert any("Under" in str(v) for v in rep2.violations)
    within(1.0, t0)


def test_criterion_09_randomized_invariants_hold_across_all_suites():
    t0 = time.monotonic()
    for check in SUITES:
        for seed in SEEDS:
            check(seed)
    within(300.0, t0)


def test_criterion_10_inverse_actions_round_trip(blocks_world, cfg1):
    t0 = time.monotonic()
    acts = [
        parse_ground_action(s, blocks_world.sig)
        for s in ("move(A, B, C)", "move(A, C, B)")
    ]
    final = progress_sequence(blocks_world, acts)
    assert isinstance(equivalent(final, blocks_world.init, cfg1), EquivalentFinite)
    within(30.0, t0)
