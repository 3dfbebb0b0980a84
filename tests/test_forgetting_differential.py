"""forget_atom against the reference that relativizes every axiom, and
forget_atoms against forget_atom folded over the canonical order.

The local version skips the axioms that cannot denote the forgotten atom;
the results must be equal to the reference's, node for node, with unique
names on and off.  Inputs are the property-suite theories and the theories
progression forgets in: generated ground blocks worlds together with the
successor state axioms instantiated for a legal move, and blocks-and-heap
theories, whose quantified axioms mention the forgotten atoms' predicates
several times each, progressed through a move and a push.
"""

import random
from dataclasses import replace

import pytest
from blocks_worlds import ground_world, stacks_world
from forgetting_reference import forget_atom as reference
from test_property_suites import CONSTS, SEEDS, random_target, random_theory

from sitcalc.bat import characteristic_set, instantiate_ssas
from sitcalc.forgetting import GroundAtom, forget_atom, forget_atoms, sorted_atoms
from sitcalc.progression import progress
from sitcalc.syntax import Theory

UNA = [pytest.param(True, id="una"), pytest.param(False, id="no-una")]


def _forget_in_turn(t, atoms, una, label):
    start = t
    for g in atoms:
        want = reference(t, g, una)
        got = forget_atom(t, g, una)
        assert got == want, f"{label}, {g}"
        t = got
    # one call with the whole set files the axioms once and must agree with
    # forget_atom folded over the canonical order
    folded = start
    for g in sorted_atoms(atoms):
        folded = forget_atom(folded, g, una)
    assert forget_atoms(start, atoms, una) == folded, label


@pytest.mark.parametrize("una", UNA)
def test_random_theories_match_the_reference(una):
    for seed in SEEDS:
        rng = random.Random(8000 + seed)
        t = random_theory(rng)
        r_atom = GroundAtom("R", (rng.choice(CONSTS), rng.choice(CONSTS)), None)
        _forget_in_turn(t, [random_target(rng), r_atom], una, f"seed {seed}")


@pytest.mark.parametrize(
    "una, sizes",
    [pytest.param(True, (3, 5, 8, 12, 16), id="una"), pytest.param(False, (2, 3, 4), id="no-una")],
)
def test_progression_inputs_match_the_reference(una, sizes):
    # Without unique names every On literal may denote each forgotten On
    # atom, so the reference's result grows fast with the world.
    for seed in range(4):
        for n in sizes:
            b, alpha = ground_world(random.Random(f"{seed}-{n}"), n)
            omega = characteristic_set(b, alpha)
            combined = Theory(tuple(instantiate_ssas(b, alpha, omega).axioms) + tuple(b.init.axioms))
            _forget_in_turn(combined, sorted_atoms(omega), una, f"seed {seed}, {n} blocks")


@pytest.mark.parametrize(
    "una, sizes",
    [pytest.param(True, ((3, 2), (5, 3), (8, 4)), id="una"), pytest.param(False, ((3, 2), (4, 2)), id="no-una")],
)
def test_blocks_and_heap_progressions_match_the_reference(una, sizes):
    for seed in range(3):
        for nb, nh in sizes:
            b, actions = stacks_world(random.Random(f"{seed}-{nb}-{nh}"), nb, nh)
            for alpha in actions:  # a move, then a push from the progressed theory
                omega = characteristic_set(b, alpha)
                combined = Theory(tuple(instantiate_ssas(b, alpha, omega).axioms) + tuple(b.init.axioms))
                _forget_in_turn(combined, sorted_atoms(omega), una, f"seed {seed}, {nb}+{nh}, {alpha}")
                b = replace(b, init=progress(b, alpha).theory)
