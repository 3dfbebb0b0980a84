"""forget_atom against the reference that relativizes every axiom, and
forget_atoms against forget_atom folded over the canonical order, and,
where every axiom that can denote an atom is a literal of it, against the
reference folded over that order.

The local version skips the axioms that cannot denote the forgotten atom;
the results must be equal to the reference's, node for node, with unique
names on and off.  Inputs are the property-suite theories and the theories
progression forgets in: generated ground blocks worlds together with the
successor state axioms instantiated for a legal move, and blocks-and-heap
theories, whose quantified axioms mention the forgotten atoms' predicates
several times each, progressed through a move and a push.  Unit steps,
where g or !g stands beside axioms of other shapes that can denote g, are
compared with the reference too, and must build one image only.
"""

import random
from dataclasses import replace

import pytest
from blocks_worlds import ground_world, stacks_world
from forgetting_reference import forget_atom as reference
from test_property_suites import CONSTS, SEEDS, random_target, random_theory

from sitcalc import forgetting
from sitcalc.bat import characteristic_set, instantiate_ssas
from sitcalc.forgetting import GroundAtom, forget_atom, forget_atoms, sorted_atoms
from sitcalc.progression import progress
from sitcalc.syntax import And, Const, Exists, Forall, Iff, Implies, Not, Or, StaticAtom, Theory, Var

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


def _reference_folded(t, atoms, una):
    for g in sorted_atoms(atoms):
        t = reference(t, g, una)
    return t


def _literal_theories(rng):
    """Theories of ground literals over P/1, R/2 and a nullary Q, with
    repeats and both polarities of an atom, and the atoms to forget."""
    atoms = [GroundAtom("Q", ())]
    atoms += [GroundAtom("P", (c,)) for c in CONSTS]
    atoms += [GroundAtom("R", (c, d)) for c in CONSTS for d in CONSTS]
    for _ in range(60):
        lits = [rng.choice(atoms).to_formula() for _ in range(rng.randrange(1, 9))]
        t = Theory(tuple(Not(a) if rng.random() < 0.5 else a for a in lits))
        yield t, rng.sample(atoms, rng.randrange(1, 4))


def P(*args):
    return StaticAtom("P", tuple(Const(a) if a in CONSTS else Var(a) for a in args))


def R(*args):
    return StaticAtom("R", tuple(Const(a) if a in CONSTS else Var(a) for a in args))


@pytest.mark.parametrize("una", UNA)
def test_literal_steps_match_the_reference(una):
    # forget_atoms settles the step of an atom whose every axiom that can
    # denote it is a literal of it without relativizing; the reference
    # relativizes every axiom.  An open literal and literals that share only
    # the first argument with an atom to forget go the other ways.
    cases = list(_literal_theories(random.Random(23)))
    Pc1, Rc12 = GroundAtom("P", ("c1",), None), GroundAtom("R", ("c1", "c2"), None)
    cases += [
        (Theory((P("c1"), P("c1"))), [Pc1]),
        (Theory((P("c1"), Not(P("c1")), P("c2"))), [Pc1]),
        (Theory((P("x"), P("c1"))), [Pc1]),
        (Theory((R("c1", "x"), Not(R("c1", "c3")), R("c1", "c2"))), [Rc12]),
        (Theory((Not(R("c2", "c1")), R("c1", "c2"))), [Rc12, GroundAtom("R", ("c2", "c1"), None)]),
    ]
    for i, (t, atoms) in enumerate(cases):
        assert forget_atoms(t, atoms, una) == _reference_folded(t, atoms, una), f"case {i}"


def test_ground_world_steps_are_literal_steps(monkeypatch):
    calls = []
    real = forgetting.relativize
    monkeypatch.setattr(forgetting, "relativize", lambda *a: calls.append(a) or real(*a))
    for seed in range(3):
        for n in (4, 9, 16):
            b, alpha = ground_world(random.Random(f"literal-{seed}-{n}"), n)
            omega = characteristic_set(b, alpha)
            combined = Theory(tuple(instantiate_ssas(b, alpha, omega).axioms) + tuple(b.init.axioms))
            want = _reference_folded(combined, omega, True)
            calls.clear()
            assert forget_atoms(combined, omega) == want, f"seed {seed}, {n} blocks"
            assert calls == []


@pytest.mark.parametrize("una", UNA)
def test_unit_steps_match_the_reference(una, monkeypatch):
    # On a unit step g or !g is among the axioms that can denote g, beside
    # axioms of other shapes, so the image under the value that falsifies
    # that literal holds FALSE: forgetting builds only the other image, and
    # makes no map_atoms_twice walk.  The reference builds both.
    walks = []
    real = forgetting.map_atoms_twice
    monkeypatch.setattr(forgetting, "map_atoms_twice", lambda *a: walks.append(a) or real(*a))
    x = Var("x")
    Pc1, Pc2 = GroundAtom("P", ("c1",), None), GroundAtom("P", ("c2",), None)
    quantified = (
        Forall(x, Implies(P("x"), R("x", "c2"))),
        Exists(x, And(P("x"), Not(R("c1", "x")))),
        Or(P("c1"), R("c2", "c2")),
        Iff(P("c2"), Forall(x, Or(P("x"), R("x", "x")))),
    )
    units = {
        "g": (P("c1"),),
        "!g": (Not(P("c1")),),
        "both": (P("c1"), Not(P("c1"))),
        "g twice": (P("c1"), P("c1")),
        "g and an open literal": (P("c1"), P("x")),
    }
    for label, lits in units.items():
        for before in (False, True):
            for atoms in ([Pc1], [Pc1, Pc2]):
                t = Theory(lits + quantified if before else quantified + lits)
                walks.clear()
                assert forget_atom(t, Pc1, una) == reference(t, Pc1, una), label
                assert walks == [], label
                assert forget_atoms(t, atoms, una) == _reference_folded(t, atoms, una), (label, atoms)
    # without a unit both images are built
    walks.clear()
    assert forget_atom(Theory(quantified), Pc1, una) == reference(Theory(quantified), Pc1, una)
    assert len(walks) == 1
