"""Formula AST: signatures, substitution, staging, simplification."""

import subprocess
import sys
from pathlib import Path

import pytest

import sitcalc
from sitcalc.errors import SitcalcError
from sitcalc.syntax import (
    FALSE,
    TRUE,
    And,
    Const,
    Exists,
    FluentAtom,
    Forall,
    Iff,
    Implies,
    Not,
    ObjEq,
    Or,
    Signature,
    Stage,
    StaticAtom,
    Theory,
    Var,
    atoms_of,
    check_uniform,
    conj,
    disj,
    flatten_and,
    flatten_or,
    free_vars,
    map_atoms,
    rename_stage,
    signature_of,
    simplify,
    split_conjunctions,
    stages_of,
    substitute,
)

x, y, z = Var("x"), Var("y"), Var("z")
a, b, c = Const("a"), Const("b"), Const("c")


def P(t):
    return StaticAtom("P", (t,))


def F(t, stage=Stage.NOW):
    return FluentAtom("F", (t,), stage)


class TestSignature:
    def test_union_and_intersection_act_on_names_with_arities(self):
        s1 = Signature(objects=frozenset({"a"}), statics=frozenset({("P", 1)}))
        s2 = Signature(objects=frozenset({"b"}), statics=frozenset({("P", 1), ("Q", 2)}))
        assert (s1 | s2).objects == {"a", "b"}
        assert (s1 & s2).statics == {("P", 1)}
        assert (s2 - s1).statics == {("Q", 2)}
        assert s1 <= (s1 | s2)
        assert not s2 <= s1

    def test_empty_signature_reports_empty(self):
        assert Signature().is_empty()
        assert not Signature(objects=frozenset({"a"})).is_empty()

    def test_names_reused_across_sorts_are_rejected(self):
        with pytest.raises(SitcalcError):
            Signature(objects=frozenset({"A"}), statics=frozenset({("A", 1)}))

    def test_signature_of_collects_all_symbol_sorts(self):
        f = Forall(x, Implies(P(x), Exists(y, And(F(y), ObjEq(y, c)))))
        sig = signature_of(f)
        assert sig.statics == {("P", 1)}
        assert sig.fluents == {("F", 1)}
        assert sig.objects == {"c"}


class TestFreeVarsAndSubstitution:
    def test_free_vars_sees_through_binders(self):
        f = Forall(x, And(P(x), P(y)))
        assert free_vars(f) == {"y"}
        assert free_vars(Exists(y, f)) == frozenset()

    def test_substitution_replaces_free_occurrences_only(self):
        f = And(P(x), Forall(x, P(x)))
        g = substitute(f, {"x": c})
        assert g == And(P(c), Forall(x, P(x)))

    def test_substitution_avoids_capture(self):
        f = Forall(y, ObjEq(x, y))
        g = substitute(f, {"x": y})
        assert isinstance(g, Forall)
        assert g.var != y
        assert free_vars(g) == {"y"}


class TestStages:
    def test_rename_stage_moves_next_to_now(self):
        f = And(F(c, Stage.NEXT), F(c, Stage.NOW))
        g = rename_stage(f, Stage.NEXT, Stage.NOW)
        assert g == And(F(c, Stage.NOW), F(c, Stage.NOW))

    def test_stages_of_reports_only_occurring_stages(self):
        assert stages_of(F(c, Stage.NEXT)) == {Stage.NEXT}
        assert stages_of(P(c)) == frozenset()

    def test_check_uniform_accepts_single_stage_and_flags_mixtures(self):
        ok = check_uniform(Theory((F(c),)))
        assert ok.uniform and ok.stage == Stage.NOW
        allnext = check_uniform(Theory((F(c, Stage.NEXT),)))
        assert allnext.uniform and allnext.stage == Stage.NEXT
        mixed = check_uniform(Theory((And(F(c), F(c, Stage.NEXT)),)))
        assert not mixed.uniform


class TestSimplify:
    def test_constant_equalities_decide_under_unique_names(self):
        assert simplify(ObjEq(a, a)) == TRUE
        assert simplify(ObjEq(a, b)) == FALSE
        assert simplify(ObjEq(a, b), una=False) == ObjEq(a, b)

    def test_boolean_units_and_complements(self):
        assert simplify(And(TRUE, P(c))) == P(c)
        assert simplify(Or(P(c), TRUE)) == TRUE
        assert simplify(And(P(c), Not(P(c)))) == FALSE
        assert simplify(Not(Not(P(c)))) == P(c)
        assert simplify(Implies(FALSE, P(c))) == TRUE
        assert simplify(Iff(P(c), TRUE)) == P(c)

    def test_one_point_rule_eliminates_bound_equality(self):
        f = Exists(x, And(ObjEq(x, c), P(x)))
        assert simplify(f) == P(c)
        g = Forall(x, Implies(ObjEq(x, c), P(x)))
        assert simplify(g) == P(c)

    def test_vacuous_quantifiers_are_dropped(self):
        assert simplify(Forall(x, P(c))) == P(c)
        assert simplify(Exists(x, TRUE)) == TRUE

    def test_simplify_is_idempotent_on_samples(self):
        samples = [
            Exists(x, And(ObjEq(x, c), Or(P(x), F(x)))),
            Forall(x, Implies(And(P(x), TRUE), Or(F(x), FALSE))),
            Iff(Not(P(a)), Or(P(b), Not(ObjEq(a, b)))),
        ]
        for f in samples:
            once = simplify(f)
            assert simplify(once) == once


class TestConnectiveHelpers:
    def test_empty_conjunction_and_disjunction(self):
        assert conj([]) == TRUE
        assert disj([]) == FALSE

    def test_flatten_inverts_nesting(self):
        f = And(And(P(a), P(b)), P(c))
        assert flatten_and(f) == [P(a), P(b), P(c)]
        g = Or(P(a), Or(P(b), P(c)))
        assert flatten_or(g) == [P(a), P(b), P(c)]

    def test_split_conjunctions_expands_theory_axioms(self):
        t = split_conjunctions(Theory((And(P(a), And(P(b), P(c))),)))
        assert t.axioms == (P(a), P(b), P(c))


class TestTraversal:
    def test_atoms_of_yields_atoms_left_to_right(self):
        t = Theory((And(P(a), Not(Forall(x, Or(P(x), TRUE)))), ObjEq(x, c)))
        assert list(atoms_of(t)) == [P(a), P(x), TRUE, ObjEq(x, c)]

    def test_map_atoms_shares_unchanged_subtrees(self):
        f = And(Exists(x, P(x)), Not(F(c, Stage.NEXT)))
        assert map_atoms(f, lambda at: at) is f
        g = rename_stage(f, Stage.NEXT, Stage.NOW)
        assert g.lhs is f.lhs
        assert g.rhs == Not(F(c, Stage.NOW))

    def test_map_atoms_on_a_theory_keeps_it_when_nothing_changes(self):
        t = Theory((P(a), F(b)))
        assert map_atoms(t, lambda at: at) is t


class TestDeepAndWide:
    # x is free in the leaf; c and F are its only symbols
    LEAF = And(F(x, Stage.NEXT), ObjEq(x, c))

    def test_atoms_of_and_identity_map(self, deep):
        f, copies = deep(self.LEAF)
        assert len(list(atoms_of(f))) == 2 * copies
        assert map_atoms(f, lambda at: at) is f

    def test_symbols_stages_and_free_variables(self, deep):
        f, _ = deep(self.LEAF)
        assert signature_of(f) == Signature(objects=frozenset({"c"}), fluents=frozenset({("F", 1)}))
        assert stages_of(Theory((f,))) == {Stage.NEXT}
        assert free_vars(f) == {"x"}

    def test_rename_stage(self, deep):
        f, copies = deep(self.LEAF)
        g = rename_stage(f, Stage.NEXT, Stage.NOW)
        assert stages_of(g) == {Stage.NOW}
        assert sum(isinstance(at, FluentAtom) for at in atoms_of(g)) == copies

    def test_flatten_walks_wide_spines(self):
        parts = [P(Const(f"c{i}")) for i in range(10_000)]
        assert flatten_and(conj(parts)) == parts
        assert flatten_or(disj(parts)) == parts


# Run in a child interpreter: re-importing the package here would give the
# other tests' modules classes of a different identity.
_REIMPORT = """
import gc, importlib, sys, weakref
sys.path.insert(0, sys.argv[1])

def fresh():
    for name in [n for n in sys.modules if n == "sitcalc" or n.startswith("sitcalc.")]:
        del sys.modules[name]
    return importlib.import_module("sitcalc")

old = weakref.ref(fresh().syntax.And)
fresh()
gc.collect()
sys.exit(0 if old() is None else 1)
"""


def test_reimport_frees_the_previous_package():
    src = str(Path(sitcalc.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", _REIMPORT, src], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr or "the previous import of sitcalc is still alive"
