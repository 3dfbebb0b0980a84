"""Formula AST: signatures, substitution, staging, simplification."""

import dataclasses
import random
import subprocess
import sys
from pathlib import Path

import pytest

import sitcalc
from sitcalc import corpus_path, parse_bat, parse_formula, parse_theory, render, syntax
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
    conj,
    disj,
    flatten_and,
    flatten_or,
    free_vars,
    map_atoms,
    map_atoms_twice,
    rename_stage,
    signature_of,
    simplify,
    split_conjunctions,
    stages_of,
    substitute,
    symbols_and_stages,
)
from test_property_suites import SEEDS, random_theory

x, y, z = Var("x"), Var("y"), Var("z")
a, b, c = Const("a"), Const("b"), Const("c")


def P(t):
    return StaticAtom("P", (t,))


def F(t, stage=Stage.NOW):
    return FluentAtom("F", (t,), stage)


NODES = [
    (Var, {"name": "x"}),
    (Const, {"name": "a"}),
    (FluentAtom, {"fluent": "F", "args": (a, x), "stage": Stage.NEXT}),
    (StaticAtom, {"pred": "P", "args": (a, b)}),
    (ObjEq, {"lhs": x, "rhs": a}),
    (Not, {"body": P(a)}),
    (And, {"lhs": P(a), "rhs": P(b)}),
    (Or, {"lhs": P(a), "rhs": P(b)}),
    (Implies, {"lhs": P(a), "rhs": P(b)}),
    (Iff, {"lhs": P(a), "rhs": P(b)}),
    (Forall, {"var": x, "body": P(x)}),
    (Exists, {"var": x, "body": P(x)}),
]


def _matched(node):
    match node:
        case Var(n) | Const(n) | Not(n):
            return (n,)
        case FluentAtom(f, args, stage):
            return (f, args, stage)
        case StaticAtom(l, r) | ObjEq(l, r) | And(l, r) | Or(l, r) | Implies(l, r) | Iff(l, r):
            return (l, r)
        case Forall(v, body) | Exists(v, body):
            return (v, body)


class TestNodes:
    # the nodes store their fields through their slot descriptors, not
    # through dataclass's __init__; everything else is dataclass's
    @pytest.mark.parametrize("cls, fields", NODES, ids=[cls.__name__ for cls, _ in NODES])
    def test_construction_replace_matching_and_freezing(self, cls, fields):
        node = cls(**fields)
        assert all(getattr(node, k) is v for k, v in fields.items())
        assert cls(*fields.values()) == node
        assert hash(cls(*fields.values())) == hash(node)
        assert cls.__match_args__ == tuple(fields)
        assert _matched(node) == tuple(fields.values())
        first = next(iter(fields))
        other = Var("y") if isinstance(fields[first], Var) else P(c) if isinstance(fields[first], syntax.Formula) else "Q"
        changed = dataclasses.replace(node, **{first: other})
        assert type(changed) is cls and getattr(changed, first) is other
        assert all(getattr(changed, k) is v for k, v in fields.items() if k != first)
        assert dataclasses.replace(node) == node
        scope = {**{k.__name__: k for k, _ in NODES}, "NOW": Stage.NOW, "NEXT": Stage.NEXT}
        assert eval(repr(node), scope) == node
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(node, first, other)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(node, first)
        assert not hasattr(node, "__dict__")
        with pytest.raises(TypeError):
            cls()
        with pytest.raises(TypeError):
            cls(**fields, extra=1)

    def test_defaults(self):
        assert FluentAtom("F", (a,)) == FluentAtom(fluent="F", args=(a,), stage=Stage.NOW)
        assert StaticAtom("P") == StaticAtom("P", ())
        assert StaticAtom(pred="P").args == ()


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
    def test_symbols_and_stages_in_one_walk(self):
        f = And(F(a, Stage.NEXT), Or(P(b), Forall(x, F(x))))
        assert symbols_and_stages(f) == (signature_of(f), stages_of(f))
        assert symbols_and_stages(Theory(())) == (Signature(), frozenset())

    def test_rename_stage_moves_next_to_now(self):
        f = And(F(c, Stage.NEXT), F(c, Stage.NOW))
        g = rename_stage(f, Stage.NEXT, Stage.NOW)
        assert g == And(F(c, Stage.NOW), F(c, Stage.NOW))

    def test_stages_of_reports_only_occurring_stages(self):
        assert stages_of(F(c, Stage.NEXT)) == {Stage.NEXT}
        assert stages_of(P(c)) == frozenset()


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


def _corpus_formulas():
    """Every formula of every corpus file, freshly parsed: axioms,
    preconditions and effect contexts."""
    out = []
    for path in sorted(corpus_path("blocks_world.bat").parent.glob("*.bat")):
        text = path.read_text()
        if "theory {" in text:
            out += parse_theory(text, path.name)[1].axioms
            continue
        bat = parse_bat(text, path.name)
        out += bat.init.axioms
        out += [p.formula for p in bat.preconditions]
        out += [d.context for s in bat.ssas for d in s.pos + s.neg]
    return out


def _suite_formulas():
    """The property suite's random theories, freshly built."""
    return [ax for seed in SEEDS for ax in random_theory(random.Random(seed)).axioms]


def _wide_formulas():
    """Conjunctions and disjunctions of up to 40 literals, repeats and
    complements among them, and disjunctions of such conjunctions: wide
    enough that simplify hashes what it keeps."""
    rng = random.Random(15)
    out = []
    for _ in range(150):
        terms = rng.sample([Const(f"c{i}") for i in range(24)] + [x, y], rng.randint(1, 26))
        negative = {t: rng.random() < 0.5 for t in terms}

        def part():
            t = rng.choice(terms)
            atom = rng.choice([P(t), ObjEq(x, t)])  # a new object each time
            lit = Not(atom) if negative[t] != (rng.random() < 0.1) else atom
            roll = rng.random()
            return Not(Not(lit)) if roll < 0.05 else Or(lit, P(a)) if roll < 0.1 else lit

        def conjunction():
            return conj(part() for _ in range(rng.randint(1, 40)))

        if rng.random() < 0.5:
            out.append(rng.choice([conj, disj])(part() for _ in range(rng.randint(1, 40))))
        else:
            out.append(disj(conjunction() for _ in range(rng.randint(2, 20))))
    return out


def _bottom_up(f):
    """Every subformula of f, each after its subformulas."""
    order, stack = [], [f]
    while stack:
        g = stack.pop()
        order.append(g)
        if isinstance(g, (And, Or, Implies, Iff)):
            stack += (g.lhs, g.rhs)
        elif isinstance(g, (Not, Forall, Exists)):
            stack.append(g.body)
    return reversed(order)


SOURCES = [
    pytest.param(_corpus_formulas, id="corpus"),
    pytest.param(_suite_formulas, id="suite"),
    pytest.param(_wide_formulas, id="wide"),
]
UNA = [pytest.param(True, id="una"), pytest.param(False, id="no-una")]


class TestSimplifyMemo:
    @pytest.mark.parametrize("una", UNA)
    @pytest.mark.parametrize("source", SOURCES)
    def test_a_result_simplifies_to_itself(self, source, una):
        for f in source():
            r = simplify(f, una)
            assert simplify(r, una) is r, f

    @pytest.mark.parametrize("una", UNA)
    @pytest.mark.parametrize("source", SOURCES)
    def test_a_cold_memo_gives_the_warm_result(self, source, una):
        warm = source()
        for f in warm:
            for g in _bottom_up(f):
                simplify(g, una)
        for f, cold in zip(warm, source(), strict=True):
            assert f == cold
            assert simplify(cold, una) == simplify(f, una), f

    @pytest.mark.parametrize("una", UNA)
    @pytest.mark.parametrize("source", SOURCES)
    def test_hashed_membership_gives_the_scanned_result(self, monkeypatch, source, una):
        # _WIDE 0 hashes every atom and negated atom that simplify keeps;
        # a _WIDE no list reaches scans them all.
        monkeypatch.setattr(syntax, "_WIDE", 0)
        hashed = [simplify(f, una) for f in source()]
        monkeypatch.setattr(syntax, "_WIDE", 10**9)
        for f, want in zip(source(), hashed, strict=True):
            assert simplify(f, una) == want, f

    def test_absorption_tests_only_disjuncts_that_share_a_literal(self, monkeypatch):
        # P(ci) | (P(ci) & F(ci)) | ... : each conjunction is absorbed by its
        # atom, and no other pair holds a common literal
        calls = []
        subsumes = syntax._subsumes
        monkeypatch.setattr(syntax, "_subsumes", lambda si, sj: calls.append(1) or subsumes(si, sj))
        for n in (40, 80):
            calls.clear()
            ps = [P(Const(f"c{i}")) for i in range(n)]
            f = disj(q for p in ps for q in (p, And(p, F(p.args[0]))))
            assert simplify(f) == disj(ps)
            assert len(calls) == n

    def test_memo_under_one_una_value_leaves_the_other(self):
        f = And(ObjEq(a, b), P(c))
        assert simplify(f) == FALSE
        assert simplify(f, una=False) == f

    def test_nodes_have_no_instance_dict(self):
        samples = [TRUE, FALSE, P(a), F(x), ObjEq(x, a), Not(P(a)), And(P(a), P(b)),
                   Or(P(a), P(b)), Implies(P(a), P(b)), Iff(P(a), P(b)), Forall(x, P(x)),
                   Exists(x, P(x))]
        for f in samples:
            assert not hasattr(f, "__dict__"), type(f).__name__

    def test_memo_takes_no_part_in_equality(self):
        f, g = And(P(a), Not(Not(P(b)))), And(P(a), Not(Not(P(b))))
        simplify(f)
        free_vars(f)
        assert f == g and hash(f) == hash(g) and repr(f) == repr(g)


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

    def test_map_atoms_keeps_a_shared_subtree_shared(self):
        shared = Or(P(x), F(x, Stage.NEXT))
        f = And(Forall(x, shared), Exists(x, Not(shared)))
        g = rename_stage(f, Stage.NEXT, Stage.NOW)
        assert g.lhs.body is g.rhs.body.body
        assert g.lhs.body == Or(P(x), F(x))

    def test_map_atoms_calls_fn_once_per_distinct_atom_object(self):
        once, twin = F(a, Stage.NEXT), F(a, Stage.NEXT)  # equal, but two objects
        f = And(Or(once, once), And(twin, Not(once)))
        seen = []

        def retag(at):
            seen.append(at)
            return F(a)

        g = map_atoms(f, retag)
        assert [id(at) for at in seen] == [id(once), id(twin)]
        assert g.lhs.lhs is g.lhs.rhs is g.rhs.rhs.body
        assert g.rhs.lhs is not g.lhs.lhs and g.rhs.lhs == F(a)

    def test_map_atoms_twice_gives_both_images_from_one_walk(self):
        shared = Forall(x, Implies(F(x), P(a)))
        t = Theory((And(shared, P(a)), Or(P(b), shared), P(c)))
        seen = []

        def images(at):
            seen.append(at)
            return (TRUE, FALSE) if at == P(a) else (at, at)

        one, two = map_atoms_twice(t, images)
        # F(x) and P(a) in shared, the other P(a), P(b), P(c): once each
        assert len(seen) == len({id(at) for at in seen}) == 5
        assert one == map_atoms(t, lambda at: images(at)[0])
        assert two == map_atoms(t, lambda at: images(at)[1])
        assert one.axioms[0].lhs is one.axioms[1].rhs
        assert two.axioms[0].lhs is two.axioms[1].rhs
        assert one.axioms[1].lhs is two.axioms[1].lhs is t.axioms[1].lhs
        assert one.axioms[2] is two.axioms[2] is t.axioms[2]
        assert map_atoms_twice(t, lambda at: (at, at)) == (t, t)

    def test_map_atoms_on_a_theory_shares_across_axioms(self):
        shared = Forall(x, Implies(F(x, Stage.NEXT), P(x)))
        t = Theory((And(shared, P(a)), Or(P(b), shared), shared))
        out = rename_stage(t, Stage.NEXT, Stage.NOW)
        assert out.axioms[0].lhs is out.axioms[1].rhs is out.axioms[2]
        assert out.axioms[2] == Forall(x, Implies(F(x), P(x)))


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

    def test_substitute(self, deep):
        f, copies = deep(self.LEAF)
        g = substitute(f, {"x": a})
        assert free_vars(g) == frozenset()
        assert sum(at == ObjEq(a, c) for at in atoms_of(g)) == copies

    def test_flatten_walks_wide_spines(self):
        parts = [P(Const(f"c{i}")) for i in range(10_000)]
        assert flatten_and(conj(parts)) == parts
        assert flatten_or(disj(parts)) == parts

    def test_simplify_strips_a_staircase_in_a_loop(self):
        # D0 | (!D0 & D1) | ... | (!D148 & D149) strips one conjunct a round,
        # 149 rounds in all; they run in a loop, not one inside the other,
        # so 100 frames more than the caller's are plenty
        d = [StaticAtom(f"D{i}") for i in range(150)]
        f = disj([d[0]] + [conj([Not(d[i - 1]), d[i]]) for i in range(1, len(d))])
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 100)
        try:
            results = [simplify(f, una) for una in (False, True)]
        finally:
            sys.setrecursionlimit(limit)
        assert [flatten_or(r) for r in results] == [d, d]

    def test_simplify_walks_a_biconditional_chain(self):
        # a right-nested <-> chain is simplified along its spine; results
        # are compared link by link, as == on the whole chain recurses
        atoms = [StaticAtom(f"P{i}") for i in range(1_000)]

        def chain(links):
            f = links[-1]
            for p in reversed(links[:-1]):
                f = Iff(p, f)
            return f

        def spine(f):
            out = []
            while type(f) is Iff:
                out.append(f.lhs)
                f = f.rhs
            return out + [f]

        f = chain(atoms)
        for una in (False, True):
            assert simplify(f, una) is f
        padded = chain([x for p in atoms[:-1] for x in (p, TRUE)] + atoms[-1:])
        assert spine(simplify(padded)) == atoms

    def test_render_walks_a_chain_that_alternates_negation_and_biconditional(self):
        # P0 <-> !(P1 <-> !(P2 <-> ...)): each link is the last operand of
        # the one before, which the printer prints in a loop
        atoms = [StaticAtom(f"P{i}") for i in range(1_000)]
        f = Iff(atoms[-2], atoms[-1])
        for p in reversed(atoms[:-2]):
            f = Iff(p, Not(f))
        text = render(f)
        assert text == " <-> !(".join(f"P{i}" for i in range(999)) + " <-> P999" + ")" * 998
        sig = Signature(statics=frozenset((p.pred, 0) for p in atoms))
        g = parse_formula(text, sig)
        for _ in range(998):
            assert g.lhs == f.lhs
            f, g = f.rhs.body, g.rhs.body
        assert g == f

    def test_render_reparses(self, deep):
        f, _ = deep(self.LEAF)
        text = render(f)
        sig = Signature(objects=frozenset({"c"}), fluents=frozenset({("F", 1)}))
        assert render(parse_formula(text, sig, allow_free=True)) == text


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
