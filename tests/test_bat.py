"""Action theory layer: validation, effect locality, per-action transforms."""

from dataclasses import replace

import pytest

from sitcalc.bat import (
    BAT,
    EffectDisjunct,
    GroundAction,
    Precondition,
    SSA,
    argument_set,
    characteristic_set,
    inline_preconditions,
    instantiate_ssas,
    is_local_effect,
    transform_ssa,
    validate,
)
from sitcalc.errors import MalformedTransform, MissingAxiom, SitcalcError, SourceSpan
from sitcalc.forgetting import GroundAtom
from sitcalc.surface import parse_bat, parse_formula, parse_ground_action, render
from sitcalc.syntax import (
    FALSE,
    ActionTerm,
    And,
    Const,
    FluentAtom,
    Not,
    Or,
    Signature,
    Stage,
    StaticAtom,
    Theory,
    Var,
    signature_of,
    simplify,
)


def bat(src):
    return parse_bat(src)


class TestValidate:
    def test_clean_theories_validate(self, bw_pipeline, blocks_stacks, blocks_world):
        for b in (bw_pipeline, blocks_stacks, blocks_world):
            assert validate(b).ok

    def test_shared_effect_action_is_a_warning_then_strict_error(self, blocks_world):
        rep = validate(blocks_world)
        assert rep.ok and rep.warnings
        strict = validate(blocks_world, strict=True)
        assert not strict.ok

    def test_init_fluent_without_axiom_is_reported(self):
        b = bat(
            "object A;\nfluent F/1, G/1;\naction m/1;\n"
            "ssa F(x) { pos: a == m(x); }\ninit { G(A); }\n"
        )
        rep = validate(b)
        assert any("G" in str(w) for w in rep.warnings)

    def test_violations_point_at_source_spans(self):
        b = bat(
            "object A;\nfluent F/1;\nfluent G/1;\naction m/1;\n"
            "ssa F(x) { pos: a == m(x); }\n"
            "ssa G(x) { pos: a == m(x); neg: a == m(x); }\ninit { }\n"
        )
        rep = validate(b, strict=True)
        assert rep.errors and rep.errors[0].span is not None


class TestValidateMessages:
    """Every message validate gives, on theories built through the API.

    The parser rejects most of these faults before validate could see them,
    so each theory here is assembled from the dataclasses directly.
    """

    SIG = Signature(
        objects=frozenset({"A"}),
        statics=frozenset({("S", 1)}),
        fluents=frozenset({("F", 1), ("G", 1)}),
        actions=frozenset({("m", 1)}),
    )
    x, y, z = Var("x"), Var("y"), Var("z")
    # each of these is at the next stage, mentions an undeclared Q and has z free
    BAD = And(FluentAtom("F", (x,), Stage.NEXT), StaticAtom("Q", (z,)))
    BAD_CLOSED = And(FluentAtom("F", (Const("A"),), Stage.NEXT), StaticAtom("Q", (z,)))

    def messages(self, b, strict=False):
        rep = validate(b, strict)
        return [str(v) for v in rep.errors], [str(v) for v in rep.warnings]

    def test_each_formula_is_checked_for_stage_symbols_and_free_variables(self):
        x = self.x
        ssa = SSA("F", (x,), (EffectDisjunct((), ActionTerm("m", (x,)), self.BAD),))
        pre = Precondition("m", (x,), self.BAD)
        spans = tuple((k, SourceSpan("f.bat", i + 1, 1)) for i, k in enumerate(("ssa:F", "poss:m", "init:0")))
        b = BAT(self.SIG, Theory((self.BAD_CLOSED,)), (pre,), (ssa,), spans)
        assert self.messages(b) == (
            [
                "f.bat:1:1: context condition in SSA for F is not at the current stage",
                "f.bat:1:1: undeclared symbols Q in context of SSA for F",
                "f.bat:1:1: free variables z in context of SSA for F",
                "f.bat:2:1: precondition for m is not at the current stage",
                "f.bat:2:1: undeclared symbols Q in precondition for m",
                "f.bat:2:1: free variables z in precondition for m",
                "f.bat:3:1: initial axiom 0 is not at the current stage",
                "f.bat:3:1: undeclared symbols Q in initial axiom 0",
                "f.bat:3:1: free variables z in initial axiom 0",
            ],
            [],
        )

    def test_variables_bound_by_the_head_the_disjunct_and_the_action_are_not_free(self):
        x, y, z = self.x, self.y, self.z
        ctx = And(StaticAtom("S", (x,)), And(StaticAtom("S", (y,)), StaticAtom("S", (z,))))
        ssa = SSA("F", (x,), (EffectDisjunct((y,), ActionTerm("m", (z,)), ctx),))
        b = BAT(self.SIG, Theory(()), (Precondition("m", (z,), StaticAtom("S", (z,))),), (ssa,))
        assert self.messages(b) == ([], [])

    def test_axioms_against_the_declarations(self):
        x, y = self.x, self.y
        go = EffectDisjunct((), ActionTerm("m", (x,)))
        ssas = (
            SSA("F", (x,), (go,)),
            SSA("F", (x,), (go,)),
            SSA("H", (x,), (go,)),
            SSA("G", (x, y), (EffectDisjunct((), ActionTerm("n", (x,))),), (EffectDisjunct((), ActionTerm("m", (x, y))),)),
        )
        pres = (
            Precondition("m", (x,)),
            Precondition("m", (x,)),
            Precondition("n", (x,)),
        )
        b = BAT(self.SIG, Theory(()), pres, ssas)
        assert self.messages(b)[0] == [
            "duplicate successor state axiom for F",
            "successor state axiom for undeclared fluent H",
            "G declared with arity 1 but SSA head has 2",
            "undeclared action n in SSA for G",
            "action m used with 2 arguments, declared 1",
            "duplicate precondition axiom for m",
            "precondition axiom for undeclared action n",
        ]
        b = BAT(self.SIG, Theory(()), (Precondition("m", (x, y)),))
        assert self.messages(b)[0] == ["m declared with arity 1 but precondition has 2 parameters"]

    def test_variables_and_constants_of_axioms(self):
        x, y = self.x, self.y
        ssa = SSA(
            "F",
            (x, x),
            (
                EffectDisjunct((y, y), ActionTerm("m", (x,))),
                EffectDisjunct((x,), ActionTerm("m", (x,))),
                EffectDisjunct((), ActionTerm("m", (Const("B"),))),
            ),
        )
        pre = Precondition("m", (x, x))
        sig = Signature(objects=frozenset({"A"}), fluents=frozenset({("F", 2)}), actions=frozenset({("m", 1)}))
        b = BAT(sig, Theory(()), (pre,), (ssa,))
        assert self.messages(b)[0] == [
            "repeated head variable in SSA for F",
            "quantified variables of an effect disjunct of F clash",
            "quantified variables of an effect disjunct of F clash",
            "undeclared constant B in SSA for F",
            "m declared with arity 1 but precondition has 2 parameters",
            "repeated parameter in precondition for m",
        ]

    def test_the_two_warnings(self):
        x = self.x
        go = EffectDisjunct((), ActionTerm("m", (x,)))
        b = BAT(
            self.SIG,
            Theory((FluentAtom("G", (Const("A"),), Stage.NOW),)),
            (),
            (SSA("F", (x,), (go,), (go,)),),
            (("ssa:F", SourceSpan("f.bat", 4, 5)),),
        )
        warnings = [
            "f.bat:4:5: action m occurs in both effect conditions of F",
            "fluent G appears in the initial theory but has no successor state axiom",
        ]
        assert self.messages(b) == ([], warnings)
        assert self.messages(b, strict=True) == (warnings[:1], warnings[1:])


class TestLocalEffect:
    def test_argument_bound_heads_are_local(self, bw_pipeline, blocks_world, decomp_lost):
        for b in (bw_pipeline, blocks_world, decomp_lost):
            rep = is_local_effect(b)
            assert rep.local_effect and rep.offenders == ()

    def test_offenders_are_fluents_with_unbound_head_variables(self, blocks_stacks):
        rep = is_local_effect(blocks_stacks)
        assert not rep.local_effect
        assert rep.offenders == ("Top", "Under")


class TestTransform:
    def test_context_free_effects_reduce_to_equalities(self, bw_pipeline):
        alpha = parse_ground_action("move(C1, C2, C3)", bw_pipeline.sig)
        t = transform_ssa(bw_pipeline.ssa("Clear"), alpha)
        got = simplify(Or(t.gamma_pos, And(FluentAtom("Clear", t.head_vars, Stage.NOW), Not(t.gamma_neg))))
        want = simplify(parse_formula("x == C2 | Clear(x) & !(x == C3)", bw_pipeline.sig, allow_free=True))
        assert got == want

    def test_two_place_head_keeps_both_equalities(self, bw_pipeline):
        alpha = parse_ground_action("move(C1, C2, C3)", bw_pipeline.sig)
        t = transform_ssa(bw_pipeline.ssa("On"), alpha)
        got = simplify(Or(t.gamma_pos, And(FluentAtom("On", t.head_vars, Stage.NOW), Not(t.gamma_neg))))
        want = simplify(parse_formula(
            "x == C1 & z == C3 | On(x, z) & !(x == C1 & z == C2)",
            bw_pipeline.sig, allow_free=True,
        ))
        assert got == want

    def test_context_survives_into_gamma(self, blocks_stacks):
        alpha = parse_ground_action("move(A, B, C)", blocks_stacks.sig)
        t = transform_ssa(blocks_stacks.ssa("Clear"), alpha)
        want = simplify(parse_formula("x == B & On(A, x)", blocks_stacks.sig, allow_free=True))
        assert simplify(t.gamma_pos) == want

    def test_unrelated_action_yields_empty_gammas(self, blocks_stacks):
        alpha = parse_ground_action("move(A, B, C)", blocks_stacks.sig)
        t = transform_ssa(blocks_stacks.ssa("Inheap"), alpha)
        assert t.gamma_pos == FALSE and t.gamma_neg == FALSE

    def test_unbound_head_variable_is_rejected(self, blocks_stacks):
        alpha = parse_ground_action("pop(A)", blocks_stacks.sig)
        with pytest.raises(MalformedTransform):
            transform_ssa(blocks_stacks.ssa("Top"), alpha)


class TestCharacteristicSet:
    def test_blocks_world_omega(self, bw_pipeline):
        alpha = parse_ground_action("move(C1, C2, C3)", bw_pipeline.sig)
        om = characteristic_set(bw_pipeline, alpha)
        assert om == {
            GroundAtom("Clear", ("C2",), Stage.NOW),
            GroundAtom("Clear", ("C3",), Stage.NOW),
            GroundAtom("On", ("C1", "C2"), Stage.NOW),
            GroundAtom("On", ("C1", "C3"), Stage.NOW),
        }

    def test_argument_set_lists_constant_tuples(self, bw_pipeline):
        alpha = parse_ground_action("move(C1, C2, C3)", bw_pipeline.sig)
        t = transform_ssa(bw_pipeline.ssa("On"), alpha)
        assert argument_set(t) == frozenset({("C1", "C2"), ("C1", "C3")})

    def test_action_on_other_constants_shifts_omega(self, bw_pipeline):
        alpha = parse_ground_action("move(C3, C1, C2)", bw_pipeline.sig)
        om = characteristic_set(bw_pipeline, alpha)
        assert GroundAtom("On", ("C3", "C2"), Stage.NOW) in om
        assert GroundAtom("On", ("C1", "C2"), Stage.NOW) not in om


class TestInstantiate:
    def test_complete_database_instantiations_become_literals(self, bw_pipeline):
        alpha = parse_ground_action("move(C1, C2, C3)", bw_pipeline.sig)
        om = characteristic_set(bw_pipeline, alpha)
        t = instantiate_ssas(bw_pipeline, alpha, om)
        assert len(t.axioms) == 4
        texts = sorted(render(ax) for ax in t.axioms)
        assert "!On'(C1, C2)" in texts
        assert "On'(C1, C3)" in texts

    ONE_FLUENT = (
        "object A;\nstatic P/1;\nfluent F/1;\naction m/1;\n"
        "ssa F(x) { pos: a == m(x); }\n"
        "poss m(x): P(x);\n"
        "init { !F(A); }\n"
    )

    def test_inline_preconditions_strengthens_contexts(self):
        b = bat(self.ONE_FLUENT)
        b2 = inline_preconditions(b)
        d = b2.ssa("F").pos[0]
        assert ("P", 1) in signature_of(d.context).statics

    def test_inlining_a_precondition_with_the_wrong_parameter_count_is_an_error(self):
        b = bat(self.ONE_FLUENT)
        (p,) = b.preconditions
        b = replace(b, preconditions=(replace(p, params=(Var("x"), Var("y"))),))
        with pytest.raises(SitcalcError) as e:
            inline_preconditions(b)
        assert str(e.value) == "precondition for m has 2 parameters, action term has 1"

    @pytest.mark.parametrize("atom, message", [
        (GroundAtom("G", ("A",), Stage.NOW), "no successor state axiom for G"),
        (GroundAtom("F", ("A", "A"), Stage.NOW), "F instantiated with 2 arguments"),
    ])
    def test_an_atom_without_a_fitting_axiom_is_a_missing_axiom(self, atom, message):
        b = bat(self.ONE_FLUENT)
        with pytest.raises(MissingAxiom) as e:
            instantiate_ssas(b, GroundAction("m", ("A",)), frozenset({atom}))
        assert str(e.value) == message


class TestGroundActionType:
    def test_constants_and_term_view(self):
        g = GroundAction("move", ("A", "B", "C"))
        assert g.term() == ActionTerm("move", (Const("A"), Const("B"), Const("C")))
        assert str(g) == "move(A, B, C)"
