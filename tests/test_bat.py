"""Action theory layer: validation, effect locality, per-action transforms."""

import pytest

from sitcalc.bat import (
    GroundAction,
    argument_set,
    characteristic_set,
    inline_preconditions,
    instantiate_ssas,
    is_local_effect,
    transform_ssa,
    validate,
)
from sitcalc.errors import MalformedTransform
from sitcalc.forgetting import GroundAtom
from sitcalc.surface import parse_bat, parse_formula, parse_ground_action, render
from sitcalc.syntax import FALSE, And, FluentAtom, Not, Or, Stage, signature_of, simplify


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

    def test_inline_preconditions_strengthens_contexts(self):
        b = bat(
            "object A;\nstatic P/1;\nfluent F/1;\naction m/1;\n"
            "ssa F(x) { pos: a == m(x); }\n"
            "poss m(x): P(x);\n"
            "init { !F(A); }\n"
        )
        b2 = inline_preconditions(b)
        d = b2.ssa("F").pos[0]
        assert ("P", 1) in signature_of(d.context).statics


class TestGroundActionType:
    def test_constants_and_term_view(self):
        g = GroundAction("move", ("A", "B", "C"))
        assert g.constants == frozenset({"A", "B", "C"})
        assert str(g) == "move(A, B, C)"
