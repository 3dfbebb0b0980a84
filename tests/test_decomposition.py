"""Splitting theories over shared signatures and checking progression compatibility."""

import dataclasses

import pytest

from sitcalc.decomposition import (
    Decomposition,
    check_local_effect_preservation,
    check_strong_preservation,
    detect_split,
    group_ssas,
    syntactic_decompose,
    verify_decomposition,
)
from sitcalc.errors import SitcalcError
from sitcalc.oracle import InseparableFinite, OracleConfig, Separated, check_inseparable
from sitcalc.progression import progress
from sitcalc.surface import parse_formula, parse_ground_action
from sitcalc.syntax import Signature, Theory

DELTA_BLOCK = Signature(statics=frozenset({("Block", 1)}))


class TestSyntacticDecompose:
    def test_two_components_over_the_shared_static(self, blocks_stacks):
        d = syntactic_decompose(blocks_stacks.init, DELTA_BLOCK)
        assert d is not None
        assert len(d.components) == 2
        assert d.components[0].axioms == blocks_stacks.init.axioms[:3]
        assert d.components[1].axioms == blocks_stacks.init.axioms[3:]

    def test_signature_components_exclude_the_shared_part(self, blocks_stacks):
        d = syntactic_decompose(blocks_stacks.init, DELTA_BLOCK)
        names0 = d.signature_components[0].names()
        names1 = d.signature_components[1].names()
        assert "Block" not in names0 and "Block" not in names1
        assert names0 & names1 == set()

    def test_entangled_formulation_has_no_visible_split(self, blocks_stacks_raw):
        assert syntactic_decompose(blocks_stacks_raw.init, DELTA_BLOCK) is None

    def test_shared_only_axioms_attach_to_the_preceding_component(self, blocks_stacks):
        d = syntactic_decompose(blocks_stacks.init, DELTA_BLOCK)
        shared_only = parse_formula("exists x Block(x)", blocks_stacks.sig)
        assert shared_only in d.components[1].axioms
        assert shared_only not in d.components[0].axioms

    def test_everything_shared_means_no_decomposition(self):
        sig = Signature(statics=frozenset({("P", 1)}), objects=frozenset({"c"}))
        t = Theory((parse_formula("P(c)", sig),))
        assert syntactic_decompose(t, Signature(statics=frozenset({("P", 1)}))) is None

    def test_empty_theory_has_no_decomposition(self):
        assert syntactic_decompose(Theory(()), Signature()) is None


class TestVerifyDecomposition:
    def test_shipped_split_verifies_against_both_formulations(
        self, blocks_stacks, blocks_stacks_raw, cfg1
    ):
        d = syntactic_decompose(blocks_stacks.init, DELTA_BLOCK)
        own = verify_decomposition(blocks_stacks.init, d, cfg1)
        assert own.passed
        cross = verify_decomposition(blocks_stacks_raw.init, d, cfg1)
        assert cross.passed

    def test_overlapping_components_fail(self, blocks_stacks, cfg1):
        d = syntactic_decompose(blocks_stacks.init, DELTA_BLOCK)
        overlapping = Decomposition(Signature(), d.components)
        rep = verify_decomposition(blocks_stacks.init, overlapping, cfg1)
        assert not rep.passed
        assert rep.failures == ("components 0 and 1 share non-delta symbols Block",)

    def test_signature_failures_name_the_symbols(self, blocks_stacks):
        cfg = OracleConfig(max_extra=0)
        first = Theory(blocks_stacks.init.axioms[:1])
        twice = verify_decomposition(
            blocks_stacks.init, Decomposition(DELTA_BLOCK, (first, first)), cfg
        )
        assert twice.failures == (
            "components 0 and 1 share non-delta symbols Clear, On",
            "symbols A, B, Block, C, Inheap, Top, Under of the theory appear in no component",
        )
        d = syntactic_decompose(blocks_stacks.init, DELTA_BLOCK)
        padded = verify_decomposition(
            blocks_stacks.init, Decomposition(DELTA_BLOCK, (Theory(()), d.components[0])), cfg
        )
        assert padded.failures == (
            "component 0 has no symbols outside delta",
            "symbols Inheap, Top, Under of the theory appear in no component",
        )

    def test_lossy_components_fail_the_equivalence_leg(self, blocks_stacks, cfg1):
        d = syntactic_decompose(blocks_stacks.init, DELTA_BLOCK)
        lossy = Decomposition(d.delta, (d.components[0], Theory(d.components[1].axioms[:1])))
        rep = verify_decomposition(blocks_stacks.init, lossy, cfg1)
        assert not rep.passed


class TestComponentInseparability:
    def test_components_are_inseparable_without_unique_names(self, blocks_stacks):
        d = syntactic_decompose(blocks_stacks.init, DELTA_BLOCK)
        cfg = OracleConfig(max_extra=1, una=False)
        v = check_inseparable(d.components[0], d.components[1], DELTA_BLOCK, cfg)
        assert isinstance(v, InseparableFinite)
        assert v.reduct_counts == ((1, 1, 1), (2, 3, 3), (3, 7, 7), (4, 15, 15))

    def test_unique_names_let_constants_leak_between_components(self, blocks_stacks, cfg1):
        d = syntactic_decompose(blocks_stacks.init, DELTA_BLOCK)
        v = check_inseparable(d.components[0], d.components[1], DELTA_BLOCK, cfg1)
        assert isinstance(v, Separated)


class TestGroupSsas:
    def test_grouping_follows_shared_symbols(self, blocks_stacks):
        assert group_ssas(blocks_stacks) == (("On", "Clear"), ("Inheap", "Top", "Under"))

    def test_single_cluster_when_everything_connects(self, blocks_world):
        assert group_ssas(blocks_world) == (("On", "Clear", "EH"),)

    def test_delta_symbols_do_not_connect(self, blocks_stacks):
        wide = group_ssas(blocks_stacks, Signature(actions=frozenset({("move", 3)})))
        # removing move still leaves the On/Clear pair connected through On
        assert wide == (("On", "Clear"), ("Inheap", "Top", "Under"))


class TestPreservation:
    PARTITION = (("On", "Clear"), ("Inheap", "Top", "Under"))

    def test_alignment_holds_with_identity_mapping(self, blocks_stacks):
        d = syntactic_decompose(blocks_stacks.init, DELTA_BLOCK)
        rep = check_local_effect_preservation(
            blocks_stacks, Signature(), DELTA_BLOCK, self.PARTITION, d
        )
        assert rep.passed
        assert rep.f_map == {0: 0, 1: 1}

    def test_strong_conditions_hold_for_the_running_action(self, blocks_stacks):
        d = syntactic_decompose(blocks_stacks.init, DELTA_BLOCK)
        alpha = parse_ground_action("move(A, B, C)", blocks_stacks.sig)
        rep = check_strong_preservation(
            blocks_stacks, Signature(), DELTA_BLOCK, alpha, self.PARTITION, d
        )
        assert rep.passed

    def test_dropping_the_vocabulary_padding_axiom_breaks_fluent_coverage(self, blocks_stacks):
        trimmed = dataclasses.replace(
            blocks_stacks,
            init=Theory(tuple(a for i, a in enumerate(blocks_stacks.init.axioms) if i != 4)),
        )
        d = syntactic_decompose(trimmed.init, DELTA_BLOCK)
        assert d is not None and len(d.components) == 2
        rep = check_local_effect_preservation(
            trimmed, Signature(), DELTA_BLOCK, self.PARTITION, d
        )
        assert not rep.passed
        assert any("Under" in str(v) for v in rep.violations)

    def test_fluents_in_delta_are_rejected(self, insep_lost):
        plain = Signature(objects=frozenset({"c"}), statics=frozenset({("R", 2)}))
        assert _fluent_violations(insep_lost, plain) == []
        with_f = plain | Signature(fluents=frozenset({("F", 1)}))
        assert _fluent_violations(insep_lost, with_f) == [
            "delta1 contains fluent symbols F",
            "delta2 contains fluent symbols F",
        ]


def _fluent_violations(bat, delta):
    """The preservation check's complaints about fluents in delta, used as delta1 and delta2."""
    d = Decomposition(delta, (bat.init, bat.init))
    rep = check_local_effect_preservation(bat, delta, delta, (("F",),), d)
    assert not rep.passed  # the two components overlap everywhere
    return [str(v) for v in rep.violations if "fluent symbols" in str(v)]


class TestFluentFree:
    def test_static_and_constant_signatures_are_fluent_free(self, insep_lost):
        d = Signature(objects=frozenset({"c"}), statics=frozenset({("Block", 1)}))
        assert _fluent_violations(insep_lost, d) == []

    def test_fluents_in_the_shared_signature_are_reported(self, insep_lost):
        d = Signature(objects=frozenset({"c"}), statics=frozenset({("R", 2)}),
                      fluents=frozenset({("F", 1)}))
        assert _fluent_violations(insep_lost, d) == [
            "delta1 contains fluent symbols F",
            "delta2 contains fluent symbols F",
        ]


class TestDetectSplit:
    def delta(self):
        return Signature(statics=frozenset({("D", 1), ("R", 2)}))

    def before(self, split_lost):
        return Decomposition(
            self.delta(),
            (Theory(split_lost.init.axioms[:3]), Theory(split_lost.init.axioms[3:])),
        )

    def test_intended_components_verify_before_progression(self, split_lost, cfg1):
        rep = verify_decomposition(split_lost.init, self.before(split_lost), cfg1)
        assert rep.passed

    def test_progression_splits_the_first_component(self, split_lost):
        alpha = parse_ground_action("A(c)", split_lost.sig)
        after_theory = progress(split_lost, alpha).theory
        after = syntactic_decompose(after_theory, self.delta())
        assert after is not None and len(after.components) == 3
        rep = detect_split(self.before(split_lost), after)
        assert rep.split_detected
        assert rep.splits == ((0, (0, 1)),)

    def test_mismatched_shared_signatures_are_rejected(self, split_lost):
        before = self.before(split_lost)
        other = Decomposition(Signature(), before.components)
        with pytest.raises(SitcalcError):
            detect_split(before, other)

    def test_no_split_when_components_map_one_to_one(self, blocks_stacks):
        d = syntactic_decompose(blocks_stacks.init, DELTA_BLOCK)
        rep = detect_split(d, d)
        assert not rep.split_detected
