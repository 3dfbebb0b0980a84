"""Progression of initial theories through ground actions."""

import collections
import dataclasses
import itertools
import random

import forgetting_reference
import pytest
import transform_reference
from blocks_worlds import ground_world, stacks_world
from conftest import load_bat

from sitcalc import bat, forgetting, progression, syntax
from sitcalc.decomposition import Decomposition, group_ssas, syntactic_decompose
from sitcalc.errors import MalformedTransform, MissingAxiom, SitcalcError
from sitcalc.forgetting import sorted_atoms
from sitcalc.oracle import Countermodel, EntailedFinite, EquivalentFinite, OracleConfig, entails, equivalent, is_positive
from sitcalc.progression import (
    ExecutabilityReport,
    StepVerdict,
    executable,
    progress,
    progress_componentwise,
    progress_sequence,
    project,
)
from sitcalc.surface import parse_formula, parse_ground_action, render
from sitcalc.syntax import (
    FALSE,
    TRUE,
    And,
    Const,
    FluentAtom,
    Not,
    Or,
    Signature,
    Stage,
    StaticAtom,
    Theory,
    literal_atom,
    rename_stage,
    simplify_theory,
    split_conjunctions,
)

DELTA_BLOCK = Signature(statics=frozenset({("Block", 1)}))

STACKS_PROGRESSED = [
    "forall x ((x != B) & !exists y ((y != A | x != B) & On(y, x))"
    " & ((x == A) | exists y ((x != A | B != y) & On(x, y))) & (x != C) -> Clear(x))",
    "forall x (((x == A) | exists y ((x != A | B != y) & On(x, y))) -> Block(x))",
    "On(A, C) & !On(A, B) & Block(B) & Block(C)",
    "Clear(A) & Clear(B) & !Clear(C)",
    "forall x (Top(x) | Inheap(x) -> !Block(x))",
    "exists x Block(x)",
]


def union(d: Decomposition) -> Theory:
    return Theory(tuple(ax for c in d.components for ax in c.axioms))


class TestProgress:
    def test_single_fluent_update_stays_small(self, decomp_lost, cfg2):
        alpha = parse_ground_action("A(c)", decomp_lost.sig)
        r = progress(decomp_lost, alpha)
        assert [render(a) for a in r.theory.axioms] == [
            "exists x P(x)",
            "F(c) <-> P(c)",
        ]
        assert sorted(str(g) for g in r.omega) == ["F(c)"]
        assert r.touched_fluents == frozenset({"F"})
        target = Theory(
            tuple(
                parse_formula(s, decomp_lost.sig)
                for s in ("F(c) <-> P(c)", "exists x P(x)")
            )
        )
        assert isinstance(equivalent(r.theory, target, cfg2), EquivalentFinite)

    def test_blocks_and_heap_progression_matches_closed_form(self, blocks_stacks, cfg1):
        alpha = parse_ground_action("move(A, B, C)", blocks_stacks.sig)
        r = progress(blocks_stacks, alpha)
        assert sorted(str(g) for g in r.omega) == [
            "Clear(B)",
            "Clear(C)",
            "On(A, B)",
            "On(A, C)",
        ]
        assert r.touched_fluents == frozenset({"On", "Clear"})
        target = Theory(
            tuple(parse_formula(s, blocks_stacks.sig) for s in STACKS_PROGRESSED)
        )
        v = equivalent(r.theory, target, cfg1)
        assert isinstance(v, EquivalentFinite)

    def test_untouched_axioms_survive_verbatim(self, blocks_stacks):
        alpha = parse_ground_action("move(A, B, C)", blocks_stacks.sig)
        r = progress(blocks_stacks, alpha)
        for ax in blocks_stacks.init.axioms[3:]:
            assert ax in r.theory.axioms


def renamed_whole(b, alpha) -> Theory:
    """progress(b, alpha).theory as the generic constructions compute it,
    sharing none of progress's short paths: the reference transform and
    instantiation (tests/transform_reference.py), the reference forgetting
    (tests/forgetting_reference.py) folded over the canonical order, and
    every axiom renamed, simplified and split."""
    omega = transform_reference.characteristic_set(b, alpha)
    t = Theory(transform_reference.instantiate_ssas(b, alpha, omega).axioms + b.init.axioms)
    for g in sorted_atoms(omega):
        t = forgetting_reference.forget_atom(t, g)
    return split_conjunctions(simplify_theory(rename_stage(t, Stage.NEXT, Stage.NOW)))


class TestUntouchedAxioms:
    A = Const("A")

    @pytest.mark.parametrize(
        "name, action",
        [("blocks_stacks.bat", "move(A, B, C)"), ("blocks_stacks.bat", "push(C, B)"),
         ("blocks_world.bat", "move(A, B, C)"), ("decomp_lost.bat", "A(c)")],
    )
    def test_the_result_is_that_of_renaming_every_axiom(self, request, name, action):
        b = request.getfixturevalue(name.removesuffix(".bat"))
        alpha = parse_ground_action(action, b.sig)
        assert progress(b, alpha).theory == renamed_whole(b, alpha)

    def test_an_unsimplified_untouched_axiom_is_simplified_and_split(self, blocks_stacks):
        block = StaticAtom("Block", (self.A,))
        extra = And(block, And(block, StaticAtom("Block", (Const("B"),))))
        b = dataclasses.replace(blocks_stacks, init=Theory(blocks_stacks.init.axioms + (extra,)))
        alpha = parse_ground_action("move(A, B, C)", b.sig)
        r = progress(b, alpha).theory
        assert r == renamed_whole(b, alpha)
        assert extra not in r.axioms and block in r.axioms

    def test_a_next_stage_atom_in_an_initial_theory_built_in_code_is_renamed(self, blocks_stacks):
        # validate rejects it and the parser cannot read it; progression
        # renames it with the rest, as before, though forgetting passes its
        # axiom through
        top_next = FluentAtom("Top", (self.A,), Stage.NEXT)
        b = dataclasses.replace(blocks_stacks, init=Theory(blocks_stacks.init.axioms + (top_next,)))
        alpha = parse_ground_action("move(A, B, C)", b.sig)
        r = progress(b, alpha).theory
        assert r == renamed_whole(b, alpha)
        assert FluentAtom("Top", (self.A,), Stage.NOW) in r.axioms and top_next not in r.axioms

    def test_a_negated_next_stage_literal_is_renamed(self, blocks_stacks):
        # the only next-stage mention is a literal, whose stage is read off
        # its atom rather than by walking the initial theory
        top_next = FluentAtom("Top", (self.A,), Stage.NEXT)
        b = dataclasses.replace(blocks_stacks, init=Theory(blocks_stacks.init.axioms + (Not(top_next),)))
        alpha = parse_ground_action("move(A, B, C)", b.sig)
        r = progress(b, alpha).theory
        assert r == renamed_whole(b, alpha)
        assert Not(FluentAtom("Top", (self.A,), Stage.NOW)) in r.axioms and Not(top_next) not in r.axioms

    def test_an_axiom_that_renaming_makes_simplifiable_is_simplified(self, blocks_stacks):
        # Top'(A) | !Top(A) passes forgetting and renames to a tautology
        top = FluentAtom("Top", (self.A,), Stage.NOW)
        mixed = Or(FluentAtom("Top", (self.A,), Stage.NEXT), Not(top))
        b = dataclasses.replace(blocks_stacks, init=Theory(blocks_stacks.init.axioms + (mixed,)))
        alpha = parse_ground_action("move(A, B, C)", b.sig)
        r = progress(b, alpha).theory
        assert r == renamed_whole(b, alpha)
        assert r == progress(blocks_stacks, alpha).theory

    @pytest.mark.parametrize("extra", [TRUE, FALSE], ids=["true", "false"])
    def test_an_initial_truth_value(self, blocks_stacks, extra):
        # TRUE is dropped and FALSE kept, by what each axiom is
        b = dataclasses.replace(blocks_stacks, init=Theory(blocks_stacks.init.axioms + (extra,)))
        alpha = parse_ground_action("move(A, B, C)", b.sig)
        r = progress(b, alpha).theory
        assert r == renamed_whole(b, alpha)
        assert (FALSE in r.axioms) == (extra is FALSE)

    def test_a_world_holding_an_atom_of_omega_both_ways(self):
        # the literal step of an atom held as g and as !g adds FALSE
        b, alpha = ground_world(random.Random(3), 4)
        g = sorted_atoms(progress(b, alpha).omega)[0].to_formula()
        other = Not(g) if g in b.init.axioms else g
        b = dataclasses.replace(b, init=Theory(b.init.axioms + (other,)))
        r = progress(b, alpha).theory
        assert r == renamed_whole(b, alpha)
        assert FALSE in r.axioms

    @pytest.mark.parametrize("n", [1, 4, 9])
    def test_an_untouched_initial_literal_is_the_same_object(self, n):
        # the next step's simplify calls find their memos on these objects
        b, alpha = ground_world(random.Random(n), n)
        r = progress(b, alpha)
        assert r.theory == renamed_whole(b, alpha)
        touched = {g.to_formula() for g in r.omega}
        untouched = [ax for ax in b.init.axioms if literal_atom(ax) not in touched]
        kept = {id(ax) for ax in r.theory.axioms}
        assert untouched and all(id(ax) in kept for ax in untouched)

    @pytest.mark.parametrize("n", [1, 4, 9])
    def test_a_complete_ground_world(self, n):
        # every initial axiom is a literal, passed through without simplify;
        # the second step starts from the progressed theory
        b, alpha = ground_world(random.Random(n), n)
        for _ in range(2):
            r = progress(b, alpha).theory
            assert r == renamed_whole(b, alpha)
            assert all(literal_atom(ax) is not None for ax in r.axioms)
            b = dataclasses.replace(b, init=r)


class TestStepCost:
    def test_a_move_makes_as_many_simplify_and_relativize_calls_in_every_world(self, monkeypatch):
        # complete worlds of 8, 16 and 32 blocks, each through a move of one
        # shape: a block from another block onto a third
        counts = collections.Counter()
        for module in (syntax, bat, forgetting, progression):
            for name in ("simplify", "relativize"):
                real = getattr(module, name, None)
                if real is not None:
                    monkeypatch.setattr(module, name, _counting(counts, name, real))
        seen = []
        for n in (8, 16, 32):
            for seed in itertools.count():
                b, alpha = ground_world(random.Random(f"{n}-{seed}"), n)
                if "T" not in alpha.args:
                    break
            counts.clear()
            r = progress(b, alpha)
            seen.append(dict(counts))
            assert r.theory == renamed_whole(b, alpha)
        assert seen[0] == seen[1] == seen[2]
        # every step is a literal step, which relativizes nothing
        assert "relativize" not in seen[0]


def _counting(counts, name, fn):
    def counted(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)
    return counted


class TestComponentwise:
    def test_untouched_component_is_returned_unchanged(self, blocks_stacks):
        d = syntactic_decompose(blocks_stacks.init, DELTA_BLOCK)
        alpha = parse_ground_action("move(A, B, C)", blocks_stacks.sig)
        after = progress_componentwise(
            blocks_stacks, d, group_ssas(blocks_stacks), alpha
        )
        assert after.components[1] is d.components[1]
        assert after.components[0] is not d.components[0]

    def test_union_of_progressed_components_matches_whole_theory(
        self, blocks_stacks, cfg1
    ):
        d = syntactic_decompose(blocks_stacks.init, DELTA_BLOCK)
        alpha = parse_ground_action("move(A, B, C)", blocks_stacks.sig)
        after = progress_componentwise(
            blocks_stacks, d, group_ssas(blocks_stacks), alpha
        )
        whole = progress(blocks_stacks, alpha).theory
        assert isinstance(equivalent(union(after), whole, cfg1), EquivalentFinite)

    def test_each_ssa_is_transformed_once_per_action(self, blocks_stacks, monkeypatch):
        calls = []
        real = bat.transform_ssa

        def counting(s, alpha):
            calls.append((s.fluent, alpha))
            return real(s, alpha)

        monkeypatch.setattr(bat, "transform_ssa", counting)
        b = dataclasses.replace(blocks_stacks)  # the fixture's own table may be filled already
        d = syntactic_decompose(b.init, DELTA_BLOCK)
        alpha = parse_ground_action("move(A, B, C)", b.sig)
        progress_componentwise(b, d, group_ssas(b), alpha)
        progress(b, alpha)
        assert sorted(calls) == sorted((s.fluent, alpha) for s in b.ssas)
        progress(dataclasses.replace(b, init=Theory(())), alpha)  # a new BAT has a new table
        assert len(calls) == 2 * len(b.ssas)

    def test_failed_alignment_aborts_before_progressing(self, blocks_stacks):
        trimmed = dataclasses.replace(
            blocks_stacks,
            init=Theory(
                tuple(a for i, a in enumerate(blocks_stacks.init.axioms) if i != 4)
            ),
        )
        d = syntactic_decompose(trimmed.init, DELTA_BLOCK)
        alpha = parse_ground_action("move(A, B, C)", trimmed.sig)
        with pytest.raises(SitcalcError, match="Under"):
            progress_componentwise(trimmed, d, group_ssas(trimmed), alpha)


class TestSequence:
    def test_inverse_actions_recover_the_initial_theory(self, blocks_world, cfg1):
        acts = [
            parse_ground_action(s, blocks_world.sig)
            for s in ("move(A, B, C)", "move(A, C, B)")
        ]
        t = progress_sequence(blocks_world, acts)
        assert isinstance(equivalent(t, blocks_world.init, cfg1), EquivalentFinite)

    def test_empty_sequence_is_the_initial_theory(self, blocks_world):
        assert progress_sequence(blocks_world, []) == blocks_world.init


class TestProject:
    def test_query_after_the_move_holds(self, blocks_world, cfg1):
        acts = [parse_ground_action("move(A, B, C)", blocks_world.sig)]
        q = parse_formula("On(A, C) & Clear(B)", blocks_world.sig)
        assert is_positive(project(blocks_world, acts, q, cfg1))

    def test_refuted_query_comes_with_a_countermodel(self, blocks_world, cfg1):
        acts = [parse_ground_action("move(A, B, C)", blocks_world.sig)]
        q = parse_formula("On(A, B)", blocks_world.sig)
        v = project(blocks_world, acts, q, cfg1)
        assert isinstance(v, Countermodel)
        assert not is_positive(v)


class TestExecutable:
    def test_legal_sequence_is_executable_at_every_step(self, blocks_world, cfg1):
        acts = [
            parse_ground_action(s, blocks_world.sig)
            for s in ("move(A, B, C)", "move(A, C, B)")
        ]
        rep = executable(blocks_world, acts, cfg1)
        assert rep.all_executable
        assert len(rep.steps) == 2

    def test_unsupported_precondition_is_flagged_but_later_steps_still_checked(
        self, blocks_world, cfg1
    ):
        acts = [
            parse_ground_action(s, blocks_world.sig)
            for s in ("move(B, A, C)", "move(A, B, C)")
        ]
        rep = executable(blocks_world, acts, cfg1)
        assert not rep.all_executable
        assert isinstance(rep.steps[0].verdict, Countermodel)
        assert len(rep.steps) == 2

    def test_missing_precondition_axiom_is_an_error(self, decomp_lost, cfg1):
        stripped = dataclasses.replace(decomp_lost, preconditions=())
        alpha = parse_ground_action("A(c)", stripped.sig)
        with pytest.raises(MissingAxiom):
            executable(stripped, [alpha], cfg1)

    SEQUENCES = [
        ("blocks_world.bat", ("move(A, B, C)", "move(A, C, B)", "move(B, A, C)")),
        ("blocks_world.bat", ("move(B, A, C)", "move(A, B, C)")),
        ("blocks_stacks.bat", ("move(A, B, C)", "move(A, C, B)", "move(C, A, B)")),
        ("bw_pipeline.bat", ("move(C1, C2, C3)", "move(C1, C3, C2)")),
        ("decomp_lost.bat", ("A(c)", "A(c)")),
        ("insep_lost.bat", ("A(b)", "A(c)", "A(b)")),
        ("split_lost.bat", ("A(c)",)),
    ]

    @pytest.mark.parametrize("name, actions", SEQUENCES, ids=[f"{n}-{len(a)}" for n, a in SEQUENCES])
    def test_corpus_reports_are_those_of_progressing_after_every_step(self, name, actions, cfg1):
        b = load_bat(name)
        alphas = [parse_ground_action(a, b.sig) for a in actions]
        assert executable(b, alphas, cfg1) == executable_reference(b, alphas, cfg1)

    @pytest.mark.parametrize("seed", range(4))
    def test_generated_reports_are_those_of_progressing_after_every_step(self, seed):
        rng = random.Random(600 + seed)
        cfg = OracleConfig(max_extra=seed // 2)
        b, move = ground_world(rng, rng.randrange(3, 9))
        sb, stack_moves = stacks_world(rng, 4, 3)
        for bat_, alphas in ((b, [move, move]), (b, [move]), (sb, stack_moves), (sb, stack_moves[::-1])):
            assert executable(bat_, alphas, cfg) == executable_reference(bat_, alphas, cfg)
        # without unique names on the ground worlds only: the heap world's
        # seven constants make too many placements
        no_una = OracleConfig(max_extra=seed // 2, una=False)
        assert executable(b, [move, move], no_una) == executable_reference(b, [move, move], no_una)

    def test_the_theory_after_the_last_action_is_not_built(self, blocks_world, cfg1, monkeypatch):
        counts = collections.Counter()
        monkeypatch.setattr(progression, "progress", _counting(counts, "progress", progression.progress))
        for moves in ((), ("move(A, B, C)",), ("move(A, B, C)", "move(A, C, B)", "move(A, B, C)")):
            counts.clear()
            rep = executable(blocks_world, [parse_ground_action(m, blocks_world.sig) for m in moves], cfg1)
            assert len(rep.steps) == len(moves)
            assert counts["progress"] == max(0, len(moves) - 1)

    def test_a_last_action_that_is_not_local_effect_is_reported(self, blocks_stacks, cfg1):
        # pop(A) leaves the head variable of Top's effect unbound
        pop = parse_ground_action("pop(A)", blocks_stacks.sig)
        move = parse_ground_action("move(A, B, C)", blocks_stacks.sig)
        with pytest.raises(MalformedTransform):
            progress(blocks_stacks, pop)
        rep = executable(blocks_stacks, [move, pop], cfg1)
        assert [type(s.verdict) for s in rep.steps] == [EntailedFinite, Countermodel]
        with pytest.raises(MalformedTransform):
            executable(blocks_stacks, [pop, move], cfg1)


def executable_reference(b, actions, cfg):
    """executable as it was: it progressed after every action, the last one
    included, and added the current theory's signature to the search."""
    cur, steps = b, []
    for alpha in actions:
        pre = cur.precondition(alpha.fn)
        inst = syntax.substitute(pre.formula, {v.name: c for v, c in zip(pre.params, alpha.term().args)})
        verdict = entails(cur.init, inst, cfg, sig=syntax.signature_of(cur.init) | b.sig)
        steps.append(StepVerdict(alpha, verdict))
        cur = dataclasses.replace(cur, init=progress(cur, alpha).theory)
    return ExecutabilityReport(tuple(steps))
