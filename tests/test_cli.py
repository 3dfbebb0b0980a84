"""Command line behavior: exit codes, report shapes, output files."""

import json
import os
import subprocess
import sys
from pathlib import Path

import random

import pytest
from blocks_worlds import ground_world_text

from sitcalc import cli, corpus_path, oracle, surface
from sitcalc.cli import main
from sitcalc.errors import BudgetExceeded
from sitcalc.surface import parse_bat, parse_theory, render
from sitcalc.syntax import Const, Signature, substitute


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as e:
        code = e.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def path(name):
    return str(corpus_path(name))


class TestParse:
    def test_action_theory_summary(self, capsys):
        code, out, _ = run(capsys, "parse", path("blocks_stacks.bat"))
        assert code == 0
        assert "5 successor state axioms" in out
        assert "3 preconditions" in out
        assert "6 initial axioms" in out

    def test_plain_theory_summary(self, capsys):
        code, out, _ = run(capsys, "parse", path("propositional_chain.bat"))
        assert code == 0
        assert "theory file with 2 axioms" in out

    def test_json_report(self, capsys):
        code, out, _ = run(capsys, "parse", path("blocks_stacks.bat"), "--json")
        assert code == 0
        rep = json.loads(out)
        assert rep["kind"] == "bat"
        assert rep["ssas"] == ["On", "Clear", "Inheap", "Top", "Under"]
        assert rep["signature"]["objects"] == ["A", "B", "C"]

    def test_missing_file_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, "parse", "/no/such/file.bat")
        assert code == 2
        assert "cannot read" in err


class TestFileKind:
    """A file is a theory file exactly when it has a theory block."""

    DECLS = "object A;\nfluent F/1;\n"

    @pytest.mark.parametrize(
        "blocks, where",
        [
            ("init {\n  F(A;\n}\ntheory {\n  F(A);\n}\n", "4:6: expected ')', found ';'"),
            ("init {\n  F(A);\n}\ntheory {\n  F'(A);\n}\n", "3:1: a init block is not allowed in a theory file"),
            ("theory {\n  F'(A);\n}\ninit {\n  F(A);\n}\n", "6:1: a init block is not allowed in a theory file"),
        ],
    )
    def test_mixed_blocks_are_input_errors(self, capsys, tmp_path, blocks, where):
        f = tmp_path / "mixed.bat"
        f.write_text(self.DECLS + blocks)
        code, out, err = run(capsys, "parse", str(f))
        assert (code, out, err) == (2, "", f"error: {f}:{where}\n")

    @pytest.mark.parametrize("name", ["propositional_chain.bat", "blocks_stacks.bat"])
    def test_each_file_is_parsed_once(self, capsys, monkeypatch, name):
        built = []

        class Counted(surface._Parser):
            def __init__(self, *args):
                built.append(args[1])
                super().__init__(*args)

        monkeypatch.setattr(surface, "_Parser", Counted)
        code, _, _ = run(capsys, "parse", path(name))
        assert code == 0
        assert built == [path(name)]


class TestValidate:
    def test_warnings_do_not_fail_by_default(self, capsys):
        code, out, _ = run(capsys, "validate", path("blocks_world.bat"))
        assert code == 0
        assert "warning:" in out
        assert "occurs in both effect conditions" in out
        assert out.rstrip().endswith(": ok")

    def test_strict_turns_warnings_into_errors(self, capsys):
        code, out, _ = run(capsys, "validate", path("blocks_world.bat"), "--strict")
        assert code == 1
        assert "error:" in out
        assert out.rstrip().endswith(": invalid")

    def test_clean_theory_passes_strict(self, capsys):
        code, out, _ = run(capsys, "validate", path("decomp_lost.bat"), "--strict")
        assert code == 0

    def test_a_theory_file_has_no_action_theory_to_check(self, capsys):
        code, out, _ = run(capsys, "validate", path("propositional_chain.bat"))
        assert code == 0
        assert out == f"{path('propositional_chain.bat')}: theory file parses cleanly\n"


class TestProgress:
    def test_axioms_are_printed_one_per_line(self, capsys):
        code, out, _ = run(
            capsys, "progress", path("decomp_lost.bat"), "--action", "A(c)"
        )
        assert code == 0
        assert out.splitlines() == ["exists x P(x);", "F(c) <-> P(c);"]

    def test_json_is_identical_across_runs(self, capsys):
        args = ("progress", path("blocks_stacks.bat"), "--action", "move(A, B, C)", "--json")
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        rep = json.loads(out1)
        assert rep["omega"] == ["Clear(B)", "Clear(C)", "On(A, B)", "On(A, C)"]

    def test_output_file_is_reloadable(self, capsys, tmp_path):
        out_file = tmp_path / "after.bat"
        code, out, _ = run(
            capsys, "progress", path("decomp_lost.bat"), "--action", "A(c)",
            "-o", str(out_file),
        )
        assert code == 0
        assert f"wrote {out_file}" in out
        b = parse_bat(out_file.read_text(), str(out_file))
        code2, out2, _ = run(capsys, "progress", str(out_file), "--action", "A(c)")
        assert code2 == 0

    def test_componentwise_progress_prints_components(self, capsys):
        code, out, _ = run(
            capsys, "progress", path("blocks_stacks.bat"),
            "--action", "move(A, B, C)", "--componentwise", "--delta2", "Block",
        )
        assert code == 0
        assert "// component 1" in out
        assert "// component 2" in out
        assert "exists x Block(x);" in out

    def test_componentwise_output_file_holds_the_components(self, capsys, tmp_path):
        out_file = tmp_path / "after.bat"
        args = (
            "progress", path("blocks_stacks.bat"), "--action", "move(A, B, C)", "--componentwise", "--delta2", "Block"
        )
        code, out, _ = run(capsys, *args, "-o", str(out_file))
        assert (code, out) == (0, f"wrote {out_file}\n")
        code, printed, _ = run(capsys, *args)
        assert code == 0
        b = parse_bat(out_file.read_text(), str(out_file))
        assert [render(ax) + ";" for ax in b.init.axioms] == [s for s in printed.splitlines() if not s.startswith("//")]

    def test_componentwise_needs_a_decomposable_theory(self, capsys):
        code, out, _ = run(
            capsys, "progress", path("blocks_stacks_raw.bat"),
            "--action", "move(A, B, C)", "--componentwise", "--delta2", "Block",
        )
        assert code == 1
        assert "does not decompose" in out

    def test_bad_action_arity_is_a_usage_error(self, capsys):
        code, _, err = run(
            capsys, "progress", path("blocks_stacks.bat"), "--action", "move(A, B)"
        )
        assert code == 2
        assert "arity" in err


class TestForget:
    def test_forget_symbol_collapses_the_chain(self, capsys):
        code, out, _ = run(capsys, "forget", path("propositional_chain.bat"), "--symbol", "P")
        assert code == 0
        assert out == "B | !A;\n"

    def test_forget_atom_releases_only_that_atom(self, capsys):
        code, out, _ = run(
            capsys, "forget", path("insep_forgetting_t1.bat"), "--atom", "R(c, a)"
        )
        assert code == 0
        assert out.splitlines() == [
            "a != c;",
            "forall x exists y (x == c & y == a | R(x, y));",
        ]

    @staticmethod
    def _forget_in_wide_conjunction(capsys, tmp_path, width):
        names = [f"c{i}" for i in range(width)]
        src = tmp_path / "wide.bat"
        src.write_text(
            f"object {', '.join(names)};\nstatic P/1;\n\n"
            f"theory {{\n  {' & '.join(f'P({c})' for c in names)};\n}}\n"
        )
        code, out, err = run(capsys, "forget", str(src), "--atom", "P(c5)")
        assert code == 0, err
        assert out == " & ".join(f"P({c})" for c in names if c != "c5") + ";\n"

    def test_forgetting_in_a_wide_conjunction_keeps_the_other_conjuncts(self, capsys, tmp_path):
        self._forget_in_wide_conjunction(capsys, tmp_path, 600)

    def test_forgetting_in_a_conjunction_of_2400_atoms(self, capsys, tmp_path):
        # Simplifying this took time quadratic in the width: 8 s against 0.9 s at 600.
        self._forget_in_wide_conjunction(capsys, tmp_path, 2400)

    def test_the_oracle_grounds_and_checks_a_wide_conjunction(self, capsys, tmp_path):
        names = [f"c{i}" for i in range(1200)]
        src = tmp_path / "wide.bat"
        src.write_text(
            f"object {', '.join(names)};\nstatic P/1;\n\n"
            f"theory {{\n  {' & '.join(f'P({c})' for c in names)};\n}}\n"
        )
        code, out, err = run(capsys, "oracle", "sat", str(src))
        assert code == 0, err
        assert out.startswith("satisfiable:")

    @pytest.mark.parametrize(
        "name, symbol",
        [("propositional_chain.bat", "Nope"), ("insep_forgetting_t1.bat", "c")],
        ids=["undeclared", "object-constant"],
    )
    def test_a_symbol_that_is_not_a_declared_predicate_is_a_usage_error(self, capsys, name, symbol):
        code, out, err = run(capsys, "forget", path(name), "--symbol", symbol)
        assert code == 2
        assert out == ""
        assert err == f"error: symbol {symbol!r} is not a declared static or fluent predicate\n"

    def test_a_declared_symbol_without_occurrences_leaves_the_theory_unchanged(self, capsys, tmp_path):
        src = tmp_path / "unused.bat"
        src.write_text("static A/0, P/0, Q/0;\n\ntheory {\n  A -> P;\n}\n")
        code, out, err = run(capsys, "forget", str(src), "--symbol", "Q")
        assert code == 0, err
        assert out == "A -> P;\n"

    def test_a_fluent_of_an_action_theory_can_be_forgotten(self, capsys):
        code, out, err = run(capsys, "forget", path("blocks_world.bat"), "--symbol", "Clear")
        assert code == 0, err
        assert "Clear" not in out

    def test_a_theory_file_written_by_forgetting_reparses(self, capsys, tmp_path):
        out = tmp_path / "out.bat"
        code, printed, err = run(
            capsys, "forget", path("insep_forgetting_t1.bat"), "--atom", "R(c, a)", "-o", str(out)
        )
        assert code == 0, err
        assert printed == f"wrote {out}\n"
        sig, t = parse_theory(out.read_text(), str(out))
        assert sig == Signature(objects=frozenset({"a", "c"}), statics=frozenset({("R", 2)}))
        assert [render(ax) for ax in t.axioms] == ["a != c", "forall x exists y (x == c & y == a | R(x, y))"]

    def test_atom_and_symbol_are_mutually_exclusive(self, capsys):
        code, _, err = run(
            capsys, "forget", path("propositional_chain.bat"),
            "--symbol", "P", "--atom", "P",
        )
        assert code == 2


class TestDecompose:
    def test_two_components_over_the_shared_static(self, capsys):
        code, out, _ = run(capsys, "decompose", path("blocks_stacks.bat"), "--delta", "Block")
        assert code == 0
        assert out.splitlines()[0] == "2 components"
        assert "// component 2" in out

    def test_undecomposable_input_exits_nonzero(self, capsys):
        code, out, _ = run(
            capsys, "decompose", path("blocks_stacks_raw.bat"), "--delta", "Block"
        )
        assert code == 1
        assert "no decomposition" in out

    def test_unknown_delta_symbol_is_a_usage_error(self, capsys):
        code, _, err = run(
            capsys, "decompose", path("blocks_stacks.bat"), "--delta", "Bogus"
        )
        assert code == 2
        assert "not declared" in err


class TestCheckPreservation:
    def test_alignment_report_names_the_mapping(self, capsys):
        code, out, _ = run(
            capsys, "check-preservation", path("blocks_stacks.bat"), "--delta2", "Block"
        )
        assert code == 0
        assert "preservation holds (group 1 -> component 1, group 2 -> component 2)" in out

    def test_per_action_conditions_also_pass(self, capsys):
        code, out, _ = run(
            capsys, "check-preservation", path("blocks_stacks.bat"),
            "--delta2", "Block", "--action", "move(A, B, C)",
        )
        assert code == 0

    def test_json_report_carries_the_component_map(self, capsys):
        code, out, _ = run(
            capsys, "check-preservation", path("blocks_stacks.bat"),
            "--delta2", "Block", "--json",
        )
        rep = json.loads(out)
        assert rep["alignment_passed"] is True
        assert rep["f_map"] == {"0": 0, "1": 1}
        assert rep["partition"] == [["On", "Clear"], ["Inheap", "Top", "Under"]]


class TestProjectAndExecutable:
    def test_projected_query_holds(self, capsys):
        code, out, _ = run(
            capsys, "project", path("blocks_world.bat"),
            "--actions", "move(A, B, C)", "--query", "On(A, C) & Clear(B)",
        )
        assert code == 0
        assert "entailed" in out

    def test_refuted_query_prints_a_countermodel(self, capsys):
        code, out, _ = run(
            capsys, "project", path("blocks_world.bat"),
            "--actions", "move(A, B, C)", "--query", "On(A, B)",
        )
        assert code == 1
        assert "countermodel" in out

    def test_legal_sequence_is_executable(self, capsys):
        code, out, _ = run(
            capsys, "executable", path("blocks_world.bat"),
            "--actions", "move(A, B, C); move(A, C, B)",
        )
        assert code == 0
        assert out.splitlines() == [
            "step 1: move(A, B, C): executable",
            "step 2: move(A, C, B): executable",
        ]

    def test_blocked_step_is_reported_and_fails(self, capsys):
        code, out, _ = run(
            capsys, "executable", path("blocks_world.bat"),
            "--actions", "move(B, A, C)",
        )
        assert code == 1
        assert "step 1: move(B, A, C): not executable" in out

    def test_a_last_action_that_is_not_local_effect_is_reported(self, capsys):
        # the theory after pop(A) is never built, so its transform's
        # unbound head variable raises nothing
        code, out, _ = run(
            capsys, "executable", path("blocks_stacks.bat"),
            "--actions", "move(A, B, C); pop(A)",
        )
        assert code == 1
        assert out.splitlines() == [
            "step 1: move(A, B, C): executable",
            "step 2: pop(A): not executable",
        ]


class TestOracle:
    def test_entails_positive(self, capsys):
        code, out, _ = run(
            capsys, "oracle", "entails", path("propositional_chain.bat"),
            "--query", "A -> B",
        )
        assert code == 0
        assert "entailed in every model up to domain size" in out

    def test_entails_json_flag_lives_on_the_mode(self, capsys):
        code, out, _ = run(
            capsys, "oracle", "entails", path("propositional_chain.bat"),
            "--query", "A -> B", "--json",
        )
        assert code == 0
        assert json.loads(out)["verdict"]["kind"] == "entailed"

    def test_action_equality_query_is_a_parse_error(self, capsys):
        # actions occur only in pos:/neg: clauses and poss heads
        code, out, err = run(
            capsys, "oracle", "entails", path("blocks_world.bat"),
            "--query", "move(A, B, C) == move(A, B, C)",
        )
        assert code == 2
        assert out == ""
        assert "<formula>:1:1: an application cannot be an equality operand" in err

    def test_equiv_positive(self, capsys, tmp_path):
        # the contrapositives of the chain's two implications
        other = tmp_path / "contrapositive.bat"
        other.write_text("static A/0, P/0, B/0;\n\ntheory {\n  !P -> !A;\n  !B -> !P;\n}\n")
        argv = ["oracle", "equiv", path("propositional_chain.bat"), str(other)]
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (0, "equivalent in every model up to domain size 1\n", "")
        code, out, err = run(capsys, *argv, "--json")
        assert (code, err) == (0, "")
        assert json.loads(out)["verdict"] == {"kind": "equivalent", "bound": 1}

    def test_equiv_negative_shows_direction(self, capsys):
        code, out, _ = run(
            capsys, "oracle", "equiv",
            path("insep_forgetting_t1.bat"), path("insep_forgetting_t2.bat"),
        )
        assert code == 1
        assert "satisfies the second theory but not the first" in out

    def test_sat_positive(self, capsys):
        code, out, _ = run(capsys, "oracle", "sat", path("propositional_chain.bat"))
        assert code == 0
        assert "satisfiable:" in out

    def test_sat_negative(self, capsys, tmp_path):
        f = tmp_path / "contradiction.bat"
        f.write_text("static P/0;\n\ntheory {\n  P;\n  !P;\n}\n")
        code, out, _ = run(capsys, "oracle", "sat", str(f))
        assert code == 1
        assert "unsatisfiable" in out

    def test_insep_of_a_theory_with_itself(self, capsys):
        code, out, _ = run(
            capsys, "oracle", "insep",
            path("insep_forgetting_t1.bat"), path("insep_forgetting_t1.bat"),
            "--delta", "R,c",
        )
        assert code == 0
        assert "inseparable over the shared signature" in out

    def test_insep_separated_prints_the_witness(self, capsys):
        code, out, _ = run(
            capsys, "oracle", "insep",
            path("insep_forgetting_t1.bat"), path("insep_forgetting_t2.bat"),
            "--delta", "R,c",
        )
        assert code == 1
        assert "separated: theory 1 entails" in out

    def test_insep_at_depth_one_still_decides(self, capsys):
        argv = [
            "oracle", "insep",
            path("insep_forgetting_t1.bat"), path("insep_forgetting_t2.bat"),
            "--delta", "R,c", "--depth", "1",
        ]
        code, out, _ = run(capsys, *argv)
        assert code == 1
        assert out == (
            "separated: theory 1 entails !exists v0 (v0 != c & forall v1 (v1 == v0 | v1 == c)"
            " & R(v0, v0) & R(v0, c) & !R(c, v0) & R(c, c)), the other does not\n"
        )
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 1
        verdict = json.loads(out)["verdict"]
        assert verdict["kind"] == "separated" and verdict["entailed_by"] == 1

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("entails", "--query", "false", "--max-extra", "-3"), "max_extra must be at least 0, not -3"),
            (("sat", "--max-extra", "-1"), "max_extra must be at least 0, not -1"),
            (("sat", "--max-models", "0"), "max_models must be at least 1, not 0"),
            (("insep", "CHAIN", "--delta", "A", "--max-extra", "-3"), "max_extra must be at least 0, not -3"),
            (("insep", "CHAIN", "--delta", "A", "--depth", "-1"), "witness_depth must be at least 0, not -1"),
        ],
        ids=["entails-max-extra", "sat-max-extra", "sat-max-models", "insep-max-extra", "insep-depth"],
    )
    def test_out_of_range_bounds_are_usage_errors(self, capsys, argv, message):
        chain = path("propositional_chain.bat")
        mode, *rest = argv
        code, out, err = run(capsys, "oracle", mode, chain, *(chain if a == "CHAIN" else a for a in rest))
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    def test_an_empty_relation_prints_as_an_empty_table(self, capsys, tmp_path):
        # the table alone cannot tell R/2 holding nowhere from a false P/0
        f = tmp_path / "empty.bat"
        f.write_text("object a;\nstatic R/2, P/0;\n\ntheory {\n  forall x forall y !R(x, y);\n  !P;\n}\n")
        code, out, err = run(capsys, "oracle", "sat", str(f))
        assert code == 0, err
        assert out == "satisfiable:\n  domain size 1\n  P = false\n  R = {}\n"

    def test_the_smallest_bounds_in_range_are_accepted(self, capsys):
        code, out, err = run(
            capsys, "oracle", "entails", path("propositional_chain.bat"),
            "--query", "A -> B", "--max-extra", "0", "--max-models", "1",
        )
        assert code == 0, err
        assert out == "entailed in every model up to domain size 1\n"


class TestDeepInput:
    @pytest.mark.parametrize(
        "argv, expected",
        [(["parse"], "theory file with 1 axioms"), (["oracle", "sat"], "satisfiable:")],
        ids=["parse", "sat"],
    )
    def test_an_axiom_inside_ten_thousand_parentheses(self, capsys, tmp_path, argv, expected):
        f = tmp_path / "deep.bat"
        f.write_text(f"static P/0;\n\ntheory {{\n  {'(' * 10_000}P{')' * 10_000};\n}}\n")
        code, out, err = run(capsys, *argv, str(f))
        assert code == 0, err
        assert expected in out

    def test_a_thousand_long_implication_chain_is_satisfiable(self, capsys, tmp_path):
        f = tmp_path / "chain.bat"
        f.write_text(f"static Z/0, Q/0;\n\ntheory {{\n  {' -> '.join(['Z', 'Q'] * 500)};\n}}\n")
        code, out, err = run(capsys, "oracle", "sat", str(f))
        assert code == 0, err
        assert "satisfiable:" in out

    def test_three_thousand_negations_before_an_atom_are_satisfiable(self, capsys, tmp_path):
        f = tmp_path / "negations.bat"
        f.write_text(f"static P/0;\n\ntheory {{\n  {'!' * 3_000}P;\n}}\n")
        code, out, err = run(capsys, "oracle", "sat", str(f))
        assert code == 0, err
        assert "satisfiable:" in out
        assert "P = true" in out

    @pytest.mark.parametrize(
        "declarations, axiom, symbol, expected",
        [
            ("static Z/0, Q/0;", " -> ".join(["Z", "Q"] * 500), "Z", "true;\n"),
            ("static Z/0, Q/0;", " <-> ".join(["Z"] + ["Q"] * 999), "Z", "true;\n"),
            ("static P/0, Z/0;", "!" * 1_000 + "P & Z", "Z", "P;\n"),
            ("static P/0;", "!" * 3_000 + "P", "P", "true;\n"),
            (
                "static Z/0, " + ", ".join(f"D{i}/0" for i in range(350)) + ";",
                "Z & (D0 | " + " | ".join(f"!D{i - 1} & D{i}" for i in range(1, 350)) + ")",
                "Z",
                " | ".join(f"D{i}" for i in range(350)) + ";\n",
            ),
        ],
        ids=[
            "implication-chain",
            "biconditional-chain",
            "negations-before-a-conjunction",
            "negations-before-an-atom",
            "staircase",
        ],
    )
    def test_a_symbol_is_forgotten_from_a_deep_axiom(self, capsys, tmp_path, declarations, axiom, symbol, expected):
        f = tmp_path / "deep.bat"
        f.write_text(f"{declarations}\n\ntheory {{\n  {axiom};\n}}\n")
        code, out, err = run(capsys, "forget", str(f), "--symbol", symbol)
        assert code == 0, err
        assert out == expected

    @pytest.mark.parametrize(
        "axiom, printed",
        [("!" * 3_000 + "P", "!" * 3_000 + "P"), ("!" * 3_000 + "a == b", "!" * 2_999 + "a != b")],
        ids=["atom", "equality"],
    )
    def test_a_kept_negation_chain_is_printed(self, capsys, tmp_path, axiom, printed):
        # forgetting a symbol that does not occur keeps the chain, which the
        # printer walks in a loop; the innermost ! over an equality is !=
        f = tmp_path / "negations.bat"
        f.write_text(f"object a, b;\nstatic P/0, Q/0;\n\ntheory {{\n  {axiom};\n}}\n")
        code, out, err = run(capsys, "forget", str(f), "--symbol", "Q")
        assert code == 0, err
        assert out == printed + ";\n"

    def test_a_kept_implication_chain_is_printed(self, capsys, tmp_path):
        # forgetting a symbol that does not occur keeps the chain, which
        # the printer then walks along its spine
        chain = " -> ".join(["Z", "Q"] * 500)
        f = tmp_path / "chain.bat"
        f.write_text(f"static Z/0, Q/0, X/0;\n\ntheory {{\n  {chain};\n}}\n")
        code, out, err = run(capsys, "forget", str(f), "--symbol", "X")
        assert code == 0, err
        assert out == chain + ";\n"
        sig, t = surface.parse_theory(f.read_text())
        text = surface.render_theory_file(sig, t)
        sig2, t2 = surface.parse_theory(text)
        assert sig2 == sig and surface.render_theory_file(sig2, t2) == text
        a, b = t.axioms[0], t2.axioms[0]
        for _ in range(999):
            assert a.lhs == b.lhs
            a, b = a.rhs, b.rhs
        assert a == b

    def test_a_chain_that_alternates_negation_and_biconditional_is_printed(self, capsys, tmp_path):
        # forgetting Z from P0 <-> Z <-> P1 <-> Z <-> ... keeps a chain of
        # <-> links under !s, each the last operand of the one before, which
        # the printer walks in a loop; the text reparses to itself
        n = 500
        chain = " <-> ".join(x for i in range(n) for x in (f"P{i}", "Z"))
        f = tmp_path / "alt.bat"
        f.write_text(f"static Z/0, {', '.join(f'P{i}/0' for i in range(n))};\n\ntheory {{\n  {chain};\n}}\n")
        code, out, err = run(capsys, "forget", str(f), "--symbol", "Z")
        assert code == 0, err
        nested = f"P{n - 2} <-> P{n - 1}"
        for i in reversed(range(n - 2)):
            nested = f"P{i} <-> !({nested})"
        assert out == "(" + " <-> ".join(f"P{i}" for i in range(n)) + f") | ({nested});\n"
        sig, _ = surface.parse_theory(f.read_text())
        assert render(surface.parse_formula(out[:-2], sig)) == out[:-2]


    @staticmethod
    def _wide_one_point(tmp_path):
        """forall x (x == d -> P(c0) & ... & P(c1999) & P(x)): the one-point
        rule substitutes d for x in a 2,000-long conjunction."""
        consts = [f"c{i}" for i in range(2_000)]
        body = " & ".join(f"P({c})" for c in consts)
        f = tmp_path / "wide.bat"
        f.write_text(f"object {', '.join(consts)}, d;\nstatic P/1;\n\ntheory {{\n  forall x (x == d -> {body} & P(x));\n}}\n")
        return f, consts

    def test_an_atom_is_forgotten_through_a_wide_one_point_rule(self, capsys, tmp_path):
        f, consts = self._wide_one_point(tmp_path)
        code, out, err = run(capsys, "forget", str(f), "--atom", "P(c5)")
        assert code == 0, err
        kept = [c for c in consts if c != "c5"] + ["d"]
        assert out == " & ".join(f"P({c})" for c in kept) + ";\n"

    def test_a_wide_formula_is_substituted(self, tmp_path):
        f, consts = self._wide_one_point(tmp_path)
        _, t = surface.parse_theory(f.read_text())
        rule = t.axioms[0].body
        out = substitute(rule, {"x": Const("d")})
        assert render(out) == render(rule).replace("x", "d")
        assert substitute(rule.rhs, {}) is rule.rhs


class TestRenderOnce:
    @pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["lines", "json"])
    def test_progress_renders_each_axiom_once(self, capsys, monkeypatch, tmp_path, json_flag):
        text, move = ground_world_text(random.Random(40), 40)
        f = tmp_path / "world.bat"
        f.write_text(text)
        calls = []
        monkeypatch.setattr(cli, "render", lambda x: calls.append(x) or render(x))
        code, out, err = run(capsys, "progress", str(f), "--action", move, *json_flag)
        assert code == 0, err
        axioms = json.loads(out)["axioms"] if json_flag else out.splitlines()
        assert len(axioms) == 41 * 43
        assert len(calls) == len(axioms)


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 2

    def test_missing_required_option(self, capsys):
        code, _, err = run(capsys, "decompose", path("blocks_stacks.bat"))
        assert code == 2


class TestRemovedFlags:
    @pytest.mark.parametrize(
        "argv",
        [
            ["project", "blocks_stacks.bat", "--actions", "move(A, B, C)", "--query", "On(A, C)"],
            ["executable", "blocks_stacks.bat", "--actions", "move(A, B, C)"],
            ["oracle", "entails", "propositional_chain.bat", "--query", "A -> B"],
            ["oracle", "equiv", "insep_forgetting_t1.bat", "insep_forgetting_t2.bat"],
            ["oracle", "sat", "propositional_chain.bat"],
            ["oracle", "insep", "insep_forgetting_t1.bat", "insep_forgetting_t2.bat", "--delta", "R,c"],
        ],
        ids=["project", "executable", "entails", "equiv", "sat", "insep"],
    )
    def test_budget_is_rejected(self, capsys, argv):
        argv = [path(a) if a.endswith(".bat") else a for a in argv]
        code, _, err = run(capsys, *argv, "--budget", "5")
        assert code == 2
        assert "unrecognized arguments: --budget" in err


class TestClosedStdout:
    @staticmethod
    def _run(*argv):
        """Run the command with its stdout on a pipe whose reader has gone."""
        src = Path(cli.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            cmd = [sys.executable, "-m", "sitcalc.cli", *argv]
            return subprocess.run(cmd, stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120)
        finally:
            os.close(write_end)

    def test_a_closed_pipe_keeps_the_verdict_exit_code(self):
        proc = self._run("progress", path("blocks_stacks.bat"), "--action", "move(A, B, C)", "--json")
        assert proc.returncode == 0, proc.stderr.decode()
        assert proc.stderr == b""

    def test_a_closed_pipe_keeps_a_negative_verdict_exit_code(self):
        # a negative verdict, printed as text
        proc = self._run("oracle", "equiv", path("insep_forgetting_t1.bat"), path("insep_forgetting_t2.bat"))
        assert proc.returncode == 1, proc.stderr.decode()
        assert proc.stderr == b""


class TestNoVerdict:
    @pytest.mark.parametrize(
        "exc, prefix",
        [(RuntimeError("boom"), "internal error:"), (BudgetExceeded("search ran out"), "budget exceeded:")],
        ids=["internal-error", "budget-exceeded"],
    )
    def test_failures_without_a_verdict_exit_3(self, capsys, monkeypatch, exc, prefix):
        def fail(args):
            raise exc

        monkeypatch.setattr(cli, "_cmd_parse", fail)
        code, out, err = run(capsys, "parse", path("blocks_stacks.bat"))
        assert code == 3
        assert out == ""
        assert err.splitlines()[-1].startswith(prefix)

    def test_a_failed_oracle_self_check_is_an_internal_error(self, capsys, monkeypatch):
        # a verdict that does not re-validate is a defect, not bad input
        monkeypatch.setattr(oracle, "theory_holds", lambda m, t: False)
        code, out, err = run(capsys, "oracle", "sat", path("propositional_chain.bat"))
        assert code == 3
        assert out == ""
        assert err.splitlines()[-1] == (
            "internal error: AssertionError: oracle self-check failed: countermodel does not re-validate"
        )
