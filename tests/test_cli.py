"""Command line behavior: exit codes, report shapes, output files."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sitcalc import cli, corpus_path
from sitcalc.cli import main
from sitcalc.errors import BudgetExceeded
from sitcalc.surface import parse_bat


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
    def test_a_closed_pipe_keeps_the_verdict_exit_code(self):
        src = Path(cli.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
        argv = [
            sys.executable, "-m", "sitcalc.cli", "progress", path("blocks_stacks.bat"),
            "--action", "move(A, B, C)", "--json",
        ]
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(argv, stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120)
        finally:
            os.close(write_end)
        assert proc.returncode == 0, proc.stderr.decode()
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
