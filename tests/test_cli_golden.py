"""Golden outputs of the command line on the bundled corpus.

Each case runs one `sitcalc` command in the corpus directory and compares
its exit code and stdout with tests/golden/cli/<case>.txt, whose first line
is `exit N` and whose remaining lines are stdout as printed.  A change that
is meant to keep every output, such as a refactor or a speed-up, must leave
all of them passing.  After a deliberate change of output, rewrite the
files with

    PYTHONPATH=src python tests/test_cli_golden.py

and review the diff.
"""

import contextlib
import io
import os
import sys
from pathlib import Path

import pytest

from sitcalc import corpus_path
from sitcalc.cli import main

GOLDEN = Path(__file__).parent / "golden" / "cli"

BS_MOVE = ("blocks_stacks.bat", "--action", "move(A, B, C)")
INSEP_PAIR = ("insep_forgetting_t1.bat", "insep_forgetting_t2.bat")

CASES = {
    "parse": ("parse", "blocks_stacks.bat"),
    "parse_json": ("parse", "propositional_chain.bat", "--json"),
    "validate": ("validate", "blocks_world.bat"),
    "validate_strict_json": ("validate", "blocks_world.bat", "--strict", "--json"),
    "progress": ("progress", "decomp_lost.bat", "--action", "A(c)"),
    "progress_json": ("progress",) + BS_MOVE + ("--json",),
    "progress_componentwise": ("progress",) + BS_MOVE + ("--componentwise", "--delta2", "Block"),
    "progress_componentwise_json": ("progress",) + BS_MOVE + ("--componentwise", "--delta2", "Block", "--json"),
    "forget_atom": ("forget", "blocks_world.bat", "--atom", "On(A, B)"),
    "forget_atom_no_una_json": ("forget", "blocks_world.bat", "--atom", "Clear(C)", "--no-una", "--json"),
    "forget_symbol": ("forget", "propositional_chain.bat", "--symbol", "P"),
    "decompose": ("decompose", "blocks_stacks.bat", "--delta", "Block"),
    "decompose_none_json": ("decompose", "blocks_stacks_raw.bat", "--delta", "Block", "--json"),
    "check_preservation": ("check-preservation", "blocks_stacks.bat", "--delta2", "Block", "--action", "move(A, B, C)"),
    "check_preservation_lost_json": ("check-preservation", "decomp_lost.bat", "--delta2", "P", "--action", "A(c)", "--json"),
    "project": ("project", "blocks_world.bat", "--actions", "move(A, B, C)", "--query", "On(A, C) & Clear(B)"),
    "project_json": ("project", "blocks_world.bat", "--actions", "move(A, B, C)", "--query", "On(A, B)", "--json"),
    "executable": ("executable", "blocks_world.bat", "--actions", "move(A, B, C); move(A, C, B)"),
    "executable_json": ("executable", "blocks_world.bat", "--actions", "move(A, B, C); move(A, B, C)", "--json"),
    "oracle_entails": ("oracle", "entails", "propositional_chain.bat", "--query", "A -> B"),
    "oracle_entails_countermodel_json": ("oracle", "entails", "propositional_chain.bat", "--query", "B -> A", "--json"),
    "oracle_equiv": ("oracle", "equiv") + INSEP_PAIR,
    "oracle_equiv_no_una_json": ("oracle", "equiv") + INSEP_PAIR + ("--no-una", "--max-extra", "0", "--json"),
    "oracle_sat": ("oracle", "sat", "insep_forgetting_t1.bat"),
    "oracle_sat_no_una_json": ("oracle", "sat", "insep_forgetting_t1.bat", "--no-una", "--max-extra", "0", "--json"),
    "oracle_sat_bat_json": ("oracle", "sat", "blocks_world.bat", "--max-extra", "0", "--json"),
    "oracle_insep": ("oracle", "insep") + INSEP_PAIR + ("--delta", "R,c", "--depth", "1"),
    "oracle_insep_json": ("oracle", "insep") + INSEP_PAIR + ("--delta", "R", "--depth", "1", "--json"),
    "oracle_insep_same_json": ("oracle", "insep", "insep_forgetting_t2.bat", "insep_forgetting_t2.bat", "--delta", "R", "--json"),
}


def run_case(argv):
    """Exit code and stdout of one command, run in the corpus directory."""
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(corpus_path("blocks_world.bat").parent)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main(list(argv))
            except SystemExit as e:
                code = e.code
    finally:
        os.chdir(cwd)
    return f"exit {code}\n{out.getvalue()}"


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_golden(case):
    expected = (GOLDEN / f"{case}.txt").read_text()
    assert run_case(CASES[case]) == expected


def test_every_golden_file_has_a_case():
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == sorted(CASES)


if __name__ == "__main__":
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for name, argv in sorted(CASES.items()):
        (GOLDEN / f"{name}.txt").write_text(run_case(argv))
        print(f"wrote {name}", file=sys.stderr)
