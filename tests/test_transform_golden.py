"""Golden table of the ground-action transform over the bundled corpus.

One row per action theory in the corpus, with and without its
preconditions inlined into the effect conditions, successor state axiom
and ground action over the theory's constants: the rendered gamma+ and
gamma- of transform_ssa, or the class of the error it raises.  The table
lives in tests/golden/transform_ssa.txt.  After a deliberate change of
output, rewrite it with

    PYTHONPATH=src python tests/test_transform_golden.py

and review the diff.
"""

import itertools
import sys
from pathlib import Path

from sitcalc import corpus_path
from sitcalc.bat import GroundAction, inline_preconditions, transform_ssa
from sitcalc.errors import ParseError, SitcalcError
from sitcalc.surface import parse_bat, render

GOLDEN = Path(__file__).parent / "golden" / "transform_ssa.txt"


def _bats():
    for path in sorted(corpus_path("blocks_world.bat").parent.glob("*.bat")):
        try:
            b = parse_bat(path.read_text(), path.name)
        except ParseError:
            continue  # a standalone theory file
        yield path.name, b
        yield path.name + "+poss", inline_preconditions(b)


def table() -> str:
    rows = []
    for name, b in _bats():
        objects = sorted(b.sig.objects)
        actions = [
            GroundAction(fn, args)
            for fn, ar in sorted(b.sig.actions)
            for args in itertools.product(objects, repeat=ar)
        ]
        for s in b.ssas:
            for alpha in actions:
                try:
                    t = transform_ssa(s, alpha)
                    cell = f"+ {render(t.gamma_pos)} | - {render(t.gamma_neg)}"
                except SitcalcError as e:
                    cell = f"error {type(e).__name__}"
                rows.append(f"{name} {s.fluent} {alpha}: {cell}\n")
    return "".join(rows)


def test_transform_table_matches_golden():
    assert table() == GOLDEN.read_text()


if __name__ == "__main__":
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(table())
    print(f"wrote {GOLDEN}", file=sys.stderr)
