"""Golden table of the decomposition layer over the bundled corpus.

One block per action theory in the corpus, shared initial signature delta2
(empty, or one declared symbol) and axiom-group signature delta1 (empty, or
equal to delta2): the rendered components of syntactic_decompose, the
grouping of group_ssas, the alignment report (passed, f_map, violations),
and, for each of up to two ground actions, the strong report's verdict and
the violations it adds to the alignment's.  When the initial theory does
not decompose, the checks run against the whole theory as one component.
A last alignment per delta2 puts every successor state axiom in a group
and every initial axiom in a component of its own, so that the pairwise
overlap conditions fire.
The table lives in tests/golden/decomposition.txt.  After a deliberate
change of output, rewrite it with

    PYTHONPATH=src python tests/test_decomposition_golden.py

and review the diff.
"""

import itertools
import sys
from pathlib import Path

from sitcalc import corpus_path
from sitcalc.bat import GroundAction
from sitcalc.decomposition import (
    Decomposition,
    check_local_effect_preservation,
    check_strong_preservation,
    group_ssas,
    syntactic_decompose,
)
from sitcalc.errors import ParseError
from sitcalc.surface import parse_bat, render
from sitcalc.syntax import Signature, Theory

GOLDEN = Path(__file__).parent / "golden" / "decomposition.txt"


def _bats():
    for path in sorted(corpus_path("blocks_world.bat").parent.glob("*.bat")):
        try:
            yield path.name, parse_bat(path.read_text(), path.name)
        except ParseError:
            continue  # a standalone theory file


def _deltas(sig: Signature):
    """The empty signature, then each declared symbol alone, by name."""
    yield "{}", Signature()
    named = [(c, Signature(objects=frozenset({c}))) for c in sig.objects]
    for pool, kind in (
        (sig.statics, "statics"),
        (sig.fluents, "fluents"),
        (sig.actions, "actions"),
    ):
        named += [(n, Signature(**{kind: frozenset({(n, ar)})})) for n, ar in pool]
    yield from sorted(named, key=lambda p: p[0])


def _actions(sig: Signature) -> list[GroundAction]:
    """Two ground actions, those with pairwise distinct arguments first."""
    objects = sorted(sig.objects)
    acts = [
        GroundAction(fn, args)
        for fn, ar in sorted(sig.actions)
        for args in itertools.product(objects, repeat=ar)
    ]
    acts.sort(key=lambda a: (len(set(a.args)) != len(a.args), str(a)))
    return acts[:2]


def _lines(items) -> str:
    return "".join(f"    {x}\n" for x in items)


def _alignment(b, delta1, delta2, partition, decomp) -> str:
    r = check_local_effect_preservation(b, delta1, delta2, partition, decomp)
    f_map = ", ".join(f"{k}->{v}" for k, v in sorted(r.f_map.items()))
    return f"  alignment passed={r.passed} f_map={{{f_map}}}\n" + _lines(r.violations)


def table() -> str:
    rows = []
    for name, b in _bats():
        actions = _actions(b.sig)
        for dname, delta2 in _deltas(b.sig):
            d = syntactic_decompose(b.init, delta2)
            delta1s = [("{}", Signature())] + ([(dname, delta2)] if dname != "{}" else [])
            for d1name, delta1 in delta1s:
                rows.append(f"{name} delta2={dname} delta1={d1name}\n")
                if d is None:
                    rows.append("  no decomposition\n")
                    decomp = Decomposition(delta2, (b.init,))
                else:
                    decomp = d
                    for i, c in enumerate(d.components):
                        rows.append(f"  component {i}\n")
                        rows.append(_lines(render(ax) for ax in c.axioms))
                partition = group_ssas(b, delta1)
                rows.append(f"  groups {'; '.join(', '.join(g) for g in partition)}\n")
                rows.append(_alignment(b, delta1, delta2, partition, decomp))
                for alpha in actions:
                    s = check_strong_preservation(b, delta1, delta2, alpha, partition, decomp)
                    own = [v for v in s.violations if v not in s.alignment.violations]
                    rows.append(f"  strong {alpha} passed={s.passed}\n")
                    rows.append(_lines(own))
            rows.append(f"{name} delta2={dname} singletons\n")
            singletons = tuple((s.fluent,) for s in b.ssas)
            pieces = Decomposition(delta2, tuple(Theory((ax,)) for ax in b.init.axioms))
            rows.append(_alignment(b, Signature(), delta2, singletons, pieces))
    return "".join(rows)


def test_decomposition_table_matches_golden():
    assert table() == GOLDEN.read_text()


if __name__ == "__main__":
    GOLDEN.write_text(table())
    print(f"wrote {GOLDEN}", file=sys.stderr)
