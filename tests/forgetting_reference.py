"""Reference implementation of ground-atom forgetting.

This is forget_atom as it was before forgetting became local: every axiom is
relativized, simplified and resolved on g, and an axiom whose relativized
form turns out not to mention g is then kept verbatim.  It exists only so
the tests can compare the local version against it.
"""

from sitcalc.forgetting import relativize, replace_ground
from sitcalc.syntax import FALSE, TRUE, Or, Theory, conj, simplify


def forget_atom(t, g, una=True):
    kept = []
    pos_parts = []
    neg_parts = []
    for ax in t.axioms:
        rel = relativize(ax, g, una)
        pos = replace_ground(rel, g, TRUE)
        neg = replace_ground(rel, g, FALSE)
        if pos == neg:
            kept.append(ax)
        else:
            pos_parts.append(pos)
            neg_parts.append(neg)
    if not pos_parts:
        return t
    forgotten = simplify(Or(conj(pos_parts), conj(neg_parts)), una)
    return Theory(tuple(kept) + (forgotten,))
